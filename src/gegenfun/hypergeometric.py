"""Pochhammer symbols, the Gauss 2F1, terminating pFq, and the real Gamma function.

Everything here is plain series summation over complex parameters.  The
scalar 2F1 sums directly for moderate arguments and switches to the Pfaff
map z -> z/(z-1) for real z <= -1/2, which keeps the mapped argument inside
the summation domain without any analytic continuation past the unit disk.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NoConvergence, PoleAtNonPositiveInteger, PoleInDenominatorParams
from .series import DTYPE, TruncatedSeries, compose_vanishing

Scalar = complex | float | int

# The one membership tolerance: a float is read as a point of Z, or of Z ± r,
# when it lies within INT_TOL of it (`as_negative_integer`, `in_z_pm`).
INT_TOL = 1e-9

# Direct summation is refused at |z| >= DIRECT_LIMIT outside the terminating
# case; real z <= -0.5 goes through the Pfaff map first.
DIRECT_LIMIT = 0.99
MAX_TERMS = 100_000
# The direct sum checks its partial sum for inf or NaN, which it never
# recovers from, after each block of this many terms (a divisor of MAX_TERMS).
_FINITE_CHECK_EVERY = 50


def as_negative_integer(x: Scalar) -> int | None:
    """Return -n when x is within INT_TOL of a non-positive integer, else None."""
    xr = complex(x)
    if abs(xr.imag) > INT_TOL:
        return None
    n = round(xr.real)
    if n <= 0 and abs(xr.real - n) <= INT_TOL:
        return int(n)
    return None


def in_z_pm(x: float, r: float) -> bool:
    """Whether x is within INT_TOL of Z + r or of Z - r; r = 0 tests for an integer."""
    lo, hi = x - r, x + r
    return abs(lo - round(lo)) <= INT_TOL or abs(hi - round(hi)) <= INT_TOL


def pochhammer(a: Scalar, n: int) -> complex:
    """Rising factorial a (a+1) ... (a+n-1); empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    acc = 1.0 + 0.0j
    for k in range(n):
        acc *= a + k
    return acc


def gamma_fn(x: float) -> float:
    """Real Gamma function; poles at non-positive integers are rejected."""
    if as_negative_integer(x) is not None:
        raise PoleAtNonPositiveInteger(f"Gamma pole at x = {x}")
    return math.gamma(x)


def _termination_index(a: Scalar, b: Scalar) -> int | None:
    """Smallest n such that (a)_k (b)_k = 0 for k > n, when a or b is a negative integer."""
    candidates = [-m for m in (as_negative_integer(a), as_negative_integer(b)) if m is not None]
    return min(candidates) if candidates else None


def _check_denominator(c: Scalar, n_terminate: int | None, kmax: int) -> None:
    """(c)_k must not vanish before either termination or the last used term."""
    mc = as_negative_integer(c)
    if mc is None:
        return
    pole_k = -mc + 1  # first k with (c)_k = 0
    stop = n_terminate + 1 if n_terminate is not None else kmax + 1
    if pole_k < stop:
        raise PoleInDenominatorParams(
            f"lower parameter {c} hits a pole before the series terminates"
        )


def gauss_2f1_coeffs(a: Scalar, b: Scalar, c: Scalar, order: int) -> np.ndarray:
    """Maclaurin coefficients (a)_k (b)_k / ((c)_k k!) for k = 0..order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    n_term = _termination_index(a, b)
    _check_denominator(c, n_term, order)
    n = order if n_term is None else min(order, n_term)
    k = np.arange(n)
    aa, bb, cc = DTYPE(a), DTYPE(b), DTYPE(c)
    # [1, r_0, r_1, ...] with r_k the ratio of terms k + 1 and k; the leading
    # 1 makes the first product 1 r_0, as a running product from 1 forms it.
    ratios = np.ones(n + 1, dtype=DTYPE)
    ratios[1:] = (aa + k) * (bb + k) / ((cc + k) * (k + 1))
    out = np.zeros(order + 1, dtype=DTYPE)
    out[: n + 1] = np.multiply.accumulate(ratios)
    return out


def gauss_2f1_scalar(a: Scalar, b: Scalar, c: Scalar, z: Scalar, tol: float = 1e-14) -> complex:
    """Gauss 2F1 by direct summation (terminating series are summed exactly).

    Stops once three consecutive terms fall below tol times the accumulated
    magnitude.  Raises NoConvergence if the partial sum is not finite there,
    or at the end of any block of _FINITE_CHECK_EVERY terms.  Real
    arguments z <= -0.5 are summed after the Pfaff transformation
    2F1(a,b;c;z) = (1-z)^(-a) 2F1(a,c-b;c;z/(z-1)).

    The direct sum runs in float arithmetic when a, b, c and z are real, and
    turns complex at the first product otherwise.  CPython 3.10-3.13 promotes
    a float operand of complex arithmetic to complex(x, 0.0), whose real-part
    results equal the float ones, so the float sum is bitwise identical to an
    all-complex one; a real result's imaginary part is +0.0.
    """
    n_term = _termination_index(a, b)
    if n_term is not None:
        _check_denominator(c, n_term, n_term)
        # extended precision: alternating terminating sums cancel heavily
        aa, bb, cc, zz = DTYPE(a), DTYPE(b), DTYPE(c), DTYPE(z)
        acc = DTYPE(1.0)
        term = DTYPE(1.0)
        for k in range(n_term):
            term *= (aa + k) * (bb + k) * zz / ((cc + k) * (k + 1))
            acc += term
        return complex(acc)

    zc = complex(z)
    if abs(zc.imag) < 1e-300 and zc.real <= -0.5:
        w = zc / (zc - 1.0)
        return complex(
            (1.0 - zc) ** (-complex(a)) * gauss_2f1_scalar(a, c - b, c, w, tol)
        )
    if abs(zc) >= DIRECT_LIMIT:
        raise NoConvergence(f"|z| = {abs(zc):.4f} outside the direct-summation domain")
    _check_denominator(c, None, MAX_TERMS)
    zs = zc.real if zc.imag == 0.0 else zc
    acc = 1.0
    term = 1.0
    small = 0
    for start in range(0, MAX_TERMS, _FINITE_CHECK_EVERY):
        for k in range(start, start + _FINITE_CHECK_EVERY):
            term *= (a + k) * (b + k) * zs / ((c + k) * (k + 1))
            acc += term
            m = abs(acc)
            if abs(term) < tol * (m if m > 1.0 else 1.0):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        if not math.isfinite(m):
            raise NoConvergence(f"2F1 partial sum {acc} is not finite at z = {z}")
        if small >= 3:
            return complex(acc)
    raise NoConvergence(f"2F1 did not converge within {MAX_TERMS} terms at z = {z}")


def gauss_2f1_series(a: Scalar, b: Scalar, c: Scalar, inner: TruncatedSeries) -> TruncatedSeries:
    """2F1 composed with a series argument vanishing at t = 0."""
    return compose_vanishing(gauss_2f1_coeffs(a, b, c, inner.order), inner)


def pfq_terminating_all(
    order: int,
    extra_numerators: Sequence[Scalar],
    denominators: Sequence[Scalar],
    u: Scalar,
) -> np.ndarray:
    """The (p+1)Fq(-n, c_1..c_p; d_1..d_q; u) for n = 0..order, as one DTYPE array.

    With s_k = u prod (c_i + k) / (prod (d_j + k) (k + 1)), formed once for
    every n, the k-th term of the n-th sum is prod_{j <= k} (j - n) s_j.  Row n
    of the cumulative product of (k - n) s_k holds those terms; the factor
    k - n vanishes at k = n, so the row is exact zeros from there on.  The
    rows k - n are overlapping windows of one array -order..order-1, so the
    (order + 1) x order matrix of differences is a view, never formed.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    for d in denominators:
        md = as_negative_integer(d)
        if md is not None and -md + 1 <= order:
            raise PoleInDenominatorParams(
                f"denominator parameter {d} vanishes within the finite sum"
            )
    k = np.arange(order, dtype=DTYPE)
    num = np.full(order, DTYPE(u))
    for c in extra_numerators:
        num *= k + c
    den = k + 1
    for d in denominators:
        den *= k + d
    diffs = sliding_window_view(np.arange(-order, order, dtype=DTYPE), order)[::-1]
    steps = diffs * (num / den)
    return 1 + np.cumprod(steps, axis=1).sum(axis=1)

