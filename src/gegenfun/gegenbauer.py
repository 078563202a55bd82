"""Gegenbauer polynomial values, monomial coefficients, and generating series.

The three-term recurrence

    n C_n(x) = 2(n + lam - 1) x C_{n-1}(x) - (n + 2 lam - 2) C_{n-2}(x),
    C_0 = 1,  C_1 = 2 lam x,

is the primary evaluation path; the terminating-hypergeometric form
(2 lam)_n / n! * 2F1(-n, n + 2 lam; lam + 1/2; (1-x)/2) is the cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, InvalidLambda
from .hypergeometric import as_negative_integer, gauss_2f1_scalar, pochhammer
from .series import DTYPE, TruncatedSeries, mixed_deviation, pow_alpha

Scalar = complex | float | int

# Internal agreement threshold between the two construction paths of the
# ordinary generating function (mixed deviation per coefficient).
_GF_AGREEMENT = 1e-8


def check_lambda(lam: float) -> None:
    """Reject lam in {0, -1/2, -1, -3/2, ...} (2 lam a non-positive integer)."""
    if as_negative_integer(2.0 * lam) is not None:
        raise InvalidLambda(f"lambda = {lam} is excluded")


def gegenbauer_recurrence(lam: float, n_max: int, x: Scalar) -> np.ndarray:
    """Values C_0(x) .. C_{n_max}(x) from the three-term recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    out = np.zeros(n_max + 1, dtype=DTYPE)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * lam * x
    for n in range(2, n_max + 1):
        out[n] = (2.0 * (n + lam - 1.0) * x * out[n - 1] - (n + 2.0 * lam - 2.0) * out[n - 2]) / n
    return out


def gegenbauer_hypergeometric(lam: float, n: int, x: Scalar) -> complex:
    """C_n(x) via terminating 2F1 forms; the cross-path check for the recurrence.

    Real arguments are routed for stability: negative x is parity-mapped
    (at |x| >= 1 the sum at (1-|x|)/2 <= 0 then has all-positive terms),
    and |x| < 1 uses the quadratic-transformed even/odd forms

        C_{2m}(x)   = (-1)^m ((lam)_m / m!)      2F1(-m, m+lam;   1/2; x**2)
        C_{2m+1}(x) = (-1)^m ((lam)_{m+1} / m!) 2x 2F1(-m, m+lam+1; 3/2; x**2)

    whose half-degree sums at x**2 < 1 do not cancel catastrophically."""
    check_lambda(lam)
    xc = complex(x)
    if xc.imag == 0.0 and abs(xc.real) < 1.0:
        m, odd = divmod(n, 2)
        x2 = xc.real * xc.real
        if odd:
            w = pochhammer(lam, m + 1) / math.factorial(m) * 2.0 * xc.real
            f = gauss_2f1_scalar(-m, m + lam + 1.0, 1.5, x2)
        else:
            w = pochhammer(lam, m) / math.factorial(m)
            f = gauss_2f1_scalar(-m, m + lam, 0.5, x2)
        return complex((-1.0) ** (m % 2) * w * f)
    sign = 1.0
    if xc.imag == 0.0 and xc.real < 0.0:
        xc, sign = -xc, (-1.0) ** (n % 2)
    w = pochhammer(2.0 * lam, n) / math.factorial(n)
    return complex(sign * w * gauss_2f1_scalar(-n, n + 2.0 * lam, lam + 0.5, (1.0 - xc) / 2.0))


def gegenbauer_monomial_coeffs(lam: float, n: int) -> np.ndarray:
    """Monomial coefficients of C_n (ascending powers), via the recurrence on arrays."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = np.zeros(n + 1, dtype=DTYPE)
    prev[0] = 1.0
    if n == 0:
        return prev
    cur = np.zeros(n + 1, dtype=DTYPE)
    cur[1] = 2.0 * lam
    for m in range(2, n + 1):
        nxt = np.zeros(n + 1, dtype=DTYPE)
        nxt[1:] = 2.0 * (m + lam - 1.0) * cur[:-1]
        nxt -= (m + 2.0 * lam - 2.0) * prev
        nxt /= m
        prev, cur = cur, nxt
    return cur


def gegenbauer_of_series(lam: float, n: int, z: TruncatedSeries) -> TruncatedSeries:
    """The degree-n polynomial C_n evaluated at a series argument by Horner."""
    mono = gegenbauer_monomial_coeffs(lam, n)
    acc = TruncatedSeries.from_constant(mono[n], z.order)
    for k in range(n - 1, -1, -1):
        acc = acc * z + mono[k]
    return acc


def gegenbauer_weighted_series(
    lam: float, x: Scalar, order: int, weights: np.ndarray
) -> TruncatedSeries:
    """Series sum_n weights[n] C_n(x) t**n up to the given order."""
    vals = gegenbauer_recurrence(lam, order, x)
    return TruncatedSeries(vals * np.asarray(weights, dtype=DTYPE)[: order + 1])


def ordinary_gf_series(lam: float, x: Scalar, order: int) -> TruncatedSeries:
    """The series (1 - 2 x t + t**2)^(-lam), asserted against the recurrence path."""
    if order < 0:
        raise ValueError("order must be non-negative")
    base = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order)
    powered = pow_alpha(base, -lam)
    recur = TruncatedSeries(gegenbauer_recurrence(lam, order, x))
    dev = mixed_deviation(powered, recur)
    if dev > _GF_AGREEMENT:
        raise ConsistencyError(
            f"generating-function paths disagree (mixed deviation {dev:.3e})"
        )
    return powered
