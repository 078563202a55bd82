"""Truncated power series in t with complex coefficients.

A series of order N stores the N+1 Taylor coefficients of a function at
t = 0; higher-order terms are unknown rather than zero.  Arithmetic results
carry order = min of the operand orders.  Division by a series whose first
nonzero coefficient sits at index v > 0 removes the common factor t^v and
reduces the order by v, so callers that need order N after divisions must
over-allocate.

All operations are pure: no instance is mutated after construction.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .errors import (
    DivisionByZeroSeries,
    NonFiniteCoefficient,
    NonvanishingInner,
    ZeroConstantTerm,
)

Scalar = Union[int, float, complex]

# Coefficients are held in the widest hardware complex type.  On x86 this is
# 80-bit extended (eps ~ 1e-19), which buys three digits of headroom against
# the cancellation inherent in composing hypergeometric series with
# large-coefficient arguments; elsewhere it silently aliases complex128.
DTYPE = np.clongdouble
_REAL_DTYPE = np.longdouble
_ZERO = DTYPE(0)

# div and pow_alpha sum only over the nonzero tail coefficients of their
# operand when it has at most this many; denser operands take the array loop.
# The scalar sum costs about as much per step as the array loop at about 8
# nonzero coefficients for N = 16, and at more for longer series.
_SPARSE_MAX = 6

# The dense pow_alpha loop forms the weights ((alpha+1)k - m) a_k of this many
# steps in one array operation; each temporary holds at most _BLOCK * N values.
# At the catalog's longest series (N = 204) that is about 100 KiB, below the
# 128 KiB from which glibc malloc maps fresh pages for each allocation: there
# 32 steps ran about 30% slower than 16, while at N = 66 16 cost about 4% more.
_BLOCK = 16


class TruncatedSeries:
    """Degree-N jet: coeffs[n] is the coefficient of t**n, len = order+1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] | np.ndarray):
        c = np.asarray(coeffs, dtype=DTYPE)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.isfinite(c.view(_REAL_DTYPE)).all():
            raise NonFiniteCoefficient("non-finite coefficient")
        self.coeffs = c

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def from_constant(cls, c: Scalar, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be non-negative")
        a = np.zeros(order + 1, dtype=DTYPE)
        a[0] = c
        return cls(a)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[Scalar], order: int) -> "TruncatedSeries":
        """Polynomial coefficients padded with zeros (or truncated) to the given order."""
        a = np.zeros(order + 1, dtype=DTYPE)
        src = np.asarray(coeffs, dtype=DTYPE)
        n = min(src.size, order + 1)
        a[:n] = src[:n]
        return cls(a)

    # -- basic queries ------------------------------------------------------

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient; None for the zero series."""
        nonzero = np.flatnonzero(self.coeffs)
        return int(nonzero[0]) if nonzero.size else None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order) + 1
            return TruncatedSeries(self.coeffs[:n] + other.coeffs[:n])
        c = self.coeffs.copy()
        c[0] += other
        return TruncatedSeries(c)

    __radd__ = __add__

    def __sub__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -1.0 * other)

    def __rsub__(self, other: Scalar) -> "TruncatedSeries":
        return (-self) + other

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs)

    def __mul__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order) + 1
            return TruncatedSeries(np.convolve(self.coeffs, other.coeffs)[:n])
        return TruncatedSeries(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return div(self, other)
        return TruncatedSeries(self.coeffs / other)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs.tolist()!r})"


# -- series operations --------------------------------------------------------


def _shift_down(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Divide by t**k, discarding the k leading coefficients, which must be zero."""
    if k == 0:
        return a
    if a.order < k:
        raise ValueError("shift exceeds order")
    return TruncatedSeries(a.coeffs[k:])


def _shift_up(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by t**k; the known coefficient window grows with the shift."""
    if k == 0:
        return a
    return TruncatedSeries(np.concatenate([np.zeros(k, dtype=DTYPE), a.coeffs]))


def _lattice(support: np.ndarray) -> int:
    """gcd of the exponents k + 1 of the tail indices k in support (0 if empty)."""
    return int(np.gcd.reduce(support + 1))


def _off_lattice(n: int, g: int) -> np.ndarray:
    """The steps 1..n that are not multiples of g."""
    steps = np.arange(1, n + 1)
    return steps[steps % g != 0]


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series division with removable-singularity handling.

    Requires valuation(b) <= valuation(a).  A common factor t**v with
    v = valuation(b) is divided out of both operands first; the result's
    order is min(order a, order b) - v.

    A divisor whose shifted tail has at most _SPARSE_MAX nonzero
    coefficients, such as a polynomial of degree d, takes O(d N) scalar work
    in place of the O(N**2) array loop, bitwise identical to it as in
    pow_alpha.

    A denser divisor runs the array loop on the lattice g Z, where g is the
    gcd of the nonzero exponents n >= 1 of the shifted divisor and dividend.
    Off the lattice every product of the loop has an exact-zero factor, so
    its dot sum is +0, an[n] (a zero) minus +0 is an[n], and step n gives
    an[n] / b0; those steps are formed in one array division.  A step on the lattice sums only the
    lattice terms, in the loop's order; the terms it skips are exact zeros,
    which leave a sum started at +0 unchanged.  So every coefficient is
    bitwise identical to the array loop, which takes g times the steps and
    about g**2 times the products.
    """
    vb = b.valuation()
    if vb is None:
        raise DivisionByZeroSeries("divisor is the zero series")
    va = a.valuation()
    order = min(a.order, b.order) - vb
    if va is None:
        if order < 0:
            raise DivisionByZeroSeries("no retained coefficients after valuation shift")
        return TruncatedSeries.from_constant(0.0, order)
    if vb > va:
        raise DivisionByZeroSeries(
            f"divisor valuation {vb} exceeds dividend valuation {va}"
        )
    # Both shifted operands keep at least order + 1 coefficients.
    an = a.coeffs[vb:]
    bn = b.coeffs[vb:]
    out = np.zeros(order + 1, dtype=DTYPE)
    b0 = bn[0]
    out[0] = an[0] / b0
    tail = bn[1 : order + 1]
    support = np.flatnonzero(tail)
    if support.size > _SPARSE_MAX:
        g = _lattice(support)
        if g > 1:
            g = math.gcd(g, _lattice(np.flatnonzero(an[1 : order + 1])))
        if g > 1:
            off = _off_lattice(order, g)
            out[off] = an[off] / b0
        for n in range(g, order + 1, g):
            out[n] = (an[n] - np.dot(out[n - g :: -g], bn[g : n + 1 : g])) / b0
        return TruncatedSeries(out)
    terms = [(int(k) + 1, tail[k]) for k in support]
    vals = [out[0]]
    for n, an_n in enumerate(an[1 : order + 1], 1):
        acc = _ZERO
        for k, c in terms:
            if k > n:
                break
            acc = acc + vals[n - k] * c
        vals.append((an_n - acc) / b0)
    return TruncatedSeries(np.array(vals, dtype=DTYPE))


def pow_alpha(a: TruncatedSeries, alpha: Scalar) -> TruncatedSeries:
    """a**alpha for arbitrary complex alpha, principal branch of the constant term.

    Uses the standard power recurrence b_n = (1/(n a_0)) * sum_{k=1..n}
    ((alpha+1)k - n) a_k b_{n-k}, which needs a nonzero constant term.

    Cost: n steps of O(n) array work and no n x n temporary.  The weights
    (alpha+1)k are formed once, and ((alpha+1)k - m) a_k for a block of
    _BLOCK steps m in one array operation, with the operations and dtypes of
    the textbook loop, so every coefficient is bitwise identical to it.

    Both paths run on the lattice g Z, where g is the gcd of the exponents
    k >= 1 with a_k nonzero, as for a function of t**g.  Off the lattice every
    product has an exact-zero factor (a_k, or b_{m-k} by induction), so the
    loop's dot sum is +0 and step m gives +0 / (m a_0), formed in one array
    division.  A step on the lattice sums only the lattice terms, in the
    loop's order; the skipped terms are exact zeros, as below.  That runs
    1 / g of the steps and about 1 / g**2 of the products.

    A base with at most _SPARSE_MAX nonzero tail coefficients, such as a
    polynomial of degree d, takes O(d n) scalar work instead: step m sums only
    the terms whose a_k is nonzero, in ascending k, from a +0 start, with the
    products the array loop forms.  A skipped term is a finite value times an
    exact zero, and a sum that starts at +0 never becomes -0, so adding it
    would change nothing: every coefficient is bitwise identical to the array
    loop.  An overflow leaves an inf in the result on both paths, and its
    construction raises ValueError.
    """
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("series has zero constant term")
    n = a.order
    out = np.zeros(n + 1, dtype=DTYPE)
    out[0] = a0 ** alpha
    steps = np.arange(1, n + 1)
    ak = (alpha + 1) * steps
    ac = a.coeffs[1:]
    support = np.flatnonzero(ac)
    # With an empty tail no step lies on the lattice.
    g = _lattice(support) or n + 1
    if g > 1:
        off = _off_lattice(n, g)
        out[off] = _ZERO / (off * a0)
    if support.size > _SPARSE_MAX:
        akg, acg = ak[g - 1 :: g], ac[g - 1 :: g]
        for first in range(g, n + 1, _BLOCK * g):
            ms = np.arange(first, min(first + _BLOCK * g, n + 1), g)
            c = ms[-1] // g
            # Row j holds ((alpha+1)k - m) a_k for m = ms[j] and k = g, ..., c g.
            w = (akg[:c] - ms[:, None]) * acg[:c]
            for row, m in zip(w, ms.tolist()):
                out[m] = np.dot(row[: m // g], out[m - g :: -g]) / (m * a0)
        return TruncatedSeries(out)
    # Per nonzero ac[k], its weighted coefficient at every step m, formed as
    # the array loop forms it: ((alpha+1)(k+1) - m) ac[k].
    terms = [(int(k), list((ak[k] - steps) * ac[k])) for k in support]
    vals = list(out)
    for m in range(g, n + 1, g):
        acc = _ZERO
        for k, wc in terms:
            if k >= m:
                break
            acc = acc + wc[m - 1] * vals[m - 1 - k]
        vals[m] = acc / (m * a0)
    return TruncatedSeries(np.array(vals, dtype=DTYPE))


def compose_vanishing(
    outer_coeffs: Sequence[Scalar] | np.ndarray, inner: TruncatedSeries
) -> TruncatedSeries:
    """Evaluate the Maclaurin polynomial sum outer[k] z**k at a series z with z(0) = 0.

    Horner's rule, acc <- acc * z + outer[k], run on raw coefficient arrays.
    Let v be the number of leading coefficients of z that are exactly zero.
    The accumulator of step k is later multiplied by z**k, so only its first
    N - k v + 1 coefficients can reach the order-N result: only those are
    kept, and the steps with k > N // v, which reach none, are skipped.
    Cost: sum_k (N - k v + 1)**2 products, about N**3 / (3 v) against N**3
    for plain Horner.  z(0) must be exactly zero, so v >= 1.

    Every coefficient is bitwise identical to plain full-width Horner: a
    dropped product term is a finite coefficient times an exact zero of z,
    and adding such a zero leaves a dot-product sum unchanged.  Both
    convolution operands have the same length, because np.convolve swaps a
    longer second operand and so changes the summation order.  A
    coefficient outside the window is never formed, so it cannot overflow;
    an overflow inside it spreads through inf * 0 = nan to the result, whose
    construction raises ValueError.

    Horner starts at the last nonzero outer[k] in the window, which skips the
    trailing zeros of a terminating series.  Plain Horner reaches that step
    with an accumulator of +0s (a convolution of zeros is a sum of zeros from
    +0, and adding a zero keeps it +0) and adds outer[k] to +0: the addition
    form used here, which turns a -0 part into +0.  Only when plain Horner
    runs no step (n = 0) is outer[0] the result's constant term unchanged.

    When every imaginary part of z and of the used outer coefficients is zero,
    the loop runs on the real parts in _REAL_DTYPE, which costs under half
    the complex convolution.  Bitwise: the complex dot sum's real part adds
    ar*br - ai*bi, where ai*bi is an exact zero, so a nonzero ar*br is added
    unchanged and a zero one leaves the sum from +0 unchanged, as in the real
    sum of ar*br; its imaginary part sums zeros from +0 and is +0, and adding
    outer[k], whose imaginary part is a zero, keeps it +0: the imaginary part
    of the real lane's result.
    """
    if inner.coeffs[0] != 0:
        raise NonvanishingInner("inner series has nonzero constant term")
    outer = np.asarray(outer_coeffs, dtype=DTYPE)
    z = inner.coeffs
    order = inner.order
    n = min(outer.size - 1, order)
    if n == 0:
        # No Horner step follows, so the zero signs of outer[0] survive.
        return TruncatedSeries.from_constant(outer[0], order)
    # None for the zero series, which reaches no Horner step.
    v = inner.valuation() or order + 1
    k0 = min(n, order // v)
    top = np.flatnonzero(outer[: k0 + 1])
    k0 = int(top[-1]) if top.size else 0
    outer = outer[: k0 + 1]
    if not (z.imag.any() or outer.imag.any()):
        z, outer = z.real.copy(), outer.real
    # The window only widens, so the buffer past it still holds zeros: they
    # pad the accumulator to the length of z[:width].
    acc = np.zeros(order + 1, dtype=z.dtype)
    acc[0] += outer[k0]
    for k in range(k0 - 1, -1, -1):
        width = order - k * v + 1
        acc[:width] = np.convolve(acc[:width], z[:width])[:width]
        acc[0] += outer[k]
    return TruncatedSeries(acc)


def mixed_deviation(a: TruncatedSeries, b: TruncatedSeries, upto: int | None = None) -> float:
    """max_n |a_n - b_n| / max(1, |a_n|, |b_n|) over the shared coefficient window."""
    n = min(a.order, b.order)
    if upto is not None:
        if upto > n:
            raise ValueError(f"requested order {upto} exceeds available order {n}")
        n = upto
    x, y = a.coeffs[: n + 1], b.coeffs[: n + 1]
    denom = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return float(np.max(np.abs(x - y) / denom))
