"""Builders for both sides of every generating-function identity, as truncated series.

Naming: R2 is the polynomial 1 - 2xt + t**2 (so R = R2**(1/2) with R(0) = 1),
U2 is 1 - 2(1-u)xt + (1-u)**2 t**2, and Q is R**2 + u(x-t)t, which expands to
the polynomial 1 - (2-u)xt + (1-u)t**2.

Every builder works at the order it reports.  Only the two radical examples
below divide out a valuation, and each pads its working order by exactly the
coefficients that division removes.

Left sides are weighted Gegenbauer sums (`lhs_ratio`, `lhs_extended_first`,
`lhs_lemma`), each rejecting an excluded lam.  Each parameter relation has one
home, shared by both sides and the u-extensions: the weights of each family
(`_first_weights`, `_second_weights`, `_alt_weights`), the 2F1 triples of the
square-root form "a" and the transformed form "b" (`_gauss_triple`), the
rewrites' (lam, gamma) (`_rewrite_params`) and Miller's pair gamma in
{-N, 2 lam + N} (`_miller_gammas`).  They raise on an unknown variant or which.

The two quarter-family closed-form examples (radical expressions in e**xi)
need special care:

* e**xi = (1 - (x - sqrt(x**2-1)) t) / R has constant term 1 (xi -> 0 with t),
  so sinh(xi)/sinh(xi/3) is a 0/0 ratio resolved by the valuation shift.
* e**xi = t sqrt(x**2-1) / (1 - R - xt) has a genuine t**(-1) pole, and its
  cube root carries t**(-1/3).  The pole is factored by hand: with t = s**3,
  s**3 e**xi is a regular series in s with constant term 2/sqrt|x**2-1|, and
  every intermediate is a plain series in s times a power of s known from
  that factor.  The final combination must land on exponents divisible by 3
  (a genuine power series in t); leftovers above tolerance raise
  UncancelledPole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, UncancelledPole
from .gegenbauer import check_lambda, gegenbauer_of_series, gegenbauer_weighted_series
from .hypergeometric import gamma_fn, gauss_2f1_series, in_z_pm, pfq_terminating_all, pochhammer
from .legendre import legendre_analytic_series
from .series import DTYPE, TruncatedSeries, _shift_down, _shift_up, div, pow_alpha

Scalar = complex | float | int


# -- building blocks -----------------------------------------------------------


def _r2(x: Scalar, order: int) -> TruncatedSeries:
    return TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order)


def _u2(u: Scalar, x: Scalar, order: int) -> TruncatedSeries:
    v = 1.0 - u
    return TruncatedSeries.from_polynomial([1.0, -2.0 * v * x, v * v], order)


def _q_poly(u: Scalar, x: Scalar, order: int) -> TruncatedSeries:
    # R**2 + u(x-t)t = 1 - (2-u)xt + (1-u)t**2
    return TruncatedSeries.from_polynomial([1.0, -(2.0 - u) * x, 1.0 - u], order)


def _one_minus_xt(x: Scalar, order: int) -> TruncatedSeries:
    return TruncatedSeries.from_polynomial([1.0, -x], order)


def _t(order: int) -> TruncatedSeries:
    """The series t; at order 0 it is the zero series."""
    return TruncatedSeries.from_polynomial([0.0, 1.0], order)


# -- left-hand sides: weight families times Gegenbauer values -------------------


def lhs_ratio(
    lam: float,
    numerators: tuple[Scalar, ...],
    denominators: tuple[Scalar, ...],
    x: Scalar,
    order: int,
) -> TruncatedSeries:
    """sum_n (prod (c_i)_n / prod (d_j)_n) C_n(x) t**n; the weights are built
    incrementally, so a terminating numerator gives exact zeros."""
    check_lambda(lam)
    w = np.zeros(order + 1, dtype=DTYPE)
    w[0] = 1.0
    for n in range(1, order + 1):
        f = w[n - 1]
        for a in numerators:
            f *= a + n - 1
        for b in denominators:
            f /= b + n - 1
        w[n] = f
    return gegenbauer_weighted_series(lam, x, order, w)


def _weights_2f1_terminating(b: Scalar, c: Scalar, u: Scalar, order: int) -> np.ndarray:
    """w_n = 2F1(-n, b; c; u) by the contiguous recurrence in the degree,

        (c+n) w_{n+1} = (2n + c - (b+n) u) w_n + n (u-1) w_{n-1},

    which avoids the cancellation of the direct alternating sum (at u = 1 it
    collapses to the exact product (c-b)_n/(c)_n, so termination is exact)."""
    w = np.zeros(order + 1, dtype=DTYPE)
    bb, cc, uu = DTYPE(b), DTYPE(c), DTYPE(u)
    w[0] = 1.0
    if order >= 1:
        w[1] = 1.0 - bb * uu / cc
    for n in range(1, order):
        w[n + 1] = ((2 * n + cc - (bb + n) * uu) * w[n] + n * (uu - 1.0) * w[n - 1]) / (cc + n)
    return w


def lhs_extended_first(
    lam: float, gamma: Scalar, u: Scalar, x: Scalar, order: int
) -> TruncatedSeries:
    """Weights 2F1(-n, 2 lam - gamma; 2 lam; u)."""
    check_lambda(lam)
    w = _weights_2f1_terminating(2.0 * lam - gamma, 2.0 * lam, u, order)
    return gegenbauer_weighted_series(lam, x, order, w)


def lhs_lemma(
    lam: float,
    numerators: tuple[Scalar, ...],
    denominators: tuple[Scalar, ...],
    u: Scalar,
    x: Scalar,
    order: int,
) -> TruncatedSeries:
    """Weights (p+1)Fq(-n, c_1..c_p; d_1..d_q; u)."""
    check_lambda(lam)
    w = pfq_terminating_all(order, numerators, denominators, u)
    return gegenbauer_weighted_series(lam, x, order, w)


# -- family parameters ---------------------------------------------------------------


def _first_weights(lam: float, gamma: Scalar) -> tuple[tuple, tuple]:
    """(gamma)_n / (2 lam)_n."""
    return (gamma,), (2.0 * lam,)


def _second_weights(lam: float, gamma: Scalar) -> tuple[tuple, tuple]:
    """(gamma)_n (2 lam - gamma)_n / ((2 lam)_n (lam + 1/2)_n)."""
    a, b, c = _gauss_triple(lam, gamma, "a")
    return (a, b), (2.0 * lam, c)


def _alt_weights(lam: float, which: int) -> tuple[tuple, tuple]:
    """(lam + 1/2)_n / (2 lam)_n (which = 1) or (lam - 1/2)_n / (2 lam)_n (which = 2)."""
    if which not in (1, 2):
        raise ValueError(f"unknown which {which!r}")
    return (lam + 0.5 if which == 1 else lam - 0.5,), (2.0 * lam,)


def _gauss_triple(lam: float, gamma: Scalar, variant: str) -> tuple[Scalar, Scalar, Scalar]:
    """The 2F1 parameters of the square-root form "a", (gamma, 2 lam - gamma;
    lam + 1/2), and of the quadratic-transformed form "b", (gamma/2,
    gamma/2 + 1/2; lam + 1/2)."""
    c = lam + 0.5
    if variant == "a":
        return gamma, 2.0 * lam - gamma, c
    if variant == "b":
        return gamma / 2.0, gamma / 2.0 + 0.5, c
    raise ValueError(f"unknown variant {variant!r}")


def _rewrite_params(nu: float, mu: float, variant: str) -> tuple[float, float]:
    """The (lam, gamma) of the Legendre rewrites: lam = 1/2 - mu with
    gamma = -nu - mu (variant "a") or gamma = 1/2 - 2 mu (variant "b")."""
    if variant == "a":
        return 0.5 - mu, -nu - mu
    if variant == "b":
        return 0.5 - mu, 0.5 - 2.0 * mu
    raise ValueError(f"unknown variant {variant!r}")


def _miller_gammas(lam: float, big_n: int, which: str, names: tuple[str, str]) -> tuple[float, float]:
    """Miller's pair gamma in {-N, 2 lam + N}: the value named by `which`
    (names[0] picks -N), then the other one."""
    check_lambda(lam)
    if big_n < 0:
        raise ValueError("N must be non-negative")
    pair = (-float(big_n), 2.0 * lam + big_n)
    if which == names[0]:
        return pair
    if which == names[1]:
        return pair[::-1]
    raise ValueError(f"unknown which {which!r}")


# -- first generating function ---------------------------------------------------


def first_gf(
    lam: float, gamma: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """sum_n ((gamma)_n/(2 lam)_n) C_n(x) t**n against, for variant "a",
    R**(-gamma) 2F1(gamma, 2 lam - gamma; lam + 1/2; (R - 1 + xt)/(2R)), or,
    for variant "b", (1-xt)**(-gamma) 2F1(gamma/2, gamma/2 + 1/2; lam + 1/2;
    (x**2-1)t**2/(1-xt)**2)."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_ratio(lam, *_first_weights(lam, gamma), x, order)
    if variant == "a":
        r2 = _r2(x, order)
        r = pow_alpha(r2, 0.5)
        arg = div(r + TruncatedSeries.from_polynomial([-1.0, x], order), 2.0 * r)
        rhs = pow_alpha(r2, -gamma / 2.0) * gauss_2f1_series(*triple, arg)
    else:
        omxt = _one_minus_xt(x, order)
        num = TruncatedSeries.from_polynomial([0.0, 0.0, x * x - 1.0], order)
        rhs = pow_alpha(omxt, -gamma) * gauss_2f1_series(*triple, div(num, omxt * omxt))
    return lhs, rhs


def first_rewrite(
    nu: float, mu: float, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The first generating function written through the degree-nu, order-mu
    Legendre combination analytic at argument 1.

    Variant "a" uses z = (1-xt)/R and prefactor R**(nu+mu); variant "b" uses
    z = 2(R/(1-xt))**2 - 1 with fixed degree -1/4 and prefactor
    (1-xt)**(2 mu - 1/2).  The nu argument is ignored for variant "b".
    """
    lam, gamma = _rewrite_params(nu, mu, variant)
    lhs = lhs_ratio(lam, *_first_weights(lam, gamma), x, order)
    r2 = _r2(x, order)
    omxt = _one_minus_xt(x, order)
    scale = 2.0**-mu * gamma_fn(1.0 - mu)
    if variant == "a":
        f = legendre_analytic_series(nu, mu, omxt * pow_alpha(r2, -0.5))
        rhs = scale * pow_alpha(r2, (nu + mu) / 2.0) * f
    else:
        f = legendre_analytic_series(-0.25, mu, 2.0 * div(r2, omxt * omxt) - 1.0)
        rhs = scale * pow_alpha(omxt, 2.0 * mu - 0.5) * f
    return lhs, rhs


def miller_identities(
    lam: float, big_n: int, x: Scalar, order: int, which: str = "g1"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Finite-sum identity (g1, gamma = -N) and its companion (g2,
    gamma = 2 lam + N) from the reducible case: the first generating function
    against N!/(2 lam)_N R**(-gamma) C_N((1-xt)/R)."""
    gamma, _ = _miller_gammas(lam, big_n, which, ("g1", "g2"))
    lhs = lhs_ratio(lam, *_first_weights(lam, gamma), x, order)
    r2 = _r2(x, order)
    z = _one_minus_xt(x, order) * pow_alpha(r2, -0.5)
    cn = gegenbauer_of_series(lam, big_n, z)
    scale = math.factorial(big_n) / pochhammer(2.0 * lam, big_n)
    return lhs, scale * pow_alpha(r2, -gamma / 2.0) * cn


def alt_gf(
    lam: float, x: Scalar, order: int, which: int = 1
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Alternative generating function ((1+R-xt)/2)**(1/2-lam), with (which=1)
    or without (which=2) the extra R**(-1)."""
    lhs = lhs_ratio(lam, *_alt_weights(lam, which), x, order)
    r2 = _r2(x, order)
    r = pow_alpha(r2, 0.5)
    body = (r + TruncatedSeries.from_polynomial([1.0, -x], order)) * 0.5
    powed = pow_alpha(body, 0.5 - lam)
    rhs = pow_alpha(r2, -0.5) * powed if which == 1 else powed
    return lhs, rhs


# -- the two explicit radical examples -------------------------------------------


def octahedral_example(
    x: float, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Quarter-parameter family: closed form 2**(-1/4) R**(1/12)
    [cosh(xi/3) + sqrt(sinh xi/(3 sinh(xi/3)))]**(1/4) with
    e**xi = (1 - (x - sqrt(x**2-1)) t)/R; needs |x| > 1."""
    if abs(x) <= 1.0:
        raise DomainMismatch("the hyperbolic substitution needs |x| > 1")
    lhs = lhs_ratio(0.25, *_first_weights(0.25, -1.0 / 12.0), x, order)
    wo = order + 1  # the one coefficient div(sinh_xi, sinh_xi3) shifts out
    r2 = _r2(x, wo)
    sq = cmath.sqrt(x * x - 1.0)  # inf, not OverflowError, where x * x overflows
    e = TruncatedSeries.from_polynomial([1.0, -(x - sq)], wo) * pow_alpha(r2, -0.5)
    e3 = pow_alpha(e, 1.0 / 3.0)
    e3_inv = pow_alpha(e3, -1.0)
    sinh_xi = (e - pow_alpha(e, -1.0)) * 0.5
    sinh_xi3 = (e3 - e3_inv) * 0.5
    cosh_xi3 = (e3 + e3_inv) * 0.5
    ratio = div(sinh_xi, sinh_xi3)  # 0/0 at t = 0, limit 3; order drops by 1
    bracket = cosh_xi3 + pow_alpha(ratio * (1.0 / 3.0), 0.5)
    return lhs, 2.0**-0.25 * pow_alpha(r2, 1.0 / 24.0) * pow_alpha(bracket, 0.25)


def _collapse_to_t(a: TruncatedSeries) -> TruncatedSeries:
    """A series in s whose exponents divisible by 3 become powers of t = s**3;
    a residue above tolerance at any other exponent is an uncancelled pole."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(a.coeffs))))
    for j, c in enumerate(a.coeffs):
        if j % 3 and abs(c) > tol:
            raise UncancelledPole(f"fractional exponent {j}/3 retains coefficient {abs(c):.3e}")
    # the constructor's real view of the coefficients needs contiguous storage
    return TruncatedSeries(a.coeffs[::3].copy())


def tetrahedral_example(
    x: float, order: int, branch: str = "hyperbolic"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Sixth-parameter family: quartic radicals of e**xi with a t**(-1) pole.

    branch "hyperbolic" (|x| > 1): 2**(-7/12) 3**(-3/8) R**(1/12) (sinh xi)**(-1/3)
    [sqrt(sqrt(3)+1) f+ + sqrt(sqrt(3)-1) f-] at e**xi = t sqrt(x**2-1)/(1-R-xt);
    branch "circular" (|x| < 1): same with cosh, g±, and
    e**xi = t sqrt(1-x**2)/(-1+R+xt).

    Every intermediate is a regular series in s = t**(1/3) times a power of s
    fixed by hand, noted on its line: s**3 e**xi is regular with constant term
    2/sqrt|x**2-1|, so each radical carries the power of s that cancels its
    share of the pole.
    """
    if branch not in ("hyperbolic", "circular"):
        raise ValueError(f"unknown branch {branch!r}")
    hyper = branch == "hyperbolic"
    if hyper and abs(x) <= 1.0:
        raise DomainMismatch("the hyperbolic substitution needs |x| > 1")
    if not hyper and abs(x) >= 1.0:
        raise DomainMismatch("the circular substitution needs |x| < 1")
    lhs = lhs_ratio(1.0 / 6.0, *_first_weights(1.0 / 6.0, -1.0 / 12.0), x, order)

    so = 3 * order + 6  # in s = t**(1/3); dividing by 1 - R - xt shifts out s**6
    r2s = TruncatedSeries.from_polynomial(
        [1.0, 0, 0, -2.0 * x, 0, 0, 1.0], so
    )
    rs = pow_alpha(r2s, 0.5)
    ts = TruncatedSeries.from_polynomial([0.0, 0, 0, 1.0], so)
    if hyper:
        sq = math.sqrt(x * x - 1.0)
        den = 1.0 - rs - x * ts
    else:
        sq = math.sqrt(1.0 - x * x)
        den = rs + x * ts - 1.0
    e = div(_shift_down(ts * sq, 3), _shift_down(den, 6))  # s**3 e**xi
    e3 = pow_alpha(e, 1.0 / 3.0)  # s e**(xi/3)
    e_inv = _shift_up(pow_alpha(e, -1.0), 6)  # s**3 e**(-xi)
    e3_inv = _shift_up(pow_alpha(e3, -1.0), 2)  # s e**(-xi/3)
    sh3 = (e3 - e3_inv) * 0.5  # s sinh(xi/3)
    ch3 = (e3 + e3_inv) * 0.5  # s cosh(xi/3)
    if hyper:
        big, a, b = (e - e_inv) * 0.5, sh3, ch3  # s**3 sinh xi
    else:  # the circular branch swaps the roles of sinh(xi/3) and cosh(xi/3)
        big, a, b = (e + e_inv) * 0.5, ch3, sh3  # s**3 cosh xi
    s_rad = pow_alpha(div(big, a) * (1.0 / 3.0), 0.5)  # s; the quotient carries s**2
    bracket_plus = b + s_rad  # s
    bracket_minus = div(a * a * (1.0 / 3.0), bracket_plus)  # s; a * a carries s**2
    rad_plus = pow_alpha(big * bracket_plus, 0.25)  # s; the product carries s**4
    rad_minus = pow_alpha(big * bracket_minus, 0.25)  # s
    combo = (  # s
        rad_plus * math.sqrt(math.sqrt(3.0) + 1.0) + rad_minus * math.sqrt(math.sqrt(3.0) - 1.0)
    )
    total = pow_alpha(r2s, 1.0 / 24.0) * (pow_alpha(big, -1.0 / 3.0) * combo)  # s**-1 times s
    return lhs, _collapse_to_t(total * (2.0 ** (-7.0 / 12.0) * 3.0**-0.375))


# -- substitution table -----------------------------------------------------------


@dataclass(frozen=True)
class SubstitutionRow:
    exp_value: complex  # e^xi, e^(i theta), or the half-argument variants
    reconstruction_dev: float


def _reconstruct_z(trig: str, half: bool, v: complex) -> complex:
    if half:
        v = v * v
    w = 1.0 / v
    if trig in ("cosh", "cos"):
        return (v + w) / 2.0
    if trig == "coth":
        return (v + w) / (v - w)
    return (v - w) / (v + w)  # tanh


# row -> (trig, half argument, needs |x| > 1, the exponential at
# (x, t, R, 1 - xt, sqrt|x**2 - 1|)); rows 1-4 parametrize z = (1-xt)/R,
# rows 5-8 z = 2(R/(1-xt))**2-1
_SUBSTITUTIONS = {
    1: ("cosh", False, True, lambda x, t, r, omxt, sq: (1.0 - (x - sq) * t) / r),
    2: ("cos", False, False, lambda x, t, r, omxt, sq: (1.0 - (x - 1j * sq) * t) / r),
    3: ("coth", False, True, lambda x, t, r, omxt, sq: t * sq / (1.0 - r - x * t)),
    4: ("tanh", False, False, lambda x, t, r, omxt, sq: t * sq / (-1.0 + r + x * t)),
    5: ("cosh", True, False, lambda x, t, r, omxt, sq: omxt / (r - t * sq)),
    6: ("cos", True, True, lambda x, t, r, omxt, sq: omxt / (r - 1j * t * sq)),
    7: ("coth", False, False, lambda x, t, r, omxt, sq: r / (t * sq)),
    8: ("tanh", False, True, lambda x, t, r, omxt, sq: r / (t * sq)),
}


def substitution_table(x: float, t: float, row: int) -> SubstitutionRow:
    """Exponential substitutions matching each trig parametrization of the two
    Legendre arguments; the returned value is checked to reconstruct z."""
    if row not in _SUBSTITUTIONS:
        raise ValueError("row must be 1..8")
    trig, half, need_hyper, exp_value = _SUBSTITUTIONS[row]
    r2 = 1.0 - 2.0 * x * t + t * t
    if r2 <= 0.0:
        raise DomainMismatch("R**2 <= 0 at this (x, t)")
    r = math.sqrt(r2)
    omxt = 1.0 - x * t
    if need_hyper and abs(x) <= 1.0:
        raise DomainMismatch(f"row {row} needs |x| > 1")
    if not need_hyper and abs(x) >= 1.0:
        raise DomainMismatch(f"row {row} needs |x| < 1")
    if row in (3, 4, 7, 8) and t == 0.0:
        raise DomainMismatch(f"row {row} needs t != 0")
    val = exp_value(x, t, r, omxt, math.sqrt(abs(x * x - 1.0)))
    z = omxt / r if row <= 4 else 2.0 * (r / omxt) ** 2 - 1.0
    try:
        zr = _reconstruct_z(trig, half, val)
    except ZeroDivisionError as exc:  # v**2 underflows, or v - 1/v cancels, at extreme x
        raise DomainMismatch(f"row {row} reconstruction divides by zero at (x, t) = ({x}, {t})") from exc
    rdev = abs(zr - z) / max(1.0, abs(z))
    if rdev > 1e-10:
        raise DomainMismatch(
            f"row {row} reconstruction mismatch at (x, t) = ({x}, {t}): "
            f"{zr} vs {z}"
        )
    return SubstitutionRow(complex(val), rdev)


# -- extended (u-parameter) families ----------------------------------------------


def extended_first_gf(
    lam: float, gamma: Scalar, u: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the first generating function (u = 1 recovers it)."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_extended_first(lam, gamma, u, x, order)
    r2, u2, q = _r2(x, order), _u2(u, x, order), _q_poly(u, x, order)
    if variant == "a":
        ur = pow_alpha(u2, 0.5) * pow_alpha(r2, 0.5)
        f = gauss_2f1_series(*triple, div(ur - q, 2.0 * ur))
        rhs = pow_alpha(u2, (gamma - 2.0 * lam) / 2.0) * pow_alpha(r2, -gamma / 2.0) * f
    else:
        qq = q * q
        f = gauss_2f1_series(*triple, div(qq - u2 * r2, qq))
        rhs = pow_alpha(u2, gamma - lam) * pow_alpha(q, -gamma) * f
    return lhs, rhs


def extended_rewrite(
    nu: float, mu: float, u: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the Legendre rewrite (u = 1 recovers it)."""
    lhs = lhs_extended_first(*_rewrite_params(nu, mu, variant), u, x, order)
    r2, u2, q = _r2(x, order), _u2(u, x, order), _q_poly(u, x, order)
    scale = 2.0**-mu * gamma_fn(1.0 - mu)
    if variant == "a":
        f = legendre_analytic_series(nu, mu, div(q, pow_alpha(u2, 0.5) * pow_alpha(r2, 0.5)))
        rhs = scale * pow_alpha(u2, (-nu + mu - 1.0) / 2.0) * pow_alpha(r2, (nu + mu) / 2.0) * f
    else:
        f = legendre_analytic_series(-0.25, mu, 2.0 * div(u2 * r2, q * q) - 1.0)
        rhs = scale * pow_alpha(u2, -mu) * pow_alpha(q, 2.0 * mu - 0.5) * f
    return lhs, rhs


def extended_miller(
    lam: float, big_n: int, u: Scalar, x: Scalar, order: int, which: str = "plus"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the finite-sum identities (u = 1 recovers them): with
    gamma = -N ("plus") or 2 lam + N ("minus") and gamma' the other value,
    the right side is N!/(2 lam)_N U**(-gamma') R**(-gamma) C_N(Q/(UR))."""
    gamma, gamma_other = _miller_gammas(lam, big_n, which, ("plus", "minus"))
    lhs = lhs_extended_first(lam, gamma, u, x, order)
    r2, u2, q = _r2(x, order), _u2(u, x, order), _q_poly(u, x, order)
    z = div(q, pow_alpha(u2, 0.5) * pow_alpha(r2, 0.5))
    cn = gegenbauer_of_series(lam, big_n, z)
    scale = math.factorial(big_n) / pochhammer(2.0 * lam, big_n)
    rhs = scale * pow_alpha(u2, -gamma_other / 2.0) * pow_alpha(r2, -gamma / 2.0) * cn
    return lhs, rhs


def lemma_key_check(
    lam: float,
    numerators: tuple[Scalar, ...],
    denominators: tuple[Scalar, ...],
    u: Scalar,
    x: Scalar,
    order: int,
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Series-rearrangement identity powering the u-extensions:
    LHS weights (p+1)Fq(-n, c; d; u); RHS R**(-2 lam) sum_n
    (prod (c)_n / prod (d)_n) C_n(w) q**n with w = (x-t)/R and q = -tu/R.

    The sum runs in one loop over raw coefficient arrays of width m = N + 1.
    q has an exact-zero constant term, so q**n has n leading exact zeros and
    only its window [n, m) is formed; term n then reaches t**N only through
    the first m - n coefficients of C_n(w), the width at which the
    three-term recurrence

        C_n = (2(n + lam - 1) w C_{n-1} - (n + 2 lam - 2) C_{n-2}) / n

    forms it, with the scalar operations and order of the full-width series
    recurrence.  Every coefficient is bitwise identical to the full-width
    loop: a dropped product term is a finite coefficient times an exact zero,
    and adding such a zero leaves a dot-product sum started at +0 unchanged,
    as it leaves the accumulator, which never holds a -0.  Both convolution
    operands have the same length, because np.convolve swaps a longer second
    operand and so changes the summation order.
    """
    if not 1 <= len(numerators) <= 2 or not 1 <= len(denominators) <= 2:
        raise ValueError("p and q must be 1 or 2")
    lhs = lhs_lemma(lam, numerators, denominators, u, x, order)
    r2 = _r2(x, order)
    rinv = pow_alpha(r2, -0.5)
    w = (TruncatedSeries.from_polynomial([x, -1.0], order) * rinv).coeffs
    q = (_t(order) * rinv * (-u)).coeffs
    m = order + 1
    acc = np.zeros(m, dtype=DTYPE)
    # qn[n:] holds the window of q**n; the entries below n are stale.
    qn = np.zeros(m, dtype=DTYPE)
    qn[0] = 1.0
    # After step n, cur holds C_n(w) to width m - n and prev holds C_{n-1}(w).
    cur = qn.copy()
    coeff = DTYPE(1)
    for n in range(m):
        width = m - n
        if n:
            for c in numerators:
                coeff *= DTYPE(c) + (n - 1)
            for d in denominators:
                coeff /= DTYPE(d) + (n - 1)
            qn[n:] = np.convolve(qn[n - 1 : n - 1 + width], q[1 : 1 + width])[:width]
            if n == 1:
                nxt = w[:width] * (2.0 * lam)
            else:
                wc = np.convolve(w[:width], cur[:width])[:width] * (2.0 * (n + lam - 1.0))
                nxt = (wc - prev[:width] * (n + 2.0 * lam - 2.0)) / n
            prev, cur = cur, nxt
        acc[n:] += np.convolve(cur, qn[n:])[:width] * coeff
    return lhs, pow_alpha(r2, -lam) * TruncatedSeries(acc)


# -- second generating function ----------------------------------------------------


def second_gf(
    lam: float, gamma: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Product-of-two-2F1 generating function."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_ratio(lam, *_second_weights(lam, gamma), x, order)
    r = pow_alpha(_r2(x, order), 0.5)
    t = _t(order)
    if variant == "a":
        f1 = gauss_2f1_series(*triple, (1.0 - r - t) * 0.5)
        f2 = gauss_2f1_series(*triple, (1.0 - r + t) * 0.5)
        rhs = f1 * f2
    else:
        rp, rm = r + t, r - t
        f1 = gauss_2f1_series(*triple, div(rp * rp - 1.0, rp * rp))
        f2 = gauss_2f1_series(*triple, div(rm * rm - 1.0, rm * rm))
        pref = pow_alpha(TruncatedSeries.from_polynomial([1.0, -2.0 * x], order), -gamma)
        rhs = pref * f1 * f2
    return lhs, rhs


def extended_second_gf(
    lam: float, gamma: Scalar, u: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the second generating function (u = 0 degenerates to the
    ordinary generating function)."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_lemma(lam, *_second_weights(lam, gamma), u, x, order)
    r2, u2 = _r2(x, order), _u2(u, x, order)
    r, us = pow_alpha(r2, 0.5), pow_alpha(u2, 0.5)
    ut = _t(order) * u
    if variant == "a":
        f1 = gauss_2f1_series(*triple, div(r - us + ut, 2.0 * r))
        f2 = gauss_2f1_series(*triple, div(r - us - ut, 2.0 * r))
        rhs = pow_alpha(r2, -lam) * f1 * f2
    else:
        um, up = us - ut, us + ut
        f1 = gauss_2f1_series(*triple, div(um * um - r2, um * um))
        f2 = gauss_2f1_series(*triple, div(up * up - r2, up * up))
        pref = pow_alpha(u2 - ut * ut, -gamma) * pow_alpha(r2, gamma - lam)
        rhs = pref * f1 * f2
    return lhs, rhs


def second_rewrite(
    nu: float, mu: float, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Second generating function through the analytic Legendre combination."""
    lam, gamma = _rewrite_params(nu, mu, variant)
    lhs = lhs_ratio(lam, *_second_weights(lam, gamma), x, order)
    r = pow_alpha(_r2(x, order), 0.5)
    t = _t(order)
    scale = 2.0 ** (-2.0 * mu) * gamma_fn(1.0 - mu) ** 2
    if variant == "a":
        rhs = scale * legendre_analytic_series(nu, mu, r + t) * legendre_analytic_series(nu, mu, r - t)
    else:
        rm, rp = r - t, r + t
        zp = 2.0 * div(TruncatedSeries.from_constant(1.0, order), rm * rm) - 1.0
        zm = 2.0 * div(TruncatedSeries.from_constant(1.0, order), rp * rp) - 1.0
        pref = pow_alpha(TruncatedSeries.from_polynomial([1.0, -2.0 * x], order), 2.0 * mu - 0.5)
        rhs = (
            scale
            * pref
            * legendre_analytic_series(-0.25, mu, zp)
            * legendre_analytic_series(-0.25, mu, zm)
        )
    return lhs, rhs


# -- algebraicity classification -----------------------------------------------------


@dataclass(frozen=True)
class AlgebraicityVerdict:
    algebraic: bool
    clause: int | None
    detail: str

    def __str__(self) -> str:
        if self.algebraic:
            return f"algebraic (clause {self.clause}): {self.detail}"
        return f"not algebraic by either clause: {self.detail}"


def algebraicity(lam: float, gamma: float) -> AlgebraicityVerdict:
    """Whether the weighted generating functions with this (lam, gamma) are
    algebraic: (1) lam in Z±1/4 with gamma-lam in Z±1/3, or (2) lam in Z±1/6
    with gamma-lam in Z±1/3 or Z±1/4."""
    d = gamma - lam
    if in_z_pm(lam, 0.25) and in_z_pm(d, 1.0 / 3.0):
        return AlgebraicityVerdict(True, 1, "lam in Z±1/4, gamma-lam in Z±1/3")
    if in_z_pm(lam, 1.0 / 6.0):
        if in_z_pm(d, 1.0 / 3.0):
            return AlgebraicityVerdict(True, 2, "lam in Z±1/6, gamma-lam in Z±1/3")
        if in_z_pm(d, 0.25):
            return AlgebraicityVerdict(True, 2, "lam in Z±1/6, gamma-lam in Z±1/4")
    return AlgebraicityVerdict(False, None, f"lam = {lam}, gamma - lam = {d}")
