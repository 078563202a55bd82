"""Builders for both sides of every generating-function identity, as truncated series.

Naming: R2 is the polynomial 1 - 2xt + t**2 (so R = R2**(1/2) with R(0) = 1),
U2 is 1 - 2(1-u)xt + (1-u)**2 t**2, and Q is R**2 + u(x-t)t, which expands to
the polynomial 1 - (2-u)xt + (1-u)t**2.

Every builder works at the order it reports, and every divisor has a nonzero
constant term.

Left sides are weighted Gegenbauer sums (`lhs_ratio`, `lhs_extended_first`,
`lhs_lemma`), each rejecting an excluded lam.  Each parameter relation has one
home, shared by both sides and the u-extensions: the weights of each family
(`_first_weights`, `_second_weights`, `_alt_weights`), the 2F1 triples of the
square-root form "a" and the transformed form "b" (`_gauss_triple`), the
rewrites' (lam, gamma) (`_rewrite_params`) and their Legendre triples
(`_legendre_triple`), and Miller's pair gamma in {-N, 2 lam + N}
(`_miller_gammas`).  They raise on an unknown variant or which.

Each family with a Legendre rewrite has one right side on a 2F1 triple
(`_first_rhs`, `_extended_first_rhs`, `_second_rhs`), called with
`_gauss_triple` by its builder and with `_legendre_triple` by its rewrite,
whose left side reads `_rewrite_params`.

The two radical examples are expressions in e**xi.  With w = e**(-2 xi/3)
every power of e**xi cancels, so each right side is a power of a series in t
times a series free of x, formed once per order, at a series in t vanishing
at t = 0: b**(1/12) Phi(w - 1) (octahedral), and a constant times
D**(1/12) Psi(V) with V = ±w**3 (tetrahedral, where e**xi has a t**(-1)
pole; Psi is formed in w, and leftovers at exponents not divisible by 3
raise UncancelledPole).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, UncancelledPole
from .gegenbauer import check_lambda, gegenbauer_homogeneous, gegenbauer_homogeneous_rows, gegenbauer_weighted_series
from .hypergeometric import (
    _termination_index, gauss_2f1_series, in_z_pm, pfq_terminating_all, pochhammer, pochhammer_ratios,
)
from .series import DTYPE, TruncatedSeries, compose_vanishing, div, pow_alpha

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
    """sum_n (prod (c_i)_n / prod (d_j)_n) C_n(x) t**n; a terminating numerator
    gives exact zero weights."""
    check_lambda(lam)
    return gegenbauer_weighted_series(lam, x, order, pochhammer_ratios(numerators, denominators, order))


def _weights_2f1_terminating(b: Scalar, c: Scalar, u: Scalar, order: int) -> np.ndarray:
    """w_n = 2F1(-n, b; c; u) by the contiguous recurrence in the degree,

        (c+n) w_{n+1} = (2n + c - (b+n) u) w_n + n (u-1) w_{n-1},

    which avoids the cancellation of the direct alternating sum (at u = 1 it
    collapses to the exact product (c-b)_n/(c)_n, so termination is exact).
    When c - b is exactly -N and u != 1, the recurrence loses digits; Pfaff's
    w_n = (1-u)**n 2F1(-n, -N; c; u/(u-1)) is a sum of min(n, N) + 1 terms."""
    bb, cc, uu = DTYPE(b), DTYPE(c), DTYPE(u)
    big_n = _termination_index(c - b)
    if big_n is not None and u != 1:
        powers = np.cumprod(np.r_[DTYPE(1), np.full(order, 1.0 - uu)])
        return powers * pfq_terminating_all(order, (-big_n,), (c,), uu / (uu - 1.0))
    w = np.zeros(order + 1, dtype=DTYPE)
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


def _legendre_triple(nu: float, mu: float, variant: str) -> tuple[float, float, float]:
    """The 2F1 parameters (-nu - mu, 1 + nu - mu; 1 - mu) of the Legendre
    function P(nu, mu; z) at argument (1 - z)/2, with degree nu (variant "a")
    or -1/4 (variant "b"): the rewrites' right sides."""
    if variant == "b":
        nu = -0.25
    elif variant != "a":
        raise ValueError(f"unknown variant {variant!r}")
    return -nu - mu, 1.0 + nu - mu, 1.0 - mu


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


def _first_rhs(triple: tuple, x: Scalar, order: int, variant: str) -> TruncatedSeries:
    """For the 2F1 triple (a, b, c): R**(-a) 2F1(a, b; c; (1 - (1-xt)/R)/2)
    (variant "a") or (1-xt)**(-2a) 2F1(a, b; c; (x**2-1)t**2/(1-xt)**2)
    (variant "b")."""
    a = triple[0]
    omxt = _one_minus_xt(x, order)
    if variant == "a":
        r2 = _r2(x, order)
        arg = (1.0 - omxt * pow_alpha(r2, -0.5)) * 0.5
        return pow_alpha(r2, -a / 2.0) * gauss_2f1_series(*triple, arg)
    num = TruncatedSeries.from_polynomial([0.0, 0.0, x * x - 1.0], order)
    return pow_alpha(omxt, -2.0 * a) * gauss_2f1_series(*triple, div(num, omxt * omxt))


def first_gf(
    lam: float, gamma: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """sum_n ((gamma)_n/(2 lam)_n) C_n(x) t**n against, for variant "a",
    R**(-gamma) 2F1(gamma, 2 lam - gamma; lam + 1/2; (R - 1 + xt)/(2R)), or,
    for variant "b", (1-xt)**(-gamma) 2F1(gamma/2, gamma/2 + 1/2; lam + 1/2;
    (x**2-1)t**2/(1-xt)**2)."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_ratio(lam, *_first_weights(lam, gamma), x, order)
    return lhs, _first_rhs(triple, x, order, variant)


def first_rewrite(
    nu: float, mu: float, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The first generating function written through the degree-nu, order-mu
    Legendre combination (z**2-1)**(mu/2) P(nu, mu; z), analytic at z = 1,
    with its constant 2**mu/Gamma(1-mu) cancelled.

    Variant "a" uses z = (1-xt)/R and prefactor R**(nu+mu); variant "b" uses
    z = 2(R/(1-xt))**2 - 1 with fixed degree -1/4 and prefactor
    (1-xt)**(2 mu - 1/2).  The nu argument is ignored for variant "b".
    """
    lam, gamma = _rewrite_params(nu, mu, variant)
    lhs = lhs_ratio(lam, *_first_weights(lam, gamma), x, order)
    return lhs, _first_rhs(_legendre_triple(nu, mu, variant), x, order, variant)


def miller_identities(
    lam: float, big_n: int, x: Scalar, order: int, which: str = "g1"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Finite-sum identity (g1, gamma = -N) and its companion (g2,
    gamma = 2 lam + N) from the reducible case: the first generating function
    against N!/(2 lam)_N R**(-gamma) C_N((1-xt)/R), formed with the polynomial
    R**N C_N((1-xt)/R) = H_N(1-xt, R**2) of `gegenbauer_homogeneous`."""
    gamma, _ = _miller_gammas(lam, big_n, which, ("g1", "g2"))
    lhs = lhs_ratio(lam, *_first_weights(lam, gamma), x, order)
    r2 = _r2(x, order)
    hn = gegenbauer_homogeneous(lam, big_n, _one_minus_xt(x, order), r2)
    scale = math.factorial(big_n) / pochhammer(2.0 * lam, big_n)
    return lhs, scale * pow_alpha(r2, -(gamma + big_n) / 2.0) * hn


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


@functools.cache
def _octa_phi(order: int) -> np.ndarray:
    """The coefficients of Phi(delta) = ((1 + delta/2 + sqrt(1 + delta + delta**2/3))/2)**(1/4)
    up to delta**order, read-only, formed in long double: Phi(w - 1) = (g+(w)/2)**(1/4)
    with g+(w) = (1+w)/2 + sqrt((1+w+w**2)/3), and Phi(0) = 1 exactly."""
    one = np.longdouble(1)
    root = pow_alpha(TruncatedSeries.from_polynomial([one, one, one / 3], order), one / 2)
    half = TruncatedSeries.from_polynomial([one, one / 2], order)
    coeffs = pow_alpha((root + half) * 0.5, one / 4).coeffs
    coeffs.setflags(write=False)
    return coeffs


def octahedral_example(
    x: float, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Quarter-parameter family: closed form 2**(-1/4) R**(1/12)
    [cosh(xi/3) + sqrt(sinh xi/(3 sinh(xi/3)))]**(1/4) with
    e**xi = b/R, b = 1 - (x - sqrt(x**2-1)) t; needs |x| > 1.

    With w = e**(-2 xi/3), cosh(xi/3) = e**(xi/3) (1+w)/2 and
    sinh xi/(3 sinh(xi/3)) = e**(2 xi/3) (1+w+w**2)/3, so the bracket is
    e**(xi/3) g+(w) and the right side is b**(1/12) Phi(w - 1), where
    w = b**(-2/3) (R**2)**(1/3) and Phi, free of x, is formed once per order."""
    if abs(x) <= 1.0:
        raise DomainMismatch("the hyperbolic substitution needs |x| > 1")
    lhs = lhs_ratio(0.25, *_first_weights(0.25, -1.0 / 12.0), x, order)
    sq = cmath.sqrt(x * x - 1.0)  # inf, not OverflowError, where x * x overflows
    b = TruncatedSeries.from_polynomial([1.0, -(x - sq)], order)
    one = np.longdouble(1)  # a double exponent would cost about 1e-16 on every coefficient
    w = pow_alpha(b, -2 * one / 3) * pow_alpha(_r2(x, order), one / 3)
    return lhs, pow_alpha(b, one / 12) * compose_vanishing(_octa_phi(order), w - 1.0)


def _collapse_to_t(a: TruncatedSeries) -> TruncatedSeries:
    """A series in w whose exponents divisible by 3 become powers of w**3; a
    residue above tolerance at any other exponent is an uncancelled pole."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(a.coeffs))))
    for j, c in enumerate(a.coeffs):
        if j % 3 and abs(c) > tol:
            raise UncancelledPole(f"fractional exponent {j}/3 retains coefficient {abs(c):.3e}")
    # the constructor's real view of the coefficients needs contiguous storage
    return TruncatedSeries(a.coeffs[::3].copy())


@functools.cache
def _tetra_psi(order: int) -> np.ndarray:
    """The coefficients of Psi(V) up to V**order, read-only, where
    Psi(w**3) = sqrt(sqrt(3)+1) g+(w)**(1/4) + sqrt(sqrt(3)-1) g-(w)**(1/4)
    with g± = sqrt((1+w+w**2)/3) ± (1+w)/2, formed as a series in w of order
    3 order, with sqrt(3) and 1/3 in long double."""
    wo = 3 * order
    third = np.longdouble(1) / 3
    root = pow_alpha(TruncatedSeries.from_polynomial([third, third, third], wo), 0.5)
    half = TruncatedSeries.from_polynomial([0.5, 0.5], wo)
    sqrt3 = np.sqrt(np.longdouble(3))
    psi = pow_alpha(root + half, 0.25) * np.sqrt(sqrt3 + 1) + pow_alpha(root - half, 0.25) * np.sqrt(sqrt3 - 1)
    coeffs = _collapse_to_t(psi).coeffs
    coeffs.setflags(write=False)
    return coeffs


def tetrahedral_example(
    x: float, order: int, branch: str = "hyperbolic"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Sixth-parameter family: quartic radicals of e**xi with a t**(-1) pole.

    branch "hyperbolic" (|x| > 1): 2**(-7/12) 3**(-3/8) R**(1/12) (sinh xi)**(-1/3)
    [sqrt(sqrt(3)+1) f+ + sqrt(sqrt(3)-1) f-] at e**xi = t sqrt(x**2-1)/(1-R-xt);
    branch "circular" (|x| < 1): same with cosh, g±, and
    e**xi = t sqrt(1-x**2)/(-1+R+xt).

    With w = e**(-2 xi/3), sinh xi = e**xi (1-w**3)/2, cosh(xi/3) =
    e**(xi/3) (1+w)/2 and sinh xi/(3 sinh(xi/3)) = e**(2 xi/3) (1+w+w**2)/3
    cancel every power of e**xi, and (1-w**3)/2 = R/D, so both branches are
    2**(-7/12) 3**(-3/8) D**(1/12) Psi(V) with D = 1 - xt + R and
    V = (x**2-1) t**2/D**2 (the circular branch is w -> -w); the branch only
    gates the domain.
    """
    if branch not in ("hyperbolic", "circular"):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == "hyperbolic" and abs(x) <= 1.0:
        raise DomainMismatch("the hyperbolic substitution needs |x| > 1")
    if branch == "circular" and abs(x) >= 1.0:
        raise DomainMismatch("the circular substitution needs |x| < 1")
    lhs = lhs_ratio(1.0 / 6.0, *_first_weights(1.0 / 6.0, -1.0 / 12.0), x, order)
    d = _one_minus_xt(x, order) + pow_alpha(_r2(x, order), 0.5)
    v = TruncatedSeries.from_polynomial([0.0, 0.0, x * x - 1.0], order) * pow_alpha(d, -2.0)
    # 2**(-7/12) D**(1/12) = 2**(-1/2) (D/2)**(1/12), whose constant term is
    # exactly 1; a double exponent or constant would cost about 1e-16 on
    # every coefficient
    one = np.longdouble(1)
    scale = np.longdouble(3) ** -0.375 / np.sqrt(2 * one)
    return lhs, pow_alpha(d * 0.5, one / 12) * compose_vanishing(_tetra_psi(order), v) * scale


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
    if not rdev <= 1e-10:  # a NaN fails too
        raise DomainMismatch(
            f"row {row} reconstruction mismatch at (x, t) = ({x}, {t}): "
            f"{zr} vs {z}"
        )
    return SubstitutionRow(complex(val), rdev)


# -- extended (u-parameter) families ----------------------------------------------


def _extended_first_rhs(triple: tuple, u: Scalar, x: Scalar, order: int, variant: str) -> TruncatedSeries:
    """For the 2F1 triple (a, b, c): U**(-b) R**(-a) 2F1(a, b; c; (UR - Q)/(2UR))
    (variant "a") or U**(4a - 2c + 1) Q**(-2a) 2F1(a, b; c; (Q**2 - U**2 R**2)/Q**2)
    (variant "b")."""
    a, b, c = triple
    r2, u2, q = _r2(x, order), _u2(u, x, order), _q_poly(u, x, order)
    if variant == "a":
        ur = pow_alpha(u2, 0.5) * pow_alpha(r2, 0.5)
        f = gauss_2f1_series(*triple, div(ur - q, 2.0 * ur))
        return pow_alpha(u2, -b / 2.0) * pow_alpha(r2, -a / 2.0) * f
    qq = q * q
    f = gauss_2f1_series(*triple, div(qq - u2 * r2, qq))
    return pow_alpha(u2, 2.0 * a - c + 0.5) * pow_alpha(q, -2.0 * a) * f


def extended_first_gf(
    lam: float, gamma: Scalar, u: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the first generating function (u = 1 recovers it)."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_extended_first(lam, gamma, u, x, order)
    return lhs, _extended_first_rhs(triple, u, x, order, variant)


def extended_rewrite(
    nu: float, mu: float, u: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the Legendre rewrite (u = 1 recovers it)."""
    lhs = lhs_extended_first(*_rewrite_params(nu, mu, variant), u, x, order)
    return lhs, _extended_first_rhs(_legendre_triple(nu, mu, variant), u, x, order, variant)


def extended_miller(
    lam: float, big_n: int, u: Scalar, x: Scalar, order: int, which: str = "plus"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the finite-sum identities (u = 1 recovers them): with
    gamma = -N ("plus") or 2 lam + N ("minus") and gamma' the other value,
    the right side is N!/(2 lam)_N U**(-gamma') R**(-gamma) C_N(Q/(UR)),
    formed with the polynomial (UR)**N C_N(Q/(UR)) = H_N(Q, U**2 R**2)."""
    gamma, gamma_other = _miller_gammas(lam, big_n, which, ("plus", "minus"))
    lhs = lhs_extended_first(lam, gamma, u, x, order)
    r2, u2, q = _r2(x, order), _u2(u, x, order), _q_poly(u, x, order)
    hn = gegenbauer_homogeneous(lam, big_n, q, u2 * r2)
    scale = math.factorial(big_n) / pochhammer(2.0 * lam, big_n)
    rhs = scale * pow_alpha(u2, -(gamma_other + big_n) / 2.0) * pow_alpha(r2, -(gamma + big_n) / 2.0) * hn
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

    q**n C_n(w) is the homogeneous form H_n(wq, q**2), so the sum is the
    weights times the rows of `gegenbauer_homogeneous_rows`.
    """
    if not 1 <= len(numerators) <= 2 or not 1 <= len(denominators) <= 2:
        raise ValueError("p and q must be 1 or 2")
    lhs = lhs_lemma(lam, numerators, denominators, u, x, order)
    r2 = _r2(x, order)
    rinv = pow_alpha(r2, -0.5)
    w = TruncatedSeries.from_polynomial([x, -1.0], order) * rinv
    q = _t(order) * rinv * (-u)
    rows = gegenbauer_homogeneous_rows(lam, order, w * q, q * q)
    return lhs, pow_alpha(r2, -lam) * TruncatedSeries(pochhammer_ratios(numerators, denominators, order) @ rows)


# -- second generating function ----------------------------------------------------


def _second_rhs(triple: tuple, x: Scalar, order: int, variant: str) -> TruncatedSeries:
    """For the 2F1 triple (a, b, c): the product of 2F1(a, b; c; .) at
    (1 - R ∓ t)/2 (variant "a"), or (1-2xt)**(-2a) times the product at
    1 - 1/(R ± t)**2 (variant "b")."""
    r = pow_alpha(_r2(x, order), 0.5)
    t = _t(order)
    if variant == "a":
        return gauss_2f1_series(*triple, (1.0 - r - t) * 0.5) * gauss_2f1_series(*triple, (1.0 - r + t) * 0.5)
    rp, rm = r + t, r - t
    rp2, rm2 = rp * rp, rm * rm
    f1 = gauss_2f1_series(*triple, div(rp2 - 1.0, rp2))
    f2 = gauss_2f1_series(*triple, div(rm2 - 1.0, rm2))
    pref = pow_alpha(TruncatedSeries.from_polynomial([1.0, -2.0 * x], order), -2.0 * triple[0])
    return pref * f1 * f2


def second_gf(
    lam: float, gamma: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Product-of-two-2F1 generating function."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_ratio(lam, *_second_weights(lam, gamma), x, order)
    return lhs, _second_rhs(triple, x, order, variant)


def extended_second_gf(
    lam: float, gamma: Scalar, u: Scalar, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """u-extension of the second generating function (u = 0 degenerates to the
    ordinary generating function)."""
    triple = _gauss_triple(lam, gamma, variant)
    lhs = lhs_lemma(lam, *_second_weights(lam, gamma), u, x, order)
    r2, u2 = _r2(x, order), _u2(u, x, order)
    us = pow_alpha(u2, 0.5)
    ut = _t(order) * u
    if variant == "a":
        r = pow_alpha(r2, 0.5)
        two_r = 2.0 * r
        f1 = gauss_2f1_series(*triple, div(r - us + ut, two_r))
        f2 = gauss_2f1_series(*triple, div(r - us - ut, two_r))
        rhs = pow_alpha(r2, -lam) * f1 * f2
    else:
        um, up = us - ut, us + ut
        um2, up2 = um * um, up * up
        f1 = gauss_2f1_series(*triple, div(um2 - r2, um2))
        f2 = gauss_2f1_series(*triple, div(up2 - r2, up2))
        pref = pow_alpha(u2 - ut * ut, -gamma) * pow_alpha(r2, gamma - lam)
        rhs = pref * f1 * f2
    return lhs, rhs


def second_rewrite(
    nu: float, mu: float, x: Scalar, order: int, variant: str = "a"
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Second generating function through the analytic Legendre combination
    at z = R ± t (variant "a") or 2/(R ∓ t)**2 - 1 (variant "b")."""
    lam, gamma = _rewrite_params(nu, mu, variant)
    lhs = lhs_ratio(lam, *_second_weights(lam, gamma), x, order)
    return lhs, _second_rhs(_legendre_triple(nu, mu, variant), x, order, variant)


# -- algebraicity classification -----------------------------------------------------


@dataclass(frozen=True)
class AlgebraicityVerdict:
    algebraic: bool
    clause: int | None


def algebraicity(lam: float, gamma: float) -> AlgebraicityVerdict:
    """Whether the weighted generating functions with this (lam, gamma) are
    algebraic: (1) lam in Z±1/4 with gamma-lam in Z±1/3, or (2) lam in Z±1/6
    with gamma-lam in Z±1/3 or Z±1/4."""
    d = gamma - lam
    if in_z_pm(lam, 0.25) and in_z_pm(d, 1.0 / 3.0):
        return AlgebraicityVerdict(True, 1)
    if in_z_pm(lam, 1.0 / 6.0) and (in_z_pm(d, 1.0 / 3.0) or in_z_pm(d, 0.25)):
        return AlgebraicityVerdict(True, 2)
    return AlgebraicityVerdict(False, None)
