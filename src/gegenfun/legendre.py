"""Associated Legendre and Ferrers functions: hypergeometric oracle and closed forms.

The defining hypergeometric form

    P(nu, mu; z) = (2**mu / Gamma(1-mu)) (z**2-1)**(-mu/2)
                   * 2F1(-nu-mu, 1+nu-mu; 1-mu; (1-z)/2)

(with 1-z**2 replacing z**2-1 on the Ferrers branch) serves as the oracle
for every closed form below: the reducible/Gegenbauer case, the
quasi-cyclic and quasi-dihedral elementary cases, and the octahedral and
first-tetrahedral algebraic cases built from quartic radicals of
trigonometric quantities.

The minus-branch radicands (e.g. -cosh(xi/3) + sqrt(sinh(xi)/(3 sinh(xi/3))))
lose all digits to cancellation near the degenerate point, so they are
evaluated through the conjugate product, which collapses to an exact square:

    (s - cosh(xi/3))(s + cosh(xi/3)) = sinh(xi/3)**2 / 3     [both, Legendre]
    (s - sinh(xi/3))(s + sinh(xi/3)) = cosh(xi/3)**2 / 3     [tetrahedral, Ferrers]
    (cos(th/3) - s)(cos(th/3) + s)   = sin(th/3)**2 / 3      [octahedral, Ferrers]

`closed_form` decides which of these serves a pair (nu, mu) and how its
argument maps to z; `eval legendre` and the catalog both go through it.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ArgumentOutOfDomain, InvalidMu, OrderIsPositiveInteger
from .gegenbauer import gegenbauer_recurrence
from .hypergeometric import (
    INT_TOL,
    gamma_fn,
    gauss_2f1_coeffs,
    gauss_2f1_scalar,
    in_z_pm,
    pochhammer,
)
from .series import TruncatedSeries, compose_vanishing

Scalar = complex | float | int


class Branch(enum.Enum):
    LEGENDRE = "legendre"  # argument off the cut (-inf, 1]
    FERRERS = "ferrers"  # argument in (-1, 1)


class CaseTag(enum.Enum):
    REDUCIBLE = "Reducible"
    QUASI_CYCLIC = "QuasiCyclic"
    QUASI_DIHEDRAL = "QuasiDihedral"
    OCTAHEDRAL = "Octahedral"
    TETRAHEDRAL_A = "TetrahedralA"
    TETRAHEDRAL_B = "TetrahedralB"
    ICOSAHEDRAL = "Icosahedral"
    GENERIC = "Generic"


@dataclass(frozen=True)
class Classification:
    """Primary tag plus every matching tag in precedence order."""

    primary: CaseTag
    matches: tuple[CaseTag, ...]

    def __str__(self) -> str:
        if len(self.matches) > 1:
            return self.primary.value + " (also: " + ", ".join(
                m.value for m in self.matches[1:]
            ) + ")"
        return self.primary.value


def classify(nu: float, mu: float) -> Classification:
    """Sort (nu, mu) into the elementary/algebraic cases of the Legendre ODE.

    Checked in precedence order (a pair can satisfy several conditions; all
    matches are reported).  Membership tests honour the degree reflection
    nu -> -nu-1 and, for the algebraic families, arbitrary integer shifts.
    Icosahedral pairs are not detected: anything outside the implemented
    families comes back GENERIC.
    """
    matches: list[CaseTag] = []
    s, d = nu + mu, mu - nu
    if (in_z_pm(s, 0.0) and round(s) >= 0) or (in_z_pm(d, 0.0) and round(d) >= 1):
        matches.append(CaseTag.REDUCIBLE)
    if in_z_pm(nu, 0.0):
        matches.append(CaseTag.QUASI_CYCLIC)
    if in_z_pm(mu, 0.5):
        matches.append(CaseTag.QUASI_DIHEDRAL)
    sixth = in_z_pm(nu, 1.0 / 6.0)
    quarter_nu = in_z_pm(nu, 0.25)
    quarter_mu = in_z_pm(mu, 0.25)
    third_mu = in_z_pm(mu, 1.0 / 3.0)
    if sixth and quarter_mu:
        matches.append(CaseTag.OCTAHEDRAL)
    if quarter_nu and third_mu:
        matches.append(CaseTag.TETRAHEDRAL_A)
    if sixth and third_mu:
        matches.append(CaseTag.TETRAHEDRAL_B)
    if not matches:
        return Classification(CaseTag.GENERIC, (CaseTag.GENERIC,))
    return Classification(matches[0], tuple(matches))


# -- hypergeometric oracle ----------------------------------------------------


def _check_mu(mu: float) -> None:
    if mu >= 0.5 and in_z_pm(mu, 0.0):
        raise OrderIsPositiveInteger(f"mu = {mu} needs the limiting form")


def legendre_p_hypergeometric(
    nu: float, mu: float, z: Scalar, branch: Branch = Branch.LEGENDRE
) -> complex:
    """First-kind Legendre (or Ferrers) function from the defining 2F1 form."""
    _check_mu(mu)
    zc = complex(z)
    if zc.imag == 0.0:
        zr = zc.real
        if branch is Branch.LEGENDRE and zr <= 1.0:
            raise ArgumentOutOfDomain(f"Legendre branch needs z > 1, got {zr}")
        if branch is Branch.FERRERS and not -1.0 < zr < 1.0:
            raise ArgumentOutOfDomain(f"Ferrers branch needs -1 < z < 1, got {zr}")
        radicand = zr * zr - 1.0 if branch is Branch.LEGENDRE else 1.0 - zr * zr
        prefactor = radicand ** (-mu / 2.0)
    else:
        radicand_c = zc * zc - 1.0 if branch is Branch.LEGENDRE else 1.0 - zc * zc
        prefactor = radicand_c ** (-mu / 2.0)
    f = gauss_2f1_scalar(-nu - mu, 1.0 + nu - mu, 1.0 - mu, (1.0 - zc) / 2.0)
    return complex(2.0**mu / gamma_fn(1.0 - mu) * prefactor * f)


# -- closed forms --------------------------------------------------------------


def reducible_case(mu: float, big_n: int, z: Scalar, branch: Branch = Branch.LEGENDRE) -> complex:
    """Degree nu = -mu + N: the function collapses to a Gegenbauer polynomial."""
    if big_n < 0:
        raise ValueError("N must be non-negative")
    if mu >= 0.5 - INT_TOL and in_z_pm(2.0 * mu, 0.0):
        raise InvalidMu(f"mu = {mu} is excluded in the reducible closed form")
    zc = complex(z)
    radicand = zc * zc - 1.0 if branch is Branch.LEGENDRE else 1.0 - zc * zc
    if zc.imag == 0.0:
        if radicand.real <= 0.0:
            raise ArgumentOutOfDomain("argument outside the branch domain")
        pref = radicand.real ** (-mu / 2.0)
    else:
        pref = radicand ** (-mu / 2.0)
    cn = gegenbauer_recurrence(0.5 - mu, big_n, zc)[big_n]
    scale = 2.0**mu / gamma_fn(1.0 - mu) * math.factorial(big_n) / pochhammer(1.0 - 2.0 * mu, big_n)
    return complex(scale * pref * cn)


def cyclic_case(mu: float, xi: float, branch: Branch = Branch.LEGENDRE) -> float:
    """Degree 0 (or -1): exp(mu xi) / Gamma(1-mu) at z = coth xi resp. tanh xi."""
    if branch is Branch.LEGENDRE and xi <= 0.0:
        raise ArgumentOutOfDomain("Legendre branch needs xi > 0")
    return math.exp(mu * xi) / gamma_fn(1.0 - mu)


def dihedral_case(nu: float, arg: float, branch: Branch = Branch.LEGENDRE) -> float:
    """Order 1/2: cosh((nu+1/2) xi)/sqrt(sinh xi), circular analogue on Ferrers."""
    c = math.sqrt(2.0 / math.pi)
    if branch is Branch.LEGENDRE:
        if arg <= 0.0:
            raise ArgumentOutOfDomain("Legendre branch needs xi > 0")
        return c * math.cosh((nu + 0.5) * arg) / math.sqrt(math.sinh(arg))
    if not 0.0 < arg < math.pi:
        raise ArgumentOutOfDomain("Ferrers branch needs theta in (0, pi)")
    return c * math.cos((nu + 0.5) * arg) / math.sqrt(math.sin(arg))


def _conjugate_brackets(f, g, arg: float) -> tuple[float, float]:
    """The brackets |g(arg/3)| + s and ||g(arg/3)| - s| with
    s = sqrt(f(arg) / (3 f(arg/3))), swapped when g(arg/3) < 0 so that the
    first is g(arg/3) + s.

    The second is formed as f(arg/3)**2 / 3 over the first, their conjugate
    product for (f, g) = (sinh, cosh), (sin, cos) and (cosh, sinh), so it
    keeps its digits.
    """
    s = math.sqrt(f(arg) / (3.0 * f(arg / 3.0)))
    stable = abs(g(arg / 3.0)) + s
    other = f(arg / 3.0) ** 2 / 3.0 / stable
    return (other, stable) if g(arg / 3.0) < 0.0 else (stable, other)


def _radicals(f, g, arg: float, invert: bool) -> tuple[float, float]:
    """The quartic radicals of the two brackets of _conjugate_brackets, each
    divided by f(arg) when `invert`, else multiplied by it."""
    scale = f(arg)
    return tuple((b / scale if invert else scale * b) ** 0.25 for b in _conjugate_brackets(f, g, arg))


def octahedral_p(sign_mu: int, arg: float, branch: Branch = Branch.LEGENDRE) -> float:
    """P(-1/6, ±1/4) at cosh xi (Legendre) or cos theta (Ferrers)."""
    if branch is Branch.LEGENDRE:
        if arg <= 0.0:
            raise ArgumentOutOfDomain("octahedral Legendre branch needs xi > 0")
        plus, minus = _radicals(math.sinh, math.cosh, arg, invert=True)
    else:
        if not 0.0 < arg < math.pi:
            raise ArgumentOutOfDomain("octahedral Ferrers branch needs theta in (0, pi)")
        plus, minus = _radicals(math.sin, math.cos, arg, invert=True)
    if sign_mu > 0:
        return plus / gamma_fn(0.75)
    return 3.0**0.75 / gamma_fn(1.25) * minus


_SQRT3 = math.sqrt(3.0)


def tetrahedral_p(sign_mu: int, arg: float, branch: Branch = Branch.LEGENDRE) -> float:
    """P(-1/4, ±1/3) at coth xi (Legendre) or tanh xi (Ferrers)."""
    if branch is Branch.LEGENDRE:
        if arg <= 0.0:
            raise ArgumentOutOfDomain("tetrahedral Legendre branch needs xi > 0")
        plus, minus = _radicals(math.sinh, math.cosh, arg, invert=False)
    else:
        plus, minus = _radicals(math.cosh, math.sinh, arg, invert=False)
    if sign_mu > 0:
        scale = 2.0**-0.25 * 3.0**-0.375 / gamma_fn(2.0 / 3.0)
        return scale * (math.sqrt(_SQRT3 + 1.0) * plus + math.sqrt(_SQRT3 - 1.0) * minus)
    scale = 2.0**1.25 * 3.0**-0.375 / gamma_fn(4.0 / 3.0)
    ca, cb = math.sqrt(_SQRT3 - 1.0), math.sqrt(_SQRT3 + 1.0)
    if branch is Branch.LEGENDRE:
        return scale * (ca * plus - cb * minus)
    return scale * (-ca * plus + cb * minus)


def _coth(xi: float) -> float:
    return 1.0 / math.tanh(xi)


def closed_form(
    nu: float, mu: float, branch: Branch, on_z: bool = False
) -> tuple[Callable[[float], float], Callable[[float], float]] | None:
    """The closed form serving (nu, mu) on `branch`, as (P at a, z at a), or None.

    With `on_z` the argument a is z itself, and the reducible form serves
    nu = -mu + N, with N = nu + mu if that is a whole number of at least 0,
    else N = mu - nu - 1 (the reflection nu -> -nu-1); it raises InvalidMu
    for the orders it excludes. Otherwise a is the angle xi or theta of the
    first of these that serves the base pair, each degree up to nu -> -nu-1:
    octahedral at (-1/6, ±1/4), z = cosh xi or cos theta; first tetrahedral
    at (-1/4, ±1/3), z = coth xi or tanh xi; quasi-cyclic at degree 0 with
    any mu, z = coth xi or tanh xi; quasi-dihedral at order 1/2 with any nu,
    z = cosh xi or cos theta. Integer-shifted pairs are not served.
    """
    hyperbolic = branch is Branch.LEGENDRE
    if on_z:
        whole = [round(n) for n in (nu + mu, mu - nu - 1.0) if in_z_pm(n, 0.0) and round(n) >= 0]
        if not whole:
            return None
        return lambda z: reducible_case(mu, whole[0], z, branch).real, lambda z: z

    def degree(target: float) -> bool:
        return abs(nu - target) <= INT_TOL or abs(-nu - 1.0 - target) <= INT_TOL

    sign = 1 if mu > 0 else -1
    if degree(-1.0 / 6.0) and abs(abs(mu) - 0.25) <= INT_TOL:
        return lambda a: octahedral_p(sign, a, branch), math.cosh if hyperbolic else math.cos
    if degree(-0.25) and abs(abs(mu) - 1.0 / 3.0) <= INT_TOL:
        return lambda a: tetrahedral_p(sign, a, branch), _coth if hyperbolic else math.tanh
    if degree(0.0):
        return lambda a: cyclic_case(mu, a, branch), _coth if hyperbolic else math.tanh
    if abs(mu - 0.5) <= INT_TOL:
        return lambda a: dihedral_case(nu, a, branch), math.cosh if hyperbolic else math.cos
    return None


# -- the branch-free combination (z**2-1)^(mu/2) P(nu, mu; z) -----------------


def legendre_analytic_series(nu: float, mu: float, z: TruncatedSeries) -> TruncatedSeries:
    """(z**2-1)^(mu/2) P(nu, mu; z), analytic at z = 1, on a series argument
    with constant term 1; equals the Ferrers-weighted form (1-z**2)^(mu/2)
    Ferrers-P on (-1, 1)."""
    inner = (1.0 - z) * 0.5
    coeffs = gauss_2f1_coeffs(-nu - mu, 1.0 + nu - mu, 1.0 - mu, z.order)
    return compose_vanishing(coeffs, inner) * (2.0**mu / gamma_fn(1.0 - mu))
