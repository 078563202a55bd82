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

    (s - cosh(xi/3))(s + cosh(xi/3)) = sinh(xi/3)**2 / 3     [h, f brackets]
    (s - sinh(xi/3))(s + sinh(xi/3)) = cosh(xi/3)**2 / 3     [g bracket]
    (cos(th/3) - s)(cos(th/3) + s)   = sin(th/3)**2 / 3      [k bracket]
"""

from __future__ import annotations

import enum
import math
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


def leading_asymptotic(mu: float, z: float) -> float:
    """The z -> 1+ normalization (2**(mu/2) / Gamma(1-mu)) (z-1)**(-mu/2)."""
    return 2.0 ** (mu / 2.0) / gamma_fn(1.0 - mu) * (z - 1.0) ** (-mu / 2.0)


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


def cyclic_case_z(mu: float, z: float, branch: Branch = Branch.LEGENDRE) -> float:
    """Same value written in the argument z directly."""
    if branch is Branch.LEGENDRE:
        if z <= 1.0:
            raise ArgumentOutOfDomain("Legendre branch needs z > 1")
        ratio = (z + 1.0) / (z - 1.0)
    else:
        if not -1.0 < z < 1.0:
            raise ArgumentOutOfDomain("Ferrers branch needs -1 < z < 1")
        ratio = (1.0 + z) / (1.0 - z)
    return ratio ** (mu / 2.0) / gamma_fn(1.0 - mu)


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


def octahedral_h(sign: int, xi: float) -> float:
    """Quartic radical {(sinh xi)^(-1) [±cosh(xi/3) + s]}^(1/4) for xi > 0."""
    if xi <= 0.0:
        raise ArgumentOutOfDomain("octahedral h needs xi > 0")
    plus, minus = _conjugate_brackets(math.sinh, math.cosh, xi)
    bracket = plus if sign > 0 else minus
    return (bracket / math.sinh(xi)) ** 0.25


def octahedral_k(sign: int, theta: float) -> float:
    """Circular counterpart {(sin th)^(-1) [cos(th/3) ± s]}^(1/4) for th in (0, pi)."""
    if not 0.0 < theta < math.pi:
        raise ArgumentOutOfDomain("octahedral k needs theta in (0, pi)")
    big, small = _conjugate_brackets(math.sin, math.cos, theta)
    bracket = big if sign > 0 else small
    return (bracket / math.sin(theta)) ** 0.25


def octahedral_p(sign_mu: int, arg: float, branch: Branch = Branch.LEGENDRE) -> float:
    """P(-1/6, ±1/4) at cosh xi (Legendre) or cos theta (Ferrers)."""
    radical = octahedral_h(sign_mu, arg) if branch is Branch.LEGENDRE else octahedral_k(sign_mu, arg)
    if sign_mu > 0:
        return radical / gamma_fn(0.75)
    return 3.0**0.75 / gamma_fn(1.25) * radical


def tetrahedral_f(sign: int, xi: float) -> float:
    """Quartic radical {(sinh xi) [±cosh(xi/3) + s]}^(1/4) for xi > 0."""
    if xi <= 0.0:
        raise ArgumentOutOfDomain("tetrahedral f needs xi > 0")
    plus, minus = _conjugate_brackets(math.sinh, math.cosh, xi)
    bracket = plus if sign > 0 else minus
    return (math.sinh(xi) * bracket) ** 0.25


def tetrahedral_g(sign: int, xi: float) -> float:
    """Quartic radical {(cosh xi) [±sinh(xi/3) + s]}^(1/4) for real xi."""
    plus, minus = _conjugate_brackets(math.cosh, math.sinh, xi)
    bracket = plus if sign > 0 else minus
    return (math.cosh(xi) * bracket) ** 0.25


_SQRT3 = math.sqrt(3.0)


def tetrahedral_p(sign_mu: int, arg: float, branch: Branch = Branch.LEGENDRE) -> float:
    """P(-1/4, ±1/3) at coth xi (Legendre) or tanh xi (Ferrers)."""
    if sign_mu > 0:
        scale = 2.0**-0.25 * 3.0**-0.375 / gamma_fn(2.0 / 3.0)
        ca, cb = math.sqrt(_SQRT3 + 1.0), math.sqrt(_SQRT3 - 1.0)
        if branch is Branch.LEGENDRE:
            combo = ca * tetrahedral_f(+1, arg) + cb * tetrahedral_f(-1, arg)
        else:
            combo = ca * tetrahedral_g(+1, arg) + cb * tetrahedral_g(-1, arg)
        return scale * combo
    scale = 2.0**1.25 * 3.0**-0.375 / gamma_fn(4.0 / 3.0)
    ca, cb = math.sqrt(_SQRT3 - 1.0), math.sqrt(_SQRT3 + 1.0)
    if branch is Branch.LEGENDRE:
        combo = ca * tetrahedral_f(+1, arg) - cb * tetrahedral_f(-1, arg)
    else:
        combo = -ca * tetrahedral_g(+1, arg) + cb * tetrahedral_g(-1, arg)
    return scale * combo


# -- the branch-free combination (z**2-1)^(mu/2) P(nu, mu; z) -----------------


def legendre_analytic_series(nu: float, mu: float, z: TruncatedSeries) -> TruncatedSeries:
    """(z**2-1)^(mu/2) P(nu, mu; z), analytic at z = 1, on a series argument
    with constant term 1; equals the Ferrers-weighted form (1-z**2)^(mu/2)
    Ferrers-P on (-1, 1)."""
    inner = (1.0 - z) * 0.5
    coeffs = gauss_2f1_coeffs(-nu - mu, 1.0 + nu - mu, 1.0 - mu, z.order)
    return compose_vanishing(coeffs, inner) * (2.0**mu / gamma_fn(1.0 - mu))
