"""Poisson kernel and companion for the Gegenbauer family, and complete elliptic
integrals by the arithmetic-geometric mean.

Elliptic convention: parameter m (not modulus k), i.e.

    K(m) = integral_0^{pi/2} (1 - m sin**2 th)**(-1/2) dth,   K(0) = pi/2.

The quarter-parameter kernel identity expresses 2F1(1/4, 5/4; 1/2; w) through
K and E at the complementary half-arguments (1 +- sqrt(w))/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainMismatch, OutOfRange
from .gegenbauer import gegenbauer_recurrence
from .hypergeometric import gamma_fn, gauss_2f1_scalar

_AGM_TOL = 1e-16


def _elliptic_k_e(m: float, name: str) -> tuple[float, float]:
    """K(m) and E(m) from one AGM run: K = pi/(2a) at its final a, and
    E = K (1 - sum 2**(n-1) c_n**2); name labels the range error."""
    if not 0.0 <= m < 1.0:
        raise OutOfRange(f"{name}(m) needs 0 <= m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    csum = 0.5 * m  # 2**(n-1) c_n**2 at n = 0, c_0 = sqrt(m)
    pow2 = 0.5
    for _ in range(60):
        if abs(a - b) <= _AGM_TOL * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        pow2 *= 2.0
        csum += pow2 * c * c
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - csum)


def elliptic_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention."""
    return _elliptic_k_e(m, "K")[0]


def elliptic_e(m: float) -> float:
    """Complete elliptic integral of the second kind via the AGM c-sum."""
    return _elliptic_k_e(m, "E")[1]


# -- kernel geometry -----------------------------------------------------------


@dataclass(frozen=True)
class KernelArgs:
    """Evaluation point of the bilinear kernels: x = cos(theta), y = cos(phi)."""

    lam: float
    theta: float
    phi: float
    t: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < math.pi:
            raise OutOfRange(f"theta must lie in (0, pi), got {self.theta}")
        if not 0.0 < self.phi < math.pi:
            raise OutOfRange(f"phi must lie in (0, pi), got {self.phi}")
        if not abs(self.t) < 1.0:
            raise OutOfRange(f"|t| must be < 1, got {self.t}")


def _denominators(args: KernelArgs) -> tuple[float, float]:
    d1 = 1.0 - 2.0 * args.t * math.cos(args.theta - args.phi) + args.t * args.t
    d2 = 1.0 - 2.0 * args.t * math.cos(args.theta) * math.cos(args.phi) + args.t * args.t
    return d1, d2


def kernel_arguments(args: KernelArgs) -> tuple[float, float]:
    """The two hypergeometric arguments, checked against z = [zt/(2-zt)]**2."""
    d1, d2 = _denominators(args)
    ss = math.sin(args.theta) * math.sin(args.phi)
    z_tilde = -4.0 * args.t * ss / d1
    z = 4.0 * args.t * args.t * ss * ss / (d2 * d2)
    rel = (z_tilde / (2.0 - z_tilde)) ** 2
    if abs(rel - z) > 1e-12 * max(1.0, abs(z)):
        raise ConsistencyError("kernel argument relation violated")
    return z_tilde, z


def poisson_kernel(args: KernelArgs, variant: str = "tilde") -> float:
    """Closed form of the weighted bilinear kernel sum."""
    lam = args.lam
    d1, d2 = _denominators(args)
    z_tilde, z = kernel_arguments(args)
    if variant == "tilde":
        f = gauss_2f1_scalar(lam, lam + 1.0, 2.0 * lam, z_tilde)
        return float(((1.0 - args.t**2) / d1 ** (lam + 1.0)) * f.real)
    if variant == "z":
        f = gauss_2f1_scalar((lam + 1.0) / 2.0, (lam + 2.0) / 2.0, lam + 0.5, z)
        return float(((1.0 - args.t**2) / d2 ** (lam + 1.0)) * f.real)
    raise ValueError(f"unknown variant {variant!r}")


def companion_kernel(args: KernelArgs, variant: str = "tilde") -> float:
    """Closed form of the unweighted bilinear kernel sum."""
    lam = args.lam
    d1, d2 = _denominators(args)
    z_tilde, z = kernel_arguments(args)
    if variant == "tilde":
        f = gauss_2f1_scalar(lam, lam, 2.0 * lam, z_tilde)
        return float(f.real / d1**lam)
    if variant == "z":
        f = gauss_2f1_scalar(lam / 2.0, (lam + 1.0) / 2.0, lam + 0.5, z)
        return float(f.real / d2**lam)
    raise ValueError(f"unknown variant {variant!r}")


def bilinear_coeffs(
    lam: float, theta: float, phi: float, n_max: int, weighted: bool
) -> np.ndarray:
    """Coefficients of the bilinear sum: (n!/(2 lam)_n) C_n(x) C_n(y), optionally
    carrying the extra (lam+n)/lam kernel weight."""
    x, y = math.cos(theta), math.cos(phi)
    cx = gegenbauer_recurrence(lam, n_max, x).real
    cy = gegenbauer_recurrence(lam, n_max, y).real
    out = np.zeros(n_max + 1)
    w = 1.0
    for n in range(n_max + 1):
        term = w * cx[n] * cy[n]
        if weighted:
            term *= (lam + n) / lam
        out[n] = term
        w *= (n + 1.0) / (2.0 * lam + n)
    return out


def bilinear_partial_sum(
    lam: float, theta: float, phi: float, t: float, n_max: int, weighted: bool
) -> float:
    coeffs = bilinear_coeffs(lam, theta, phi, n_max, weighted)
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


def operator_relation_check(lam: float, theta: float, phi: float, order: int) -> float:
    """Deviation of the coefficient map c_n -> ((lam+n)/lam) c_n from the
    weighted-kernel coefficients, over n <= order."""
    c = bilinear_coeffs(lam, theta, phi, order, weighted=False)
    k = bilinear_coeffs(lam, theta, phi, order, weighted=True)
    n = np.arange(order + 1)
    mapped = (lam + n) / lam * c
    return float(np.max(np.abs(mapped - k) / np.maximum(1.0, np.maximum(np.abs(mapped), np.abs(k)))))


# -- the quarter-parameter elliptic identity ------------------------------------


def elliptic_quarter_lhs(w: float) -> float:
    """Gamma(1/4)**2/(2 sqrt(pi)) * 2F1(1/4, 5/4; 1/2; w)."""
    if not 0.0 < w < 1.0:
        raise OutOfRange(f"w must lie in (0, 1), got {w}")
    f = gauss_2f1_scalar(0.25, 1.25, 0.5, w)
    return gamma_fn(0.25) ** 2 / (2.0 * math.sqrt(math.pi)) * f.real


def elliptic_quarter_rhs(w: float) -> float:
    """The same value through K and E at the half-arguments (1 +- sqrt(w))/2."""
    if not 0.0 < w < 1.0:
        raise OutOfRange(f"w must lie in (0, 1), got {w}")
    sw = math.sqrt(w)
    kp, ep = _elliptic_k_e(0.5 * (1.0 + sw), "E")
    km, em = _elliptic_k_e(0.5 * (1.0 - sw), "E")
    return 2.0 * sw / (1.0 - w) * (ep - em) + kp / (1.0 + sw) + km / (1.0 - sw)


def quarter_kernel_elliptic(args: KernelArgs) -> float:
    """Poisson kernel at lam = 1/4 routed through the elliptic-integral identity.

    Needs a positive tilde-argument (t < 0 against positive sines); negative
    values are rejected rather than continued into complex square roots.
    """
    if abs(args.lam - 0.25) > 1e-12:
        raise DomainMismatch("elliptic route only implemented for lam = 1/4")
    d1, _ = _denominators(args)
    z_tilde, _ = kernel_arguments(args)
    prefactor = (1.0 - args.t**2) / d1**1.25
    if abs(z_tilde) < 1e-14:
        return prefactor
    if z_tilde < 0.0:
        raise DomainMismatch(
            f"tilde-argument {z_tilde:.4f} is negative; use the series route"
        )
    if z_tilde >= 1.0:
        raise OutOfRange(f"tilde-argument {z_tilde:.4f} outside (0, 1)")
    f = 2.0 * math.sqrt(math.pi) / gamma_fn(0.25) ** 2 * elliptic_quarter_rhs(z_tilde)
    return prefactor * f
