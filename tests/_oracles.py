"""Reference formulas shared by the tests of several modules."""

import math


def leading_asymptotic(mu, z):
    """The z -> 1+ normalization (2**(mu/2) / Gamma(1-mu)) (z-1)**(-mu/2) of P(nu, mu; z)."""
    return 2.0 ** (mu / 2.0) / math.gamma(1.0 - mu) * (z - 1.0) ** (-mu / 2.0)


def bilinear_tail_bound(coeffs, t):
    """Geometric estimate of the tail a partial sum of coeffs at t drops, plus
    a roundoff floor of 1e-12."""
    last = abs(coeffs[-1] * t ** (coeffs.size - 1))
    prev = abs(coeffs[-2] * t ** (coeffs.size - 2))
    ratio = min(0.9, last / prev) if prev > 0 else abs(t)
    tail = last * ratio / (1.0 - ratio) if last > 0 else 0.0
    return 10.0 * tail + 1e-12
