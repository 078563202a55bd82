"""Reference formulas shared by the tests of several modules."""

import math

from gegenfun.series import TruncatedSeries


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


def homogeneous_rows(lam, n, y, s):
    """H_0(y, s) .. H_n(y, s) by the full-width series recurrence
    m H_m = 2(m + lam - 1) y H_{m-1} - (m + 2 lam - 2) s H_{m-2}, in the
    operations and order of the windowed rows."""
    rows = [TruncatedSeries.from_constant(1.0, y.order), y * (2.0 * lam)]
    for m in range(2, n + 1):
        rows.append((y * rows[m - 1] * (2.0 * (m + lam - 1.0)) - s * rows[m - 2] * (m + 2.0 * lam - 2.0)) / m)
    return rows[: n + 1]
