"""Reference formulas shared by the tests of several modules."""

import math

import numpy as np

from gegenfun.genfun import _collapse_to_t
from gegenfun.series import DTYPE, TruncatedSeries, div, pow_alpha


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


def tetrahedral_rhs_s_grid(x, order, branch):
    """The tetrahedral right side 2**(-7/12) 3**(-3/8) R**(1/12) (sinh xi)**(-1/3)
    [sqrt(sqrt(3)+1) f+ + sqrt(sqrt(3)-1) f-] (cosh xi and the roles of
    sinh(xi/3), cosh(xi/3) swapped on the circular branch), built from e**xi
    on the grid s = t**(1/3).  Every intermediate is a regular series in s
    times a power of s noted on its line: s**3 e**xi is regular with constant
    term 2/sqrt|x**2-1|."""
    hyper = branch == "hyperbolic"
    so = 3 * order + 6  # dividing by 1 - R - xt shifts out s**6
    r2s = TruncatedSeries.from_polynomial([1.0, 0, 0, -2.0 * x, 0, 0, 1.0], so)
    rs = pow_alpha(r2s, 0.5)
    ts = TruncatedSeries.from_polynomial([0.0, 0, 0, 1.0], so)
    if hyper:
        sq = math.sqrt(x * x - 1.0)
        den = 1.0 - rs - x * ts
    else:
        sq = math.sqrt(1.0 - x * x)
        den = rs + x * ts - 1.0

    def times_s(a, k):
        return TruncatedSeries(np.concatenate([np.zeros(k, dtype=DTYPE), a.coeffs]))

    e = div(TruncatedSeries((ts * sq).coeffs[3:]), TruncatedSeries(den.coeffs[6:]))  # s**3 e**xi
    e3 = pow_alpha(e, 1.0 / 3.0)  # s e**(xi/3)
    e_inv = times_s(pow_alpha(e, -1.0), 6)  # s**3 e**(-xi)
    e3_inv = times_s(pow_alpha(e3, -1.0), 2)  # s e**(-xi/3)
    sh3 = (e3 - e3_inv) * 0.5  # s sinh(xi/3)
    ch3 = (e3 + e3_inv) * 0.5  # s cosh(xi/3)
    if hyper:
        big, a, b = (e - e_inv) * 0.5, sh3, ch3  # s**3 sinh xi
    else:
        big, a, b = (e + e_inv) * 0.5, ch3, sh3  # s**3 cosh xi
    s_rad = pow_alpha(div(big, a) * (1.0 / 3.0), 0.5)  # s; the quotient carries s**2
    bracket_plus = b + s_rad  # s
    bracket_minus = div(a * a * (1.0 / 3.0), bracket_plus)  # s; a * a carries s**2
    rad_plus = pow_alpha(big * bracket_plus, 0.25)  # s; the product carries s**4
    rad_minus = pow_alpha(big * bracket_minus, 0.25)  # s
    combo = rad_plus * math.sqrt(math.sqrt(3.0) + 1.0) + rad_minus * math.sqrt(math.sqrt(3.0) - 1.0)  # s
    total = pow_alpha(r2s, 1.0 / 24.0) * (pow_alpha(big, -1.0 / 3.0) * combo)  # s**-1 times s
    return _collapse_to_t(total * (2.0 ** (-7.0 / 12.0) * 3.0**-0.375))
