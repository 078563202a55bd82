"""Gegenbauer polynomial values, the homogeneous series form, and weighted series.

Values come from the three-term recurrence

    n C_n(x) = 2(n + lam - 1) x C_{n-1}(x) - (n + 2 lam - 2) C_{n-2}(x),
    C_0 = 1,  C_1 = 2 lam x.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLambda
from .hypergeometric import as_negative_integer
from .series import DTYPE, TruncatedSeries

Scalar = complex | float | int


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


def gegenbauer_homogeneous_rows(lam: float, n: int, y: TruncatedSeries, s: TruncatedSeries) -> np.ndarray:
    """Rows H_0 .. H_n of H_m(y, s) = s**(m/2) C_m(y / s**(1/2)) at series y and s, by

        m H_m = 2(m + lam - 1) y H_{m-1} - (m + 2 lam - 2) s H_{m-2},
        H_0 = 1,  H_1 = 2 lam y.

    C_m has parity m, so H_m is a polynomial in y and s.  With v = min(val y,
    floor(val s / 2)), where a zero series sets no bound, H_m vanishes below
    t**(m v), and row m >= 2 is formed only on its window [m v, N].  Every bit
    is that of the full-width series loop: a dropped product has an exact-zero
    factor, which leaves a dot sum started at +0 unchanged, and both
    np.convolve operands have one length, so numpy does not swap them and
    change the summation order.  Below the window that loop leaves +0, as its
    quotient by m turns a -0 real part into +0; row 1 keeps the signed zeros
    of y and is formed at full width."""
    if n < 0:
        raise ValueError("n must be non-negative")
    yc, sc, width = y.coeffs, s.coeffs, y.order + 1
    rows = np.zeros((n + 1, width), dtype=DTYPE)
    rows[0, 0] = 1.0
    rows[1:2] = yc * (2.0 * lam)  # no row when n = 0
    vy, vs = y.valuation(), s.valuation()
    v = min(width if vy is None else vy, width if vs is None else vs // 2)
    for m in range(2, min(n, (width - 1) // v if v else n) + 1):
        lo, w = m * v, width - m * v
        ycur = np.convolve(yc[v : v + w], rows[m - 1, lo - v : width - v])[:w]
        sprev = np.convolve(sc[2 * v : 2 * v + w], rows[m - 2, lo - 2 * v : width - 2 * v])[:w]
        rows[m, lo:] = (ycur * (2.0 * (m + lam - 1.0)) - sprev * (m + 2.0 * lam - 2.0)) / m
    return rows


def gegenbauer_homogeneous(lam: float, n: int, y: TruncatedSeries, s: TruncatedSeries) -> TruncatedSeries:
    """H_n(y, s), the last row of `gegenbauer_homogeneous_rows`."""
    return TruncatedSeries(gegenbauer_homogeneous_rows(lam, n, y, s)[-1])


def gegenbauer_weighted_series(
    lam: float, x: Scalar, order: int, weights: np.ndarray
) -> TruncatedSeries:
    """Series sum_n weights[n] C_n(x) t**n up to the given order."""
    vals = gegenbauer_recurrence(lam, order, x)
    return TruncatedSeries(vals * np.asarray(weights, dtype=DTYPE)[: order + 1])
