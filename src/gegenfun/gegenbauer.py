"""Gegenbauer polynomial values, monomial coefficients, and weighted series.

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


def gegenbauer_monomial_coeffs(lam: float, n: int) -> np.ndarray:
    """Monomial coefficients of C_n (ascending powers), via the recurrence on arrays."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = np.zeros(n + 1, dtype=DTYPE)
    prev[0] = 1.0
    if n == 0:
        return prev
    cur = np.zeros(n + 1, dtype=DTYPE)
    cur[1] = 2.0 * lam
    for m in range(2, n + 1):
        nxt = np.zeros(n + 1, dtype=DTYPE)
        nxt[1:] = 2.0 * (m + lam - 1.0) * cur[:-1]
        nxt -= (m + 2.0 * lam - 2.0) * prev
        nxt /= m
        prev, cur = cur, nxt
    return cur


def gegenbauer_of_series(lam: float, n: int, z: TruncatedSeries) -> TruncatedSeries:
    """The degree-n polynomial C_n evaluated at a series argument by Horner."""
    mono = gegenbauer_monomial_coeffs(lam, n)
    acc = TruncatedSeries.from_constant(mono[n], z.order)
    for k in range(n - 1, -1, -1):
        acc = acc * z + mono[k]
    return acc


def gegenbauer_weighted_series(
    lam: float, x: Scalar, order: int, weights: np.ndarray
) -> TruncatedSeries:
    """Series sum_n weights[n] C_n(x) t**n up to the given order."""
    vals = gegenbauer_recurrence(lam, order, x)
    return TruncatedSeries(vals * np.asarray(weights, dtype=DTYPE)[: order + 1])
