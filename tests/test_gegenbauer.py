"""Gegenbauer values and series: recurrence vs hypergeometric form, parity,
the Legendre specialization, and both construction paths of the generating series."""

import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from gegenfun.errors import InvalidLambda
from gegenfun.gegenbauer import (
    check_lambda,
    gegenbauer_monomial_coeffs,
    gegenbauer_of_series,
    gegenbauer_recurrence,
)
from gegenfun.hypergeometric import gauss_2f1_scalar, pochhammer
from gegenfun.series import TruncatedSeries, mixed_deviation, pow_alpha


def _ref_gegenbauer_hypergeometric(lam, n, x):
    """C_n(x) via terminating 2F1 forms, the cross-path check for the recurrence.

    Real arguments are routed for stability: negative x is parity-mapped
    (at |x| >= 1 the sum at (1-|x|)/2 <= 0 then has all-positive terms),
    and |x| < 1 uses the quadratic-transformed even/odd forms

        C_{2m}(x)   = (-1)^m ((lam)_m / m!)      2F1(-m, m+lam;   1/2; x**2)
        C_{2m+1}(x) = (-1)^m ((lam)_{m+1} / m!) 2x 2F1(-m, m+lam+1; 3/2; x**2)

    whose half-degree sums at x**2 < 1 do not cancel catastrophically."""
    xc = complex(x)
    if xc.imag == 0.0 and abs(xc.real) < 1.0:
        m, odd = divmod(n, 2)
        x2 = xc.real * xc.real
        if odd:
            w = pochhammer(lam, m + 1) / math.factorial(m) * 2.0 * xc.real
            f = gauss_2f1_scalar(-m, m + lam + 1.0, 1.5, x2)
        else:
            w = pochhammer(lam, m) / math.factorial(m)
            f = gauss_2f1_scalar(-m, m + lam, 0.5, x2)
        return complex((-1.0) ** (m % 2) * w * f)
    sign = 1.0
    if xc.imag == 0.0 and xc.real < 0.0:
        xc, sign = -xc, (-1.0) ** (n % 2)
    w = pochhammer(2.0 * lam, n) / math.factorial(n)
    return complex(sign * w * gauss_2f1_scalar(-n, n + 2.0 * lam, lam + 0.5, (1.0 - xc) / 2.0))


def _ordinary_gf(lam, x, order):
    """(1 - 2 x t + t**2)**(-lam) by pow_alpha, the path the recurrence is checked against."""
    return pow_alpha(TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order), -lam)


def test_recurrence_low_degrees():
    lam, x = 0.37, 1.9 - 0.4j
    vals = gegenbauer_recurrence(lam, 2, x)
    assert vals[0] == 1.0
    assert abs(complex(vals[1]) - 2 * lam * x) <= 1e-15
    # C_2^(1/2)(0.7) = (3 * 0.49 - 1)/2
    v = gegenbauer_recurrence(0.5, 2, 0.7)[2]
    assert abs(complex(v) - 0.235) <= 1e-15


def test_hypergeometric_form_matches_recurrence():
    for lam in (0.25, 1.0 / 6.0, 7.0 / 6.0, 2.0):
        for x in (-5.0, -0.5, 0.3, 2.0, 5.0):
            vals = gegenbauer_recurrence(lam, 30, x)
            for n in (0, 1, 3, 10, 30):
                hyp = _ref_gegenbauer_hypergeometric(lam, n, x)
                rec = complex(vals[n])
                assert abs(hyp - rec) <= 1e-10 * max(1.0, abs(rec)), (lam, n, x)


def test_hypergeometric_examples():
    assert _ref_gegenbauer_hypergeometric(0.3, 0, 4.2) == 1.0
    assert abs(_ref_gegenbauer_hypergeometric(0.25, 1, 2.0) - 1.0) <= 1e-14  # 2*lam*x = 1
    with pytest.raises(InvalidLambda):
        check_lambda(-0.5)
    with pytest.raises(InvalidLambda):
        check_lambda(0.0)


def test_parity():
    lam = 0.25
    for x in (0.4, 1.7):
        plus = gegenbauer_recurrence(lam, 20, x)
        minus = gegenbauer_recurrence(lam, 20, -x)
        for n in range(21):
            assert abs(complex(minus[n]) - (-1) ** n * complex(plus[n])) <= 1e-12 * max(
                1.0, abs(complex(plus[n]))
            )


def test_legendre_reduction():
    # independent Legendre recurrence (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
    x = 0.73
    p = [1.0, x]
    for n in range(1, 20):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    c = gegenbauer_recurrence(0.5, 20, x)
    for n in range(21):
        assert abs(complex(c[n]) - p[n]) <= 1e-10 * max(1.0, abs(p[n]))


def test_monomial_coeffs_match_values():
    lam, n = 0.25, 7
    mono = np.complex128(gegenbauer_monomial_coeffs(lam, n))
    for x in (0.3, 1.5):
        direct = np.polynomial.polynomial.polyval(x, mono)
        rec = complex(gegenbauer_recurrence(lam, n, x)[n])
        assert abs(direct - rec) <= 1e-12 * max(1.0, abs(rec))


def test_of_series_low_degrees():
    z = TruncatedSeries([1.0, 0.5, -0.25])
    assert mixed_deviation(gegenbauer_of_series(0.3, 0, z), TruncatedSeries([1, 0, 0])) == 0
    lin = gegenbauer_of_series(0.3, 1, z)
    assert mixed_deviation(lin, 0.6 * z) <= 1e-18


def test_of_series_keeps_long_double_coefficients():
    # C_n(t) has the monomial coefficients of C_n, with no rounding to double
    got = gegenbauer_of_series(1.0 / 3.0, 16, TruncatedSeries.from_polynomial([0, 1], 16)).coeffs
    mono = gegenbauer_monomial_coeffs(1.0 / 3.0, 16)
    assert np.array_equal(got, mono)
    assert np.array_equal(np.signbit(got.real), np.signbit(mono.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(mono.imag))


def test_of_series_scalar_evaluation_oracle():
    # C_2 at the series (1 - 2t)/R, x = 2, against scalar evaluation at t = 0.05
    lam, x, order, t = 0.25, 2.0, 16, 0.05
    r2 = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order)
    z = TruncatedSeries.from_polynomial([1.0, -2.0], order) * pow_alpha(r2, -0.5)
    series = gegenbauer_of_series(lam, 2, z)
    z_t = (1.0 - 2.0 * t) / (1.0 - 2.0 * x * t + t * t) ** 0.5
    direct = complex(gegenbauer_recurrence(lam, 2, z_t)[2])
    assert abs(polyval(t, series.coeffs) - direct) <= 1e-12


def test_ordinary_gf_series_paths_agree():
    for lam in (1.0 / 6.0, 0.25, 0.5, 7.0 / 6.0):
        for x in (0.3, 0.9, 1.5, 2.0):
            got = _ordinary_gf(lam, x, 20)
            recur = TruncatedSeries(gegenbauer_recurrence(lam, 20, x))
            assert mixed_deviation(got, recur) <= 1e-9


def test_ordinary_gf_trivials():
    assert abs(complex(_ordinary_gf(0.37, 1.3, 8).coeffs[0]) - 1.0) <= 1e-15
    ones = _ordinary_gf(0.5, 1.0, 10)
    assert mixed_deviation(ones, TruncatedSeries([1.0] * 11)) <= 1e-12
