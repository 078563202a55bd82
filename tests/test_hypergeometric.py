"""Pochhammer, Gauss 2F1, terminating pFq, and Gamma: examples and properties."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gegenfun.errors import NoConvergence, PoleAtNonPositiveInteger, PoleInDenominatorParams
from gegenfun.hypergeometric import (
    DIRECT_LIMIT,
    INT_TOL,
    MAX_TERMS,
    _check_denominator,
    _termination_index,
    gamma_fn,
    gauss_2f1_coeffs,
    gauss_2f1_scalar,
    in_z_pm,
    pfq_terminating_all,
    pochhammer,
)
from gegenfun.series import DTYPE
from gegenfun.poisson import elliptic_k


def test_pochhammer_examples():
    assert pochhammer(0.37, 0) == 1
    assert pochhammer(-5j, 0) == 1
    assert pochhammer(2, 3) == 24
    assert abs(pochhammer(-1.0 / 12.0, 2) - (-11.0 / 144.0)) <= 1e-16


def test_pochhammer_recurrence():
    for a in (0.3, -2.5, 1.0 + 0.5j):
        for n in range(50):
            lhs = pochhammer(a, n + 1)
            rhs = pochhammer(a, n) * (a + n)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_2f1_coeffs_examples():
    assert list(gauss_2f1_coeffs(0.3, 0.7, 1.1, 0)) == [1.0]
    got = gauss_2f1_coeffs(-1.0, 0.4, 0.9, 3)
    expected = [1.0, -0.4 / 0.9, 0.0, 0.0]
    assert np.allclose(np.complex128(got), expected, atol=1e-15)


def test_2f1_coeffs_pole_detection():
    with pytest.raises(PoleInDenominatorParams):
        gauss_2f1_coeffs(0.5, 0.5, -1.0, 5)
    # a = -1 terminates before the pole of c = -2 is reached
    got = gauss_2f1_coeffs(-1.0, 1.0, -2.0, 5)
    assert abs(got[1] - 0.5) <= 1e-15
    with pytest.raises(PoleInDenominatorParams):
        gauss_2f1_coeffs(-3.0, 1.0, -2.0, 5)


def _ref_gauss_2f1_coeffs(a, b, c, order):
    """The running-product loop the one-pass accumulate replaced."""
    n_term = _termination_index(a, b)
    _check_denominator(c, n_term, order)
    out = np.zeros(order + 1, dtype=DTYPE)
    aa, bb, cc = DTYPE(a), DTYPE(b), DTYPE(c)
    term = DTYPE(1.0)
    out[0] = term
    for k in range(order):
        if n_term is not None and k >= n_term:
            break
        term *= (aa + k) * (bb + k) / ((cc + k) * (k + 1))
        out[k + 1] = term
    return out


@pytest.mark.parametrize("order", (0, 1, 2, 16, 66, 204))
def test_2f1_coeffs_bitwise_matches_loop(order):
    negzero = complex(-0.0, -0.0)
    uppers = (0.3, 7.0 / 12.0, -2.0, -5.0, -0.0, negzero, 0.25 - 0.5j, complex(-1.5, -0.0), 1.1j)
    lowers = (0.5, 1.1, -2.5, 0.3 + 0.4j, complex(1.0, -0.0), complex(-0.0, 1e-3))
    for a in uppers:
        for b in uppers:
            for c in lowers:
                got, ref = gauss_2f1_coeffs(a, b, c, order), _ref_gauss_2f1_coeffs(a, b, c, order)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (a, b, c)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref))), (a, b, c)


def test_2f1_scalar_trivials():
    assert gauss_2f1_scalar(0.3, 0.9, 1.4, 0.0) == 1.0
    assert abs(gauss_2f1_scalar(-2.0, 1.0, 1.0, 1.0)) <= 1e-14  # (1-z)^2 at z=1


def test_2f1_scalar_terminating_matches_pfq():
    for n in range(9):
        a = gauss_2f1_scalar(-n, 0.7, 1.3, 2.4)
        b = pfq_terminating_all(n, [0.7], [1.3], 2.4)[n]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_2f1_scalar_agm_oracle():
    # 2F1(1/2, 1/2; 1; m) = (2/pi) K(m)
    for m in (0.05, 0.3, 0.5):
        a = gauss_2f1_scalar(0.5, 0.5, 1.0, m)
        b = 2.0 / math.pi * elliptic_k(m)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_2f1_scalar_pfaff_route_matches_direct_sum():
    # independent plain summation at a moderate negative argument
    a, b, c, z = 0.3, 0.8, 1.2, -0.6
    term, acc = 1.0, 1.0
    for k in range(200):
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
        acc += term
    got = gauss_2f1_scalar(a, b, c, z)
    assert abs(got - acc) <= 1e-13 * abs(acc)


def test_2f1_scalar_refuses_near_unit_argument():
    with pytest.raises(NoConvergence):
        gauss_2f1_scalar(0.3, 0.8, 1.2, 0.995)


def test_2f1_scalar_overflowed_sum_is_not_converged():
    # the partial sum reaches inf, after which every term is "small" against it
    with pytest.raises(NoConvergence, match="not finite"):
        gauss_2f1_scalar(150.0, 150.0, 0.5, 0.9)
    # here the terms turn nan and the sum runs out of terms
    with pytest.raises(NoConvergence):
        gauss_2f1_scalar(300.0, 300.0, 0.5, 0.9)


def test_2f1_scalar_nan_sum_stops_early():
    # the terms turn nan after inf/inf; the sum is refused as not finite
    # instead of running all MAX_TERMS terms
    with pytest.raises(NoConvergence, match="is not finite"):
        gauss_2f1_scalar(300.0, 300.0, 0.5, 0.9)


def _ref_gauss_2f1_scalar(a, b, c, z, tol=1e-14):
    """The scalar 2F1 as it was summed in complex arithmetic throughout."""
    n_term = _termination_index(a, b)
    if n_term is not None:
        _check_denominator(c, n_term, n_term)
        aa, bb, cc, zz = DTYPE(a), DTYPE(b), DTYPE(c), DTYPE(z)
        acc = DTYPE(1.0)
        term = DTYPE(1.0)
        for k in range(n_term):
            term *= (aa + k) * (bb + k) * zz / ((cc + k) * (k + 1))
            acc += term
        return complex(acc)

    zc = complex(z)
    if abs(zc.imag) < 1e-300 and zc.real <= -0.5:
        w = zc / (zc - 1.0)
        return complex(
            (1.0 - zc) ** (-complex(a)) * _ref_gauss_2f1_scalar(a, c - b, c, w, tol)
        )
    if abs(zc) >= DIRECT_LIMIT:
        raise NoConvergence(f"|z| = {abs(zc):.4f} outside the direct-summation domain")
    _check_denominator(c, None, MAX_TERMS)
    acc = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small = 0
    for k in range(MAX_TERMS):
        term *= (a + k) * (b + k) * zc / ((c + k) * (k + 1))
        acc += term
        if abs(term) < tol * max(1.0, abs(acc)):
            small += 1
            if small >= 3:
                return complex(acc)
        else:
            small = 0
    raise NoConvergence(f"2F1 did not converge within {MAX_TERMS} terms at z = {z}")


def _2f1_grid(rng):
    """(a, b, c, z) over the lanes: real floats and ints, z as x+0j and x-0j,
    complex z and a, the Pfaff branch, |z| up to 0.98, poles and refusals."""
    u = rng.uniform
    for _ in range(400):
        a, b, c = u(-3.0, 3.0), u(-3.0, 3.0), u(0.1, 4.0)
        x = u(-0.98, 0.98)
        yield a, b, c, x
        yield a, b, c, complex(x, 0.0)
        yield a, b, c, complex(x, -0.0)
        r, phi = u(0.0, 0.98), u(-math.pi, math.pi)
        yield a, b, c, complex(r * math.cos(phi), r * math.sin(phi))
        yield complex(a, u(-1.0, 1.0)), b, c, x
        yield a, b, complex(c, u(-1.0, 1.0)), complex(x, -0.0)
        yield a, b, c, u(-20.0, -0.5)  # Pfaff map onto w in [1/3, 20/21]
        yield complex(a, u(-1.0, 1.0)), b, c, u(-20.0, -0.5)
        yield rng.randint(1, 6), rng.randint(-4, 6) + 0.5, rng.randint(1, 5), x
        yield rng.randint(-6, 0), b, c, x  # terminating
        yield a, b, -float(rng.randint(0, 4)), x  # a pole of (c)_k
    for x in (0.98, 0.985, 0.99, 0.0, -0.0, -0.5, 0.5, complex(0.7, 0.71)):
        yield 0.7, 1.3, 1.9, x
    yield 150.0, 150.0, 0.5, 0.9  # overflows: refused now, inf in the reference


def test_2f1_scalar_bitwise_matches_complex_sum():
    rng = random.Random(20160718)
    real_sums = 0
    for a, b, c, z in _2f1_grid(rng):
        try:
            ref = _ref_gauss_2f1_scalar(a, b, c, z)
        except Exception as exc:
            with pytest.raises(type(exc)):
                gauss_2f1_scalar(a, b, c, z)
            continue
        if not (math.isfinite(ref.real) and math.isfinite(ref.imag)):
            with pytest.raises(NoConvergence):
                gauss_2f1_scalar(a, b, c, z)
            continue
        got = gauss_2f1_scalar(a, b, c, z)
        if all(complex(v).imag == 0.0 for v in (a, b, c, z)):
            real_sums += 1
            assert got.real.hex() == ref.real.hex(), (a, b, c, z)
            assert got.imag == 0.0, (a, b, c, z)
        else:
            assert got.real.hex() == ref.real.hex(), (a, b, c, z)
            assert got.imag.hex() == ref.imag.hex(), (a, b, c, z)
    assert real_sums > 2000


def test_2f1_closed_form_consistency_cyclic():
    # 2F1(-nu-mu, 1+nu-mu; 1-mu; (1-z)/2) at (nu, mu) = (0, 1/4), z = coth 1
    # against Gamma(3/4) P(0, 1/4; z) (z^2-1)^(1/8) / 2^(1/4) with
    # P(0, 1/4; coth xi) = exp(xi/4)/Gamma(3/4)
    z = 1.0 / math.tanh(1.0)
    got = gauss_2f1_scalar(-0.25, 0.75, 0.75, (1.0 - z) / 2.0)
    p_val = math.exp(0.25) / gamma_fn(0.75)
    expected = gamma_fn(0.75) * p_val * (z * z - 1.0) ** 0.125 / 2.0**0.25
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_pfq_terminating_examples():
    assert pfq_terminating_all(0, [0.5], [0.7], 3.1)[0] == 1.0
    # Chu-Vandermonde: 2F1(-n, 2l-g; 2l; 1) = (g)_n/(2l)_n at l=1/4, g=-1/12
    lam, gamma = 0.25, -1.0 / 12.0
    for n in range(9):
        lhs = pfq_terminating_all(n, [2 * lam - gamma], [2 * lam], 1.0)[n]
        rhs = pochhammer(gamma, n) / pochhammer(2 * lam, n)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    # 3F2(-2, 1, 1; 2, 2; 1) by the direct three-term sum: 1 - 1/2 + 1/9
    got = pfq_terminating_all(2, [1.0, 1.0], [2.0, 2.0], 1.0)[2]
    assert abs(got - 11.0 / 18.0) <= 1e-14


def test_pfq_pole_detection():
    with pytest.raises(PoleInDenominatorParams):
        pfq_terminating_all(4, [0.5], [-2.0], 0.3)


def _ref_pfq_terminating(n, extra_numerators, denominators, u):
    """The (p+1)Fq(-n, ...) weight as it was once summed, term by term in Python complex."""
    acc = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n):
        term *= (-n + k) * u / (k + 1)
        for cnum in extra_numerators:
            term *= cnum + k
        for d in denominators:
            term /= d + k
        acc += term
    return complex(acc)


def _exact(x):
    """A float, complex or long-double value as an exact (re, im) pair of Fractions."""
    x = complex(x) if isinstance(x, (int, float, complex)) else x
    return Fraction(*x.real.as_integer_ratio()), Fraction(*x.imag.as_integer_ratio())


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den


def _exact_pfq_all(order, extra_numerators, denominators, u):
    """Exact (p+1)Fq(-n, c; d; u) for n = 0..order at the given double parameters.

    Term k of the n-th sum is (-n)_k S_k with S_k = prod_{j<k} s_j and
    s_j = u prod (c + j) / (prod (d + j) (j + 1)), so over a common
    denominator every weight is an integer combination of the S_k.
    """
    c, d, uu = [_exact(v) for v in extra_numerators], [_exact(v) for v in denominators], _exact(u)
    prods = [(Fraction(1), Fraction(0))]
    for j in range(order):
        s = uu
        for cc in c:
            s = _cmul(s, (cc[0] + j, cc[1]))
        for dd in d:
            s = _cdiv(s, (dd[0] + j, dd[1]))
        prods.append(_cmul(prods[-1], (s[0] / (j + 1), s[1] / (j + 1))))
    den = math.lcm(*(part.denominator for p in prods for part in p))
    nums = [(int(p[0] * den), int(p[1] * den)) for p in prods]
    out = []
    for n in range(order + 1):
        re = im = 0
        fall = 1  # (-n)_k
        for k in range(n + 1):
            re += fall * nums[k][0]
            im += fall * nums[k][1]
            fall *= k - n
        out.append((Fraction(re, den), Fraction(im, den)))
    return out


def _mixed_dev_sq(got, exact):
    """Squared |got - exact| / max(1, |got|, |exact|), exactly."""
    g = _exact(got)
    diff = (g[0] - exact[0]) ** 2 + (g[1] - exact[1]) ** 2
    return diff / max(1, g[0] ** 2 + g[1] ** 2, exact[0] ** 2 + exact[1] ** 2)


# (c, d, u) of the lemma.key samples, then of the gf2x samples, which weight
# by 3F2(-n, gamma, 2 lam - gamma; 2 lam, lam + 1/2; u).
_PFQ_WEIGHT_ROWS = (
    ((7.0 / 12.0,), (0.5,), 0.6),
    ((0.3, 0.2), (0.5, 0.75), 0.6),
    ((0.3,), (0.5,), 0.0),
    ((0.4, 0.7), (1.2, 0.9), 0.7 + 0.2j),
) + tuple(
    ((gamma, 2.0 * lam - gamma), (2.0 * lam, lam + 0.5), u)
    for lam, gamma, u in (
        (0.5, 0.3, 1.0),
        (0.25, 0.25 + 1.0 / 3.0, 0.4),
        (0.25, 0.3, 0.0),
        (1.0 / 6.0, 0.25, 0.7 + 0.2j),
    )
)


def test_pfq_terminating_all_against_exact_sum():
    # Each long-double weight is at least as close to the exact sum as the
    # double loop's, or within 1e-16 of it; at order 64 the worst weight is
    # at least 100 times closer than the double loop's worst.
    floor_sq = Fraction(1, 10**32)
    for c, d, u in _PFQ_WEIGHT_ROWS:
        exact = _exact_pfq_all(64, c, d, u)
        old = [_mixed_dev_sq(_ref_pfq_terminating(n, c, d, u), exact[n]) for n in range(65)]
        for order in (16, 32, 64):
            got = pfq_terminating_all(order, c, d, u)
            assert got.dtype == DTYPE and got.shape == (order + 1,)
            new = [_mixed_dev_sq(got[n], exact[n]) for n in range(order + 1)]
            for n in range(order + 1):
                assert new[n] <= old[n] or new[n] <= floor_sq, (c, d, u, order, n)
        if max(old) > floor_sq:
            assert max(new) * 100**2 <= max(old), (c, d, u)


# -- the residue test ------------------------------------------------------------
# The three membership tests in_z_pm replaced, verbatim: legendre's integer and
# fractional-part tests and genfun's Z ± r test.


def _ref_near_int(x):
    return abs(x - round(x)) <= INT_TOL


def _ref_frac_matches(x, residues):
    f = x - math.floor(x)
    return any(min(abs(f - r), abs(f - r - 1.0), abs(f - r + 1.0)) <= INT_TOL for r in residues)


def _ref_in_z_pm(x, r):
    f = x - math.floor(x)
    return min(abs(f - r), abs(f - (1.0 - r)), abs(f - r - 1.0), abs(f - (1.0 - r) + 1.0)) <= INT_TOL


def _residue_grid():
    """Every n + k/12 for n in -4..4, moved off by 0, 0.5, 0.999, 1.001 and 2
    tolerances either way."""
    offsets = [s * c * INT_TOL for c in (0.0, 0.5, 0.999, 1.001, 2.0) for s in (1.0, -1.0)]
    return [n + k / 12.0 + e for n in range(-4, 5) for k in range(12) for e in offsets]


def _residue_sample():
    """Seeded points near the k/12 grid and anywhere in [-5, 5]."""
    rng = random.Random(1607)
    near = [rng.randint(-4, 4) + rng.randint(0, 11) / 12.0 + rng.uniform(-3.0, 3.0) * INT_TOL
            for _ in range(2000)]
    return near + [rng.uniform(-5.0, 5.0) for _ in range(500)]


def test_in_z_pm_matches_the_tests_it_replaced():
    for x in _residue_grid() + _residue_sample():
        assert in_z_pm(x, 0.0) is _ref_near_int(x), x
        assert in_z_pm(x, 0.5) is _ref_near_int(x - 0.5), x
        for pair in ((1.0 / 6.0, 5.0 / 6.0), (0.25, 0.75), (1.0 / 3.0, 2.0 / 3.0)):
            assert in_z_pm(x, pair[0]) is _ref_frac_matches(x, pair), (x, pair)
        for r in (0.25, 1.0 / 3.0, 1.0 / 6.0):
            assert in_z_pm(x, r) is _ref_in_z_pm(x, r), (x, r)
    # on the grid, r = 0 and 1/2 are hit at one k per n, other r at two, each
    # at the 6 offsets within INT_TOL (0 counted once per sign)
    for r in (0.0, 0.25, 1.0 / 3.0, 1.0 / 6.0, 0.5):
        hits = sum(in_z_pm(x, r) for x in _residue_grid())
        assert hits == 9 * (1 if r in (0.0, 0.5) else 2) * 6, r


def test_gamma_examples():
    assert gamma_fn(1.0) == 1.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-15
    assert abs(gamma_fn(0.25) - 3.6256099082219083) <= 1e-12
    # cross-check via reflection: Gamma(1/4) Gamma(3/4) = pi / sin(pi/4)
    assert abs(gamma_fn(0.25) * gamma_fn(0.75) - math.pi / math.sin(math.pi / 4)) <= 1e-12


def test_gamma_reflection_property():
    for x in (1.0 / 6.0, 0.25, 1.0 / 3.0, 5.0 / 12.0):
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_gamma_pole():
    for x in (0.0, -1.0, -4.0):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma_fn(x)


def test_gamma_pole_matches_negative_integer_reading():
    # within INT_TOL of a pole, on either side, is the pole, as
    # as_negative_integer reads it; just past INT_TOL is a regular point
    for x in (5e-10, 1e-9, -5e-10, -4.0 + 5e-10):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma_fn(x)
    assert gamma_fn(2e-9) == math.gamma(2e-9)


def test_gauss_ode_residual():
    # y = 2F1(a,b;c;z) satisfies z(1-z)y'' + (c-(a+b+1)z)y' - ab y = 0
    a, b, c, z = 0.3, 0.7, 1.4, 0.3
    coeffs = np.complex128(gauss_2f1_coeffs(a, b, c, 60))
    k = np.arange(61)
    y = np.polynomial.polynomial.polyval(z, coeffs)
    y1 = np.polynomial.polynomial.polyval(z, coeffs[1:] * k[1:])
    y2 = np.polynomial.polynomial.polyval(z, coeffs[2:] * k[2:] * (k[2:] - 1))
    residual = z * (1 - z) * y2 + (c - (a + b + 1) * z) * y1 - a * b * y
    assert abs(residual) <= 1e-8
