"""Truncated-series engine: frozen examples, error cases, and algebra properties."""

import math

import numpy as np
import pytest
from _bitwise import assert_bitwise
from numpy.polynomial.polynomial import polyval

from gegenfun.errors import (
    DivisionByZeroSeries,
    NonvanishingInner,
    ZeroConstantTerm,
)
from gegenfun.series import (
    DTYPE,
    TruncatedSeries,
    _BLOCK,
    _SPARSE_MAX,
    _lattice,
    compose_vanishing,
    div,
    mixed_deviation,
    pow_alpha,
)


def assert_coeffs(series, expected, tol=1e-12):
    got = series.coeffs
    assert len(got) == len(expected), f"order mismatch: {len(got)-1} vs {len(expected)-1}"
    for n, (g, e) in enumerate(zip(got, expected)):
        assert abs(complex(g) - complex(e)) <= tol, f"coeff {n}: {g} vs {e}"


def test_from_constant():
    assert_coeffs(TruncatedSeries.from_constant(1.0, 4), [1, 0, 0, 0, 0])
    assert_coeffs(TruncatedSeries.from_constant(0.0, 2), [0, 0, 0])
    assert_coeffs(TruncatedSeries.from_constant(2 - 3j, 0), [2 - 3j])
    with pytest.raises(ValueError):
        TruncatedSeries.from_constant(1.0, -1)


def test_from_polynomial_keeps_long_double():
    c = np.longdouble(1) + np.finfo(np.longdouble).eps
    s = TruncatedSeries.from_polynomial([c, 2.0], 3)
    assert s.coeffs[0] == c
    assert_coeffs(s, [c, 2, 0, 0])


def test_add_sub_mul_examples():
    assert_coeffs(TruncatedSeries([1, 1]) * TruncatedSeries([1, 1]), [1, 2])
    assert_coeffs(TruncatedSeries([0, 1, 0]) * TruncatedSeries([0, 1, 0]), [0, 0, 1])
    assert_coeffs(TruncatedSeries([1, 2]) + TruncatedSeries([3, -2]), [4, 0])
    assert_coeffs(TruncatedSeries([1, 2, 3]) - TruncatedSeries([1, 1]), [0, 1])


def test_order_is_min_of_operands():
    a, b = TruncatedSeries([1, 2, 3, 4]), TruncatedSeries([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, math.inf])
    with pytest.raises(ValueError):
        TruncatedSeries([complex(0, math.nan)])


def test_div_examples():
    assert_coeffs(div(TruncatedSeries([1, 0, 0]), TruncatedSeries([1, 1, 0])), [1, -1, 1])
    # a divisor with a zero constant term is refused, even where t divides both sides
    with pytest.raises(DivisionByZeroSeries):
        div(TruncatedSeries([0, 2, 2]), TruncatedSeries([0, 1, 1]))


def test_div_errors():
    with pytest.raises(DivisionByZeroSeries):
        div(TruncatedSeries([1, 0]), TruncatedSeries([0, 0]))
    with pytest.raises(DivisionByZeroSeries):
        div(TruncatedSeries([1, 2, 3]), TruncatedSeries([0, 1, 1]))


def test_pow_rational_examples():
    assert_coeffs(pow_alpha(TruncatedSeries([1, 2, 1]), 1 / 2), [1, 1, 0])
    assert_coeffs(pow_alpha(TruncatedSeries([1, 0]), -1.0), [1, 0])
    with pytest.raises(ZeroConstantTerm):
        pow_alpha(TruncatedSeries([0, 1]), 1 / 2)
    # only an exactly zero constant term is rejected, however small a0 is:
    # sqrt(1e-20 + t) = 1e-10 + t / 2e-10 - ...
    tiny = pow_alpha(TruncatedSeries.from_polynomial([1e-20, 1], 4), 1 / 2)
    assert complex(tiny.coeffs[0]) == pytest.approx(1e-10)
    assert complex(tiny.coeffs[1]) == pytest.approx(5e9)


def _binomial_series_oracle(poly_tail, alpha, order):
    """(1 + p(t))**alpha with p vanishing at 0, by explicit binomial expansion."""
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = 1.0
    power = np.zeros(order + 1, dtype=complex)
    power[0] = 1.0
    binom = 1.0
    for k in range(1, order + 1):
        binom *= (alpha - k + 1) / k
        power = np.convolve(power, poly_tail)[: order + 1]
        acc += binom * power
    return acc


def test_pow_rational_vs_binomial_oracle():
    # (1 - 4t + t^2)^(1/12) against the brute-force binomial expansion
    order = 6
    r2 = TruncatedSeries.from_polynomial([1.0, -4.0, 1.0], order)
    got = pow_alpha(r2, 1 / 12)
    tail = np.zeros(order + 1, dtype=complex)
    tail[1], tail[2] = -4.0, 1.0
    expected = _binomial_series_oracle(tail, 1.0 / 12.0, order)
    assert_coeffs(got, expected, tol=1e-12)


def test_pow_rational_round_trip():
    a = TruncatedSeries([2.0, 0.3, -0.1, 0.05, 0.01])
    back = pow_alpha(pow_alpha(a, 3 / 5), 5 / 3)
    assert mixed_deviation(a, back) <= 1e-14


def test_compose_vanishing_examples():
    inner = TruncatedSeries([0, 1, 0, 0, 0])
    geom = compose_vanishing([1.0] * 5, inner)
    assert_coeffs(geom, [1, 1, 1, 1, 1])
    const = compose_vanishing([1.0, 0.0, 0.0], TruncatedSeries([0, 0.5, -0.25]))
    assert_coeffs(const, [1, 0, 0])
    with pytest.raises(NonvanishingInner):
        compose_vanishing([1.0, 1.0], TruncatedSeries([1.0, 1.0]))


def test_mul_commutative_associative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scale = 10.0 ** rng.integers(0, 7)
        a = TruncatedSeries(scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9)))
        b = TruncatedSeries(scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9)))
        c = TruncatedSeries(scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9)))
        assert mixed_deviation(a * b, b * a) <= 1e-15
        lhs, rhs = (a * b) * c, a * (b * c)
        denom = np.maximum.reduce(
            [np.abs(lhs.coeffs), np.abs(rhs.coeffs), np.ones(lhs.order + 1)]
        )
        assert float(np.max(np.abs(lhs.coeffs - rhs.coeffs) / denom)) <= 1e-12


def test_mul_reciprocal_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        coeffs[0] = 1.0 + abs(coeffs[0])
        a = TruncatedSeries(coeffs)
        prod = a * pow_alpha(a, -1.0)
        assert mixed_deviation(prod, TruncatedSeries.from_constant(1.0, prod.order)) <= 1e-10


def test_div_mul_round_trip():
    rng = np.random.default_rng(13)
    for shift in (0, 1, 2):
        a_c = rng.standard_normal(12)
        b_c = rng.standard_normal(12)
        a_c[:shift] = 0.0
        b_c[:shift] = 0.0
        a_c[shift] += 3.0
        b_c[shift] += 3.0
        a, b = TruncatedSeries(a_c), TruncatedSeries(b_c)
        if shift:
            with pytest.raises(DivisionByZeroSeries):
                div(a, b)
            continue
        back = div(a, b) * b
        assert back.order == 11
        assert mixed_deviation(back, a) <= 1e-10


def test_evaluation_consistency_truncation_order():
    # partial sums of (1 - 2xt + t^2)^(-1/4) vs direct evaluation: halving t
    # shrinks the error by about 2^(N+1)
    x, order = 2.0, 6
    s = pow_alpha(TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order), -0.25)

    def err(t):
        exact = (1.0 - 2.0 * x * t + t * t) ** -0.25
        return abs(polyval(t, s.coeffs) - exact)

    e1, e2 = err(0.1), err(0.05)
    assert e1 < 1e-4
    assert e2 <= e1 / 2 ** (order - 1)


def test_valuation_with_growing_coefficients():
    # leading-term detection must survive geometric coefficient growth
    x = 5.0
    r2 = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], 24)
    rinv = pow_alpha(r2, -0.5)
    assert rinv.valuation() == 0
    t_times = TruncatedSeries.from_polynomial([0, 1], 24) * rinv
    assert t_times.valuation() == 1


# -- bit-exact kernels against their textbook loops -----------------------------
#
# The kernels run on raw arrays, window the Horner accumulator and hoist loop
# invariants; none of that may change a single coefficient bit.  The plain
# loops below are the reference.


def _ref_compose_vanishing(outer_coeffs, inner):
    outer = np.asarray(outer_coeffs, dtype=DTYPE)
    n = min(outer.size - 1, inner.order)
    acc = TruncatedSeries.from_constant(outer[n], inner.order)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + outer[k]
    return acc


def _ref_pow_alpha(a, alpha):
    a0 = a.coeffs[0]
    n = a.order
    out = np.zeros(n + 1, dtype=DTYPE)
    out[0] = a0 ** alpha
    ac = a.coeffs
    for m in range(1, n + 1):
        k = np.arange(1, m + 1)
        out[m] = np.dot(((alpha + 1) * k - m) * ac[1 : m + 1], out[m - 1 :: -1][:m]) / (
            m * a0
        )
    return TruncatedSeries(out)


def _ref_div(a, b):
    order = min(a.order, b.order)
    an, bn = a.coeffs, b.coeffs
    out = np.zeros(order + 1, dtype=DTYPE)
    b0 = bn[0]
    for n in range(order + 1):
        acc = an[n] if n < an.size else 0.0
        kmax = min(n, bn.size - 1)
        if kmax >= 1:
            acc = acc - np.dot(out[n - kmax : n][::-1], bn[1 : kmax + 1])
        out[n] = acc / b0
    return TruncatedSeries(out)


ORDERS = (0, 1, 2, 17, 66, 205)


def _random_coeffs(rng, size, scale=0.3):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _inner(rng, order, kind):
    z = _random_coeffs(rng, order + 1)
    if kind == "zero":
        z[:] = 0.0
    elif kind == "residue":
        z[0] = 1e-17 - 2e-18j  # tiny, but not exactly zero
    else:
        z[:kind] = 0.0
    return TruncatedSeries(z)


@pytest.mark.parametrize("order", ORDERS)
def test_compose_vanishing_bitwise_matches_horner(order):
    rng = np.random.default_rng(order)
    for kind in (1, 2, "residue", "zero"):
        inner = _inner(rng, order, kind)
        for outer_len in (max(1, order // 2), order + 9):
            outer = _random_coeffs(rng, outer_len, 1.0) * 0.9 ** np.arange(outer_len)
            outer[0] = complex(-0.0, -0.0)  # its sign survives only without a product
            for o in (outer, outer.real.copy()):
                if kind == "residue":
                    with pytest.raises(NonvanishingInner):
                        compose_vanishing(o, inner)
                else:
                    assert_bitwise(compose_vanishing(o, inner), _ref_compose_vanishing(o, inner))


def _with_negative_zero_imag(c):
    out = np.array(c, dtype=DTYPE)
    out.imag[:] = -0.0
    return out


@pytest.mark.parametrize("order", ORDERS)
def test_compose_vanishing_real_lane_bitwise_matches_horner(order):
    rng = np.random.default_rng(order)
    for v in (0, 1, 2):
        z = rng.standard_normal(order + 1) * 0.3
        z[:v] = -0.0
        z[v + 1 :: 3] = -0.0
        if v == 0:
            z[0] = -1e-17  # tiny, but not exactly zero
        outer = rng.standard_normal(order + 9) * 0.9 ** np.arange(order + 9)
        outer[::4] = -0.0
        for inner in (TruncatedSeries(z), TruncatedSeries(_with_negative_zero_imag(z))):
            for o in (outer, _with_negative_zero_imag(outer), outer + 0.5j):
                if v == 0:
                    with pytest.raises(NonvanishingInner):
                        compose_vanishing(o, inner)
                else:
                    assert_bitwise(compose_vanishing(o, inner), _ref_compose_vanishing(o, inner))


@pytest.mark.parametrize("order", ORDERS[:-1])  # the cubic reference is slow at 205
def test_compose_vanishing_trailing_zeros_bitwise_matches_horner(order):
    rng = np.random.default_rng(order)
    for kind in (1, 2, "zero"):
        z = _inner(rng, order, kind).coeffs
        for inner in (TruncatedSeries(z), TruncatedSeries(z.real.copy())):
            for top in sorted({-1, 0, order // 3, order}):  # the last nonzero index
                for zero in (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
                    outer = np.full(order + 3, zero, dtype=DTYPE)
                    outer[: top + 1] = _random_coeffs(rng, top + 1, 1.0)
                    for o in (outer, outer.real.copy()):
                        got = compose_vanishing(o, inner)
                        assert_bitwise(got, _ref_compose_vanishing(o, inner))


def test_compose_vanishing_overflow_still_raises():
    big = np.sqrt(np.finfo(np.longdouble).max)
    for imag in (0.0, 1.0):  # the real lane, then the complex one
        inner = TruncatedSeries(np.array([0, big, big * complex(1.0, imag), 0, 0], dtype=DTYPE))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                compose_vanishing([1.0] * 5, inner)
            with pytest.raises(ValueError, match="non-finite coefficient"):
                _ref_compose_vanishing([1.0] * 5, inner)


@pytest.mark.parametrize("order", ORDERS)
def test_pow_alpha_bitwise_matches_loop(order):
    rng = np.random.default_rng(order)
    c = _random_coeffs(rng, order + 1)
    c[0] = 1.0 + 0.5j
    for a in (TruncatedSeries(c), TruncatedSeries(c.real.copy())):
        for alpha in (-0.5, 1 / 3, 0.3 - 0.7j, -2.25 + 1.5j):
            assert_bitwise(pow_alpha(a, alpha), _ref_pow_alpha(a, alpha))


@pytest.mark.parametrize("order", ORDERS)
def test_div_bitwise_matches_loop(order):
    rng = np.random.default_rng(order)
    for vb in range(min(2, order) + 1):
        b_c = _random_coeffs(rng, order + 1)
        b_c[:vb] = 0.0
        b_c[vb] += 1.0
        for va in sorted({vb, min(vb + 1, order)}):
            a_c = _random_coeffs(rng, order + 4)
            a_c[:va] = 0.0
            a_c[va] += 2.0
            a, b = TruncatedSeries(a_c), TruncatedSeries(b_c)
            if vb:
                with pytest.raises(DivisionByZeroSeries):
                    div(a, b)
                continue
            assert_bitwise(div(a, b), _ref_div(a, b))
            assert_bitwise(div(b, b), _ref_div(b, b))


# Polynomial operands: pow_alpha sums only over the nonzero tail coefficients,
# and div runs its one lattice loop, also on a constant divisor.
SPARSE_POLYS = (
    [1.5 - 0.5j],
    [1.0, -0.6],
    [1.0, -2 * 1.7, 1.0],
    [1.0, 0.0, 0.0, -2 * 1.7, 0.0, 0.0, 1.0],
    [1.0, -2 * 0.0, 1.0],  # a -0 middle coefficient, as R^2 at x = 0 has
    [2.0 + 1j, 0.0, 0.25 - 0.5j, 0.0, 0.0, -0.125 + 0.0625j],
    [1.0, 0.0, -0.5 + 0.25j, 0.0, 0.125, 0.0, -2.0],  # a function of t^2
    # pow_alpha fills the steps off the lattice: every step of a constant,
    # here with a negative a0, and -0 gaps in functions of t^2 and t^3
    [-2.0],
    [-1.0 - 0.25j, -0.0, 0.5],
    [complex(1.5, -0.0), 0.0, complex(0.0, -0.0), -2 * 1.7, -0.0, 0.0, 1.0],
)


def _sparse(poly, order):
    a = TruncatedSeries.from_polynomial(poly, order)
    assert np.flatnonzero(a.coeffs[1:]).size <= _SPARSE_MAX
    return a


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("poly", SPARSE_POLYS)
def test_pow_alpha_sparse_bitwise_matches_loop(order, poly):
    a = _sparse(poly, order)
    for alpha in (-0.5, 1 / 3, 0.3 - 0.7j, -2.25 + 1.5j):
        assert_bitwise(pow_alpha(a, alpha), _ref_pow_alpha(a, alpha))


@pytest.mark.parametrize("order", ORDERS)
def test_div_sparse_bitwise_matches_loop(order):
    rng = np.random.default_rng(order)
    valuation_one = ([0.0, 1.0, -2 * 1.7, 1.0],) if order else ()
    for poly in SPARSE_POLYS + valuation_one:
        b = _sparse(poly, order)
        a_c = _random_coeffs(rng, order + 4)
        a_c[: b.valuation()] = 0.0
        odd = a_c.copy()
        odd[1::2] = complex(-0.0, -0.0)  # a -0 numerator meets the sum's +0 start
        for a in (TruncatedSeries(a_c), TruncatedSeries(a_c.real.copy()), TruncatedSeries(odd), b):
            if b.valuation():
                with pytest.raises(DivisionByZeroSeries):
                    div(a, b)
                continue
            assert_bitwise(div(a, b), _ref_div(a, b))


# Finite, as is its square, on 80-bit and on double long double; its cube overflows.
_BIG = np.finfo(np.longdouble).max ** 0.4


def test_sparse_overflow_still_raises():
    # big**3 overflows at step 24
    c = np.zeros(31, dtype=DTYPE)
    c[0], c[8] = 1.0, _BIG
    a = TruncatedSeries(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for got in (pow_alpha, _ref_pow_alpha):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                got(a, -1.0)
        for got in (div, _ref_div):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                got(TruncatedSeries.from_constant(1.0, a.order), a)


# Dense operands on the lattice gZ: the kernels run only the steps that are
# multiples of g, and each sum over the lattice terms alone.
LATTICE_ORDERS = sorted(
    set(ORDERS) | {g * _BLOCK + d for g in (1, 2, 3) for d in (-1, 0, 1)} | {4 * _BLOCK + 1}
)


def _lattice_coeffs(rng, order, g, residues=(0,), zero=0.0):
    """Random coefficients at the exponents whose residue mod g is in residues."""
    c = _random_coeffs(rng, order + 1)
    c[~np.isin(np.arange(order + 1) % g, residues)] = zero
    return c


def test_lattice_is_gcd_of_exponents():
    assert _lattice(np.array([2, 5, 8])) == 3  # tail indices of t^3, t^6, t^9
    assert _lattice(np.array([1, 3, 5, 8])) == 1
    assert _lattice(np.array([], dtype=np.intp)) == 0


@pytest.mark.parametrize("order", LATTICE_ORDERS)
def test_pow_alpha_lattice_bitwise_matches_loop(order):
    rng = np.random.default_rng(order)
    # (3, (0, 2)) mixes residues, so g = 1; (4, (0, 2)) lies on 2Z
    for g, residues in ((2, (0,)), (3, (0,)), (3, (0, 2)), (4, (0, 2))):
        for zero in (0.0, -0.0, complex(0.0, -0.0)):
            c = _lattice_coeffs(rng, order, g, residues, zero)
            for a0 in (1.0 + 0.5j, -2.0, complex(1.5, -0.0)):
                c[0] = a0
                for a in (TruncatedSeries(c), TruncatedSeries(c.real.copy())):
                    for alpha in (-0.5, 1 / 3, 0.3 - 0.7j):
                        assert_bitwise(pow_alpha(a, alpha), _ref_pow_alpha(a, alpha))


@pytest.mark.parametrize("order", LATTICE_ORDERS)
def test_div_lattice_bitwise_matches_loop(order):
    rng = np.random.default_rng(order)
    for g in (2, 3):
        for vb in (0, 1):
            if vb > order:
                continue
            b_c = np.zeros(order + 1, dtype=DTYPE)
            b_c[vb:] = _lattice_coeffs(rng, order - vb, g)
            b_c[vb] += 1.0
            b = TruncatedSeries(b_c)
            dividends = (
                ((0,), 0.0),
                ((0,), -0.0),
                ((0,), complex(-0.0, -0.0)),
                ((0, 1), 0.0),  # off the divisor's lattice: g = 1
            )
            for residues, zero in dividends:
                a_c = np.zeros(order + 4, dtype=DTYPE)
                a_c[vb:] = _lattice_coeffs(rng, order + 3 - vb, g, residues, zero)
                for a in (TruncatedSeries(a_c), TruncatedSeries(a_c.real.copy()), b):
                    if vb:
                        with pytest.raises(DivisionByZeroSeries):
                            div(a, b)
                        continue
                    assert_bitwise(div(a, b), _ref_div(a, b))


@pytest.mark.parametrize("g", (1, 3))
def test_dense_overflow_still_raises(g):
    # big**3 overflows at step 27
    rng = np.random.default_rng(g)
    c = np.array(_lattice_coeffs(rng, 30, g), dtype=DTYPE)
    c[0], c[9] = 1.0, _BIG
    a = TruncatedSeries(c)
    assert np.flatnonzero(a.coeffs[1:]).size > _SPARSE_MAX
    with np.errstate(over="ignore", invalid="ignore"):
        for got in (pow_alpha, _ref_pow_alpha):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                got(a, -1.0)
        for got in (div, _ref_div):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                got(TruncatedSeries.from_constant(1.0, a.order), a)
