"""Generating-function identities: coefficientwise LHS/RHS agreement, variant
coherence, u-degenerations, termination, substitutions, and the algebraicity test."""

import math
import re

import numpy as np
import pytest
from _bitwise import assert_bitwise
from _oracles import homogeneous_rows, tetrahedral_rhs_s_grid

from gegenfun import catalog
from gegenfun import genfun as gf
from gegenfun.errors import DomainMismatch, InvalidLambda, UncancelledPole
from gegenfun.gegenbauer import gegenbauer_homogeneous_rows, gegenbauer_recurrence
from gegenfun.hypergeometric import pochhammer_ratios
from gegenfun.series import TruncatedSeries, mixed_deviation, pow_alpha


def assert_pair(pair, tol=1e-9, order=None):
    lhs, rhs = pair
    dev = mixed_deviation(lhs, rhs, order)
    assert dev <= tol, f"deviation {dev:.3e} exceeds {tol:.0e}"


# -- first family -------------------------------------------------------------------


def test_first_gf_examples():
    assert_pair(gf.first_gf(0.25, -1.0 / 12.0, 2.0, 16, "a"))
    assert_pair(gf.first_gf(2.0, 1.1, 1.5, 16, "b"))
    lhs = gf.lhs_ratio(0.37, (0.9,), (2.0 * 0.37,), 0.7, 10)
    assert abs(complex(lhs.coeffs[0]) - 1.0) <= 1e-15


def test_first_gf_terminating_weights():
    # gamma = -1: the weight (gamma)_n kills every n >= 2 exactly
    lhs = gf.lhs_ratio(0.25, (-1.0,), (0.5,), 1.5, 12)
    assert max(abs(complex(c)) for c in lhs.coeffs[2:]) <= 1e-14


def test_first_gf_gamma_termination_matches_miller():
    # at gamma = -N the closed form collapses to the finite-sum identity
    lam, n, x, order = 0.25, 3, 1.5, 12
    _, rhs = gf.first_gf(lam, -float(n), x, order, "a")
    _, miller_rhs = gf.miller_identities(lam, n, x, order, "g1")
    assert mixed_deviation(rhs, miller_rhs) <= 1e-12


def test_first_gf_variant_coherence():
    for lam, g, x in ((0.25, -1.0 / 12.0, 1.3), (1.0 / 6.0, 0.3, 0.6), (0.5, 0.3, -0.7)):
        a = gf.first_gf(lam, g, x, 16, "a")[1]
        b = gf.first_gf(lam, g, x, 16, "b")[1]
        assert mixed_deviation(a, b) <= 1e-9


def test_first_rewrite():
    assert_pair(gf.first_rewrite(-1.0 / 6.0, 0.25, 2.0, 16, "a"), 1e-8)
    assert_pair(gf.first_rewrite(-0.25, 1.0 / 3.0, 0.4, 12, "a"), 1e-8)
    assert_pair(gf.first_rewrite(0.0, 0.25, 0.5, 14, "b"), 1e-8)
    # nu = -mu: reducible with N = 0
    assert_pair(gf.first_rewrite(-0.2, 0.2, 1.5, 12, "a"), 1e-9)


def test_first_rewrite_next_to_a_terminating_parameter():
    # nu + mu lies 2e-10 or 2e-9 off the integer 2: the 2F1 does not
    # terminate, as the left side's Pochhammer weights do not
    for nu in (1.8, 1.8 + 2e-10, 1.8 + 2e-9):
        assert_pair(gf.first_rewrite(nu, 0.2, 1.3, 16, "a"), 1e-8)


def test_miller_identities():
    assert_pair(gf.miller_identities(0.25, 3, 1.5, 12, "g1"))
    assert_pair(gf.miller_identities(1.5, 3, 0.3, 12, "g2"))
    # N = 0 companion is the ordinary generating function
    lhs, rhs = gf.miller_identities(0.5, 0, 2.0, 12, "g2")
    assert mixed_deviation(rhs, TruncatedSeries(gegenbauer_recurrence(0.5, 12, 2.0))) <= 1e-12
    # N = 0 finite sum is constant 1
    lhs, rhs = gf.miller_identities(0.5, 0, 2.0, 12, "g1")
    assert mixed_deviation(rhs, TruncatedSeries.from_constant(1.0, 12)) <= 1e-14


def test_alt_gf():
    assert_pair(gf.alt_gf(0.25, 2.0, 16, 2))
    assert_pair(gf.alt_gf(7.0 / 6.0, 0.3, 16, 1))
    # lam = 1/2 with the R^(-1) prefactor reduces to the Legendre ordinary GF
    lhs, rhs = gf.alt_gf(0.5, 1.5, 16, 1)
    assert mixed_deviation(rhs, TruncatedSeries(gegenbauer_recurrence(0.5, 16, 1.5))) <= 1e-12


# every two-form builder: (call with the form, the form's name, an unknown form)
_TWO_FORM_BUILDERS = {
    "first_gf": (lambda f: gf.first_gf(0.25, -1.0 / 12.0, 2.0, 8, f), "variant", "c"),
    "first_rewrite": (lambda f: gf.first_rewrite(-1.0 / 6.0, 0.25, 2.0, 8, f), "variant", "c"),
    "extended_first_gf": (lambda f: gf.extended_first_gf(0.25, -1.0 / 12.0, 0.4, 2.0, 8, f), "variant", "c"),
    "extended_rewrite": (lambda f: gf.extended_rewrite(-1.0 / 6.0, 0.25, 0.4, 2.0, 8, f), "variant", "c"),
    "second_gf": (lambda f: gf.second_gf(0.5, 0.3, 0.6, 8, f), "variant", "c"),
    "extended_second_gf": (lambda f: gf.extended_second_gf(0.5, 0.3, 0.4, 0.6, 8, f), "variant", "c"),
    "second_rewrite": (lambda f: gf.second_rewrite(-1.0 / 6.0, 0.25, 0.5, 8, f), "variant", "c"),
    "miller_identities": (lambda f: gf.miller_identities(0.25, 3, 1.5, 8, f), "which", "g3"),
    "extended_miller": (lambda f: gf.extended_miller(0.25, 3, 0.4, 1.5, 8, f), "which", "g1"),
    "alt_gf": (lambda f: gf.alt_gf(0.25, 2.0, 8, f), "which", 3),
    "tetrahedral_example": (lambda f: gf.tetrahedral_example(1.5, 8, f), "branch", "elliptic"),
}


@pytest.mark.parametrize("name", list(_TWO_FORM_BUILDERS))
def test_two_form_builders_reject_unknown_form(name):
    build, kind, bad = _TWO_FORM_BUILDERS[name]
    with pytest.raises(ValueError, match=re.escape(f"unknown {kind} {bad!r}")):
        build(bad)


# -- radical examples ----------------------------------------------------------------


def test_octahedral_example():
    for x in (1.3, 1.5, 2.0, 5.0):
        lhs, rhs = gf.octahedral_example(x, 20)
        assert abs(complex(lhs.coeffs[0]) - 1.0) <= 1e-12
        assert abs(complex(rhs.coeffs[0]) - 1.0) <= 1e-12
        assert mixed_deviation(lhs, rhs) <= 1e-8
    with pytest.raises(DomainMismatch):
        gf.octahedral_example(0.5, 12)


@pytest.mark.parametrize("order, bound", [(16, 1e-15), (64, 3e-15)])
def test_octahedral_example_against_mpmath(order, bound):
    # b**(1/12) Phi(w - 1) against the left side sum (gamma)_n/(2 lam)_n C_n(x) t**n
    # at exact lam = 1/4, gamma = -1/12, in 50-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lam, gamma = mpmath.mpf(1) / 4, -mpmath.mpf(1) / 12
        for x in (1.3, 1.5, 2.0, 5.0):
            rhs = gf.octahedral_example(x, order)[1]
            assert rhs.order == order
            xm = mpmath.mpf(x)
            c, weight = [mpmath.mpf(1), 2 * lam * xm], mpmath.mpf(1)
            for n in range(order + 1):
                if n >= 2:
                    c.append((2 * (n + lam - 1) * xm * c[n - 1] - (n + 2 * lam - 2) * c[n - 2]) / n)
                ref = weight * c[n]
                got = mpmath.mpc(mpmath.mpf(str(rhs.coeffs[n].real)), mpmath.mpf(str(rhs.coeffs[n].imag)))
                assert abs(got - ref) / max(1, abs(ref), abs(got)) <= bound, (x, n)
                weight *= (gamma + n) / (2 * lam + n)


def test_octahedral_phi_against_mpmath():
    # Phi(delta) = (g+(1+delta)/2)**(1/4) with g+(w) = (1+w)/2 + sqrt((1+w+w**2)/3):
    # constant term exactly 1, and every coefficient within 16 eps of mpmath's
    mpmath = pytest.importorskip("mpmath")
    eps = float(np.finfo(np.longdouble).eps)
    phi = gf._octa_phi(16)
    assert phi.size == 17 and not phi.flags.writeable
    assert gf._octa_phi(16) is phi
    assert phi[0] == 1 and not phi.imag.any()
    with mpmath.workdps(30):

        def ref_phi(d):
            w = 1 + d
            return (((1 + w) / 2 + mpmath.sqrt((1 + w + w * w) / 3)) / 2) ** 0.25

        for j, c in enumerate(mpmath.taylor(ref_phi, 0, 16)):
            assert abs(mpmath.mpf(str(phi[j].real)) - c) <= 16 * eps * max(1, abs(c)), j


def test_tetrahedral_example():
    for x in (1.5, 2.0):
        lhs, rhs = gf.tetrahedral_example(x, 16, "hyperbolic")
        assert mixed_deviation(lhs, rhs) <= 1e-8
    for x in (0.3, 0.6):
        lhs, rhs = gf.tetrahedral_example(x, 16, "circular")
        assert mixed_deviation(lhs, rhs) <= 1e-8
        assert np.abs(rhs.coeffs.imag).max() <= 1e-9
    assert abs(complex(gf.tetrahedral_example(2.0, 12, "hyperbolic")[1].coeffs[0]) - 1.0) <= 1e-12
    with pytest.raises(DomainMismatch):
        gf.tetrahedral_example(0.5, 12, "hyperbolic")
    with pytest.raises(DomainMismatch):
        gf.tetrahedral_example(1.5, 12, "circular")


@pytest.mark.parametrize(
    "x,branch", [(1.05, "hyperbolic"), (12.0, "hyperbolic"), (-3.0, "hyperbolic"),
                 (-0.95, "circular"), (0.0, "circular"), (0.99, "circular"),
                 # the coefficients of (1 - R - xt) / s^6 grow about |x|-fold per power of t
                 (1e6, "hyperbolic"), (-1e6, "hyperbolic"), (1e8, "hyperbolic")]
)
@pytest.mark.parametrize("order", [0, 1, 2, 16, 32])
def test_tetrahedral_example_reports_its_order(x, branch, order):
    lhs, rhs = gf.tetrahedral_example(x, order, branch)
    assert rhs.order == order
    assert mixed_deviation(lhs, rhs, order) <= 1e-13


@pytest.mark.parametrize(
    "x,branch", [(1.001, "hyperbolic"), (-1.001, "hyperbolic"), (1.5, "hyperbolic"), (2.0, "hyperbolic"),
                 (12.0, "hyperbolic"), (1e6, "hyperbolic"), (-0.999, "circular"), (0.0, "circular"),
                 (0.3, "circular"), (0.6, "circular")]
)
def test_tetrahedral_example_matches_the_s_grid_builder(x, branch):
    # D**(1/12) Psi(V) against the radicals of e**xi built on s = t**(1/3)
    for order in range(65):
        rhs = gf.tetrahedral_example(x, order, branch)[1]
        ref = tetrahedral_rhs_s_grid(x, order, branch)
        assert rhs.order == ref.order == order
        assert mixed_deviation(rhs, ref) <= 1e-13, order


def test_tetrahedral_psi_against_mpmath():
    # Psi(w**3) is the radical Phi(w) = sqrt(sqrt(3)+1) g+(w)**(1/4)
    # + sqrt(sqrt(3)-1) g-(w)**(1/4): its Taylor coefficients at exponents not
    # divisible by 3 vanish, and the others are Psi's within 16 eps
    mpmath = pytest.importorskip("mpmath")
    eps = float(np.finfo(np.longdouble).eps)
    psi = gf._tetra_psi(16)
    assert psi.size == 17 and not psi.flags.writeable
    assert gf._tetra_psi(16) is psi
    with mpmath.workdps(30):
        sqrt3 = mpmath.sqrt(3)

        def phi(w):
            root, half = mpmath.sqrt((1 + w + w * w) / 3), (1 + w) / 2
            return mpmath.sqrt(sqrt3 + 1) * (root + half) ** 0.25 + mpmath.sqrt(sqrt3 - 1) * (root - half) ** 0.25

        ref = mpmath.taylor(phi, 0, 48)
        for j, c in enumerate(ref):
            if j % 3:
                assert abs(c) <= 1e-25, j
            else:
                assert abs(mpmath.mpf(str(psi[j // 3].real)) - c) <= 16 * eps * max(1, abs(c)), j
        assert not psi.imag.any()


def test_graded_collapse_rejects_leftovers():
    frac = TruncatedSeries([1.0, 0.5] + [0.0] * 10)
    with pytest.raises(UncancelledPole):
        gf._collapse_to_t(frac)
    kept = gf._collapse_to_t(TruncatedSeries([1.0, 1e-12, 0.0, 2.0, 0.0, 0.0, 3.0]))
    assert kept.coeffs.tolist() == [1.0, 2.0, 3.0]


# -- substitution table ----------------------------------------------------------------


def test_substitution_rows_reconstruct():
    for row, x in ((1, 2.0), (2, 0.5), (3, 2.0), (4, 0.5), (5, 0.5), (6, 2.0), (7, 0.5), (8, 2.0)):
        sr = gf.substitution_table(x, 0.1, row)
        assert sr.reconstruction_dev <= 1e-10


def test_substitution_row_domains():
    with pytest.raises(DomainMismatch):
        gf.substitution_table(0.5, 0.1, 1)  # needs |x| > 1
    with pytest.raises(DomainMismatch):
        gf.substitution_table(2.0, 0.1, 4)  # needs |x| < 1
    # rows 3 and 4 divide by 1 - R - xt, rows 7 and 8 by t sqrt|x**2 - 1|
    for x, row in ((2.0, 3), (0.5, 4), (0.5, 7), (2.0, 8)):
        with pytest.raises(DomainMismatch, match="needs t != 0"):
            gf.substitution_table(x, 0.0, row)


def test_substitution_limits_and_modulus():
    # rows 1-2 tend to exp(0) = 1 as t -> 0
    for row, x in ((1, 2.0), (2, 0.5)):
        v = gf.substitution_table(x, 1e-12, row).exp_value
        assert abs(v - 1.0) <= 1e-10
    # row 2 produces a unit-modulus exponential
    v = gf.substitution_table(0.5, 0.1, 2).exp_value
    assert abs(abs(v) - 1.0) <= 1e-12


# -- extended families -------------------------------------------------------------------


def test_extended_first_gf():
    for u in (0.0, 0.4, 1.0, 0.7 + 0.2j):
        assert_pair(gf.extended_first_gf(0.25, -1.0 / 12.0, u, 2.0, 12, "a"), 1e-8)
        assert_pair(gf.extended_first_gf(0.25, -1.0 / 12.0, u, 2.0, 12, "b"), 1e-8)


def test_extended_first_u_degenerations():
    # u = 1 reduces to the unextended identity
    lam, g, x, order = 1.0 / 6.0, 0.3, 1.5, 14
    lhs1, rhs1 = gf.extended_first_gf(lam, g, 1.0, x, order, "a")
    lhs_base, rhs_base = gf.first_gf(lam, g, x, order, "a")
    assert mixed_deviation(lhs1, lhs_base) <= 1e-9
    assert mixed_deviation(rhs1, rhs_base) <= 1e-9
    # u = 0: unit weights, RHS collapses to R^(-2 lam)
    lhs0, rhs0 = gf.extended_first_gf(lam, g, 0.0, x, order, "a")
    assert mixed_deviation(lhs0, TruncatedSeries(gegenbauer_recurrence(lam, order, x))) <= 1e-12
    assert mixed_deviation(rhs0, TruncatedSeries(gegenbauer_recurrence(lam, order, x))) <= 1e-12


def test_extended_rewrite():
    assert_pair(gf.extended_rewrite(-1.0 / 6.0, 0.25, 0.5, 2.0, 12, "a"), 1e-8)
    assert_pair(gf.extended_rewrite(0.0, 0.25, 0.4, 0.6, 12, "a"), 1e-8)
    assert_pair(gf.extended_rewrite(-0.25, 1.0 / 3.0, 0.4, 1.5, 12, "b"), 1e-8)
    # u = 1 reproduces the unextended rewrite
    _, rhs = gf.extended_rewrite(-1.0 / 6.0, 0.25, 1.0, 2.0, 12, "a")
    assert mixed_deviation(rhs, gf.first_rewrite(-1.0 / 6.0, 0.25, 2.0, 12, "a")[1]) <= 1e-9


def test_extended_miller():
    assert_pair(gf.extended_miller(1.0 / 6.0, 2, 0.3, 1.5, 12, "plus"))
    assert_pair(gf.extended_miller(0.25, 0, 0.6, 2.0, 12, "minus"))
    # u = 1 reduction to the finite-sum identities
    for which, base in (("plus", "g1"), ("minus", "g2")):
        lhs, rhs = gf.extended_miller(0.25, 2, 1.0, 1.5, 12, which)
        bl, br = gf.miller_identities(0.25, 2, 1.5, 12, base)
        assert mixed_deviation(lhs, bl) <= 1e-10
        assert mixed_deviation(rhs, br) <= 1e-10
    # exact termination of the u = 1 weights beyond N
    lhs, _ = gf.extended_miller(0.25, 3, 1.0, 1.3, 16, "plus")
    assert max(abs(complex(c)) for c in lhs.coeffs[4:]) <= 1e-14


@pytest.mark.parametrize("big_n", range(4))
def test_pfaff_weights_against_mpmath(big_n):
    # c - b = -N: w_n = 2F1(-n, c + N; c; u), within 64 eps of 40-digit mpmath
    # on the scale |1-u|**n sum_k |t_k| of the Pfaff sum's terms t_k
    mpmath = pytest.importorskip("mpmath")
    eps = float(np.finfo(np.longdouble).eps)
    with mpmath.workdps(40):
        for lam in (1.0 / 6.0, 0.25, 1.5):
            c = mpmath.mpf(2.0 * lam)
            for u in (0.0, 0.3, 0.6, 2.0, 0.7 + 0.2j, 1e-9, 0.999999):
                w = gf._weights_2f1_terminating(2.0 * lam + big_n, 2.0 * lam, u, 64)
                um = mpmath.mpc(u)
                v = um / (um - 1)
                for n in (*range(8), 16, 31, 32, 48, 63, 64):
                    term, size = mpmath.mpf(1), mpmath.mpf(1)
                    for k in range(1, min(n, big_n) + 1):
                        term *= (k - 1 - n) * (k - 1 - big_n) / ((c + k - 1) * k) * v
                        size += abs(term)
                    scale = abs(1 - um) ** n * size
                    got = mpmath.mpc(mpmath.mpf(str(w[n].real)), mpmath.mpf(str(w[n].imag)))
                    ref = mpmath.hyp2f1(-n, c + big_n, c, um)
                    assert abs(got - ref) <= 64 * eps * scale, (lam, u, n)


def test_weights_next_to_an_integer_c_minus_b_take_the_recurrence(monkeypatch):
    # c - b = -2 + 1e-12 is no integer: the weights come from the contiguous
    # recurrence, not Pfaff's sum, and lie within the parameter shift of the
    # Pfaff weights at c - b = -2
    lam, u = 0.25, 0.6
    exact = gf._weights_2f1_terminating(2.0 * lam + 2.0, 2.0 * lam, u, 32)

    def refuse(*_):
        raise AssertionError("Pfaff's sum taken")

    monkeypatch.setattr(gf, "pfq_terminating_all", refuse)
    near = gf._weights_2f1_terminating(2.0 * lam + 2.0 - 1e-12, 2.0 * lam, u, 32)
    assert np.max(np.abs(near - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-10


def test_lemma_key_check():
    assert_pair(gf.lemma_key_check(0.25, (7.0 / 12.0,), (0.5,), 0.6, 1.5, 10), 1e-8)
    assert_pair(gf.lemma_key_check(0.25, (0.3, 0.2), (0.5, 0.75), 0.6, 1.5, 10), 1e-8)
    # u = 0: both sides equal the ordinary generating function
    lhs, rhs = gf.lemma_key_check(0.25, (0.3,), (0.5,), 0.0, 1.5, 10)
    ord_gf = TruncatedSeries(gegenbauer_recurrence(0.25, 10, 1.5))
    assert mixed_deviation(lhs, ord_gf) <= 1e-12
    assert mixed_deviation(rhs, ord_gf) <= 1e-12
    with pytest.raises(ValueError):
        gf.lemma_key_check(0.25, (), (0.5,), 0.3, 1.5, 8)


@pytest.mark.parametrize("lam", (0.0, -0.5, -1.0))
def test_lemma_key_check_rejects_excluded_lambda(lam):
    # 2 lam a non-positive integer: C_n^lam degenerates, as in every other builder
    with pytest.raises(InvalidLambda):
        gf.lemma_key_check(lam, (0.3,), (0.5,), 0.6, 1.5, 8)


_LEMMA_CASES = (
    (0.25, (7.0 / 12.0,), (0.5,)),
    (1.7, (0.3, 0.2), (0.5, 0.75)),
    (-0.3, (0.3,), (0.5, 1.6 + 0.1j)),
    (0.25, (-3.0, 0.2), (0.75,)),
)


@pytest.mark.parametrize("order", (0, 1, 2, 5, 17, 64, 90))
def test_lemma_key_check_bitwise_matches_full_width_sum(order):
    # The rows H_n(wq, q**2) = q**n C_n(w) are formed on their valuation
    # windows, which drop only products with an exact-zero factor: each row,
    # and the right side summed from them, must match the full-width series
    # recurrence in value and zero sign.  x = 0 gives val(wq) = 2.
    for lam, c, d in _LEMMA_CASES:
        for u in (0.0, -0.0, 0.6, 0.7 + 0.2j):
            for x in (1.5, 0.6, 0.0, 0.3 + 0.4j):
                r2 = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order)
                rinv = pow_alpha(r2, -0.5)
                w = TruncatedSeries.from_polynomial([x, -1.0], order) * rinv
                q = TruncatedSeries.from_polynomial([0.0, 1.0], order) * rinv * (-u)
                ref = homogeneous_rows(lam, order, w * q, q * q)
                for got, want in zip(gegenbauer_homogeneous_rows(lam, order, w * q, q * q), ref, strict=True):
                    assert_bitwise(TruncatedSeries(got), want)
                acc = TruncatedSeries.from_constant(0.0, order)
                for cn, row in zip(pochhammer_ratios(c, d, order), ref):
                    acc = acc + row * cn
                _, rhs = gf.lemma_key_check(lam, c, d, u, x, order)
                assert_bitwise(rhs, pow_alpha(r2, -lam) * acc)


# -- second family ---------------------------------------------------------------------


def test_second_gf():
    assert_pair(gf.second_gf(1.0 / 6.0, 0.5, 0.4, 14, "a"))
    assert_pair(gf.second_gf(0.5, 0.3, 0.3, 14, "b"))
    # gamma = -2, lam = 1/2: terminating case
    assert_pair(gf.second_gf(0.5, -2.0, 1.5, 14, "a"))
    lhs, _ = gf.second_gf(0.5, -2.0, 1.5, 14, "a")
    assert max(abs(complex(c)) for c in lhs.coeffs[5:]) <= 1e-14


def test_second_gf_variant_coherence():
    for lam, g, x in ((0.25, -1.0 / 12.0, 0.3), (2.0, 1.1, 0.45), (0.5, 0.3, 0.6)):
        _, a = gf.second_gf(lam, g, x, 16, "a")
        _, b = gf.second_gf(lam, g, x, 16, "b")
        assert mixed_deviation(a, b) <= 1e-9


def test_extended_second_gf():
    assert_pair(gf.extended_second_gf(0.5, 0.3, 1.0, 0.6, 12, "a"))
    assert_pair(gf.extended_second_gf(0.25, 0.25 + 1.0 / 3.0, 0.4, 1.5, 12, "a"), 1e-8)
    assert_pair(gf.extended_second_gf(0.25, 0.25 + 1.0 / 3.0, 0.4, 1.5, 12, "b"), 1e-8)
    # u = 0 degenerates to the ordinary generating function
    lhs, rhs = gf.extended_second_gf(0.25, 0.3, 0.0, 1.5, 12, "a")
    ord_gf = TruncatedSeries(gegenbauer_recurrence(0.25, 12, 1.5))
    assert mixed_deviation(lhs, ord_gf) <= 1e-12
    assert mixed_deviation(rhs, ord_gf) <= 1e-12


def test_second_rewrite():
    assert_pair(gf.second_rewrite(-1.0 / 6.0, 0.25, 0.5, 12, "a"), 1e-8)
    assert_pair(gf.second_rewrite(-0.2, 0.2, 0.5, 12, "a"), 1e-8)
    assert_pair(gf.second_rewrite(0.0, 0.25, 0.5, 12, "b"), 1e-8)
    # degree reflection leaves the product unchanged
    _, a = gf.second_rewrite(-1.0 / 6.0, 0.25, 0.5, 12, "a")
    _, b = gf.second_rewrite(1.0 / 6.0 - 1.0, 0.25, 0.5, 12, "a")
    assert mixed_deviation(a, b) <= 1e-15


# -- algebraicity -------------------------------------------------------------------------


def test_algebraicity_clauses():
    cases = [
        (0.25, -1.0 / 12.0, 1),
        (1.0 / 6.0, -1.0 / 12.0, 2),
        (0.5, 0.3, None),
        # integer-shifted and negative cases of both clauses
        (0.25 - 3.0, -1.0 / 12.0 + 2.0, 1),
        (-0.25, -0.25 + 1.0 / 3.0, 1),
        (-0.75, -0.75 - 1.0 / 3.0 - 2.0, 1),
        (1.0 / 6.0 - 2.0, 1.0 / 6.0 + 4.0 / 3.0, 2),  # gamma - lam in Z±1/3
        (-1.0 / 6.0, -0.5, 2),
        (-1.0 / 6.0, 1.0 / 12.0, 2),  # gamma - lam in Z±1/4
        (1.0 / 6.0 + 1.0, 1.0 / 6.0 + 1.0 - 4.25, 2),
        (-5.0 / 6.0, -5.0 / 6.0 + 0.75, 2),
        (-0.25, 0.0, None),  # lam in Z±1/4 needs gamma - lam in Z±1/3
        (-7.0 / 6.0, -2.0 / 3.0, None),
    ]
    for lam, gamma, clause in cases:
        v = gf.algebraicity(lam, gamma)
        assert v.algebraic is (clause is not None), (lam, gamma)
        assert v.clause == clause, (lam, gamma)


def test_algebraicity_shift_invariance():
    for lam, gamma in ((0.25, -1.0 / 12.0), (1.0 / 6.0, -1.0 / 12.0), (0.5, 0.3)):
        base = gf.algebraicity(lam, gamma)
        for k in (-2, 1, 3):
            for m in (-1, 0, 2):
                v = gf.algebraicity(lam + k, gamma + k + m)
                assert v.algebraic == base.algebraic
                assert v.clause == base.clause


# -- a wrong relation fails ----------------------------------------------------------

_GAUSS_IDS = ("gf1.a", "gf1.b", "gf1x.a", "gf1x.b", "gf2.a", "gf2.b", "gf2x.a", "gf2x.b")
_REWRITE_IDS = (
    "gf1.rewrite.a", "gf1.rewrite.b", "gf1x.rewrite.a", "gf1x.rewrite.b", "gf2.rewrite.a", "gf2.rewrite.b",
)


def _shift_result(fn, i, by=1e-6):
    return lambda *a: tuple(v + by if k == i else v for k, v in enumerate(fn(*a)))


def _shift_argument(fn, i):
    return lambda *a: fn(*(v + 1e-6 if k == i else v for k, v in enumerate(a)))


def _shift_result_by_one(fn, i):
    return _shift_result(fn, i, 1.0)


def _shift_numerator_by_one(fn, i):
    """Weights (numerators, denominators) with numerator i shifted by 1."""

    def shifted(*a):
        numerators, denominators = fn(*a)
        return tuple(v + 1.0 if k == i else v for k, v in enumerate(numerators)), denominators

    return shifted


def _shift_linear_base_exponent(fn, _):
    """pow_alpha with alpha + 1e-6 on a base 1 + c t: a prefactor exponent."""

    def shifted(a, alpha):
        c = a.coeffs
        return fn(a, alpha + 1e-6 if c[0] == 1 and not c[2:].any() else alpha)

    return shifted


def _negate_x(fn, _):
    return lambda x, order: fn(-x, order)


@pytest.mark.parametrize(
    "name, shift, index, failing",
    [
        # the second family's weights read the "a" triple, so its rewrites fail too
        ("_gauss_triple", _shift_result, 1, _GAUSS_IDS + ("gf2.rewrite.a", "gf2.rewrite.b")),
        ("_gauss_triple", _shift_result, 2, _GAUSS_IDS + ("gf2.rewrite.a", "gf2.rewrite.b")),
        ("_rewrite_params", _shift_result, 0, _REWRITE_IDS),
        ("_rewrite_params", _shift_result, 1, _REWRITE_IDS),
        ("_miller_gammas", _shift_result, 0, ("miller.g1", "miller.g2", "millerx.plus", "millerx.minus")),
        ("_miller_gammas", _shift_result, 1, ("millerx.plus", "millerx.minus")),
        # right-side ingredients only, so the shift cannot cancel between the sides
        ("gauss_2f1_series", _shift_argument, 2, _GAUSS_IDS + _REWRITE_IDS),
        ("_legendre_triple", _shift_result, 0, _REWRITE_IDS),
        ("_legendre_triple", _shift_result, 1, _REWRITE_IDS),
        ("_legendre_triple", _shift_result, 2, _REWRITE_IDS),
        # an integer shift by 1: Miller's gamma, and the alternative weights' numerator
        ("_miller_gammas", _shift_result_by_one, 0, ("miller.g1", "miller.g2", "millerx.plus", "millerx.minus")),
        ("_alt_weights", _shift_numerator_by_one, 0, ("alt.1", "alt.2")),
        # a prefactor exponent, such as -2a in (1-xt)**(-2a); the octahedral b = 1 - (x - sqrt(x**2-1))t
        # is a linear base too, and octa.c14 reads 5.9e-7 (59 tol) at x = 1.3
        ("pow_alpha", _shift_linear_base_exponent, None,
         ("gf1.b", "gf1.rewrite.b", "gf1x.b", "gf1x.rewrite.b", "gf2.b", "gf2.rewrite.b", "octa.c14")),
        # the sign of x in 1 - xt, which the tetrahedral D = 1 - xt + R reads too
        ("_one_minus_xt", _negate_x, None,
         ("gf1.a", "gf1.b", "gf1.rewrite.a", "gf1.rewrite.b", "miller.g1", "miller.g2",
          "tetra.c16.hyp", "tetra.c16.circ")),
    ],
    ids=[
        "gauss_triple-b", "gauss_triple-c", "rewrite_params-lam", "rewrite_params-gamma",
        "miller_gammas-first", "miller_gammas-second", "gauss_2f1_series-c",
        "legendre_triple-a", "legendre_triple-b", "legendre_triple-c",
        "miller_gammas-first-by-one", "alt_weights-numerator-by-one", "pow_alpha-linear-base-exponent",
        "one_minus_xt-negated-x",
    ],
)
def test_a_shifted_relation_fails_every_id_that_reads_it(monkeypatch, name, shift, index, failing):
    # a 1e-6 error in one relation, an integer shift, a shifted prefactor
    # exponent or a flipped sign of x fails, at the default order and tol,
    # every identity that reads it and no other; the thinnest margin is about
    # 6 tol.  The cached tetrahedral table is cleared on both sides of the
    # run: a patched kernel must neither hide behind it nor leak into it.
    gf._tetra_psi.cache_clear()
    gf._octa_phi.cache_clear()
    monkeypatch.setattr(gf, name, shift(getattr(gf, name), index))
    try:
        reports = [catalog.run_identity(i) for i in catalog.identity_ids()]
    finally:
        gf._tetra_psi.cache_clear()
        gf._octa_phi.cache_clear()
    assert sorted(r.identity_id for r in reports if not r.overall_pass) == sorted(failing)
