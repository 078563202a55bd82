"""Generating-function identities: coefficientwise LHS/RHS agreement, variant
coherence, u-degenerations, termination, substitutions, and the algebraicity test."""

import math
import re

import numpy as np
import pytest
from _bitwise import assert_bitwise

from gegenfun import catalog
from gegenfun import genfun as gf
from gegenfun.errors import DomainMismatch, InvalidLambda, UncancelledPole
from gegenfun.gegenbauer import gegenbauer_recurrence
from gegenfun.series import DTYPE, TruncatedSeries, mixed_deviation, pow_alpha


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


def _ref_lemma_rhs(lam, numerators, denominators, u, x, order):
    """lemma_key_check's right side as full-width series arithmetic: every
    C_n(w) and q**n at order N + 2, summed term by term, then truncated."""
    wo = order + 2
    r2 = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], wo)
    rinv = pow_alpha(r2, -0.5)
    w = TruncatedSeries.from_polynomial([x, -1.0], wo) * rinv
    qfac = TruncatedSeries.from_polynomial([0, 1], wo) * rinv * (-u)
    fam = [TruncatedSeries.from_constant(1.0, wo), 2.0 * lam * w]
    for n in range(2, order + 1):
        nxt = (2.0 * (n + lam - 1.0)) * (w * fam[n - 1]) - (n + 2.0 * lam - 2.0) * fam[n - 2]
        fam.append(nxt / n)
    acc = TruncatedSeries.from_constant(0.0, wo)
    qn = TruncatedSeries.from_constant(1.0, wo)
    coeff = DTYPE(1)
    for n in range(order + 1):
        if n:
            for c in numerators:
                coeff *= DTYPE(c) + (n - 1)
            for d in denominators:
                coeff /= DTYPE(d) + (n - 1)
            qn = qn * qfac
        acc = acc + coeff * (fam[n] * qn)
    return TruncatedSeries((pow_alpha(r2, -lam) * acc).coeffs[: order + 1])


_LEMMA_CASES = (
    (0.25, (7.0 / 12.0,), (0.5,)),
    (1.7, (0.3, 0.2), (0.5, 0.75)),
    (-0.3, (0.3,), (0.5, 1.6 + 0.1j)),
    (0.25, (-3.0, 0.2), (0.75,)),
)


@pytest.mark.parametrize("order", (0, 1, 2, 5, 17, 64, 90))
def test_lemma_key_check_bitwise_matches_full_width_sum(order):
    # The windowed sum drops only products with an exact-zero factor, so each
    # coefficient and zero sign must match the full-width series loop.
    for lam, c, d in _LEMMA_CASES:
        for u in (0.0, -0.0, 0.6, 0.7 + 0.2j):
            for x in (1.5, 0.3 + 0.4j):
                _, rhs = gf.lemma_key_check(lam, c, d, u, x, order)
                assert_bitwise(rhs, _ref_lemma_rhs(lam, c, d, u, x, order))


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


def _shift_result(fn, i):
    return lambda *a: tuple(v + 1e-6 if k == i else v for k, v in enumerate(fn(*a)))


def _shift_argument(fn, i):
    return lambda *a: fn(*(v + 1e-6 if k == i else v for k, v in enumerate(a)))


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
        ("gauss_2f1_series", _shift_argument, 2, _GAUSS_IDS),
        ("legendre_analytic_series", _shift_argument, 1, _REWRITE_IDS),
    ],
    ids=[
        "gauss_triple-b", "gauss_triple-c", "rewrite_params-lam", "rewrite_params-gamma",
        "miller_gammas-first", "miller_gammas-second", "gauss_2f1_series-c", "legendre_analytic_series-mu",
    ],
)
def test_a_shifted_relation_fails_every_id_that_reads_it(monkeypatch, name, shift, index, failing):
    # a 1e-6 error in one relation fails, at the default order and tol, every
    # identity that reads it and no other; the thinnest margin is about 6 tol
    monkeypatch.setattr(gf, name, shift(getattr(gf, name), index))
    reports = [catalog.run_identity(i) for i in catalog.identity_ids()]
    assert sorted(r.identity_id for r in reports if not r.overall_pass) == sorted(failing)
