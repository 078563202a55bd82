"""Legendre/Ferrers closed forms vs the hypergeometric definition, the case
classifier, degree symmetry, and small-argument normalization."""

import math
import re

import numpy as np
import pytest
from _oracles import leading_asymptotic
from numpy.polynomial.polynomial import polyval

from gegenfun.errors import ArgumentOutOfDomain, InvalidMu, OrderIsPositiveInteger, OutOfRange
from gegenfun.legendre import (
    Branch,
    CaseTag,
    _conjugate_brackets,
    _radicals,
    classify,
    closed_form,
    cyclic_case,
    dihedral_case,
    legendre_p_hypergeometric,
    octahedral_p,
    reducible_case,
    tetrahedral_p,
)
from gegenfun.genfun import _legendre_triple
from gegenfun.hypergeometric import gauss_2f1_series
from gegenfun.series import TruncatedSeries, mixed_deviation, pow_alpha

L, F = Branch.LEGENDRE, Branch.FERRERS


# -- classifier -----------------------------------------------------------------


@pytest.mark.parametrize(
    "nu,mu,tag",
    [
        (-1.0 / 6.0, 0.25, CaseTag.OCTAHEDRAL),
        (5.0 / 6.0, -0.75, CaseTag.OCTAHEDRAL),
        (3.0, 1.0 / 7.0, CaseTag.QUASI_CYCLIC),
        (-0.25, 1.0 / 3.0, CaseTag.TETRAHEDRAL_A),
        (-1.0 / 6.0, 1.0 / 3.0, CaseTag.TETRAHEDRAL_B),
        (1.75, 0.25, CaseTag.REDUCIBLE),
        (0.3, 0.5, CaseTag.QUASI_DIHEDRAL),
        (0.2, 0.1, CaseTag.GENERIC),
        # integer-shifted and negative members of every tag
        (-1.0 / 6.0 - 3.0, 0.25 + 2.0, CaseTag.OCTAHEDRAL),
        (-1.0 / 6.0 + 2.0, -1.25, CaseTag.OCTAHEDRAL),
        (-3.0, 1.0 / 7.0 - 2.0, CaseTag.QUASI_CYCLIC),
        (2.0, -1.0 / 7.0, CaseTag.QUASI_CYCLIC),
        (-0.25 + 3.0, 1.0 / 3.0 - 2.0, CaseTag.TETRAHEDRAL_A),
        (-2.25, -1.0 / 3.0, CaseTag.TETRAHEDRAL_A),
        (-1.0 / 6.0 - 2.0, 1.0 / 3.0 + 1.0, CaseTag.TETRAHEDRAL_B),
        (5.0 / 6.0 - 4.0, -2.0 / 3.0, CaseTag.TETRAHEDRAL_B),
        (1.75 - 3.0, 0.25 + 3.0, CaseTag.REDUCIBLE),
        (2.3, -0.3, CaseTag.REDUCIBLE),
        (-2.5, -1.5, CaseTag.REDUCIBLE),
        (0.3 + 2.0, 0.5 - 3.0, CaseTag.QUASI_DIHEDRAL),
        (-1.3, 1.5, CaseTag.QUASI_DIHEDRAL),
        (0.2 - 3.0, 0.1 + 2.0, CaseTag.GENERIC),
        (-0.2, -0.1, CaseTag.GENERIC),
    ],
)
def test_classify_primary(nu, mu, tag):
    assert classify(nu, mu).primary is tag


def test_classify_reflection_and_shift_invariance():
    pairs = [(-1.0 / 6.0, 0.25), (-0.25, 1.0 / 3.0), (-1.0 / 6.0, 1.0 / 3.0), (0.2, 0.1)]
    for nu, mu in pairs:
        base = classify(nu, mu).primary
        assert classify(-nu - 1.0, mu).primary is base
        for dn, dm in ((1, 0), (0, 1), (-2, 3), (4, -1)):
            assert classify(nu + dn, mu + dm).primary is base, (nu, mu, dn, dm)


def test_classify_reports_all_matches():
    # integer (nu, mu) matches the reducible, cyclic, ... precedence chain
    cls = classify(3.0, 2.0)
    assert cls.primary is CaseTag.REDUCIBLE
    assert CaseTag.QUASI_CYCLIC in cls.matches
    # half-odd order with reducible overlap
    cls = classify(0.5, 0.5)
    assert cls.primary is CaseTag.REDUCIBLE
    assert CaseTag.QUASI_DIHEDRAL in cls.matches


# -- hypergeometric oracle --------------------------------------------------------


def test_oracle_trivials_and_domain():
    assert abs(legendre_p_hypergeometric(0.0, 0.0, 1.5) - 1.0) <= 1e-14
    with pytest.raises(OrderIsPositiveInteger):
        legendre_p_hypergeometric(0.3, 1.0, 1.5)
    with pytest.raises(ArgumentOutOfDomain):
        legendre_p_hypergeometric(0.3, 0.25, 0.5, L)
    with pytest.raises(ArgumentOutOfDomain):
        legendre_p_hypergeometric(0.3, 0.25, 1.5, F)


def test_oracle_refuses_a_parameter_that_lost_its_fractional_part():
    # the exact residues of nu and mu put nu + mu in Z + 1/4, but -nu - mu or
    # 1 + nu - mu rounds to an integer in double, which would be summed as a
    # terminating series
    for nu, mu, name, frac in (
        (1e16, 0.25, "-nu - mu", "-0.25"),
        (-1e16, 0.25, "-nu - mu", "-0.25"),
        (2.0**51 + 0.5, -0.75, "1 + nu - mu", "+0.25"),
    ):
        with pytest.raises(OutOfRange, match=rf"{re.escape(name)} rounds to the integer .*fractional part {re.escape(frac)}$"):
            legendre_p_hypergeometric(nu, mu, 1.5)


def test_oracle_cyclic_known_value():
    # P(0, mu) at coth(xi) equals exp(mu xi)/Gamma(1-mu)
    z = 1.0 / math.tanh(1.0)
    got = legendre_p_hypergeometric(0.0, 0.25, z)
    assert abs(got - math.exp(0.25) / math.gamma(0.75)) <= 1e-13


def test_degree_symmetry():
    for nu, mu, z, branch in [
        (0.3, 0.2, 1.4, L),
        (-1.0 / 6.0, 0.25, 2.0, L),
        (0.7, -0.3, 0.4, F),
        (1.2, 1.0 / 3.0, -0.5, F),
    ]:
        a = legendre_p_hypergeometric(nu, mu, z, branch)
        b = legendre_p_hypergeometric(-nu - 1.0, mu, z, branch)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_ferrers_outputs_real():
    for nu, mu in [(0.3, 0.2), (-1.0 / 6.0, 0.25), (-0.25, 1.0 / 3.0)]:
        for z in (-0.8, -0.2, 0.0, 0.5, 0.9):
            v = legendre_p_hypergeometric(nu, mu, z, F)
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))


# -- closed forms vs oracle --------------------------------------------------------


def _grid_rel(pairs):
    return max(abs(a - b) / max(abs(b), 1e-300) for a, b in pairs)


def test_reducible_case_vs_oracle():
    dev = _grid_rel(
        [
            (reducible_case(0.25, 2, z, L), legendre_p_hypergeometric(1.75, 0.25, z, L))
            for z in np.linspace(1.2, 2.8, 10)
        ]
    )
    assert dev <= 1e-9
    dev = _grid_rel(
        [
            (reducible_case(-0.5, 1, z, F), legendre_p_hypergeometric(1.5, -0.5, z, F))
            for z in np.linspace(-0.8, 0.8, 10)
        ]
    )
    assert dev <= 1e-9
    # N = 0 collapses to the prefactor
    mu, z = 0.2, 2.0
    v = reducible_case(mu, 0, z, L)
    expected = 2.0**mu / math.gamma(1.0 - mu) * (z * z - 1.0) ** (-mu / 2.0)
    assert abs(v - expected) <= 1e-14
    with pytest.raises(InvalidMu):
        reducible_case(0.5, 1, 1.5, L)


@pytest.mark.parametrize("mu, big_n, z", [(0.0, 200, 1.001), (0.25, 2, 1.5)])
def test_reducible_case_against_mpmath(mu, big_n, z):
    # N!/(1-2mu)_N is a running product of term ratios, so N = 200, whose N!
    # exceeds double, is served; (0.25, 2) is the catalog's reducible-L pair
    mpmath = pytest.importorskip("mpmath")
    got = reducible_case(mu, big_n, z, L)
    with mpmath.workdps(40):
        ref = complex(mpmath.legenp(big_n - mpmath.mpf(mu), mu, mpmath.mpf(z), type=3))
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_cyclic_case_vs_oracle_and_zform():
    for mu in (1.0 / 3.0, 0.25, -0.25):
        for xi in np.linspace(0.3, 2.5, 10):
            a = cyclic_case(mu, xi, L)
            b = legendre_p_hypergeometric(0.0, mu, 1.0 / math.tanh(xi), L)
            assert abs(a - b) <= 1e-9 * abs(b)
            z = 1.0 / math.tanh(xi)
            assert abs(((z + 1.0) / (z - 1.0)) ** (mu / 2.0) / math.gamma(1.0 - mu) - a) <= 1e-12 * abs(a)
        for xi in np.linspace(-1.5, 1.5, 10):
            a = cyclic_case(mu, xi, F)
            b = legendre_p_hypergeometric(0.0, mu, math.tanh(xi), F)
            assert abs(a - b) <= 1e-9 * abs(b)
            z = math.tanh(xi)
            assert abs(((1.0 + z) / (1.0 - z)) ** (mu / 2.0) / math.gamma(1.0 - mu) - a) <= 1e-12 * abs(a)
    assert cyclic_case(0.0, 0.7, L) == 1.0


def test_dihedral_case_vs_oracle():
    for nu in (-0.5, 1.0 / 6.0, 0.0, 0.3):
        for xi in np.linspace(0.2, 2.0, 10):
            a = dihedral_case(nu, xi, L)
            b = legendre_p_hypergeometric(nu, 0.5, math.cosh(xi), L)
            assert abs(a - b) <= 1e-9 * abs(b)
        for th in np.linspace(0.3, 2.8, 10):
            a = dihedral_case(nu, th, F)
            b = legendre_p_hypergeometric(nu, 0.5, math.cos(th), F)
            assert abs(a - b) <= 1e-9 * max(abs(b), 1e-3)
    # Ferrers value at theta = pi/2, nu = 0
    assert abs(
        dihedral_case(0.0, math.pi / 2, F) - math.sqrt(2.0 / math.pi) * math.cos(math.pi / 4)
    ) <= 1e-14


def test_octahedral_radicals():
    # xi -> 0+: bracket -> 2, so h+ ~ (sinh xi)^(-1/4) 2^(1/4)
    xi = 1e-4
    ratio = _radicals(math.sinh, math.cosh, xi, invert=True)[0] / (math.sinh(xi) ** -0.25 * 2.0**0.25)
    assert abs(ratio - 1.0) <= 1e-4
    # h- obeys the xi**2 power law: h-^4 sinh(xi) / xi^2 is asymptotically constant
    c3 = _radicals(math.sinh, math.cosh, 1e-3, invert=True)[1] ** 4 * math.sinh(1e-3) / 1e-6
    c4 = _radicals(math.sinh, math.cosh, 1e-4, invert=True)[1] ** 4 * math.sinh(1e-4) / 1e-8
    assert abs(c3 / c4 - 1.0) <= 1e-2
    # k+ at theta = pi/2
    expected = (math.sqrt(3.0) / 2.0 + math.sqrt(2.0 / 3.0)) ** 0.25
    assert abs(_radicals(math.sin, math.cos, math.pi / 2, invert=True)[0] - expected) <= 1e-14


def test_octahedral_p_vs_oracle():
    for sign in (+1, -1):
        for xi in np.linspace(0.2, 2.0, 10):
            a = octahedral_p(sign, xi, L)
            b = legendre_p_hypergeometric(-1.0 / 6.0, sign * 0.25, math.cosh(xi), L)
            assert abs(a - b) <= 1e-9 * abs(b), (sign, xi)
        for th in np.linspace(0.3, 2.8, 10):
            a = octahedral_p(sign, th, F)
            b = legendre_p_hypergeometric(-1.0 / 6.0, sign * 0.25, math.cos(th), F)
            assert abs(a - b) <= 1e-9 * abs(b), (sign, th)


def test_tetrahedral_radicals():
    # g±(tanh 0) = 3^(-1/8)
    for g in _radicals(math.cosh, math.sinh, 0.0, invert=False):
        assert abs(g - 3.0**-0.125) <= 1e-14
    # f+^4 f-^4 = sinh(xi)^2 (product of brackets) = sinh(xi)^2 sinh(xi/3)^2 / 3
    xi = 1.0
    f_plus, f_minus = _radicals(math.sinh, math.cosh, xi, invert=False)
    prod = f_plus**4 * f_minus**4
    assert abs(prod - math.sinh(xi) ** 2 * math.sinh(xi / 3.0) ** 2 / 3.0) <= 1e-13


# The four radicals and their compositions as they were written before the
# radicals were folded into one helper; octahedral_p and tetrahedral_p must
# match them bit for bit.


def _ref_octahedral_h(sign, xi):
    plus, minus = _conjugate_brackets(math.sinh, math.cosh, xi)
    return ((plus if sign > 0 else minus) / math.sinh(xi)) ** 0.25


def _ref_octahedral_k(sign, theta):
    big, small = _conjugate_brackets(math.sin, math.cos, theta)
    return ((big if sign > 0 else small) / math.sin(theta)) ** 0.25


def _ref_tetrahedral_f(sign, xi):
    plus, minus = _conjugate_brackets(math.sinh, math.cosh, xi)
    return (math.sinh(xi) * (plus if sign > 0 else minus)) ** 0.25


def _ref_tetrahedral_g(sign, xi):
    plus, minus = _conjugate_brackets(math.cosh, math.sinh, xi)
    return (math.cosh(xi) * (plus if sign > 0 else minus)) ** 0.25


def _ref_octahedral_p(sign, arg, branch):
    radical = _ref_octahedral_h(sign, arg) if branch is L else _ref_octahedral_k(sign, arg)
    if sign > 0:
        return radical / math.gamma(0.75)
    return 3.0**0.75 / math.gamma(1.25) * radical


def _ref_tetrahedral_p(sign, arg, branch):
    r3 = math.sqrt(3.0)
    rad = _ref_tetrahedral_f if branch is L else _ref_tetrahedral_g
    if sign > 0:
        scale = 2.0**-0.25 * 3.0**-0.375 / math.gamma(2.0 / 3.0)
        return scale * (math.sqrt(r3 + 1.0) * rad(+1, arg) + math.sqrt(r3 - 1.0) * rad(-1, arg))
    scale = 2.0**1.25 * 3.0**-0.375 / math.gamma(4.0 / 3.0)
    ca, cb = math.sqrt(r3 - 1.0), math.sqrt(r3 + 1.0)
    if branch is L:
        return scale * (ca * rad(+1, arg) - cb * rad(-1, arg))
    return scale * (-ca * rad(+1, arg) + cb * rad(-1, arg))


def test_algebraic_closed_forms_match_references_bitwise():
    rng = np.random.default_rng(2)
    hyperbolic = np.concatenate([rng.uniform(0.0, 700.0, 1000), 10.0 ** rng.uniform(-300, 2.8, 1000)])
    cases = [
        (octahedral_p, _ref_octahedral_p, L, hyperbolic),
        (octahedral_p, _ref_octahedral_p, F, rng.uniform(1e-300, math.pi, 2000)),
        (tetrahedral_p, _ref_tetrahedral_p, L, hyperbolic),
        (tetrahedral_p, _ref_tetrahedral_p, F, np.concatenate([rng.uniform(-700.0, 700.0, 1000),
                                                               rng.uniform(-1.0, 1.0, 1000),
                                                               [0.0, -0.0, 5e-324, -5e-324]])),
    ]
    for form, ref, branch, args in cases:
        for arg in args.tolist():
            for sign in (+1, -1):
                got, want = form(sign, arg, branch), ref(sign, arg, branch)
                assert got.hex() == want.hex(), (form.__name__, branch, sign, arg)


# Reference brackets, one function per (f, g) pair of _conjugate_brackets.


def _ref_cosh(xi):
    s = math.sqrt(math.sinh(xi) / (3.0 * math.sinh(xi / 3.0)))
    plus = math.cosh(xi / 3.0) + s
    return plus, (math.sinh(xi / 3.0) ** 2 / 3.0) / plus


def _ref_cos(theta):
    s = math.sqrt(math.sin(theta) / (3.0 * math.sin(theta / 3.0)))
    big = math.cos(theta / 3.0) + s
    return big, (math.sin(theta / 3.0) ** 2 / 3.0) / big


def _ref_sinh(xi):
    s = math.sqrt(math.cosh(xi) / (3.0 * math.cosh(xi / 3.0)))
    stable = abs(math.sinh(xi / 3.0)) + s
    other = (math.cosh(xi / 3.0) ** 2 / 3.0) / stable
    return (stable, other) if xi >= 0.0 else (other, stable)


def test_conjugate_brackets_match_references_bitwise():
    rng = np.random.default_rng(1)
    cases = [
        (_ref_cosh, math.sinh, math.cosh, np.concatenate([rng.uniform(0.0, 700.0, 4000),
                                                          10.0 ** rng.uniform(-300, 2.8, 4000)])),
        (_ref_cos, math.sin, math.cos, rng.uniform(1e-300, math.pi, 8000)),
        (_ref_sinh, math.cosh, math.sinh, np.concatenate([rng.uniform(-700.0, 700.0, 4000),
                                                          rng.uniform(-1.0, 1.0, 4000),
                                                          [0.0, -0.0, 5e-324, -5e-324]])),
    ]
    for ref, f, g, args in cases:
        for arg in args.tolist():
            got, want = _conjugate_brackets(f, g, arg), ref(arg)
            assert [v.hex() for v in got] == [v.hex() for v in want], (ref.__name__, arg)


def test_tetrahedral_p_vs_oracle():
    for sign in (+1, -1):
        for xi in np.linspace(0.3, 2.0, 10):
            a = tetrahedral_p(sign, xi, L)
            b = legendre_p_hypergeometric(-0.25, sign / 3.0, 1.0 / math.tanh(xi), L)
            assert abs(a - b) <= 1e-9 * abs(b), (sign, xi)
        for xi in np.linspace(-1.5, 1.5, 10):
            a = tetrahedral_p(sign, xi, F)
            b = legendre_p_hypergeometric(-0.25, sign / 3.0, math.tanh(xi), F)
            assert abs(a - b) <= 1e-9 * abs(b), (sign, xi)


def test_asymptotic_normalization():
    # ratio to (2^(mu/2)/Gamma(1-mu)) (z-1)^(-mu/2) tends to 1 as z -> 1+,
    # with |ratio - 1| decreasing along z - 1 in {1e-3, 1e-4, 1e-5}
    def check(evaluate, mu):
        errs = []
        for delta in (1e-3, 1e-4, 1e-5):
            z = 1.0 + delta
            errs.append(abs(evaluate(z) / leading_asymptotic(mu, z) - 1.0))
        assert errs[0] > errs[1] > errs[2], errs
        assert errs[2] <= 1e-4

    check(lambda z: reducible_case(0.25, 2, z, L).real, 0.25)
    check(lambda z: cyclic_case(1.0 / 3.0, math.atanh(1.0 / z), L), 1.0 / 3.0)
    check(lambda z: dihedral_case(1.0 / 6.0, math.acosh(z), L), 0.5)
    check(lambda z: octahedral_p(+1, math.acosh(z), L), 0.25)
    check(lambda z: octahedral_p(-1, math.acosh(z), L), -0.25)
    check(lambda z: tetrahedral_p(+1, math.atanh(1.0 / z), L), 1.0 / 3.0)
    check(lambda z: tetrahedral_p(-1, math.atanh(1.0 / z), L), -1.0 / 3.0)


# -- the dispatcher -------------------------------------------------------------------


@pytest.mark.parametrize(
    "nu,mu,branch,form,z_at",
    [
        (-1.0 / 6.0, 0.25, L, lambda a: octahedral_p(1, a, L), math.cosh),
        (-5.0 / 6.0, -0.25, F, lambda a: octahedral_p(-1, a, F), math.cos),
        (-0.25, -1.0 / 3.0, L, lambda a: tetrahedral_p(-1, a, L), lambda a: 1.0 / math.tanh(a)),
        (-0.75, 1.0 / 3.0, F, lambda a: tetrahedral_p(1, a, F), math.tanh),
        (-1.0, 0.3, L, lambda a: cyclic_case(0.3, a, L), lambda a: 1.0 / math.tanh(a)),
        (0.0, 1.0 / 3.0, F, lambda a: cyclic_case(1.0 / 3.0, a, F), math.tanh),
        # the quasi-dihedral form serves mu = 1/2 at any degree
        (2.5, 0.5, L, lambda a: dihedral_case(2.5, a, L), math.cosh),
        (-1.0 / 6.0 + 1.0, 0.5, F, lambda a: dihedral_case(5.0 / 6.0, a, F), math.cos),
    ],
)
def test_closed_form_dispatch(nu, mu, branch, form, z_at):
    got, got_z = closed_form(nu, mu, branch)
    for a in (0.4, 1.1):
        assert got(a) == form(a)
        assert got_z(a) == z_at(a)


def test_closed_form_precedence():
    # (0, 1/2) is quasi-cyclic and quasi-dihedral; the cyclic form comes first
    assert closed_form(0.0, 0.5, L)[0](0.7) == cyclic_case(0.5, 0.7, L)


@pytest.mark.parametrize(
    "nu,mu",
    [(-1.0 / 6.0, 0.75), (-1.0 / 6.0 + 1.0, 0.25), (-0.25, 4.0 / 3.0), (-0.25 - 2.0, 1.0 / 3.0),
     (-1.0 / 6.0, 1.0 / 3.0), (1.0, 0.3), (1.75, 0.25), (0.2, 0.1)],
)
def test_closed_form_refuses_shifted_and_generic_pairs(nu, mu):
    for branch in (L, F):
        assert closed_form(nu, mu, branch) is None


@pytest.mark.parametrize(
    "nu,mu,big_n",
    [(1.75, 0.25, 2), (1.5, -0.5, 1), (0.2, 1.2, 0), (0.4, 2.4, 1), (-2.75, 0.25, 2), (2.0, -1.0, 1)],
)
def test_closed_form_reducible_degree(nu, mu, big_n):
    for z, branch in ((1.7, L), (0.4, F)):
        form, z_at = closed_form(nu, mu, branch, on_z=True)
        assert form(z) == reducible_case(mu, big_n, z, branch).real
        assert z_at(z) == z


def test_closed_form_on_z_bounds_the_reducible_degree():
    # N = nu + mu above MAX_TERMS is refused before its recurrence allocates
    # N + 1 coefficients; N = MAX_TERMS, or the reflection's N, is served
    for nu, mu in ((1e16, 0.0), (100001.0, 0.0), (-1e16, 0.0)):
        with pytest.raises(OutOfRange, match="reducible degree N = .* exceeds 100000"):
            closed_form(nu, mu, L, on_z=True)
    assert closed_form(100000.0, 0.0, L, on_z=True) is not None


def test_closed_form_on_z_refuses_irreducible_pairs():
    for nu, mu in ((0.3, 0.2), (-1.0 / 6.0, 0.25), (0.2, 0.1)):
        assert closed_form(nu, mu, L, on_z=True) is None


# -- the analytic combination -------------------------------------------------------
# (z**2-1)^(mu/2) P(nu, mu; z) on a series argument with constant term 1, as the
# rewrites form it: the 2F1 of `_legendre_triple` at (1 - z)/2, here with the
# constant 2**mu/Gamma(1-mu) that the rewrites cancel.


def _analytic_combination(nu, mu, z):
    f = gauss_2f1_series(*_legendre_triple(nu, mu, "a"), (1.0 - z) * 0.5)
    return f * (2.0**mu / math.gamma(1.0 - mu))


def test_analytic_combination_constant_argument():
    nu, mu = 0.3, 0.25
    s = _analytic_combination(nu, mu, TruncatedSeries.from_constant(1.0, 6))
    expected = 2.0**mu / math.gamma(1.0 - mu)
    assert abs(complex(s.coeffs[0]) - expected) <= 1e-14
    assert max(abs(complex(c)) for c in s.coeffs[1:]) <= 1e-18


def test_analytic_combination_scalar_oracle():
    # series at z = R + t (x = 2) against the Ferrers-weighted closed form
    # (1-z^2)^(1/8) P(0, 1/4; z) = (1-z^2)^(1/8) e^(xi/4)/Gamma(3/4), z = tanh(xi)
    x, order, t = 2.0, 16, 0.05
    r2 = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order)
    z_series = pow_alpha(r2, 0.5) + TruncatedSeries.from_polynomial([0, 1], order)
    s = _analytic_combination(0.0, 0.25, z_series)
    z_t = (1.0 - 2.0 * x * t + t * t) ** 0.5 + t
    xi = math.atanh(z_t)
    expected = (1.0 - z_t * z_t) ** 0.125 * math.exp(0.25 * xi) / math.gamma(0.75)
    assert abs(polyval(t, s.coeffs) - expected) <= 1e-12


def test_analytic_combination_degree_symmetry():
    x, order = 1.5, 12
    r2 = TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], order)
    z_series = pow_alpha(r2, 0.5) - TruncatedSeries.from_polynomial([0, 1], order)
    a = _analytic_combination(0.3, 0.2, z_series)
    b = _analytic_combination(-1.3, 0.2, z_series)
    assert mixed_deviation(a, b) <= 1e-15
