"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math

import numpy as np
from _oracles import bilinear_tail_bound, leading_asymptotic

from gegenfun import catalog
from gegenfun import genfun as gf
from gegenfun import legendre as lg
from gegenfun import poisson as po
from gegenfun.gegenbauer import gegenbauer_recurrence
from gegenfun.hypergeometric import gauss_2f1_scalar
from gegenfun.series import TruncatedSeries, mixed_deviation, pow_alpha

L, F = lg.Branch.LEGENDRE, lg.Branch.FERRERS


def _report(number: int, description: str, worst: float, bound: float) -> None:
    status = "PASS" if worst <= bound else "FAIL"
    print(f"criterion {number:2d}: {status}  worst={worst:.3e} (bound {bound:.0e})  {description}")
    assert worst <= bound, f"criterion {number}: {worst:.3e} > {bound:.0e}"


def test_criterion_1_ordinary_generating_function():
    worst = 0.0
    for lam in (1.0 / 6.0, 0.25, 0.5, 7.0 / 6.0):
        for x in (0.3, 0.9, 1.5, 2.0):
            powed = pow_alpha(TruncatedSeries.from_polynomial([1.0, -2.0 * x, 1.0], 20), -lam)
            recur = TruncatedSeries(gegenbauer_recurrence(lam, 20, x))
            worst = max(worst, mixed_deviation(powed, recur))
    _report(1, "ordinary generating function: recurrence vs power expansion", worst, 1e-9)


def test_criterion_2_octahedral_example():
    worst, worst_const = 0.0, 0.0
    for x in (1.3, 1.5, 2.0, 5.0):
        lhs, rhs = gf.octahedral_example(x, 20)
        worst = max(worst, mixed_deviation(lhs, rhs))
        worst_const = max(
            worst_const, abs(complex(lhs.coeffs[0]) - 1.0), abs(complex(rhs.coeffs[0]) - 1.0)
        )
    assert worst_const <= 1e-12, worst_const
    _report(2, "quarter-parameter radical identity, order 20", worst, 1e-8)


def test_criterion_3_tetrahedral_example():
    worst, worst_imag = 0.0, 0.0
    for x in (1.5, 2.0):
        lhs, rhs = gf.tetrahedral_example(x, 16, "hyperbolic")
        worst = max(worst, mixed_deviation(lhs, rhs))
    for x in (0.3, 0.6):
        lhs, rhs = gf.tetrahedral_example(x, 16, "circular")
        worst = max(worst, mixed_deviation(lhs, rhs))
        worst_imag = max(worst_imag, float(np.abs(rhs.coeffs.imag).max()))
    assert worst_imag <= 1e-9, worst_imag
    _report(3, "sixth-parameter radical identity, both branches, order 16", worst, 1e-8)


def test_criterion_4_variant_coherence():
    worst = 0.0
    first_points = [
        (0.25, -1.0 / 12.0, 1.3),
        (1.0 / 6.0, 0.3, 0.6),
        (2.0, 1.1, 0.6),
        (0.5, 0.3, -0.7),  # non-algebraic (lam, gamma)
        (7.0 / 6.0, 0.25, 1.5),
        (0.25, 0.6, 2.0),
    ]
    for lam, g, x in first_points:
        a = gf.first_gf(lam, g, x, 16, "a")[1]
        b = gf.first_gf(lam, g, x, 16, "b")[1]
        worst = max(worst, mixed_deviation(a, b))
    second_points = [
        (0.25, -1.0 / 12.0, 0.3),
        (1.0 / 6.0, 0.3, 0.6),
        (2.0, 1.1, 0.45),
        (0.5, 0.3, -0.7),  # non-algebraic
        (7.0 / 6.0, 0.25, 0.6),
        (0.5, -2.0, 0.3),
    ]
    for lam, g, x in second_points:
        _, a = gf.second_gf(lam, g, x, 16, "a")
        _, b = gf.second_gf(lam, g, x, 16, "b")
        worst = max(worst, mixed_deviation(a, b))
    _report(4, "both families: square-root vs transformed variants, order 16", worst, 1e-9)


def test_criterion_5_legendre_rewrites():
    worst = 0.0
    cases = [(-1.0 / 6.0, 0.25, 2.0), (-0.25, 1.0 / 3.0, 0.4), (0.0, 0.25, 2.0), (1.8, 0.2, 1.3)]
    for nu, mu, x in cases:
        lhs, rhs = gf.first_rewrite(nu, mu, x, 14, "a")
        worst = max(worst, mixed_deviation(lhs, rhs))
    for nu, mu, _ in cases:
        lhs, rhs = gf.second_rewrite(nu, mu, 0.5, 14, "a")
        worst = max(worst, mixed_deviation(lhs, rhs))
    _report(5, "analytic-Legendre rewrites of both families, order 14", worst, 1e-8)


def test_criterion_6_finite_sum_identities():
    worst, worst_term = 0.0, 0.0
    for lam in (0.25, 1.0 / 6.0, 1.5):
        for n in (0, 1, 3):
            x = {0.25: 1.5, 1.0 / 6.0: 0.3, 1.5: 2.0}[lam]
            for which in ("g1", "g2"):
                lhs, rhs = gf.miller_identities(lam, n, x, 14, which)
                worst = max(worst, mixed_deviation(lhs, rhs))
                if which == "g1":
                    tail = np.abs(np.complex128(lhs.coeffs[n + 1 :]))
                    worst_term = max(worst_term, float(tail.max(initial=0.0)))
            for u in (0.3, 1.0):
                for which in ("plus", "minus"):
                    lhs, rhs = gf.extended_miller(lam, n, u, x, 14, which)
                    worst = max(worst, mixed_deviation(lhs, rhs))
                    if which == "plus" and u == 1.0:
                        tail = np.abs(np.complex128(lhs.coeffs[n + 1 :]))
                        worst_term = max(worst_term, float(tail.max(initial=0.0)))
    assert worst_term <= 1e-14, worst_term
    _report(6, "finite-sum identities and u-extensions, exact termination", worst, 1e-9)


def test_criterion_7_rearrangement_lemma():
    worst = 0.0
    lhs, rhs = gf.lemma_key_check(0.25, (7.0 / 12.0,), (0.5,), 0.6, 1.5, 10)
    worst = max(worst, mixed_deviation(lhs, rhs))
    lhs, rhs = gf.lemma_key_check(0.25, (0.3, 0.2), (0.5, 0.75), 0.6, 1.5, 10)
    worst = max(worst, mixed_deviation(lhs, rhs))
    lhs, rhs = gf.lemma_key_check(0.25, (0.3,), (0.5,), 0.0, 1.5, 10)
    ord_gf = TruncatedSeries(gegenbauer_recurrence(0.25, 10, 1.5))
    degeneration = max(mixed_deviation(lhs, ord_gf), mixed_deviation(rhs, ord_gf))
    assert degeneration <= 1e-12, degeneration
    _report(7, "series-rearrangement identity, p=q=1 and p=q=2, order 10", worst, 1e-8)


def test_criterion_8_u_reductions():
    worst = 0.0
    # first extended family at u = 1 against the base family, both variants
    for lam, g, x in ((0.25, -1.0 / 12.0, 2.0), (1.0 / 6.0, 0.3, 0.6)):
        for variant in ("a", "b"):
            lhs, rhs = gf.extended_first_gf(lam, g, 1.0, x, 16, variant)
            base_lhs, base_rhs = gf.first_gf(lam, g, x, 16, variant)
            worst = max(worst, mixed_deviation(lhs, base_lhs))
            worst = max(worst, mixed_deviation(rhs, base_rhs))
    # extended rewrite at u = 1 against the base rewrite
    _, rhs = gf.extended_rewrite(-1.0 / 6.0, 0.25, 1.0, 2.0, 14, "a")
    worst = max(worst, mixed_deviation(rhs, gf.first_rewrite(-1.0 / 6.0, 0.25, 2.0, 14, "a")[1]))
    # extended finite sums at u = 1 against the base finite sums
    for which, base in (("plus", "g1"), ("minus", "g2")):
        lhs, rhs = gf.extended_miller(0.25, 2, 1.0, 1.5, 14, which)
        bl, br = gf.miller_identities(0.25, 2, 1.5, 14, base)
        worst = max(worst, mixed_deviation(lhs, bl), mixed_deviation(rhs, br))
    # second extended family at u = 0 degenerates to the ordinary GF
    lhs, rhs = gf.extended_second_gf(0.25, 0.3, 0.0, 1.5, 16, "a")
    ord_gf = TruncatedSeries(gegenbauer_recurrence(0.25, 16, 1.5))
    worst = max(worst, mixed_deviation(lhs, ord_gf), mixed_deviation(rhs, ord_gf))
    _report(8, "u = 1 and u = 0 degenerations of the extended families", worst, 1e-9)


def test_criterion_9_closed_forms_vs_oracle():
    worst = 0.0
    for row in catalog._CLOSED_FORMS.values():
        worst = max(worst, float(catalog._closed_form_deviation(*row)))
    # degree reflection on the oracle
    sym = 0.0
    for nu, mu, z, branch in [
        (-1.0 / 6.0, 0.25, 1.5, L),
        (-0.25, 1.0 / 3.0, 2.0, L),
        (0.0, 1.0 / 3.0, 0.5, F),
        (1.75, 0.25, 1.7, L),
    ]:
        a = lg.legendre_p_hypergeometric(nu, mu, z, branch)
        b = lg.legendre_p_hypergeometric(-nu - 1.0, mu, z, branch)
        sym = max(sym, abs(a - b) / max(1.0, abs(a)))
    assert sym <= 1e-10, sym
    # small-argument normalization: |ratio - 1| decreases along z -> 1+
    for evaluate, mu in (
        (lambda z: lg.reducible_case(0.25, 2, z, L).real, 0.25),
        (lambda z: lg.cyclic_case(1.0 / 3.0, math.atanh(1.0 / z), L), 1.0 / 3.0),
        (lambda z: lg.dihedral_case(1.0 / 6.0, math.acosh(z), L), 0.5),
        (lambda z: lg.octahedral_p(+1, math.acosh(z), L), 0.25),
        (lambda z: lg.octahedral_p(-1, math.acosh(z), L), -0.25),
        (lambda z: lg.tetrahedral_p(+1, math.atanh(1.0 / z), L), 1.0 / 3.0),
        (lambda z: lg.tetrahedral_p(-1, math.atanh(1.0 / z), L), -1.0 / 3.0),
    ):
        errs = [
            abs(evaluate(1.0 + d) / leading_asymptotic(mu, 1.0 + d) - 1.0)
            for d in (1e-3, 1e-4, 1e-5)
        ]
        assert errs[0] > errs[1] > errs[2], (mu, errs)
    _report(9, "closed forms vs hypergeometric oracle on 10-point grids", worst, 1e-9)


def test_criterion_10_poisson_kernels_and_elliptic():
    points = ((1.0, 1.7, 0.15), (1.2, 2.0, -0.2), (0.8, 0.8, 0.1), (1.4, 1.4, -0.15))
    variant_worst = 0.0
    for lam in (0.25, 1.0 / 6.0):
        for th, ph, t in points:
            args = po.KernelArgs(lam, th, ph, t)
            for closed, weighted in ((po.poisson_kernel, True), (po.companion_kernel, False)):
                v_t, v_z = closed(args, "tilde"), closed(args, "z")
                variant_worst = max(variant_worst, abs(v_t - v_z) / max(1.0, abs(v_t)))
                coeffs = po.bilinear_coeffs(lam, th, ph, 48, weighted)
                psum = po.bilinear_partial_sum(lam, th, ph, t, 48, weighted)
                assert abs(v_t - psum) <= bilinear_tail_bound(coeffs, t)
    operator_worst = max(
        po.operator_relation_check(lam, th, ph, 12)
        for lam in (0.25, 1.0 / 6.0)
        for th, ph in ((1.0, 1.7), (0.8, 2.1))
    )
    assert operator_worst <= 1e-9, operator_worst
    quarter_worst = max(
        abs(po.elliptic_quarter_lhs(w) - po.elliptic_quarter_rhs(w))
        / max(1.0, abs(po.elliptic_quarter_rhs(w)))
        for w in (1e-6, 0.1, 0.25, 0.49)
    )
    assert quarter_worst <= 1e-9, quarter_worst
    k_worst = max(
        abs(2.0 / math.pi * po.elliptic_k(m) - gauss_2f1_scalar(0.5, 0.5, 1.0, m).real)
        for m in (0.05, 0.3, 0.5, 0.8)
    )
    assert k_worst <= 1e-10, k_worst
    rel_worst = max(
        abs(
            po.elliptic_e(m) * po.elliptic_k(1 - m)
            + po.elliptic_e(1 - m) * po.elliptic_k(m)
            - po.elliptic_k(m) * po.elliptic_k(1 - m)
            - math.pi / 2.0
        )
        for m in (0.1, 0.3, 0.5)
    )
    assert rel_worst <= 1e-10, rel_worst
    _report(10, "kernels, operator map, and elliptic-integral identities", variant_worst, 1e-9)


def test_criterion_11_classifiers():
    T = lg.CaseTag
    table: list[tuple[float, float, lg.CaseTag]] = []
    for s1 in (+1, -1):
        for s2 in (+1, -1):
            table.append((s1 / 6.0, s2 / 4.0, T.OCTAHEDRAL))
            table.append((s1 / 4.0, s2 / 3.0, T.TETRAHEDRAL_A))
            table.append((s1 / 6.0, s2 / 3.0, T.TETRAHEDRAL_B))
    for dn, dm in ((1, -1), (-2, 3)):
        table.append((-1.0 / 6.0 + dn, 0.25 + dm, T.OCTAHEDRAL))
        table.append((-0.25 + dn, 1.0 / 3.0 + dm, T.TETRAHEDRAL_A))
        table.append((-1.0 / 6.0 + dn, 1.0 / 3.0 + dm, T.TETRAHEDRAL_B))
    # degree reflection of one member of each family
    table.append((-(-1.0 / 6.0) - 1.0, 0.25, T.OCTAHEDRAL))
    table.append((-(-0.25) - 1.0, 1.0 / 3.0, T.TETRAHEDRAL_A))
    table.append((-(-1.0 / 6.0) - 1.0, 1.0 / 3.0, T.TETRAHEDRAL_B))
    table += [
        (1.75, 0.25, T.REDUCIBLE),
        (3.0, 2.0, T.REDUCIBLE),
        (0.5, 0.5, T.REDUCIBLE),
        (3.0, 1.0 / 7.0, T.QUASI_CYCLIC),
        (-2.0, 0.3, T.QUASI_CYCLIC),
        (0.3, 0.5, T.QUASI_DIHEDRAL),
        (1.0 / 6.0, -1.5, T.QUASI_DIHEDRAL),
        (0.2, 0.1, T.GENERIC),
        (0.333, 0.25, T.GENERIC),  # 0.333 is not 1/3 at the 1e-9 tolerance
        (-1.25, 0.25, T.GENERIC),
    ]
    assert len(table) >= 30
    misses = [
        (nu, mu, lg.classify(nu, mu).primary, tag)
        for nu, mu, tag in table
        if lg.classify(nu, mu).primary is not tag
    ]
    assert not misses, misses

    verdicts = [
        (0.25, -1.0 / 12.0, True, 1),
        (0.25 + 2, -1.0 / 12.0 + 5, True, 1),
        (-0.75, -0.75 + 1.0 / 3.0, True, 1),
        (1.0 / 6.0, -1.0 / 12.0, True, 2),
        (1.0 / 6.0, 1.0 / 6.0 + 1.0 / 3.0, True, 2),
        (1.0 / 6.0 - 3, 1.0 / 6.0 + 1.0 / 4.0 - 2, True, 2),
        (7.0 / 6.0, 7.0 / 6.0 - 1.0 / 4.0, True, 2),
        (0.5, 0.3, False, None),
        (0.25, 0.3, False, None),
        (1.0 / 6.0, 1.0 / 6.0 + 0.2, False, None),
    ]
    bad = [
        (lam, g)
        for lam, g, alg, clause in verdicts
        if gf.algebraicity(lam, g).algebraic != alg or gf.algebraicity(lam, g).clause != clause
    ]
    assert not bad, bad
    _report(11, "case classifier and algebraicity verdicts, 30-case table", 0.0, 1.0)
