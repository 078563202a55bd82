"""Identity catalog: stable ids, default sample grids, the runner, and report records.

Every identity is a row of one table, `CATALOG`. A row names a check, the
point fields in output order, an override axis ("x" or "u", or None) and its
cases. A case holds one value per field, except that the axis field holds a
tuple of default values. The runner samples each case once per axis value,
taken from the `--x`/`--u` override when one is given, and reports the fields
as the sample's point. A row without an axis is a scalar check: each case is
one point, and overrides are ignored. A row may name one field more than its
cases hold; that last field reports the order. The check takes the point's
values, then the order, and returns an (lhs, rhs) pair of series or a
deviation. Rows reach `genfun`, `poisson`, `legendre` and `hypergeometric`
through the module at call time, so a wrapper bound to the module attribute
sees every call.

Default grids follow the validity regimes of the closed forms: hyperbolic
substitutions sample x in {1.3, 1.5, 2, 5}, circular ones x in
{-0.7, 0.3, 0.6, 0.9}, and the u-extensions sweep {0, 0.4, 1, 0.7+0.2i}.
The second-family square-root variant (gf2.b) is sampled at |x| <= 0.7:
its construction composes hypergeometric series with arguments whose leading
coefficient is 2(1+|x|), and the resulting cancellation grows with |x|.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import genfun, hypergeometric, legendre, poisson
from .errors import GegenfunError
from .series import mixed_deviation

HYPERBOLIC_X = (1.3, 1.5, 2.0, 5.0)
U_GRID = (0.0, 0.4, 1.0, 0.7 + 0.2j)

DEFAULT_ORDER = 16
DEFAULT_TOL = 1e-8


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ";".join(map(_fmt, v))
    if isinstance(v, complex):
        if v.imag == 0:
            return _fmt(v.real)
        return f"{v.real:g}{v.imag:+g}j"
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


@dataclass
class SampleResult:
    point: dict[str, str]
    max_mixed_deviation: float
    passed: bool
    note: str = ""


@dataclass
class IdentityReport:
    identity_id: str
    params: dict[str, str]
    order: int
    tol: float
    samples: list[SampleResult]
    overall_pass: bool
    runtime_ms: int


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    description: str
    check: Callable
    fields: tuple[str, ...] = ()
    axis: str | None = None
    cases: tuple[tuple, ...] = ()


def _sample(point: dict[str, str], check, tol: float) -> SampleResult:
    try:
        dev = float(check())
        return SampleResult(point, dev, dev <= tol)
    except GegenfunError as exc:
        return SampleResult(point, math.inf, False, f"{type(exc).__name__}: {exc}")


def _deviation(result, order: int) -> float:
    if isinstance(result, tuple):
        lhs, rhs = result
        return mixed_deviation(lhs, rhs, order)
    return result


def _run_row(entry: IdentityEntry, order: int, tol: float, values: Sequence | None) -> list[SampleResult]:
    if entry.axis is None:
        points = entry.cases
    else:
        i = entry.fields.index(entry.axis)
        points = [
            case[:i] + (v,) + case[i + 1 :] for case in entry.cases for v in (case[i] if values is None else values)
        ]
    return [
        _sample(
            {k: _fmt(a) for k, a in zip(entry.fields, args + (order,))},
            lambda: _deviation(entry.check(*args, order), order),
            tol,
        )
        for args in points
    ]


# -- scalar checks ------------------------------------------------------------------


def _scaled_gap(a, b) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _kernel_deviation(weighted: bool, lam, theta, phi, t, arg, order) -> float:
    args = poisson.KernelArgs(lam, theta, phi, t)
    closed = poisson.poisson_kernel if weighted else poisson.companion_kernel
    v1, v2 = closed(args, "tilde"), closed(args, "z")
    psum = poisson.bilinear_partial_sum(lam, theta, phi, t, 48, weighted)
    return max(abs(v1 - v2), abs(v1 - psum)) / max(1.0, abs(v1))


def _quarter_kernel_deviation(theta, phi, t, order) -> float:
    args = poisson.KernelArgs(0.25, theta, phi, t)
    return _scaled_gap(poisson.quarter_kernel_elliptic(args), poisson.poisson_kernel(args, "tilde"))


def _legendre_relation_gap(m, order) -> float:
    e, k = poisson.elliptic_e, poisson.elliptic_k
    return abs(e(m) * k(1 - m) + e(1 - m) * k(m) - k(m) * k(1 - m) - math.pi / 2.0)


def _closed_form_deviation(nu, mu, branch, on_z, lo, hi) -> float:
    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    form, z_at = legendre.closed_form(nu, mu, branch, on_z)
    oracle = legendre.legendre_p_hypergeometric
    return max(rel(form(v), oracle(nu, mu, z_at(v), branch)) for v in np.linspace(lo, hi, 10))


_L, _F = legendre.Branch.LEGENDRE, legendre.Branch.FERRERS

# case -> (nu, mu, branch, whether the grid is in z rather than the angle, grid ends)
_CLOSED_FORMS = {
    "reducible-L": (1.75, 0.25, _L, True, 1.2, 2.8),
    "reducible-F": (1.5, -0.5, _F, True, -0.8, 0.8),
    "cyclic-L": (0.0, 1.0 / 3.0, _L, False, 0.3, 2.0),
    "cyclic-F": (0.0, 1.0 / 3.0, _F, False, -1.5, 1.5),
    "dihedral-L": (1.0 / 6.0, 0.5, _L, False, 0.2, 2.0),
    "dihedral-F": (1.0 / 6.0, 0.5, _F, False, 0.3, 2.8),
    "octahedral+-L": (-1.0 / 6.0, 0.25, _L, False, 0.2, 2.0),
    "octahedral+-F": (-1.0 / 6.0, 0.25, _F, False, 0.3, 2.8),
    "octahedral--L": (-1.0 / 6.0, -0.25, _L, False, 0.2, 2.0),
    "octahedral--F": (-1.0 / 6.0, -0.25, _F, False, 0.3, 2.8),
    "tetrahedral+-L": (-0.25, 1.0 / 3.0, _L, False, 0.3, 2.0),
    "tetrahedral+-F": (-0.25, 1.0 / 3.0, _F, False, -1.5, 1.5),
    "tetrahedral--L": (-0.25, -1.0 / 3.0, _L, False, 0.3, 2.0),
    "tetrahedral--F": (-0.25, -1.0 / 3.0, _F, False, -1.5, 1.5),
}

# lam, theta, phi, t and the kernel's argument z~ at the point, rounded for the report
_KERNEL_CASES = tuple(
    (lam, theta, phi, t, round(poisson.kernel_arguments(poisson.KernelArgs(lam, theta, phi, t))[0], 4))
    for lam in (0.25, 1.0 / 6.0)
    for theta, phi, t in ((1.0, 1.7, 0.15), (1.2, 2.0, -0.2), (0.8, 0.8, 0.1),
                          (math.pi / 2.0, math.pi / 2.0, -0.15))
)


# -- catalog ----------------------------------------------------------------------


_FIRST_GF_CASES = (
    (0.25, -1.0 / 12.0, (1.3, 2.0, 5.0)),
    (1.0 / 6.0, 0.3, (0.3, 0.9)),
    (2.0, 1.1, (1.5,)),
    (0.5, 0.3, (-0.7,)),
)
_MILLER_CASES = (
    (0.25, 0, (1.5,)),
    (0.25, 1, (2.0,)),
    (0.25, 3, (1.5,)),
    (1.0 / 6.0, 3, (0.3,)),
    (1.5, 3, (0.6,)),
)
_ALT_CASES = tuple((lam, (1.5, 0.3)) for lam in (0.5, 0.25, 7.0 / 6.0, 1.0 / 6.0))
_EXTENDED_FIRST_CASES = ((0.25, -1.0 / 12.0, U_GRID, 2.0), (1.0 / 6.0, 0.3, U_GRID, 0.6))
_EXTENDED_MILLER_CASES = (
    (1.0 / 6.0, 2, (0.3,), 1.5),
    (0.25, 0, (0.6,), 2.0),
    (0.25, 3, (1.0,), 1.3),
    (1.5, 1, (0.3,), 0.6),
)
_EXTENDED_SECOND_CASES = (
    (0.5, 0.3, (1.0,), 0.6),
    (0.25, 0.25 + 1.0 / 3.0, (0.4,), 1.5),
    (0.25, 0.3, (0.0,), 1.5),
    (1.0 / 6.0, 0.25, (0.7 + 0.2j,), 0.6),
)

CATALOG: tuple[IdentityEntry, ...] = (
    IdentityEntry("gf1.a", "first generating function, square-root argument form",
        lambda *a: genfun.first_gf(*a, "a"), ("lam", "gamma", "x"), "x", _FIRST_GF_CASES),
    IdentityEntry("gf1.b", "first generating function, quadratic-transformed form",
        lambda *a: genfun.first_gf(*a, "b"), ("lam", "gamma", "x"), "x", _FIRST_GF_CASES),
    IdentityEntry("gf1.rewrite.a", "first family rewritten via the analytic Legendre combination, z=(1-xt)/R",
        lambda *a: genfun.first_rewrite(*a, "a"), ("nu", "mu", "x"), "x",
        ((-1.0 / 6.0, 0.25, (2.0, 0.6)), (-0.25, 1.0 / 3.0, (1.5, 0.4)), (0.0, 0.25, (2.0,)), (1.8, 0.2, (1.3,)))),
    IdentityEntry("gf1.rewrite.b", "first family rewritten at fixed degree -1/4, z=2(R/(1-xt))^2-1",
        lambda *a: genfun.first_rewrite(*a, "b"), ("nu", "mu", "x"), "x",
        ((-0.25, 0.25, (0.5, 1.5)), (-0.25, 1.0 / 3.0, (2.0,)), (-0.25, 0.2, (0.5,)))),
    IdentityEntry("miller.g1", "terminating finite-sum identity, R^N prefactor",
        lambda *a: genfun.miller_identities(*a, "g1"), ("lam", "N", "x"), "x", _MILLER_CASES),
    IdentityEntry("miller.g2", "companion sum with R^(-2 lam - N) prefactor",
        lambda *a: genfun.miller_identities(*a, "g2"), ("lam", "N", "x"), "x", _MILLER_CASES),
    IdentityEntry("alt.1", "alternative generating function with R^(-1) prefactor",
        lambda *a: genfun.alt_gf(*a, 1), ("lam", "x"), "x", _ALT_CASES),
    IdentityEntry("alt.2", "alternative generating function without the R^(-1) prefactor",
        lambda *a: genfun.alt_gf(*a, 2), ("lam", "x"), "x", _ALT_CASES),
    IdentityEntry("octa.c14", "explicit radical form of the quarter-parameter family (octahedral)",
        lambda *a: genfun.octahedral_example(*a), ("x",), "x", ((HYPERBOLIC_X,),)),
    IdentityEntry("tetra.c16.hyp", "explicit radical form of the sixth-parameter family, hyperbolic branch",
        lambda x, branch, order: genfun.tetrahedral_example(x, order, branch), ("x", "branch"), "x",
        (((1.5, 2.0), "hyperbolic"),)),
    IdentityEntry("tetra.c16.circ", "explicit radical form of the sixth-parameter family, circular branch",
        lambda x, branch, order: genfun.tetrahedral_example(x, order, branch), ("x", "branch"), "x",
        (((0.3, 0.6), "circular"),)),
    IdentityEntry("lemma.key", "series-rearrangement identity behind the u-extensions",
        lambda *a: genfun.lemma_key_check(*a), ("lam", "c", "d", "u", "x"), "u", (
            (0.25, (7.0 / 12.0,), (0.5,), (0.6,), 1.5),
            (0.25, (0.3, 0.2), (0.5, 0.75), (0.6,), 1.5),
            (0.25, (0.3,), (0.5,), (0.0,), 2.0),
            (0.25, (0.4, 0.7), (1.2, 0.9), (0.7 + 0.2j,), 0.6),
        )),
    IdentityEntry("gf1x.a", "u-extended first generating function, square-root form",
        lambda *a: genfun.extended_first_gf(*a, "a"), ("lam", "gamma", "u", "x"), "u", _EXTENDED_FIRST_CASES),
    IdentityEntry("gf1x.b", "u-extended first generating function, quadratic-transformed form",
        lambda *a: genfun.extended_first_gf(*a, "b"), ("lam", "gamma", "u", "x"), "u", _EXTENDED_FIRST_CASES),
    IdentityEntry("gf1x.rewrite.a", "u-extended Legendre rewrite, z=Q/(UR)",
        lambda *a: genfun.extended_rewrite(*a, "a"), ("nu", "mu", "u", "x"), "u", (
            (-1.0 / 6.0, 0.25, (0.5,), 2.0),
            (0.0, 0.25, (0.4,), 0.6),
            (-0.25, 1.0 / 3.0, (1.0,), 1.5),
            (-1.0 / 6.0, 0.25, (0.7 + 0.2j,), 2.0),
        )),
    IdentityEntry("gf1x.rewrite.b", "u-extended Legendre rewrite, z=2(UR/Q)^2-1",
        lambda *a: genfun.extended_rewrite(*a, "b"), ("nu", "mu", "u", "x"), "u",
        ((-0.25, 0.25, (0.4,), 0.5), (-0.25, 1.0 / 3.0, (1.0,), 1.5), (-0.25, 0.2, (0.7 + 0.2j,), 0.6))),
    IdentityEntry("millerx.plus", "u-extended finite-sum identity, U^(-2 lam - N) R^N",
        lambda *a: genfun.extended_miller(*a, "plus"), ("lam", "N", "u", "x"), "u", _EXTENDED_MILLER_CASES),
    IdentityEntry("millerx.minus", "u-extended companion sum, U^N R^(-2 lam - N)",
        lambda *a: genfun.extended_miller(*a, "minus"), ("lam", "N", "u", "x"), "u", _EXTENDED_MILLER_CASES),
    IdentityEntry("gf2.a", "second generating function, product of two 2F1 factors",
        lambda *a: genfun.second_gf(*a, "a"), ("lam", "gamma", "x"), "x", (
            (0.5, 0.3, (0.6,)),
            (1.0 / 6.0, 0.5, (0.4,)),
            (0.5, -2.0, (1.5,)),
            (2.0, 1.1, (0.9,)),
            (0.25, 7.0 / 12.0, (1.5,)),
        )),
    IdentityEntry("gf2.b", "second generating function, quadratic-transformed product",
        lambda *a: genfun.second_gf(*a, "b"), ("lam", "gamma", "x"), "x", (
            (0.5, 0.3, (0.3,)),
            (1.0 / 6.0, 0.5, (0.45,)),
            (2.0, 1.1, (0.6,)),
            (0.5, -2.0, (0.3,)),
            (0.25, 7.0 / 12.0, (-0.7,)),
        )),
    IdentityEntry("gf2x.a", "u-extended second generating function, product form",
        lambda *a: genfun.extended_second_gf(*a, "a"), ("lam", "gamma", "u", "x"), "u", _EXTENDED_SECOND_CASES),
    IdentityEntry("gf2x.b", "u-extended second generating function, transformed product",
        lambda *a: genfun.extended_second_gf(*a, "b"), ("lam", "gamma", "u", "x"), "u", _EXTENDED_SECOND_CASES),
    IdentityEntry("gf2.rewrite.a", "second family through analytic Legendre factors at R±t",
        lambda *a: genfun.second_rewrite(*a, "a"), ("nu", "mu", "x"), "x",
        ((-1.0 / 6.0, 0.25, (0.5,)), (-0.2, 0.2, (0.5,)), (-0.25, 1.0 / 3.0, (1.5,)), (0.0, 0.25, (2.0,)))),
    IdentityEntry("gf2.rewrite.b", "second family at fixed degree -1/4, arguments 2/(R∓t)^2-1",
        lambda *a: genfun.second_rewrite(*a, "b"), ("nu", "mu", "x"), "x",
        ((-0.25, 0.25, (0.5,)), (-0.25, 1.0 / 3.0, (0.3,)), (-0.25, 0.2, (0.6,)))),
    IdentityEntry("subst.table", "exponential substitutions reconstruct both Legendre arguments",
        lambda row, x, t, order: genfun.substitution_table(x, t, row).reconstruction_dev, ("row", "x", "t"), "x",
        ((1, (2.0,), 0.1), (2, (0.5,), 0.1), (3, (2.0,), 0.1), (4, (0.5,), 0.1),
         (5, (0.5,), 0.2), (6, (2.0,), 0.2), (7, (0.5,), 0.1), (8, (2.0,), 0.1))),
    IdentityEntry("legendre.closedforms", "closed forms agree with the hypergeometric definition on 10-point grids",
        lambda case, grid, order: _closed_form_deviation(*_CLOSED_FORMS[case]), ("case", "grid"), None,
        tuple((case, "10-point") for case in _CLOSED_FORMS)),
    IdentityEntry("poisson.kernel", "Poisson kernel closed form vs bilinear sum and variant agreement",
        lambda *a: _kernel_deviation(True, *a), ("lam", "theta", "phi", "t", "arg"), None, _KERNEL_CASES),
    IdentityEntry("poisson.companion", "companion kernel closed form vs bilinear sum and variant agreement",
        lambda *a: _kernel_deviation(False, *a), ("lam", "theta", "phi", "t", "arg"), None, _KERNEL_CASES),
    IdentityEntry("poisson.operator", "weight map (lam+n)/lam links companion and kernel coefficients",
        lambda *a: poisson.operator_relation_check(*a), ("lam", "theta", "phi", "order"), None,
        tuple((lam, theta, phi) for lam in (0.25, 1.0 / 6.0) for theta, phi in ((1.0, 1.7), (0.8, 2.1)))),
    IdentityEntry("poisson.quarter", "quarter-parameter kernel through complete elliptic integrals",
        _quarter_kernel_deviation, ("theta", "phi", "t"), None,
        ((math.pi / 2, math.pi / 2, -0.15), (1.2, 2.0, -0.2), (1.0, 1.3, -0.1))),
    IdentityEntry("elliptic.quarter", "2F1(1/4,5/4;1/2;w) expressed through K and E at (1±sqrt(w))/2",
        lambda w, order: _scaled_gap(poisson.elliptic_quarter_lhs(w), poisson.elliptic_quarter_rhs(w)),
        ("w",), None, ((1e-6,), (0.1,), (0.25,), (0.49,))),
    IdentityEntry("elliptic.k2f1", "(2/pi) K(m) equals 2F1(1/2,1/2;1;m)",
        lambda m, order: _scaled_gap(
            2.0 / math.pi * poisson.elliptic_k(m), hypergeometric.gauss_2f1_scalar(0.5, 0.5, 1.0, m).real),
        ("m",), None, ((0.05,), (0.3,), (0.5,), (0.8,))),
    IdentityEntry("elliptic.legendre", "Legendre relation between K and E",
        _legendre_relation_gap, ("m",), None, ((0.1,), (0.3,), (0.5,))),
)

_BY_ID = {e.id: e for e in CATALOG}


def identity_ids() -> tuple[str, ...]:
    return tuple(e.id for e in CATALOG)


def run_identity(
    identity_id: str,
    order: int = DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
    overrides: dict | None = None,
) -> IdentityReport:
    entry = _BY_ID[identity_id]
    values = (overrides or {}).get(entry.axis)
    t0 = time.perf_counter()
    samples = _run_row(entry, order, tol, values)
    ms = int(round((time.perf_counter() - t0) * 1000.0))
    params = {"tol": _fmt(tol)}
    if values is not None:
        params[entry.axis] = ",".join(_fmt(v) for v in values)
    return IdentityReport(
        identity_id=identity_id,
        params=params,
        order=order,
        tol=tol,
        samples=samples,
        overall_pass=all(s.passed for s in samples),
        runtime_ms=ms,
    )


def report_to_json(report: IdentityReport) -> str:
    obj = {
        "identity": report.identity_id,
        "params": report.params,
        "order": report.order,
        "tol": report.tol,
        "samples": [
            {
                "point": s.point,
                "max_mixed_deviation": s.max_mixed_deviation,
                "pass": s.passed,
                **({"note": s.note} if s.note else {}),
            }
            for s in report.samples
        ],
        "overall_pass": report.overall_pass,
        "runtime_ms": report.runtime_ms,
    }
    return json.dumps(obj, sort_keys=True)


def reports_to_csv(reports: Iterable[IdentityReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "point", "order", "max_mixed_deviation", "pass", "note"])
    for r in reports:
        for s in r.samples:
            point = " ".join(f"{k}={v}" for k, v in s.point.items())
            writer.writerow(
                [r.identity_id, point, r.order, repr(s.max_mixed_deviation),
                 str(s.passed).lower(), s.note]
            )
    return buf.getvalue()
