"""The benchmark's workloads: seeded request lists and the gate on every reply.

A workload is a list of requests, built once from the seed.  The harness
sends them in whole passes, one at a time, each after the previous reply (a
closed loop with one client).

Every request carries its own correctness gate.  A gate returns one
``(deviation, passed)`` pair per check, or raises ``GateError`` when the reply
is malformed or inconsistent.  Every check of a workload has the same
tolerance, ``Workload.tol``; a deviation of None marks a check with no
numeric deviation (a classifier tag).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

ORDERS = (16, 24, 32, 48, 64)
DEFAULT_TOL = 1e-8

# Sample count of every catalog id at its default grid, in catalog order.
CATALOG_COUNTS = {
    "gf1.a": 7, "gf1.b": 7, "gf1.rewrite.a": 6, "gf1.rewrite.b": 4,
    "miller.g1": 5, "miller.g2": 5, "alt.1": 8, "alt.2": 8,
    "octa.c14": 4, "tetra.c16.hyp": 2, "tetra.c16.circ": 2, "lemma.key": 4,
    "gf1x.a": 8, "gf1x.b": 8, "gf1x.rewrite.a": 4, "gf1x.rewrite.b": 3,
    "millerx.plus": 4, "millerx.minus": 4, "gf2.a": 5, "gf2.b": 5,
    "gf2x.a": 4, "gf2x.b": 4, "gf2.rewrite.a": 4, "gf2.rewrite.b": 3,
    "subst.table": 8, "legendre.closedforms": 14, "poisson.kernel": 8, "poisson.companion": 8,
    "poisson.operator": 4, "poisson.quarter": 3, "elliptic.quarter": 4, "elliptic.k2f1": 4,
    "elliptic.legendre": 3,
}


class GateError(Exception):
    """A reply failed the correctness gate."""


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    gate: Callable[[object], list]
    checks: int  # checks the request should yield; all count as failed if it raises


class Workload:
    """The requests of one pass, in order; the same on every pass."""

    tol = DEFAULT_TOL
    requests: list[Request]


def timed_call(req: Request) -> tuple[int, object, str | None]:
    """Sends one request: (wall ns, reply, None), or (wall ns, None, error) if it raised."""
    reply, err = None, None
    t0 = time.perf_counter_ns()
    try:
        reply = req.call()
    except Exception as exc:  # a request that raises is counted; the run goes on
        err = f"{req.label}: raised {type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - t0, reply, err


# -- the command line, in process ----------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """gegenfun's command line in this process; returns (exit code, stdout)."""
    from gegenfun import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            code = exc.code
    return code, buf.getvalue()


def gate_verify(reply, identity: str, order: int, n_samples: int) -> tuple[list, dict]:
    """Checks one `verify <id>` reply; returns the per-sample pairs and the record."""
    code, text = reply
    lines = text.splitlines()
    if len(lines) != 1:
        raise GateError(f"{identity}: expected one JSONL record, got {len(lines)} lines")
    try:
        rec = json.loads(lines[0])
    except ValueError as exc:
        raise GateError(f"{identity}: record does not parse: {exc}") from None
    if rec.get("identity") != identity:
        raise GateError(f"{identity}: record is for {rec.get('identity')!r}")
    if rec.get("order") != order or rec.get("tol") != DEFAULT_TOL:
        raise GateError(f"{identity}: order/tol {rec.get('order')}/{rec.get('tol')} not as requested")
    samples = rec.get("samples")
    if not isinstance(samples, list) or len(samples) != n_samples:
        got = len(samples) if isinstance(samples, list) else samples
        raise GateError(f"{identity}: {got} samples, expected {n_samples}")
    out = []
    for s in samples:
        dev, passed = s.get("max_mixed_deviation"), s.get("pass")
        if not isinstance(dev, (int, float)) or not isinstance(passed, bool):
            raise GateError(f"{identity}: malformed sample {s!r}")
        if passed != (dev <= DEFAULT_TOL):
            raise GateError(f"{identity}: pass={passed} but deviation {dev!r} against tol {DEFAULT_TOL}")
        out.append((float(dev), passed))
    overall = all(p for _, p in out)
    if rec.get("overall_pass") is not overall or code != (0 if overall else 1):
        raise GateError(f"{identity}: overall_pass={rec.get('overall_pass')} exit={code}, samples say {overall}")
    return out, rec


class CatalogWorkload(Workload):
    """`verify <id> --order N` over every catalog id, in catalog order.

    The catalog has no free inputs, so the seed does not change the requests.
    Replies must also repeat: every record equals the first one for its id,
    apart from runtime_ms.
    """

    def __init__(self, order: int):
        self.order = order
        self._first: dict[str, str] = {}
        self.requests = []
        for identity, n in CATALOG_COUNTS.items():
            argv = ["verify", identity, "--order", str(order)]
            self.requests.append(Request(" ".join(argv), lambda argv=argv: run_cli(argv), self._gate(identity), n))

    def _gate(self, identity: str):
        def gate(reply):
            out, rec = gate_verify(reply, identity, self.order, CATALOG_COUNTS[identity])
            rec.pop("runtime_ms", None)
            norm = json.dumps(rec, sort_keys=True)
            first = self._first.setdefault(identity, norm)
            if norm != first:
                raise GateError(f"{identity}: record differs from the first reply for this request")
            return out

        return gate


def make_workload(name: str, seed: int, references: bool = True) -> Workload:
    """The named workload.  With references=False, scalar-api skips its mpmath
    references: its requests can be sent, but not gated."""
    if name == "catalog-o16":
        return CatalogWorkload(16)
    if name == "catalog-o64":
        return CatalogWorkload(64)
    if name == "scalar-api":
        from scalar import ScalarWorkload

        return ScalarWorkload(seed, references)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("catalog-o16", "catalog-o64", "scalar-api")


def precision_frontier() -> dict[str, int | None]:
    """Highest order in ORDERS at which each identity passes (None if none)."""
    from gegenfun import catalog

    best: dict[str, int | None] = {i: None for i in CATALOG_COUNTS}
    for order in ORDERS:
        for identity in CATALOG_COUNTS:
            if catalog.run_identity(identity, order).overall_pass:
                best[identity] = order
    return best
