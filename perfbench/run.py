"""gegenfun benchmark: closed-loop verification workloads over the public surface.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-o16 --seed 1 --seconds 40 --trace 0

One client sends each request after the previous reply (a closed loop), in
whole passes over the workload's request list, until --seconds have passed
and at least MIN_PASSES passes ran.
Every reply goes through the workload's correctness gate.  With --trace 0 the
run reports the end-to-end metrics: the passes above, in one warm process,
and one cold pass in each of COLD_SAMPLES fresh interpreters (perfbench/
cold.py), spread evenly among them.  With --trace 1 it runs untraced
for half the time and traced for the other half and reports per-layer
metrics, per pass, with both halves' checks_per_s side by side as the tracing
overhead.

The last stdout line is the result object; the line before it is a report
with the environment, counts, informational metrics and (catalog workloads)
the precision frontier.  Both, and the traced spans, are also written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import GateError, timed_call

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
COLD_SCRIPT = os.path.join(HERE, "cold.py")

DEFAULT_SEED = 1
# Claims must also hold on this seed, which is not used while tuning a change.
HELD_OUT_SEED = 7919

COLD_SAMPLES = 16  # fresh interpreters with one cold pass each, spread over the run
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 20  # warm timings are upper quartiles over at least this many passes
STORED_PASSES = 64  # per-request times are kept for a uniform sample of at most this many passes
MIN_TRACED_PASSES = 3
DEV_FLOOR = 1e-30
# Agreement digits of a check with a non-finite deviation, or whose request
# failed; also the lowest digits any check gets (a deviation of 1e10).
DIGITS_MIN = -10.0
CHILD_TIMEOUT_S = 60

# Per-layer metrics: name -> span names whose calls and self time it sums.
CALL_METRICS = {
    "series.construct": ("series.TruncatedSeries.__init__",),
    "series.mul": ("series.TruncatedSeries.__mul__",),
    "series.add": ("series.TruncatedSeries.__add__",),
    "series.div": ("series.div",),
    "series.valuation": ("series.TruncatedSeries.valuation",),
    "series.pow_alpha": ("series.pow_alpha",),
    "series.compose_vanishing": ("series.compose_vanishing",),
    "series.mixed_deviation": ("series.mixed_deviation",),
    "hypergeometric.gauss_2f1_coeffs": ("hypergeometric.gauss_2f1_coeffs",),
    "hypergeometric.gauss_2f1_series": ("hypergeometric.gauss_2f1_series",),
    "hypergeometric.gauss_2f1_scalar": ("hypergeometric.gauss_2f1_scalar",),
    "hypergeometric.pfq_terminating": ("hypergeometric.pfq_terminating",),
    "gegenbauer.weighted_series": ("gegenbauer.gegenbauer_weighted_series",),
    "gegenbauer.of_series": ("gegenbauer.gegenbauer_of_series",),
    "gegenbauer.recurrence": ("gegenbauer.gegenbauer_recurrence",),
    "legendre.analytic_series": ("legendre.legendre_analytic_series",),
    "legendre.p_hypergeometric": ("legendre.legendre_p_hypergeometric",),
    "legendre.closed_forms": tuple(
        f"legendre.{n}"
        for n in (
            "reducible_case", "cyclic_case", "cyclic_case_z", "dihedral_case", "octahedral_h",
            "octahedral_k", "octahedral_p", "tetrahedral_f", "tetrahedral_g", "tetrahedral_p",
        )
    ),
}
SELF_METRICS = {
    "poisson.kernel": ("poisson.poisson_kernel", "poisson.companion_kernel", "poisson.kernel_arguments"),
    "poisson.bilinear": (
        "poisson.bilinear_coeffs", "poisson.bilinear_partial_sum",
        "poisson.bilinear_tail_bound", "poisson.operator_relation_check",
    ),
    "poisson.elliptic": (
        "poisson.elliptic_k", "poisson.elliptic_e", "poisson.elliptic_quarter_lhs",
        "poisson.elliptic_quarter_rhs", "poisson.quarter_kernel_elliptic",
    ),
}
MODULE_SELF_METRICS = ("genfun", "catalog", "cli")  # self time of every span in the module
REPEAT_METRICS = {
    "series.pow_alpha.repeat_frac": "series.pow_alpha",
    "hypergeometric.gauss_2f1_coeffs.repeat_frac": "hypergeometric.gauss_2f1_coeffs",
}

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "cold_checks_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "pass_frac": "fraction",
    "agree_digits_p10": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def agreement_digits(dev: float) -> float:
    """-log10(max(dev, DEV_FLOOR)), at least DIGITS_MIN; DIGITS_MIN if dev is not finite."""
    if not math.isfinite(dev):
        return DIGITS_MIN
    return max(-math.log10(max(dev, DEV_FLOOR)), DIGITS_MIN)


class Segment:
    """Counts of one measured stretch of passes, and the timings of each request.

    Every pass sends the same requests in the same order.  The timings use
    each request's upper quartile time over the passes: the latency
    percentiles are taken over these, and checks_per_s is the checks of one
    pass over their sum.  On a shared machine the program runs at two speeds,
    about 1.5 times apart, and the share of requests that meet the fast one
    moves from run to run, from a tenth to over a half.  A request's fastest
    time, or its median, jumps between the two speeds as that share moves past
    the few passes a run has, or past one half; its upper quartile stays at
    the slower speed unless three quarters of its passes run fast.
    """

    def __init__(self):
        self.passes = 0
        self.requests = 0
        self.failed = 0  # requests that raised or failed the gate
        self.checks = 0
        self.check_fails = 0  # FAIL verdicts plus every check of a failed request
        self.busy_ns = 0
        self._ms: list[float] = []  # request times of the current pass
        self._stored: list[np.ndarray] = []  # request times of a uniform sample of the passes
        self._sampler = random.Random(0)
        self._digits: list[float] = []  # agreement digits of the current pass
        self.digits_p10 = math.inf  # lowest 10th percentile of a pass's agreement digits
        self.errors: list[str] = []

    def record(self, req, ns: int, reply, err: str | None) -> None:
        """Counts one request of the pass: its time, and the gate's verdict on
        its reply, or on the error it raised."""
        self.requests += 1
        self.busy_ns += ns
        self._ms.append(ns / 1e6)
        if err is None:
            try:
                results = req.gate(reply)
            except GateError as exc:
                err = str(exc)
        if err is not None:
            self.failed += 1
            self.checks += req.checks
            self.check_fails += req.checks
            self._digits += [DIGITS_MIN] * req.checks
            if len(self.errors) < 10:
                self.errors.append(err)
            return
        for dev, passed in results:
            self.checks += 1
            self.check_fails += not passed
            if dev is not None:
                self._digits.append(agreement_digits(dev))

    def end_pass(self) -> None:
        ms = np.array(self._ms)
        if self.passes < STORED_PASSES:
            self._stored.append(ms)
        else:  # reservoir sampling keeps memory the same however many passes run
            slot = self._sampler.randrange(self.passes + 1)
            if slot < STORED_PASSES:
                self._stored[slot] = ms
        self._ms = []
        if self._digits:
            self.digits_p10 = min(self.digits_p10, float(np.percentile(self._digits, 10)))
            self._digits = []
        self.passes += 1

    def request_ms(self) -> np.ndarray:
        """Each request's upper quartile time, in ms, over the stored passes."""
        return np.quantile(np.stack(self._stored), 0.75, axis=0)

    def checks_per_s(self) -> float:
        return self.checks / self.passes / (float(self.request_ms().sum()) / 1e3)

    def latency_ms(self, q: float) -> float:
        return float(np.percentile(self.request_ms(), q))


def run_pass(requests, seg: Segment, tracer=None) -> None:
    for req in requests:
        if tracer is not None:
            tracer.request = seg.requests
        seg.record(req, *timed_call(req))
    seg.end_pass()


def measure(workload, seg: Segment, seconds: float, min_passes: int, tracer=None) -> Segment:
    """Adds whole warm passes to `seg`, at least one, until `seconds` have
    passed and `seg` holds at least `min_passes`."""
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_pass()
        run_pass(workload.requests, seg, tracer)
        if time.perf_counter() - start >= seconds and seg.passes >= min_passes:
            return seg


# -- set-up time -----------------------------------------------------------------


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter; its stdout and stderr come back as bytes."""
    proc = subprocess.run([sys.executable, "-s", "-E", *args], capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.decode(errors='replace').strip()[-400:]}")
    return proc


def _import_gegenfun(src: str, *flags: str) -> subprocess.CompletedProcess:
    return _python(*flags, "-c", f"import sys; sys.path.insert(0, {src!r}); import gegenfun")


def cold_pass(src: str, name: str, seed: int, workload, seg: Segment, setup: list[float]) -> None:
    """One pass in a fresh interpreter, gated here.

    The pass is the first work the interpreter does after `import gegenfun`,
    as for a user who runs one command per process; nothing that an earlier
    pass left in memory can speed it up.  The import time goes to `setup`.
    """
    got = pickle.loads(_python(COLD_SCRIPT, src, name, str(seed)).stdout)
    setup.append(got["import_s"])
    for req, timed in zip(workload.requests, got["replies"], strict=True):
        seg.record(req, *timed)
    seg.end_pass()


def import_times(src: str, samples: int) -> dict[str, float]:
    """Cumulative -X importtime of numpy and gegenfun, medians in seconds."""
    got: dict[str, list[float]] = {"numpy": [], "gegenfun": []}
    for _ in range(samples):
        err = _import_gegenfun(src, "-X", "importtime").stderr.decode()
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got and parts[1].strip().isdigit():
                got[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in got.items()}


# -- environment -----------------------------------------------------------------


def environment(seed: int) -> dict:
    from gegenfun import __version__, series

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    fin = np.finfo(series.DTYPE)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gegenfun": __version__,
        "coeff_dtype": np.dtype(series.DTYPE).name,
        "coeff_eps": float(fin.eps),
        "long_double_is_double": bool(fin.eps >= np.finfo(np.float64).eps),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- metrics ---------------------------------------------------------------------


def end_to_end(seg: Segment, cold: Segment, setup: list[float], rss_mb: float) -> dict[str, float]:
    return {
        "checks_per_s": seg.checks_per_s(),
        "cold_checks_per_s": cold.checks_per_s(),
        "latency_ms_p50": seg.latency_ms(50),
        "latency_ms_p90": seg.latency_ms(90),
        "pass_frac": 1.0 - seg.check_fails / seg.checks,
        "agree_digits_p10": seg.digits_p10,
        "setup_s": float(np.quantile(setup, 0.75)),  # upper quartile, like the request times
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, seg: Segment, untraced: Segment, imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    passes = seg.passes
    out: dict[str, tuple[float, str]] = {}
    for metric, names in CALL_METRICS.items():
        calls, ns = tracer.totals(names)
        out[f"{metric}.calls"] = (calls / passes, "count")
        out[f"{metric}.self_ms"] = (ns / 1e6 / passes, "ms")
    for metric, name in REPEAT_METRICS.items():
        out[metric] = (tracer.repeat_frac(name), "fraction")
    out["series.coeff_max_log10"] = (tracer.coeff_max_log10(), "log10")
    for metric, names in SELF_METRICS.items():
        out[f"{metric}.self_ms"] = (tracer.totals(names)[1] / 1e6 / passes, "ms")
    for module in MODULE_SELF_METRICS:
        out[f"{module}.self_ms"] = (tracer.totals(tracer.names_with_prefix(module + "."))[1] / 1e6 / passes, "ms")
    out["catalog.run_identity.calls"] = (tracer.totals(["catalog.run_identity"])[0] / passes, "count")
    out["cli.main.calls"] = (tracer.totals(["cli.main"])[0] / passes, "count")
    out["setup.import_numpy_s"] = (imports["numpy"], "s")
    out["setup.import_gegenfun_s"] = (imports["gegenfun"], "s")
    out["trace.checks_per_s_untraced"] = (untraced.checks_per_s(), "1/s")
    out["trace.checks_per_s_traced"] = (seg.checks_per_s(), "1/s")
    return out


def summary(seg: Segment, tol: float) -> dict:
    return {
        "passes": seg.passes,
        "requests": seg.requests,
        "failed_requests": seg.failed,
        "checks": seg.checks,
        "failed_checks": seg.check_fails,
        "fail_frac": seg.check_fails / seg.checks,
        "headroom_digits_p10": seg.digits_p10 + math.log10(tol),
        "busy_s": seg.busy_ns / 1e9,
        "errors": seg.errors,
    }


# -- main ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gegenfun", "__init__.py")):
        print(f"error: no gegenfun sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    _import_gegenfun(src)  # writes the bytecode caches
    imports = import_times(src, IMPORTTIME_SAMPLES) if args.trace else None

    import gegenfun

    if not os.path.abspath(gegenfun.__file__).startswith(os.path.join(src, "")):
        print(f"error: imported gegenfun from {gegenfun.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import CatalogWorkload, make_workload, precision_frontier

    workload = make_workload(args.workload, args.seed)
    warm = Segment()
    run_pass(workload.requests, warm)  # lets lazy set-up finish; replies are gated too

    report: dict = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    setup: list[float] = []
    if args.trace:
        untraced = measure(workload, Segment(), args.seconds / 2.0, MIN_PASSES)
        tracer = Tracer()
        with tracer:
            seg = measure(workload, Segment(), args.seconds / 2.0, MIN_TRACED_PASSES, tracer)
        segments = [warm, untraced, seg]
        metrics = per_layer(tracer, seg, untraced, imports)
        report["untraced"] = summary(untraced, workload.tol)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        report["spans"] = {"file": os.path.relpath(span_file, root), "count": tracer.write_spans(span_file),
                           "dropped": tracer.dropped_spans}
    else:
        # The machine's speed drifts over seconds, so the cold passes are spread
        # over the run, like the warm ones, rather than bunched.
        seg, cold = Segment(), Segment()
        start = time.perf_counter()
        for k in range(COLD_SAMPLES):
            cold_pass(src, args.workload, args.seed, workload, cold, setup)
            slot_left = start + (k + 1) * args.seconds / COLD_SAMPLES - time.perf_counter()
            measure(workload, seg, slot_left, MIN_PASSES * (k + 1) // COLD_SAMPLES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        segments = [warm, seg, cold]
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(seg, cold, setup, rss_mb).items()}
        report["cold"] = summary(cold, workload.tol)
    report["measured"] = summary(seg, workload.tol)
    report["setup_samples_s"] = setup
    if isinstance(workload, CatalogWorkload):
        report["precision_frontier"] = precision_frontier()

    failed = sum(s.failed for s in segments)
    result = {
        "correct": failed == 0,
        "attempted": sum(s.requests for s in segments),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
