"""Span tracer that wraps gegenfun's public functions from outside the package.

``Tracer.install()`` replaces every public function of the layer modules, and
the hot ``TruncatedSeries`` methods, with a timing wrapper.  Several modules
bind series and 2F1 helpers by ``from ... import`` at import time, so each
wrapper is rebound in every gegenfun module that holds the original; a call is
traced whichever module makes it.  ``uninstall()`` puts the originals back.

Each call becomes a span: name, start, end, parent span and request id, kept
in memory and written out by ``write_spans`` when the run ends.  A span's self
time is its duration minus the part its child spans cover.  The tracer's own
bookkeeping runs outside every span's clock readings and is charged to no
span, so it inflates neither a span's self time nor its parent's.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("series", "hypergeometric", "gegenbauer", "legendre", "genfun", "poisson", "catalog", "cli")

# TruncatedSeries methods traced as series operations.  __radd__ and __rmul__
# are the same functions as __add__ and __mul__ and share their spans.
SERIES_METHODS = {
    "__init__": ("__init__",),
    "__add__": ("__add__", "__radd__"),
    "__mul__": ("__mul__", "__rmul__"),
    "valuation": ("valuation",),
}

# Operations whose returned coefficients feed series.coeff_max_log10.
COEFF_OPS = (
    "series.TruncatedSeries.__add__",
    "series.TruncatedSeries.__mul__",
    "series.div",
    "series.pow_alpha",
    "series.compose_vanishing",
)

# Spans kept for the spans file (36 bytes each); calls beyond it are still
# counted and timed, only not written out.
MAX_SPANS = 500_000

# Calls whose argument key is checked for repeats within a pass.
REPEAT_KEYS = {
    "series.pow_alpha": lambda a, alpha: (hash(a.coeffs.tobytes()), complex(alpha)),
    "hypergeometric.gauss_2f1_coeffs": lambda a, b, c, order: (complex(a), complex(b), complex(c), int(order)),
}


class Tracer:
    """Collects spans and per-name aggregates for the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.repeats: dict[str, int] = {name: 0 for name in REPEAT_KEYS}
        self._seen: dict[str, set] = {name: set() for name in REPEAT_KEYS}
        self.coeff_max = 0.0
        self.request = 0
        self.dropped_spans = 0
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_request = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"gegenfun.{m}") for m in LAYERS]
        holders = [m for name, m in sys.modules.items() if name == "gegenfun" or name.startswith("gegenfun.")]
        series_mod = sys.modules["gegenfun.series"]
        cls = series_mod.TruncatedSeries
        for span, attrs in SERIES_METHODS.items():
            orig = cls.__dict__[attrs[0]]
            wrapper = self._wrap(f"series.TruncatedSeries.{span}", orig)
            for attr in attrs:
                self._patch(cls, attr, wrapper)
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", obj)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return idx

    def _wrap(self, name: str, fn):
        idx = self._name_index(name)
        self.originals[name] = fn
        tracer = self
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        sp_name, sp_parent, sp_req = self._span_name, self._span_parent, self._span_request
        sp_start, sp_end = self._span_start, self._span_end
        repeat_key = REPEAT_KEYS.get(name)
        seen = self._seen.get(name)
        signature = inspect.signature(fn) if repeat_key is not None else None
        coeffs_of_result = name in COEFF_OPS

        def wrapper(*args, **kwargs):
            t_enter = perf_counter_ns()
            record = len(sp_name) < MAX_SPANS
            if record:
                span = len(sp_name)
                sp_name.append(idx)
                sp_parent.append(stack[-1][0] if stack else -1)
                sp_req.append(tracer.request)
                sp_start.append(0)
                sp_end.append(0)
            else:
                span = -1
                tracer.dropped_spans += 1
            frame = [span, 0]
            stack.append(frame)
            returned = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                calls[idx] += 1
                self_ns[idx] += (t1 - t0) - frame[1]
                if record:
                    sp_start[span] = t0
                    sp_end[span] = t1
                if returned and repeat_key is not None:
                    key = repeat_key(*signature.bind(*args, **kwargs).args)
                    if key in seen:
                        tracer.repeats[name] += 1
                    else:
                        seen.add(key)
                if returned and coeffs_of_result:
                    m = float(np.max(np.abs(result.coeffs)))
                    if m > tracer.coeff_max:
                        tracer.coeff_max = m
                if stack:
                    stack[-1][1] += perf_counter_ns() - t_enter
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ----------------------------------------------------------------

    def new_pass(self) -> None:
        """Repeats are counted within one pass over the workload's requests."""
        for s in self._seen.values():
            s.clear()

    def totals(self, names) -> tuple[int, int]:
        """(calls, self ns) summed over the given span names."""
        calls = sum(self.calls[self._index[n]] for n in names if n in self._index)
        ns = sum(self.self_ns[self._index[n]] for n in names if n in self._index)
        return calls, ns

    def names_with_prefix(self, prefix: str) -> list[str]:
        return [n for n in self.names if n.startswith(prefix)]

    def repeat_frac(self, name: str) -> float:
        calls, _ = self.totals([name])
        return self.repeats[name] / calls if calls else 0.0

    def coeff_max_log10(self) -> float:
        return math.log10(self.coeff_max) if self.coeff_max > 0 else 0.0

    def write_spans(self, path: str) -> int:
        """Write the spans as gzip'd JSON lines: a header with the name table,
        then one [name, start_ns, end_ns, parent, request] row per span."""
        n = len(self._span_name)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "spans": n, "dropped": self.dropped_spans}) + "\n")
            rows = zip(self._span_name, self._span_start, self._span_end, self._span_parent, self._span_request)
            fh.writelines(f"[{a},{b},{c},{d},{e}]\n" for a, b, c, d, e in rows)
        return n
