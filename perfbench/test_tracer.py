"""Checks that the tracer sees every call.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

import cProfile
import os
import pstats
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from run import Segment, run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402


def _gegenfun_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "gegenfun" or name.startswith("gegenfun.")]


def _one_pass(workload, tracer=None):
    seg = Segment()
    run_pass(workload.requests, seg, tracer)
    assert seg.failed == 0, seg.errors


@pytest.mark.parametrize("name, min_seen", [("catalog-o16", 30), ("scalar-api", 10)])
def test_call_counts_match_cprofile_over_one_pass(name, min_seen):
    workload = make_workload(name, 0)
    _one_pass(workload)  # first replies and lazy imports happen here
    prof = cProfile.Profile()
    prof.enable()
    _one_pass(workload)
    prof.disable()
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (prim calls, calls, ...)

    tracer = Tracer()
    with tracer:
        _one_pass(workload, tracer)
    seen = 0
    for name, fn in tracer.originals.items():
        code = fn.__code__
        expected = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        assert tracer.totals([name])[0] == expected, name
        seen += expected > 0
    assert seen >= min_seen


def test_install_rebinds_every_holder_and_uninstall_restores():
    tracer = Tracer()
    with tracer:
        originals = {id(fn) for fn in tracer.originals.values()}
        for module in _gegenfun_modules():
            stale = [a for a, v in vars(module).items() if id(v) in originals]
            assert not stale, (module.__name__, stale)
        from gegenfun import genfun, series

        assert genfun.pow_alpha is series.pow_alpha
        assert genfun.pow_alpha.__wrapped__ is tracer.originals["series.pow_alpha"]
    assert genfun.pow_alpha is tracer.originals["series.pow_alpha"]
    assert series.TruncatedSeries.__init__ is tracer.originals["series.TruncatedSeries.__init__"]
    assert series.TruncatedSeries.__radd__ is series.TruncatedSeries.__add__
