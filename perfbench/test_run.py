"""Checks the harness's counting of failed and inexact checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_run.py
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DIGITS_MIN, STORED_PASSES, Segment, agreement_digits, run_pass  # noqa: E402
from workloads import GateError, Request  # noqa: E402


def _fixed(label, results, checks=None):
    return Request(label, lambda: None, lambda reply: results, checks or len(results))


def _raises(label, exc, checks=1):
    def call():
        raise exc

    return Request(label, call, lambda reply: [(0.0, True)] * checks, checks)


def test_agreement_digits_of_non_finite_and_large_deviations():
    assert agreement_digits(1e-12) == 12.0
    assert agreement_digits(0.0) == 30.0
    assert agreement_digits(100.0) == -2.0
    assert agreement_digits(1e300) == DIGITS_MIN
    assert agreement_digits(math.inf) == DIGITS_MIN
    assert agreement_digits(math.nan) == DIGITS_MIN


def test_bad_deviations_lower_the_digits_and_failures_do_not_abort():
    def bad_gate(reply):
        raise GateError("malformed")

    requests = [
        _fixed("inf", [(math.inf, False)]),
        _fixed("nan", [(math.nan, False)]),
        _fixed("huge", [(100.0, False)]),
        _raises("raises", ZeroDivisionError("x"), checks=2),
        Request("malformed", lambda: None, bad_gate, 3),
        _fixed("tag", [(None, True)]),
    ] + [_fixed(f"ok{i}", [(1e-12, True)]) for i in range(4)]
    seg = Segment()
    run_pass(requests, seg)
    assert seg.passes == 1 and seg.requests == len(requests)
    assert seg.failed == 2 and len(seg.errors) == 2
    assert seg.checks == 13 and seg.check_fails == 8
    assert seg.digits_p10 == DIGITS_MIN


def test_digits_p10_is_the_worst_pass():
    seg = Segment()
    run_pass([_fixed(f"a{i}", [(1e-14, True)]) for i in range(10)], seg)
    run_pass([_fixed(f"a{i}", [(1e-6 if i == 0 else 1e-14, True)]) for i in range(10)], seg)
    run_pass([_fixed(f"a{i}", [(1e-14, True)]) for i in range(10)], seg)
    assert math.isclose(seg.digits_p10, 6.0 + 0.9 * 8.0)


def test_timings_are_upper_quartiles_of_each_request():
    req = _fixed("a", [(1e-12, True)])
    seg = Segment()
    for ms in (2, 4, 2, 18, 3):  # the second request: fastest 2 ms, median 3, upper quartile 4
        seg.record(req, 1_000_000, None, None)
        seg.record(req, ms * 1_000_000, None, None)
        seg.end_pass()
    assert seg.request_ms().tolist() == [1.0, 4.0]
    assert math.isclose(seg.checks_per_s(), 2 / 5e-3)
    assert math.isclose(seg.latency_ms(50), 2.5)


def test_stored_passes_stay_bounded():
    req = _fixed("a", [(1e-12, True)])
    seg = Segment()
    for i in range(3 * STORED_PASSES):
        seg.record(req, 1_000_000 if i % 2 else 3_000_000, None, None)
        seg.end_pass()
    assert len(seg._stored) == STORED_PASSES
