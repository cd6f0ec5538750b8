"""The sample-count rule, backlog detection, the ladder search and its verdict."""

from __future__ import annotations

import math

import pytest

from stats import (
    LadderSearch,
    StepResult,
    backlog_growing,
    ladder_verdict,
    supports,
    tail_percentile,
)


@pytest.mark.parametrize("n, p, ok", [
    (1000, 99.0, True), (999, 99.0, False), (10000, 99.9, True), (200, 95.0, True),
    (199, 95.0, False),
])
def test_a_percentile_needs_ten_samples_beyond_it(n, p, ok):
    assert supports(n, p) is ok


@pytest.mark.parametrize("n, p", [
    (10000, 99.9), (1000, 99.0), (999, 98.0), (400, 97.5), (200, 95.0), (100, 90.0),
    (20, 50.0), (19, None),
])
def test_tail_percentile_is_the_highest_supported(n, p):
    assert tail_percentile(n) == p


def _step(rate, latencies_ms, failed=0):
    due = [i / rate for i in range(len(latencies_ms))]
    return StepResult(rate, list(latencies_ms), due, len(latencies_ms) + failed, failed, rate)


def test_backlog_growing_needs_a_steady_climb_not_one_stall():
    steady = [0.002] * 400
    stalled = list(steady)
    stalled[350:380] = [0.08] * 30
    climbing = [0.002 + 0.0005 * i for i in range(400)]
    due = list(range(400))
    assert not backlog_growing(due, steady)
    assert not backlog_growing(due, stalled)
    assert backlog_growing(due, climbing)


def test_ladder_verdict_is_the_highest_passing_rate():
    ok = [2.0] * 1000
    steps = [
        _step(100, ok),
        _step(200, ok),
        _step(400, [2.0] * 980 + [900.0] * 20),  # p99 over the limit
        _step(283, ok),
        _step(336, [2.0] * 980 + [900.0] * 20),
    ]
    assert ladder_verdict(steps, limit_ms=250).rate == 283


def test_ladder_verdict_needs_the_nominal_window_to_pass():
    slow = [2.0] * 980 + [900.0] * 20
    assert ladder_verdict([_step(100, slow), _step(200, [2.0] * 1000)], 250) is None


def _search(capacity, floor=45.0, start=70.0, ratio=1.2, top=1000.0, refine=2):
    search = LadderSearch(floor, start, ratio, top, refine)
    offered = []
    while (rate := search.next_rate()) is not None:
        offered.append(rate)
        search.record(rate, rate <= capacity)
    return search, offered


def test_ladder_search_climbs_then_bisects_the_knee():
    search, offered = _search(capacity=150.0)
    grid = [70 * 1.2 ** k for k in range(6)]  # 70 ... 174.2, the first to fail
    assert offered[:6] == pytest.approx(grid)
    assert len(offered) == 8
    assert offered[6] == pytest.approx(math.sqrt(grid[4] * grid[5]))
    assert search.passed <= 150.0 < search.failed
    assert search.failed / search.passed <= 1.2 ** 0.25 + 1e-9


def test_ladder_search_bisects_down_to_the_floor_and_stops_at_the_top():
    search, offered = _search(capacity=50.0)
    assert offered[0] == 70.0 and len(offered) == 3
    assert search.passed == 45.0 and search.failed < 56.0
    search, offered = _search(capacity=1e9)
    assert max(offered) <= 1000.0 < max(offered) * 1.2
    assert search.failed is None


def test_ladder_step_fails_on_failures_or_backlog():
    assert _step(100, [2.0] * 1000, failed=10).passes(250)
    assert not _step(100, [2.0] * 1000, failed=11).passes(250)
    assert not _step(100, [2.0 + 0.5 * i for i in range(400)]).passes(10_000)
    assert ladder_verdict([_step(100, [2.0] * 1000, failed=500)], 250) is None


def test_small_steps_judge_the_tail_they_can_support():
    # 200 samples support p95, not p99: nine slow answers sit above p95.
    step = _step(100, [2.0] * 191 + [400.0] * 9)
    assert step.tail_ms() == pytest.approx(2.0)
    assert step.passes(250)
