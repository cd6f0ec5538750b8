"""The sample-count rule, backlog detection and the ladder verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Percentiles the sample-count rule chooses from, highest first.
CANDIDATES = (99.9, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)
#: A ladder step may fail at most this share of its reads.
MAX_FAIL_RATIO = 0.01


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond ``p``."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile ``n`` samples support, if any."""
    for p in CANDIDATES:
        if supports(n, p):
            return p
    return None


def backlog_growing(due: Sequence[float], latency: Sequence[float]) -> bool:
    """Whether latency climbed steadily through a step (a queue that never drains).

    Splits the requests (by due time) into quarters: a growing queue
    raises the median latency of every quarter over the one before by
    at least ``min_rise`` s. One stall (a collector pause) lifts a single
    quarter and does not count.
    """
    min_rise = 0.002
    if len(due) < 8:
        return False
    ordered = [lat for __, lat in sorted(zip(due, latency))]
    quarter = len(ordered) // 4
    medians = [np.median(ordered[i * quarter:(i + 1) * quarter]) for i in range(4)]
    return all(later - earlier >= min_rise for earlier, later in zip(medians, medians[1:]))


@dataclass
class StepResult:
    """One ladder step: offered rate and what the reads saw."""

    rate: float
    latencies_ms: list
    due: list
    attempted: int
    failed: int
    #: Reads answered per second over the step (achieved throughput).
    achieved_qps: float

    def tail_ms(self) -> Optional[float]:
        p = 99.0 if supports(len(self.latencies_ms), 99.0) else tail_percentile(
            len(self.latencies_ms)
        )
        return None if p is None else float(np.percentile(self.latencies_ms, p))

    def backlog(self) -> bool:
        return backlog_growing(self.due, [v / 1e3 for v in self.latencies_ms])

    def passes(self, limit_ms: float) -> bool:
        """Tail <= limit, failures <= 1 %, and no growing backlog."""
        if self.attempted == 0:
            return False
        tail = self.tail_ms()
        return (
            tail is not None
            and tail <= limit_ms
            and self.failed <= MAX_FAIL_RATIO * self.attempted
            and not self.backlog()
        )


def ladder_verdict(steps: Sequence[StepResult], limit_ms: float) -> Optional[StepResult]:
    """The passing step of highest offered rate, or None.

    ``steps[0]`` is the nominal window: when it fails, no rate passes.
    """
    if not steps or not steps[0].passes(limit_ms):
        return None
    return max((s for s in steps if s.passes(limit_ms)), key=lambda s: s.rate)


class LadderSearch:
    """The rates a ladder offers: geometric steps up to a failure, then bisection.

    Steps climb from ``start`` by ``ratio`` until one fails or the next
    would pass ``top``. Then ``refine`` geometric bisections between the
    highest passing and the lowest failing rate narrow the knee to a
    factor of ``ratio ** (1 / 2 ** refine)``. ``floor`` is a rate known
    to pass (the nominal rate), the lower end when the first step fails.
    """

    def __init__(self, floor: float, start: float, ratio: float, top: float, refine: int):
        self.passed = floor
        self.failed: Optional[float] = None
        self._next: Optional[float] = start
        self._ratio = ratio
        self._top = top
        self._refine = refine

    def next_rate(self) -> Optional[float]:
        """The rate to offer next, or None when the search is done."""
        return self._next

    def record(self, rate: float, ok: bool) -> None:
        """Record the verdict of the step offered at ``rate``."""
        bisecting = self.failed is not None
        if ok:
            self.passed = max(self.passed, rate)
        else:
            self.failed = rate if self.failed is None else min(self.failed, rate)
        if bisecting:
            self._refine -= 1
        if self.failed is None:
            rate = self.passed * self._ratio
            self._next = rate if rate <= self._top else None
        elif self._refine > 0:
            self._next = math.sqrt(self.passed * self.failed)
        else:
            self._next = None
