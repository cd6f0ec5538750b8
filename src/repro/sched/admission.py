"""Admission control: sliding windows, token buckets, adaptive shedding.

Three generations of the proxy front door live here:

* :class:`SlidingWindowAdmission` — the original 37-line sliding-window
  QPS limiter absorbed from ``repro.cubrick.proxy``, which uses it as
  ``proxy.admission``. Includes the fast-path fix: arrivals are
  recorded even while no limit is configured, so tightening ``max_qps``
  mid-run sees the true recent rate instead of an empty window.
* :class:`TokenBucket` — deterministic token bucket refilled from the
  virtual clock; the building block for global and per-tenant quotas.
* :class:`AdmissionControllerV2` — the workload-management front door:
  a global bucket, per-tenant buckets (the multi-tenant fairness lever,
  paper §II-C) and an optional :class:`AdaptiveShedder` that reads the
  observed success ratio from the shared ``repro.obs`` metrics registry
  and sheds lowest-priority-first to defend the SLA under overload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.sched.queue import PriorityClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import MetricsRegistry

#: Admission decision reasons (also used as obs counter labels).
REASON_OK = "ok"
REASON_QUOTA = "quota"
REASON_TENANT_QUOTA = "tenant_quota"
REASON_SHED = "shed"


@dataclass
class SlidingWindowAdmission:
    """Sliding-window QPS limiter, global plus per-table quotas.

    Per-table quotas are the multi-tenant fairness lever: the paper
    notes multi-tenant systems must keep single users or tables from
    monopolising cluster capacity (§II-C); table-level rate limits are
    the query-side counterpart of the table-size limits it describes.
    """

    max_qps: float = float("inf")
    window: float = 1.0
    table_qps: dict = field(default_factory=dict)
    _recent: deque = field(default_factory=deque)
    _recent_per_table: dict = field(default_factory=dict)

    def set_table_quota(self, table: str, max_qps: float) -> None:
        if max_qps <= 0:
            raise ValueError(f"table quota must be positive: {max_qps}")
        self.table_qps[table] = max_qps

    def admit(self, now: float, table: Optional[str] = None) -> bool:
        # Admitted queries are recorded unconditionally — even while no
        # limit is configured. The old fast path returned early when
        # ``max_qps`` was infinite and the table had no quota, so
        # tightening the global limit mid-run started from an *empty*
        # window and over-admitted a full window's worth of traffic.
        while self._recent and now - self._recent[0] >= self.window:
            self._recent.popleft()
        if len(self._recent) >= self.max_qps * self.window:
            return False
        quota = self.table_qps.get(table) if table is not None else None
        if quota is not None:
            recent = self._recent_per_table.setdefault(table, deque())
            while recent and now - recent[0] >= self.window:
                recent.popleft()
            if len(recent) >= quota * self.window:
                return False
            recent.append(now)
        self._recent.append(now)
        return True


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/s up to ``burst``.

    Refill is computed from the caller-supplied virtual time, so two
    identically-seeded runs make identical decisions. The bucket starts
    full at the time of its first use.
    """

    def __init__(self, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ConfigurationError(f"token rate must be positive: {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst <= 0:
            raise ConfigurationError(f"burst must be positive: {self.burst}")
        self.tokens = self.burst
        self._last: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last is None:
            self._last = now
            return
        elapsed = max(0.0, now - self._last)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._last = now

    def peek(self, now: float, n: float = 1.0) -> bool:
        """Would ``n`` tokens be available at ``now``? (refills, no take)"""
        self._refill(now)
        return self.tokens >= n

    def take(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; returns success."""
        self._refill(now)
        if self.tokens < n:
            return False
        self.tokens -= n
        return True


class AdaptiveShedder:
    """SLA-defending load shedder, lowest-priority-first.

    Reads the observed success ratio from the shared metrics registry
    (the ``repro.sched.sla{outcome=ok|miss}`` counters the workload
    manager maintains) over a sliding window, combines it with queue
    pressure, and keeps a shed *level* in ``[0, 1]``:

    * SLA breach or near-full queues → level jumps up (multiplicative);
    * healthy window → level decays linearly with virtual time.

    The level maps onto the priority ladder: BACKGROUND sheds first
    (level ≥ 0.25), BATCH next (level ≥ 0.5); INTERACTIVE is the class
    the SLA defends and is never shed. Everything is driven by the
    virtual clock and counter values — no RNG, no wall time — so seeded
    runs shed byte-identically.
    """

    #: Shed thresholds per priority class (INTERACTIVE never sheds).
    THRESHOLDS = {
        PriorityClass.BACKGROUND: 0.25,
        PriorityClass.BATCH: 0.5,
        PriorityClass.INTERACTIVE: float("inf"),
    }

    def __init__(
        self,
        metrics: "MetricsRegistry",
        *,
        sla_target: float = 0.99,
        window: float = 5.0,
        min_samples: int = 20,
        step_up: float = 0.25,
        recovery_per_second: float = 0.1,
        pressure_trigger: float = 0.8,
        pressure_fn: Optional[Callable[[], float]] = None,
    ):
        if not 0.0 < sla_target <= 1.0:
            raise ConfigurationError(f"sla_target out of range: {sla_target}")
        if window <= 0:
            raise ConfigurationError(f"window must be positive: {window}")
        self._ok = metrics.counter("repro.sched.sla", outcome="ok")
        self._miss = metrics.counter("repro.sched.sla", outcome="miss")
        self.sla_target = sla_target
        self.window = window
        self.min_samples = min_samples
        self.step_up = step_up
        self.recovery_per_second = recovery_per_second
        self.pressure_trigger = pressure_trigger
        self.pressure_fn = pressure_fn
        self.level = 0.0
        self.max_level = 0.0
        self._snapshots: deque = deque()  # (time, ok_count, miss_count)
        self._last_update: Optional[float] = None

    def observed_success_ratio(self, now: float) -> Optional[float]:
        """Success ratio over the trailing window, from the obs counters.

        Returns None until the window holds ``min_samples`` outcomes.
        """
        self._snapshots.append((now, self._ok.value, self._miss.value))
        while self._snapshots and now - self._snapshots[0][0] > self.window:
            self._snapshots.popleft()
        then_time, ok0, miss0 = self._snapshots[0]
        ok = self._ok.value - ok0
        miss = self._miss.value - miss0
        total = ok + miss
        if total < self.min_samples:
            return None
        return ok / total

    def update(self, now: float) -> float:
        """Advance the shed level; returns the new level."""
        ratio = self.observed_success_ratio(now)
        pressure = self.pressure_fn() if self.pressure_fn is not None else 0.0
        breaching = (ratio is not None and ratio < self.sla_target) or (
            pressure >= self.pressure_trigger
        )
        if breaching:
            self.level = min(1.0, self.level + self.step_up)
        elif self._last_update is not None:
            elapsed = max(0.0, now - self._last_update)
            self.level = max(0.0, self.level - elapsed * self.recovery_per_second)
        self._last_update = now
        self.max_level = max(self.max_level, self.level)
        return self.level

    def should_shed(self, now: float, priority: PriorityClass) -> bool:
        """Decide for one arrival (also advances the level)."""
        self.update(now)
        return self.level >= self.THRESHOLDS[priority]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str  # REASON_OK | REASON_QUOTA | REASON_TENANT_QUOTA | REASON_SHED


class AdmissionControllerV2:
    """Token-bucket admission with per-tenant quotas and adaptive shedding.

    Decision order: shed check first (shedding exists to protect the
    work the buckets would otherwise admit), then the global bucket,
    then the tenant's bucket. Bucket tokens are only consumed when the
    query is admitted — a rejection never burns quota.
    """

    def __init__(
        self,
        *,
        global_rate: Optional[float] = None,
        global_burst: Optional[float] = None,
        tenant_rates: Optional[dict[str, float]] = None,
        default_tenant_rate: Optional[float] = None,
        shedder: Optional[AdaptiveShedder] = None,
    ):
        self.global_bucket = (
            TokenBucket(global_rate, global_burst) if global_rate is not None else None
        )
        self._tenant_rates = dict(tenant_rates or {})
        self.default_tenant_rate = default_tenant_rate
        self.tenant_buckets: dict[str, TokenBucket] = {}
        self.shedder = shedder

    def set_tenant_rate(self, tenant: str, rate: float) -> None:
        self._tenant_rates[tenant] = rate
        self.tenant_buckets.pop(tenant, None)

    def _bucket_for(self, tenant: Optional[str]) -> Optional[TokenBucket]:
        if tenant is None:
            return None
        bucket = self.tenant_buckets.get(tenant)
        if bucket is None:
            rate = self._tenant_rates.get(tenant, self.default_tenant_rate)
            if rate is None:
                return None
            bucket = TokenBucket(rate)
            self.tenant_buckets[tenant] = bucket
        return bucket

    def decide(
        self,
        now: float,
        *,
        tenant: Optional[str] = None,
        priority: PriorityClass = PriorityClass.INTERACTIVE,
    ) -> AdmissionDecision:
        """One admission decision at virtual time ``now``."""
        if self.shedder is not None and self.shedder.should_shed(now, priority):
            return AdmissionDecision(False, REASON_SHED)
        tenant_bucket = self._bucket_for(tenant)
        if self.global_bucket is not None and not self.global_bucket.peek(now):
            return AdmissionDecision(False, REASON_QUOTA)
        if tenant_bucket is not None and not tenant_bucket.peek(now):
            return AdmissionDecision(False, REASON_TENANT_QUOTA)
        # Both checks passed: commit the tokens.
        if self.global_bucket is not None:
            self.global_bucket.take(now)
        if tenant_bucket is not None:
            tenant_bucket.take(now)
        return AdmissionDecision(True, REASON_OK)
