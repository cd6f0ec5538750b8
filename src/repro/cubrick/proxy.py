"""Cubrick proxy: the stateless front door for all queries (paper §IV-D).

Every query is submitted to a Cubrick proxy, which:

* runs **admission control** (sliding-window QPS limiting);
* picks the most suitable **region** (availability first, then client
  proximity = configured preference order);
* **retries** queries that failed with retryable errors (hardware
  failure mid-query, unavailable partitions) transparently in a
  different region;
* maintains a **blacklist** of recently failing hosts;
* keeps the **partition-count cache** fresh from query-result metadata
  (locator strategy 4, §IV-C);
* **logs** every query for tracing.

Every call executes: the result cache belongs to the
:class:`~repro.sched.WorkloadManager` in front of the proxy, so direct
callers (``deployment.query``/``deployment.sql``) get the uncached
reference answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.chaos.policies import ResiliencePolicy
from repro.cubrick.coordinator import RegionCoordinator
from repro.cubrick.locator import CachedRandom, CoordinatorLocator
from repro.cubrick.query import Query, QueryResult
from repro.errors import (
    AdmissionControlError,
    ConfigurationError,
    QueryFailedError,
    RegionUnavailableError,
)
from repro.obs import Observability
from repro.sched.admission import SlidingWindowAdmission


@dataclass
class QueryLogEntry:
    """One proxied query, for tracing and SLA accounting."""

    time: float
    table: str
    succeeded: bool
    attempts: int
    region: Optional[str] = None
    latency: Optional[float] = None
    error: Optional[str] = None
    # The answer was accepted through the graceful-degradation path:
    # partial coverage, explicitly labelled (never silently wrong).
    degraded: bool = False


class CubrickProxy:
    """Routes queries to regional coordinators with retries + blacklisting."""

    def __init__(
        self,
        coordinators: dict[str, RegionCoordinator],
        *,
        region_preference: Optional[list[str]] = None,
        home_region: Optional[str] = None,
        locator: Optional[CoordinatorLocator] = None,
        max_qps: float = float("inf"),
        blacklist_ttl: float = 300.0,
        rng: Optional[np.random.Generator] = None,
        policy: Optional[ResiliencePolicy] = None,
        obs: Optional[Observability] = None,
    ):
        if not coordinators:
            raise ConfigurationError("proxy needs at least one region coordinator")
        self.coordinators = dict(coordinators)
        # The unified resilience policy. The default reproduces the
        # pre-policy behaviour exactly: one attempt per candidate
        # region, no backoff, no per-hop timeout, no degradation.
        self.policy = policy if policy is not None else ResiliencePolicy.legacy()
        if home_region is not None and home_region not in coordinators:
            raise ConfigurationError(f"unknown home region: {home_region}")
        self.home_region = home_region
        if region_preference is None and home_region is not None:
            # Client proximity: the home region serves first, replica
            # regions are the cross-region failover path.
            region_preference = [home_region] + sorted(
                r for r in coordinators if r != home_region
            )
        preference = region_preference or sorted(coordinators)
        unknown = set(preference) - set(coordinators)
        if unknown:
            raise ConfigurationError(f"unknown regions in preference: {unknown}")
        self.region_preference = preference
        self.locator = locator if locator is not None else CachedRandom()
        self.admission = SlidingWindowAdmission(max_qps=max_qps)
        self.blacklist_ttl = blacklist_ttl
        self._blacklist: dict[str, float] = {}  # host -> expiry time
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.query_log: list[QueryLogEntry] = []
        self.obs = obs if obs is not None else Observability()
        self._retry_counter = self.obs.metrics.counter("cubrick.proxy.retries")
        self._cross_region_counter = self.obs.metrics.counter(
            "cubrick.proxy.cross_region_served"
        )
        self._latency_histogram = self.obs.metrics.histogram(
            "cubrick.proxy.latency_seconds", track_samples=True
        )

    def _outcome_counter(self, outcome: str):
        return self.obs.metrics.counter("cubrick.proxy.queries", outcome=outcome)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def _now(self) -> float:
        any_coordinator = next(iter(self.coordinators.values()))
        return any_coordinator.sm.simulator.now

    def blacklist_host(self, host_id: str) -> None:
        self._blacklist[host_id] = self._now + self.blacklist_ttl

    def is_blacklisted(self, host_id: str) -> bool:
        expiry = self._blacklist.get(host_id)
        if expiry is None:
            return False
        if expiry <= self._now:
            del self._blacklist[host_id]
            return False
        return True

    def blacklisted_hosts(self) -> list[str]:
        now = self._now
        return sorted(h for h, exp in self._blacklist.items() if exp > now)

    def _candidate_regions(self) -> list[str]:
        """Available regions, in proximity/preference order."""
        candidates = []
        for region in self.region_preference:
            coordinator = self.coordinators[region]
            if coordinator.sm.cluster.region(region).available:
                candidates.append(region)
        return candidates

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: Query,
        *,
        allow_partial: bool = False,
        straggler_timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        policy: Optional[ResiliencePolicy] = None,
    ) -> QueryResult:
        """Route one query; retry retryable failures across regions.

        ``allow_partial``/``straggler_timeout`` select the Scuba-style
        accuracy-for-availability trade (paper §II-C): dead or slow
        hosts are dropped from the answer instead of failing the query;
        the result's ``metadata["coverage"]`` reports completeness.

        ``deadline`` (seconds) is a per-region latency budget: a region
        whose execution exceeds it is treated as failed (exact results,
        just too slow) and the query is hedged to the next region. The
        final result's ``metadata["latency_total"]`` accounts for the
        time burnt on abandoned attempts.

        ``policy`` overrides the proxy's resilience policy for this one
        query: retry budget and backoff (attempts cycle through the
        candidate regions), per-hop timeouts and hedging (enforced by
        the coordinator) and graceful degradation — when the budget is
        exhausted on retryable failures, the query is re-executed in
        partial mode and the answer returned with an explicit
        ``metadata["completeness"]`` fraction instead of failing.

        Raises :class:`AdmissionControlError` when over the QPS limit,
        :class:`RegionUnavailableError` when no region can serve, and
        re-raises the last :class:`QueryFailedError` when all regions
        were tried and failed.
        """
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(f"deadline must be positive: {deadline}")
        # The root span of every query trace. Its duration is the
        # user-visible latency (wasted attempts included); coordinator
        # and per-host scan spans nest beneath it.
        with self.obs.tracer.span("cubrick.proxy.query", table=query.table) as span:
            try:
                result = self._submit(
                    query,
                    allow_partial=allow_partial,
                    straggler_timeout=straggler_timeout,
                    deadline=deadline,
                    policy=policy if policy is not None else self.policy,
                )
            except AdmissionControlError:
                span.annotate(outcome="admission_rejected")
                self._outcome_counter("admission_rejected").inc()
                raise
            except RegionUnavailableError:
                span.annotate(outcome="no_region")
                self._outcome_counter("no_region").inc()
                raise
            except QueryFailedError as exc:
                span.annotate(outcome="failed", error=str(exc))
                self._outcome_counter("failed").inc()
                raise
            latency_total = result.metadata.get("latency_total", 0.0)
            span.set_duration(latency_total)
            span.annotate(
                outcome="ok",
                region=result.metadata.get("region"),
                attempts=result.metadata.get("attempts"),
                degraded=result.metadata.get("degraded", False),
            )
        self._outcome_counter("ok").inc()
        self._latency_histogram.observe(latency_total)
        return result

    def _submit(
        self,
        query: Query,
        *,
        allow_partial: bool,
        straggler_timeout: Optional[float],
        deadline: Optional[float],
        policy: ResiliencePolicy,
    ) -> QueryResult:
        now = self._now
        if not self.admission.admit(now, query.table):
            entry = QueryLogEntry(
                time=now, table=query.table, succeeded=False, attempts=0,
                error="admission_control",
            )
            self.query_log.append(entry)
            self.obs.events.emit(
                "cubrick.proxy.admission_rejected", table=query.table
            )
            raise AdmissionControlError(
                f"query on {query.table} rejected: QPS limit reached"
            )

        regions = self._candidate_regions()
        if not regions:
            entry = QueryLogEntry(
                time=now, table=query.table, succeeded=False, attempts=0,
                error="no_region_available",
            )
            self.query_log.append(entry)
            raise RegionUnavailableError("no region available for query")

        # The retry budget: explicit from the policy, or (legacy) one
        # attempt per candidate region. Attempts cycle through the
        # candidate regions in preference order, with deterministic
        # exponential backoff between them.
        budget = policy.retry.budget(default=len(regions))
        attempts = 0
        timeouts = 0
        wasted_latency = 0.0
        backoff_total = 0.0
        last_error: Optional[QueryFailedError] = None
        for attempt in range(1, budget + 1):
            region = regions[(attempt - 1) % len(regions)]
            coordinator = self.coordinators[region]
            attempts += 1
            info = coordinator.catalog.get(query.table)
            choice = self.locator.choose(
                query.table, info.num_partitions, self._rng
            )
            # Simulated time already burned on earlier attempts: this
            # attempt's span starts that far into the proxy span.
            elapsed = wasted_latency + backoff_total
            try:
                result = coordinator.execute(
                    query,
                    coordinator_partition=choice.partition_index,
                    extra_hops=choice.extra_hops,
                    extra_roundtrips=choice.extra_roundtrips,
                    allow_partial=allow_partial,
                    straggler_timeout=straggler_timeout,
                    policy=policy,
                )
            except QueryFailedError as exc:
                self._shift_last_child(elapsed)
                last_error = exc
                if exc.host is not None:
                    self.blacklist_host(exc.host)
                    self.obs.events.emit(
                        "cubrick.proxy.host_blacklisted",
                        host=exc.host,
                        region=str(exc.region),
                    )
                if not exc.retryable:
                    break
                self._retry_counter.inc()
                if attempt < budget:
                    backoff_total += policy.retry.backoff_delay(
                        attempt, self._rng
                    )
                continue  # transparently retry (next candidate region)
            self._shift_last_child(elapsed)
            latency = result.metadata.get("latency", 0.0)
            if deadline is not None and latency > deadline:
                # Too slow: abandon this answer at the deadline and hedge
                # to the next region.
                timeouts += 1
                wasted_latency += deadline
                last_error = QueryFailedError(
                    f"query on {query.table} exceeded {deadline}s deadline "
                    f"in {region}",
                    region=region,
                )
                self._retry_counter.inc()
                self.obs.events.emit(
                    "cubrick.proxy.deadline_exceeded",
                    table=query.table,
                    region=region,
                    deadline=deadline,
                    latency=latency,
                )
                if attempt < budget:
                    backoff_total += policy.retry.backoff_delay(
                        attempt, self._rng
                    )
                continue
            self.locator.observe_result(
                query.table,
                result.metadata.get("num_partitions", 0),
                result.metadata.get("generation", 0),
            )
            if self.home_region is not None and region != self.home_region:
                # Served by a replica region — the cross-region failover
                # path the multi-region deployment exists for.
                self._cross_region_counter.inc()
                if self.home_region not in regions:
                    self.obs.events.emit(
                        "cubrick.proxy.cross_region_failover",
                        table=query.table,
                        home=self.home_region,
                        served_by=region,
                    )
            self.query_log.append(
                QueryLogEntry(
                    time=now,
                    table=query.table,
                    succeeded=True,
                    attempts=attempts,
                    region=region,
                    latency=latency,
                )
            )
            result.metadata["attempts"] = attempts
            result.metadata["timeouts"] = timeouts
            result.metadata["backoff_total"] = backoff_total
            result.metadata["latency_total"] = (
                wasted_latency + backoff_total + latency
            )
            return result

        if (
            policy.degradation.enabled
            and not allow_partial
            and last_error is not None
            and last_error.retryable
        ):
            degraded = self._degraded_submit(
                query,
                regions,
                policy,
                now=now,
                attempts=attempts,
                timeouts=timeouts,
                wasted_latency=wasted_latency + backoff_total,
            )
            if degraded is not None:
                return degraded

        message = str(last_error) if last_error else "all regions failed"
        self.query_log.append(
            QueryLogEntry(
                time=now, table=query.table, succeeded=False,
                attempts=attempts, error=message,
            )
        )
        self.obs.events.emit(
            "cubrick.proxy.query_failed",
            table=query.table,
            attempts=attempts,
            error=message,
        )
        if last_error is not None:
            raise last_error
        raise RegionUnavailableError(message)

    def _degraded_submit(
        self,
        query: Query,
        regions: list[str],
        policy: ResiliencePolicy,
        *,
        now: float,
        attempts: int,
        timeouts: int,
        wasted_latency: float,
    ) -> Optional[QueryResult]:
        """Graceful degradation: partial answer with explicit completeness.

        After the retry budget is exhausted on retryable failures, the
        query is re-executed region by region in partial mode (dead and
        timed-out hosts dropped). The first answer covering at least the
        policy's ``min_completeness`` is returned, labelled with
        ``metadata["degraded"] = True`` and ``metadata["completeness"]``
        — an accepted query never silently drops rows. Returns None when
        no region can produce an acceptable partial answer.
        """
        for region in regions:
            coordinator = self.coordinators[region]
            attempts += 1
            info = coordinator.catalog.get(query.table)
            choice = self.locator.choose(
                query.table, info.num_partitions, self._rng
            )
            try:
                result = coordinator.execute(
                    query,
                    coordinator_partition=choice.partition_index,
                    extra_hops=choice.extra_hops,
                    extra_roundtrips=choice.extra_roundtrips,
                    allow_partial=True,
                    straggler_timeout=policy.timeout.per_hop,
                    policy=policy,
                )
            except QueryFailedError:
                self._shift_last_child(wasted_latency)
                continue  # e.g. unresolved shard mapping: try elsewhere
            self._shift_last_child(wasted_latency)
            coverage = result.metadata.get("coverage", 0.0)
            if coverage < policy.degradation.min_completeness:
                continue
            latency = result.metadata.get("latency", 0.0)
            self.query_log.append(
                QueryLogEntry(
                    time=now,
                    table=query.table,
                    succeeded=True,
                    attempts=attempts,
                    region=region,
                    latency=latency,
                    degraded=True,
                )
            )
            self.obs.events.emit(
                "cubrick.proxy.query_degraded",
                table=query.table,
                region=region,
                completeness=coverage,
                attempts=attempts,
            )
            result.metadata["attempts"] = attempts
            result.metadata["timeouts"] = timeouts
            result.metadata["degraded"] = True
            result.metadata["completeness"] = coverage
            result.metadata["latency_total"] = wasted_latency + latency
            return result
        return None

    def _shift_last_child(self, offset: float) -> None:
        """Shift the just-finished coordinator attempt onto the timeline.

        The DES clock does not advance inside a submission, so every
        coordinator attempt's span opens at the proxy span's start; on
        the simulated schedule attempt N starts after the latency wasted
        on earlier attempts plus backoff. Shifting the finished subtree
        restores that timeline, so profiler stage self-times line up
        with ``latency_total``.
        """
        span = self.obs.tracer.current
        if offset > 0.0 and span is not None and span.children:
            span.children[-1].shift(offset)

    # ------------------------------------------------------------------
    # SLA accounting
    # ------------------------------------------------------------------

    def success_ratio(self) -> float:
        if not self.query_log:
            return 1.0
        succeeded = sum(1 for e in self.query_log if e.succeeded)
        return succeeded / len(self.query_log)

    def degraded_ratio(self) -> float:
        """Fraction of logged queries answered via graceful degradation."""
        if not self.query_log:
            return 0.0
        degraded = sum(1 for e in self.query_log if e.degraded)
        return degraded / len(self.query_log)

    def first_try_success_ratio(self) -> float:
        """Success without needing a cross-region retry."""
        if not self.query_log:
            return 1.0
        first_try = sum(
            1 for e in self.query_log if e.succeeded and e.attempts == 1
        )
        return first_try / len(self.query_log)

    def latencies(self) -> list[float]:
        return [e.latency for e in self.query_log
                if e.succeeded and e.latency is not None]
