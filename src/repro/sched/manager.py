"""WorkloadManager: the workload-management front door over the proxy.

Ties the subsystem together for one deployment::

    arrival ──► result cache ──► admission (buckets + shedder) ──► per-node
                (bypass)          reject: quota / tenant / shed     ExecutorQueue
                                                                    reject: queue_full
                                                                    drop:   deadline
                                                                        │
                                                                        ▼
                                                               CubrickProxy.submit

Every submitted query produces exactly one :class:`JobRecord` whose
outcome is one of ``ok | failed | cache_hit | shed | quota |
tenant_quota | queue_full | deadline``. Rejections and sheds are *not*
silent: each increments a ``repro.sched.admission`` counter labelled by
reason and emits a structured event, so overload shows up in ``repro
obs`` output and post-mortem dumps.

The SLA the manager accounts (and the adaptive shedder defends) is
**admitted-query success**: of the queries given a queue slot (or served
from cache), the fraction that completed within their deadline. Shed
and rejected queries hurt *goodput*, not the SLA — that is the paper's
trade restated for overload: shed explicitly and keep your promise to
what you admitted, or admit everything and break it for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.sched.admission import (
    REASON_OK,
    AdaptiveShedder,
    AdmissionControllerV2,
)
from repro.sched.cache import CACHE_HIT_LATENCY, QueryResultCache, table_versions
from repro.sched.queue import (
    OUTCOME_OK,
    ExecutorQueue,
    PriorityClass,
    ScheduledJob,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import CubrickDeployment
    from repro.cubrick.query import Query, QueryResult


@dataclass(frozen=True)
class SchedPolicy:
    """Knobs for one workload-management configuration.

    :meth:`legacy` reproduces the pre-subsystem behaviour — unbounded
    queue depth, no admission beyond the proxy's sliding window, no
    shedding, no cache, deadlines recorded for SLA accounting but never
    enforced — the configuration the overload demo shows collapsing.
    """

    slots_per_node: int = 4
    max_queue_depth: Optional[int] = 32
    #: Per-query latency budget, seconds (relative to arrival). Used for
    #: EDF ordering, queue-side drops, and SLA accounting.
    deadline: Optional[float] = 2.0
    #: False = deadlines are accounted but never enforced (legacy).
    enforce_deadlines: bool = True
    global_rate: Optional[float] = None
    tenant_rate: Optional[float] = None
    adaptive_shedding: bool = True
    sla_target: float = 0.99
    shed_window: float = 5.0
    cache_capacity: int = 256

    @classmethod
    def managed(cls, **overrides) -> "SchedPolicy":
        """The defended configuration (defaults, overridable)."""
        return cls(**overrides)

    @classmethod
    def legacy(cls, **overrides) -> "SchedPolicy":
        """Pre-workload-management behaviour: admit everything, queue forever."""
        params = dict(
            max_queue_depth=None,
            enforce_deadlines=False,
            global_rate=None,
            tenant_rate=None,
            adaptive_shedding=False,
            cache_capacity=0,
        )
        params.update(overrides)
        return cls(**params)


@dataclass
class JobRecord:
    """The client-visible record of one submitted query."""

    index: int
    tenant: Optional[str]
    priority: PriorityClass
    table: str
    submitted: float
    outcome: str = "pending"
    queue_delay: float = 0.0
    latency: float = 0.0  # queue delay + service time (client-observed)
    sla_ok: bool = False
    node: Optional[str] = None  # executor queue that served it
    error: Optional[str] = None
    #: The answer itself (cache hit or fresh execution). The serving
    #: tier returns it to clients; simulation-side consumers that only
    #: tally outcomes can keep ignoring it.
    result: Optional["QueryResult"] = None

    @property
    def admitted(self) -> bool:
        """Given capacity: queued (even if later dropped) or cache-served."""
        return self.outcome in ("ok", "failed", "deadline", "cache_hit")


class WorkloadManager:
    """Admission, caching and executor queues in front of one deployment."""

    def __init__(
        self,
        deployment: "CubrickDeployment",
        *,
        policy: Optional[SchedPolicy] = None,
    ):
        self.deployment = deployment
        self.policy = policy if policy is not None else SchedPolicy()
        self.obs = deployment.obs
        simulator = deployment.simulator
        # One executor queue per region's coordinator node — the
        # execution entry point of each region in this architecture.
        self.queues: dict[str, ExecutorQueue] = {
            region: ExecutorQueue(
                simulator,
                name=region,
                slots=self.policy.slots_per_node,
                max_depth=self.policy.max_queue_depth,
                obs=self.obs,
            )
            for region in sorted(deployment.coordinators)
        }
        self._queue_order = sorted(self.queues)
        self._next_queue = 0
        shedder = None
        if self.policy.adaptive_shedding:
            shedder = AdaptiveShedder(
                self.obs.metrics,
                sla_target=self.policy.sla_target,
                window=self.policy.shed_window,
                pressure_fn=self.queue_pressure,
            )
        self.shedder = shedder
        if (
            self.policy.global_rate is not None
            or self.policy.tenant_rate is not None
            or shedder is not None
        ):
            self.admission: Optional[AdmissionControllerV2] = AdmissionControllerV2(
                global_rate=self.policy.global_rate,
                default_tenant_rate=self.policy.tenant_rate,
                shedder=shedder,
            )
        else:
            self.admission = None
        #: The result cache: probed in :meth:`submit`, filled in
        #: :meth:`_execute`. None when the policy disables caching.
        self.cache: Optional[QueryResultCache] = (
            QueryResultCache(self.policy.cache_capacity)
            if self.policy.cache_capacity > 0
            else None
        )
        self.records: list[JobRecord] = []
        self._outstanding = 0
        self._sla_ok = self.obs.metrics.counter("repro.sched.sla", outcome="ok")
        self._sla_miss = self.obs.metrics.counter("repro.sched.sla", outcome="miss")

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def queue_pressure(self) -> float:
        """Worst queue fullness across executor nodes, in [0, 1]."""
        return max(queue.pressure for queue in self.queues.values())

    def outstanding(self) -> int:
        """Jobs submitted but not yet resolved."""
        return self._outstanding

    def admitted_success_ratio(self) -> float:
        """SLA-met fraction of admitted (queued or cache-served) queries."""
        admitted = [r for r in self.records if r.admitted]
        if not admitted:
            return 1.0
        return sum(1 for r in admitted if r.sla_ok) / len(admitted)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: "Query",
        *,
        tenant: Optional[str] = None,
        priority: PriorityClass = PriorityClass.INTERACTIVE,
        on_done: Optional[Callable[[JobRecord], None]] = None,
    ) -> JobRecord:
        """Submit one query through admission, cache and the queues.

        Returns the job's record immediately; its ``outcome`` resolves
        either synchronously (cache hit, shed, rejection) or when the
        queue completes it in virtual time. ``on_done`` fires exactly
        once in both cases.
        """
        now = self.deployment.simulator.now
        record = JobRecord(
            index=len(self.records),
            tenant=tenant,
            priority=priority,
            table=query.table,
            submitted=now,
        )
        self.records.append(record)

        if self.cache is not None:
            hit = self.cache.get(
                query, table_versions(self.deployment.catalog, query)
            )
            if hit is not None:
                record.outcome = "cache_hit"
                record.result = hit
                record.latency = CACHE_HIT_LATENCY
                record.sla_ok = True
                self._sla_ok.inc()
                self.obs.metrics.counter(
                    "repro.sched.cache", outcome="hit"
                ).inc()
                if on_done is not None:
                    on_done(record)
                return record
            self.obs.metrics.counter("repro.sched.cache", outcome="miss").inc()

        if self.admission is not None:
            decision = self.admission.decide(now, tenant=tenant, priority=priority)
            if not decision.admitted:
                record.outcome = decision.reason
                self._count_rejection(decision.reason, record)
                if on_done is not None:
                    on_done(record)
                return record
            self.obs.metrics.counter(
                "repro.sched.admission", reason=REASON_OK
            ).inc()

        queue_name = self._queue_order[self._next_queue % len(self._queue_order)]
        self._next_queue += 1
        record.node = queue_name
        deadline = None
        if self.policy.deadline is not None and self.policy.enforce_deadlines:
            deadline = now + self.policy.deadline
        job = ScheduledJob(
            label=f"{tenant or 'anon'}:{query.table}",
            priority=priority,
            deadline=deadline,
            execute=lambda: self._execute(query, record),
            on_complete=lambda job: self._finish(record, job, on_done),
        )
        self._outstanding += 1
        self.queues[queue_name].submit(job)
        return record

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _execute(self, query: "Query", record: JobRecord) -> float:
        """Run one query through the proxy; returns its total latency.

        The fresh answer is stored in the cache under the version
        snapshot read just before execution, so a load that lands while
        the query runs makes the entry unreachable instead of stale.

        A managed query's trace is rooted here: the root span is
        backdated to the job's arrival with an explicit queue-wait child
        covering [submitted, dispatch], then the proxy's span (and the
        whole coordinator/scan subtree) nests beneath it, so profiles
        attribute end-to-end wall time from submission to completion.
        """
        now = self.deployment.simulator.now
        queue_wait = max(0.0, now - record.submitted)
        versions = table_versions(self.deployment.catalog, query)
        with self.obs.tracer.span(
            "repro.sched.query",
            table=query.table,
            tenant=str(record.tenant),
            priority=record.priority.name.lower(),
        ) as root:
            root.start = record.submitted
            with self.obs.tracer.span("repro.sched.queue.wait") as wait_span:
                wait_span.start = record.submitted
                wait_span.set_duration(queue_wait)
                wait_span.annotate(queue=str(record.node))
            with self.obs.tracer.span("repro.sched.admission") as adm_span:
                adm_span.set_duration(0.0)
                adm_span.annotate(reason=REASON_OK)
            try:
                result = self.deployment.proxy.submit(query)
            except Exception as exc:
                root.set_duration(queue_wait)
                root.annotate(outcome="failed", error=str(exc))
                raise
            if self.cache is not None:
                self.cache.put(query, result, versions)
            record.result = result
            latency = float(result.metadata.get("latency_total", 0.0))
            root.set_duration(queue_wait + latency)
            root.annotate(outcome="ok", queue_wait=queue_wait)
        return latency

    def _finish(
        self,
        record: JobRecord,
        job: ScheduledJob,
        on_done: Optional[Callable[[JobRecord], None]],
    ) -> None:
        self._outstanding -= 1
        record.outcome = job.outcome
        record.queue_delay = job.queue_delay
        record.latency = job.total_latency
        record.error = job.error
        sla_deadline = (
            record.submitted + self.policy.deadline
            if self.policy.deadline is not None
            else None
        )
        if job.outcome == OUTCOME_OK:
            record.sla_ok = (
                sla_deadline is None
                or (job.completed is not None and job.completed <= sla_deadline)
            )
        else:
            record.sla_ok = False
        if record.admitted:
            (self._sla_ok if record.sla_ok else self._sla_miss).inc()
        if job.outcome in ("queue_full", "deadline"):
            self._count_rejection(job.outcome, record)
        if on_done is not None:
            on_done(record)

    def _count_rejection(self, reason: str, record: JobRecord) -> None:
        self.obs.metrics.counter("repro.sched.admission", reason=reason).inc()
        self.obs.events.emit(
            "repro.sched.rejected",
            reason=reason,
            tenant=str(record.tenant),
            table=record.table,
            priority=record.priority.name.lower(),
        )

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def drain(self, *, max_time: float = 900.0, step: float = 5.0) -> bool:
        """Advance virtual time until every submitted job resolves.

        Returns True when fully drained; False if ``max_time`` virtual
        seconds elapsed first (pathological backlogs — report what
        happened rather than spinning forever).
        """
        if step <= 0:
            raise ConfigurationError(f"drain step must be positive: {step}")
        simulator = self.deployment.simulator
        horizon = simulator.now + max_time
        while self._outstanding and simulator.now < horizon:
            simulator.run_until(min(simulator.now + step, horizon))
        return self._outstanding == 0
