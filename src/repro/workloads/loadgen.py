"""Open/closed-loop traffic generation and the overload-vs-SLA experiment.

The ROADMAP north-star is "serve heavy traffic from millions of users";
this module is where heavy traffic comes from. A
:class:`TrafficGenerator` drives a :class:`~repro.sched.WorkloadManager`
with multi-tenant query streams on the DES clock:

* **open loop** — arrivals at a fixed rate with seeded-exponential
  inter-arrival times, independent of completions (the overload model:
  users do not slow down because the system is slow);
* **closed loop** — a fixed number of clients, each resubmitting after
  its previous query resolves plus a think time (the saturation model:
  concurrency is bounded by the client population).

Tenant traffic shares are Zipf-skewed (a few hot tenants dominate, the
shape the paper's multi-tenant discussion assumes), tenant priority
classes cycle ``BACKGROUND → BATCH → INTERACTIVE`` from hottest to
coldest — so the heaviest traffic is the most sheddable, the setting in
which SLA-defending shedding can work at all — and each tenant replays
a small fixed pool of dashboard queries, which is what makes the result
cache earn its keep.

:func:`run_overload_experiment` is the acceptance harness: the same
seeded 5x-saturation storm against a managed policy (bounded queues,
EDF deadlines, adaptive shedding, cache) and against
:meth:`~repro.sched.SchedPolicy.legacy` (admit everything, queue
forever). The report renders byte-identically for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import interpolated_percentiles
from repro.sched.manager import SchedPolicy, WorkloadManager
from repro.sched.queue import PriorityClass
from repro.workloads.queries import QueryGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cubrick.query import Query

#: Priority ladder by tenant heat rank: the hottest tenant is the most
#: sheddable, the coldest the most protected.
_PRIORITY_CYCLE = (
    PriorityClass.BACKGROUND,
    PriorityClass.BATCH,
    PriorityClass.INTERACTIVE,
)


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic identity."""

    name: str
    weight: float  # share of total traffic (sums to 1.0 across tenants)
    priority: PriorityClass


def zipf_tenant_weights(tenants: int, zipf_s: float) -> list[float]:
    """Normalised Zipf traffic shares for ``tenants`` ranked hot-to-cold.

    The one tenant-skew formula every load harness shares —
    :class:`TrafficGenerator` on the DES clock and the wire-level
    benchmark (``perfbench/``) on the real clock draw from the same
    distribution, so their mixes are comparable.
    """
    if tenants <= 0:
        raise ConfigurationError(f"tenants must be positive: {tenants}")
    raw = [1.0 / (rank + 1) ** zipf_s for rank in range(tenants)]
    total = sum(raw)
    return [weight / total for weight in raw]


class TrafficGenerator:
    """Seeded multi-tenant traffic against one workload manager."""

    def __init__(
        self,
        manager: WorkloadManager,
        *,
        tenants: int = 6,
        zipf_s: float = 1.1,
        seed: int = 0,
        table: Optional[str] = None,
        query_pool_size: int = 8,
    ):
        if tenants <= 0:
            raise ConfigurationError(f"tenants must be positive: {tenants}")
        if query_pool_size <= 0:
            raise ConfigurationError(
                f"query_pool_size must be positive: {query_pool_size}"
            )
        self.manager = manager
        self._rng = np.random.default_rng(seed)
        deployment = manager.deployment
        if table is not None:
            schemas = [deployment.catalog.get(table).schema]
        else:
            schemas = [
                info.schema
                for name, info in sorted(deployment.catalog.tables.items())
                if not info.replicated
            ]
        if not schemas:
            raise ConfigurationError("deployment has no queryable tables")
        generator = QueryGenerator(schemas, self._rng)
        shares = zipf_tenant_weights(tenants, zipf_s)
        self.profiles: list[TenantProfile] = [
            TenantProfile(
                name=f"tenant{rank:02d}",
                weight=weight,
                priority=_PRIORITY_CYCLE[rank % len(_PRIORITY_CYCLE)],
            )
            for rank, weight in enumerate(shares)
        ]
        self._weights = np.array([p.weight for p in self.profiles])
        # Each tenant replays a small fixed dashboard: repeats are what
        # the result cache exists for.
        self._pools: list[list["Query"]] = [
            [generator.next_query() for __ in range(query_pool_size)]
            for __ in self.profiles
        ]
        self.submitted = 0

    # ------------------------------------------------------------------
    # Arrival generation
    # ------------------------------------------------------------------

    def _submit_one(self) -> None:
        index = int(self._rng.choice(len(self.profiles), p=self._weights))
        profile = self.profiles[index]
        pool = self._pools[index]
        query = pool[int(self._rng.integers(len(pool)))]
        self.submitted += 1
        self.manager.submit(
            query, tenant=profile.name, priority=profile.priority
        )

    def run_open_loop(self, *, rate: float, duration: float) -> int:
        """Schedule a ``rate`` qps arrival process for ``duration`` seconds.

        Inter-arrival gaps are seeded-exponential (a Poisson process).
        All arrival times are drawn up front, so the arrival pattern is
        independent of how the system responds — the defining property
        of open-loop load. Returns the number of arrivals scheduled;
        the caller advances the simulator (and drains the manager).
        """
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive: {rate}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive: {duration}")
        simulator = self.manager.deployment.simulator
        at = 0.0
        scheduled = 0
        while True:
            at += float(self._rng.exponential(1.0 / rate))
            if at >= duration:
                break
            simulator.call_later(at, self._submit_one)
            scheduled += 1
        return scheduled

    def run_closed_loop(
        self,
        *,
        clients: int,
        duration: float,
        think_time: float = 0.0,
    ) -> None:
        """Start ``clients`` resubmit-on-completion loops for ``duration``.

        Each client waits for its query to resolve (whatever the
        outcome), thinks, and submits again — closed-loop load backs
        off as the system slows down. The caller advances the simulator.
        """
        if clients <= 0:
            raise ConfigurationError(f"clients must be positive: {clients}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive: {duration}")
        if think_time < 0:
            raise ConfigurationError(
                f"think_time must be non-negative: {think_time}"
            )
        simulator = self.manager.deployment.simulator
        stop_at = simulator.now + duration

        def client_loop() -> None:
            if simulator.now >= stop_at:
                return
            index = int(self._rng.choice(len(self.profiles), p=self._weights))
            profile = self.profiles[index]
            pool = self._pools[index]
            query = pool[int(self._rng.integers(len(pool)))]
            self.submitted += 1
            self.manager.submit(
                query,
                tenant=profile.name,
                priority=profile.priority,
                on_done=lambda record: simulator.call_later(
                    max(think_time, 1e-9), client_loop
                ),
            )

        for __ in range(clients):
            client_loop()


# ----------------------------------------------------------------------
# The overload-vs-SLA experiment
# ----------------------------------------------------------------------

#: Queries/s one managed executor lane sustains in the experiment's
#: deployment (median service ~0.1 s, three single-slot region queues).
BASE_RATE = 30.0
#: The experiment's latency SLA: deadline every admitted query must meet.
SLA_DEADLINE = 2.0


@dataclass
class OverloadReport:
    """Deterministically renderable outcome of one overload run."""

    policy: str
    seed: int
    saturation: float
    rate: float
    duration: float
    submitted: int = 0
    outcomes: dict = field(default_factory=dict)  # outcome -> count
    admitted: int = 0
    admitted_ok: int = 0
    success_ratio: float = 1.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_max: float = 0.0
    max_queue_depth: int = 0
    mean_queue_wait: float = 0.0
    shed_level_max: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    drained: bool = True

    @property
    def sla_met(self) -> bool:
        return self.success_ratio >= 0.99

    def render(self) -> str:
        lines = [
            f"overload experiment: policy={self.policy} seed={self.seed}",
            f"  storm: {self.rate:.1f} qps for {self.duration:.1f}s "
            f"({self.saturation:g}x saturation)",
            f"  submitted={self.submitted} admitted={self.admitted} "
            f"drained={'yes' if self.drained else 'NO'}",
            "  outcomes:",
        ]
        for outcome in sorted(self.outcomes):
            lines.append(f"    {outcome}={self.outcomes[outcome]}")
        lines.append(
            f"  admitted success ratio={self.success_ratio:.4f} "
            f"(ok={self.admitted_ok}/{self.admitted})"
        )
        lines.append(
            f"  latency: p50={self.latency_p50:.4f}s "
            f"p95={self.latency_p95:.4f}s p99={self.latency_p99:.4f}s "
            f"max={self.latency_max:.4f}s"
        )
        lines.append(
            f"  queues: max_depth={self.max_queue_depth} "
            f"mean_wait={self.mean_queue_wait:.4f}s"
        )
        lines.append(
            f"  shed level max={self.shed_level_max:.2f}  "
            f"cache hits={self.cache_hits} misses={self.cache_misses}"
        )
        lines.append(
            f"  verdict: {'SLA MET' if self.sla_met else 'SLA COLLAPSED'}"
        )
        return "\n".join(lines) + "\n"


def overload_policy(name: str) -> SchedPolicy:
    """The experiment's named policies: ``managed`` or ``legacy``."""
    if name == "managed":
        return SchedPolicy.managed(
            slots_per_node=1,
            max_queue_depth=8,
            deadline=SLA_DEADLINE,
            global_rate=60.0,
            tenant_rate=25.0,
            adaptive_shedding=True,
        )
    if name == "legacy":
        return SchedPolicy.legacy(deadline=SLA_DEADLINE)
    raise ConfigurationError(
        f"unknown overload policy {name!r} (known: managed, legacy)"
    )


def _build_overload_deployment(seed: int):
    """A small three-region deployment with one dashboard table.

    Service times use a slower tail-latency model (median 0.1 s) so the
    experiment's saturation point sits at a rate the DES can execute in
    sensible wall time.
    """
    from repro.core.deployment import CubrickDeployment, DeploymentConfig
    from repro.cubrick.schema import Dimension, Metric, TableSchema
    from repro.sim.latency import LogNormalTailLatency

    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=seed,
            regions=3,
            racks_per_region=2,
            hosts_per_rack=3,
            max_shards=10_000,
        ),
        latency_model=LogNormalTailLatency(median=0.1),
    )
    schema = TableSchema.build(
        "events",
        dimensions=[Dimension("day", 30, range_size=7)],
        metrics=[Metric("clicks")],
    )
    deployment.create_table(schema, num_partitions=3)
    rng = np.random.default_rng(seed)
    deployment.load(
        "events",
        [
            {
                "day": int(rng.integers(30)),
                "clicks": float(rng.integers(1, 100)),
            }
            for __ in range(300)
        ],
    )
    return deployment


def _build_overload_report(
    manager: WorkloadManager,
    traffic: TrafficGenerator,
    *,
    policy: str,
    seed: int,
    saturation: float,
    rate: float,
    duration: float,
    drained: bool,
) -> OverloadReport:
    """Fold one finished storm's records into its deterministic report."""
    report = OverloadReport(
        policy=policy,
        seed=seed,
        saturation=saturation,
        rate=rate,
        duration=duration,
        submitted=traffic.submitted,
        drained=drained,
    )
    outcomes: dict[str, int] = {}
    latencies = []
    for record in manager.records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        if record.admitted:
            report.admitted += 1
            if record.sla_ok:
                report.admitted_ok += 1
        if record.outcome in ("ok", "cache_hit"):
            latencies.append(record.latency)
    report.outcomes = outcomes
    report.success_ratio = (
        report.admitted_ok / report.admitted if report.admitted else 1.0
    )
    if latencies:
        p50, p95, p99 = interpolated_percentiles(latencies, (50, 95, 99))
        report.latency_p50 = p50
        report.latency_p95 = p95
        report.latency_p99 = p99
        report.latency_max = max(latencies)
    report.max_queue_depth = max(
        queue.stats.max_depth for queue in manager.queues.values()
    )
    dispatched = sum(q.stats.dispatched for q in manager.queues.values())
    total_wait = sum(q.stats.total_wait for q in manager.queues.values())
    report.mean_queue_wait = total_wait / dispatched if dispatched else 0.0
    if manager.shedder is not None:
        report.shed_level_max = manager.shedder.max_level
    if manager.cache is not None:
        report.cache_hits = manager.cache.stats.hits
        report.cache_misses = manager.cache.stats.misses
    return report


def run_overload_experiment(
    seed: int = 0,
    *,
    policy: str = "managed",
    saturation: float = 5.0,
    duration: float = 20.0,
    tenants: int = 6,
) -> OverloadReport:
    """One seeded overload storm against one policy; returns its report."""
    if saturation <= 0:
        raise ConfigurationError(f"saturation must be positive: {saturation}")
    deployment = _build_overload_deployment(seed)
    manager = WorkloadManager(deployment, policy=overload_policy(policy))
    traffic = TrafficGenerator(
        manager, tenants=tenants, seed=seed, table="events"
    )
    deployment.simulator.run_until(30.0)

    rate = saturation * BASE_RATE
    traffic.run_open_loop(rate=rate, duration=duration)
    deployment.simulator.run_until(deployment.simulator.now + duration)
    drained = manager.drain(max_time=600.0)
    return _build_overload_report(
        manager,
        traffic,
        policy=policy,
        seed=seed,
        saturation=saturation,
        rate=rate,
        duration=duration,
        drained=drained,
    )


def run_profiled_overload(
    seed: int = 0,
    *,
    policy: str = "managed",
    saturation: float = 5.0,
    duration: float = 20.0,
    tenants: int = 6,
    slo_interval: float = 5.0,
):
    """The overload storm with the observability loop closed.

    Same seeded storm as :func:`run_overload_experiment`, but with an
    :class:`~repro.obs.slo.SloEngine` ticking on the DES clock
    throughout: an availability objective over the scheduler's SLA
    counters and an interactive-latency objective over the proxy's
    latency histogram. Returns ``(report, deployment, manager, engine)``
    so callers (the ``repro profile`` CLI, tests) can profile the traces
    and read the error-budget ledger after the storm.
    """
    from repro.obs.slo import SLObjective, SloEngine

    if saturation <= 0:
        raise ConfigurationError(f"saturation must be positive: {saturation}")
    deployment = _build_overload_deployment(seed)
    manager = WorkloadManager(deployment, policy=overload_policy(policy))
    traffic = TrafficGenerator(
        manager, tenants=tenants, seed=seed, table="events"
    )
    deployment.simulator.run_until(30.0)

    engine = SloEngine(deployment.obs, budget_window=3600.0)
    engine.register(
        SLObjective(
            name="sched-sla-availability",
            target=0.99,
            kind="availability",
            metric="repro.sched.sla",
        )
    )
    engine.register(
        SLObjective(
            name="proxy-interactive-latency",
            target=0.95,
            kind="latency",
            metric="cubrick.proxy.latency_seconds",
            threshold=1.0,
        )
    )
    cancel = engine.attach(deployment.simulator, interval=slo_interval)

    rate = saturation * BASE_RATE
    traffic.run_open_loop(rate=rate, duration=duration)
    deployment.simulator.run_until(deployment.simulator.now + duration)
    drained = manager.drain(max_time=600.0)
    cancel()
    engine.tick()  # final sample so the ledger covers the drain tail
    report = _build_overload_report(
        manager,
        traffic,
        policy=policy,
        seed=seed,
        saturation=saturation,
        rate=rate,
        duration=duration,
        drained=drained,
    )
    return report, deployment, manager, engine
