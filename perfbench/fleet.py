"""The benchmark's fleet, data and workload definitions.

Everything here is a pure function of the seed, so the gateway process
(which loads the rows) and the load-generator process (which recomputes
every answer from the same rows) agree without talking to each other.

Fleet choices, with their reasons:

* 3 regions x 2 racks x 3 hosts, the shape ``build_serving_deployment``
  uses, so fan-out per query is the serving default (6 hosts).
* One fact table ``events(day[30], country[50], user_id[1000]; clicks,
  cost)`` with ``N_ROWS`` seeded rows in 6 partitions. Bricks are
  ``day`` ranges of 7 x ``country`` ranges of 25 (10 bricks per
  partition, ~1700 rows each), so a cache miss costs a few ms of real
  CPU and filtered queries still prune bricks.
* Metric values are multiples of 1/8, so every sum is exact in any
  summation order and answers compare with ``==``.
* Simulated host service time is ``LogNormalTailLatency(base=0,
  median=1 ms, sigma=0.5)`` with hiccups off, instead of the serving
  default's 100 ms median. At 100 ms the 12 queue slots would cap
  cache misses near the CPU limit and bury CPU changes under modelled
  latency; at 1 ms capacity on ``adhoc-miss`` is set by the gateway's
  real CPU. Hiccups (50 ms - 1 s stalls) are off so p99 reflects the
  gateway, not a modelled straggler.
* Cache and memory sizes: ``dash-hit``'s 48 distinct statements fit the
  512-entry result cache of ``serve_policy()``; ``adhoc-miss``'s unique
  statements exceed it many times over; 10^5 rows (~5 MB per region)
  fit host memory, so no SSD tier is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TABLE = "events"
N_ROWS = 100_000
NUM_PARTITIONS = 6
#: Rows per ``load`` op of the write probe.
BATCH_ROWS = 32
TENANTS = 6
POOL_SIZE = 8
TENANT_ZIPF = 1.1

#: Seed streams: one per independent input, so adding one never shifts another.
_ROWS, _POOLS, _ADHOC, _BATCH, _SCHEDULE = range(5)


def schema():
    """The fact table's schema (imported lazily: needs ``repro``)."""
    from repro.cubrick.schema import Dimension, Metric, TableSchema

    return TableSchema.build(
        TABLE,
        dimensions=[
            Dimension("day", 30, range_size=7),
            Dimension("country", 50, range_size=25),
            Dimension("user_id", 1000),
        ],
        metrics=[Metric("clicks"), Metric("cost")],
    )


def random_columns(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """``n`` random rows of the fact table, as column arrays."""
    return {
        "day": rng.integers(30, size=n),
        "country": rng.integers(50, size=n),
        "user_id": rng.integers(1000, size=n),
        "clicks": rng.integers(1, 800, size=n) / 8.0,
        "cost": rng.integers(1, 8000, size=n) / 8.0,
    }


def base_columns(seed: int) -> dict[str, np.ndarray]:
    """The ``N_ROWS`` rows loaded before serving, as column arrays."""
    return random_columns(np.random.default_rng([seed, _ROWS]), N_ROWS)


def batch_columns(seed: int, index: int) -> dict[str, np.ndarray]:
    """Load batch ``index`` of the write probe."""
    return random_columns(np.random.default_rng([seed, _BATCH, index]), BATCH_ROWS)


def to_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """Column arrays -> the row dicts ``deployment.load`` and the wire take."""
    names = list(columns)
    dims = {"day", "country", "user_id"}
    lists = [
        [int(v) for v in columns[name]] if name in dims
        else [float(v) for v in columns[name]]
        for name in names
    ]
    return [dict(zip(names, values)) for values in zip(*lists)]


def build_serving(seed: int):
    """Build, load and warm the fleet through public constructors only.

    Returns a :class:`repro.serve.ServingDeployment`.
    """
    from repro.core.deployment import CubrickDeployment, DeploymentConfig
    from repro.sched.manager import WorkloadManager
    from repro.serve.deploy import WARMUP_SECONDS, ServingDeployment, serve_policy
    from repro.sim.latency import HiccupModel, LogNormalTailLatency

    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=seed,
            regions=3,
            racks_per_region=2,
            hosts_per_rack=3,
            max_shards=10_000,
        ),
        latency_model=LogNormalTailLatency(
            base=0.0, median=0.001, sigma=0.5,
            hiccups=HiccupModel(probability=0.0),
        ),
    )
    deployment.create_table(schema(), num_partitions=NUM_PARTITIONS)
    deployment.load(TABLE, to_rows(base_columns(seed)))
    manager = WorkloadManager(deployment, policy=serve_policy())
    deployment.simulator.run_until(deployment.simulator.now + WARMUP_SECONDS)
    return ServingDeployment(deployment=deployment, manager=manager)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


def _unique_queries(rng: np.random.Generator, count: int, seen: set) -> list:
    from repro.cubrick.sql import render_query
    from repro.workloads.queries import QueryGenerator

    generator = QueryGenerator([schema()], rng)
    out = []
    while len(out) < count:
        query = generator.next_query()
        text = render_query(query)
        if text not in seen:
            seen.add(text)
            out.append((text, query))
    return out


def _dashboard(rng: np.random.Generator) -> list:
    """One tenant's dashboard: eight panels of fixed shape, seeded literals.

    Every pool has the same shapes (small scalar and grouped results),
    so the cost of a refresh does not depend on which seed drew it.
    """
    from repro.cubrick.query import AggFunc, Aggregation, Filter, Query

    def agg(*pairs):
        return [Aggregation(AggFunc(func), metric) for func, metric in pairs]

    day = int(rng.integers(24))
    week = int(rng.integers(17))
    country = int(rng.integers(41))
    user = int(rng.integers(900))
    countries = sorted(int(c) for c in rng.choice(50, size=3, replace=False))
    return [
        Query.build(TABLE, agg(("sum", "clicks"), ("count", "clicks")),
                    filters=[Filter.between("day", day, day + 6)]),
        Query.build(TABLE, agg(("sum", "cost")), filters=[Filter.isin("country", countries)]),
        Query.build(TABLE, agg(("sum", "clicks")), group_by=["day"],
                    filters=[Filter.between("day", week, week + 13)]),
        Query.build(TABLE, agg(("sum", "cost"), ("count", "cost")), group_by=["day"],
                    filters=[Filter.eq("country", country)]),
        Query.build(TABLE, agg(("sum", "clicks")), group_by=["country"],
                    filters=[Filter.between("day", day, day + 6)]),
        Query.build(TABLE, agg(("sum", "cost")), group_by=["country"],
                    filters=[Filter.eq("day", day)]),
        Query.build(TABLE, agg(("sum", "clicks"), ("count", "clicks")), group_by=["day"],
                    filters=[Filter.between("country", country, country + 9)]),
        Query.build(TABLE, agg(("count", "clicks")),
                    filters=[Filter.between("user_id", user, user + 99)]),
    ]


def dashboard_pools(seed: int) -> list[list[tuple]]:
    """``TENANTS`` pools of ``POOL_SIZE`` (sql, Query) pairs, 48 distinct."""
    from repro.cubrick.sql import render_query

    rng = np.random.default_rng([seed, _POOLS])
    seen: set = set()
    pools = []
    while len(pools) < TENANTS:
        pool = [(render_query(q), q) for q in _dashboard(rng)]
        if seen.isdisjoint(sql for sql, __ in pool):
            seen.update(sql for sql, __ in pool)
            pools.append(pool)
    return pools


def adhoc_statements(seed: int, count: int) -> list[tuple]:
    """``count`` distinct (sql, Query) pairs, none repeated in a run."""
    return _unique_queries(np.random.default_rng([seed, _ADHOC]), count, set())


def tenant_weights() -> np.ndarray:
    from repro.workloads import zipf_tenant_weights

    return np.asarray(zipf_tenant_weights(TENANTS, TENANT_ZIPF))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its fixed rates, ladder and latency limit."""

    name: str
    #: Reads come from the dashboard pools ("pool") or are unique ("unique").
    reads: str
    nominal_qps: float
    #: First offered rate of the ladder and the highest it may offer.
    ladder_from: float
    ladder_to: float
    #: Share of ``--seconds`` each ladder step lasts.
    step_share: float
    #: Read-latency limit (ms) a ladder step's tail must meet.
    limit_ms: float


#: Ratio between ladder steps, and the bisections after the first
#: failing step: the knee is found to within 1.2 ** (1/4), about 5 %.
LADDER_RATIO = 1.2
LADDER_REFINE = 2

#: Nominal rates keep the gateway's CPU about a third busy, where latency
#: is set by the work per request rather than by queueing. The ladders
#: start below the CPU limit and run far past it: on one shared 2-vCPU
#: host the knee sat between about 1600 and 2400 hits/s and 130 and 210
#: misses/s, and the ladder tops leave room for a program several times
#: faster. Steps last 1 s (dash-hit) and 2 s (adhoc-miss) in 32 s runs,
#: so each holds a few hundred reads or more. Limits: a cached dashboard
#: refresh should take under 250 ms, an ad-hoc answer under a second
#: (the paper's interactive bar).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dash-hit", "pool", 300.0, 1200.0, 12000.0, 1 / 32, 250.0),
        Workload("adhoc-miss", "unique", 45.0, 100.0, 1000.0, 1 / 16, 1000.0),
    )
}


def arrival_offsets(seed: int, phase: int, rate: float, duration: float) -> np.ndarray:
    """Poisson arrival offsets (s) in ``[0, duration)`` for one phase.

    A Poisson process conditioned on its count: ``rate * duration``
    arrivals placed uniformly at random, so every seed offers the same
    number of requests.
    """
    rng = np.random.default_rng([seed, _SCHEDULE, phase])
    return np.sort(rng.uniform(0.0, duration, size=round(rate * duration)))


def pool_choices(seed: int, phase: int, count: int) -> list[tuple[int, int]]:
    """(tenant, statement) per read: Zipf tenants, uniform statements."""
    rng = np.random.default_rng([seed, _SCHEDULE, phase, 1])
    tenants = rng.choice(TENANTS, size=count, p=tenant_weights())
    statements = rng.integers(POOL_SIZE, size=count)
    return [(int(t), int(s)) for t, s in zip(tenants, statements)]
