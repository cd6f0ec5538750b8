"""Query result cache: versioned keys, LRU, manager/loader integration."""

from __future__ import annotations

import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.loader import StreamingLoader
from repro.cubrick.query import AggFunc, Aggregation, Query, QueryResult
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.errors import ConfigurationError
from repro.sched.cache import (
    CACHE_HIT_LATENCY,
    QueryResultCache,
    plan_key,
    table_versions,
)
from repro.sched.manager import SchedPolicy, WorkloadManager

from tests.conftest import make_rows


def versions(generation=0, ingest_generation=0, table="events"):
    return ((table, generation, ingest_generation),)


def make_query(table="events", metric="clicks"):
    return Query.build(table, [Aggregation(AggFunc.SUM, metric)])


def make_result(value=42.0, **metadata):
    return QueryResult(
        columns=("sum(clicks)",),
        rows=[(value,)],
        rows_scanned=100,
        bricks_scanned=3,
        metadata=metadata,
    )


def test_round_trip_and_stats():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    assert cache.get(query, versions()) is None
    cache.put(query, make_result(), versions())
    hit = cache.get(query, versions())
    assert hit is not None
    assert hit.rows == [(42.0,)]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio() == pytest.approx(0.5)


def test_version_bump_makes_old_entries_unreachable():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(), versions())
    # Any write bumps a generation; the old key never matches again.
    assert cache.get(query, versions(0, 1)) is None
    assert cache.get(query, versions(1, 0)) is None
    assert cache.get(query, versions()) is not None


def test_returned_copy_is_independent_of_the_snapshot():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(latency=0.5), versions())
    first = cache.get(query, versions())
    first.rows.append(("corruption",))
    first.metadata["latency"] = 99.0
    second = cache.get(query, versions())
    assert second.rows == [(42.0,)]
    assert second.metadata["latency"] == 0.5


def test_partial_and_degraded_results_are_refused():
    cache = QueryResultCache(capacity=4)
    query = make_query()
    cache.put(query, make_result(partial=True), versions())
    cache.put(query, make_result(degraded=True), versions())
    assert cache.get(query, versions()) is None
    assert len(cache) == 0


def test_lru_eviction_prefers_recently_used():
    cache = QueryResultCache(capacity=2)
    a = make_query(metric="clicks")
    b = Query.build("events", [Aggregation(AggFunc.MAX, "clicks")])
    c = Query.build("events", [Aggregation(AggFunc.COUNT, "clicks")])
    cache.put(a, make_result(), versions())
    cache.put(b, make_result(), versions())
    cache.get(a, versions())  # a is now most recent
    cache.put(c, make_result(), versions())  # evicts b
    assert cache.stats.evictions == 1
    assert cache.get(a, versions()) is not None
    assert cache.get(b, versions()) is None


def test_invalidate_table_drops_only_that_table():
    cache = QueryResultCache(capacity=8)
    events = make_query("events")
    cache.put(events, make_result(), versions())
    assert cache.invalidate_table("events") == 1
    assert cache.invalidate_table("events") == 0
    assert cache.stats.invalidations == 1
    assert cache.get(events, versions()) is None


def test_invalidate_table_drops_entries_that_join_it():
    cache = QueryResultCache(capacity=8)
    events, other = make_query("events"), make_query("other")
    joined = versions() + (("dim", 0, 0),)
    cache.put(events, make_result(), joined)
    cache.put(other, make_result(), versions(table="other"))
    assert cache.invalidate_table("dim") == 1
    assert cache.get(events, joined) is None
    assert cache.get(other, versions(table="other")) is not None


def test_plan_key_is_structural():
    # Two structurally identical queries built separately share a key.
    assert plan_key(make_query()) == plan_key(make_query())
    with pytest.raises(ConfigurationError):
        QueryResultCache(capacity=0)


# ----------------------------------------------------------------------
# Integration: the workload manager serving from cache, writes
# invalidating it
# ----------------------------------------------------------------------


@pytest.fixture
def cached_deployment(events_schema):
    deployment = CubrickDeployment(
        DeploymentConfig(
            seed=11, regions=2, racks_per_region=2, hosts_per_rack=3,
        )
    )
    deployment.create_table(events_schema, num_partitions=4)
    deployment.load("events", make_rows(events_schema, 400, seed=3))
    deployment.simulator.run_until(30.0)
    return deployment


@pytest.fixture
def manager(cached_deployment):
    return WorkloadManager(
        cached_deployment, policy=SchedPolicy(cache_capacity=32)
    )


def run(manager, query):
    """Submit one query and drain; returns its record."""
    record = manager.submit(query)
    assert manager.drain()
    return record


def test_manager_serves_repeats_from_cache(manager, cached_deployment):
    query = make_query()
    first = run(manager, query)
    executed = len(cached_deployment.proxy.query_log)
    second = run(manager, query)
    assert first.outcome == "ok"
    assert second.outcome == "cache_hit"
    assert second.result.rows == first.result.rows
    assert second.latency == CACHE_HIT_LATENCY
    assert manager.cache.stats.hits == 1
    # The hit never reached the proxy.
    assert len(cached_deployment.proxy.query_log) == executed


def test_proxy_and_sql_never_read_the_cache(manager, cached_deployment):
    query = make_query()
    run(manager, query)
    assert manager.cache.stats.hits == 0
    executed = len(cached_deployment.proxy.query_log)
    cached_deployment.query(query)
    cached_deployment.sql("SELECT sum(clicks) FROM events")
    assert len(cached_deployment.proxy.query_log) == executed + 2
    assert manager.cache.stats.hits == 0


def test_bulk_load_invalidates_cached_answers(
    manager, cached_deployment, events_schema
):
    query = make_query()
    stale = run(manager, query)
    cached_deployment.load("events", make_rows(events_schema, 50, seed=4))
    fresh = run(manager, query)
    # The load bumped the ingestion generation: the answer was recomputed
    # and reflects the new rows.
    assert fresh.outcome == "ok"
    assert fresh.result.rows[0][0] > stale.result.rows[0][0]


def test_streaming_flush_invalidates_cached_answers(
    manager, cached_deployment, events_schema
):
    query = make_query()
    stale = run(manager, query)
    info = cached_deployment.catalog.get("events")
    generation_before = info.ingest_generation
    loader = StreamingLoader(cached_deployment, "events", batch_rows=10_000)
    loader.append_many(make_rows(events_schema, 30, seed=5))
    loader.flush()
    assert info.ingest_generation > generation_before
    fresh = run(manager, query)
    assert fresh.outcome == "ok"
    assert fresh.result.rows[0][0] > stale.result.rows[0][0]
    # The flush announced itself as a structured event.
    kinds = [e["kind"] for e in cached_deployment.obs.events.tail()]
    assert "cubrick.loader.flush" in kinds


def test_recreated_table_never_hits_the_dropped_tables_answers(
    manager, cached_deployment, events_schema
):
    query = make_query()
    old = run(manager, query)
    cached_deployment.drop_table("events")
    cached_deployment.create_table(events_schema, num_partitions=4)
    cached_deployment.load("events", make_rows(events_schema, 40, seed=9))
    cached_deployment.simulator.run_until(cached_deployment.simulator.now + 30)
    new = run(manager, query)
    assert new.outcome == "ok"
    assert new.result.rows == cached_deployment.query(query).rows
    assert new.result.rows != old.result.rows


def test_dimension_load_invalidates_cached_join_answers(
    manager, cached_deployment
):
    """A load into a joined replicated table must not leave a stale hit."""
    cached_deployment.create_table(
        TableSchema.build(
            "dim_country",
            dimensions=[Dimension("country", 100, range_size=25),
                        Dimension("region", 4, range_size=1)],
            metrics=[Metric("population")],
        ),
        replicated=True,
    )
    cached_deployment.load("dim_country", [
        {"country": c, "region": 0, "population": 1.0} for c in range(50)
    ])
    statement = (
        "SELECT sum(clicks) FROM events JOIN dim_country "
        "ON events.country = dim_country.country "
        "GROUP BY dim_country.region"
    )
    query = cached_deployment.compile_sql(statement).fanout_query
    assert table_versions(cached_deployment.catalog, query)[1][0] == "dim_country"
    before = run(manager, query)
    assert [row[0] for row in before.result.rows] == [0]
    cached_deployment.load("dim_country", [
        {"country": c, "region": 1, "population": 1.0}
        for c in range(50, 100)
    ])
    after = run(manager, query)
    assert after.outcome == "ok"
    assert after.result.rows == cached_deployment.sql(statement).rows
    assert [row[0] for row in after.result.rows] == [0, 1]
