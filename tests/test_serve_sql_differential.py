"""Differential battery on the wire: gateway answers ≡ ``deployment.sql()``.

The serving tier compiles SQL with the same planner as
``deployment.sql()`` and answers repeats from the workload manager's
result cache. Every statement here is sent over a live gateway twice —
first as a cache miss that executes, then as a cache hit — and both
answers must equal the uncached ``deployment.sql()`` reference on the
same fleet, row for row. Metric values are multiples of 1/8 so every
summation order gives identical floats.

The battery covers every aggregate family, OR, NOT BETWEEN, ``!=``/``<``,
an unsatisfiable WHERE (answered with zero rows and no job),
HAVING/ORDER/LIMIT and a replicated-local join. Statements the served
path refuses — a join against a sharded dimension table, an unknown
column — must come back as typed ``sql`` errors before any job is
queued.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.deployment import CubrickDeployment, DeploymentConfig
from repro.cubrick.schema import Dimension, Metric, TableSchema
from repro.sched.manager import WorkloadManager
from repro.serve import (
    ServeClient,
    ServeError,
    ServeGateway,
    ServingDeployment,
    serve_policy,
)
from repro.serve.deploy import WARMUP_SECONDS
from repro.serve.protocol import jsonable

STATEMENTS = [
    # Every aggregate family at once, grouped.
    "SELECT country, sum(clicks), count(clicks), min(cost), max(cost), "
    "avg(cost), count_distinct(user_id) FROM events GROUP BY country",
    "SELECT sum(clicks), count(*) FROM events",
    "SELECT sum(clicks), count(*) FROM events "
    "WHERE day = 1 OR day BETWEEN 5 AND 6",
    "SELECT day, max(cost) FROM events "
    "WHERE NOT (day BETWEEN 2 AND 5) GROUP BY day",
    "SELECT day, sum(cost) FROM events "
    "WHERE country != 2 AND day < 6 GROUP BY day",
    "SELECT avg(clicks) FROM events WHERE user_id NOT IN (1, 2, 3)",
    "SELECT day, sum(clicks) FROM events GROUP BY day "
    "HAVING sum(clicks) > 100 ORDER BY sum(clicks) DESC LIMIT 3",
    "SELECT country, count(*) FROM events GROUP BY country "
    "ORDER BY country ASC LIMIT 4",
    "SELECT dim_geo.region, sum(clicks), count(*) FROM events "
    "JOIN dim_geo ON events.country = dim_geo.country "
    "GROUP BY dim_geo.region",
    "SELECT sum(cost) FROM events "
    "JOIN dim_geo ON events.country = dim_geo.country "
    "WHERE dim_geo.region IN (0, 2) AND day >= 3",
]

UNSATISFIABLE = "SELECT sum(clicks) FROM events WHERE day < 2 AND day > 5"


def build_star(seed: int = 5) -> ServingDeployment:
    """events + a replicated and a sharded dimension table, warmed up."""
    deployment = CubrickDeployment(
        DeploymentConfig(seed=seed, regions=2, racks_per_region=2,
                         hosts_per_rack=3)
    )
    deployment.create_table(TableSchema.build(
        "events",
        dimensions=[
            Dimension("day", 8, range_size=2),
            Dimension("country", 6, range_size=2),
            Dimension("user_id", 200, range_size=50),
        ],
        metrics=[Metric("clicks"), Metric("cost")],
    ))
    deployment.create_table(
        TableSchema.build(
            "dim_geo",
            dimensions=[Dimension("country", 6, range_size=2),
                        Dimension("region", 3, range_size=1)],
            metrics=[Metric("population")],
        ),
        replicated=True,
    )
    deployment.create_table(TableSchema.build(
        "dim_users",
        dimensions=[Dimension("user_id", 200, range_size=50),
                    Dimension("tier", 4, range_size=1)],
        metrics=[Metric("weight")],
    ))
    rng = np.random.default_rng(seed)
    deployment.load("events", [
        {
            "day": int(rng.integers(8)),
            "country": int(rng.integers(6)),
            "user_id": int(rng.integers(200)),
            "clicks": float(rng.integers(1, 800)) / 8,
            "cost": float(rng.integers(0, 800)) / 8,
        }
        for __ in range(1500)
    ])
    # Country 5 has no dimension row yet: inner joins drop it until a
    # test loads one.
    deployment.load("dim_geo", [
        {"country": c, "region": c % 3, "population": 1.0} for c in range(5)
    ])
    deployment.load("dim_users", [
        {"user_id": u, "tier": u % 4, "weight": 1.0} for u in range(150)
    ])
    manager = WorkloadManager(deployment, policy=serve_policy())
    deployment.simulator.run_until(WARMUP_SECONDS)
    return ServingDeployment(deployment=deployment, manager=manager)


async def serve(check) -> None:
    """Run ``check(gateway, client)`` against a live gateway on the star."""
    gateway = ServeGateway(build_star())
    host, port = await gateway.start()
    try:
        async with ServeClient(host, port) as client:
            await check(gateway, client)
    finally:
        await gateway.drain(timeout=30.0)


def test_wire_answers_equal_sql_miss_then_hit():
    async def check(gateway, client):
        deployment = gateway.deployment
        for statement in STATEMENTS:
            expected = jsonable(deployment.sql(statement).rows)
            miss = await client.sql(statement)
            hit = await client.sql(statement)
            assert miss["outcome"] == "ok", statement
            assert hit["outcome"] == "cache_hit", statement
            assert miss["rows"] == expected, statement
            assert hit["rows"] == expected, statement
            assert miss["columns"] == list(deployment.sql(statement).columns)
        assert gateway.manager.cache.stats.hits == len(STATEMENTS)

    asyncio.run(serve(check))


def test_unsatisfiable_where_answers_zero_rows_without_a_job():
    async def check(gateway, client):
        expected = gateway.deployment.sql(UNSATISFIABLE)
        jobs = len(gateway.manager.records)
        answer = await client.sql(UNSATISFIABLE)
        assert answer["rows"] == jsonable(expected.rows) == []
        assert answer["columns"] == list(expected.columns)
        assert len(gateway.manager.records) == jobs

    asyncio.run(serve(check))


@pytest.mark.parametrize("statement, fragment", [
    ("SELECT dim_users.tier, sum(clicks) FROM events "
     "JOIN dim_users ON events.user_id = dim_users.user_id "
     "GROUP BY dim_users.tier", "JOIN dim_users"),
    ("SELECT sum(nope) FROM events", "sum(nope)"),
    ("SELECT sum(clicks) FROM events WHERE planet = 3", "planet"),
])
def test_unservable_statements_get_typed_sql_errors(statement, fragment):
    async def check(gateway, client):
        jobs = len(gateway.manager.records)
        with pytest.raises(ServeError) as excinfo:
            await client.sql(statement)
        error = excinfo.value.error
        assert excinfo.value.code == "sql"
        assert f"(at position {statement.index(fragment)})" in error["message"]
        assert "^" in error["context"]
        # Refused before it took a queue slot, and nothing was blacklisted.
        assert len(gateway.manager.records) == jobs
        assert gateway.deployment.proxy.blacklisted_hosts() == []
        # deployment.sql still answers the distributed join itself.
        if "JOIN" in statement:
            assert gateway.deployment.sql(statement).rows

    asyncio.run(serve(check))


def test_dimension_load_makes_served_join_miss():
    statement = STATEMENTS[8]

    async def check(gateway, client):
        first = await client.sql(statement)
        await client.load("dim_geo", [
            {"country": 5, "region": 2, "population": 1.0}
        ])
        after = await client.sql(statement)
        assert after["outcome"] == "ok"
        assert after["rows"] == jsonable(gateway.deployment.sql(statement).rows)
        assert after["rows"] != first["rows"]

    asyncio.run(serve(check))


def test_compiled_statements_follow_the_catalog():
    statement = STATEMENTS[8]

    async def check(gateway, client):
        deployment = gateway.deployment
        first = await client.sql(statement)
        plan = gateway._compiled[statement][0]
        assert (await client.sql(statement))["rows"] == first["rows"]
        assert gateway._compiled[statement][0] is plan
        # Re-creating a bound table, now sharded, must recompile the
        # statement: the plan bound to the old replicated entry would
        # still fan out a node-local join.
        deployment.drop_table("dim_geo")
        deployment.create_table(TableSchema.build(
            "dim_geo",
            dimensions=[Dimension("country", 6, range_size=2),
                        Dimension("region", 3, range_size=1)],
            metrics=[Metric("population")],
        ))
        with pytest.raises(ServeError) as excinfo:
            await client.sql(statement)
        assert excinfo.value.code == "sql"
        assert "sharded table 'dim_geo'" in excinfo.value.error["message"]

    asyncio.run(serve(check))
