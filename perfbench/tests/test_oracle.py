"""The answer oracle agrees with the engine, and reads are judged by load state."""

from __future__ import annotations

import numpy as np
import pytest

import fleet
from loadgen import Request
from oracle import Oracle, rows_match


@pytest.fixture(scope="module")
def small_fleet():
    from repro.core.deployment import CubrickDeployment, DeploymentConfig

    deployment = CubrickDeployment(
        DeploymentConfig(seed=3, regions=1, racks_per_region=1, hosts_per_rack=3,
                         max_shards=1000)
    )
    deployment.create_table(fleet.schema(), num_partitions=3)
    columns = fleet.random_columns(np.random.default_rng(7), 3000)
    deployment.load(fleet.TABLE, fleet.to_rows(columns))
    deployment.simulator.run_until(30.0)
    return deployment, columns


def test_oracle_matches_sql_on_generated_and_dashboard_queries(small_fleet):
    deployment, columns = small_fleet
    oracle = Oracle(columns)
    statements = fleet.adhoc_statements(5, 150)
    statements += [pair for pool in fleet.dashboard_pools(5) for pair in pool]
    for sql, query in statements:
        got = deployment.sql(sql).rows
        assert rows_match([list(row) for row in got], oracle.answer(query)), sql


def test_empty_ungrouped_answer_is_no_rows(small_fleet):
    deployment, columns = small_fleet
    from repro.cubrick.sql import parse_query

    sql = "SELECT sum(clicks) FROM events WHERE day = 3 AND country IN (7) AND user_id = 11"
    expected = Oracle(columns).answer(parse_query(sql))
    assert expected == deployment.sql(sql).rows == []


def test_prefix_answers_equal_answers_over_fewer_rows():
    base = fleet.random_columns(np.random.default_rng(1), 500)
    batch = fleet.random_columns(np.random.default_rng(2), 32)
    grown = Oracle(base)
    grown.append(batch)
    for sql, query in fleet.adhoc_statements(2, 40):
        assert grown.answer(query, rows=500) == Oracle(base).answer(query), sql
    assert grown.rows == 532


def _read(query, lo, hi, rows):
    req = Request("read", 0, 0.0, {}, "window", key=None, query=query)
    req.lo, req.hi = lo, hi
    req.response = {"ok": True, "result": {"rows": [list(r) for r in rows]}}
    return req


def test_read_must_see_acked_loads_and_may_see_overlapping_ones(monkeypatch):
    import run
    from repro.cubrick.sql import parse_query

    monkeypatch.setattr(run, "N_ROWS", 100)
    monkeypatch.setattr(run, "BATCH_ROWS", 10)
    columns = fleet.random_columns(np.random.default_rng(4), 120)
    oracle = Oracle(columns)
    query = parse_query("SELECT count(clicks) FROM events")
    before, after_one, after_two = ([(float(n),)] for n in (100, 110, 120))

    def failure(req):
        return run._failure(req, oracle, rows_match)

    assert failure(_read(query, 1, 1, after_one)) is None
    assert failure(_read(query, 1, 1, before)) == "wrong_answer"
    assert failure(_read(query, 0, 2, before)) is None
    assert failure(_read(query, 0, 2, after_two)) is None
    assert failure(_read(query, 0, 1, after_two)) == "wrong_answer"


def test_degraded_and_error_answers_fail():
    import run

    req = _read(None, 0, 0, [])
    req.response["result"]["degraded"] = True
    assert run._failure(req, None, rows_match) == "degraded"
    req.response = {"ok": False, "error": {"code": "rejected"}}
    assert run._failure(req, None, rows_match) == "rejected"
    req.response = None
    assert run._failure(req, None, rows_match) == "timeout"
