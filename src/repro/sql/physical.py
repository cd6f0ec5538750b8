"""Physical plan: lower a logical SQL plan onto the distributed engine.

Four plan shapes exist, picked from the logical plan's join strategies:

* ``empty`` — the WHERE clause is unsatisfiable; the result is
  synthesised (zero rows) without touching any node.
* ``fanout`` — no sharded joins: the query goes through the Cubrick
  proxy unchanged (admission control, cross-region retries), nodes
  answer joins from their local replicas. This is the only kind the
  workload manager schedules, and so the only kind served with its
  result cache.
* ``broadcast-join`` — each sharded dimension table's referenced
  columns are collected onto the coordinator and turned into
  fact-key-indexed lookup arrays, which ride down to every node scan as
  ``extra_lookups``; the fan-out itself is unchanged.
* ``hash-join`` — the single over-threshold sharded join: the fact
  side fans out grouped by the join key, the (filtered) dimension side
  is collected, and the coordinator presence-filters and remaps the
  pre-finalize partial states onto the final groups before one last
  merge + finalize.

The join kinds execute through a region coordinator directly (iterating
the proxy's region preference on retryable failures) — they bypass the
proxy's admission control, a documented limitation of the
distributed-join path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.cubrick.query import PartialResult, Query, QueryResult
from repro.errors import QueryFailedError, RegionUnavailableError
from repro.sql.planner import LogicalPlan


@dataclass
class PhysicalPlan:
    """An executable plan plus its deterministic EXPLAIN description."""

    kind: str  # 'empty' | 'fanout' | 'broadcast-join' | 'hash-join'
    logical: LogicalPlan
    steps: list[str] = field(default_factory=list)
    sharded_joins: tuple = ()
    replicated_joins: tuple = ()
    #: The query actually fanned out to nodes (None for 'empty').
    fanout_query: Optional[Query] = None


def build_physical(plan: LogicalPlan) -> PhysicalPlan:
    """Lower one logical plan. Pure catalog/stats math — no execution."""
    if plan.empty:
        return PhysicalPlan(
            kind="empty",
            logical=plan,
            steps=[
                f"result: 0 rows synthesised ({plan.empty_reason})",
            ],
        )
    sharded = tuple(
        j for j in plan.joins
        if plan.join_strategies.get(j.table) != "replicated-local"
    )
    replicated = tuple(
        j for j in plan.joins
        if plan.join_strategies.get(j.table) == "replicated-local"
    )
    partitions = plan.binding.fact.num_partitions
    hash_joins = [
        j for j in sharded
        if plan.join_strategies.get(j.table) == "partitioned-hash"
    ]
    if hash_joins:
        join = hash_joins[0]
        other_group = [
            g for g in plan.group_by
            if not g.startswith(f"{join.table}.") and g != join.fact_key
        ]
        fanout_group = (join.fact_key,) + tuple(other_group)
        fanout_filters = tuple(
            f for f in plan.filters
            if not f.dimension.startswith(f"{join.table}.")
        )
        fanout_query = Query(
            table=plan.fact_table,
            aggregations=plan.aggregations,
            group_by=fanout_group,
            filters=fanout_filters,
            joins=replicated,
        )
        columns = _needed_columns(plan, join)
        pushed = len(plan.dim_filters.get(join.table, ()))
        steps = [
            f"collect: {join.table}.{{{', '.join(columns)}}} -> "
            f"coordinator ({pushed} pushed filter(s))",
            f"fan-out: {plan.fact_table} grouped by {join.fact_key} "
            f"over {partitions} partitions (pre-finalize partials)",
            f"join: presence-filter fan-out groups against collected "
            f"{join.dim_key} keys, remap to final groups",
            "re-aggregate: merge remapped partial states, then finalize",
        ]
        return PhysicalPlan(
            kind="hash-join",
            logical=plan,
            steps=steps,
            sharded_joins=(join,),
            replicated_joins=replicated,
            fanout_query=fanout_query,
        )
    if sharded:
        fanout_query = replace(plan.query, joins=replicated)
        steps = []
        for join in sharded:
            columns = _needed_columns(plan, join)
            steps.append(
                f"collect: {join.table}.{{{', '.join(columns)}}} -> "
                f"coordinator, build {join.fact_key}-indexed lookup "
                f"arrays (broadcast)"
            )
        steps.append(
            f"fan-out: {plan.fact_table} over {partitions} partitions "
            f"with broadcast lookups"
        )
        steps.append("merge: coordinator merges partials and finalizes")
        return PhysicalPlan(
            kind="broadcast-join",
            logical=plan,
            steps=steps,
            sharded_joins=sharded,
            replicated_joins=replicated,
            fanout_query=fanout_query,
        )
    return PhysicalPlan(
        kind="fanout",
        logical=plan,
        steps=[
            f"fan-out: {plan.fact_table} over {partitions} partitions "
            f"via proxy (admission control + result cache)",
            "merge: coordinator merges partials and finalizes",
        ],
        replicated_joins=replicated,
        fanout_query=plan.query,
    )


def _needed_columns(plan: LogicalPlan, join) -> list[str]:
    """dim-table columns a join must collect: key first, then attrs."""
    attrs = sorted({
        ref.split(".", 1)[1] for ref in plan.dotted_references(join.table)
    })
    return [join.dim_key] + [c for c in attrs if c != join.dim_key]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_plan(physical: PhysicalPlan, proxy, **submit_kwargs) -> QueryResult:
    """Run a physical plan against a deployment's Cubrick proxy.

    ``submit_kwargs`` (``allow_partial``/``straggler_timeout``/
    ``deadline``) pass through to :meth:`CubrickProxy.submit` for
    ``fanout`` plans; the distributed-join kinds run through a region
    coordinator directly and do not honour them.
    """
    plan = physical.logical
    if physical.kind == "empty":
        return empty_result(plan)
    if physical.kind == "fanout":
        result = proxy.submit(physical.fanout_query, **submit_kwargs)
        if plan.join_strategies:
            result.metadata["join_strategies"] = dict(plan.join_strategies)
        return result
    if physical.kind == "broadcast-join":
        executor = _execute_broadcast
    else:
        executor = _execute_hash
    return _on_some_region(
        proxy, lambda coordinator: executor(physical, coordinator)
    )


def empty_result(plan: LogicalPlan) -> QueryResult:
    """The zero-row answer of an unsatisfiable WHERE; touches no node."""
    columns = tuple(plan.group_by) + tuple(
        agg.label() for agg in plan.aggregations
    )
    result = QueryResult(columns=columns, rows=[])
    result.metadata.update(
        {
            "table": plan.fact_table,
            "latency": 0.0,
            "fanout": 0,
            "empty_reason": plan.empty_reason,
            "join_strategies": dict(plan.join_strategies),
        }
    )
    return result


def _on_some_region(proxy, fn) -> QueryResult:
    """Run fn(coordinator) on regions in preference order, retrying
    retryable failures — the distributed-join analogue of proxy routing."""
    last: Optional[QueryFailedError] = None
    for region in proxy.region_preference:
        coordinator = proxy.coordinators[region]
        if not coordinator.sm.cluster.region(region).available:
            continue
        try:
            return fn(coordinator)
        except QueryFailedError as exc:
            last = exc
            if not exc.retryable:
                raise
    if last is not None:
        raise last
    raise RegionUnavailableError("no region available for query")


def _collect_lookups(
    plan: LogicalPlan, join, coordinator, *, filtered: bool
) -> tuple[dict[str, np.ndarray], np.ndarray, int, float, int]:
    """Collect one sharded dim table; return per-column lookup arrays.

    Returns ``(lookups, keys, size, latency, fanout)`` where each lookup
    maps a fact-side join-key value to the dim column's value (-1 = no
    matching dim row, the engine's drop marker).
    """
    columns = _needed_columns(plan, join)
    filters = plan.dim_filters.get(join.table, ()) if filtered else ()
    arrays, latency, fanout = coordinator.collect_columns(
        join.table, columns, tuple(filters)
    )
    keys = arrays[join.dim_key].astype(np.int64)
    fact_card = plan.binding.fact.schema.dimension(join.fact_key).cardinality
    dim_card = (
        plan.binding.join_infos[join.table]
        .schema.dimension(join.dim_key).cardinality
    )
    size = max(fact_card, dim_card)
    lookups: dict[str, np.ndarray] = {}
    for column in columns:
        lookup = np.full(size, -1, dtype=np.int64)
        lookup[keys] = arrays[column].astype(np.int64)
        lookups[column] = lookup
    return lookups, keys, size, latency, fanout


def _execute_broadcast(physical: PhysicalPlan, coordinator) -> QueryResult:
    plan = physical.logical
    extra_lookups: dict[str, tuple[str, np.ndarray]] = {}
    collect_latency = 0.0
    for join in physical.sharded_joins:
        lookups, __, __, latency, __ = _collect_lookups(
            plan, join, coordinator, filtered=False
        )
        collect_latency += latency
        for column, lookup in lookups.items():
            extra_lookups[f"{join.table}.{column}"] = (
                join.fact_key, lookup,
            )
    result = coordinator.execute(
        physical.fanout_query, extra_lookups=extra_lookups
    )
    result.metadata["latency"] = (
        result.metadata.get("latency", 0.0) + collect_latency
    )
    result.metadata["join_strategies"] = dict(plan.join_strategies)
    result.metadata["collect_latency"] = collect_latency
    return result


def _execute_hash(physical: PhysicalPlan, coordinator) -> QueryResult:
    plan = physical.logical
    join = physical.sharded_joins[0]
    lookups, keys, size, collect_latency, collect_fanout = _collect_lookups(
        plan, join, coordinator, filtered=True
    )
    presence = np.zeros(size, dtype=bool)
    presence[keys] = True

    merged, info = coordinator.execute_partials(physical.fanout_query)

    prefix = f"{join.table}."
    fanout_group = physical.fanout_query.group_by
    fanout_pos = {g: i for i, g in enumerate(fanout_group)}
    final = PartialResult(query=plan.query)
    final.rows_scanned = merged.rows_scanned
    final.bricks_scanned = merged.bricks_scanned
    for key_tuple, states in merged.groups.items():
        key_value = key_tuple[0]
        if key_value < 0 or key_value >= size or not presence[key_value]:
            continue  # no matching dim row: inner join drops the group
        out = []
        for g in plan.group_by:
            if g.startswith(prefix):
                out.append(int(lookups[g[len(prefix):]][key_value]))
            else:
                out.append(key_tuple[fanout_pos[g]])
        final.accumulate(tuple(out), states)
    result = final.finalize()
    result.metadata.update(
        {
            "table": plan.fact_table,
            "region": info["region"],
            "latency": collect_latency + info["latency"],
            "fanout": info["fanout"],
            "collect_fanout": collect_fanout,
            "collect_latency": collect_latency,
            "join_strategies": dict(plan.join_strategies),
        }
    )
    return result
