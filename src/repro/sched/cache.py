"""Query result cache keyed by normalised plan + table versions.

Dashboard workloads repeat: the same handful of queries per tenant run
over and over, and serving a repeat without touching the cluster is the
cheapest capacity there is. The cache is owned by the
:class:`~repro.sched.WorkloadManager` alone: it probes before admission
and stores each fresh answer after execution.

Correctness is by *versioned keys*, not explicit invalidation: a key
carries the partitioning generation (bumped by re-partitions) and the
ingestion generation (bumped by every load and by every streaming-loader
flush) of *every table the query reads* — the fact table and each join
table, read once per probe or store by :func:`table_versions`. Any write
to any of them makes previously cached answers unreachable; they age out
of the LRU ring. An explicit :meth:`QueryResultCache.invalidate_table`
is provided for operators who want the memory back immediately.

The normalised plan is the canonical SQL rendering from
:mod:`repro.cubrick.sql` — two structurally identical queries built
through different code paths share one cache line.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cubrick.query import Query, QueryResult
    from repro.cubrick.schema import Catalog

#: Modelled latency of answering from the result cache (seconds).
CACHE_HIT_LATENCY = 0.0002

#: ``(table, generation, ingest_generation)`` for each table a query reads.
Versions = tuple[tuple[str, int, int], ...]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def table_versions(catalog: "Catalog", query: "Query") -> Versions:
    """The version snapshot of every table ``query`` reads.

    The fact table first, then each join table in join order. Raises
    :class:`~repro.errors.TableNotFoundError` for an unknown table.
    """
    versions = []
    for table in (query.table, *(join.table for join in query.joins)):
        info = catalog.get(table)
        versions.append((table, info.generation, info.ingest_generation))
    return tuple(versions)


def plan_key(query: "Query") -> str:
    """Normalised plan text for one query (canonical SQL rendering)."""
    from repro.cubrick.sql import render_query

    return render_query(query)


class QueryResultCache:
    """Bounded LRU of finalised query results with versioned keys."""

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ConfigurationError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        # (versions, plan) -> QueryResult snapshot.
        self._entries: "OrderedDict[tuple, QueryResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query: "Query", versions: Versions) -> Optional["QueryResult"]:
        """Cached result for this plan at these table versions, or None.

        Returns an independent copy: callers mutate result metadata
        (latency accounting, attempt counts) and must never corrupt the
        cached snapshot.
        """
        key = (versions, plan_key(query))
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return self._copy(entry)

    def put(
        self, query: "Query", result: "QueryResult", versions: Versions
    ) -> None:
        """Cache one result snapshot (full, non-degraded answers only).

        ``versions`` must be the snapshot read *before* the query ran: a
        load landing mid-execution then makes this entry unreachable
        instead of filing a pre-load answer under the post-load key.
        Partial or degraded answers are refused: a cache must never
        replay an answer that was only acceptable under the failure
        conditions of the moment it was computed.
        """
        if result.metadata.get("partial") or result.metadata.get("degraded"):
            return
        key = (versions, plan_key(query))
        self._entries[key] = self._copy(result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_table(self, table: str) -> int:
        """Drop every entry that reads ``table``; returns entries dropped."""
        stale = [
            key for key in self._entries
            if any(version[0] == table for version in key[0])
        ]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    @staticmethod
    def _copy(result: "QueryResult") -> "QueryResult":
        from repro.cubrick.query import QueryResult

        return QueryResult(
            columns=result.columns,
            rows=list(result.rows),
            rows_scanned=result.rows_scanned,
            bricks_scanned=result.bricks_scanned,
            metadata=dict(result.metadata),
        )
