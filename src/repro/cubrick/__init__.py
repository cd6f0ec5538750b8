"""Cubrick: an in-memory analytic DBMS optimized for low-latency OLAP.

A from-scratch reimplementation of the system described in the paper's
case study (§IV): columnar in-memory storage organised by Granular
Partitioning into bricks with hotness counters and adaptive compression;
tables dynamically split into partitions mapped onto Shard Manager's
flat shard space; distributed query execution with per-region
coordinators and a stateless proxy handling retries, admission control
and blacklisting.
"""

from repro.cubrick.bricks import Brick, BrickStats
from repro.cubrick.compression import (
    MemoryBudget,
    MemoryMonitor,
    MonitorReport,
    classify_hot_cold,
    decay_all,
)
from repro.cubrick.coordinator import QueryExecution, RegionCoordinator
from repro.cubrick.granular import GranularIndex
from repro.cubrick.loadbalance import (
    DecompressedSizeExporter,
    FootprintExporter,
    IopsAwareExporter,
    LoadBalanceGeneration,
    MetricExporter,
    SsdExporter,
    make_exporter,
)
from repro.cubrick.locator import (
    AlwaysPartitionZero,
    CachedRandom,
    CoordinatorLocator,
    ForwardFromZero,
    LocatorChoice,
    LookupThenRandom,
)
from repro.cubrick.node import CubrickNode
from repro.cubrick.partitioning import (
    PartitioningPolicy,
    partition_of,
    plan_repartition,
    skew,
)
from repro.cubrick.proxy import CubrickProxy, QueryLogEntry
from repro.cubrick.query import (
    AggFunc,
    Aggregation,
    CompareOp,
    Filter,
    FilterOp,
    Having,
    Join,
    PartialResult,
    Query,
    QueryResult,
)
from repro.cubrick.schema import (
    Catalog,
    Dimension,
    Metric,
    TableInfo,
    TableSchema,
    partition_name,
    split_partition_name,
)
from repro.cubrick.sharding import (
    CollisionReport,
    ConsistentHashMapper,
    MonotonicHashMapper,
    NaiveHashMapper,
    ReplicaMapper,
    ShardDirectory,
    analyze_collisions,
    stable_hash,
)
from repro.cubrick.sql import parse_query, render_query
from repro.cubrick.loader import LoaderStats, StreamingLoader
from repro.cubrick.storage import PartitionStorage

__all__ = [
    "Brick",
    "BrickStats",
    "MemoryBudget",
    "MemoryMonitor",
    "MonitorReport",
    "classify_hot_cold",
    "decay_all",
    "RegionCoordinator",
    "QueryExecution",
    "GranularIndex",
    "LoadBalanceGeneration",
    "MetricExporter",
    "FootprintExporter",
    "DecompressedSizeExporter",
    "IopsAwareExporter",
    "SsdExporter",
    "make_exporter",
    "CoordinatorLocator",
    "LocatorChoice",
    "AlwaysPartitionZero",
    "ForwardFromZero",
    "LookupThenRandom",
    "CachedRandom",
    "CubrickNode",
    "PartitioningPolicy",
    "partition_of",
    "plan_repartition",
    "skew",
    "CubrickProxy",
    "QueryLogEntry",
    "AggFunc",
    "Aggregation",
    "CompareOp",
    "Filter",
    "FilterOp",
    "Having",
    "Join",
    "PartialResult",
    "Query",
    "QueryResult",
    "Catalog",
    "Dimension",
    "Metric",
    "TableInfo",
    "TableSchema",
    "partition_name",
    "split_partition_name",
    "CollisionReport",
    "ConsistentHashMapper",
    "MonotonicHashMapper",
    "NaiveHashMapper",
    "ReplicaMapper",
    "ShardDirectory",
    "analyze_collisions",
    "stable_hash",
    "PartitionStorage",
    "parse_query",
    "render_query",
    "StreamingLoader",
    "LoaderStats",
]
