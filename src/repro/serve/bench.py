"""``repro bench-serve``: the closed-loop serving benchmark.

Attaches the ROADMAP's missing number to the paper's claim: sustained
QPS and tail latency for interactive analytic queries under heavy
concurrent traffic, measured end to end through a real socket — client
→ wire protocol → gateway → admission → cache/queues → simulated fleet
→ back.

The harness is **closed-loop**: N asyncio clients, each with its own
TCP connection, each resubmitting as soon as its previous request
resolves (the saturation model — concurrency bounded by the client
population, matching :meth:`TrafficGenerator.run_closed_loop` on the
DES side). Tenant identity is Zipf-skewed with the exact weights the
DES load generator uses (:func:`repro.workloads.zipf_tenant_weights`),
each tenant replays a fixed dashboard pool of queries (the cache's
reason to exist), and tenant priorities cycle hot→sheddable exactly
like the overload experiment.

Everything runs in one process and one event loop — gateway, pump and
all clients — which is how a single machine sustains ≥1k concurrent
closed-loop connections without thread overheads. Latency is sampled
with a :class:`~repro.serve.clock.RealTimeClock` (the sanctioned
wall-clock boundary).

The report is machine-readable (``BENCH_serve.json``): sustained QPS,
p50/p95/p99, admission rejects by reason, cache hit rate, and the
gateway's own counters (protocol errors must be zero on a clean run).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import interpolated_percentiles
from repro.serve.client import ServeClient, ServeError
from repro.serve.clock import RealTimeClock
from repro.serve.deploy import build_serving_deployment
from repro.serve.gateway import ServeGateway
from repro.serve.protocol import ConnectionClosed
from repro.workloads.loadgen import _PRIORITY_CYCLE, zipf_tenant_weights
from repro.workloads.queries import QueryGenerator

#: How many connection attempts are in flight at once while ramping up
#: the client fleet (the listener's accept backlog is finite).
_CONNECT_BATCH = 50


class _BenchState:
    """Shared counters + latency samples across all client loops."""

    def __init__(self) -> None:
        self.requests = 0
        self.ok = 0
        self.cached = 0
        self.coalesced = 0
        self.degraded = 0
        self.errors: dict[str, int] = {}
        self.latencies: list[float] = []
        self.disconnects = 0

    def count_error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1


def _tenant_pools(
    seed: int, tenants: int, query_pool_size: int, deployment
) -> list[list[str]]:
    """Per-tenant fixed SQL dashboards over the serving deployment.

    Rendered through the canonical SQL printer, so the gateway's SQL
    path (parse → plan → plan-key) round-trips them and identical
    pool entries share one cache key.
    """
    from repro.cubrick.sql import render_query

    rng = np.random.default_rng(seed)
    schemas = [
        info.schema
        for name, info in sorted(deployment.catalog.tables.items())
        if not info.replicated
    ]
    generator = QueryGenerator(schemas, rng)
    return [
        [render_query(generator.next_query()) for __ in range(query_pool_size)]
        for __ in range(tenants)
    ]


async def _client_loop(
    index: int,
    host: str,
    port: int,
    *,
    pools: list[list[str]],
    weights: np.ndarray,
    seed: int,
    clock: RealTimeClock,
    stop: asyncio.Event,
    state: _BenchState,
    think_time: float,
) -> None:
    """One closed-loop client: submit, await, think, repeat."""
    rng = np.random.default_rng([seed, index])
    client = ServeClient(host, port)
    try:
        await client.connect()
    except (ConnectionError, OSError):
        state.disconnects += 1
        return
    try:
        while not stop.is_set():
            tenant_rank = int(rng.choice(len(weights), p=weights))
            pool = pools[tenant_rank]
            statement = pool[int(rng.integers(len(pool)))]
            priority = _PRIORITY_CYCLE[
                tenant_rank % len(_PRIORITY_CYCLE)
            ].name.lower()
            start = clock.now()
            state.requests += 1
            try:
                result = await client.sql(
                    statement,
                    tenant=f"tenant{tenant_rank:02d}",
                    priority=priority,
                )
            except ServeError as exc:
                state.count_error(exc.code)
            except ConnectionClosed:
                state.disconnects += 1
                break
            else:
                state.ok += 1
                state.latencies.append(clock.now() - start)
                if result.get("cached"):
                    state.cached += 1
                if result.get("coalesced"):
                    state.coalesced += 1
                if result.get("degraded"):
                    state.degraded += 1
            if think_time > 0:
                await asyncio.sleep(think_time)
    finally:
        await client.close()


async def run_bench_async(
    *,
    clients: int = 200,
    duration: float = 10.0,
    seed: int = 0,
    tenants: int = 6,
    query_pool_size: int = 8,
    think_time: float = 0.0,
    gateway: Optional[ServeGateway] = None,
) -> dict:
    """Run the closed-loop benchmark; returns the report dict.

    With no ``gateway`` supplied, a standard serving deployment is
    built, warmed up and served in-process on an ephemeral loopback
    port, then drained afterwards.
    """
    if clients <= 0:
        raise ConfigurationError(f"clients must be positive: {clients}")
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive: {duration}")
    own_gateway = gateway is None
    if own_gateway:
        serving = build_serving_deployment(seed)
        gateway = ServeGateway(serving)
        host, port = await gateway.start()
    else:
        host, port = gateway.address
    deployment = gateway.deployment

    pools = _tenant_pools(seed, tenants, query_pool_size, deployment)
    weights = np.asarray(zipf_tenant_weights(tenants, 1.1))
    clock = RealTimeClock()
    stop = asyncio.Event()
    state = _BenchState()

    tasks: list[asyncio.Task] = []
    # Ramp the fleet up in batches: the accept backlog is finite, and a
    # thousand simultaneous SYNs would see refusals, not backpressure.
    for batch_start in range(0, clients, _CONNECT_BATCH):
        batch = range(
            batch_start, min(batch_start + _CONNECT_BATCH, clients)
        )
        tasks.extend(
            asyncio.ensure_future(
                _client_loop(
                    i,
                    host,
                    port,
                    pools=pools,
                    weights=weights,
                    seed=seed,
                    clock=clock,
                    stop=stop,
                    state=state,
                    think_time=think_time,
                )
            )
            for i in batch
        )
        await asyncio.sleep(0)

    bench_start = clock.now()
    await asyncio.sleep(duration)
    stop.set()
    await asyncio.gather(*tasks, return_exceptions=True)
    elapsed = max(clock.now() - bench_start, 1e-9)

    snapshot = gateway.snapshot()
    if own_gateway:
        await gateway.drain()

    cache = gateway.manager.cache
    report: dict = {
        "benchmark": "serve",
        "config": {
            "clients": clients,
            "duration_seconds": duration,
            "seed": seed,
            "tenants": tenants,
            "query_pool_size": query_pool_size,
            "think_time": think_time,
        },
        "elapsed_seconds": elapsed,
        "requests": state.requests,
        "ok": state.ok,
        "qps": state.ok / elapsed,
        "latency_seconds": {},
        "client_errors": dict(sorted(state.errors.items())),
        "admission_rejects": snapshot.get("rejected", {}),
        "cached_responses": state.cached,
        "coalesced_responses": state.coalesced,
        "degraded_responses": state.degraded,
        "disconnects": state.disconnects,
        "protocol_errors": snapshot.get("protocol_errors", 0),
        "gateway": snapshot,
    }
    if state.latencies:
        p50, p95, p99 = interpolated_percentiles(
            state.latencies, (50, 95, 99)
        )
        report["latency_seconds"] = {
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "max": max(state.latencies),
            "samples": len(state.latencies),
        }
    if cache is not None:
        report["cache"] = {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "hit_ratio": cache.stats.hit_ratio(),
        }
    return report


def render_report(report: dict) -> str:
    """Human-readable summary of one bench report."""
    latency = report.get("latency_seconds", {})
    cache = report.get("cache", {})
    lines = [
        f"bench-serve: {report['config']['clients']} closed-loop clients "
        f"for {report['config']['duration_seconds']:.1f}s "
        f"(seed={report['config']['seed']})",
        f"  sustained: {report['qps']:.1f} qps "
        f"({report['ok']}/{report['requests']} ok)",
    ]
    if latency:
        lines.append(
            f"  latency: p50={latency['p50'] * 1e3:.2f}ms "
            f"p95={latency['p95'] * 1e3:.2f}ms "
            f"p99={latency['p99'] * 1e3:.2f}ms "
            f"max={latency['max'] * 1e3:.2f}ms"
        )
    rejects = report.get("admission_rejects", {})
    lines.append(
        "  admission rejects: "
        + (
            " ".join(f"{k}={v}" for k, v in sorted(rejects.items()))
            if rejects
            else "none"
        )
    )
    if cache:
        lines.append(
            f"  cache: hits={cache['hits']} misses={cache['misses']} "
            f"hit_ratio={cache['hit_ratio']:.3f}"
        )
    lines.append(
        f"  coalesced={report['coalesced_responses']} "
        f"protocol_errors={report['protocol_errors']} "
        f"disconnects={report['disconnects']}"
    )
    return "\n".join(lines) + "\n"


def write_report(report: dict, path: str) -> None:
    """Write the machine-readable report (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
