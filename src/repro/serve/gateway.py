"""ServeGateway: the asyncio TCP front door over the simulated fleet.

The gateway turns the repository from a simulator into a runnable
service. Real clients connect over TCP and speak the length-prefixed
JSON protocol (:mod:`repro.serve.protocol`); their queries run through
the exact same stack every DES experiment exercises — the catalog-aware
SQL planner behind ``deployment.sql()``, the workload manager's result
cache and admission v2, EDF executor queues, coordinator fan-out, the
span tracer — none of which knows the wall clock exists. A statement
that fails to plan gets a typed ``sql`` error before it takes a queue
slot; so does a join against a sharded dimension table, whose
distributed plan the one-fan-out-per-job manager does not schedule.

Two clock domains, one axis
---------------------------

Everything below the gateway reads ``simulator.now``. The gateway owns
a :class:`~repro.serve.clock.RealTimeClock` anchored at the warmed-up
deployment's virtual time and runs an **event-loop pump**: a background
task that repeatedly advances ``simulator.run_until(clock.now())``, so
virtual time tracks real time and queued query completions fire at
(approximately) the real moment they were simulated for. The pump
sleeps until the earlier of the next DES event
(:attr:`~repro.sim.engine.Simulator.next_event_time`) and a fixed
heartbeat (:data:`PUMP_INTERVAL`), and is woken immediately when a
submission enqueues new work — no busy polling, no added latency floor
beyond the heartbeat.

Backpressure and loss
---------------------

* **Per-connection in-flight window** — each connection may have at
  most ``max_inflight`` requests being processed; at the limit the
  gateway simply stops reading frames from that socket, which
  propagates as TCP backpressure to the client.
* **Slow-client write timeout** — a response write that cannot drain
  within :data:`WRITE_TIMEOUT` real seconds drops the connection (the
  request itself was still processed and counted).
* **Coalescing** — identical in-flight queries (same canonical plan,
  same versions of every table read, same tenant and priority) attach
  to the leader's execution instead of re-running it.
* **Graceful drain** — on SIGTERM (or :meth:`ServeGateway.drain`) the
  listener closes, new frames get ``shutting_down`` errors, every
  accepted in-flight request runs to completion with the pump alive,
  and metrics are flushed. An accepted request is never abandoned.
"""

from __future__ import annotations

import asyncio
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.cubrick.query import Query, QueryResult
from repro.errors import (
    ConfigurationError,
    QueryError,
    ReproError,
    SqlError,
    TableNotFoundError,
)
from repro.sched.cache import Versions, plan_key, table_versions
from repro.sched.manager import JobRecord
from repro.sched.queue import PriorityClass
from repro.serve.clock import RealTimeClock
from repro.serve.deploy import ServingDeployment
from repro.serve.protocol import (
    ConnectionClosed,
    ProtocolError,
    error_response,
    jsonable,
    ok_response,
    read_frame,
    write_frame,
)
from repro.sql.physical import PhysicalPlan, empty_result

#: JobRecord outcomes that mean "admission said no", reported to the
#: client as one typed ``rejected`` error with the outcome as reason.
REJECT_OUTCOMES = ("shed", "quota", "tenant_quota", "queue_full", "deadline")

#: Compiled statements the gateway keeps. Dashboards repeat a few dozen
#: statements, and planning one costs as much CPU as serving a cache hit.
COMPILED_CAPACITY = 256

#: Real seconds a response write may take to drain before the client
#: counts as too slow and its connection is dropped.
WRITE_TIMEOUT = 5.0

#: The pump's heartbeat, real seconds: its longest sleep between ticks.
PUMP_INTERVAL = 0.005


def parse_priority(name: object) -> PriorityClass:
    """Wire priority string → :class:`PriorityClass` (default interactive)."""
    if name is None:
        return PriorityClass.INTERACTIVE
    try:
        return PriorityClass[str(name).upper()]
    except KeyError:
        raise QueryError(
            f"unknown priority {name!r} "
            f"(known: {[p.name.lower() for p in PriorityClass]})"
        ) from None


def result_payload(result: QueryResult, outcome: str, latency: float) -> dict:
    """The wire form of one answer."""
    payload: dict = {
        "columns": list(result.columns),
        "rows": jsonable(result.rows),
        "outcome": outcome,
        "latency": latency,
        "rows_scanned": result.rows_scanned,
    }
    if outcome == "cache_hit":
        payload["cached"] = True
    if result.metadata.get("degraded"):
        # Degraded-completeness answers are explicit on the wire.
        payload["degraded"] = True
        payload["completeness"] = float(
            result.metadata.get("completeness", 0.0)
        )
    return payload


def served_query(physical: PhysicalPlan) -> Query:
    """The one fan-out :class:`Query` a compiled statement schedules.

    Raises a positioned :class:`~repro.errors.SqlError` for the
    distributed-join plans (``broadcast-join``, ``hash-join``): the
    workload manager runs one fan-out per job, so they are not served.
    """
    if physical.kind == "fanout":
        return physical.fanout_query
    logical = physical.logical
    table = physical.sharded_joins[0].table
    clause = next(c for c in logical.statement.joins if c.table == table)
    raise logical.error(
        f"join with sharded table {table!r} needs a {physical.kind} plan, "
        f"which the serving tier does not run (replicate the table, or "
        f"use deployment.sql)",
        clause.pos,
    )


@dataclass
class GatewayStats:
    """Running totals the ``stats`` op reports."""

    connections_total: int = 0
    connections_open: int = 0
    requests_total: int = 0
    responses_total: int = 0
    #: Typed error frames sent for wire-level violations.
    protocol_errors: int = 0
    #: Requests rejected by admission control, by reason.
    rejected: dict = field(default_factory=dict)
    #: Requests answered by attaching to an identical in-flight query.
    coalesced: int = 0
    #: Responses lost to a disconnected or too-slow client.
    dropped_responses: int = 0
    internal_errors: int = 0

    def count_reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def snapshot(self) -> dict:
        return {
            "connections_total": self.connections_total,
            "connections_open": self.connections_open,
            "requests_total": self.requests_total,
            "responses_total": self.responses_total,
            "protocol_errors": self.protocol_errors,
            "rejected": dict(sorted(self.rejected.items())),
            "coalesced": self.coalesced,
            "dropped_responses": self.dropped_responses,
            "internal_errors": self.internal_errors,
        }


class _Connection:
    """Per-connection write serialisation + in-flight window."""

    __slots__ = ("writer", "write_lock", "inflight")

    def __init__(self, writer: asyncio.StreamWriter, max_inflight: int):
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight = asyncio.Semaphore(max_inflight)


class ServeGateway:
    """The serving tier: one asyncio TCP server over one deployment."""

    def __init__(
        self,
        serving: ServingDeployment,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        metrics_path: Optional[str] = None,
    ):
        if max_inflight <= 0:
            raise ConfigurationError(
                f"max_inflight must be positive: {max_inflight}"
            )
        self.serving = serving
        self.manager = serving.manager
        self.deployment = serving.deployment
        self.simulator = serving.simulator
        self.obs = serving.obs
        self._host = host
        self._port = port
        self.clock: Optional[RealTimeClock] = None
        self.max_inflight = max_inflight
        self.metrics_path = metrics_path
        self.stats = GatewayStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._draining = False
        self._stopped = asyncio.Event()
        self._pending = 0
        #: Coalescing map: (plan, table versions, tenant, priority) → the
        #: leader's pending JobRecord future. The versions of every table
        #: read guarantee a request arriving after a load can never
        #: attach to a pre-load execution.
        self._inflight_queries: dict[tuple, asyncio.Future] = {}
        #: statement → (plan, ((table, catalog entry), ...)); see _compile.
        self._compiled: "OrderedDict[str, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound (port 0 resolves at start)."""
        if self._server is None:
            raise ConfigurationError("gateway is not started")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    @property
    def pending(self) -> int:
        """Accepted requests not yet answered (the drain invariant)."""
        return self._pending

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> tuple[str, int]:
        """Bind the listener, anchor the clock, start the pump."""
        if self._server is not None:
            raise ConfigurationError("gateway already started")
        # Anchor real time at the warmed-up deployment's virtual time:
        # from here on, the two clocks share one axis.
        self.clock = RealTimeClock(start=self.simulator.now)
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._pump_task = asyncio.ensure_future(self._pump())
        host, port = self.address
        self.obs.events.emit(
            "repro.serve.started", host=host, port=port,
        )
        return host, port

    async def serve_forever(self) -> None:
        """Block until the gateway has fully drained or been closed."""
        await self._stopped.wait()

    async def drain(self, *, timeout: float = 60.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, flush.

        Returns True when every accepted request was answered before
        ``timeout`` real seconds; the pump keeps running throughout so
        queued queries complete rather than being abandoned.
        """
        if self._stopped.is_set():
            return True
        first = not self._draining
        self._draining = True
        if first:
            self.obs.events.emit("repro.serve.draining", pending=self._pending)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = True
        remaining = timeout
        while self._pending > 0:
            if remaining <= 0:
                drained = False
                break
            await asyncio.sleep(PUMP_INTERVAL)
            remaining -= PUMP_INTERVAL
        await self._stop_pump()
        self.obs.events.emit(
            "repro.serve.drained", clean=drained, pending=self._pending
        )
        self._flush_metrics()
        self._stopped.set()
        return drained

    async def close(self) -> None:
        """Hard stop (tests/cleanup): no drain guarantee."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._stop_pump()
        self._stopped.set()

    async def _stop_pump(self) -> None:
        task, self._pump_task = self._pump_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    def _flush_metrics(self) -> None:
        if self.metrics_path is None:
            return
        from repro.obs.export import prometheus_text, write_text

        write_text(self.metrics_path, prometheus_text(self.obs.metrics))

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (POSIX event loops)."""
        import signal

        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.drain())
            )

    # ------------------------------------------------------------------
    # The event-loop pump
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """Advance the DES so virtual time tracks the real clock.

        Runs the simulator up to ``clock.now()`` each tick, then sleeps
        until the next queued event is due (or the heartbeat, whichever
        is sooner). A submission wakes it immediately via ``_wake``.
        """
        while True:
            target = self.clock()
            if target > self.simulator.now:
                self.simulator.run_until(target)
            next_event = self.simulator.next_event_time
            delay = PUMP_INTERVAL
            if next_event is not None:
                delay = min(delay, max(next_event - self.clock(), 0.0))
            try:
                await asyncio.wait_for(
                    self._wake.wait(), timeout=max(delay, 1e-4)
                )
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_total += 1
        self.stats.connections_open += 1
        conn = _Connection(writer, self.max_inflight)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    msg = await read_frame(reader)
                except ConnectionClosed:
                    break
                except ProtocolError as exc:
                    self.stats.protocol_errors += 1
                    try:
                        await self._send(
                            conn, error_response(None, exc.code, str(exc))
                        )
                    except ConnectionClosed:
                        break
                    if not exc.recoverable:
                        break
                    continue
                self.stats.requests_total += 1
                if self._draining:
                    try:
                        await self._send(
                            conn,
                            error_response(
                                msg.get("id"),
                                "shutting_down",
                                "gateway is draining",
                            ),
                        )
                        continue
                    except ConnectionClosed:
                        break
                # Backpressure: at the window limit this await parks the
                # read loop, so the kernel's receive buffer (and then the
                # client's send path) absorbs the excess.
                await conn.inflight.acquire()
                self._pending += 1
                task = asyncio.ensure_future(self._process(conn, msg))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            # A mid-request disconnect leaves tasks running; they finish
            # (keeping the drain invariant exact) and count their
            # response as dropped when the write fails.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self.stats.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, conn: _Connection, obj: dict) -> None:
        async with conn.write_lock:
            await write_frame(conn.writer, obj, timeout=WRITE_TIMEOUT)

    async def _process(self, conn: _Connection, msg: dict) -> None:
        try:
            response = await self._dispatch(msg)
        except Exception as exc:  # never kill the connection for a bug
            self.stats.internal_errors += 1
            response = error_response(
                msg.get("id"), "internal", f"{type(exc).__name__}: {exc}"
            )
        try:
            await self._send(conn, response)
            self.stats.responses_total += 1
        except ConnectionClosed:
            self.stats.dropped_responses += 1
        finally:
            self._pending -= 1
            conn.inflight.release()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, msg: dict) -> dict:
        rid = msg.get("id")
        op = msg.get("op")
        if op == "ping":
            return ok_response(
                rid, {"pong": True, "time": self.simulator.now}
            )
        if op == "stats":
            return ok_response(rid, self.snapshot())
        if op == "load":
            return self._handle_load(rid, msg)
        if op == "invalidate":
            return self._handle_invalidate(rid, msg)
        if op == "sql":
            return await self._handle_sql(rid, msg)
        return error_response(
            rid,
            "unknown_op",
            f"unknown op {op!r} (known: ping, stats, load, invalidate, sql)",
        )

    def _handle_load(self, rid: object, msg: dict) -> dict:
        table = msg.get("table")
        rows = msg.get("rows")
        if not isinstance(table, str) or not isinstance(rows, list):
            return error_response(
                rid, "bad_request", "load needs a table name and a rows list"
            )
        try:
            info = self.deployment.catalog.get(table)
        except TableNotFoundError as exc:
            return error_response(rid, "table_not_found", str(exc))
        try:
            coerced = [
                {str(k): float(v) for k, v in row.items()} for row in rows
            ]
        except (AttributeError, TypeError, ValueError):
            return error_response(
                rid, "bad_request",
                "load rows must be objects of numeric columns",
            )
        # json.loads accepts NaN and Infinity, and routing a row needs
        # every dimension: refuse the whole batch before any row lands.
        dimensions = [dim.name for dim in info.schema.dimensions]
        for index, row in enumerate(coerced):
            if not all(math.isfinite(v) for v in row.values()):
                return error_response(
                    rid, "bad_request",
                    f"load row {index} has a non-finite value",
                )
            missing = [name for name in dimensions if name not in row]
            if missing:
                return error_response(
                    rid, "bad_request",
                    f"load row {index} lacks dimension {missing[0]!r}",
                )
        try:
            loaded = self.deployment.load(table, coerced)
        except ReproError as exc:
            return error_response(rid, "bad_request", str(exc))
        return ok_response(
            rid,
            {
                "rows_loaded": loaded,
                "ingest_generation": info.ingest_generation,
            },
        )

    def _handle_invalidate(self, rid: object, msg: dict) -> dict:
        table = msg.get("table")
        if not isinstance(table, str):
            return error_response(
                rid, "bad_request", "invalidate needs a table name"
            )
        try:
            self.deployment.catalog.get(table)
        except TableNotFoundError as exc:
            return error_response(rid, "table_not_found", str(exc))
        dropped = 0
        if self.manager.cache is not None:
            dropped = self.manager.cache.invalidate_table(table)
        return ok_response(rid, {"invalidated": dropped})

    async def _handle_sql(self, rid: object, msg: dict) -> dict:
        tenant = msg.get("tenant")
        if tenant is not None:
            tenant = str(tenant)
        statement = msg.get("sql")
        if not isinstance(statement, str):
            return error_response(
                rid, "bad_request", "sql op needs an sql string"
            )
        try:
            priority = parse_priority(msg.get("priority"))
            physical = self._compile(statement)
            if physical.kind == "empty":
                # Unsatisfiable WHERE: zero rows, no fan-out.
                return ok_response(rid, result_payload(
                    empty_result(physical.logical), "ok", 0.0
                ))
            query = served_query(physical)
            versions = table_versions(self.deployment.catalog, query)
        except TableNotFoundError as exc:
            return error_response(rid, "table_not_found", str(exc))
        except SqlError as exc:
            return error_response(
                rid, "sql", str(exc), context=exc.context()
            )
        except QueryError as exc:
            return error_response(rid, "bad_request", str(exc))

        record, coalesced = await self._submit(
            query, versions, tenant, priority
        )
        return self._record_response(rid, record, coalesced)

    def _compile(self, statement: str) -> PhysicalPlan:
        """``deployment.compile_sql``, memoised by statement text.

        What the gateway does with a plan — its fan-out query, its
        emptiness, or refusing its distributed join — depends only on
        the statement and on the schemas and replication of the tables
        it binds, which are fixed for the life of a catalog entry. So a
        memoised plan stays valid while every bound table still has the
        same catalog entry; a dropped or re-created table recompiles.
        Statements that fail to compile are never memoised.
        """
        tables = self.deployment.catalog.tables
        entry = self._compiled.get(statement)
        if entry is not None and all(
            tables.get(name) is info for name, info in entry[1]
        ):
            self._compiled.move_to_end(statement)
            return entry[0]
        physical = self.deployment.compile_sql(statement)
        binding = physical.logical.binding
        bound = ((physical.logical.fact_table, binding.fact),)
        self._compiled[statement] = (
            physical, bound + tuple(binding.join_infos.items())
        )
        if len(self._compiled) > COMPILED_CAPACITY:
            self._compiled.popitem(last=False)
        return physical

    # ------------------------------------------------------------------
    # Submission bridge (asyncio ⇄ DES)
    # ------------------------------------------------------------------

    def _submit_future(
        self,
        query: Query,
        tenant: Optional[str],
        priority: PriorityClass,
    ) -> "asyncio.Future[JobRecord]":
        """One real submission; resolves when the DES completes the job.

        ``on_done`` fires either synchronously (cache hit, rejection) or
        later inside ``simulator.run_until`` on the pump task — the same
        event loop either way, so resolving the future directly is safe.
        """
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()

        def on_done(record: JobRecord) -> None:
            if not future.done():
                future.set_result(record)

        self.manager.submit(
            query, tenant=tenant, priority=priority, on_done=on_done
        )
        # New DES events exist (or an outcome resolved): pump now.
        self._wake.set()
        return future

    async def _submit(
        self,
        query: Query,
        versions: Versions,
        tenant: Optional[str],
        priority: PriorityClass,
    ) -> tuple[JobRecord, bool]:
        """Submit with coalescing; returns (record, was_coalesced)."""
        key = (plan_key(query), versions, tenant, priority)
        existing = self._inflight_queries.get(key)
        if existing is not None and not existing.done():
            self.stats.coalesced += 1
            return await existing, True
        future = self._submit_future(query, tenant, priority)
        self._inflight_queries[key] = future

        def forget(fut: asyncio.Future) -> None:
            if self._inflight_queries.get(key) is fut:
                del self._inflight_queries[key]

        future.add_done_callback(forget)
        return await future, False

    def _record_response(
        self, rid: object, record: JobRecord, coalesced: bool
    ) -> dict:
        if record.outcome in REJECT_OUTCOMES:
            self.stats.count_reject(record.outcome)
            return error_response(
                rid,
                "rejected",
                f"admission control rejected the query: {record.outcome}",
                reason=record.outcome,
            )
        if record.outcome == "failed" or record.result is None:
            return error_response(
                rid,
                "query_failed",
                record.error or "query execution failed",
            )
        payload = result_payload(record.result, record.outcome, record.latency)
        if coalesced:
            payload["coalesced"] = True
        return ok_response(rid, payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Gateway + fleet counters for the ``stats`` op."""
        out = self.stats.snapshot()
        out["pending"] = self._pending
        out["draining"] = self._draining
        out["virtual_time"] = self.simulator.now
        cache = self.manager.cache
        if cache is not None:
            out["cache"] = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
            }
        return out
