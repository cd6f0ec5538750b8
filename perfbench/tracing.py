"""In-memory spans around each layer's public entry points.

Used only by ``server.py --trace 1``. :func:`install` replaces functions
where each layer looks them up (a module global, a class attribute or an
instance attribute) with timing wrappers; nothing under ``src/`` knows.

A span is ``[name, start, end, parent, request_id]`` with times on the
gateway thread's CPU clock (``thread_time``), so time the process spends
preempted never counts as layer work and self times compare with the
process CPU read from ``/proc``. Synchronous spans nest on a stack; a
request's root span (:data:`REQUEST_SPAN`, the gateway's per-request
task) is found through a context variable, because asyncio interleaves
requests.
Deferred work joins its request through the ``Query`` object handed to
``WorkloadManager.submit``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import json
import time
import types
from collections import defaultdict
from typing import Callable, Optional

#: The async per-request root, from frame decoded to response written. It
#: spans CPU spent on other requests while it waits, so it is left out of
#: CPU coverage.
REQUEST_SPAN = "serve.request"

NAME, START, END, PARENT, RID = range(5)


class SpanRecorder:
    """Collects spans and event counts for one gateway process."""

    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._root = contextvars.ContextVar("perfbench_root", default=None)
        #: id(query) -> (query, request id): deferred executions' owner.
        self._owners: dict[int, tuple] = {}

    # -- span primitives ------------------------------------------------

    def open(self, name: str, rid: object = None) -> int:
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = self._root.get()
        if rid is None and parent is not None:
            rid = self.spans[parent][RID]
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, rid])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted: {popped} != {index}")

    def wrap(self, name: str, fn: Callable, *, rid_of=None, after=None) -> Callable:
        """``fn`` timed as a synchronous span named ``name``.

        ``rid_of(args)`` names the request explicitly; ``after(result,
        args)`` records counts from the result.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder.open(name, rid_of(args) if rid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def wrap_request(self, process: Callable) -> Callable:
        """The gateway's per-request coroutine, as the request's root span."""
        recorder = self

        async def traced(conn, msg):
            index = len(recorder.spans)
            rid = msg.get("id") if isinstance(msg, dict) else None
            recorder.spans.append([REQUEST_SPAN, recorder.clock(), None, None, rid])
            recorder._root.set(index)
            try:
                return await process(conn, msg)
            finally:
                recorder.spans[index][END] = recorder.clock()

        return traced

    # -- deferred work ----------------------------------------------------

    def own(self, query, rid: object) -> None:
        self._owners[id(query)] = (query, rid)

    def owner(self, query) -> object:
        entry = self._owners.pop(id(query), None)
        return entry[1] if entry is not None and entry[0] is query else None

    def current_rid(self) -> object:
        index = self._stack[-1] if self._stack else self._root.get()
        return None if index is None else self.spans[index][RID]


class _TimedContext:
    """A context manager whose enter and exit are each an ``obs.trace`` span."""

    __slots__ = ("_recorder", "_inner")

    def __init__(self, recorder: SpanRecorder, inner):
        self._recorder = recorder
        self._inner = inner

    def __enter__(self):
        index = self._recorder.open("obs.trace")
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.close(index)

    def __exit__(self, *exc_info):
        index = self._recorder.open("obs.trace")
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._recorder.close(index)


def install(recorder: SpanRecorder, serving, gateway) -> None:
    """Wrap every layer's entry points for one serving fleet and gateway."""
    import repro.cubrick.storage as storage_mod
    import repro.serve.gateway as gateway_mod
    import repro.serve.protocol as protocol_mod
    from repro.cubrick.query import PartialResult
    from repro.cubrick.storage import PartitionStorage

    rec = recorder
    deployment = serving.deployment
    manager = serving.manager
    counts = rec.counts

    def count(key: str, amount: float = 1.0) -> None:
        counts[key] += amount

    # serve.protocol: frame decode, frame encode, result coercion.
    def decoded(result, args):
        if isinstance(result, dict) and rec.spans[-1][RID] is None:
            rec.spans[-1][RID] = result.get("id")

    protocol_mod.json = types.SimpleNamespace(
        loads=rec.wrap("serve.protocol", json.loads, after=decoded),
        dumps=json.dumps,
    )
    protocol_mod.encode_frame = rec.wrap(
        "serve.protocol", protocol_mod.encode_frame,
        rid_of=lambda args: args[0].get("id") if isinstance(args[0], dict) else None,
    )
    gateway_mod.jsonable = rec.wrap("serve.protocol", gateway_mod.jsonable)
    gateway._process = rec.wrap_request(gateway._process)

    # sql + sched.
    deployment.compile_sql = rec.wrap("sql.compile", deployment.compile_sql)

    submit = manager.submit

    def traced_submit(query, **kwargs):
        rec.own(query, rec.current_rid())
        return submit(query, **kwargs)

    manager.submit = rec.wrap("sched.submit", traced_submit)
    if manager.cache is not None:
        manager.cache.get = rec.wrap("sched.cache.get", manager.cache.get)
    if manager.admission is not None:
        manager.admission.decide = rec.wrap("sched.admission", manager.admission.decide)
    manager._execute = rec.wrap(
        "sched.execute", manager._execute, rid_of=lambda args: rec.owner(args[0])
    )

    # cubrick + smc: proxy, coordinators, SMC resolve, nodes, storage, kernels.
    deployment.proxy.submit = rec.wrap(
        "cubrick.proxy", deployment.proxy.submit,
        after=lambda result, args: count("queries"),
    )

    def executed(result, args):
        count("executions")
        count("fanout", result.metadata.get("fanout", 0))
        count("rows_scanned", result.rows_scanned)
        count("bricks_scanned", result.bricks_scanned)
        count("rows_returned", len(result.rows))

    for coordinator in deployment.coordinators.values():
        coordinator.execute = rec.wrap(
            "cubrick.coordinator", coordinator.execute, after=executed
        )
    for sm in deployment.sm_servers.values():
        sm.discovery.resolve = rec.wrap(
            "smc.resolve", sm.discovery.resolve,
            after=lambda result, args: count("resolves"),
        )
    for node in deployment.nodes.values():
        node.execute_local = rec.wrap("cubrick.node", node.execute_local)
    PartitionStorage.execute = rec.wrap("cubrick.storage.scan", PartitionStorage.execute)
    PartialResult.finalize = rec.wrap("cubrick.merge", PartialResult.finalize)
    for kernel in ("encode_group_keys", "group_counts", "grouped_state_arrays",
                   "scalar_state"):
        setattr(storage_mod, kernel,
                rec.wrap("cubrick.kernels", getattr(storage_mod, kernel)))

    # Write path.
    deployment.load = rec.wrap(
        "cubrick.deployment.load", deployment.load,
        after=lambda result, args: count("rows_loaded", result),
    )
    PartitionStorage.insert_many = rec.wrap(
        "cubrick.storage.insert", PartitionStorage.insert_many
    )

    # obs.trace (the repository's own tracer) and sim.
    tracer = deployment.obs.tracer
    span = tracer.span
    tracer.span = lambda name, **labels: _TimedContext(rec, span(name, **labels))
    deployment.simulator.run_until = rec.wrap(
        "sim.run_until", deployment.simulator.run_until
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        if span[END] is None:
            out.append(0.0)
            continue
        duration = span[END] - span[START]
        out.append(duration - covered(children.get(index, []), span[START], span[END]))
    return out


def layer_table(spans: list[list], first: int, last: int) -> dict[str, dict]:
    """Per span name: calls, self seconds and inclusive seconds.

    Covers spans ``first <= index < last`` (those opened between two
    marks); self time is computed over the whole list so children are
    never cut off.
    """
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for index in range(first, last):
        span = spans[index]
        if span[END] is None:
            continue
        row = table.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[index]
        row["incl_s"] += span[END] - span[START]
    return table


def synchronous_self_s(table: dict[str, dict]) -> float:
    """Seconds of CPU-bound (synchronous) layer work in a layer table."""
    return sum(row["self_s"] for name, row in table.items() if name != REQUEST_SPAN)


def current(recorder: Optional[SpanRecorder]) -> int:
    return 0 if recorder is None else len(recorder.spans)
