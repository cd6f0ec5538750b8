"""Self time on synthetic span trees, and the recorder's parent/request links."""

from __future__ import annotations

import asyncio

import pytest

from tracing import (
    END,
    NAME,
    PARENT,
    REQUEST_SPAN,
    RID,
    SpanRecorder,
    covered,
    layer_table,
    self_times,
)


def span(name, start, end, parent=None, rid=None):
    return [name, start, end, parent, rid]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: covered once
        span("a.x", 1.5, 2.5, parent=1),
        span("late", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_open_spans_count_nothing():
    spans = [span("root", 0.0, None), span("child", 1.0, 2.0, parent=0)]
    assert self_times(spans) == [0.0, 1.0]


def test_layer_table_sums_self_time_by_name_between_marks():
    spans = [
        span("x", 0.0, 1.0),
        span("x", 2.0, 4.0),
        span("y", 2.5, 3.0, parent=1),
        span("x", 5.0, 6.0),
    ]
    table = layer_table(spans, 1, 3)
    assert table["x"] == {"calls": 1, "self_s": pytest.approx(1.5), "incl_s": 2.0}
    assert table["y"]["calls"] == 1


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrappers_nest_and_inherit_the_request_id():
    rec = SpanRecorder(clock=_Clock())
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2, rid_of=lambda args: "r7")
    assert outer(1) == 4
    outer_span, inner_span = rec.spans
    assert inner_span[PARENT] == 0 and outer_span[PARENT] is None
    assert inner_span[RID] == outer_span[RID] == "r7"
    assert inner_span[END] < outer_span[END]


def test_deferred_work_joins_its_request_through_the_query_object():
    rec = SpanRecorder(clock=_Clock())
    query = object()

    async def process(conn, msg):
        submit = rec.wrap("submit", lambda q: rec.own(q, rec.current_rid()))
        submit(query)
        await asyncio.sleep(0)

    asyncio.run(rec.wrap_request(process)(None, {"id": 42}))
    execute = rec.wrap("execute", lambda q: None, rid_of=lambda args: rec.owner(args[0]))
    execute(query)
    names = [s[NAME] for s in rec.spans]
    assert names == [REQUEST_SPAN, "submit", "execute"]
    assert [s[RID] for s in rec.spans] == [42, 42, 42]
    assert rec.spans[2][PARENT] is None  # ran later, outside the request task
    assert rec.owner(query) is None  # each deferral is claimed once


def test_concurrent_requests_keep_their_own_roots():
    rec = SpanRecorder(clock=_Clock())
    work = rec.wrap("work", lambda: None)

    async def process(conn, msg):
        await asyncio.sleep(0)
        work()

    async def both():
        traced = rec.wrap_request(process)
        await asyncio.gather(traced(None, {"id": 1}), traced(None, {"id": 2}))

    asyncio.run(both())
    roots = {s[RID]: i for i, s in enumerate(rec.spans) if s[NAME] == REQUEST_SPAN}
    for s in rec.spans:
        if s[NAME] == "work":
            assert s[PARENT] == roots[s[RID]]
