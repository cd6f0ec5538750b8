"""The benchmark's gateway process.

Builds the fleet (:func:`fleet.build_serving`), starts a
:class:`repro.serve.ServeGateway` on an ephemeral loopback port and
prints one JSON line ``{"ready": true, "port": ...}``. After that it
serves until SIGTERM (graceful drain) or until its stdin closes.

Stdin is a control channel, one command per line, each answered with
one JSON line on stdout:

* ``mark <label>`` records the real clock, the gateway, cache, queue and
  simulator counters and (traced) the span count under ``label``;
* ``report <from> <to>`` answers the marks and, traced, the per-layer
  table of spans opened between them.

With ``--trace 1`` the layer wrappers of :mod:`tracing` are installed
after the fleet is built and before the gateway starts.

Usage: ``python3 perfbench/server.py --seed N --trace 0|1``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fleet  # noqa: E402
import tracing  # noqa: E402


def snapshot(gateway, recorder) -> dict:
    """Counters the load generator turns into per-layer metrics."""
    manager = gateway.manager
    cache = manager.cache
    stats = gateway.stats
    queues = manager.queues.values()
    return {
        "spans": tracing.current(recorder),
        "requests": stats.requests_total,
        "coalesced": stats.coalesced,
        "rejected": sum(stats.rejected.values()),
        "cache_hits": cache.stats.hits,
        "cache_misses": cache.stats.misses,
        "cache_evictions": cache.stats.evictions,
        "queue_wait_s": sum(q.stats.total_wait for q in queues),
        "queue_dispatched": sum(q.stats.dispatched for q in queues),
        "sim_events": gateway.simulator.events_processed,
        "counts": dict(recorder.counts) if recorder is not None else {},
    }


async def control(gateway, recorder) -> None:
    """Serve the stdin control channel; drain the gateway at EOF."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    marks: dict[str, dict] = {}
    while True:
        line = await reader.readline()
        if not line:
            break
        words = line.decode().split()
        if words[:1] == ["mark"] and len(words) == 2:
            marks[words[1]] = snapshot(gateway, recorder)
            reply = {"mark": words[1]}
        elif words[:1] == ["report"] and len(words) == 3:
            first, last = marks[words[1]], marks[words[2]]
            layers = {}
            if recorder is not None:
                layers = tracing.layer_table(
                    recorder.spans, first["spans"], last["spans"]
                )
            reply = {"from": first, "to": last, "layers": layers}
        else:
            reply = {"error": f"unknown command {line!r}"}
        print(json.dumps(reply), flush=True)
    await gateway.drain()


async def main(seed: int, trace: bool) -> int:
    from repro.serve import ServeGateway

    serving = fleet.build_serving(seed)
    gateway = ServeGateway(serving, host="127.0.0.1", port=0)
    recorder = None
    if trace:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder, serving, gateway)
    __, port = await gateway.start()
    gateway.install_signal_handlers()
    print(json.dumps({"ready": True, "port": port, "pid": os.getpid()}), flush=True)
    control_task = asyncio.ensure_future(control(gateway, recorder))
    await gateway.serve_forever()
    control_task.cancel()
    try:
        await control_task
    except asyncio.CancelledError:
        pass
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.exit(asyncio.run(main(args.seed, bool(args.trace))))
