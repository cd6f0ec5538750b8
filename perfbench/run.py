"""Wire-level serving benchmark: open-loop traffic against a gateway process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dash-hit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus an untraced pass for the tracing
overhead). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Every read
is checked against the answer oracle; a wrong answer, or a load
generator that fell behind, exits non-zero without a result line.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import fleet  # noqa: E402
from fleet import BATCH_ROWS, N_ROWS, TABLE  # noqa: E402
from loadgen import CONNECTIONS, Gateway, LoadGen, Request  # noqa: E402
import tracing  # noqa: E402
from stats import LadderSearch, StepResult, ladder_verdict  # noqa: E402

#: Gateway set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Untimed open-loop warm-up at the nominal rate before any window.
WARM_S = 2.0
#: Share of ``--seconds`` the nominal window lasts (ladder steps: fleet.WORKLOADS).
WINDOW_SHARE = 0.7
#: Closed-loop loads of the write probe.
PROBE_LOADS = 500
#: p99 needs this many samples (ten beyond it).
MIN_P99_SAMPLES = 1000
#: A run is invalid when the generator is later than this at p99 ...
LATE_LIMIT_MS = 20.0
#: ... or uses more than this share of one core.
CPU_SHARE_LIMIT = 0.85
#: Longest wait for a phase's last answers.
DRAIN_S = 20.0


class RunInvalid(Exception):
    """The measurement itself is not trustworthy (exit code 3)."""


class Inputs:
    """Every request of a run, drawn from the seed."""

    def __init__(self, workload: fleet.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.pools = fleet.dashboard_pools(seed) if workload.reads == "pool" else None
        self._adhoc: list = []
        self._adhoc_used = 0
        self._batches: dict[int, list] = {}

    def batch_rows(self, index: int) -> list:
        rows = self._batches.get(index)
        if rows is None:
            rows = fleet.to_rows(fleet.batch_columns(self.seed, index))
            self._batches[index] = rows
        return rows

    def _next_adhoc(self, count: int) -> list:
        need = self._adhoc_used + count
        if need > len(self._adhoc):
            self._adhoc = fleet.adhoc_statements(self.seed, max(need, 2 * len(self._adhoc)))
        out = self._adhoc[self._adhoc_used:need]
        self._adhoc_used = need
        return out

    def pool_statements(self) -> list[tuple[str, object, str]]:
        return [
            (sql, query, f"tenant{t:02d}")
            for t, pool in enumerate(self.pools)
            for sql, query in pool
        ]

    def phase(self, phase_id: int, label: str, rate: float, duration: float) -> list[Request]:
        """Open-loop reads for one phase at ``rate`` per second."""
        offsets = fleet.arrival_offsets(self.seed, phase_id, rate, duration)
        if self.workload.reads == "pool":
            choices = fleet.pool_choices(self.seed, phase_id, len(offsets))
            reads = [(*self.pools[t][s], f"tenant{t:02d}") for t, s in choices]
        else:
            reads = [(sql, query, "adhoc") for sql, query in self._next_adhoc(len(offsets))]
        return [
            read_request(sql, query, tenant, i % CONNECTIONS, float(offset), label)
            for i, (offset, (sql, query, tenant)) in enumerate(zip(offsets, reads))
        ]


def read_request(sql, query, tenant, conn, offset, label) -> Request:
    return Request("read", conn, offset,
                   {"op": "sql", "sql": sql, "tenant": tenant},
                   label, key=sql, query=query)


@dataclass
class Window:
    """A timed open-loop phase and the resources it used."""

    requests: list
    wall_s: float
    server_cpu_s: float
    client_cpu_s: float

    @property
    def reads(self) -> list:
        return [r for r in self.requests if r.kind == "read"]

    def answered(self) -> int:
        return sum(1 for r in self.requests if r.response is not None)

    def step(self, rate: float) -> StepResult:
        reads = self.reads
        good = [r for r in reads if r.ok and not _degraded(r)]
        last = max((r.done for r in good), default=0.0)
        first = min((r.due for r in reads), default=0.0)
        return StepResult(
            rate=rate,
            latencies_ms=[r.latency * 1e3 for r in good],
            due=[r.due for r in good],
            attempted=len(reads),
            failed=len(reads) - len(good),
            achieved_qps=len(good) / (last - first) if last > first else 0.0,
        )


@dataclass
class Drive:
    """Everything one gateway process served in a run."""

    requests: list = field(default_factory=list)
    window: Window = None
    steps: list = field(default_factory=list)
    probe: list = field(default_factory=list)
    probe_cpu_s: float = 0.0
    reports: dict = field(default_factory=dict)
    #: Offered rate at which the generator fell behind and the ladder stopped.
    generator_bound: float = None
    #: Gateway peak RSS (``VmHWM``) at the end of the window.
    rss_mb: float = 0.0


def _degraded(req: Request) -> bool:
    return bool(req.response.get("result", {}).get("degraded"))


async def timed_phase(gateway: Gateway, lg: LoadGen, requests: list) -> Window:
    cpu0, mine0, t0 = gateway.cpu_s(), time.process_time(), time.monotonic()
    await lg.run(requests)
    await lg.wait_idle(DRAIN_S)
    wall = time.monotonic() - t0
    return Window(requests, wall, gateway.cpu_s() - cpu0, time.process_time() - mine0)


async def drive(gateway: Gateway, inputs: Inputs, seconds: float, *,
                ladder: bool, probe: bool, marks: bool) -> Drive:
    """Warm up, then run the nominal window, the ladder and the write probe."""
    workload = inputs.workload
    out = Drive()
    lg = LoadGen(inputs.batch_rows)
    await lg.connect(gateway.port)
    try:
        if workload.reads == "pool":
            warm = [
                read_request(sql, query, tenant, i % CONNECTIONS, 0.0, "warm")
                for i, (sql, query, tenant) in enumerate(inputs.pool_statements())
            ]
            await lg.run(warm)
            await lg.wait_idle(DRAIN_S)
            out.requests += warm
        warmup = inputs.phase(0, "warm", workload.nominal_qps, WARM_S)
        await lg.run(warmup)
        await lg.wait_idle(DRAIN_S)
        out.requests += warmup

        window = inputs.phase(1, "window", workload.nominal_qps, seconds * WINDOW_SHARE)
        if marks:
            await gateway.command("mark w0")
        out.window = await timed_phase(gateway, lg, window)
        # Peak RSS of serving at the nominal rate: the ladder's overloaded
        # steps queue requests, and how many depends on where the knee falls.
        out.rss_mb = gateway.peak_rss_mb()
        if marks:
            await gateway.command("mark w1")
        out.requests += window

        if ladder:
            out.steps.append(out.window.step(workload.nominal_qps))
            search = LadderSearch(workload.nominal_qps, workload.ladder_from,
                                  fleet.LADDER_RATIO, workload.ladder_to,
                                  fleet.LADDER_REFINE)
            phase_id = 2
            while (rate := search.next_rate()) is not None:
                step = inputs.phase(phase_id, f"step{phase_id - 2}", rate,
                                    seconds * workload.step_share)
                phase_id += 1
                window_ = await timed_phase(gateway, lg, step)
                out.requests += step
                if not generator_healthy(window_):
                    # The generator, not the gateway, is the limit here:
                    # the step says nothing about the program.
                    out.generator_bound = rate
                    break
                result = window_.step(rate)
                out.steps.append(result)
                search.record(rate, result.passes(workload.limit_ms))
                await asyncio.sleep(0.2)

        if probe:
            # The full-table read is cached before the loads; after them it
            # must miss (each load bumped the ingest generation) and see
            # every acknowledged batch.
            out.requests.append(await lg.call(totals_request(), DRAIN_S))
            cpu0 = gateway.cpu_s()
            for __ in range(PROBE_LOADS):
                load = Request("load", 0, 0.0, {"op": "load", "table": TABLE}, "probe")
                out.probe.append(await lg.call(load, DRAIN_S))
            out.probe_cpu_s = gateway.cpu_s() - cpu0
            out.requests += out.probe
            out.requests.append(await lg.call(totals_request(), DRAIN_S))
        if marks:
            await gateway.command("mark end")
            out.reports["window"] = await gateway.command("report w0 w1")
            out.reports["writes"] = await gateway.command("report w0 end")
    finally:
        await lg.close()
    if lg.lost:
        raise RuntimeError("the gateway closed a connection mid-run")
    return out


def totals_request() -> Request:
    from repro.cubrick.query import AggFunc, Aggregation, Query
    from repro.cubrick.sql import render_query

    query = Query.build(TABLE, [
        Aggregation(AggFunc.SUM, "clicks"),
        Aggregation(AggFunc.SUM, "cost"),
        Aggregation(AggFunc.COUNT, "clicks"),
    ])
    return read_request(render_query(query), query, "totals", 0, 0.0, "probe")


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


@dataclass
class Verdict:
    wrong: int = 0
    #: phase label -> (attempted, failed)
    phases: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


def verify(requests: list, seed: int, loads_sent: int) -> Verdict:
    """Check every answer against the oracle; count failures per phase.

    A read must match the table after every load acknowledged before it
    was sent, and may also include loads sent before its answer came.
    The write probe's full-table reads see every acknowledged batch.
    """
    from oracle import Oracle, rows_match

    oracle = Oracle(fleet.base_columns(seed))
    for index in range(loads_sent):
        oracle.append(fleet.batch_columns(seed, index))
    verdict = Verdict()
    for req in requests:
        attempted, failed = verdict.phases.get(req.phase, (0, 0))
        reason = _failure(req, oracle, rows_match)
        if reason is not None:
            failed += 1
            verdict.errors[reason] = verdict.errors.get(reason, 0) + 1
            if reason == "wrong_answer":
                verdict.wrong += 1
        verdict.phases[req.phase] = (attempted + 1, failed)
    return verdict


def _failure(req: Request, oracle, rows_match):
    if req.response is None:
        return "timeout"
    if not req.ok:
        return str(req.response.get("error", {}).get("code", "error"))
    if req.kind == "load":
        return None
    result = req.response["result"]
    if result.get("degraded"):
        return "degraded"
    for applied in range(req.lo, req.hi + 1):
        expected = oracle.answer(req.query, N_ROWS + applied * BATCH_ROWS, key=req.key)
        if rows_match(result["rows"], expected):
            return None
    return "wrong_answer"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def loadgen_health(window: Window) -> tuple[float, float]:
    """(p99 lateness ms, share of one core) of the generator in a window."""
    late = [(r.sent - r.due) * 1e3 for r in window.requests]
    return float(np.percentile(late, 99)), window.client_cpu_s / window.wall_s


def generator_healthy(window: Window) -> bool:
    late_p99, cpu_share = loadgen_health(window)
    return late_p99 <= LATE_LIMIT_MS and cpu_share <= CPU_SHARE_LIMIT


def check_health(window: Window) -> None:
    """Raise :class:`RunInvalid` when the generator fell behind in ``window``."""
    if not generator_healthy(window):
        late_p99, cpu_share = loadgen_health(window)
        raise RunInvalid(
            f"load generator fell behind: late p99 {late_p99:.2f} ms "
            f"(limit {LATE_LIMIT_MS}), cpu share {cpu_share:.2f} "
            f"(limit {CPU_SHARE_LIMIT})"
        )


def program_failure(verdict: Verdict, window: Window, workload) -> str:
    """Why the program failed a run ("" when it did not)."""
    if verdict.wrong:
        return f"{verdict.wrong} wrong answers"
    step = window.step(workload.nominal_qps)
    if not step.passes(workload.limit_ms):
        tail = step.tail_ms()
        return (f"the nominal rate fails: tail {'n/a' if tail is None else f'{tail:.2f} ms'} "
                f"(limit {workload.limit_ms:g} ms), failed {step.failed}/{step.attempted}, "
                f"backlog {'growing' if step.backlog() else 'stable'}")
    return ""


def cpu_ms_per_req(window: Window) -> float:
    return window.server_cpu_s * 1e3 / max(window.answered(), 1)


def end_to_end(drive_: Drive, setups: list) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_ms_per_req": (cpu_ms_per_req(drive_.window), "ms"),
        "rss_mb": (drive_.rss_mb, "MB"),
    }


def ungated(drive_: Drive, workload) -> dict:
    """Latencies, capacity and write-probe CPU: printed, not in the result line.

    On a shared 2-vCPU host, busy periods lift whole runs' latencies and
    the host's speed drifts, so these spread between runs by more than
    the 25 % a gated metric may have.
    """
    lat = [r.latency * 1e3 for r in drive_.window.reads if r.ok and not _degraded(r)]
    write_ms = [r.latency * 1e3 for r in drive_.probe if r.ok]
    out = {}
    if drive_.steps:
        best = ladder_verdict(drive_.steps, workload.limit_ms)
        if best is not None:
            out["max_rate_qps"] = (best.achieved_qps, "1/s")
    if lat:
        out["lat_p50_ms"] = (float(np.percentile(lat, 50)), f"ms over {len(lat)} reads")
    if len(lat) >= MIN_P99_SAMPLES:
        out["lat_p99_ms"] = (float(np.percentile(lat, 99)), f"ms over {len(lat)} reads")
    if write_ms:
        out["write_p50_ms"] = (float(np.percentile(write_ms, 50)),
                               f"ms over {len(write_ms)} loads")
        out["write_p90_ms"] = (float(np.percentile(write_ms, 90)),
                               f"ms over {len(write_ms)} loads")
        out["write_cpu_ms_per_load"] = (drive_.probe_cpu_s * 1e3 / len(write_ms), "ms")
    return out


def per_layer(traced: Drive, untraced: Window) -> dict:
    rep = traced.reports["window"]
    first, last, layers = rep["from"], rep["to"], rep["layers"]
    writes = traced.reports["writes"]

    def delta(key: str, a=first, b=last) -> float:
        return b[key] - a[key]

    def count(key: str, a=first, b=last) -> float:
        return b["counts"].get(key, 0.0) - a["counts"].get(key, 0.0)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    def per(x: float, n: float) -> float:
        return x / n if n else 0.0

    reqs = delta("requests")
    queries = count("queries")
    server_cpu = traced.window.server_cpu_s
    covered = tracing.synchronous_self_s(layers)
    probes = delta("cache_hits") + delta("cache_misses")
    rows_loaded = count("rows_loaded", writes["from"], writes["to"])
    late_p99, cpu_share = loadgen_health(untraced)
    us = 1e6
    return {
        "serve.protocol.us_per_req": (per(self_s("serve.protocol") * us, reqs), "us"),
        "serve.gateway.residual_us_per_req": (per((server_cpu - covered) * us, reqs), "us"),
        "serve.pump.run_until_calls_per_req": (per(calls("sim.run_until"), reqs), "count"),
        "serve.coalesced_ratio": (per(delta("coalesced"), reqs), "ratio"),
        "sql.compile.us_per_req": (per(self_s("sql.compile") * us, reqs), "us"),
        "sched.submit.us_per_req": (per(self_s("sched.submit") * us, reqs), "us"),
        "sched.cache.get_us_per_req": (per(self_s("sched.cache.get") * us, reqs), "us"),
        "sched.cache.probes_per_req": (per(probes, reqs), "count"),
        "sched.cache.hit_ratio": (per(delta("cache_hits"), probes), "ratio"),
        "sched.cache.evictions_per_req": (per(delta("cache_evictions"), reqs), "count"),
        "sched.admission.us_per_req": (per(self_s("sched.admission") * us, reqs), "us"),
        "sched.admission.reject_ratio": (per(delta("rejected"), reqs), "ratio"),
        "sched.queue.wait_ms_mean": (
            per(delta("queue_wait_s") * 1e3, delta("queue_dispatched")), "ms"),
        "sched.execute.us_per_query": (per(self_s("sched.execute") * us, queries), "us"),
        "cubrick.proxy.us_per_query": (per(self_s("cubrick.proxy") * us, queries), "us"),
        "smc.resolve.calls_per_query": (per(count("resolves"), queries), "count"),
        "smc.resolve.us_per_query": (per(self_s("smc.resolve") * us, queries), "us"),
        "cubrick.coordinator.us_per_query": (
            per(self_s("cubrick.coordinator") * us, queries), "us"),
        "cubrick.coordinator.fanout_per_query": (
            per(count("fanout"), count("executions")), "count"),
        "cubrick.node.us_per_query": (per(self_s("cubrick.node") * us, queries), "us"),
        "cubrick.merge.us_per_query": (per(self_s("cubrick.merge") * us, queries), "us"),
        "cubrick.storage.scan_us_per_query": (
            per(self_s("cubrick.storage.scan") * us, queries), "us"),
        "cubrick.storage.bricks_per_query": (per(count("bricks_scanned"), queries), "count"),
        "cubrick.storage.rows_examined_per_row_returned": (
            per(count("rows_scanned"), count("rows_returned")), "ratio"),
        "cubrick.kernels.us_per_query": (per(self_s("cubrick.kernels") * us, queries), "us"),
        "cubrick.kernels.rows_per_s": (
            per(count("rows_scanned"), self_s("cubrick.kernels")), "1/s"),
        "cubrick.deployment.load_us_per_row": (
            per(_incl(writes, "cubrick.deployment.load") * us, rows_loaded), "us"),
        "cubrick.storage.insert_us_per_row": (
            per(_incl(writes, "cubrick.storage.insert") * us, rows_loaded), "us"),
        "obs.trace.spans_per_req": (per(calls("obs.trace") / 2, reqs), "count"),
        "obs.trace.us_per_req": (per(self_s("obs.trace") * us, reqs), "us"),
        "sim.events_per_req": (per(delta("sim_events"), reqs), "count"),
        "sim.run_until.us_per_req": (per(self_s("sim.run_until") * us, reqs), "us"),
        "bench.layer_coverage_ratio": (per(covered, server_cpu), "ratio"),
        "bench.trace_overhead_ratio": (
            per(cpu_ms_per_req(traced.window), cpu_ms_per_req(untraced)), "ratio"),
        "loadgen.late_p99_ms": (late_p99, "ms"),
        "loadgen.cpu_share": (cpu_share, "ratio"),
    }


def _incl(report: dict, name: str) -> float:
    return report["layers"].get(name, {}).get("incl_s", 0.0)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


async def serve_and_drive(inputs, seconds, *, trace: bool, setups: int, ladder: bool,
                          probe: bool = True):
    """Set a gateway up ``setups`` times, drive the last one, verify."""
    times = []
    gateway = None
    for i in range(setups):
        gateway = await Gateway.spawn(inputs.seed, trace)
        times.append((gateway.setup_s, gateway.setup_cpu_s))
        if i < setups - 1:
            await gateway.stop()
    try:
        driven = await drive(gateway, inputs, seconds, ladder=ladder, probe=probe,
                             marks=trace)
    finally:
        code = await gateway.stop()
    if code not in (0, None):
        raise RuntimeError(f"gateway exited with code {code}")
    loads_sent = sum(1 for r in driven.requests if r.kind == "load")
    verdict = verify(driven.requests, inputs.seed, loads_sent)
    return driven, verdict, times


def report_line(metrics: dict) -> dict:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


def summarize(workload, verdict: Verdict, driven: Drive, setups: list) -> None:
    window = driven.window
    attempted, failed = verdict.phases.get("window", (0, 0))
    print(f"workload {workload.name}: nominal {workload.nominal_qps:g} reads/s, "
          f"limit {workload.limit_ms:g} ms, window {window.wall_s:.1f} s")
    print("  set-up per gateway, wall s / CPU s: "
          + ", ".join(f"{wall:.3f} / {cpu:.3f}" for wall, cpu in setups))
    print(f"  fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4f} "
          f"(errors {verdict.errors or 'none'}), wrong answers {verdict.wrong}")
    late_p99, cpu_share = loadgen_health(window)
    print(f"  generator: late p99 {late_p99:.2f} ms, cpu share {cpu_share:.2f}")
    lat = [r.latency * 1e3 for r in window.reads if r.ok and not _degraded(r)]
    if lat:
        print(f"  window latency over {len(lat)} reads, ms at p10/25/50/75/90/99/99.9: "
              + " ".join(f"{v:.2f}" for v in np.percentile(lat, [10, 25, 50, 75, 90, 99, 99.9])))
    for name, (value, unit) in ungated(driven, workload).items():
        print(f"  {name} = {value:.6g} {unit} (not gated)")
    for step in driven.steps:
        tail = step.tail_ms()
        print(f"  ladder {step.rate:.0f}/s: {len(step.latencies_ms)} samples, "
              f"tail {'n/a' if tail is None else f'{tail:.2f} ms'}, "
              f"failed {step.failed}/{step.attempted}, achieved {step.achieved_qps:.1f}/s, "
              f"backlog {'growing' if step.backlog() else 'stable'}, "
              f"{'pass' if step.passes(workload.limit_ms) else 'FAIL'}")
    if driven.generator_bound is not None:
        print(f"  ladder stopped at {driven.generator_bound:.0f}/s: the generator fell behind")


async def main(args) -> int:
    # The generator keeps every request and answer until verification; a
    # full collection over them would stall sending (late requests), so
    # the cyclic collector is off while driving.
    gc.disable()
    workload = fleet.WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)
    runs = []
    if args.trace:
        # Untraced first: the baseline CPU and the generator's health.
        runs.append(await serve_and_drive(
            inputs, args.seconds, trace=False, setups=1, ladder=False, probe=False))
        inputs = Inputs(workload, args.seed)
    runs.append(await serve_and_drive(
        inputs, args.seconds, trace=bool(args.trace), setups=1 if args.trace else SETUPS,
        ladder=not args.trace))
    driven, verdict, setups = runs[-1]
    summarize(workload, verdict, driven, setups)
    attempted, failed = verdict.phases.get("window", (0, 0))
    for run in runs:
        failure = program_failure(run[1], run[0].window, workload)
        if failure:
            print(f"FAILED: {failure}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1
    for run in runs:
        check_health(run[0].window)
    if args.trace:
        metrics = per_layer(driven, runs[0][0].window)
    else:
        metrics = end_to_end(driven, [cpu for __, cpu in setups])
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": report_line(metrics),
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fleet.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    try:
        code = asyncio.run(main(parse_args()))
    except RunInvalid as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        code = 3
    sys.exit(code)
