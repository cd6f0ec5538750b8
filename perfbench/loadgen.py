"""Open-loop load generator and the gateway-process handle.

One :class:`LoadGen` drives up to two pipelined TCP connections to the
gateway. Requests are sent at pre-drawn due times without waiting for
earlier answers (open loop) and are timed from their due time, so a
stall in the gateway shows up in every request queued behind it.
Sending never awaits the socket: a slow gateway cannot make the
generator late, only the generator's own CPU can (``late`` = sent - due).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2


class Request:
    """One request and everything the generator observed about it."""

    __slots__ = (
        "kind", "conn", "offset", "message", "key", "query", "phase",
        "rid", "due", "sent", "done", "response", "lo", "hi", "load_index",
    )

    def __init__(self, kind: str, conn: int, offset: float, message: dict,
                 phase: str, key=None, query=None):
        self.kind = kind
        self.conn = conn
        self.offset = offset
        self.message = message
        self.phase = phase
        self.key = key
        self.query = query
        self.rid = None
        self.due = None
        self.sent = None
        self.done = None
        self.response = None
        #: Loads applied for certain when sent / possibly applied when answered.
        self.lo = 0
        self.hi = 0
        self.load_index = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


class LoadGen:
    """Pipelined wire client with id correlation and load-order tracking."""

    def __init__(self, batch_rows):
        from repro.serve.protocol import HEADER, encode_frame

        self._header = HEADER
        self._encode = encode_frame
        #: batch_rows(i) -> the JSON rows of load batch i.
        self._batch_rows = batch_rows
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []
        self._ids = itertools.count(1)
        self._pending: dict[int, Request] = {}
        self._idle = asyncio.Event()
        self._idle.set()
        self.loads_sent = 0
        #: 1 + the highest load index acknowledged (loads apply in order).
        self.loads_applied = 0
        self.lost = False

    async def connect(self, port: int, count: int = CONNECTIONS) -> None:
        for __ in range(count):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self._writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))

    async def close(self) -> None:
        for task in self._readers:
            task.cancel()
        for task in self._readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for writer in self._writers:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writers, self._readers = [], []

    def send(self, req: Request) -> None:
        req.rid = next(self._ids)
        message = dict(req.message)
        message["id"] = req.rid
        if req.kind == "load":
            req.load_index = self.loads_sent
            message["rows"] = self._batch_rows(req.load_index)
            self.loads_sent += 1
        else:
            req.lo = self.loads_applied
        self._pending[req.rid] = req
        self._idle.clear()
        req.sent = time.monotonic()
        if req.due is None:
            req.due = req.sent
        self._writers[req.conn].write(self._encode(message))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        header = self._header
        try:
            while True:
                (length,) = header.unpack(await reader.readexactly(header.size))
                msg = json.loads(await reader.readexactly(length))
                done = time.monotonic()
                req = self._pending.pop(msg.get("id"), None)
                if req is None:
                    continue
                req.done = done
                req.response = msg
                if req.kind == "load":
                    if msg.get("ok"):
                        self.loads_applied = max(self.loads_applied, req.load_index + 1)
                else:
                    req.hi = self.loads_sent
                if not self._pending:
                    self._idle.set()
        except (asyncio.IncompleteReadError, ConnectionError):
            self.lost = True

    async def run(self, requests: list[Request], lead: float = 0.02) -> None:
        """Send ``requests`` (sorted by offset) at their due times."""
        start = time.monotonic() + lead
        sleep = asyncio.sleep
        for req in requests:
            due = start + req.offset
            delay = due - time.monotonic()
            if delay > 0:
                await sleep(delay)
            req.due = due
            self.send(req)

    async def call(self, req: Request, timeout: float) -> Request:
        """Send one request now and wait for its answer (closed loop)."""
        self.send(req)
        await self.wait_idle(timeout)
        return req

    async def wait_idle(self, timeout: float) -> bool:
        """Wait until every sent request is answered; False on timeout."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


# ----------------------------------------------------------------------
# The gateway process
# ----------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """user + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Gateway:
    """A spawned ``server.py`` process, its port and control channel."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int, setup_s: float):
        self.proc = proc
        self.port = port
        #: Wall seconds from spawn to the first good ping ...
        self.setup_s = setup_s
        #: ... and the gateway's CPU seconds over the same span.
        self.setup_cpu_s = self.cpu_s()

    @classmethod
    async def spawn(cls, seed: int, trace: bool, timeout: float = 150.0) -> "Gateway":
        """Start a gateway and wait for its first good ping."""
        started = time.monotonic()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "server.py"),
            "--seed", str(seed), "--trace", str(int(trace)),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), timeout)
            if not line:
                raise RuntimeError(f"gateway exited during set-up (code {await proc.wait()})")
            port = int(json.loads(line)["port"])
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                from repro.serve.protocol import read_frame, write_frame

                await write_frame(writer, {"id": 0, "op": "ping"})
                pong = await asyncio.wait_for(read_frame(reader), timeout)
            finally:
                writer.close()
                await writer.wait_closed()
            if not pong.get("ok"):
                raise RuntimeError(f"gateway ping failed: {pong}")
        except BaseException:
            await _kill(proc)
            raise
        return cls(proc, port, time.monotonic() - started)

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def command(self, line: str, timeout: float = 120.0) -> dict:
        self.proc.stdin.write((line + "\n").encode())
        await self.proc.stdin.drain()
        reply = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
        if not reply:
            raise RuntimeError(f"gateway closed its control channel on {line!r}")
        return json.loads(reply)

    async def stop(self, timeout: float = 30.0) -> Optional[int]:
        """Close the control channel (the gateway drains) and wait for exit."""
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                return await asyncio.wait_for(self.proc.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        await _kill(self.proc)
        return self.proc.returncode


async def _kill(proc: asyncio.subprocess.Process) -> None:
    if proc.returncode is None:
        proc.kill()
        await proc.wait()
