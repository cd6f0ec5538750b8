"""repro.serve — the real serving tier over the simulated fleet.

A real asyncio TCP gateway (``repro serve``) in front of the
byte-reproducible DES stack: clients speak a length-prefixed JSON
protocol (:mod:`repro.serve.protocol`); the gateway bridges their SQL
statements onto the planner, admission v2, the result cache, executor
queues and coordinator fan-out, all still running on virtual time. The
clock domains meet in exactly two places — the anchored
:class:`~repro.serve.clock.RealTimeClock` (the single sanctioned
TID251 wall-clock boundary) and the gateway's event-loop pump that
drives ``simulator.run_until(clock.now())``.

The wire-level benchmark (``perfbench/run.py``) measures the whole
thing end to end: an open-loop load generator in its own process
drives a :class:`ServeGateway` in another, and checks every answer
against an oracle.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.clock import RealTimeClock
from repro.serve.deploy import (
    ServingDeployment,
    build_serving_deployment,
    serve_policy,
)
from repro.serve.gateway import GatewayStats, ServeGateway
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLargeError,
    MalformedFrameError,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)

__all__ = [
    "ConnectionClosed",
    "FrameTooLargeError",
    "GatewayStats",
    "MalformedFrameError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RealTimeClock",
    "ServeClient",
    "ServeError",
    "ServeGateway",
    "ServingDeployment",
    "build_serving_deployment",
    "encode_frame",
    "read_frame",
    "serve_policy",
    "write_frame",
]
