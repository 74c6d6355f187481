"""Live deployment tier: the simulator's protocol over real sockets.

Layers (each importable alone):

* :mod:`repro.net.wire` — the framed codecs: ``repro-wire/2`` (binary,
  default) and ``repro-wire/1`` (JSON).
* :mod:`repro.net.transport` — the :class:`Transport` seam with the sim
  and asyncio-stream backends.
* :mod:`repro.net.bridge` — :class:`NetEnvironment`, the environment
  stand-in that lets unmodified protocol classes run live.
* :mod:`repro.net.daemon` — :class:`ServerDaemon` / :class:`ClientEndpoint`.
* :mod:`repro.net.proxy` — socket-layer FairLossyChannel twin.
* :mod:`repro.net.group` — :class:`ServerGroup`, one register group of
  daemons (+ fault proxies) with churn and state transfer; hosted by the
  cluster and by every fabric shard.
* :mod:`repro.net.cluster` — :class:`LiveRegisterCluster` on loopback.
* :mod:`repro.net.loadgen` — closed/open-loop load, saturation sweeps,
  ``BENCH_live.json``.
* :mod:`repro.net.runtime` — optional uvloop installation with stdlib
  fallback.

The import direction is strictly one-way: ``repro.net`` imports the
protocol layers, never the reverse (lint rule NET001).
"""

from repro.net.bridge import LiveClock, NetEnvironment
from repro.net.cluster import LiveRegisterCluster
from repro.net.daemon import TIMED_OUT, ClientEndpoint, ServerDaemon
from repro.net.group import ServerGroup
from repro.net.loadgen import (
    LoadResult,
    benchmark,
    measurement_harness,
    run_load,
    run_open_load,
    saturation_sweep,
)
from repro.net.proxy import FaultPolicy, FaultProxy
from repro.net.runtime import install_event_loop
from repro.net.transport import (
    HostFlusher,
    SimTransport,
    StreamTransport,
    Transport,
)
from repro.net.wire import (
    DEFAULT_WIRE,
    WIRE_FORMAT,
    WIRE_FORMAT_V2,
    WIRE_VERSION,
    WireError,
    get_codec,
)

__all__ = [
    "LiveClock",
    "NetEnvironment",
    "LiveRegisterCluster",
    "TIMED_OUT",
    "ClientEndpoint",
    "ServerDaemon",
    "ServerGroup",
    "LoadResult",
    "benchmark",
    "measurement_harness",
    "run_load",
    "run_open_load",
    "saturation_sweep",
    "install_event_loop",
    "FaultPolicy",
    "FaultProxy",
    "HostFlusher",
    "SimTransport",
    "StreamTransport",
    "Transport",
    "DEFAULT_WIRE",
    "WIRE_FORMAT",
    "WIRE_FORMAT_V2",
    "WIRE_VERSION",
    "WireError",
    "get_codec",
]
