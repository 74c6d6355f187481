"""Span tracing from outside the program: wrap each layer's public calls.

The traced run patches the public entry points of every layer (codec,
transport, protocol handlers, labels, WTsG, history, simulator, fabric
routing) with timing wrappers, boots a fresh deployment, and replays the
same workload. Nothing in ``src/`` knows it is being traced; the untraced
run never installs a wrapper.

Each wrapper opens a span on entry and closes it on exit. Every wrapped
call is synchronous and the load process is single-threaded while a
window is measured, so spans nest strictly and one stack suffices:

* **self time** of a span is its duration minus the time its child spans
  cover; summed per layer, self times never overlap, so
  ``sum(layer self times) + unattributed == window wall time`` — the
  ledger of :func:`ledger`;
* **calls** and **inclusive time** count only the outermost span of each
  name (``MwmrOrdering.precedes`` calling the Alon scheme's ``precedes``
  is one comparison, not two).

Spans are aggregated per name in memory as they close; the first
:data:`RAW_SPAN_LIMIT` raw spans are kept too, and both are written out
when the run ends (:meth:`Snapshot.dump`).
"""

from __future__ import annotations

import json
import re
import selectors
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: Raw spans kept for the trace file (the aggregate table is unbounded).
RAW_SPAN_LIMIT = 10_000

#: Ledger rows, in print order. A span's layer is its name up to the
#: last dot; ``idle`` is the event loop waiting in ``select``.
LAYERS = (
    "net.wire",
    "net.transport",
    "core",
    "labels",
    "wtsg",
    "spec",
    "sim",
    "fabric",
    "idle",
)


#: Server process ids (``s0`` .. ``s{n-1}``); clients are named otherwise.
SERVER_ID = re.compile(r"s\d+")


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Patcher:
    """Replaces attributes of classes or modules and restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def patch_with(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        An inherited attribute is shadowed on ``owner`` and the shadow is
        deleted again by :meth:`uninstall`.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._undo.append((owner, attr, original if own else None))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer(Patcher):
    """Collects nested spans and per-boundary counters."""

    def __init__(self) -> None:
        super().__init__()
        self._stack: list[list[int]] = []  # [child_ns] per open span
        self._open: Counter[str] = Counter()  # open spans per name
        self.counters: Counter[str] = Counter()
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (call at window start)."""
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counters.clear()
        self.raw: list[tuple[str, int, int, int]] = []

    # -- spans -----------------------------------------------------------
    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        open_ = self._open
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                duration = end - start
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += duration
                tracer.self_ns[name] += duration - frame[0]
                if not open_[name]:
                    tracer.calls[name] += 1
                    tracer.total_ns[name] += duration
                if len(tracer.raw) < RAW_SPAN_LIMIT:
                    tracer.raw.append((name, len(stack), start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function) by its traced version."""
        self.patch_with(owner, attr, lambda original: self.span(name, original))

    # -- results ---------------------------------------------------------
    def snapshot(self) -> "Snapshot":
        """A frozen copy of what has been measured since :meth:`reset`."""
        return Snapshot(
            dict(self.calls),
            dict(self.total_ns),
            dict(self.self_ns),
            dict(self.counters),
            list(self.raw),
        )


@dataclass
class Snapshot:
    """Span aggregates of one measured window, with per-unit accessors."""

    calls: dict[str, int]
    total_ns: dict[str, int]
    self_ns: dict[str, int]
    counters: dict[str, int]
    raw: list[tuple[str, int, int, int]]

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        """Write the aggregate span table and the raw span sample."""
        table = {
            name: {
                "layer": layer_of(name),
                "calls": self.calls.get(name, 0),
                "total_ns": self.total_ns.get(name, 0),
                "self_ns": ns,
            }
            for name, ns in sorted(self.self_ns.items())
        }
        payload = {
            **extra,
            "spans": table,
            "counters": self.counters,
            "raw_spans": [
                {"name": n, "depth": d, "start_ns": s, "end_ns": e}
                for n, d, s, e in self.raw
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))

    def self_us(self, name: str, per: float) -> float:
        """Self time of spans called ``name``, in µs per ``per`` units."""
        return self.self_ns.get(name, 0) / per / 1e3 if per else 0.0

    def total_us(self, name: str, per: float) -> float:
        """Inclusive time of outermost ``name`` spans, µs per ``per`` units."""
        return self.total_ns.get(name, 0) / per / 1e3 if per else 0.0

    def count(self, name: str, per: float = 1.0) -> float:
        """Outermost ``name`` span calls, or counter ``name``, per unit."""
        value = self.calls.get(name, 0) or self.counters.get(name, 0)
        return value / per if per else 0.0

    def ledger(self, wall_ns: int, ops: int) -> dict[str, float]:
        """Per-op self time of every layer plus the unattributed residual.

        The rows sum to ``wall_ns / ops`` exactly; the residual is what
        no wrapped call covers (asyncio dispatch, the benchmark's own
        load loop, the garbage collector).
        """
        by_layer = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            by_layer[layer_of(name)] += ns
        rows = {
            f"ledger.{layer}_us_per_op": ns / ops / 1e3
            for layer, ns in by_layer.items()
        }
        wall = wall_ns / ops / 1e3
        rows["ledger.unattributed_us_per_op"] = wall - sum(rows.values())
        rows["ledger.wall_us_per_op"] = wall
        return rows


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures.

    Call before the deployment under test is built, so no object holds a
    bound method captured before patching.
    """
    from repro.byzantine.base import ByzantineServer
    from repro.byzantine.strategies import STRATEGY_ZOO
    from repro.core.client import RegisterClient
    from repro.core.register import RegisterSystem
    from repro.core.server import RegisterServer
    from repro.fabric.client import FabricClient
    from repro.harness import fuzz as fuzz_mod
    from repro.labels.alon import AlonLabelingScheme
    from repro.labels.ordering import MwmrOrdering
    from repro.net.transport import HostFlusher, StreamConnection, StreamTransport
    from repro.net.wire import BinaryCodec, FrameAssembler
    from repro.sim.environment import SimEnvironment
    from repro.spec.history import HistoryRecorder
    from repro.spec.regularity import RegularityChecker
    from repro.wtsg.graph import WeightedTimestampGraph

    counters = tracer.counters

    # net.wire — codec, with frame and byte meters on the encode side.
    def metered_encode(original: Callable[..., Any]) -> Callable[..., Any]:
        def encode_payload_into(self, src, dst, send_time, payload, out):
            before, escapes = len(out), self.esc_encodes
            try:
                return original(self, src, dst, send_time, payload, out)
            finally:
                counters["net.wire.frames"] += 1
                counters["net.wire.bytes"] += len(out) - before
                counters["net.wire.escapes"] += self.esc_encodes - escapes

        return tracer.span("net.wire.encode", encode_payload_into)

    def metered_feed(original: Callable[..., Any]) -> Callable[..., Any]:
        def feed(self, data):
            counters["net.wire.bytes_in"] += len(data)
            return original(self, data)

        return tracer.span("net.wire.feed", feed)

    tracer.patch_with(BinaryCodec, "encode_payload_into", metered_encode)
    tracer.patch(BinaryCodec, "decode_parts", "net.wire.decode")
    tracer.patch_with(FrameAssembler, "feed", metered_feed)

    # net.transport — inbound dispatch, coalesced flushes, routing.
    def metered_recv(original: Callable[..., Any]) -> Callable[..., Any]:
        def data_received(self, data):
            start = perf_counter_ns()
            try:
                return original(self, data)
            finally:
                # A connection whose peer is a client belongs to a server:
                # its whole inbound burst (replies included) is server work.
                peer = self.peer_pid
                if peer is not None and not SERVER_ID.fullmatch(peer):
                    counters["fabric.server_ns"] += perf_counter_ns() - start

        return tracer.span("net.transport.recv", data_received)

    tracer.patch_with(StreamConnection, "data_received", metered_recv)

    def metered_flush(original: Callable[..., Any]) -> Callable[..., Any]:
        def flush(self):
            if self._dirty:
                counters["net.transport.flushes"] += 1
            return original(self)

        return tracer.span("net.transport.flush", flush)

    tracer.patch_with(HostFlusher, "flush", metered_flush)
    tracer.patch(StreamTransport, "send", "net.transport.send")

    # idle — the event loop blocked in select (waiting for the kernel).
    tracer.patch(selectors.DefaultSelector, "select", "idle.poll")

    # core — server handlers (every strategy that overrides dispatch) and
    # the client's dispatch plus operation starts.
    for cls in {RegisterServer, ByzantineServer, *STRATEGY_ZOO.values()}:
        if "on_message" in cls.__dict__:
            tracer.patch(cls, "on_message", "core.server")
    for attr in ("on_message", "write", "read"):
        tracer.patch(RegisterClient, attr, "core.client")

    # labels
    tracer.patch(MwmrOrdering, "precedes", "labels.precedes")
    tracer.patch(AlonLabelingScheme, "precedes", "labels.precedes")
    tracer.patch(MwmrOrdering, "next_timestamp", "labels.next_label")
    tracer.patch(AlonLabelingScheme, "next_label", "labels.next_label")

    # wtsg
    tracer.patch(WeightedTimestampGraph, "add_witness", "wtsg.select")
    tracer.patch(WeightedTimestampGraph, "select_maximal_qualified", "wtsg.select")

    # spec — recording, judging, stabilization analysis.
    for attr in ("invoked", "responded", "crashed"):
        tracer.patch(HistoryRecorder, attr, "spec.record")
    tracer.patch(RegularityChecker, "check", "spec.judge")
    tracer.patch(fuzz_mod, "evaluate_stabilization", "spec.stabilization")

    # sim — scheduler/network driving and system construction.
    for attr in ("run", "run_until", "drain_bounded", "run_op_bounded", "tick"):
        tracer.patch(SimEnvironment, attr, "sim.run")
    tracer.patch(RegisterSystem, "__init__", "sim.build")

    # fabric — the router's synchronous part of get/put.
    tracer.patch(FabricClient, "place", "fabric.route")
    tracer.patch(FabricClient, "endpoint", "fabric.route")


def deep_size(root: Any) -> int:
    """Bytes reachable from ``root`` (each object counted once).

    Follows containers, ``__dict__`` and ``__slots__``; used to measure
    what a :class:`~repro.spec.history.History` retains per operation.
    """
    seen: set[int] = set()
    total = 0
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, (str, bytes, int, float, bool)) or obj is None:
            continue
        else:
            if hasattr(obj, "__dict__"):
                todo.append(vars(obj))
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    todo.append(getattr(obj, slot))
    return total

