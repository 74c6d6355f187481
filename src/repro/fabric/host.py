"""One shard's register group, inline or in its own OS process.

A shard is one :class:`~repro.net.group.ServerGroup` — the same group a
:class:`~repro.net.cluster.LiveRegisterCluster` hosts — built from the
shard's :class:`~repro.fabric.topology.ShardSpec` by :func:`shard_group`
(a ``proxied`` spec fronts every server with an identity-policy
:class:`~repro.net.proxy.FaultProxy`, the handle the partition nemesis
severs). This module only hosts that group and relays the supervisor's
control verbs to it (:func:`_dispatch`): kill/heal, corruption waves,
retire/respawn with state transfer, stats.

Two hostings of the same group:

* :class:`InlineShardHost` — the group lives in the caller's event
  loop. No process isolation, but instant and deterministic to boot;
  the test tier's default.
* :class:`ProcessShardHost` — the group lives in a separate OS process
  (``multiprocessing`` **spawn** — the parent runs an asyncio loop, so
  forking would clone a live loop). The child runs
  :func:`shard_host_main`: an asyncio loop whose only inputs are the
  control pipe and the shard's sockets. Commands travel the pipe as
  plain tuples, replies as ``("ok", payload) | ("error", text)`` with
  payloads restricted to picklable builtins — addresses and counter
  dicts, never protocol objects.

The one thing that does NOT cross the pipe is history: operations are
invoked by client endpoints in the *parent* (or wherever the client
runs), so invocation/response records accrue in the client's history and
the sweep checker judges them there. The shard process hosts servers
only — exactly the split a real deployment has.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Optional

from repro.errors import ConfigurationError, ReproError
from repro.fabric.topology import ShardSpec
from repro.net.daemon import default_scheme
from repro.net.group import ServerGroup, stats_to_dict
from repro.net.proxy import FaultPolicy

__all__ = [
    "InlineShardHost",
    "ProcessShardHost",
    "ShardHostError",
    "shard_group",
    "shard_host_main",
]


class ShardHostError(ReproError):
    """A shard host failed to boot, answer, or shut down."""


def shard_group(spec: ShardSpec) -> ServerGroup:
    """The shard's server group, built from its spec's plain values."""
    config = spec.config()
    return ServerGroup(
        config,
        default_scheme(config),
        seed=spec.seed,
        byzantine=spec.factories(),
        family=spec.family,
        socket_dir=spec.socket_dir,
        # identity policy: a severable handle, no faults
        proxy_policy=FaultPolicy() if spec.proxied else None,
        wire=spec.wire,
        flush_watermark=spec.flush_watermark,
        name=spec.shard_id,
    )


#: The group verbs the control plane relays, by pipe op name.
_VERBS = ("kill", "heal", "kill_all", "heal_all", "corrupt", "retire", "respawn")


async def _dispatch(group: ServerGroup, op: str, args: tuple) -> Any:
    """Run one control verb against the group; returns a picklable result."""
    if op == "ping":
        return "pong"
    if op == "stats":
        return stats_to_dict(group.stats())
    if op not in _VERBS:
        raise ConfigurationError(f"unknown shard-host op {op!r}")
    result = getattr(group, op)(*args)
    return await result if inspect.isawaitable(result) else result


def shard_host_main(spec_dict: dict, conn: Any) -> None:
    """OS-process entry point (``multiprocessing`` spawn target).

    Boots the group, reports ``("ready", addresses)`` on the pipe, then
    serves commands until ``("stop",)`` or pipe EOF. Runs in a child
    process: ``spec_dict`` (not a ShardSpec) keeps the pickled surface
    to builtins.
    """
    spec = ShardSpec.from_dict(spec_dict)
    try:
        asyncio.run(_shard_host_loop(spec, conn))
    finally:
        conn.close()


async def _shard_host_loop(spec: ShardSpec, conn: Any) -> None:
    group = shard_group(spec)
    loop = asyncio.get_running_loop()
    inbox: asyncio.Queue = asyncio.Queue()

    def pump() -> None:
        # The pipe is readable: a whole command tuple is available (the
        # parent writes tiny tuples atomically), or the parent is gone.
        try:
            message = conn.recv()
        except (EOFError, OSError):
            loop.remove_reader(conn.fileno())
            message = ("stop",)
        inbox.put_nowait(message)

    def reply(kind: str, payload: Any) -> None:
        try:
            conn.send((kind, payload))
        except (BrokenPipeError, OSError):
            pass  # parent died; the stop path tears us down anyway

    try:
        addresses = await group.start()
    except Exception as exc:
        reply("error", f"{type(exc).__name__}: {exc}")
        return
    loop.add_reader(conn.fileno(), pump)
    reply("ready", addresses)
    try:
        while True:
            message = await inbox.get()
            op, args = message[0], tuple(message[1:])
            if op == "stop":
                reply("ok", None)
                return
            try:
                result = await _dispatch(group, op, args)
            except Exception as exc:
                reply("error", f"{type(exc).__name__}: {exc}")
            else:
                reply("ok", result)
    finally:
        try:
            loop.remove_reader(conn.fileno())
        except (OSError, ValueError):
            pass
        await group.stop()


class InlineShardHost:
    """The group in the caller's own loop (no isolation, fast boots)."""

    mode = "inline"

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.group = shard_group(spec)

    async def start(self) -> dict[str, str]:
        return await self.group.start()

    async def call(self, op: str, *args: Any) -> Any:
        return await _dispatch(self.group, op, args)

    async def stop(self) -> None:
        await self.group.stop()


class ProcessShardHost:
    """The group in its own OS process, driven over a spawn-context pipe.

    All pipe waits happen in the default executor — ``Connection.recv``
    blocks a thread, never the event loop. One command is in flight at a
    time (a lazily created lock serializes callers), matching the
    child's sequential dispatch loop.
    """

    mode = "process"

    #: Seconds to wait for boot, replies, and the join on shutdown.
    call_timeout = 60.0

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.process: Optional[Any] = None
        self._conn: Optional[Any] = None
        self._lock: Optional[asyncio.Lock] = None  # created in-loop (lazily)

    def _running(self) -> Any:
        if self._conn is None:
            raise ShardHostError(f"{self.spec.shard_id}: host is not running")
        return self._conn

    async def _recv(self) -> tuple[str, Any]:
        conn = self._running()
        loop = asyncio.get_running_loop()
        try:
            message = await asyncio.wait_for(
                loop.run_in_executor(None, conn.recv), timeout=self.call_timeout
            )
        except asyncio.TimeoutError:
            raise ShardHostError(
                f"{self.spec.shard_id}: no reply within {self.call_timeout}s"
            ) from None
        except (EOFError, OSError) as exc:
            raise ShardHostError(
                f"{self.spec.shard_id}: shard host process died ({exc!r})"
            ) from exc
        return message

    async def start(self) -> dict[str, str]:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=shard_host_main,
            args=(self.spec.to_dict(), child_conn),
            name=f"repro-shard-{self.spec.shard_id}",
            daemon=True,
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, process.start)
        child_conn.close()
        self.process = process
        self._conn = parent_conn
        kind, payload = await self._recv()
        if kind != "ready":
            raise ShardHostError(f"{self.spec.shard_id}: boot failed: {payload}")
        return payload

    async def call(self, op: str, *args: Any) -> Any:
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            self._running().send((op, *args))
            kind, payload = await self._recv()
        if kind == "error":
            raise ShardHostError(f"{self.spec.shard_id}: {payload}")
        return payload

    async def stop(self) -> None:
        # Ownership swap before the first await (a late call() must see
        # a stopped host, not a half-torn pipe).
        process, self.process = self.process, None
        conn, self._conn = self._conn, None
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if conn is not None:
            try:
                conn.send(("stop",))
                await asyncio.wait_for(
                    loop.run_in_executor(None, conn.recv), timeout=10.0
                )
            except (asyncio.TimeoutError, EOFError, OSError, ValueError):
                pass  # child already gone (or wedged: terminated below)
        await loop.run_in_executor(None, process.join, 10.0)
        if process.is_alive():  # pragma: no cover - wedged child
            process.terminate()
            await loop.run_in_executor(None, process.join, 5.0)
        if conn is not None:
            conn.close()
