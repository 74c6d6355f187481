"""Plugging the live fabric into ``StabilizingKVStore.shard_factory``.

:class:`FabricKV` runs a whole fabric (supervisor + per-key endpoints)
on a private event loop in a background thread and exposes the
*synchronous* surface the KV store's seam expects: its
:meth:`~FabricKV.shard_factory` method is passed straight to
``StabilizingKVStore(shard_factory=...)``, and each backend it returns
speaks the ``RegisterSystem`` operations dialect — ``write_sync`` /
``read_sync`` / ``history`` / ``checker`` / ``check_regularity`` — so
``put``/``get``/``audit`` work unchanged while every operation really
crosses sockets (and, in ``mode="process"``, OS process boundaries).

One honest caveat, documented rather than hidden: a shard hosts ONE
paper register. Keys that the ring co-locates on a shard share that
register — the fabric's unit of isolation (and of audit) is the shard,
so all keys of one shard see one interleaved history and the *last*
write to the shard wins reads, whichever key wrote it. Distinct keys on
distinct shards (what the scale-out exists for) behave as fully
independent registers; ``docs/FABRIC.md`` spells out the contract. The
audit seam is per-shard accordingly: every backend of a shard reports
the shard's history.

Corruption hooks (``corrupt_servers``/``corrupt_clients``) are wired to
the fabric's control plane so ``store.strike()`` reaches live shards
too; note the store stamps strike times with its *sim* clock while live
histories carry :class:`~repro.net.bridge.LiveClock` times — pass an
explicit ``last_fault_time`` from :meth:`FabricKV.now` when auditing a
struck live store.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.fabric.client import FabricClient
from repro.fabric.supervisor import FabricSupervisor
from repro.fabric.topology import FabricTopology
from repro.net.daemon import ClientEndpoint
from repro.sim.environment import derive_seed
from repro.spec.regularity import RegularityChecker, RegularityVerdict

__all__ = ["FabricKV"]


class FabricKV:
    """A live fabric behind a synchronous facade (see module docstring).

    Use as a context manager::

        with FabricKV(shards=2, mode="inline") as fabric:
            store = StabilizingKVStore(shard_factory=fabric.shard_factory)
            store.put("alpha", 1)

    Args (fabric knobs mirror :class:`FabricSupervisor`):
        op_timeout: per-operation deadline on every endpoint.
        call_timeout: how long a synchronous call waits for the loop
            thread before giving up.
    """

    def __init__(
        self,
        shards: int = 2,
        n: int = 6,
        f: int = 1,
        seed: int = 0,
        byzantine: Optional[str] = None,
        proxied: bool = False,
        wire: int = 2,
        mode: str = "inline",
        op_timeout: float = 30.0,
        call_timeout: float = 120.0,
    ) -> None:
        self.seed = seed
        self.op_timeout = op_timeout
        self.call_timeout = call_timeout
        self.supervisor = FabricSupervisor(
            shards=shards,
            n=n,
            f=f,
            seed=seed,
            byzantine=byzantine,
            proxied=proxied,
            wire=wire,
            mode=mode,
        )
        self.topology: Optional[FabricTopology] = None
        self.fabric_client: Optional[FabricClient] = None
        self.started = False
        self._backends: dict[str, "_LiveShardBackend"] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- loop-thread plumbing --------------------------------------------
    def _thread_main(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.call_soon(ready.set)
        try:
            loop.run_forever()
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def _call(self, coro: Any) -> Any:
        """Run ``coro`` on the fabric loop; block the caller until done."""
        loop = self._loop
        if loop is None or not loop.is_running():
            coro.close()
            raise ConfigurationError("FabricKV is not started")
        future = asyncio.run_coroutine_threadsafe(coro, loop)
        return future.result(timeout=self.call_timeout)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "FabricKV":
        if self.started:
            return self
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main,
            args=(ready,),
            name="repro-fabric-kv",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=self.call_timeout):  # pragma: no cover
            raise ConfigurationError("fabric loop thread failed to start")
        self.started = True  # _call works from here on
        try:
            self.topology = self._call(self.supervisor.start())
            client = FabricClient(
                self.topology,
                clients_per_shard=1,  # routing pool for direct put/get
                seed=derive_seed(self.seed, "fabric-kv:router"),
                op_timeout=self.op_timeout,
            )
            self._call(client.connect())
            self.fabric_client = client
        except BaseException:
            self.started = False
            self._stop_loop()
            raise
        return self

    def close(self) -> None:
        if not self.started:
            return
        backends, self._backends = dict(self._backends), {}
        try:
            for backend in backends.values():
                self._call(backend._close())
            if self.fabric_client is not None:
                self._call(self.fabric_client.close())
            self._call(self.supervisor.stop())
        finally:
            self.started = False
            self._stop_loop()

    def _stop_loop(self) -> None:
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=self.call_timeout)

    def __enter__(self) -> "FabricKV":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the seam --------------------------------------------------------
    def shard_factory(
        self, store: Any, key: str, byzantine: Optional[dict] = None
    ) -> "_LiveShardBackend":
        """``StabilizingKVStore.shard_factory`` hook (pass bound).

        ``byzantine`` factories cannot be applied per key here: live
        shard hosts pick their own strategies at fabric boot (the
        supervisor's ``byzantine=`` knob). A store configured with
        ``byzantine_factory`` is therefore rejected loudly rather than
        silently ignored.
        """
        if byzantine:
            raise ConfigurationError(
                "live fabric shards choose Byzantine strategies at boot "
                "(FabricSupervisor(byzantine=...)); byzantine_factory on "
                "the store cannot reach them"
            )
        if not self.started or self.topology is None:
            raise ConfigurationError("FabricKV is not started")
        shard_id = self.topology.place(key)
        clients = getattr(store, "clients_per_key", 1)
        backend = _LiveShardBackend(self, key, shard_id, clients)
        self._backends[key] = backend
        return backend

    def place(self, key: str) -> str:
        if self.topology is None:
            raise ConfigurationError("FabricKV is not started")
        return self.topology.place(key)

    def now(self) -> float:
        """The fabric's history clock (for explicit audit fault times)."""
        if self.fabric_client is None:
            raise ConfigurationError("FabricKV is not started")
        return self.fabric_client.clock.now()


class _LiveShardBackend:
    """One key's view of its live shard, RegisterSystem-dialect.

    Client endpoints are created lazily per cid (the store names them
    ``{key}:c{i}``) on the fabric loop; the history/checker surface is
    the *shard's* — see the module docstring for the sharing contract.
    """

    def __init__(
        self, fabric: FabricKV, key: str, shard_id: str, clients: int
    ) -> None:
        self.fabric = fabric
        self.key = key
        self.shard_id = shard_id
        self.clients = clients
        self._endpoints: dict[str, ClientEndpoint] = {}

    # -- RegisterSystem operations dialect ------------------------------
    def write_sync(self, cid: str, value: Any) -> Any:
        return self.fabric._call(self._op(cid, "write", value))

    def read_sync(self, cid: str) -> Any:
        return self.fabric._call(self._op(cid, "read"))

    @property
    def _client(self) -> FabricClient:
        client = self.fabric.fabric_client
        assert client is not None, "FabricKV is not started"
        return client

    @property
    def history(self):
        return self._client.histories[self.shard_id]

    def checker(self, **overrides: Any) -> RegularityChecker:
        return self._client.checker(self.shard_id, **overrides)

    def check_regularity(self, **overrides: Any) -> RegularityVerdict:
        return self._client.check_shard(self.shard_id, **overrides)

    # -- store-wide fault hooks (strike) --------------------------------
    def corrupt_servers(self) -> None:
        """Corruption wave over the shard's correct servers (live E6)."""
        self.fabric._call(
            self.fabric.supervisor.corrupt_shard(
                self.shard_id,
                wave_seed=derive_seed(self.fabric.seed, f"strike:{self.key}"),
            )
        )

    def corrupt_clients(self) -> None:
        """Crash-restart this key's clients (the live corruption model
        for in-operation client state; see :mod:`repro.net.daemon`)."""
        self.fabric._call(self._crash_clients())

    # -- internals (run on the fabric loop) ------------------------------
    async def _endpoint(self, cid: str) -> ClientEndpoint:
        endpoint = self._endpoints.get(cid)
        if endpoint is None:
            endpoint = await self._client.dial(
                self.shard_id, cid, seed=derive_seed(self.fabric.seed, f"kv:{cid}")
            )
            self._endpoints[cid] = endpoint
        return endpoint

    async def _op(self, cid: str, kind: str, *args: Any) -> Any:
        endpoint = await self._endpoint(cid)
        if kind == "write":
            return await endpoint.write(*args)
        return await endpoint.read()

    async def _crash_clients(self) -> None:
        for cid in sorted(self._endpoints):
            client = self._endpoints[cid].client
            client.crash()
            client.restart()

    async def _close(self) -> None:
        endpoints, self._endpoints = dict(self._endpoints), {}
        for endpoint in endpoints.values():
            await endpoint.close()
