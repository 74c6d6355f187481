"""The fabric's client side: route, multiplex, judge per shard.

A :class:`FabricClient` owns ``clients_per_shard`` worker
:class:`~repro.net.daemon.ClientEndpoint` s *per shard*, all stamped by
one shared :class:`~repro.net.bridge.LiveClock` into per-shard
:class:`~repro.spec.history.History` objects. Routing is the topology's
hash ring; a shard is one paper register, so two keys co-located on a
shard share that register's serialization (see ``docs/FABRIC.md``).

Per-shard worker pools are the blast-radius design point: an operation
stuck on a partitioned shard stalls only that shard's workers — traffic
to healthy shards never queues behind it.

Judging is unchanged from the single-group tier: each shard's history
goes to the same sweep :class:`~repro.spec.regularity.RegularityChecker`
a :class:`~repro.net.cluster.LiveRegisterCluster` (or the sim) uses.
The scheme is rebuilt from the shard's config with the same
:func:`~repro.net.daemon.default_scheme` the shard's
:class:`~repro.net.group.ServerGroup` boots its daemons with, so client
and shard host agree without sharing objects.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.server import INITIAL_VALUE
from repro.errors import ConfigurationError
from repro.fabric.topology import FabricTopology
from repro.net.bridge import LiveClock
from repro.net.daemon import ClientEndpoint, default_scheme
from repro.sim.environment import derive_seed
from repro.sim.tracing import MessageStats
from repro.spec.history import History
from repro.spec.regularity import RegularityChecker, RegularityVerdict

__all__ = ["FabricClient"]


class FabricClient:
    """Dial every shard; ``put``/``get`` route by key.

    Args:
        topology: a started fabric's layout (addresses included).
        clients_per_shard: endpoints per shard
            (``{shard_id}.c0 .. c{m-1}``); each is a sequential protocol
            client, so this is also the shard's op concurrency.
        seed: base for every endpoint's derived RNG stream.
        op_timeout: per-operation deadline before an endpoint
            crash-restarts its client (see :mod:`repro.net.daemon`).
    """

    def __init__(
        self,
        topology: FabricTopology,
        clients_per_shard: int = 2,
        seed: int = 0,
        op_timeout: float = 30.0,
    ) -> None:
        if clients_per_shard < 1:
            raise ConfigurationError("need at least one client per shard")
        self.topology = topology
        self.clients_per_shard = clients_per_shard
        self.seed = seed
        self.op_timeout = op_timeout
        self.clock = LiveClock()
        self.histories: dict[str, History] = {
            shard_id: History() for shard_id in topology.shard_ids
        }
        self.schemes = {
            spec.shard_id: default_scheme(spec.config())
            for spec in topology.specs
        }
        self.endpoints: dict[tuple[str, int], ClientEndpoint] = {}
        self.started = False

    # -- lifecycle -------------------------------------------------------
    async def connect(self) -> None:
        """Dial every shard's servers from every worker endpoint."""
        for shard_id in self.topology.shard_ids:
            for i in range(self.clients_per_shard):
                cid = f"{shard_id}.c{i}"
                self.endpoints[(shard_id, i)] = await self.dial(
                    shard_id, cid, seed=derive_seed(self.seed, f"fabric:{cid}")
                )
        self.clock.start()  # history time zero = "fabric fully dialed"
        self.started = True

    async def dial(self, shard_id: str, cid: str, seed: int) -> ClientEndpoint:
        """A connected endpoint ``cid`` recording into the shard's history."""
        spec = self.topology.spec(shard_id)
        endpoint = ClientEndpoint(
            cid,
            spec.config(),
            self.topology.addresses[shard_id],
            history=self.histories[shard_id],
            clock=self.clock,
            scheme=self.schemes[shard_id],
            seed=seed,
            op_timeout=self.op_timeout,
            wire=spec.wire,
            flush_watermark=spec.flush_watermark,
        )
        await endpoint.connect()
        return endpoint

    async def close(self) -> None:
        endpoints, self.endpoints = dict(self.endpoints), {}
        self.started = False
        for endpoint in endpoints.values():
            await endpoint.close()

    async def __aenter__(self) -> "FabricClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- routing & operations -------------------------------------------
    def place(self, key: str) -> str:
        return self.topology.place(key)

    def endpoint(self, shard_id: str, worker: int = 0) -> ClientEndpoint:
        try:
            return self.endpoints[(shard_id, worker)]
        except KeyError:
            raise ConfigurationError(
                f"no endpoint ({shard_id!r}, worker {worker})"
            ) from None

    async def put(self, key: str, value: Any, worker: int = 0) -> Any:
        """Route a write to the shard owning ``key``."""
        return await self.endpoint(self.place(key), worker).write(value)

    async def get(self, key: str, worker: int = 0) -> Any:
        """Route a read to the shard owning ``key``."""
        return await self.endpoint(self.place(key), worker).read()

    # -- churn plumbing --------------------------------------------------
    async def redial_server(
        self, shard_id: str, sid: str, address: Optional[str] = None
    ) -> None:
        """Every worker of the shard redials one server (respawn/heal)."""
        for i in range(self.clients_per_shard):
            await self.endpoint(shard_id, i).redial(sid, address=address)

    async def redial_shard(self, shard_id: str) -> None:
        """Redial all of one shard's servers at their topology addresses.

        The heal path: a killed-then-healed proxy keeps its address, but
        the old connections are dead and HELLO must run again.
        """
        for sid in sorted(self.topology.addresses[shard_id]):
            await self.redial_server(
                shard_id, sid, address=self.topology.addresses[shard_id][sid]
            )

    # -- verification & accounting --------------------------------------
    def checker(self, shard_id: str, **overrides: Any) -> RegularityChecker:
        """A checker wired like the shard's sim twin would be."""
        kwargs: dict[str, Any] = dict(
            scheme=self.schemes[shard_id], initial_value=INITIAL_VALUE
        )
        kwargs.update(overrides)
        return RegularityChecker(**kwargs)

    def check_shard(self, shard_id: str, **overrides: Any) -> RegularityVerdict:
        """Judge one shard's captured history."""
        return self.checker(shard_id, **overrides).check(
            self.histories[shard_id]
        )

    def check_all(self, **overrides: Any) -> dict[str, RegularityVerdict]:
        return {
            shard_id: self.check_shard(shard_id, **overrides)
            for shard_id in self.topology.shard_ids
        }

    def stats(self) -> MessageStats:
        """Client-side message accounting merged over every endpoint."""
        merged = MessageStats()
        for endpoint in self.endpoints.values():
            merged = merged.merged_with(endpoint.stats)
        return merged

    @property
    def timeouts(self) -> int:
        return sum(e.timeouts for e in self.endpoints.values())

    def shard_timeouts(self, shard_id: str) -> int:
        return sum(
            endpoint.timeouts
            for (owner, _), endpoint in self.endpoints.items()
            if owner == shard_id
        )
