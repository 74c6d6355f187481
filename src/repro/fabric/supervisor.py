"""Fabric lifecycle: spawn the shard hosts, own the control plane.

The supervisor turns "shards=4" into four :class:`ShardSpec` s with
independent derived seeds, boots one host per shard — separate OS
processes by default (``mode="process"``), same-loop groups for fast
tests (``mode="inline"``) — and publishes the started fabric as a
:class:`~repro.fabric.topology.FabricTopology`. Every later verb
(partition a shard, corruption wave, retire/respawn a server) is a
one-line relay to the owning host; after a respawn the supervisor also
patches the topology's address book, so late-connecting clients dial
the replacement.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional, Sequence

from repro.errors import ConfigurationError
from repro.fabric.host import InlineShardHost, ProcessShardHost
from repro.fabric.ring import DEFAULT_VNODES
from repro.fabric.topology import FabricTopology, ShardSpec
from repro.net.transport import DEFAULT_FLUSH_WATERMARK
from repro.net.wire import DEFAULT_WIRE
from repro.sim.environment import derive_seed

__all__ = ["FabricSupervisor"]


class FabricSupervisor:
    """Spawns, commands, and tears down one fabric of shard hosts.

    Args:
        shards: how many shards (ids ``shard0 .. shard{k-1}``), or pass
            ``specs`` for full control.
        n / f: per-shard replication (validated per the paper's bound).
        seed: master seed; each shard derives its own stream.
        byzantine: optional zoo strategy *name* — every shard then hosts
            one such server in its last slot (per-shard budget, as the
            KV store's compromised-provider scenario does).
        proxied: front every server with an identity-policy
            :class:`~repro.net.proxy.FaultProxy` (required by the
            partition verbs).
        mode: ``"process"`` (one OS process per shard, the deployment
            shape) or ``"inline"`` (same loop, fast tests).
        specs: explicit :class:`ShardSpec` s, overriding the knobs above.
    """

    def __init__(
        self,
        shards: int = 2,
        n: int = 6,
        f: int = 1,
        seed: int = 0,
        byzantine: Optional[str] = None,
        proxied: bool = False,
        wire: int = DEFAULT_WIRE,
        family: str = "tcp",
        socket_dir: Optional[str] = None,
        flush_watermark: int = DEFAULT_FLUSH_WATERMARK,
        mode: str = "process",
        vnodes: int = DEFAULT_VNODES,
        specs: Optional[Sequence[ShardSpec]] = None,
    ) -> None:
        if mode not in ("process", "inline"):
            raise ConfigurationError(f"unknown fabric mode {mode!r}")
        if specs is None:
            if shards < 1:
                raise ConfigurationError(f"need at least one shard: {shards}")
            byz = () if byzantine is None else ((f"s{n - 1}", byzantine),)
            specs = [
                ShardSpec(
                    shard_id=f"shard{i}",
                    n=n,
                    f=f,
                    seed=derive_seed(seed, f"fabric:shard{i}"),
                    byzantine=byz,
                    proxied=proxied,
                    wire=wire,
                    family=family,
                    socket_dir=socket_dir,
                    flush_watermark=flush_watermark,
                )
                for i in range(shards)
            ]
        specs = tuple(specs)
        ids = [spec.shard_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate shard ids: {ids}")
        self.specs = specs
        self.seed = seed
        self.mode = mode
        self.vnodes = vnodes
        self.hosts: dict[str, Any] = {}
        self.topology: Optional[FabricTopology] = None
        self.started = False

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> FabricTopology:
        """Boot every shard host concurrently; returns the topology."""
        host_cls = ProcessShardHost if self.mode == "process" else InlineShardHost
        hosts = {spec.shard_id: host_cls(spec) for spec in self.specs}
        self.hosts = hosts
        started = await asyncio.gather(
            *(hosts[spec.shard_id].start() for spec in self.specs)
        )
        addresses = {
            spec.shard_id: addrs for spec, addrs in zip(self.specs, started)
        }
        self.topology = FabricTopology(self.specs, addresses, vnodes=self.vnodes)
        self.started = True
        return self.topology

    async def stop(self) -> None:
        """Tear down every host (idempotent; best-effort per shard)."""
        hosts, self.hosts = dict(self.hosts), {}
        self.started = False
        if not hosts:
            return
        await asyncio.gather(
            *(host.stop() for host in hosts.values()), return_exceptions=True
        )

    async def __aenter__(self) -> "FabricSupervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- control plane ---------------------------------------------------
    def host(self, shard_id: str) -> Any:
        try:
            return self.hosts[shard_id]
        except KeyError:
            raise ConfigurationError(f"unknown shard id {shard_id!r}") from None

    async def ping(self, shard_id: str) -> str:
        return await self.host(shard_id).call("ping")

    async def kill_server(self, shard_id: str, sid: str) -> None:
        await self.host(shard_id).call("kill", sid)

    async def heal_server(self, shard_id: str, sid: str) -> None:
        await self.host(shard_id).call("heal", sid)

    async def kill_shard(self, shard_id: str) -> None:
        """Partition the whole shard (sever every fault proxy)."""
        await self.host(shard_id).call("kill_all")

    async def heal_shard(self, shard_id: str) -> None:
        await self.host(shard_id).call("heal_all")

    async def corrupt_shard(self, shard_id: str, wave_seed: int) -> list[str]:
        """Corruption wave on the shard's correct servers; ids touched."""
        return await self.host(shard_id).call("corrupt", wave_seed)

    async def retire(self, shard_id: str, sid: str) -> None:
        await self.host(shard_id).call("retire", sid)

    async def respawn(
        self, shard_id: str, sid: str, transfer: bool = True
    ) -> str:
        """Respawn a retired server; returns (and records) the address."""
        address = await self.host(shard_id).call("respawn", sid, transfer)
        if self.topology is not None:
            self.topology.addresses[shard_id][sid] = address
        return address

    async def stats(self) -> dict[str, dict[str, int]]:
        """Server-side message totals per shard."""
        out: dict[str, dict[str, int]] = {}
        for spec in self.specs:
            out[spec.shard_id] = await self.host(spec.shard_id).call("stats")
        return out
