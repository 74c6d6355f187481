"""Every load generator issues a fixed operation sequence per endpoint.

The live and fabric generators share one serve-and-record loop; each
keeps its own RNG derivation. These tests drive all four worker shapes
(closed and open loop, live and fabric) against recording endpoints on a
scripted clock, and pin what each endpoint is asked to do at a fixed
seed: ``"r"`` for a read, the written value for a write. A change to the
RNG derivation, the draw order or the deadline checks shows up here as a
different sequence.
"""

from __future__ import annotations

import asyncio

from repro.fabric.loadgen import run_fabric_load
from repro.fabric.topology import FabricTopology, ShardSpec
from repro.net.loadgen import run_load, run_open_load


class ScriptedClock:
    """Advances only when an operation completes."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class RecordingEndpoint:
    """Stands in for a ClientEndpoint: logs each op, costs ``step`` s."""

    def __init__(self, clock: ScriptedClock, step: float = 0.01) -> None:
        self.clock = clock
        self.step = step
        self.ops: list[str] = []

    async def _complete(self) -> None:
        await asyncio.sleep(0)  # let the other workers interleave
        self.clock.t += self.step

    async def read(self) -> str:
        self.ops.append("r")
        await self._complete()
        return "value"

    async def write(self, value: str) -> str:
        self.ops.append(value)
        await self._complete()
        return "ack"


class FakeCluster:
    def __init__(self, n_clients: int = 2) -> None:
        self.clock = ScriptedClock()
        self.endpoints = {
            f"c{i}": RecordingEndpoint(self.clock) for i in range(n_clients)
        }


class FakeFabricClient:
    def __init__(self, shards: int = 2, clients_per_shard: int = 1) -> None:
        specs = [ShardSpec(shard_id=f"shard{i}") for i in range(shards)]
        addresses = {
            spec.shard_id: {
                sid: f"tcp:127.0.0.1:{9000 + j}"
                for j, sid in enumerate(spec.config().server_ids)
            }
            for spec in specs
        }
        self.topology = FabricTopology(specs, addresses)
        self.clients_per_shard = clients_per_shard
        self.clock = ScriptedClock()
        self.endpoints = {
            (spec.shard_id, i): RecordingEndpoint(self.clock)
            for spec in specs
            for i in range(clients_per_shard)
        }

    def place(self, key: str) -> str:
        return self.topology.place(key)

    def endpoint(self, shard_id: str, worker: int = 0) -> RecordingEndpoint:
        return self.endpoints[(shard_id, worker)]


def issued(endpoints: dict) -> dict[str, list[str]]:
    """Endpoint name (``c0`` or ``shard0.c0``) -> the ops it was asked for."""
    return {
        name if isinstance(name, str) else f"{name[0]}.c{name[1]}": endpoint.ops
        for name, endpoint in endpoints.items()
    }


def test_closed_loop_sequences():
    cluster = FakeCluster()
    asyncio.run(run_load(cluster, duration=0.1, warmup=0.02, seed=7))
    assert issued(cluster.endpoints) == {
        "c0": ["c0#1", "r", "c0#2", "r", "r", "r", "r"],
        "c1": ["r", "r", "r", "c1#1", "c1#2", "c1#3", "c1#4"],
    }


def test_open_loop_sequences():
    cluster = FakeCluster()
    asyncio.run(
        run_open_load(cluster, rate=150.0, duration=0.08, warmup=0.02, seed=7)
    )
    assert issued(cluster.endpoints) == {
        "c0": ["r", "c0#1", "r", "r", "r", "c0#2", "r", "c0#3", "c0#4"],
        "c1": ["c1#1", "r", "r", "r", "c1#2"],
    }


def test_fabric_open_loop_sequences():
    client = FakeFabricClient()
    asyncio.run(
        run_fabric_load(
            client, mode="open", rate=150.0, duration=0.08, warmup=0.02,
            keys=64, seed=7,
        )
    )
    assert issued(client.endpoints) == {
        "shard0.c0": [
            "k00058=shard0.c0#1", "k00035=shard0.c0#2", "r",
            "k00019=shard0.c0#3", "r", "r", "k00045=shard0.c0#4",
            "r", "r", "r", "r", "r", "r",
        ],
        "shard1.c0": ["r", "r", "r"],
    }


def test_fabric_closed_loop_sequences():
    client = FakeFabricClient()
    asyncio.run(
        run_fabric_load(
            client, mode="closed", duration=0.1, warmup=0.02, keys=64, seed=7
        )
    )
    assert issued(client.endpoints) == {
        "shard0.c0": [
            "k00059=shard0.c0#1", "r", "r", "k00041=shard0.c0#2",
            "k00047=shard0.c0#3", "r", "k00056=shard0.c0#4",
        ],
        "shard1.c0": [
            "k00022=shard1.c0#1", "k00025=shard1.c0#2", "k00046=shard1.c0#3",
            "r", "r", "k00051=shard1.c0#4", "r",
        ],
    }
