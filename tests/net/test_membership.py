"""Live-tier membership: proxy hard kill/heal and real server churn.

Two escalating ways a live server goes away. A *killed* FaultProxy
severs every connection and refuses new ones until healed — the server
looks crashed, and a client re-enters with one redial + re-HELLO. A
*retired* server is really gone (daemon stopped, socket closed); a
respawn brings a brand-new daemon up on a fresh address, runs the
mediated state-transfer handshake over real StateRequest frames, and
every endpoint redials. Both must leave histories the simulator's own
RegularityChecker accepts.

The churn scenarios are written once and run against both hostings of
the one server group: a LiveRegisterCluster and an inline fabric shard.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.fabric import FabricClient, FabricSupervisor
from repro.net import FaultPolicy, LiveRegisterCluster, WireError

CONFIG = SystemConfig(n=6, f=1)


def run(coro):
    return asyncio.run(coro)


class TestKillHeal:
    def test_kill_heal_re_hello_resumes_service(self):
        async def scenario():
            policy = FaultPolicy()  # pass-through: the toggle is the test
            async with LiveRegisterCluster(
                CONFIG, n_clients=1, seed=21, proxy_policy=policy
            ) as c:
                await c.write("c0", "before")
                proxy = c.group.proxies["s0"]
                await proxy.kill()
                assert proxy.killed
                # One dead server of six: n - f quorums still assemble.
                await c.write("c0", "during")
                # A killed proxy hangs up on dialers before the HELLO.
                with pytest.raises((WireError, ConnectionError, OSError)):
                    await c.endpoints["c0"].redial("s0")
                proxy.heal()
                assert not proxy.killed
                await c.endpoints["c0"].redial("s0")  # re-HELLO succeeds
                await c.write("c0", "after")
                value = await c.read("c0")
                return value, c.check_regularity(algorithm="sweep")

        value, verdict = run(scenario())
        assert value == "after"
        assert verdict.ok, verdict.violations


class ClusterHosting:
    """The group as a LiveRegisterCluster hosts it; clients ``c0..``."""

    def __init__(self, seed: int, n_clients: int, **kwargs) -> None:
        self.cluster = LiveRegisterCluster(
            CONFIG, n_clients=n_clients, seed=seed, **kwargs
        )
        self.group = self.cluster.group

    async def __aenter__(self) -> "ClusterHosting":
        await self.cluster.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.cluster.stop()

    async def write(self, client: int, value: str) -> None:
        await self.cluster.write(f"c{client}", value)

    async def read(self, client: int):
        return await self.cluster.read(f"c{client}")

    async def retire(self, sid: str) -> None:
        await self.cluster.retire_server(sid)

    async def respawn(self, sid: str) -> str:
        return await self.cluster.respawn_server(sid)

    def verdict(self):
        return self.cluster.check_regularity(algorithm="sweep")


class InlineShardHosting:
    """The group as a one-shard inline fabric hosts it; one key, workers ``0..``."""

    def __init__(self, seed: int, n_clients: int, **kwargs) -> None:
        self.seed = seed
        self.n_clients = n_clients
        self.supervisor = FabricSupervisor(shards=1, seed=seed, mode="inline", **kwargs)

    async def __aenter__(self) -> "InlineShardHosting":
        topology = await self.supervisor.start()
        self.group = self.supervisor.hosts["shard0"].group
        self.client = FabricClient(
            topology, clients_per_shard=self.n_clients, seed=self.seed
        )
        await self.client.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.client.close()
        await self.supervisor.stop()

    async def write(self, client: int, value: str) -> None:
        await self.client.put("key", value, worker=client)

    async def read(self, client: int):
        return await self.client.get("key", worker=client)

    async def retire(self, sid: str) -> None:
        await self.supervisor.retire("shard0", sid)

    async def respawn(self, sid: str) -> str:
        address = await self.supervisor.respawn("shard0", sid)
        await self.client.redial_server("shard0", sid, address=address)
        return address

    def verdict(self):
        return self.client.check_shard("shard0", algorithm="sweep")


class ChurnScenarios:
    """Retire/respawn scenarios, run once per hosting of the server group."""

    hosting: type

    def test_retire_respawn_transfers_state_and_resumes(self):
        async def scenario():
            async with self.hosting(seed=22, n_clients=2) as h:
                await h.write(0, "while-away")
                old_address = h.group.addresses["s0"]
                await h.retire("s0")
                assert "s0" in h.group.departed
                # Quorums survive the absence; this write happens while
                # s0 is really gone (daemon stopped, socket closed).
                await h.write(0, "mid-churn")
                address = await h.respawn("s0")
                assert address != old_address  # fresh ephemeral port
                assert "s0" not in h.group.departed
                # The mediated handshake adopted the peers' snapshot.
                joined = h.group.daemons["s0"].process
                value = await h.read(1)
                return joined.value, value, h.verdict()

        adopted, value, verdict = run(scenario())
        assert adopted == "mid-churn"
        assert value == "mid-churn"
        assert verdict.ok, verdict.violations

    def test_retire_guards(self):
        async def scenario():
            async with self.hosting(seed=23, n_clients=1) as h:
                with pytest.raises(ConfigurationError, match="unknown"):
                    await h.retire("s9")
                await h.retire("s0")
                with pytest.raises(ConfigurationError, match="already"):
                    await h.retire("s0")
                with pytest.raises(ConfigurationError, match="not retired"):
                    await h.respawn("s1")
                await h.respawn("s0")

        run(scenario())

    def test_respawn_over_unix_sockets(self, tmp_path):
        # Unix sockets don't unlink on close; the respawn generation
        # suffix must keep the new daemon off the dead socket path.
        async def scenario():
            async with self.hosting(
                seed=24, n_clients=1, family="unix", socket_dir=str(tmp_path)
            ) as h:
                await h.write(0, "over-uds")
                await h.retire("s2")
                address = await h.respawn("s2")
                assert "-g1.sock" in address
                await h.write(0, "post-churn")
                value = await h.read(0)
                return value, h.verdict()

        value, verdict = run(scenario())
        assert value == "post-churn"
        assert verdict.ok, verdict.violations


class TestChurnMembership(ChurnScenarios):
    hosting = ClusterHosting


class TestInlineShardChurn(ChurnScenarios):
    hosting = InlineShardHosting
