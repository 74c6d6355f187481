"""One register group of live servers: the hosting both tiers share.

A :class:`ServerGroup` boots ``config.n`` server daemons (Byzantine zoo
factories where requested), optionally behind fault proxies, and runs
the membership and fault verbs: kill/heal, corruption waves, retire, and
respawn with the f+1-witness state transfer (:func:`poll_state_snapshots` +
:func:`~repro.core.server.adopt_snapshot`). Clients and histories live
with whoever dials in: :class:`~repro.net.cluster.LiveRegisterCluster`
hosts one group, every fabric shard host (:mod:`repro.fabric.host`) one
per shard.

Seeding matches the sim: every daemon gets the group's seed and its
:class:`~repro.net.bridge.NetEnvironment` derives the per-pid stream, so
a live Byzantine server and its simulated twin emit identical forgeries.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Collection, Optional

from repro.core.config import SystemConfig
from repro.core.messages import StateReply, StateRequest
from repro.core.server import adopt_snapshot
from repro.errors import ConfigurationError
from repro.labels.base import LabelingScheme
from repro.net.bridge import LiveClock
from repro.net.daemon import ServerDaemon, ServerFactory
from repro.net.proxy import FaultPolicy, FaultProxy
from repro.net.transport import (
    DEFAULT_FLUSH_WATERMARK,
    StreamConnection,
    open_frame_connection,
)
from repro.net.wire import DEFAULT_WIRE, get_codec
from repro.sim.environment import derive_seed
from repro.sim.tracing import MessageStats

__all__ = [
    "ServerGroup",
    "check_group_settings",
    "poll_state_snapshots",
    "stats_to_dict",
]


def stats_to_dict(stats: MessageStats) -> dict[str, int]:
    """Collapse message accounting to picklable totals (pipe-safe)."""
    return {
        "sent": stats.total_sent,
        "delivered": stats.total_delivered,
        "dropped": stats.dropped,
        "corrupted": stats.corrupted,
    }


def check_group_settings(
    config: SystemConfig,
    byzantine_ids: Collection[str],
    family: str,
    socket_dir: Optional[str],
) -> None:
    """Raise ConfigurationError unless a group of this shape can boot:
    at most ``f`` Byzantine ids, all real servers; a known address
    family; a socket directory when it is ``unix``."""
    if len(byzantine_ids) > config.f:
        raise ConfigurationError(
            f"{len(byzantine_ids)} Byzantine servers configured but f={config.f}"
        )
    unknown = set(byzantine_ids) - set(config.server_ids)
    if unknown:
        raise ConfigurationError(f"unknown Byzantine server ids: {sorted(unknown)}")
    if family not in ("tcp", "unix"):
        raise ConfigurationError(f"unknown address family {family!r}")
    if family == "unix" and not socket_dir:
        raise ConfigurationError("family='unix' needs a socket_dir")


async def _one_shot_state(
    probe: str,
    peer: str,
    address: str,
    nonce: int,
    wire: int = DEFAULT_WIRE,
) -> Optional[StateReply]:
    """One wire-level StateRequest/StateReply exchange with ``peer``.

    ``flush_watermark=0``: a single below-watermark request with no
    flusher attached would otherwise sit in the coalescing buffer
    forever. Returns ``None`` when the peer at ``address`` identifies
    as someone other than ``peer`` (stale address after churn).
    """
    got: asyncio.Future = asyncio.get_running_loop().create_future()

    def on_message(
        conn: StreamConnection, src: str, dst: str, payload: Any
    ) -> None:
        if isinstance(payload, StateReply) and payload.nonce == nonce:
            if not got.done():
                got.set_result(payload)

    conn = await open_frame_connection(
        address,
        lambda: StreamConnection(
            MessageStats(),
            on_message,
            codec=get_codec(wire),
            flush_watermark=0,
        ),
    )
    try:
        conn.send_hello(probe)
        peer_pid = await conn.expect_hello()
        if peer_pid != peer:
            return None
        conn.start_pump()
        conn.send_payload(probe, peer, StateRequest(nonce=nonce))
        return await got
    finally:
        await conn.close()


async def poll_state_snapshots(
    peers: dict[str, str],
    probe: str,
    nonce: int,
    wire: int = DEFAULT_WIRE,
    timeout: float = 5.0,
) -> dict[str, tuple[Any, Any]]:
    """Ask every peer (id -> address) for its ``(value, ts)`` snapshot.

    This is the state-transfer poll: the live analogue of the sim
    joiner's StateRequest broadcast, one one-shot connection per peer.
    Peers that time out, refuse the connection, or misidentify are
    simply absent from the result — :func:`adopt_snapshot` then decides
    whether the ``f+1`` witnesses it needs are among the answers.
    """
    replies: dict[str, tuple[Any, Any]] = {}
    for peer, address in sorted(peers.items()):
        try:
            reply = await asyncio.wait_for(
                _one_shot_state(probe, peer, address, nonce, wire=wire),
                timeout=timeout,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            continue
        if reply is not None:
            replies[peer] = (reply.value, reply.ts)
    return replies


class ServerGroup:
    """Daemons + optional fault proxies for one register, one event loop.

    Built from plain values (validate them with
    :func:`check_group_settings`). With a ``proxy_policy`` every server
    is fronted by a :class:`FaultProxy` and clients dial the proxies;
    kill/heal need them. ``name`` prefixes unix socket names and labels
    the corruption stream, so groups sharing a ``socket_dir`` stay apart.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: LabelingScheme,
        seed: int = 0,
        byzantine: Optional[dict[str, ServerFactory]] = None,
        family: str = "tcp",
        socket_dir: Optional[str] = None,
        proxy_policy: Optional[FaultPolicy] = None,
        wire: int = DEFAULT_WIRE,
        flush_watermark: int = DEFAULT_FLUSH_WATERMARK,
        clock: Optional[LiveClock] = None,
        name: str = "",
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.seed = seed
        self._factories = dict(byzantine or {})
        self.byzantine_ids = set(self._factories)
        self.family = family
        self.socket_dir = socket_dir
        self.proxy_policy = proxy_policy
        self.wire = wire
        self.flush_watermark = flush_watermark
        self.clock = clock if clock is not None else LiveClock()
        self.name = name
        self.daemons: dict[str, ServerDaemon] = {}
        self.proxies: dict[str, FaultProxy] = {}
        self.addresses: dict[str, str] = {}  # as dialed by clients
        self.departed: set[str] = set()  # retired, awaiting respawn
        self._generations: dict[str, int] = {}  # respawn counts per sid

    # -- lifecycle -------------------------------------------------------
    def _listen(self, tag: str) -> str:
        if self.family == "unix":
            prefix = f"{self.name}-" if self.name else ""
            return f"unix:{self.socket_dir}/{prefix}{tag}.sock"
        return "tcp:127.0.0.1:0"

    async def _boot_daemon(self, sid: str, gen: int) -> ServerDaemon:
        """Boot generation ``gen`` of ``sid`` (0 = first boot)."""
        daemon = ServerDaemon(
            sid,
            self.config,
            address=self._listen(f"{sid}-g{gen}" if gen else sid),
            factory=self._factories.get(sid),
            scheme=self.scheme,
            seed=derive_seed(self.seed, f"respawn:{sid}:{gen}") if gen else self.seed,
            clock=self.clock,
            wire=self.wire,
            flush_watermark=self.flush_watermark,
        )
        await daemon.start()
        self.daemons[sid] = daemon
        self.addresses[sid] = daemon.address
        return daemon

    async def _boot_proxy(self, sid: str, gen: int) -> None:
        """Front generation ``gen`` of ``sid`` with a fault proxy, if any."""
        if self.proxy_policy is None:
            return
        proxy = FaultProxy(
            upstream=self.daemons[sid].address,
            listen=self._listen(f"{sid}-proxy-g{gen}" if gen else f"{sid}-proxy"),
            policy=self.proxy_policy,
            seed=derive_seed(
                self.seed, f"proxy:{sid}:g{gen}" if gen else f"proxy:{sid}"
            ),
        )
        await proxy.start()
        self.proxies[sid] = proxy
        self.addresses[sid] = proxy.address

    async def start(self) -> dict[str, str]:
        """Boot every daemon, then every proxy front; returns dial addresses."""
        for sid in self.config.server_ids:
            await self._boot_daemon(sid, 0)
        for sid in self.config.server_ids:
            await self._boot_proxy(sid, 0)
        self.clock.start()
        return dict(self.addresses)

    async def stop(self) -> None:
        """Tear every host down (idempotent)."""
        # Take ownership before the first await: a concurrent command
        # arriving mid-teardown must see empty maps, not half-closed hosts.
        proxies, self.proxies = dict(self.proxies), {}
        daemons, self.daemons = dict(self.daemons), {}
        for proxy in proxies.values():
            await proxy.stop()
        for daemon in daemons.values():
            await daemon.stop()

    # -- fault verbs -----------------------------------------------------
    def _proxy(self, sid: str) -> FaultProxy:
        proxy = self.proxies.get(sid)
        if proxy is None:
            raise ConfigurationError(
                f"{self.name or 'group'}/{sid}: kill/heal need a fault proxy "
                f"in front of the server"
            )
        return proxy

    async def kill(self, sid: str) -> None:
        """Sever + refuse at the proxy; the daemon itself keeps running."""
        await self._proxy(sid).kill()

    def heal(self, sid: str) -> None:
        self._proxy(sid).heal()

    async def kill_all(self) -> None:
        """Partition the whole group off (every proxy severed)."""
        for sid in sorted(self.proxies):
            await self.proxies[sid].kill()

    def heal_all(self) -> None:
        for sid in sorted(self.proxies):
            self.proxies[sid].heal()

    def corrupt(self, wave_seed: int) -> list[str]:
        """Scramble every correct, live server's process state.

        The live analogue of :func:`~repro.sim.faults.scramble_processes`
        (each process's own ``corrupt_state`` on a stream derived from
        ``wave_seed``); Byzantine servers are skipped. Returns the ids
        touched.
        """
        rng = random.Random(derive_seed(wave_seed, f"corrupt:{self.name}"))
        touched = []
        for sid, daemon in sorted(self.daemons.items()):
            if sid in self.byzantine_ids or sid in self.departed:
                continue
            daemon.process.corrupt_state(rng)
            touched.append(sid)
        return touched

    # -- membership (continuous churn) -----------------------------------
    async def retire(self, sid: str) -> None:
        """Stop one server for real: socket closed, hosted process gone.

        Unlike a proxy :meth:`kill`, nothing of the server survives; with
        at most ``f`` servers absent the ``n - f`` quorums still assemble.
        """
        if sid not in self.daemons:
            raise ConfigurationError(f"unknown server id: {sid!r}")
        if sid in self.departed:
            raise ConfigurationError(f"server {sid!r} is already retired")
        self.departed.add(sid)
        proxy = self.proxies.pop(sid, None)
        if proxy is not None:
            await proxy.stop()
        await self.daemons[sid].stop()

    async def respawn(self, sid: str, transfer: bool = True) -> str:
        """Bring a retired server back as a brand-new daemon.

        The replacement gets a fresh address and the RNG stream
        ``derive_seed(seed, "respawn:{sid}:{gen}")``. With ``transfer``
        on and a correct slot, it polls every live peer with a real
        StateRequest and adopts what the sim joiner's f+1-vote
        :func:`~repro.core.server.adopt_snapshot` picks. Returns the
        address clients must now dial (callers redial their endpoints).
        """
        if sid not in self.departed:
            raise ConfigurationError(f"server {sid!r} is not retired")
        gen = self._generations.get(sid, 0) + 1
        self._generations[sid] = gen
        daemon = await self._boot_daemon(sid, gen)
        if transfer and sid not in self.byzantine_ids:
            peers = {
                peer: peer_daemon.address
                for peer, peer_daemon in self.daemons.items()
                if peer != sid and peer not in self.departed
            }
            replies = await poll_state_snapshots(
                peers, probe=f"join:{sid}:{gen}", nonce=gen, wire=self.wire
            )
            winner = adopt_snapshot(replies, self.scheme, self.config.f)
            if winner is not None:
                # Unconditional, unlike the sim joiner's ≺-guarded
                # adoption: no client knows the new address yet, so the
                # fresh boot label is an arbitrary point of the bounded
                # label graph, not write state a ≺-guard could protect.
                process = daemon.process
                process.value, process.ts = winner
                process.old_vals = []
        await self._boot_proxy(sid, gen)
        self.departed.discard(sid)
        return self.addresses[sid]

    def stats(self) -> MessageStats:
        """Server-side message accounting merged over every daemon."""
        merged = MessageStats()
        for daemon in self.daemons.values():
            merged = merged.merged_with(daemon.stats)
        return merged
