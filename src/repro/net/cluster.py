"""A whole live register deployment on loopback, checked like a sim run.

:class:`LiveRegisterCluster` is the live twin of
:class:`~repro.core.register.RegisterSystem`: it hosts one
:class:`~repro.net.group.ServerGroup` of ``config.n`` server daemons
(substituting Byzantine zoo factories where requested, at most ``f``),
dials ``n_clients`` :class:`~repro.net.daemon.ClientEndpoint` clients
into all of them, and records every invocation/response into one shared
:class:`~repro.spec.history.History` stamped by one shared
:class:`~repro.net.bridge.LiveClock` — so the captured run is judged by
the very same :class:`~repro.spec.regularity.RegularityChecker` that
judges simulated histories.

Everything lives in one OS process and one event loop ("live" means real
sockets and kernel scheduling, not real distribution); an optional
:class:`~repro.net.proxy.FaultProxy` per server interposes
FairLossyChannel-style faults on the wire. Seeding matches the sim (see
:mod:`repro.net.group`), so a live Byzantine server and its simulated
twin emit identical forgeries.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SystemConfig
from repro.core.server import INITIAL_VALUE
from repro.errors import ConfigurationError
from repro.net.bridge import LiveClock
from repro.net.daemon import ClientEndpoint, ServerFactory, default_scheme
from repro.net.group import ServerGroup, check_group_settings
from repro.net.proxy import FaultPolicy
from repro.net.transport import DEFAULT_FLUSH_WATERMARK
from repro.net.wire import DEFAULT_WIRE, get_codec
from repro.sim.tracing import MessageStats
from repro.spec.history import History
from repro.spec.regularity import RegularityChecker, RegularityVerdict

__all__ = ["LiveRegisterCluster"]


class LiveRegisterCluster:
    """Servers + clients + shared history over loopback sockets.

    Args:
        config: quorum configuration (same object the sim takes).
        n_clients: endpoints ``c0 .. c{m-1}``.
        seed: master seed for every hosted process's RNG stream.
        byzantine: bare server id -> factory, at most ``config.f`` entries
            (the :data:`~repro.byzantine.strategies.STRATEGY_ZOO` classes
            slot straight in).
        family: ``"tcp"`` (loopback, ephemeral ports) or ``"unix"``
            (sockets under ``socket_dir``, required then).
        proxy_policy: when set, every server is fronted by a
            :class:`FaultProxy` with this policy and clients dial the
            proxies. Lossy/reordering policies break the protocol's
            reliable-FIFO channel assumption — use them to demonstrate
            stabilization, not to certify histories.
        op_timeout: per-operation deadline before an endpoint
            crash-restarts its client (see :mod:`repro.net.daemon`).
        external_servers: server id -> address of daemons running
            elsewhere (``repro serve``). The cluster then boots only the
            client side: no daemons, no proxies; ``byzantine`` must be
            empty (whoever runs the servers picks their strategies).
        wire: the wire codec version every host speaks (both hosts of a
            connection must agree; HELLO enforces it).
        flush_watermark: outbound coalescing threshold per connection, in
            bytes (:data:`~repro.net.transport.DEFAULT_FLUSH_WATERMARK`).
    """

    def __init__(
        self,
        config: SystemConfig,
        n_clients: int = 2,
        seed: int = 0,
        byzantine: Optional[dict[str, ServerFactory]] = None,
        family: str = "tcp",
        socket_dir: Optional[str] = None,
        proxy_policy: Optional[FaultPolicy] = None,
        op_timeout: float = 30.0,
        mwmr: bool = True,
        external_servers: Optional[dict[str, str]] = None,
        wire: int = DEFAULT_WIRE,
        flush_watermark: int = DEFAULT_FLUSH_WATERMARK,
    ) -> None:
        if n_clients < 1:
            raise ConfigurationError("need at least one client")
        byzantine = dict(byzantine or {})
        if external_servers is not None:
            if byzantine:
                raise ConfigurationError(
                    "byzantine factories cannot be applied to external servers"
                )
            missing = set(config.server_ids) - set(external_servers)
            if missing:
                raise ConfigurationError(
                    f"external_servers missing addresses for: {sorted(missing)}"
                )
        check_group_settings(config, byzantine, family, socket_dir)

        self.config = config
        self.seed = seed
        self.n_clients = n_clients
        self.op_timeout = op_timeout
        self._external = dict(external_servers) if external_servers else None
        self.wire = wire
        self.wire_format = get_codec(wire).format  # validates `wire` early
        self.flush_watermark = flush_watermark

        self.scheme = default_scheme(config, mwmr=mwmr)
        self.clock = LiveClock()
        self.group = ServerGroup(
            config,
            self.scheme,
            seed=seed,
            byzantine=byzantine,
            family=family,
            socket_dir=socket_dir,
            proxy_policy=proxy_policy,
            wire=wire,
            flush_watermark=flush_watermark,
            clock=self.clock,
        )
        self.history = History()
        self.endpoints: dict[str, ClientEndpoint] = {}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Boot the server group (unless external) and the endpoints."""
        addresses = self._external or await self.group.start()
        for i in range(self.n_clients):
            cid = f"c{i}"
            endpoint = ClientEndpoint(
                cid,
                self.config,
                addresses,
                history=self.history,
                clock=self.clock,
                scheme=self.scheme,
                seed=self.seed,
                op_timeout=self.op_timeout,
                wire=self.wire,
                flush_watermark=self.flush_watermark,
            )
            await endpoint.connect()
            self.endpoints[cid] = endpoint

        self.clock.start()  # history time zero = "cluster fully wired"

    async def stop(self) -> None:
        """Tear everything down (idempotent)."""
        for endpoint in self.endpoints.values():
            await endpoint.close()
        await self.group.stop()

    async def __aenter__(self) -> "LiveRegisterCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- operations ------------------------------------------------------
    async def write(self, cid: str, value: Any) -> Any:
        return await self.endpoints[cid].write(value)

    async def read(self, cid: str) -> Any:
        return await self.endpoints[cid].read()

    # -- membership (continuous churn) -----------------------------------
    async def retire_server(self, sid: str) -> None:
        """Take one server out of the deployment (:meth:`ServerGroup.retire`)."""
        if self._external is not None:
            raise ConfigurationError("cannot retire external servers")
        await self.group.retire(sid)

    async def respawn_server(self, sid: str, transfer: bool = True) -> str:
        """Respawn a retired server with state transfer, then redial.

        :meth:`ServerGroup.respawn` boots the replacement and adopts the
        snapshot f+1 live peers vouch for; every endpoint then redials
        the new address. Returns the address clients now dial.
        """
        address = await self.group.respawn(sid, transfer=transfer)
        for endpoint in self.endpoints.values():
            await endpoint.redial(sid, address=address)
        return address

    # -- verification & accounting --------------------------------------
    def checker(self, **overrides: Any) -> RegularityChecker:
        """A checker wired like :meth:`RegisterSystem.checker`."""
        kwargs: dict[str, Any] = dict(
            scheme=self.scheme, initial_value=INITIAL_VALUE
        )
        kwargs.update(overrides)
        return RegularityChecker(**kwargs)

    def check_regularity(self, **overrides: Any) -> RegularityVerdict:
        """Judge the captured live history with the sim's own checker."""
        return self.checker(**overrides).check(self.history)

    def stats(self) -> MessageStats:
        """Message accounting merged across every host in the cluster."""
        merged = self.group.stats()
        for endpoint in self.endpoints.values():
            merged = merged.merged_with(endpoint.stats)
        return merged

    @property
    def timeouts(self) -> int:
        return sum(e.timeouts for e in self.endpoints.values())
