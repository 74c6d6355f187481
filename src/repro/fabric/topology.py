"""The serializable fabric layout: ``repro-fabric-topology/1``.

A :class:`ShardSpec` is everything a shard host needs to boot its
register group — and nothing else, so it pickles cleanly across the
``multiprocessing`` spawn boundary (Byzantine servers travel as zoo
strategy *names*, resolved against
:data:`~repro.byzantine.strategies.STRATEGY_ZOO` inside the host).

A :class:`FabricTopology` is the started fabric's public shape: the
specs plus the concrete server addresses each shard actually bound, and
the hash ring derived from the shard ids. Its dict form is the
``repro-fabric-topology/1`` artifact — enough for a client in another
process (or another machine, for tcp addresses) to dial every shard and
route keys identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Optional, Sequence

from repro.byzantine.strategies import STRATEGY_ZOO
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.fabric.ring import DEFAULT_VNODES, HashRing
from repro.net.group import check_group_settings
from repro.net.transport import DEFAULT_FLUSH_WATERMARK
from repro.net.wire import DEFAULT_WIRE

__all__ = ["TOPOLOGY_FORMAT", "FabricTopology", "ShardSpec"]

TOPOLOGY_FORMAT = "repro-fabric-topology/1"


@dataclass(frozen=True)
class ShardSpec:
    """One shard's boot parameters (picklable; see module docstring).

    ``byzantine`` pairs ``(server id, zoo strategy name)`` — at most
    ``f`` of them, exactly like the sim's per-shard budget.
    """

    shard_id: str
    n: int = 6
    f: int = 1
    seed: int = 0
    byzantine: tuple[tuple[str, str], ...] = ()
    proxied: bool = False
    wire: int = DEFAULT_WIRE
    family: str = "tcp"
    socket_dir: Optional[str] = None
    flush_watermark: int = DEFAULT_FLUSH_WATERMARK

    def __post_init__(self) -> None:
        if not self.shard_id:
            raise ConfigurationError("shard_id must be non-empty")
        # The n >= 5f+1 bound, then the checks every server group shares.
        check_group_settings(
            self.config(),
            [sid for sid, _ in self.byzantine],
            self.family,
            self.socket_dir,
        )
        for _, strategy in self.byzantine:
            if strategy not in STRATEGY_ZOO:
                raise ConfigurationError(
                    f"{self.shard_id}: unknown strategy {strategy!r}; "
                    f"known: {sorted(STRATEGY_ZOO)}"
                )

    def config(self) -> SystemConfig:
        return SystemConfig(n=self.n, f=self.f)

    def factories(self) -> dict[str, Any]:
        """Server id -> zoo class, resolved locally (never pickled)."""
        return {sid: STRATEGY_ZOO[name] for sid, name in self.byzantine}

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["byzantine"] = [list(pair) for pair in self.byzantine]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardSpec":
        known = {field.name for field in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        kwargs["byzantine"] = tuple(
            (sid, name) for sid, name in data.get("byzantine", ())
        )
        return cls(**kwargs)


class FabricTopology:
    """Specs + bound addresses + the derived ring (serializable)."""

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        addresses: dict[str, dict[str, str]],
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        specs = tuple(specs)
        ids = [spec.shard_id for spec in specs]
        missing = set(ids) - set(addresses)
        if missing:
            raise ConfigurationError(
                f"no addresses for shards: {sorted(missing)}"
            )
        for spec in specs:
            absent = set(spec.config().server_ids) - set(addresses[spec.shard_id])
            if absent:
                raise ConfigurationError(
                    f"{spec.shard_id}: missing addresses for {sorted(absent)}"
                )
        self.specs = specs
        self.vnodes = vnodes
        self.addresses = {sid: dict(addresses[sid]) for sid in ids}
        self.ring = HashRing(ids, vnodes=vnodes)
        self._by_id = {spec.shard_id: spec for spec in specs}

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(spec.shard_id for spec in self.specs)

    def spec(self, shard_id: str) -> ShardSpec:
        try:
            return self._by_id[shard_id]
        except KeyError:
            raise ConfigurationError(f"unknown shard id {shard_id!r}") from None

    def place(self, key: str) -> str:
        """The shard id owning ``key`` (the ring's placement rule)."""
        return self.ring.place(key)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": TOPOLOGY_FORMAT,
            "vnodes": self.vnodes,
            "shards": [
                {**spec.to_dict(), "servers": dict(self.addresses[spec.shard_id])}
                for spec in self.specs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FabricTopology":
        fmt = data.get("format")
        if fmt != TOPOLOGY_FORMAT:
            raise ConfigurationError(
                f"not a {TOPOLOGY_FORMAT} document: format={fmt!r}"
            )
        specs = []
        addresses = {}
        for entry in data["shards"]:
            entry = dict(entry)
            servers = entry.pop("servers")
            spec = ShardSpec.from_dict(entry)
            specs.append(spec)
            addresses[spec.shard_id] = dict(servers)
        return cls(specs, addresses, vnodes=data.get("vnodes", DEFAULT_VNODES))
