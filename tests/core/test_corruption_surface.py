"""Runtime completeness of the corruption surface.

The static STAB rules prove ``corrupt_state`` *mentions* every registered
corruptible attribute; these tests prove it *assigns* them at runtime, and
that the protocol still recovers (E6-style) when the fields added to the
registry in this revision — reader phase flags, pending writer timestamps,
reply buffers, and the atomic write-back bookkeeping — are scrambled too.
"""

from __future__ import annotations

import random

import pytest

from repro.core.atomic import AtomicRegisterClient
from repro.core.client import RegisterClient
from repro.core.config import SystemConfig
from repro.core.register import RegisterSystem
from repro.core.server import RegisterServer
from repro.sim.faults import (
    ADVERSARIAL,
    CORRUPTIBLE,
    CORRUPTION_REGISTRY,
    EPHEMERAL,
    INFRASTRUCTURE,
    OBSERVABILITY,
    corruption_surface,
    state_kinds,
)
from repro.spec.stabilization import evaluate_stabilization

KINDS = {CORRUPTIBLE, EPHEMERAL, INFRASTRUCTURE, OBSERVABILITY, ADVERSARIAL}


def _recorded_assignments(proc, rounds: int = 3) -> set[str]:
    """Attribute names ``corrupt_state`` assigns on ``proc``, unioned over
    several RNG draws so coin-flip branches cannot hide an attribute."""
    cls = type(proc)
    assert "__setattr__" not in cls.__dict__, "unexpected custom __setattr__"
    assigned: set[str] = set()

    def recording(self, name, value):
        if self is proc:
            assigned.add(name)
        object.__setattr__(self, name, value)

    cls.__setattr__ = recording
    try:
        for i in range(rounds):
            proc.corrupt_state(random.Random(1000 + i))
    finally:
        del cls.__setattr__
    return assigned


def test_registry_kinds_and_exemptions_are_well_formed() -> None:
    for name, entry in CORRUPTION_REGISTRY.items():
        if isinstance(entry, str):
            assert entry.startswith("exempt:"), name
            continue
        for attr, kind in entry.items():
            assert kind in KINDS, (name, attr, kind)


def test_state_kinds_merges_the_mro() -> None:
    kinds = state_kinds(AtomicRegisterClient)
    assert kinds["pid"] == INFRASTRUCTURE  # from Process
    assert kinds["_active_op"] == EPHEMERAL  # from RegisterClient
    assert kinds["write_ts"] == CORRUPTIBLE  # from WriterMixin
    assert kinds["_wb_ts"] == CORRUPTIBLE  # from AtomicRegisterClient itself


def test_server_surface_matches_registry() -> None:
    assert corruption_surface(RegisterServer) == {
        "value",
        "ts",
        "old_vals",
        "running_read",
        # churn state-transfer handshake (begin_join/on_state_reply)
        "_join_nonce",
        "_join_replies",
        "_join_quorum",
    }


@pytest.mark.parametrize("client_cls", [RegisterClient, AtomicRegisterClient])
def test_corrupt_state_assigns_the_whole_declared_surface(client_cls) -> None:
    system = RegisterSystem(
        SystemConfig(n=6, f=1), seed=5, n_clients=2, client_cls=client_cls
    )
    for proc in list(system.servers.values()) + list(system.clients.values()):
        surface = corruption_surface(type(proc))
        assert surface, type(proc).__name__
        assigned = _recorded_assignments(proc)
        missed = surface - assigned
        assert not missed, f"{type(proc).__name__} never corrupts {sorted(missed)}"


def test_fabric_registry_entries_match_runtime_attrs() -> None:
    """The fabric hosting-layer declarations (WIRE003's input), including
    the server group every shard hosts, must track reality: for every
    class with a dict entry, the registry's attribute set equals exactly
    what ``__init__`` assigns at runtime."""
    from repro.fabric.client import FabricClient
    from repro.fabric.host import InlineShardHost, ProcessShardHost, shard_group
    from repro.fabric.kv import FabricKV, _LiveShardBackend
    from repro.fabric.ring import HashRing
    from repro.fabric.supervisor import FabricSupervisor
    from repro.fabric.topology import FabricTopology, ShardSpec

    spec = ShardSpec(shard_id="shard0", n=6, f=1)
    addresses = {
        "shard0": {sid: f"tcp:127.0.0.1:{9000 + i}" for i, sid in enumerate(spec.config().server_ids)}
    }
    topology = FabricTopology((spec,), addresses)
    kv = FabricKV(shards=1)  # never started: __init__ surface only
    instances = [
        HashRing(("shard0",)),
        topology,
        shard_group(spec),
        InlineShardHost(spec),
        ProcessShardHost(spec),
        FabricClient(topology),
        _LiveShardBackend(kv, "key", "shard0", 1),
    ]
    for obj in instances:
        entry = CORRUPTION_REGISTRY[type(obj).__name__]
        assert isinstance(entry, dict), type(obj).__name__
        assert set(vars(obj)) == set(entry), type(obj).__name__
    for orchestrator in (FabricSupervisor, FabricKV):
        entry = CORRUPTION_REGISTRY[orchestrator.__name__]
        assert isinstance(entry, str) and entry.startswith("exempt:")


@pytest.mark.parametrize("client_cls", [RegisterClient, AtomicRegisterClient])
def test_recovery_after_scrambling_newly_registered_fields(client_cls) -> None:
    """E6-style regression: corrupt everything — including the reader/writer
    phase fields and write-back bookkeeping this revision added to the
    registry — then one write must re-anchor the register."""
    system = RegisterSystem(
        SystemConfig(n=6, f=1), seed=13, n_clients=3, client_cls=client_cls
    )
    system.write_sync("c0", "before")
    fault_time = system.env.now
    system.corrupt_servers()
    system.corrupt_clients()
    rng = random.Random(99)
    for client in system.clients.values():
        client.reading = True
        client.r_label = rng.randrange(system.config.read_label_count)
        client._replies = []
        client._reply_servers = set()
        client._collecting_ts = True
        client._pending_write_ts = system.scheme.random_label(rng)
        if isinstance(client, AtomicRegisterClient):
            client._wb_ts = system.scheme.random_label(rng)
            client._wb_responders = {"s0", "ghost"}
    system.write_sync("c0", "anchor")
    for reader in ("c1", "c2"):
        assert system.read_sync(reader) == "anchor"
    rep = evaluate_stabilization(
        system.history, system.checker(), last_fault_time=fault_time
    )
    assert rep.stabilized, rep.summary()
