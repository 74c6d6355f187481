"""Transient-fault and crash injection.

The paper's failure model (Section II) lets *every* process start in an
arbitrarily corrupted state and lets channel contents be corrupted too.
This module provides:

* :func:`scramble_processes` — invoke each process's
  :meth:`~repro.sim.process.Process.corrupt_state` (protocol classes
  override it to randomize every local variable within its type domain);
* :class:`ChannelCorruptor` — mutate or replace in-flight payloads and
  inject stale/forged messages into channels;
* :class:`FaultSchedule` — a declarative timeline of fault actions applied
  at chosen simulation times, so experiments can hit the system mid-run
  (transient faults "of finite duration ... not too often").

Corruption of protocol payloads is delegated to a pluggable *forger*
callable because only the protocol package knows what a well-typed-but-
wrong message looks like; a :class:`~repro.sim.messages.Garbage` payload is
always available as the fully-unparseable case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.sim.environment import SimEnvironment
from repro.sim.messages import Envelope, Garbage
from repro.sim.network import Network
from repro.sim.process import Process

# A forger receives (envelope, rng) and returns a replacement payload.
Forger = Callable[[Envelope, random.Random], Any]

# ---------------------------------------------------------------------------
# The corruption registry: the injector's declared reach over process state.
# ---------------------------------------------------------------------------
#
# The stabilization experiments (E6, E13) are sound only if the transient-
# fault injector can reach *every* piece of process-local state — a state
# variable outside the corruption surface would let the system "recover"
# in runs that were never actually corrupted where it hurts. This registry
# declares, attribute by attribute, what each process class carries and
# how the fault model treats it; the STAB-series lint rules
# (:mod:`repro.analysis.rules.stab`) cross-check it against the class
# definitions on every CI run, so code and registry cannot drift apart.
#
# State kinds:

#: Protocol state the injector scrambles — must be assigned by the class's
#: ``corrupt_state``/``_corrupt*`` method (enforced by STAB002).
CORRUPTIBLE = "corruptible"
#: In-operation temporaries, unconditionally reset at the top of each
#: operation (Figures 1-3, lines 01-03); corruption *during* an operation
#: is modelled by crashing the client instead (see
#: ``RegisterClient.corrupt_state``). Still scrambled where cheap.
EPHEMERAL = "ephemeral"
#: Simulation plumbing (pids, env handles, RNG streams, crash flags) —
#: part of the *model*, not of the modelled process memory. Corrupting the
#: crash flag would violate the "at most f faulty" bound, and corrupting
#: an RNG stream changes the adversary, not the protocol.
INFRASTRUCTURE = "infrastructure"
#: Counters and diagnostics read only by experiment reports; they never
#: feed back into protocol decisions.
OBSERVABILITY = "observability"
#: Byzantine-strategy state. A Byzantine server's behaviour is already
#: arbitrary (Section II), so corrupting its private script adds no
#: adversarial power — the strategies *are* the corruption.
ADVERSARIAL = "adversarial"

#: class name -> {attribute -> kind}, or a ``"exempt: reason"`` string for
#: whole classes that are not simulated processes at all.
CORRUPTION_REGISTRY: dict[str, Any] = {
    # --- simulation base (sim/process.py) ------------------------------
    "Process": {
        "pid": INFRASTRUCTURE,
        "env": INFRASTRUCTURE,
        "crashed": INFRASTRUCTURE,
        "rng": INFRASTRUCTURE,
        "_pending_ops": INFRASTRUCTURE,
        # Crash–restart machinery (chaos nemesis layer): corrupting the
        # restart counter or the parked-script hooks would change the
        # *fault model*, not the modelled process memory.
        "restarts": OBSERVABILITY,
        "_restart_hooks": INFRASTRUCTURE,
    },
    # --- correct servers (core/server.py) ------------------------------
    "RegisterServer": {
        "config": INFRASTRUCTURE,
        "scheme": INFRASTRUCTURE,
        "value": CORRUPTIBLE,
        "ts": CORRUPTIBLE,
        "old_vals": CORRUPTIBLE,
        "running_read": CORRUPTIBLE,
        # Churn state-transfer handshake (begin_join/on_state_reply): a
        # corrupted joiner may believe it is mid-transfer with arbitrary
        # collected snapshots. The handlers tolerate any shape, so these
        # are ordinary corruptible state, not infrastructure.
        "_join_nonce": CORRUPTIBLE,
        "_join_replies": CORRUPTIBLE,
        "_join_quorum": CORRUPTIBLE,
    },
    # --- correct clients (core/client.py + mixins) ---------------------
    "RegisterClient": {
        "config": INFRASTRUCTURE,
        "scheme": INFRASTRUCTURE,
        "servers": INFRASTRUCTURE,
        "recorder": INFRASTRUCTURE,
        "_active_op": EPHEMERAL,
    },
    "ReaderMixin": {
        "recent_labels": CORRUPTIBLE,
        "recent_vals": CORRUPTIBLE,
        "last_label": CORRUPTIBLE,
        "r_label": CORRUPTIBLE,
        "reading": CORRUPTIBLE,
        "safe": CORRUPTIBLE,
        "slow": CORRUPTIBLE,
        "_replies": CORRUPTIBLE,
        "_reply_servers": CORRUPTIBLE,
        "read_path_stats": OBSERVABILITY,
    },
    "WriterMixin": {
        "write_ts": CORRUPTIBLE,
        "_wts_by_server": CORRUPTIBLE,
        "_collecting_ts": CORRUPTIBLE,
        "_ack_from": CORRUPTIBLE,
        "_nack_from": CORRUPTIBLE,
        "_pending_write_ts": CORRUPTIBLE,
    },
    "AtomicRegisterClient": {
        "_wb_responders": CORRUPTIBLE,
        "_wb_ts": CORRUPTIBLE,
    },
    # --- Byzantine strategies (byzantine/) -----------------------------
    "PhaseSilentByzantine": {"silent_on": ADVERSARIAL},
    "StaleReplayByzantine": {"stale_value": ADVERSARIAL, "stale_ts": ADVERSARIAL},
    "InflatingByzantine": {"_seen": ADVERSARIAL},
    "EquivocatingByzantine": {"stale_ts": ADVERSARIAL},
    "ScriptedByzantine": {
        "ts_script": ADVERSARIAL,
        "read_script": ADVERSARIAL,
        "_ts_cursor": ADVERSARIAL,
        "_read_cursor": ADVERSARIAL,
    },
    # --- non-process classes under the scoped paths --------------------
    "RegisterSystem": (
        "exempt: experiment-harness orchestrator, not a simulated process; "
        "it owns the injector rather than being subject to it"
    ),
    "MobileByzantineCarrier": (
        "exempt: the mobile-Byzantine adversary itself (byzantine/mobile.py) "
        "— fault machinery that performs the possess/depart swaps; its "
        "bookkeeping (current host, stashed original, itinerary) is the "
        "fault model's state, not modelled process memory, and corrupting "
        "it would change which servers are Byzantine, i.e. the f bound"
    ),
    # --- live hosting layer (net/, cross-checked by WIRE003) -----------
    # The live tier hosts the *unmodified* protocol classes, so the
    # corruption surface is still theirs (RegisterServer/RegisterClient
    # entries above). Everything a host carries is plumbing around that
    # process — corrupting a socket handle or a codec object models an
    # infrastructure crash, not a transient memory fault, and the paper's
    # fault model covers crashes separately.
    "ServerDaemon": {
        "sid": INFRASTRUCTURE,
        "config": INFRASTRUCTURE,
        "_address_spec": INFRASTRUCTURE,
        "codec": INFRASTRUCTURE,
        "flush_watermark": INFRASTRUCTURE,
        "transport": INFRASTRUCTURE,
        "env": INFRASTRUCTURE,
        "scheme": INFRASTRUCTURE,
        # The hosted RegisterServer: its own attributes are the actual
        # corruption surface, declared under "RegisterServer" above.
        "process": INFRASTRUCTURE,
        "server": INFRASTRUCTURE,
        "address": INFRASTRUCTURE,
        "_conns": INFRASTRUCTURE,
        "_handshakes": INFRASTRUCTURE,
    },
    "ClientEndpoint": {
        "cid": INFRASTRUCTURE,
        "config": INFRASTRUCTURE,
        "_addresses": INFRASTRUCTURE,
        "op_timeout": INFRASTRUCTURE,
        "codec": INFRASTRUCTURE,
        "flush_watermark": INFRASTRUCTURE,
        "transport": INFRASTRUCTURE,
        "clock": INFRASTRUCTURE,
        "env": INFRASTRUCTURE,
        "history": OBSERVABILITY,
        "recorder": OBSERVABILITY,
        "scheme": INFRASTRUCTURE,
        # The hosted RegisterClient (surface declared above).
        "client": INFRASTRUCTURE,
        "timeouts": OBSERVABILITY,
        "_conns": INFRASTRUCTURE,
    },
    "LiveClock": {"_epoch": INFRASTRUCTURE},
    "_BridgeNetwork": {
        "transport": INFRASTRUCTURE,
        "processes": INFRASTRUCTURE,
        "stats": OBSERVABILITY,
    },
    "NetEnvironment": {
        "seed": INFRASTRUCTURE,
        "transport": INFRASTRUCTURE,
        "network": INFRASTRUCTURE,
        "clock": INFRASTRUCTURE,
    },
    "LiveRegisterCluster": (
        "exempt: live-deployment orchestrator (hosts a ServerGroup and "
        "the client endpoints); like RegisterSystem it runs the experiment "
        "rather than being part of the modelled process memory"
    ),
    # The one server group both tiers host (the live cluster and every
    # fabric shard): lifecycle plumbing around ServerDaemons.
    "ServerGroup": {
        "config": INFRASTRUCTURE,
        "scheme": INFRASTRUCTURE,
        "seed": INFRASTRUCTURE,
        "_factories": INFRASTRUCTURE,
        "byzantine_ids": INFRASTRUCTURE,
        "family": INFRASTRUCTURE,
        "socket_dir": INFRASTRUCTURE,
        "proxy_policy": INFRASTRUCTURE,
        "wire": INFRASTRUCTURE,
        "flush_watermark": INFRASTRUCTURE,
        "clock": INFRASTRUCTURE,
        "name": INFRASTRUCTURE,
        # The hosted ServerDaemons (each wrapping a RegisterServer whose
        # surface is declared above) plus their fault proxies.
        "daemons": INFRASTRUCTURE,
        "proxies": INFRASTRUCTURE,
        "addresses": INFRASTRUCTURE,
        "departed": INFRASTRUCTURE,
        "_generations": INFRASTRUCTURE,
    },
    # --- sharded fabric (fabric/, cross-checked by WIRE003) ------------
    # Same stance as the hosting layer above: every shard hosts the
    # unmodified protocol classes inside ServerDaemon/ClientEndpoint, so
    # the corruption surface stays theirs. Fabric classes are routing and
    # lifecycle plumbing around those hosts; their state is infrastructure
    # (corrupting a hash ring or a pipe handle models an operator error /
    # crash, not the paper's transient memory fault).
    "HashRing": {
        "shard_ids": INFRASTRUCTURE,
        "vnodes": INFRASTRUCTURE,
        "_points": INFRASTRUCTURE,
        "_hashes": INFRASTRUCTURE,
    },
    "FabricTopology": {
        "specs": INFRASTRUCTURE,
        "vnodes": INFRASTRUCTURE,
        "addresses": INFRASTRUCTURE,
        "ring": INFRASTRUCTURE,
        "_by_id": INFRASTRUCTURE,
    },
    "InlineShardHost": {
        "spec": INFRASTRUCTURE,
        "group": INFRASTRUCTURE,
    },
    "ProcessShardHost": {
        "spec": INFRASTRUCTURE,
        "process": INFRASTRUCTURE,
        "_conn": INFRASTRUCTURE,
        "_lock": INFRASTRUCTURE,
    },
    "FabricSupervisor": (
        "exempt: fabric orchestrator (spawns shard hosts, relays control "
        "verbs); like LiveRegisterCluster it runs the deployment rather "
        "than being part of the modelled process memory"
    ),
    "FabricClient": {
        "topology": INFRASTRUCTURE,
        "clients_per_shard": INFRASTRUCTURE,
        "seed": INFRASTRUCTURE,
        "op_timeout": INFRASTRUCTURE,
        "clock": INFRASTRUCTURE,
        "histories": OBSERVABILITY,
        "schemes": INFRASTRUCTURE,
        # The per-shard ClientEndpoints (surface declared above).
        "endpoints": INFRASTRUCTURE,
        "started": INFRASTRUCTURE,
    },
    "FabricKV": (
        "exempt: synchronous facade over FabricSupervisor + FabricClient "
        "for the KV store's shard_factory seam; orchestrator, not modelled "
        "process memory"
    ),
    "_LiveShardBackend": {
        "fabric": INFRASTRUCTURE,
        "key": INFRASTRUCTURE,
        "shard_id": INFRASTRUCTURE,
        "clients": INFRASTRUCTURE,
        "_endpoints": INFRASTRUCTURE,
    },
}


def state_kinds(cls: type) -> dict[str, str]:
    """Merged attribute->kind declarations over ``cls``'s MRO."""
    merged: dict[str, str] = {}
    for base in reversed(cls.__mro__):
        entry = CORRUPTION_REGISTRY.get(base.__name__)
        if isinstance(entry, dict):
            merged.update(entry)
    return merged


def corruption_surface(cls: type) -> frozenset[str]:
    """Attributes of ``cls`` the fault injector is declared to reach."""
    return frozenset(
        attr for attr, kind in state_kinds(cls).items() if kind == CORRUPTIBLE
    )


def garbage_forger(env: Envelope, rng: random.Random) -> Any:
    """Default forger: replace the payload with unparseable garbage."""
    return Garbage(noise=rng.getrandbits(32))


def field_scrambler(env: Envelope, rng: random.Random) -> Any:
    """Type-respecting forger: corrupt one field of a protocol message.

    Keeps the message *parseable* (same dataclass, one field replaced with
    junk of a random shape), which exercises receivers' per-field
    validation rather than their top-level type dispatch. Falls back to
    :func:`garbage_forger` for non-dataclass payloads or frozen rejects.
    """
    import dataclasses

    from repro.sim.messages import is_message_dataclass, payload_fields

    payload = env.payload if env is not None else None
    if not is_message_dataclass(payload):
        return garbage_forger(env, rng)
    fields = payload_fields(payload)
    if not fields:
        return garbage_forger(env, rng)
    victim = rng.choice(sorted(fields))
    junk_pool: list[Any] = [
        None,
        rng.getrandbits(16),
        -rng.getrandbits(8),
        f"junk-{rng.getrandbits(12):03x}",
        (),
        True,
    ]
    fields[victim] = rng.choice(junk_pool)
    try:
        return dataclasses.replace(payload, **{victim: fields[victim]})
    except (TypeError, ValueError):  # pragma: no cover - exotic payloads
        return garbage_forger(env, rng)


def scramble_processes(
    processes: Iterable[Process], rng: random.Random
) -> list[str]:
    """Corrupt the volatile state of every given process.

    Returns the pids touched (for experiment logs).
    """
    touched = []
    for proc in processes:
        proc.corrupt_state(rng)
        touched.append(proc.pid)
    return touched


class ChannelCorruptor:
    """Corrupts channel contents.

    Args:
        network: the network whose in-flight messages are attacked.
        rng: randomness source (derive from the environment for
            reproducibility).
        forger: produces well-typed-but-wrong payloads; defaults to
            :func:`garbage_forger`.
    """

    def __init__(
        self,
        network: Network,
        rng: random.Random,
        forger: Optional[Forger] = None,
    ) -> None:
        self.network = network
        self.rng = rng
        self.forger = forger or garbage_forger

    def corrupt_in_flight(self, fraction: float = 1.0) -> int:
        """Replace the payload of a random ``fraction`` of in-flight messages.

        Returns the number of messages corrupted. Mutation happens on the
        shared envelope, so scheduled deliveries observe the forged payload.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        count = 0
        for env in self.network.in_flight_envelopes():
            if self.rng.random() < fraction:
                env.payload = self.forger(env, self.rng)
                self.network.stats.corrupted += 1
                count += 1
        return count

    def inject_stale(
        self,
        src: str,
        dst: str,
        payload_factory: Callable[[random.Random], Any],
        count: int = 1,
        max_delay: float = 1.0,
    ) -> None:
        """Plant ``count`` spurious messages on the (src, dst) channel.

        Models stale messages present in channels at start-up, one of the
        corruptions the stabilization proof must survive.
        """
        for _ in range(count):
            self.network.inject(
                src, dst, payload_factory(self.rng), delay=self.rng.uniform(0.0, max_delay)
            )


@dataclass
class FaultAction:
    """One scheduled fault: fires ``apply(env)`` at simulation ``time``."""

    time: float
    apply: Callable[[SimEnvironment], None]
    label: str = ""


@dataclass
class FaultSchedule:
    """A declarative fault timeline.

    Example::

        schedule = FaultSchedule()
        schedule.at(0.0, lambda env: scramble_processes(servers, rng),
                    label="initial corruption")
        schedule.at(42.0, lambda env: clients[0].crash(), label="crash c0")
        schedule.arm(env)
    """

    actions: list[FaultAction] = field(default_factory=list)

    def at(
        self,
        time: float,
        apply: Callable[[SimEnvironment], None],
        label: str = "",
    ) -> "FaultSchedule":
        self.actions.append(FaultAction(time=time, apply=apply, label=label))
        return self

    def arm(self, env: SimEnvironment) -> None:
        """Schedule every action on the environment's scheduler."""
        for action in self.actions:
            env.scheduler.call_at(
                action.time,
                lambda a=action: a.apply(env),
                tag=f"fault:{action.label}",
            )


def crash_at(env: SimEnvironment, process: Process, time: float) -> None:
    """Convenience: schedule a crash-stop of ``process`` at ``time``."""
    env.scheduler.call_at(time, process.crash, tag=f"crash:{process.pid}")


def random_subset(
    items: Sequence[Any], rng: random.Random, fraction: float
) -> list[Any]:
    """Sample each item independently with probability ``fraction``.

    Used by corruption-severity sweeps (experiment E6).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    return [x for x in items if rng.random() < fraction]
