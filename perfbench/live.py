"""The two socket workloads: ``live_mixed`` and ``fabric_readheavy``.

Both drive the protocol's own client API in a closed loop — each session
issues its next operation only after the previous one returned, as the
protocol's sequential clients do — from operation lists generated up
front from the workload seed. A run executes a fixed number of
operations (``NOMINAL_OPS_PER_S × --seconds``), not a fixed time, so the
history the judge reads and the memory it retains do not drift with
machine speed.

* ``live_mixed``: one :class:`~repro.net.cluster.LiveRegisterCluster`
  (n=6, f=1, ``s5`` forging), 2 sessions, 50% reads, values of at most
  16 bytes. One process on one core, CPU-bound: the per-message path.
* ``fabric_readheavy``: a :class:`~repro.fabric.supervisor.FabricSupervisor`
  with 2 shards of the same shape, one session per shard through
  :class:`~repro.fabric.client.FabricClient`, 90% reads, 1 KiB values.
  The shards are hosted inline (``mode="inline"``): on a 2-CPU machine a
  client plus two shard processes contend for cores, and the scheduler's
  wake-up delays then dominated the latency tail and throughput (ops/s
  varied 2x between same-code runs), hiding any change to the code.

Set-up (boot, dial-in, warm-up) is repeated :data:`SETUPS` times and the
median is reported; the last deployment is the one measured.

The measured window runs as :data:`BLOCKS` blocks of operations with the
load stopped between them. In each pause the sweep checker judges the
history recorded so far (:data:`VERDICT_REPEATS` times); the judge's cost
per history operation is reported as the median over the pauses. Spread
over the whole window, these judgements ride out the slow phases of a
shared machine (they last tens of seconds) the way the load's block
medians do.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Awaitable, Callable, Optional

from common import (
    READ_TYPES,
    WRITE_TYPES,
    Blocks,
    GcQuiet,
    peak_rss_mb,
)
from tracing import Snapshot, Tracer

SETUPS = 3
WARMUP_OPS = 60  # per session, untimed, after every boot
BLOCKS = 10
VERDICT_REPEATS = 3  # per pause between blocks
NOMINAL_OPS_PER_S = {"live_mixed": 500, "fabric_readheavy": 600}
N, F = 6, 1
BYZANTINE = "forging"
FABRIC_VALUE_BYTES = 1024
FABRIC_KEYS = 64


@dataclass
class Op:
    is_read: bool
    key: str = ""
    value: Optional[str] = None


def plan_sessions(
    seed: int,
    names: list[str],
    ops: int,
    read_fraction: float,
    value_bytes: int,
    keys: Optional[dict[str, list[str]]] = None,
    tag: str = "",
) -> dict[str, list[Op]]:
    """Each session's operation list, a pure function of ``seed``.

    Written values are unique (``tag`` + session name + sequence number)
    so the regularity checker can tell every write apart; ``value_bytes``
    pads them with seeded hex to a fixed size.
    """
    plans: dict[str, list[Op]] = {}
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        pool = keys[name] if keys else [""]
        out = []
        for seq in range(ops):
            key = rng.choice(pool)
            if rng.random() < read_fraction:
                out.append(Op(True, key))
                continue
            value = f"{tag}{name}#{seq}"
            if value_bytes > len(value):
                pad = rng.randbytes(value_bytes // 2 + 1).hex()
                value = (value + "#" + pad)[:value_bytes]
            out.append(Op(False, key, value))
        plans[name] = out
    return plans


@dataclass
class Window:
    """What one window of closed-loop operations produced."""

    blocks: Blocks = field(default_factory=Blocks)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ops each session completed before the first session finished
    overlap_ops: dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


async def drive(
    sessions: dict[str, tuple[Callable[[Op], Awaitable[Any]], list[Op]]],
    window: Window,
) -> None:
    """Run every session's list concurrently, each in a closed loop.

    Adds to ``window.overlap_ops`` what each session completed before the
    first of them finished its list.
    """
    done = {name: 0 for name in sessions}
    first_finished = False
    blocks = window.blocks
    window.attempted += sum(len(ops) for _, ops in sessions.values())

    async def one(name: str, call: Callable[[Op], Awaitable[Any]], ops: list[Op]) -> None:
        for op in ops:
            start = time.perf_counter()
            result = await call(op)
            elapsed = time.perf_counter() - start
            if failure(op.is_read, result):
                window.failed += 1
                blocks.samples.append((op.is_read, None))
            else:
                blocks.samples.append((op.is_read, elapsed))
                done[name] += 1
        nonlocal first_finished
        if not first_finished:
            first_finished = True
            for session, count in done.items():
                window.overlap_ops[session] = window.overlap_ops.get(session, 0) + count

    await asyncio.gather(*(one(n, c, o) for n, (c, o) in sessions.items()))


def failure(is_read: bool, result: Any) -> bool:
    """A timed-out operation, or a read the protocol aborted."""
    from repro.core.client import ABORT
    from repro.net.daemon import TIMED_OUT

    return result is TIMED_OUT or (is_read and result is ABORT)


async def loop_lag_probe(samples: list[float], stop: asyncio.Event) -> None:
    """Overshoot of a 1 ms sleep, sampled for as long as a window runs."""
    while not stop.is_set():
        start = time.perf_counter()
        await asyncio.sleep(0.001)
        samples.append(time.perf_counter() - start - 0.001)


def msgs_by_kind(stats_list: list[Any]) -> tuple[int, int]:
    """(read-path, write-path) messages sent plus delivered at client hosts."""
    read = write = 0
    for stats in stats_list:
        for counter in (stats.sent_by_type, stats.delivered_by_type):
            read += sum(counter[t] for t in READ_TYPES)
            write += sum(counter[t] for t in WRITE_TYPES)
    return read, write


# ---------------------------------------------------------------------------
# deployments
# ---------------------------------------------------------------------------
class LiveDeployment:
    """``live_mixed``: one in-process cluster, two sessions."""

    name = "live_mixed"
    read_fraction = 0.5
    value_bytes = 0
    sessions = ("c0", "c1")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster: Any = None
        self.spawn_s = 0.0

    async def boot(self) -> None:
        from repro.byzantine.strategies import STRATEGY_ZOO
        from repro.core.config import SystemConfig
        from repro.net.cluster import LiveRegisterCluster

        self.cluster = LiveRegisterCluster(
            SystemConfig(n=N, f=F),
            n_clients=len(self.sessions),
            seed=self.seed,
            byzantine={f"s{N - 1}": STRATEGY_ZOO[BYZANTINE].factory()},
        )
        await self.cluster.start()

    def keys(self) -> Optional[dict[str, list[str]]]:
        return None

    def callers(self) -> dict[str, Callable[[Op], Awaitable[Any]]]:
        out = {}
        for cid in self.sessions:
            endpoint = self.cluster.endpoints[cid]

            async def call(op: Op, endpoint: Any = endpoint) -> Any:
                if op.is_read:
                    return await endpoint.read()
                return await endpoint.write(op.value)

            out[cid] = call
        return out

    def endpoints(self) -> list[Any]:
        return list(self.cluster.endpoints.values())

    def histories(self) -> list[Any]:
        return [self.cluster.history]

    def judge(self) -> list[Any]:
        return [self.cluster.check_regularity(algorithm="sweep")]

    async def stop(self) -> None:
        await self.cluster.stop()


class FabricDeployment:
    """``fabric_readheavy``: two inline shards, one session per shard."""

    name = "fabric_readheavy"
    read_fraction = 0.9
    value_bytes = FABRIC_VALUE_BYTES
    sessions = ("shard0", "shard1")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.supervisor: Any = None
        self.client: Any = None
        self.spawn_s = 0.0

    async def boot(self) -> None:
        from repro.fabric.client import FabricClient
        from repro.fabric.supervisor import FabricSupervisor

        self.supervisor = FabricSupervisor(
            shards=len(self.sessions),
            n=N,
            f=F,
            seed=self.seed,
            byzantine=BYZANTINE,
            mode="inline",
        )
        start = time.perf_counter()
        topology = await self.supervisor.start()
        self.spawn_s = time.perf_counter() - start
        self.client = FabricClient(topology, clients_per_shard=1, seed=self.seed)
        await self.client.connect()

    def keys(self) -> dict[str, list[str]]:
        pools: dict[str, list[str]] = {s: [] for s in self.sessions}
        for i in range(FABRIC_KEYS):
            key = f"key{i}"
            pools[self.client.place(key)].append(key)
        return pools

    def callers(self) -> dict[str, Callable[[Op], Awaitable[Any]]]:
        client = self.client

        async def call(op: Op) -> Any:
            if op.is_read:
                return await client.get(op.key)
            return await client.put(op.key, op.value)

        return {shard: call for shard in self.sessions}

    def endpoints(self) -> list[Any]:
        return list(self.client.endpoints.values())

    def histories(self) -> list[Any]:
        return list(self.client.histories.values())

    def judge(self) -> list[Any]:
        return list(self.client.check_all(algorithm="sweep").values())

    async def stop(self) -> None:
        await self.client.close()
        await self.supervisor.stop()


DEPLOYMENTS = {d.name: d for d in (LiveDeployment, FabricDeployment)}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
@dataclass
class SocketRun:
    setup_s: list[float] = field(default_factory=list)
    spawn_s: list[float] = field(default_factory=list)
    window: Window = field(default_factory=Window)
    #: judge µs per history operation, one median per pause between blocks
    verdict_us_per_op: list[float] = field(default_factory=list)
    verdict_repeats: int = 0
    verdict_notes: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    timeouts: int = 0
    msgs: tuple[int, int] = (0, 0)
    history_ops: int = 0
    history_bytes: int = 0
    lag: list[float] = field(default_factory=list)
    wall_ns: int = 0
    trace: Optional[Snapshot] = None


def gate(run: SocketRun, verdicts: list[Any]) -> None:
    """Record every verdict that is not clean (the correctness gate)."""
    run.verdict_notes += [v.summary() for v in verdicts if not v.ok]


async def _warm(dep: Any, seed: int) -> None:
    plans = plan_sessions(
        seed, list(dep.sessions), WARMUP_OPS, dep.read_fraction,
        dep.value_bytes, dep.keys(), tag="w",
    )
    calls = dep.callers()
    await drive({s: (calls[s], plans[s]) for s in dep.sessions}, Window())


async def measure(
    workload: str,
    seed: int,
    ops_total: int,
    tracer: Optional[Tracer] = None,
    setups: int = SETUPS,
) -> SocketRun:
    """Boot ``setups`` times, then measure one window on the last boot.

    With a ``tracer``, the tracer is reset as the window opens and
    snapshot as it closes, a loop-lag probe runs alongside, and the
    pauses between blocks judge nothing (only the final judgement runs,
    after the snapshot), so no judge span lands in the ledger. Every
    boot's history goes through the correctness gate.
    """
    cls = DEPLOYMENTS[workload]
    run = SocketRun()
    dep = None
    for i in range(setups):
        start = time.perf_counter()
        dep = cls(seed)
        await dep.boot()
        await _warm(dep, seed)
        run.setup_s.append(time.perf_counter() - start)
        run.spawn_s.append(dep.spawn_s)
        if i < setups - 1:
            gate(run, dep.judge())
            await dep.stop()
    assert dep is not None
    try:
        per_session = ops_total // len(dep.sessions)
        plans = plan_sessions(
            seed, list(dep.sessions), per_session, dep.read_fraction,
            dep.value_bytes, dep.keys(),
        )
        calls = dep.callers()
        sessions = {s: (calls[s], plans[s]) for s in dep.sessions}
        endpoints = dep.endpoints()
        before_msgs = msgs_by_kind([e.stats for e in endpoints])
        before_timeouts = sum(e.timeouts for e in endpoints)
        window = run.window
        stop_probe = asyncio.Event()
        probe = None
        per_block = -(-per_session // BLOCKS)
        verdicts: list[Any] = []
        with GcQuiet():
            if tracer is not None:
                probe = asyncio.ensure_future(loop_lag_probe(run.lag, stop_probe))
                tracer.reset()
            for k in range(0, per_session, per_block):
                cpu0 = time.process_time()
                wall0 = time.perf_counter_ns()
                window.blocks.mark()
                await drive(
                    {s: (call, ops[k:k + per_block]) for s, (call, ops) in sessions.items()},
                    window,
                )
                window.blocks.mark()
                run.wall_ns += time.perf_counter_ns() - wall0
                window.cpu_s += time.process_time() - cpu0
                if tracer is None:
                    verdicts = judge_pause(dep, run)
            if tracer is not None:
                run.trace = tracer.snapshot()
                stop_probe.set()
                await probe
        window.wall_s = run.wall_ns / 1e9
        after_msgs = msgs_by_kind([e.stats for e in endpoints])
        run.msgs = (after_msgs[0] - before_msgs[0], after_msgs[1] - before_msgs[1])
        run.timeouts = sum(e.timeouts for e in endpoints) - before_timeouts
        run.history_ops = sum(len(h) for h in dep.histories())
        gate(run, verdicts or dep.judge())
        if tracer is not None:
            from tracing import deep_size

            run.history_bytes = sum(deep_size(h) for h in dep.histories())
        run.peak_rss_mb = peak_rss_mb()
    finally:
        await dep.stop()
    return run


def judge_pause(dep: Any, run: SocketRun) -> list[Any]:
    """Judge the history so far :data:`VERDICT_REPEATS` times; the verdicts.

    Records the median judge time per history operation in the run.
    """
    ops = sum(len(h) for h in dep.histories())
    durations = []
    for _ in range(VERDICT_REPEATS):
        start = time.perf_counter()
        verdicts = dep.judge()
        durations.append(time.perf_counter() - start)
    run.verdict_us_per_op.append(median(durations) / ops * 1e6)
    run.verdict_repeats += VERDICT_REPEATS
    return verdicts


def end_to_end(run: SocketRun, import_s: float) -> dict[str, float]:
    w = run.window
    return {
        "setup_s": import_s + median(run.setup_s),
        **w.blocks.medians(),
        "verdict_us_per_op": median(run.verdict_us_per_op),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_share": w.completed / w.attempted,
    }
