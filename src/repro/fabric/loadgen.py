"""Fabric load: skewed keyspaces, per-shard attribution, scale-out runs.

The open-loop generator extends PR 6's Poisson arrivals to many shards:
one seeded global arrival process draws (time, key, op-kind) triples,
the ring routes each arrival to its shard, and the arrival is assigned
round-robin to one of that shard's worker endpoints. The whole schedule
is precomputed before the run — fully deterministic given the seed —
and each worker then serves *its own* arrivals in order. Workers never
cross shards, so a stalled shard (partition nemesis) delays only its
own arrivals; healthy shards' queues are untouched. Every worker runs
on :func:`repro.net.loadgen.serve_and_record`, the live tier's worker,
so latency, warmup and drain are measured exactly as there.

Keyspace skew is the knob that makes placement interesting: ``uniform``
spreads arrivals evenly, ``zipf`` (probability ∝ 1/rank^s) concentrates
them on a head of hot keys — and therefore on whichever shards the ring
happens to own those keys.

The closed-loop mode keeps every worker back-to-back busy on its own
shard (keys drawn from the shard's slice of the keyspace), which
measures per-shard saturation capacity without rate tuning.

:func:`fabric_scaleout` boots a fresh fabric per shard count and emits
the ``repro-bench-fabric/1`` artifact: per-shard + aggregate throughput
and latency, each shard's sweep-checker verdict, and the host CPU count
in ``meta`` — on a 1-CPU container the curve documents the
multi-process overhead floor, not scale-up (PR 6 reporting precedent).
"""

from __future__ import annotations

import bisect
import os
import platform
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.fabric.client import FabricClient
from repro.fabric.supervisor import FabricSupervisor
from repro.net.group import stats_to_dict
from repro.net.loadgen import (
    LoadResult,
    Op,
    Worker,
    serve_and_record,
    verdict_to_dict,
)
from repro.net.wire import get_codec
from repro.sim.environment import derive_seed

__all__ = [
    "FABRIC_BENCH_FORMAT",
    "FabricLoadResult",
    "KeyPicker",
    "fabric_benchmark",
    "fabric_scaleout",
    "run_fabric_load",
]

FABRIC_BENCH_FORMAT = "repro-bench-fabric/1"


class KeyPicker:
    """Deterministic key sampling over ``k00000 .. k{keys-1:05d}``.

    ``uniform`` draws every key equally; ``zipf`` draws key rank ``r``
    (1-based, in id order) with probability proportional to
    ``1 / r**zipf_s`` via one precomputed CDF and a bisect — no numpy,
    no unseeded randomness, identical draws for a given rng stream.
    """

    def __init__(
        self, keys: int = 256, skew: str = "uniform", zipf_s: float = 1.1
    ) -> None:
        if keys < 1:
            raise ConfigurationError(f"need at least one key: {keys}")
        if skew not in ("uniform", "zipf"):
            raise ConfigurationError(f"unknown skew {skew!r}")
        if skew == "zipf" and zipf_s <= 0:
            raise ConfigurationError(f"zipf_s must be positive: {zipf_s}")
        self.keys = keys
        self.skew = skew
        self.zipf_s = zipf_s
        self._cdf: Optional[list[float]] = None
        if skew == "zipf":
            weights = [1.0 / (rank**zipf_s) for rank in range(1, keys + 1)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0  # float drift guard: the last bucket closes the CDF
            self._cdf = cdf

    @staticmethod
    def key_name(index: int) -> str:
        return f"k{index:05d}"

    def all_keys(self) -> list[str]:
        return [self.key_name(i) for i in range(self.keys)]

    def pick(self, rng: random.Random) -> str:
        if self._cdf is None:
            return self.key_name(rng.randrange(self.keys))
        idx = bisect.bisect_left(self._cdf, rng.random())
        return self.key_name(min(idx, self.keys - 1))


@dataclass
class FabricLoadResult:
    """Per-shard :class:`LoadResult` s plus the merged aggregate."""

    duration: float
    mode: str = "open"
    offered_rate: Optional[float] = None
    keys: int = 0
    skew: str = "uniform"
    shards: dict[str, LoadResult] = field(default_factory=dict)

    @property
    def aggregate(self) -> LoadResult:
        merged = LoadResult(
            duration=self.duration, mode=self.mode, offered_rate=self.offered_rate
        )
        for result in self.shards.values():
            merged.reads += result.reads
            merged.writes += result.writes
            merged.aborts += result.aborts
            merged.timeouts += result.timeouts
            merged.read_latency.merge(result.read_latency)
            merged.write_latency.merge(result.write_latency)
        return merged

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "keys": self.keys,
            "skew": self.skew,
            "shards": {
                shard_id: result.to_dict()
                for shard_id, result in sorted(self.shards.items())
            },
            "aggregate": self.aggregate.to_dict(),
        }


async def run_fabric_load(
    client: FabricClient,
    mode: str = "open",
    rate: Optional[float] = None,
    duration: float = 5.0,
    warmup: float = 1.0,
    read_fraction: float = 0.5,
    keys: int = 256,
    skew: str = "uniform",
    zipf_s: float = 1.1,
    seed: int = 0,
) -> FabricLoadResult:
    """Drive the whole fabric; returns per-shard attributed results.

    Open mode: ``rate`` is the *aggregate* offered ops/s; the seeded
    arrival schedule (time, key, kind, worker) is precomputed up front
    and served per (shard, worker) — see module docstring for why that
    shape bounds the blast radius. Closed mode ignores ``rate`` and
    keeps every worker busy on its own shard's keys.
    """
    picker = KeyPicker(keys=keys, skew=skew, zipf_s=zipf_s)
    clock = client.clock
    start = clock.now()
    warm_until = start + warmup
    deadline = warm_until + duration
    results = {
        shard_id: LoadResult(
            duration=duration,
            mode=mode,
            offered_rate=rate if mode == "open" else None,
        )
        for shard_id in client.topology.shard_ids
    }
    workers: list[Worker] = []
    if mode == "open":
        if rate is None or rate <= 0:
            raise ConfigurationError(f"open-loop rate must be positive: {rate}")
        rng = random.Random(derive_seed(seed, "fabric:openloop"))
        plans: dict[tuple[str, int], list[Op]] = {}
        next_worker = {shard_id: 0 for shard_id in client.topology.shard_ids}
        when = start
        while True:
            when += rng.expovariate(rate)
            if when >= deadline:
                break
            key = picker.pick(rng)
            shard_id = client.place(key)
            is_read = rng.random() < read_fraction
            worker = next_worker[shard_id]
            next_worker[shard_id] = (worker + 1) % client.clients_per_shard
            plans.setdefault((shard_id, worker), []).append(
                (when, is_read, f"{key}={shard_id}.c{worker}")
            )
        workers = [
            (client.endpoint(shard_id, worker), items, results[shard_id])
            for (shard_id, worker), items in sorted(plans.items())
        ]
    elif mode == "closed":
        keys_by_shard: dict[str, list[str]] = {
            shard_id: [] for shard_id in client.topology.shard_ids
        }
        for key in picker.all_keys():
            keys_by_shard[client.place(key)].append(key)

        def closed_ops(shard_id: str, worker: int) -> Iterator[Op]:
            owned = keys_by_shard[shard_id]
            if not owned:
                return  # the ring gave this shard no keys at this keyspace
            rng_w = random.Random(
                derive_seed(seed, f"fabric:closed:{shard_id}.c{worker}")
            )
            while clock.now() < deadline:
                key = owned[rng_w.randrange(len(owned))]
                is_read = rng_w.random() < read_fraction
                yield None, is_read, f"{key}={shard_id}.c{worker}"

        workers = [
            (
                client.endpoint(shard_id, worker),
                closed_ops(shard_id, worker),
                results[shard_id],
            )
            for shard_id in client.topology.shard_ids
            for worker in range(client.clients_per_shard)
        ]
    else:
        raise ConfigurationError(f"unknown load mode {mode!r}")

    measured = await serve_and_record(clock, workers, warm_until, duration)
    for result in results.values():
        result.duration = measured  # drain honesty, as in net.loadgen
    return FabricLoadResult(
        duration=measured,
        mode=mode,
        offered_rate=rate if mode == "open" else None,
        keys=keys,
        skew=skew,
        shards=results,
    )


async def fabric_benchmark(
    supervisor: FabricSupervisor, client: FabricClient, **load_args: Any
) -> dict[str, Any]:
    """One started fabric -> one scale-out *point* (see the artifact).

    ``load_args`` are :func:`run_fabric_load`'s keywords. The fabric must
    already be started and the client connected; the caller tears both
    down. Every shard's history is judged by the sweep checker;
    ``all_clean`` ands the verdicts.
    """
    load = await run_fabric_load(client, **load_args)
    server_stats = await supervisor.stats()
    per_shard: dict[str, Any] = {}
    all_clean = True
    for shard_id in client.topology.shard_ids:
        verdict = client.check_shard(shard_id, algorithm="sweep")
        all_clean = all_clean and bool(verdict.ok)
        entry = load.shards[shard_id].to_dict()
        entry["verdict"] = verdict_to_dict(verdict)
        entry["history_ops"] = len(list(client.histories[shard_id]))
        entry["messages"] = server_stats.get(shard_id, {})
        entry["client_timeouts"] = client.shard_timeouts(shard_id)
        per_shard[shard_id] = entry
    return {
        "shards": len(client.topology.shard_ids),
        "mode": load.mode,
        "offered_ops_per_s": load.offered_rate,
        "aggregate": load.aggregate.to_dict(),
        "per_shard": per_shard,
        "all_clean": all_clean,
        "client_messages": stats_to_dict(client.stats()),
        "client_timeouts": client.timeouts,
        "topology": client.topology.to_dict(),
    }


async def fabric_scaleout(
    shard_counts: Sequence[int],
    n: int = 6,
    f: int = 1,
    seed: int = 0,
    byzantine: Optional[str] = None,
    proxied: bool = False,
    wire: int = 2,
    mode: str = "process",
    clients_per_shard: int = 2,
    op_timeout: float = 30.0,
    load_mode: str = "open",
    rate_per_shard: float = 150.0,
    duration: float = 5.0,
    warmup: float = 1.0,
    read_fraction: float = 0.5,
    keys: int = 256,
    skew: str = "uniform",
    zipf_s: float = 1.1,
) -> dict[str, Any]:
    """Fresh fabric per shard count -> the ``repro-bench-fabric/1`` dict.

    Open-loop points offer ``rate_per_shard * k`` aggregate so the
    per-shard offered load is constant along the curve; closed-loop
    points measure capacity directly. Measured numbers are reported
    as-is, with the container CPU count in ``meta``.
    """
    points = []
    for count in shard_counts:
        supervisor = FabricSupervisor(
            shards=count,
            n=n,
            f=f,
            seed=seed,
            byzantine=byzantine,
            proxied=proxied,
            wire=wire,
            mode=mode,
        )
        async with supervisor as booted:
            client = FabricClient(
                booted.topology,
                clients_per_shard=clients_per_shard,
                seed=seed,
                op_timeout=op_timeout,
            )
            async with client:
                point = await fabric_benchmark(
                    supervisor,
                    client,
                    mode=load_mode,
                    rate=rate_per_shard * count if load_mode == "open" else None,
                    duration=duration,
                    warmup=warmup,
                    read_fraction=read_fraction,
                    keys=keys,
                    skew=skew,
                    zipf_s=zipf_s,
                    seed=seed,
                )
        points.append(point)
    return {
        "format": FABRIC_BENCH_FORMAT,
        "meta": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "mode": mode,
            "wire": get_codec(wire).format,
        },
        "config": {
            "n": n,
            "f": f,
            "seed": seed,
            "byzantine": byzantine,
            "proxied": proxied,
            "clients_per_shard": clients_per_shard,
            "load_mode": load_mode,
            "rate_per_shard": rate_per_shard if load_mode == "open" else None,
            "duration_s": duration,
            "warmup_s": warmup,
            "read_fraction": read_fraction,
            "keys": keys,
            "skew": skew,
            "zipf_s": zipf_s,
        },
        "points": points,
    }
