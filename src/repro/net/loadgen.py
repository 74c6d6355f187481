"""Load generation against a live register cluster: closed- and open-loop.

Two generator shapes, one result type:

* :func:`run_load` — **closed loop**: one worker coroutine per client
  endpoint, each issuing one operation at a time (the protocol's clients
  are sequential). Offered load adapts to service rate, so the measured
  throughput *is* the saturation throughput, but the latency it reports
  hides queueing — a closed loop can never observe an overloaded system.
* :func:`run_open_load` — **open loop**: operations *arrive* on a seeded
  Poisson schedule at a configured aggregate rate, independent of
  completions. Each client owns an independent Poisson stream (their
  superposition is again Poisson at the aggregate rate) and latency is
  measured from the *scheduled arrival*, so queueing delay — the thing
  that explodes past saturation — is part of every sample. Sweeping the
  offered rate (:func:`saturation_sweep`) traces the throughput–latency
  hockey stick and locates the knee.

Both shapes (and the fabric's, :mod:`repro.fabric.loadgen`) are op
generators run by one worker loop, :func:`serve_and_record`. Latencies
stream into per-kind :class:`~repro.harness.metrics.LogHistogram`
buckets — O(1) memory, exact counts, bounded relative error — never a
sample list. An operation that began (closed) or was scheduled (open)
during the warmup window is left out entirely: its latency sample and
its read/write/abort/timeout count.

Runs execute inside :func:`measurement_harness`: the cyclic GC is
collected once, survivors are frozen into the permanent generation and
thresholds are raised, so collector pauses do not punch holes into the
measured window. This changes *when* memory is reclaimed, never what the
protocol does.

Shutdown is graceful by construction: deadlines gate the *start* of an
operation (closed) or the *arrival schedule* (open), so workers never
abandon an in-flight op — the loop drains itself. The history the cluster
captured therefore ends with complete (or crash-marked) operations and is
ready for the regularity checker; :func:`benchmark` bundles load, verdict,
message accounting and an optional saturation sweep into the
``repro-bench-live/2`` artifact shape.
"""

from __future__ import annotations

import asyncio
import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.client import ABORT
from repro.harness.metrics import LogHistogram
from repro.net.cluster import LiveRegisterCluster
from repro.net.bridge import LiveClock
from repro.net.daemon import TIMED_OUT, ClientEndpoint
from repro.net.group import stats_to_dict
from repro.sim.environment import derive_seed
from repro.spec.regularity import RegularityVerdict

__all__ = [
    "LoadResult",
    "measurement_harness",
    "run_load",
    "run_open_load",
    "saturation_sweep",
    "serve_and_record",
    "verdict_to_dict",
    "benchmark",
]


@contextmanager
def measurement_harness(enabled: bool = True) -> Iterator[None]:
    """GC discipline for a measured window (reversible, protocol-neutral).

    Collect once up front, freeze the survivors (cluster wiring, codec
    caches, protocol state — none of it is garbage) into the permanent
    generation, and raise the gen-0 threshold so steady-state allocation
    churn does not trigger collector pauses mid-measurement. Restored on
    exit, including one closing collection to give back the float.
    """
    if not enabled:
        yield
        return
    prev = gc.get_threshold()
    gc.collect()
    gc.freeze()
    gc.set_threshold(200_000, 100, 100)
    try:
        yield
    finally:
        gc.set_threshold(*prev)
        gc.unfreeze()
        gc.collect()


@dataclass
class LoadResult:
    """What a load run did and how fast the register answered."""

    duration: float  # measured window (post-warmup), seconds
    mode: str = "closed"  # "closed" | "open"
    offered_rate: Optional[float] = None  # open loop: arrivals/s scheduled
    reads: int = 0
    writes: int = 0
    aborts: int = 0
    timeouts: int = 0
    read_latency: LogHistogram = field(default_factory=LogHistogram)
    write_latency: LogHistogram = field(default_factory=LogHistogram)

    @property
    def completed(self) -> int:
        return self.reads + self.writes

    @property
    def throughput(self) -> float:
        """Completed operations per second over the measured window."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "mode": self.mode,
            "duration_s": self.duration,
            "reads": self.reads,
            "writes": self.writes,
            "aborts": self.aborts,
            "timeouts": self.timeouts,
            "ops_per_s": self.throughput,
            "read_latency_s": self.read_latency.summary(),
            "write_latency_s": self.write_latency.summary(),
        }
        if self.offered_rate is not None:
            out["offered_ops_per_s"] = self.offered_rate
        return out


#: One operation of a load worker: ``(arrival, is_read, tag)``.
#: ``arrival`` is the scheduled instant (open loop) or ``None`` for "as
#: soon as the previous op completes" (closed loop); a write stores
#: ``"{tag}#{n}"``, ``n`` counting the worker's writes from 1.
Op = tuple[Optional[float], bool, str]


#: One load worker: the endpoint it drives, its ops, where samples go.
Worker = tuple[ClientEndpoint, Iterable[Op], LoadResult]


async def serve_and_record(
    clock: LiveClock,
    workers: Sequence[Worker],
    warm_until: float,
    duration: float,
) -> float:
    """Run every worker to completion; returns the measured window.

    A worker issues its ops one at a time. An op with an arrival waits
    for it and is timed from it, queueing delay included; one without is
    timed from its start. Samples that began before ``warm_until`` are
    dropped (warmup: setup effects, not steady state). Ops are drawn
    lazily, so a generator can check its deadline after each completion.
    """

    async def serve(
        endpoint: ClientEndpoint, ops: Iterable[Op], result: LoadResult
    ) -> None:
        written = 0
        for arrival, is_read, tag in ops:
            if arrival is None:
                begin = clock.now()
            else:
                begin = arrival
                now = clock.now()
                if arrival > now:
                    await asyncio.sleep(arrival - now)
            if is_read:
                value = await endpoint.read()
            else:
                written += 1
                value = await endpoint.write(f"{tag}#{written}")
            if begin >= warm_until:
                _record(result, is_read, value, clock.now() - begin)

    with measurement_harness():
        await asyncio.gather(*(serve(*worker) for worker in workers))
    # The window closes when the last in-flight operation drains, not at
    # the nominal deadline: throughput honesty over round numbers.
    return max(clock.now() - warm_until, duration)


def verdict_to_dict(verdict: RegularityVerdict) -> dict[str, Any]:
    """The artifact form of a sweep verdict."""
    return {
        "clean": bool(verdict.ok),
        "violations": len(verdict.violations),
        "checked_reads": verdict.checked_reads,
        "aborted_reads": verdict.aborted_reads,
    }


def _record(result: LoadResult, is_read: bool, value: Any, elapsed: float) -> None:
    if value is TIMED_OUT:
        result.timeouts += 1
    elif is_read and value is ABORT:
        result.aborts += 1
    elif is_read:
        result.reads += 1
        result.read_latency.add(elapsed)
    else:
        result.writes += 1
        result.write_latency.add(elapsed)


async def run_load(
    cluster: LiveRegisterCluster,
    duration: float = 5.0,
    warmup: float = 1.0,
    read_fraction: float = 0.5,
    seed: int = 0,
) -> LoadResult:
    """Closed loop: drive every endpoint of ``cluster`` back-to-back.

    ``warmup`` seconds of samples (and counts) at the front are excluded
    from the result; ``read_fraction`` sets the per-operation coin. The
    workload stream is seeded per client, so two runs against equal
    clusters issue the same operation sequences (completion *timing*
    remains the kernel's business — see docs/LIVE.md).
    """
    clock = cluster.clock
    start = clock.now()
    warm_until = start + warmup
    deadline = warm_until + duration
    result = LoadResult(duration=duration, mode="closed")

    def ops(cid: str) -> Iterator[Op]:
        rng = random.Random(derive_seed(seed, f"loadgen:{cid}"))
        while clock.now() < deadline:
            yield None, rng.random() < read_fraction, cid

    workers = [
        (endpoint, ops(cid), result) for cid, endpoint in cluster.endpoints.items()
    ]
    result.duration = await serve_and_record(clock, workers, warm_until, duration)
    return result


async def run_open_load(
    cluster: LiveRegisterCluster,
    rate: float,
    duration: float = 5.0,
    warmup: float = 1.0,
    read_fraction: float = 0.5,
    seed: int = 0,
) -> LoadResult:
    """Open loop: Poisson arrivals at ``rate`` ops/s aggregate, seeded.

    Each client draws an independent exponential-gap arrival schedule at
    ``rate / n_clients`` (their superposition is Poisson at ``rate``) and
    serves its own arrivals in order — the protocol's clients are
    sequential, so a client is a single-server queue and arrivals that
    find it busy wait. Latency is measured from the **scheduled arrival**,
    queueing included: below saturation it matches closed-loop service
    time, above saturation it grows without bound — which is exactly the
    signal a saturation sweep exists to expose.

    The arrival *schedule* is deterministic given ``(seed, rate, clients)``;
    which arrivals land in the measured window depends on wall-clock
    timing, as all live measurements do.
    """
    if rate <= 0:
        raise ValueError(f"open-loop rate must be positive: {rate}")
    clock = cluster.clock
    start = clock.now()
    warm_until = start + warmup
    deadline = warm_until + duration
    per_client = rate / len(cluster.endpoints)
    result = LoadResult(duration=duration, mode="open", offered_rate=rate)

    def ops(cid: str) -> Iterator[Op]:
        rng = random.Random(derive_seed(seed, f"openloop:{cid}"))
        arrival = start
        while True:
            arrival += rng.expovariate(per_client)
            if arrival >= deadline:
                return  # arrivals stop; in-flight work has drained
            yield arrival, rng.random() < read_fraction, cid

    workers = [
        (endpoint, ops(cid), result) for cid, endpoint in cluster.endpoints.items()
    ]
    result.duration = await serve_and_record(clock, workers, warm_until, duration)
    return result


async def saturation_sweep(
    make_cluster: Callable[[], LiveRegisterCluster],
    rates: Sequence[float],
    duration: float = 3.0,
    warmup: float = 0.5,
    read_fraction: float = 0.5,
    seed: int = 0,
) -> list[dict[str, Any]]:
    """Throughput–latency curve: one fresh cluster per offered rate.

    Fresh clusters keep the points independent — no residual backlog, a
    per-point history, a per-point regularity verdict. Returns one dict
    per rate (offered vs achieved ops/s, p50/p99 per kind, abort/timeout
    counts, ``clean``), in the order given.
    """
    points: list[dict[str, Any]] = []
    for rate in rates:
        cluster = make_cluster()
        async with cluster:
            load = await run_open_load(
                cluster,
                rate=rate,
                duration=duration,
                warmup=warmup,
                read_fraction=read_fraction,
                seed=seed,
            )
            verdict = cluster.check_regularity(algorithm="sweep")
        points.append(
            {
                "offered_ops_per_s": rate,
                "ops_per_s": load.throughput,
                "completed": load.completed,
                "aborts": load.aborts,
                "timeouts": load.timeouts,
                "read_p50_s": load.read_latency.quantile(0.50),
                "read_p99_s": load.read_latency.quantile(0.99),
                "write_p50_s": load.write_latency.quantile(0.50),
                "write_p99_s": load.write_latency.quantile(0.99),
                "clean": bool(verdict.ok),
            }
        )
    return points


async def benchmark(
    cluster: LiveRegisterCluster,
    duration: float = 5.0,
    warmup: float = 1.0,
    read_fraction: float = 0.5,
    seed: int = 0,
    mode: str = "closed",
    rate: Optional[float] = None,
    sweep: Optional[Awaitable[list[dict[str, Any]]]] = None,
) -> dict[str, Any]:
    """Run a load and assemble the ``repro-bench-live/2`` payload.

    The cluster must already be started; the caller stops it. ``mode``
    picks the headline generator ("closed", or "open" with ``rate``).
    ``sweep`` is an optional awaitable producing saturation-curve points
    (:func:`saturation_sweep` bound to a factory for *fresh* clusters —
    it must not reuse ``cluster``); awaited after the headline load so
    the sweep's traffic never pollutes the headline history. The verdict
    comes from the sweep-algorithm regularity checker over the complete
    captured history (including warmup operations — correctness has no
    warmup exclusion).
    """
    shape = dict(
        duration=duration, warmup=warmup, read_fraction=read_fraction, seed=seed
    )
    if mode == "closed":
        load = await run_load(cluster, **shape)
    elif mode == "open":
        if rate is None:
            raise ValueError("open-loop benchmark needs a rate")
        load = await run_open_load(cluster, rate=rate, **shape)
    else:
        raise ValueError(f"unknown load mode {mode!r}")
    verdict = cluster.check_regularity(algorithm="sweep")
    stats = cluster.stats()
    payload: dict[str, Any] = {
        "format": "repro-bench-live/2",
        "wire": cluster.wire_format,
        "config": {
            "n": cluster.config.n,
            "f": cluster.config.f,
            "clients": cluster.n_clients,
            "byzantine": sorted(cluster.group.byzantine_ids),
            "family": cluster.group.family,
            "proxied": cluster.group.proxy_policy is not None,
            "seed": cluster.seed,
            "read_fraction": read_fraction,
            "warmup_s": warmup,
            "mode": mode,
            "flush_watermark": cluster.flush_watermark,
        },
        "load": load.to_dict(),
        "verdict": verdict_to_dict(verdict),
        "messages": {**stats_to_dict(stats), "client_timeouts": cluster.timeouts},
        "history_ops": len(list(cluster.history)),
    }
    if sweep is not None:
        payload["sweep"] = await sweep
    return payload
