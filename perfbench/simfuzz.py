"""The deterministic workload: ``sim_fuzz``, a serial fuzz campaign.

:func:`repro.harness.fuzz.fuzz` at n=6, f=1 with the workload seed as
master seed. Every trial draws a Byzantine strategy, start-state
corruption, corruption strikes and client crash-restarts, runs in the
simulator and is judged. A run executes a fixed number of trials
(``NOMINAL_TRIALS_PER_S × --seconds``); at a fixed seed the campaign's
event, message and checked-read counts repeat exactly.

Operation latencies here are wall-clock times the simulator takes from a
simulated operation's invocation to its response (stamped by wrapping
the history recorder). Concurrent simulated operations interleave, so
this is how long a read or write of the simulated register keeps a
caller of the simulator waiting.

The campaign pauses between its :data:`BLOCKS` blocks of trials; in each
pause the judgements of the first :data:`JUDGE_TRIALS` trials are repeated
(:data:`VERDICT_REPEATS` passes) with the clocks of the window stopped, and
the judge's cost per judged operation is reported as the median over the
pauses, so it is sampled across the whole run as the load is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Optional

from common import READ_TYPES, WRITE_TYPES, Blocks
from tracing import Patcher

NOMINAL_TRIALS_PER_S = 60
N, F = 6, 1
SETUPS = 3
WARMUP_TRIALS = 4
#: Trials whose judgements are repeated for ``verdict_us_per_op`` (bounded, so the
#: judge inputs the benchmark keeps do not inflate ``peak_rss_mb``).
JUDGE_TRIALS = 100
VERDICT_REPEATS = 3  # passes per pause between blocks
BLOCKS = 10


@dataclass
class FuzzRun:
    setup_s: list[float] = field(default_factory=list)
    trials: int = 0
    witnesses: list[str] = field(default_factory=list)  # measured campaign
    warmup_witnesses: list[str] = field(default_factory=list)
    checked_reads: int = 0
    blocks: Blocks = field(default_factory=Blocks)
    attempted_ops: int = 0
    wall_ns: int = 0
    cpu_s: float = 0.0
    #: judge µs per judged operation, one median per pause between blocks
    verdict_us_per_op: list[float] = field(default_factory=list)
    verdict_repeats: int = 0
    judged_ops: int = 0  # operations in the histories the pauses re-judge
    pause_ns: int = 0  # wall time of the pauses, left out of ``wall_ns``
    pause_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    events: int = 0
    msgs: int = 0
    read_msgs: int = 0
    write_msgs: int = 0
    history_bytes: int = 0
    history_ops: int = 0
    trace: Optional[Any] = None

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9


class _Capture:
    """Stamps simulated operations and keeps each trial's judge inputs.

    Wraps ``HistoryRecorder.invoked/responded`` (wall-clock latency per
    simulated operation), ``RegisterSystem.__init__`` (harvests the
    previous trial's event and message counts as the next trial builds)
    and the two judge entry points the fuzzer calls, so the first
    :data:`JUDGE_TRIALS` judgements can be repeated in the pauses between
    blocks. ``keep_histories`` (traced runs only) retains each trial's
    history for sizing, and the pauses then judge nothing, so no judge
    span lands in the ledger.
    """

    def __init__(self, run: FuzzRun, keep_histories: bool, block_trials: int) -> None:
        self.run = run
        self.block_trials = block_trials
        self.built = 0
        self.keep = keep_histories
        self.judged: list[Callable[[], Any]] = []
        self.histories: list[Any] = []
        self.system: Any = None
        self._started: dict[int, float] = {}
        self._patches = Patcher()

    def __enter__(self) -> "_Capture":
        from repro.core.register import RegisterSystem
        from repro.harness import fuzz as fuzz_mod
        from repro.spec.history import HistoryRecorder, OpStatus

        run, started, capture = self.run, self._started, self

        def invoked(original):
            def wrapper(self, client, kind, argument=None):
                op = original(self, client, kind, argument)
                started[id(op)] = time.perf_counter()
                run.attempted_ops += 1
                return op

            return wrapper

        def responded(original):
            def wrapper(self, op, status=OpStatus.OK, result=None, timestamp=None):
                original(self, op, status, result, timestamp)
                begun = started.pop(id(op), None)
                if begun is not None and status is OpStatus.OK:
                    elapsed = time.perf_counter() - begun
                    run.blocks.samples.append((op.is_read, elapsed))

            return wrapper

        def build(original):
            def wrapper(self, *args, **kwargs):
                capture.harvest()
                if capture.built and capture.built % capture.block_trials == 0:
                    capture.pause()
                capture.built += 1
                original(self, *args, **kwargs)
                capture.system = self

            return wrapper

        def stabilization(original):
            def wrapper(history, checker, *args, **kwargs):
                if len(capture.judged) < JUDGE_TRIALS:
                    capture.judged.append(
                        lambda: original(history, checker, *args, **kwargs)
                    )
                    run.judged_ops += len(history)
                return original(history, checker, *args, **kwargs)

            return wrapper

        def regularity(original):
            def wrapper(self, **overrides):
                if len(capture.judged) < JUDGE_TRIALS:
                    checker, history = self.checker(**overrides), self.history
                    capture.judged.append(lambda: checker.check(history))
                    run.judged_ops += len(history)
                return original(self, **overrides)

            return wrapper

        self._patches.patch_with(HistoryRecorder, "invoked", invoked)
        self._patches.patch_with(HistoryRecorder, "responded", responded)
        self._patches.patch_with(RegisterSystem, "__init__", build)
        self._patches.patch_with(RegisterSystem, "check_regularity", regularity)
        self._patches.patch_with(fuzz_mod, "evaluate_stabilization", stabilization)
        return self

    def harvest(self) -> None:
        """Fold the finished trial's counts into the run."""
        system, self.system = self.system, None
        if system is None:
            return
        run = self.run
        stats = system.env.network.stats
        run.events += system.env.scheduler.executed
        run.msgs += stats.total_sent
        run.read_msgs += sum(stats.sent_by_type[t] for t in READ_TYPES)
        run.write_msgs += sum(stats.sent_by_type[t] for t in WRITE_TYPES)
        if self.keep:
            self.histories.append(system.history)
        self._started.clear()  # crashed operations never respond

    def pause(self) -> None:
        """Close the block; re-judge the kept trials with the clocks stopped."""
        run = self.run
        run.blocks.mark()
        if self.keep or not self.judged:
            return
        wall0, cpu0 = time.perf_counter_ns(), time.process_time()
        passes = []
        for _ in range(VERDICT_REPEATS):
            start = time.perf_counter()
            for judge in self.judged:
                judge()
            passes.append(time.perf_counter() - start)
        run.verdict_us_per_op.append(median(passes) / run.judged_ops * 1e6)
        run.verdict_repeats += VERDICT_REPEATS
        run.pause_ns += time.perf_counter_ns() - wall0
        run.pause_cpu_s += time.process_time() - cpu0
        run.blocks.mark()

    def __exit__(self, *exc: Any) -> None:
        self.harvest()
        self._patches.uninstall()


def measure(
    seed: int, trials: int, tracer: Optional[Any] = None, setups: int = SETUPS
) -> FuzzRun:
    """Run the campaign; with ``tracer``, snapshot its spans over the campaign."""
    import gc

    from common import peak_rss_mb
    from repro.harness.fuzz import fuzz

    run = FuzzRun()
    for i in range(setups):
        # Set-up: a short warm-up campaign on its own seed (first-use
        # caches, code paths), repeated so its median is stable.
        start = time.perf_counter()
        warm = fuzz(trials=WARMUP_TRIALS, n=N, f=F, master_seed=seed + 10_000 + i)
        run.setup_s.append(time.perf_counter() - start)
        run.warmup_witnesses += [f"{w.kind}: {w.detail}" for w in warm.witnesses]

    block_trials = max(1, trials // BLOCKS)
    with _Capture(run, tracer is not None, block_trials) as capture:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        cpu0 = time.process_time()
        wall0 = time.perf_counter_ns()
        run.blocks.mark()
        report = fuzz(trials=trials, n=N, f=F, master_seed=seed)
        capture.harvest()
        if trials % block_trials == 0:
            capture.pause()
        run.wall_ns = time.perf_counter_ns() - wall0 - run.pause_ns
        run.cpu_s = time.process_time() - cpu0 - run.pause_cpu_s
        if tracer is not None:
            run.trace = tracer.snapshot()
    run.trials = report.trials
    run.checked_reads = report.reads_checked
    run.witnesses += [f"{w.kind}: {w.detail}" for w in report.witnesses]
    if capture.histories:
        from tracing import deep_size

        run.history_bytes = sum(deep_size(h) for h in capture.histories)
        run.history_ops = sum(len(h) for h in capture.histories)
    run.peak_rss_mb = peak_rss_mb()
    return run


def end_to_end(run: FuzzRun, import_s: float) -> dict[str, float]:
    return {
        "setup_s": import_s + median(run.setup_s),
        **run.blocks.medians(),
        "verdict_us_per_op": median(run.verdict_us_per_op),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_share": (run.trials - len(run.witnesses)) / run.trials,
    }
