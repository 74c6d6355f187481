"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_mixed --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs the workload twice — once plain, as the reference for
the tracing overhead, once with every layer boundary wrapped
(:mod:`tracing`) — and reports the per-layer metrics and the self-time
ledger instead. The last line of standard output is the result object;
the line before it carries the run's metadata (commit, CPU count, Python,
seed, sample counts, attempted/completed, calibration loop). A traced
run also writes its span table to ``.perfbench/``.

Every run passes a correctness gate: each history the run produced
(every live boot, every fabric shard) must be judged regular by the
sweep checker, and the fuzz campaign (warm-up included) must find no
witness. A run that fails the gate still prints its result, with
``"correct": false`` and the reasons in the metadata line's ``gate``.
Without the program's sources (``src/repro``) next to this directory
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from statistics import median
from typing import Any, Optional

from common import (
    ROOT,
    SRC,
    calibration_s,
    git_commit,
    interpreter_start_s,
    source_digest,
)
from tracing import LAYERS

WORKLOADS = ("live_mixed", "fabric_readheavy", "sim_fuzz")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "cpu_us_per_op": "us",
    "verdict_us_per_op": "us",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "net.wire.encode_us_per_op": "us",
    "net.wire.decode_us_per_op": "us",
    "net.wire.bytes_per_op": "B",
    "net.wire.escape_share": "ratio",
    "net.transport.recv_us_per_op": "us",
    "net.transport.flushes_per_op": "count",
    "net.transport.frames_per_flush": "count",
    "net.daemon.timeouts": "count",
    "net.runtime.loop_lag_p90_ms": "ms",
    "net.runtime.busy_share": "ratio",
    "core.server_us_per_op": "us",
    "core.client_us_per_op": "us",
    "core.msgs_per_read": "count",
    "core.msgs_per_write": "count",
    "labels.precedes_calls_per_op": "count",
    "labels.precedes_us_per_op": "us",
    "labels.next_label_us_per_write": "us",
    "wtsg.select_us_per_read": "us",
    "spec.record_us_per_op": "us",
    "spec.history_kb_per_op": "KiB",
    "spec.judge_us_per_op": "us",
    "spec.stabilization_ms_per_trial": "ms",
    "spec.checked_reads": "count",
    "sim.events_per_trial": "count",
    "sim.msgs_per_trial": "count",
    "sim.us_per_event": "us",
    "sim.build_ms_per_trial": "ms",
    "fabric.spawn_s": "s",
    "fabric.server_cpu_us_per_op": "us",
    "fabric.client_cpu_us_per_op": "us",
    "fabric.route_us_per_op": "us",
    "fabric.shard_op_share_max": "ratio",
    **{f"ledger.{layer}_us_per_op": "us" for layer in LAYERS},
    "ledger.unattributed_us_per_op": "us",
    "ledger.wall_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
    "trace.spans_per_op": "count",
}

#: The program modules each workload imports; their import is set-up time.
IMPORTS = {
    "live_mixed": ("repro.net.cluster", "repro.byzantine.strategies"),
    "fabric_readheavy": ("repro.fabric.supervisor", "repro.fabric.client"),
    "sim_fuzz": ("repro.harness.fuzz",),
}


# ---------------------------------------------------------------------------
# the socket workloads
# ---------------------------------------------------------------------------
def run_socket(workload: str, seed: int, seconds: int, trace: bool, import_s: float):
    """(run, metrics) of one socket workload run."""
    import live
    import tracing

    ops = live.NOMINAL_OPS_PER_S[workload] * seconds
    if not trace:
        run = asyncio.run(live.measure(workload, seed, ops))
        return run, live.end_to_end(run, import_s)
    ref = asyncio.run(live.measure(workload, seed, ops, setups=1))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run = asyncio.run(live.measure(workload, seed, ops, tracer=tracer, setups=1))
    finally:
        tracer.uninstall()
    return run, socket_layers(workload, run, ref)


def socket_layers(workload: str, run: Any, ref: Any) -> dict[str, float]:
    """Per-layer metrics of a traced socket run (``ref``: its plain twin)."""
    from common import percentile

    s = run.trace
    w, rw = run.window, ref.window
    ops = w.completed
    reads = len(w.blocks.latencies(reads=True))
    writes = len(w.blocks.latencies(reads=False))
    encodes = s.count("net.wire.frames")
    flushes = s.count("net.transport.flushes")
    out = zero_layers()
    out.update(
        {
            "net.wire.encode_us_per_op": s.self_us("net.wire.encode", ops),
            "net.wire.decode_us_per_op": s.self_us("net.wire.decode", ops)
            + s.self_us("net.wire.feed", ops),
            "net.wire.bytes_per_op": s.count("net.wire.bytes", ops)
            + s.count("net.wire.bytes_in", ops),
            "net.wire.escape_share": s.count("net.wire.escapes", encodes),
            "net.transport.recv_us_per_op": s.self_us("net.transport.recv", ops),
            "net.transport.flushes_per_op": flushes / ops,
            "net.transport.frames_per_flush": s.count("net.wire.frames", flushes),
            "net.daemon.timeouts": float(run.timeouts),
            "net.runtime.loop_lag_p90_ms": percentile(sorted(run.lag), 0.9) * 1e3,
            "net.runtime.busy_share": rw.cpu_s / rw.wall_s,
            "core.server_us_per_op": s.self_us("core.server", ops),
            "core.client_us_per_op": s.self_us("core.client", ops),
            "core.msgs_per_read": run.msgs[0] / reads,
            "core.msgs_per_write": run.msgs[1] / writes,
            "labels.precedes_calls_per_op": s.count("labels.precedes", ops),
            "labels.precedes_us_per_op": s.self_us("labels.precedes", ops),
            "labels.next_label_us_per_write": s.total_us("labels.next_label", writes),
            "wtsg.select_us_per_read": s.total_us("wtsg.select", reads),
            "spec.record_us_per_op": s.self_us("spec.record", ops),
            "spec.history_kb_per_op": run.history_bytes / run.history_ops / 1024,
            "spec.judge_us_per_op": median(ref.verdict_us_per_op),
            **s.ledger(run.wall_ns, ops),
            "trace.overhead_ratio": (rw.completed / rw.wall_s) / (ops / w.wall_s),
            "trace.spans_per_op": sum(s.calls.values()) / ops,
        }
    )
    if workload == "fabric_readheavy":
        # Shards share this process (inline hosting): server time is every
        # inbound burst a server-side connection dispatched, replies
        # included; the client is everything else the process was busy with.
        server_us = s.count("fabric.server_ns", ops) / 1e3
        busy_us = (run.wall_ns - s.self_ns.get("idle.poll", 0)) / ops / 1e3
        out.update(
            {
                "fabric.spawn_s": median(ref.spawn_s),
                "fabric.server_cpu_us_per_op": server_us,
                "fabric.client_cpu_us_per_op": busy_us - server_us,
                "fabric.route_us_per_op": s.self_us("fabric.route", ops),
                "fabric.shard_op_share_max": max(rw.overlap_ops.values())
                / sum(rw.overlap_ops.values()),
            }
        )
    return out


# ---------------------------------------------------------------------------
# the simulator workload
# ---------------------------------------------------------------------------
def run_fuzz(seed: int, seconds: int, trace: bool, import_s: float):
    """(run, metrics) of one ``sim_fuzz`` run."""
    import simfuzz
    import tracing

    trials = simfuzz.NOMINAL_TRIALS_PER_S * seconds
    if not trace:
        run = simfuzz.measure(seed, trials)
        return run, simfuzz.end_to_end(run, import_s)
    ref = simfuzz.measure(seed, trials, setups=1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run = simfuzz.measure(seed, trials, tracer=tracer, setups=1)
    finally:
        tracer.uninstall()
    return run, fuzz_layers(run, ref)


def fuzz_layers(run: Any, ref: Any) -> dict[str, float]:
    """Per-layer metrics of a traced ``sim_fuzz`` run (``ref``: plain twin)."""
    s = run.trace
    reads = len(run.blocks.latencies(reads=True))
    writes = len(run.blocks.latencies(reads=False))
    ops, trials = reads + writes, run.trials
    ref_ops = len(ref.blocks.samples)
    out = zero_layers()
    out.update(
        {
            "net.runtime.busy_share": ref.cpu_s / ref.wall_s,
            "core.server_us_per_op": s.self_us("core.server", ops),
            "core.client_us_per_op": s.self_us("core.client", ops),
            "core.msgs_per_read": run.read_msgs / reads,
            "core.msgs_per_write": run.write_msgs / writes,
            "labels.precedes_calls_per_op": s.count("labels.precedes", ops),
            "labels.precedes_us_per_op": s.self_us("labels.precedes", ops),
            "labels.next_label_us_per_write": s.total_us("labels.next_label", writes),
            "wtsg.select_us_per_read": s.total_us("wtsg.select", reads),
            "spec.record_us_per_op": s.self_us("spec.record", ops),
            "spec.history_kb_per_op": run.history_bytes / run.history_ops / 1024,
            "spec.judge_us_per_op": median(ref.verdict_us_per_op),
            "spec.stabilization_ms_per_trial": s.total_us("spec.stabilization", trials)
            / 1e3,
            "spec.checked_reads": float(run.checked_reads),
            "sim.events_per_trial": run.events / trials,
            "sim.msgs_per_trial": run.msgs / trials,
            "sim.us_per_event": s.self_us("sim.run", run.events),
            "sim.build_ms_per_trial": s.total_us("sim.build", trials) / 1e3,
            **s.ledger(run.wall_ns, ops),
            "trace.overhead_ratio": (ref_ops / ref.wall_s) / (ops / run.wall_s),
            "trace.spans_per_op": sum(s.calls.values()) / ops,
        }
    )
    return out


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: the value for a layer a workload bypasses."""
    return {name: 0.0 for name in PER_LAYER}


# ---------------------------------------------------------------------------
# gate, metadata, output
# ---------------------------------------------------------------------------
def gate(workload: str, run: Any) -> list[str]:
    """Reasons the run's outputs are incorrect (empty: correct)."""
    if workload == "sim_fuzz":
        return [f"fuzz witness: {w}" for w in run.warmup_witnesses + run.witnesses]
    return [f"verdict not clean: {note}" for note in run.verdict_notes]


def metadata(args: argparse.Namespace, workload_counts: dict[str, Any]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_loop_s": calibration_s(),
        **workload_counts,
    }


def counts(workload: str, run: Any) -> dict[str, Any]:
    """Sample counts behind every percentile, attempted vs completed."""
    blocks = run.blocks if workload == "sim_fuzz" else run.window.blocks
    out = {
        "read_samples": len(blocks.latencies(reads=True)),
        "write_samples": len(blocks.latencies(reads=False)),
        "blocks": len(blocks.intervals()),
        "verdict_repeats": run.verdict_repeats,
        "setup_repeats": len(run.setup_s),
    }
    if workload == "sim_fuzz":
        return {
            **out,
            "trials": run.trials,
            "trials_per_s": run.trials / run.wall_s,
            "witnesses": len(run.witnesses),
            "warmup_witnesses": len(run.warmup_witnesses),
            "attempted_ops": run.attempted_ops,
            "completed_ops": len(blocks.samples),
            "checked_reads": run.checked_reads,
            "events": run.events,
            "msgs": run.msgs,
        }
    w = run.window
    return {
        **out,
        "attempted_ops": w.attempted,
        "completed_ops": w.completed,
        "window_s": w.wall_s,
        "history_ops": run.history_ops,
    }


def parse(argv: Optional[list[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import importlib

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    trace = bool(args.trace)
    import_s = 0.0 if trace else interpreter_start_s(IMPORTS[args.workload])
    if args.workload == "sim_fuzz":
        run, metrics = run_fuzz(args.seed, args.seconds, trace, import_s)
        attempted, failed = run.trials, len(run.witnesses)
    else:
        run, metrics = run_socket(
            args.workload, args.seed, args.seconds, trace, import_s
        )
        attempted, failed = run.window.attempted, run.window.failed
    problems = gate(args.workload, run)
    units = PER_LAYER if trace else END_TO_END
    meta = metadata(args, counts(args.workload, run))
    meta["gate"] = problems or "pass"
    if trace:
        run.trace.dump(
            ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json",
            {"meta": meta, "metrics": metrics},
        )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
