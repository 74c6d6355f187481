"""Self-tests of the benchmark: gate, ledger, exact counts, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys

import pytest

import live
import run as bench
from common import ROOT


def test_gate_trips_on_a_read_of_a_value_nobody_wrote():
    from repro.spec.history import OpKind

    async def doctored() -> tuple[list, list]:
        dep = live.LiveDeployment(seed=3)
        await dep.boot()
        try:
            plans = live.plan_sessions(3, list(dep.sessions), 20, 0.5, 0)
            calls = dep.callers()
            await live.drive(
                {s: (calls[s], plans[s]) for s in dep.sessions}, live.Window()
            )
            honest = dep.judge()
            history, clock = dep.cluster.history, dep.cluster.clock
            op = history.invoke("c0", OpKind.READ, at=clock.now())
            history.respond(op, at=clock.now() + 1e-3, result="nobody-wrote-this")
            return honest, dep.judge()
        finally:
            await dep.stop()

    honest, forged = asyncio.run(doctored())
    clean = live.SocketRun()
    live.gate(clean, honest)
    assert bench.gate("live_mixed", clean) == []

    dirty = live.SocketRun()
    live.gate(dirty, forged)
    problems = bench.gate("live_mixed", dirty)
    assert problems and "VIOLATED" in problems[0]


def test_fuzz_gate_trips_on_a_witness():
    import simfuzz

    assert bench.gate("sim_fuzz", simfuzz.FuzzRun()) == []
    run = simfuzz.FuzzRun(witnesses=["violation: read returned a ghost"])
    assert bench.gate("sim_fuzz", run) == ["fuzz witness: violation: read returned a ghost"]


def _fuzz_counts(seed: int) -> tuple[dict, tuple]:
    run, metrics = bench.run_fuzz(seed, 1, trace=True, import_s=0.0)
    return metrics, (
        metrics["sim.events_per_trial"],
        metrics["sim.msgs_per_trial"],
        metrics["spec.checked_reads"],
    )


def test_sim_fuzz_counts_repeat_exactly_and_follow_the_seed():
    first, counts = _fuzz_counts(21)
    _, again = _fuzz_counts(21)
    _, other = _fuzz_counts(22)
    assert counts == again
    assert all(c > 0 for c in counts)
    assert other != counts
    _assert_ledger_sums(first)


def _assert_ledger_sums(metrics: dict) -> None:
    rows = [
        v for k, v in metrics.items()
        if k.startswith("ledger.") and k != "ledger.wall_us_per_op"
    ]
    assert metrics["ledger.unattributed_us_per_op"] >= 0.0
    assert sum(rows) == pytest.approx(metrics["ledger.wall_us_per_op"], rel=1e-9)


@pytest.mark.parametrize("workload", ["live_mixed", "fabric_readheavy"])
def test_traced_socket_run_ledger_sums_to_wall_time(workload):
    run, metrics = bench.run_socket(workload, 4, 1, trace=True, import_s=0.0)
    assert bench.gate(workload, run) == []
    assert set(metrics) == set(bench.PER_LAYER)
    _assert_ledger_sums(metrics)
    assert metrics["net.wire.encode_us_per_op"] > 0
    assert metrics["core.client_us_per_op"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "fabric_readheavy":
        assert metrics["fabric.spawn_s"] > 0
        assert metrics["fabric.server_cpu_us_per_op"] > 0
    else:
        assert metrics["core.server_us_per_op"] > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
