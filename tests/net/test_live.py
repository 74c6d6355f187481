"""Live cluster tests: real sockets, unmodified protocol, checked histories.

These are the acceptance tests of the deployment tier, scaled for CI: a
loopback cluster at the paper's n = 5f + 1 bound sustains mixed load —
with a Byzantine zoo strategy, behind a duplicating/delaying fault proxy,
over TCP and unix sockets — and every captured history passes the same
sweep-algorithm RegularityChecker that judges simulated runs.
"""

from __future__ import annotations

import asyncio

from repro.byzantine.strategies import STRATEGY_ZOO
from repro.core.client import ABORT
from repro.core.config import SystemConfig
from repro.net import (
    TIMED_OUT,
    FaultPolicy,
    LiveRegisterCluster,
    benchmark,
    get_codec,
    run_load,
    run_open_load,
    saturation_sweep,
)
from repro.spec.history import OpStatus

CONFIG = SystemConfig(n=6, f=1)


def run(coro):
    return asyncio.run(coro)


class TestLiveCluster:
    def test_write_read_across_clients_clean_history(self):
        async def scenario():
            async with LiveRegisterCluster(CONFIG, n_clients=2, seed=1) as c:
                await c.write("c0", "live-hello")
                value = await c.read("c1")
                verdict = c.check_regularity(algorithm="sweep")
                return value, verdict

        value, verdict = run(scenario())
        assert value == "live-hello"
        assert verdict.ok and not verdict.violations

    def test_mixed_load_with_byzantine_strategy_stays_regular(self):
        async def scenario():
            byz = {"s5": STRATEGY_ZOO["stale-replay"]}
            async with LiveRegisterCluster(
                CONFIG, n_clients=3, seed=2, byzantine=byz
            ) as c:
                load = await run_load(c, duration=1.0, warmup=0.2, seed=2)
                return load, c.check_regularity(algorithm="sweep")

        load, verdict = run(scenario())
        assert load.completed > 0
        assert load.timeouts == 0
        assert verdict.ok, verdict.violations

    def test_fault_proxy_duplication_and_delay_absorbed(self):
        async def scenario():
            policy = FaultPolicy(duplication=0.25, delay=0.001)
            async with LiveRegisterCluster(
                CONFIG, n_clients=2, seed=3, proxy_policy=policy
            ) as c:
                load = await run_load(c, duration=1.0, warmup=0.2, seed=3)
                duplicated = sum(p.duplicated for p in c.group.proxies.values())
                return load, duplicated, c.check_regularity(algorithm="sweep")

        load, duplicated, verdict = run(scenario())
        assert load.completed > 0
        assert duplicated > 0  # the proxy really did duplicate frames
        assert verdict.ok, verdict.violations

    def test_lossy_link_times_out_and_crash_restarts_the_client(self):
        async def scenario():
            # Near-total loss wedges the first operation (no retransmission
            # over a lossy link is the protocol's documented assumption);
            # the endpoint must map that onto a model-faithful crash.
            policy = FaultPolicy(loss=0.95, fairness_bound=10**6)
            async with LiveRegisterCluster(
                CONFIG, n_clients=1, seed=4, proxy_policy=policy, op_timeout=0.5
            ) as c:
                result = await c.write("c0", "doomed")
                statuses = [op.status for op in c.history]
                return result, statuses, c.endpoints["c0"].timeouts

        result, statuses, timeouts = run(scenario())
        assert result is TIMED_OUT
        assert timeouts == 1
        assert OpStatus.CRASHED in statuses

    def test_unix_domain_family(self, tmp_path):
        async def scenario():
            async with LiveRegisterCluster(
                CONFIG,
                n_clients=2,
                seed=5,
                family="unix",
                socket_dir=str(tmp_path),
            ) as c:
                await c.write("c0", "over-uds")
                value = await c.read("c1")
                return value, c.check_regularity(algorithm="sweep")

        value, verdict = run(scenario())
        assert value == "over-uds"
        assert verdict.ok

    def test_wire_v1_cluster_still_interoperates(self):
        # The JSON codec stays a first-class configuration: a whole
        # cluster speaking repro-wire/1 behaves identically.
        async def scenario():
            async with LiveRegisterCluster(
                CONFIG, n_clients=2, seed=8, wire=1
            ) as c:
                assert c.wire_format == "repro-wire/1"
                await c.write("c0", "json-wire")
                value = await c.read("c1")
                return value, c.check_regularity(algorithm="sweep")

        value, verdict = run(scenario())
        assert value == "json-wire"
        assert verdict.ok

    def test_lookalike_labels_cross_the_v2_wire_and_stay_clean(self):
        # The acceptance scenario for byte-faithfulness: a stale-replay
        # Byzantine server plus a *correct* server whose volatile state is
        # seeded with a corrupted lookalike timestamp (negative sting,
        # out-of-domain antistings — unpackable, so it must ride the JSON
        # escape hatch). The protocol stabilizes past both and the sweep
        # checker stays CLEAN; esc_encodes moving proves the lookalike
        # really took the adversarial encode path.
        from repro.labels.alon import AlonLabel
        from repro.labels.ordering import MwmrTimestamp

        async def scenario():
            codec = get_codec(2)
            esc_before = codec.esc_encodes
            byz = {"s5": STRATEGY_ZOO["stale-replay"]}
            async with LiveRegisterCluster(
                CONFIG, n_clients=2, seed=13, byzantine=byz
            ) as c:
                lookalike = MwmrTimestamp(
                    label=AlonLabel(
                        sting=-7, antistings=frozenset({-1, 0, 10**9})
                    ),
                    writer_id=None,
                )
                c.group.daemons["s0"].process.ts = lookalike
                load = await run_load(c, duration=1.0, warmup=0.2, seed=13)
                return (
                    load,
                    c.check_regularity(algorithm="sweep"),
                    codec.esc_encodes - esc_before,
                )

        load, verdict, esc_delta = run(scenario())
        assert load.completed > 0
        assert load.timeouts == 0
        assert verdict.ok, verdict.violations
        assert esc_delta > 0  # the lookalike crossed the wire via the hatch

    def test_abort_is_distinct_from_timeout(self):
        # ABORT is a protocol outcome and flows through the live path
        # unchanged; TIMED_OUT is a deployment outcome. They must never
        # be conflated by the endpoint.
        assert ABORT is not TIMED_OUT


class TestBenchmarkArtifact:
    def test_payload_shape_and_verdict(self):
        async def scenario():
            async with LiveRegisterCluster(CONFIG, n_clients=2, seed=6) as c:
                return await benchmark(c, duration=0.6, warmup=0.2, seed=6)

        bench = run(scenario())
        assert bench["format"] == "repro-bench-live/2"
        assert bench["wire"] == "repro-wire/2"
        assert bench["config"]["n"] == 6 and bench["config"]["f"] == 1
        assert bench["config"]["mode"] == "closed"
        assert bench["verdict"]["clean"] is True
        load = bench["load"]
        assert load["mode"] == "closed"
        assert load["ops_per_s"] > 0
        for kind in ("read_latency_s", "write_latency_s"):
            summary = load[kind]
            assert set(summary) == {
                "count", "mean", "min", "p50", "p95", "p99", "max",
            }
            if summary["count"]:
                assert 0 < summary["p50"] <= summary["p99"] <= summary["max"]
        assert bench["messages"]["sent"] > 0
        assert bench["history_ops"] > 0

    def test_open_loop_benchmark_and_sweep_artifact(self):
        async def scenario():
            def make_cluster():
                return LiveRegisterCluster(CONFIG, n_clients=2, seed=11)

            sweep = saturation_sweep(
                make_cluster,
                rates=[150.0, 300.0],
                duration=0.6,
                warmup=0.2,
                seed=11,
            )
            async with make_cluster() as c:
                return await benchmark(
                    c,
                    duration=0.6,
                    warmup=0.2,
                    seed=11,
                    mode="open",
                    rate=200.0,
                    sweep=sweep,
                )

        bench = run(scenario())
        assert bench["config"]["mode"] == "open"
        load = bench["load"]
        assert load["mode"] == "open"
        assert load["offered_ops_per_s"] == 200.0
        assert bench["verdict"]["clean"] is True
        points = bench["sweep"]
        assert [pt["offered_ops_per_s"] for pt in points] == [150.0, 300.0]
        for pt in points:
            assert pt["clean"] is True
            assert pt["completed"] > 0
            assert 0 <= pt["read_p50_s"] <= pt["read_p99_s"]
            assert 0 <= pt["write_p50_s"] <= pt["write_p99_s"]

    def test_open_loop_latency_includes_queueing_delay(self):
        # Offered load far beyond saturation: achieved throughput caps at
        # the service rate and p99 latency inflates with queueing — the
        # signal a closed loop structurally cannot produce.
        async def scenario():
            async with LiveRegisterCluster(CONFIG, n_clients=1, seed=12) as c:
                load = await run_open_load(
                    c, rate=100_000.0, duration=0.6, warmup=0.1, seed=12
                )
                return load

        load = run(scenario())
        assert load.completed > 0
        assert load.throughput < 50_000  # nowhere near the offered rate
        # Queueing delay accumulates: the p99 sample is far above one
        # closed-loop service time (~ms) because arrivals outpace service.
        worst = max(load.read_latency.max, load.write_latency.max)
        assert worst > 0.05

    def test_seeded_workload_issues_identical_op_sequences(self):
        # The *sequence* of operations is deterministic per seed (the
        # timing is the kernel's); same seed + same cluster shape must
        # issue the same first operation kinds per client.
        from repro.sim.environment import derive_seed
        import random

        def kinds(seed):
            rng = random.Random(derive_seed(seed, "loadgen:c0"))
            return [rng.random() < 0.5 for _ in range(20)]

        assert kinds(7) == kinds(7)
        assert kinds(7) != kinds(8)
