"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments``                 — list the experiment catalogue;
* ``run E3 [E7 ...] [--jobs N]``  — regenerate chosen experiment tables;
* ``reproduce-all [--jobs N]``    — regenerate every table (E1-E13);
* ``demo``                        — the quickstart scenario, narrated;
* ``profile E2 [--out p.pstats]`` — cProfile an experiment, optionally
  dumping raw pstats for flamegraph tooling;
* ``fuzz [--jobs N]``             — random hostile schedules, Jepsen-style;
  ``--shrink`` delta-debugs every witness to a locally minimal
  reproducer, ``--witness-out p.json`` archives the (shrunk) witnesses;
* ``chaos [--preset smoke]``      — nemesis campaigns: composable
  partition / crash–restart / corruption-wave / storm / surge plans with
  an online invariant monitor and watchdog forensics (``docs/CHAOS.md``);
* ``shrink WITNESS.json``         — shrink an archived fuzz witness or
  chaos plan to a locally minimal failing reproducer;
* ``check --seed N --ops K``      — run a random concurrent workload under
  full corruption and print the pseudo-stabilization verdict (a one-shot
  confidence check on any machine);
* ``lint [--format json]``        — the determinism & stabilization-
  soundness static analysis (see :mod:`repro.analysis` and
  ``docs/ANALYSIS.md``); exits 1 on any non-baselined finding;
* ``serve SID``                   — host one register server (correct or
  ``--byzantine STRATEGY``) on a real socket until interrupted;
* ``loadgen``                     — boot a live loopback cluster (or dial
  ``--servers``), drive a closed-loop mixed workload, judge the captured
  history with the regularity checker, write ``BENCH_live.json``
  (``docs/LIVE.md``);
* ``fabric``                      — the sharded KV fabric
  (``docs/FABRIC.md``): ``fabric loadgen`` scales register groups out
  across OS processes behind the consistent-hash router and writes
  ``BENCH_fabric.json``; ``fabric chaos`` aims a nemesis at one shard
  and gates on blast-radius containment; ``fabric serve`` hosts a
  fabric and prints its topology until interrupted.

``--jobs`` fans independent trials over a process pool; every sweep's
output is byte-identical to the serial run (see
:mod:`repro.harness.parallel`).

``--trace {off,stats,full}`` (demo, check, fuzz) sets the observability
level: ``off`` drops all message accounting for maximum throughput,
``stats`` (default) keeps the per-type/per-process counters, ``full``
additionally records every network event (``demo --trace full`` prints a
sequence chart). Verdicts are identical at every level.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Any, Optional, Sequence


def _cmd_experiments(_: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS

    for name in sorted(ALL_EXPERIMENTS, key=lambda s: int(s[1:])):
        mod = ALL_EXPERIMENTS[name]
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"{name:4s} {doc}")
    return 0


def _run_experiment(mod, jobs: int):
    """Invoke ``mod.run``, forwarding ``jobs`` when the sweep supports it.

    Sweeps that fan trials out (E3, E9, E10) accept a ``jobs`` kwarg;
    the rest run serially regardless, so ``--jobs`` is always safe.
    """
    import inspect

    if jobs > 1 and "jobs" in inspect.signature(mod.run).parameters:
        return mod.run(jobs=jobs)
    return mod.run()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS

    from repro.harness.profiling import wall_clock

    status = 0
    for name in args.experiment:
        key = name.upper()
        mod = ALL_EXPERIMENTS.get(key)
        if mod is None:
            print(f"unknown experiment {name!r}; try `experiments`", file=sys.stderr)
            status = 2
            continue
        start = wall_clock()
        report = _run_experiment(mod, args.jobs)
        if args.csv:
            print(report.to_csv(), end="")
        else:
            print(report.table())
            print(f"  [{key} regenerated in {wall_clock() - start:.1f}s]\n")
    return status


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS

    from repro.harness.profiling import wall_clock

    total = wall_clock()
    for name in sorted(ALL_EXPERIMENTS, key=lambda s: int(s[1:])):
        start = wall_clock()
        report = _run_experiment(ALL_EXPERIMENTS[name], args.jobs)
        print(report.table())
        print(f"  [{name} regenerated in {wall_clock() - start:.1f}s]\n")
    print(f"all experiments regenerated in {wall_clock() - total:.1f}s")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import RegisterSystem, SystemConfig
    from repro.spec import evaluate_stabilization

    config = SystemConfig(n=6, f=1)
    system = RegisterSystem(config, seed=2026, n_clients=3, trace=args.trace)
    print(f"deployed: {config.describe()}")
    system.write_sync("c0", "hello world")
    print("c1 reads:", system.read_sync("c1"))
    print("corrupting every replica and client...")
    system.corrupt_servers()
    system.corrupt_clients()
    fault_time = system.env.now
    print("post-fault read:", system.read_sync("c2"))
    system.write_sync("c0", "recovered!")
    print("c1 reads:", system.read_sync("c1"))
    report = evaluate_stabilization(
        system.history, system.checker(), last_fault_time=fault_time
    )
    print(report.summary())
    if args.trace == "full":
        from repro.sim.visualize import render_sequence_chart

        print()
        print(render_sequence_chart(system.env.network.trace, limit=30))
    return 0 if report.stabilized else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.harness.profiling import profile_callable, profile_to_file

    mod = ALL_EXPERIMENTS.get(args.experiment.upper())
    if mod is None:
        print(
            f"unknown experiment {args.experiment!r}; try `experiments`",
            file=sys.stderr,
        )
        return 2
    if args.out:
        result = profile_to_file(mod.run, args.out, top=args.top)
        print(result.table(limit=args.top))
        print(f"raw pstats written to {args.out}")
    else:
        result = profile_callable(mod.run)
        print(result.table(limit=args.top))
    return 0


def _write_json(path: str, payload) -> None:
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.harness.fuzz import fuzz, witness_to_dict

    report = fuzz(
        trials=args.trials,
        n=args.n,
        f=args.f,
        master_seed=args.seed,
        stop_at_first=args.stop_at_first,
        jobs=args.jobs,
        trace=args.trace,
    )
    print(report.summary())
    witnesses = report.witnesses
    if args.shrink and witnesses:
        from repro.chaos.shrink import shrink_witness

        shrunk = []
        for witness in witnesses:
            result = shrink_witness(witness, budget=args.shrink_budget)
            print(f"  {witness.kind}: {result.summary()}")
            shrunk.append(
                replace(
                    witness,
                    recipe=result.shrunk,
                    kind=result.kind,
                    detail=result.detail,
                )
            )
        witnesses = shrunk
    for witness in witnesses[: args.show]:
        print(f"\n{witness.kind}: {witness.detail}")
        print(f"  recipe: {witness.recipe}")
    if args.witness_out and witnesses:
        _write_json(args.witness_out, [witness_to_dict(w) for w in witnesses])
        print(f"\n{len(witnesses)} witness(es) written to {args.witness_out}")
    at_bound = args.n >= 5 * args.f + 1
    if at_bound and not report.clean:
        print(
            "\nWITNESS AT n >= 5f+1: this is a bug — the recipe above "
            "replays it deterministically.",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import PRESETS, chaos_campaign

    settings = dict(PRESETS[args.preset]) if args.preset else {}
    for key in ("trials", "n", "f"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    settings.setdefault("trials", 50)
    settings.setdefault("n", 6)
    settings.setdefault("f", 1)
    report = chaos_campaign(
        master_seed=args.seed,
        jobs=args.jobs,
        trace=args.trace,
        max_nemeses=args.max_nemeses,
        stop_at_first=args.stop_at_first,
        **settings,
    )
    print(report.summary())
    for outcome in report.witnesses[: args.show]:
        print(f"\n{outcome.kind}: {outcome.detail}")
        print(f"  plan: {outcome.plan}")
    if args.witness_out and report.witnesses:
        _write_json(
            args.witness_out, [w.to_dict() for w in report.witnesses]
        )
        print(
            f"\n{len(report.witnesses)} witness(es) written to "
            f"{args.witness_out}"
        )
    status = 0
    at_bound = settings["n"] >= 5 * settings["f"] + 1
    # Churn/mobility campaigns deliberately leave the paper's model
    # (fixed membership, pinned Byzantine identities), where `stuck` at
    # the bound is the charted boundary, not a bug: an operation
    # straddling a churn-window edge loses both the departed and the
    # not-yet-rejoined server, and one straddling a relocation sees a
    # per-lifetime union of Byzantine hosts larger than f. Safety kinds
    # (violation, not-stabilized) still gate — those are bugs anywhere.
    beyond_model = any(
        fam in ("churn", "mobile") for fam in settings.get("families", ())
    )
    gating = [
        w
        for w in report.witnesses
        if not (beyond_model and w.kind == "stuck")
    ]
    if at_bound and report.witnesses and not gating:
        print(
            "\nstuck witnesses at n >= 5f+1 under churn/mobility are the "
            "resilience boundary this campaign charts (see E15), not a "
            "bug; a safety witness would still fail the run."
        )
    if at_bound and gating:
        print(
            "\nWITNESS AT n >= 5f+1: this is a bug — the plan above "
            "replays it deterministically.",
            file=sys.stderr,
        )
        status = 1
    if args.map_out:
        from repro.harness.experiments.e15_resilience_map import (
            render_map,
            resilience_map,
        )

        map_data = resilience_map(
            seed=args.seed, small=True, jobs=args.jobs
        )
        _write_json(args.map_out, map_data)
        print(f"\nresilience map written to {args.map_out}")
        print(render_map(map_data).table())
        surprises = [
            c for c in map_data["cells"] if not c["matches_expectation"]
        ]
        if surprises:
            print(
                f"\n{len(surprises)} cell(s) off the expected boundary — "
                "see the map JSON for the witnesses.",
                file=sys.stderr,
            )
            status = 1
    return status


def _cmd_shrink(args: argparse.Namespace) -> int:
    """Shrink an archived witness: dispatch on its ``format`` tag."""
    import json
    from pathlib import Path

    from repro.chaos.engine import WITNESS_FORMAT as CHAOS_WITNESS_FORMAT
    from repro.chaos.plan import PLAN_FORMAT, plan_from_dict, plan_to_dict
    from repro.chaos.shrink import shrink_plan, shrink_witness
    from repro.harness.fuzz import (
        RECIPE_FORMAT,
        WITNESS_FORMAT,
        Witness,
        recipe_from_dict,
        recipe_to_dict,
        run_trial,
        witness_from_dict,
        witness_to_dict,
    )

    data = json.loads(Path(args.witness).read_text())
    if isinstance(data, list):
        if not data:
            print("empty witness file", file=sys.stderr)
            return 2
        if len(data) > 1:
            print(f"note: file holds {len(data)} witnesses; shrinking the first")
        data = data[0]
    fmt = data.get("format")
    match_kind = not args.any_kind

    if fmt == WITNESS_FORMAT:
        result = shrink_witness(
            witness_from_dict(data),
            budget=args.budget,
            match_kind=match_kind,
        )
        out = witness_to_dict(
            Witness(recipe=result.shrunk, kind=result.kind, detail=result.detail)
        )
    elif fmt and fmt.startswith(RECIPE_FORMAT.rsplit("/", 1)[0]):
        recipe = recipe_from_dict(data)
        witness = run_trial(recipe, trace="off")
        if witness is None:
            print("recipe does not fail — nothing to shrink", file=sys.stderr)
            return 1
        result = shrink_witness(
            witness, budget=args.budget, match_kind=match_kind
        )
        out = recipe_to_dict(result.shrunk)
    elif fmt == CHAOS_WITNESS_FORMAT or fmt == PLAN_FORMAT:
        plan = plan_from_dict(data["plan"] if fmt == CHAOS_WITNESS_FORMAT else data)
        try:
            result = shrink_plan(
                plan, budget=args.budget, match_kind=match_kind
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        out = {
            "format": CHAOS_WITNESS_FORMAT,
            "kind": result.kind,
            "detail": result.detail,
            "forensics": None,
            "plan": plan_to_dict(result.shrunk),
        }
    else:
        print(f"unknown witness format: {fmt!r}", file=sys.stderr)
        return 2

    print(result.summary())
    print(f"{result.kind}: {result.detail}")
    print(f"  reproducer: {result.shrunk}")
    if args.out:
        _write_json(args.out, out)
        print(f"shrunk witness written to {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.core import RegisterSystem, SystemConfig
    from repro.spec import evaluate_stabilization
    from repro.workloads import mixed_scripts, run_scripts

    system = RegisterSystem(
        SystemConfig(n=5 * args.f + 1, f=args.f),
        seed=args.seed,
        n_clients=args.clients,
        trace=args.trace,
    )
    system.corrupt_servers()
    system.corrupt_clients()
    scripts = mixed_scripts(
        list(system.clients),
        random.Random(args.seed),
        ops_per_client=args.ops,
    )
    run_scripts(system, scripts)
    report = evaluate_stabilization(
        system.history, system.checker(), last_fault_time=0.0
    )
    print(
        f"seed={args.seed} f={args.f} clients={args.clients} "
        f"ops/client={args.ops}: {report.summary()}"
    )
    return 0 if report.stabilized else 1


def _changed_python_files() -> Optional[list]:
    """Repo-relative ``.py`` files touched vs HEAD (plus untracked ones),
    or None when git is unavailable — ``repro lint --changed``."""
    import subprocess
    from pathlib import Path

    def _git(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True
        ).stdout

    try:
        top = Path(_git("rev-parse", "--show-toplevel").strip())
        changed = _git(
            "diff", "--name-only", "-z", "--diff-filter=d", "HEAD", "--", "*.py"
        )
        untracked = _git(
            "ls-files", "--others", "--exclude-standard", "-z", "--", "*.py"
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    names = set(changed.split("\0")) | set(untracked.split("\0"))
    return sorted(
        top / name
        for name in names
        if name.endswith(".py") and (top / name).is_file()
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        analyze_modules,
        apply_baseline,
        build_model,
        default_target,
        load_baseline,
        load_model_cache,
        load_modules,
        model_cache_key,
        render_github,
        render_json,
        render_rule_list,
        render_text,
        save_model_cache,
        write_baseline,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    if args.changed:
        changed = _changed_python_files()
        if changed is None:
            print("--changed requires a git checkout", file=sys.stderr)
            return 2
        if args.paths:  # optional scope filter on top of the diff
            scopes = [Path(p).resolve() for p in args.paths]
            changed = [
                path
                for path in changed
                if any(
                    path.resolve().is_relative_to(scope) for scope in scopes
                )
            ]
        targets = changed
        if not targets:
            print("clean: no changed python files")
            return 0
    else:
        targets = [Path(p) for p in args.paths] or [default_target()]

    modules = load_modules(targets)
    model = None
    if args.model_cache:
        # Phase-1 artifact cache: keyed on a hash of every analyzed
        # source, so any edit (or a different file set) rebuilds.
        cache_path = Path(args.model_cache)
        key = model_cache_key(modules)
        model = load_model_cache(cache_path, key)
        if model is None:
            model = build_model(modules)
            save_model_cache(cache_path, key, model)
    findings = analyze_modules(modules, model=model)

    baseline_path = Path(args.baseline) if args.baseline else None
    if args.write_baseline:
        if baseline_path is None:
            print("--write-baseline requires --baseline PATH", file=sys.stderr)
            return 2
        write_baseline(findings, baseline_path)
        print(f"baseline of {len(findings)} finding(s) written to {baseline_path}")
        return 0

    baselined = 0
    if baseline_path is not None:
        findings, matched = apply_baseline(findings, load_baseline(baseline_path))
        baselined = len(matched)

    if args.format == "github":
        cwd = Path.cwd()
        pathmap = {}
        for module in modules:
            if module.srcpath is None:
                continue
            try:
                display = module.srcpath.resolve().relative_to(cwd)
            except ValueError:
                display = module.srcpath
            pathmap[module.relpath] = display.as_posix()
        print(render_github(findings, baselined=baselined, pathmap=pathmap))
    else:
        render = render_json if args.format == "json" else render_text
        print(render(findings, baselined=baselined))
    return 1 if findings else 0


def _zoo_strategy(name: str) -> Any:
    """The zoo strategy class ``name``; None, said on stderr, if unknown."""
    from repro.byzantine.strategies import STRATEGY_ZOO

    cls = STRATEGY_ZOO.get(name)
    if cls is None:
        print(
            f"unknown strategy {name!r}; known: {sorted(STRATEGY_ZOO)}",
            file=sys.stderr,
        )
    return cls


def _event_loop(policy: str) -> Optional[str]:
    """Install the ``--loop`` policy; None, said on stderr, if unavailable."""
    from repro.net import install_event_loop

    try:
        return install_event_loop(policy)
    except ImportError:
        print(
            "uvloop requested but not installed (pip install 'repro[perf]')",
            file=sys.stderr,
        )
        return None


def _below_floor(ops_per_s: float, floor: Optional[float]) -> bool:
    """Whether a ``--min-ops-per-s`` floor is missed (said on stderr)."""
    if floor and ops_per_s < floor:
        print(f"throughput {ops_per_s:.1f} ops/s below floor {floor}", file=sys.stderr)
        return True
    return False


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import SystemConfig
    from repro.net import ServerDaemon

    config = SystemConfig(n=args.n, f=args.f)
    if args.sid not in config.server_ids:
        print(
            f"unknown server id {args.sid!r} for n={args.n} "
            f"(expected one of {config.server_ids})",
            file=sys.stderr,
        )
        return 2
    factory = None
    if args.byzantine:
        factory = _zoo_strategy(args.byzantine)
        if factory is None:
            return 2

    async def serve() -> None:
        daemon = ServerDaemon(
            args.sid,
            config,
            address=args.address,
            factory=factory,
            seed=args.seed,
            wire=args.wire,
        )
        address = await daemon.start()
        role = args.byzantine or "correct"
        print(f"{args.sid} ({role}) listening on {address}", flush=True)
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await daemon.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; shut down cleanly")
    return 0


#: Offered-rate ladder used by bare ``--sweep`` (ops/s). Geometric, wide
#: enough to bracket the saturation knee on anything from a laptop to CI.
DEFAULT_SWEEP_RATES = (250.0, 500.0, 1000.0, 2000.0, 4000.0)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import SystemConfig
    from repro.net import FaultPolicy, LiveRegisterCluster, benchmark, saturation_sweep

    config = SystemConfig(n=args.n, f=args.f)
    if args.open_loop and args.rate is None and not args.sweep:
        print("--open-loop needs --rate (or --sweep)", file=sys.stderr)
        return 2

    sweep_rates = None
    if args.sweep:
        if args.sweep == "auto":
            sweep_rates = list(DEFAULT_SWEEP_RATES)
        else:
            try:
                sweep_rates = [float(r) for r in args.sweep.split(",") if r]
            except ValueError:
                print(f"bad --sweep {args.sweep!r} (want R1,R2,...)", file=sys.stderr)
                return 2
        if len(sweep_rates) < 2:
            print("--sweep needs at least two rates", file=sys.stderr)
            return 2

    byzantine = None
    if args.byzantine:
        cls = _zoo_strategy(args.byzantine)
        if cls is None:
            return 2
        sid = args.byzantine_server or config.server_ids[-1]
        byzantine = {sid: cls}

    external = None
    if args.servers:
        external = {}
        for item in args.servers.split(","):
            sid, sep, address = item.partition("=")
            if not sep:
                print(f"bad --servers entry {item!r} (want SID=ADDR)", file=sys.stderr)
                return 2
            external[sid] = address

    policy = None
    if args.proxy_loss or args.proxy_delay or args.proxy_jitter or args.proxy_duplication:
        policy = FaultPolicy(
            loss=args.proxy_loss,
            duplication=args.proxy_duplication,
            delay=args.proxy_delay,
            jitter=args.proxy_jitter,
        )

    from repro.net.transport import DEFAULT_FLUSH_WATERMARK

    watermark = (
        args.flush_watermark
        if args.flush_watermark is not None
        else DEFAULT_FLUSH_WATERMARK
    )

    def make_cluster() -> "LiveRegisterCluster":
        return LiveRegisterCluster(
            config,
            n_clients=args.clients,
            seed=args.seed,
            byzantine=byzantine,
            family=args.family,
            socket_dir=args.socket_dir,
            proxy_policy=policy,
            op_timeout=args.op_timeout,
            external_servers=external,
            wire=args.wire,
            flush_watermark=watermark,
        )

    mode = "open" if (args.open_loop and args.rate is not None) else "closed"

    async def run() -> dict:
        sweep = None
        if sweep_rates is not None:
            sweep = saturation_sweep(
                make_cluster,
                sweep_rates,
                duration=args.sweep_duration,
                warmup=min(args.warmup, 0.5),
                read_fraction=args.read_fraction,
                seed=args.seed,
            )
        cluster = make_cluster()
        async with cluster:
            return await benchmark(
                cluster,
                duration=args.duration,
                warmup=args.warmup,
                read_fraction=args.read_fraction,
                seed=args.seed,
                mode=mode,
                rate=args.rate,
                sweep=sweep,
            )

    runtime = _event_loop(args.loop)
    if runtime is None:
        return 2
    bench = asyncio.run(run())
    bench["runtime"] = runtime
    load, verdict = bench["load"], bench["verdict"]
    print(
        f"n={args.n} f={args.f} clients={args.clients} "
        f"byzantine={sorted(bench['config']['byzantine']) or 'none'} "
        f"proxied={bench['config']['proxied']} "
        f"wire={bench['wire']} loop={runtime} mode={mode}"
    )
    print(
        f"  {load['ops_per_s']:.1f} ops/s over {load['duration_s']:.2f}s "
        f"({load['reads']} reads, {load['writes']} writes, "
        f"{load['aborts']} aborts, {load['timeouts']} timeouts)"
    )
    for kind in ("read", "write"):
        lat = load[f"{kind}_latency_s"]
        if lat["count"]:
            print(
                f"  {kind:5s} p50={lat['p50'] * 1e3:.2f}ms "
                f"p95={lat['p95'] * 1e3:.2f}ms p99={lat['p99'] * 1e3:.2f}ms "
                f"max={lat['max'] * 1e3:.2f}ms"
            )
    print(
        f"  regularity: {'CLEAN' if verdict['clean'] else 'VIOLATIONS'} "
        f"({verdict['checked_reads']} reads checked, "
        f"{verdict['violations']} violations)"
    )
    if bench.get("sweep"):
        print("  saturation sweep (open loop, fresh cluster per point):")
        print(
            "    offered    achieved   read p50/p99 ms    "
            "write p50/p99 ms   verdict"
        )
        for pt in bench["sweep"]:
            print(
                f"    {pt['offered_ops_per_s']:8.0f} "
                f"{pt['ops_per_s']:10.1f} "
                f"{pt['read_p50_s'] * 1e3:8.2f}/{pt['read_p99_s'] * 1e3:<8.2f} "
                f"{pt['write_p50_s'] * 1e3:8.2f}/{pt['write_p99_s'] * 1e3:<8.2f} "
                f"{'CLEAN' if pt['clean'] else 'VIOLATIONS'}"
            )
    if args.out:
        _write_json(args.out, bench)
        print(f"  benchmark written to {args.out}")
    if not verdict["clean"]:
        return 1
    return 1 if _below_floor(load["ops_per_s"], args.min_ops_per_s) else 0


def _shard_ladder(shards: int) -> list[int]:
    """The --sweep shard counts: powers of two up to ``shards``, plus
    ``shards`` itself (1, 2, 4, ... k)."""
    ladder = []
    k = 1
    while k < shards:
        ladder.append(k)
        k *= 2
    ladder.append(shards)
    return ladder


def _cmd_fabric(args: argparse.Namespace) -> int:
    import asyncio

    from repro.fabric import (
        FabricClient,
        FabricSupervisor,
        ShardNemesis,
        fabric_scaleout,
        run_targeted_chaos,
    )

    runtime = _event_loop(args.loop)
    if runtime is None:
        return 2
    mode = "inline" if args.inline else "process"

    if args.fabric_command == "serve":
        import json

        async def serve() -> None:
            async with FabricSupervisor(
                shards=args.shards,
                n=args.n,
                f=args.f,
                seed=args.seed,
                byzantine=args.byzantine,
                proxied=args.proxied,
                wire=args.wire,
                mode=mode,
            ) as sup:
                print(json.dumps(sup.topology.to_dict(), indent=2, sort_keys=True))
                sys.stdout.flush()
                while True:
                    await asyncio.sleep(3600)

        try:
            asyncio.run(serve())
        except KeyboardInterrupt:
            pass
        return 0

    if args.fabric_command == "chaos":
        nemesis = ShardNemesis(
            target=args.target,
            kind=args.nemesis,
            start=args.start,
            length=args.length,
        )
        proxied = args.proxied or nemesis.kind == "partition"

        async def chaos() -> dict:
            async with FabricSupervisor(
                shards=args.shards,
                n=args.n,
                f=args.f,
                seed=args.seed,
                byzantine=args.byzantine,
                proxied=proxied,
                wire=args.wire,
                mode=mode,
            ) as sup:
                async with FabricClient(
                    sup.topology,
                    clients_per_shard=args.clients,
                    seed=args.seed,
                    op_timeout=args.op_timeout,
                ) as client:
                    return await run_targeted_chaos(
                        sup,
                        client,
                        nemesis,
                        rate_per_shard=args.rate_per_shard,
                        duration=args.duration,
                        warmup=args.warmup,
                        read_fraction=args.read_fraction,
                        keys=args.keys,
                        skew=args.skew,
                        zipf_s=args.zipf_s,
                        seed=args.seed,
                    )

        report = asyncio.run(chaos())
        report["runtime"] = runtime
        blast = report["blast_radius"]
        print(
            f"fabric chaos: {nemesis.kind} on {nemesis.target} "
            f"({args.shards} shards, mode={mode})"
        )
        for shard_id in sorted(report["per_shard"]):
            entry = report["per_shard"][shard_id]
            health = (
                f"stabilized={entry['stabilized']}"
                if entry["role"] == "target"
                else f"clean={entry['clean']}"
            )
            print(
                f"  {shard_id:8s} {entry['role']:9s} "
                f"{entry['reads'] + entry['writes']:5d} ops "
                f"{entry['timeouts']} timeouts  {health}"
            )
        print(
            f"  blast radius: "
            f"{'CONTAINED' if blast['contained'] else 'ESCAPED'} "
            f"(degraded: {', '.join(blast['degraded']) or 'none'})"
        )
        if args.out:
            _write_json(args.out, report)
            print(f"  report written to {args.out}")
        return 0 if blast["contained"] and blast["target_stabilized"] else 1

    # fabric loadgen
    counts = _shard_ladder(args.shards) if args.sweep else [args.shards]
    artifact = asyncio.run(
        fabric_scaleout(
            counts,
            n=args.n,
            f=args.f,
            seed=args.seed,
            byzantine=args.byzantine,
            proxied=args.proxied,
            wire=args.wire,
            mode=mode,
            clients_per_shard=args.clients,
            op_timeout=args.op_timeout,
            load_mode="closed" if args.closed else "open",
            rate_per_shard=args.rate_per_shard,
            duration=args.duration,
            warmup=args.warmup,
            read_fraction=args.read_fraction,
            keys=args.keys,
            skew=args.skew,
            zipf_s=args.zipf_s,
        )
    )
    artifact["meta"]["runtime"] = runtime
    print(
        f"fabric loadgen: n={args.n} f={args.f} per shard, mode={mode}, "
        f"skew={args.skew}, "
        f"{'closed loop' if args.closed else 'open loop'}"
    )
    print(
        "    shards    offered    achieved   read p50/p99 ms    "
        "write p50/p99 ms   verdict"
    )
    exit_code = 0
    for point in artifact["points"]:
        agg = point["aggregate"]
        read_lat = agg["read_latency_s"]
        write_lat = agg["write_latency_s"]
        print(
            f"    {point['shards']:6d} "
            f"{point['offered_ops_per_s']:10.0f} "
            f"{agg['ops_per_s']:10.1f} "
            f"{read_lat['p50'] * 1e3:8.2f}/{read_lat['p99'] * 1e3:<8.2f} "
            f"{write_lat['p50'] * 1e3:8.2f}/{write_lat['p99'] * 1e3:<8.2f} "
            f"{'CLEAN' if point['all_clean'] else 'VIOLATIONS'}"
        )
        if not point["all_clean"]:
            exit_code = 1
    top = artifact["points"][-1]["aggregate"]
    if _below_floor(top["ops_per_s"], args.min_ops_per_s):
        exit_code = 1
    if args.out:
        _write_json(args.out, artifact)
        print(f"  benchmark written to {args.out}")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stabilizing BFT storage — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list the experiment catalogue")

    jobs_help = (
        "worker processes for trial fan-out (default 1 = serial; "
        "0 = all CPUs). Results are identical for every value."
    )

    run = sub.add_parser("run", help="regenerate chosen experiment tables")
    run.add_argument("experiment", nargs="+", help="e.g. E1 E3 E8")
    run.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a table"
    )
    run.add_argument("--jobs", type=int, default=1, help=jobs_help)

    trace_help = (
        "observability level: off (fastest), stats (message counters; "
        "default), full (counters + per-event trace records)"
    )

    rall = sub.add_parser("reproduce-all", help="regenerate every table")
    rall.add_argument("--jobs", type=int, default=1, help=jobs_help)
    demo = sub.add_parser("demo", help="narrated quickstart scenario")
    demo.add_argument(
        "--trace", choices=("off", "stats", "full"), default="stats",
        help=trace_help,
    )

    profile = sub.add_parser(
        "profile", help="profile one experiment (cProfile, top hot spots)"
    )
    profile.add_argument("experiment", help="e.g. E2")
    profile.add_argument("--top", type=int, default=15)
    profile.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also dump raw pstats for flamegraph tools (snakeviz, flameprof)",
    )

    check = sub.add_parser(
        "check", help="random corrupted workload + stabilization verdict"
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--f", type=int, default=1)
    check.add_argument("--clients", type=int, default=3)
    check.add_argument("--ops", type=int, default=6)
    check.add_argument(
        "--trace", choices=("off", "stats", "full"), default="stats",
        help=trace_help,
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="hunt for violations with random hostile schedules (Jepsen-style)",
    )
    fuzz.add_argument("--trials", type=int, default=100)
    fuzz.add_argument("--n", type=int, default=6)
    fuzz.add_argument("--f", type=int, default=1)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--show", type=int, default=3, help="witnesses to print")
    fuzz.add_argument("--stop-at-first", action="store_true")
    fuzz.add_argument("--jobs", type=int, default=1, help=jobs_help)
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug each witness to a locally minimal reproducer",
    )
    fuzz.add_argument(
        "--shrink-budget",
        type=int,
        default=250,
        metavar="N",
        help="validation runs allowed per witness shrink (default 250)",
    )
    fuzz.add_argument(
        "--witness-out",
        default=None,
        metavar="PATH",
        help="write the (shrunk) witnesses to PATH as a JSON array",
    )
    fuzz.add_argument(
        "--trace", choices=("off", "stats", "full"), default="stats",
        help=trace_help,
    )

    chaos = sub.add_parser(
        "chaos",
        help="nemesis campaigns with watchdog forensics (docs/CHAOS.md)",
    )
    chaos.add_argument(
        "--preset",
        choices=("smoke", "nightly", "boundary", "churn", "mobility"),
        default=None,
        help="named campaign configuration (explicit flags override it)",
    )
    chaos.add_argument("--trials", type=int, default=None)
    chaos.add_argument("--n", type=int, default=None)
    chaos.add_argument("--f", type=int, default=None)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--max-nemeses",
        type=int,
        default=3,
        help="most nemeses sampled into one plan (default 3)",
    )
    chaos.add_argument("--show", type=int, default=3, help="witnesses to print")
    chaos.add_argument("--stop-at-first", action="store_true")
    chaos.add_argument("--jobs", type=int, default=1, help=jobs_help)
    chaos.add_argument(
        "--witness-out",
        default=None,
        metavar="PATH",
        help="write witness plans + forensics to PATH as a JSON array",
    )
    chaos.add_argument(
        "--map-out",
        default=None,
        metavar="PATH",
        help="also run the E15 resilience-boundary grid (small, seeded) "
        "and write the map JSON to PATH",
    )
    chaos.add_argument(
        "--trace", choices=("off", "stats", "full"), default="stats",
        help=trace_help,
    )

    shrink = sub.add_parser(
        "shrink",
        help="shrink an archived fuzz witness / chaos plan to a minimal "
        "failing reproducer",
    )
    shrink.add_argument(
        "witness",
        help="JSON file: fuzz witness/recipe or chaos witness/plan "
        "(format tag dispatches)",
    )
    shrink.add_argument(
        "--budget",
        type=int,
        default=250,
        metavar="N",
        help="validation runs allowed (default 250)",
    )
    shrink.add_argument(
        "--any-kind",
        action="store_true",
        help="accept candidates that fail with a different kind "
        "(permits ddmin slippage; default requires the same kind)",
    )
    shrink.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the shrunk witness JSON to PATH",
    )

    serve = sub.add_parser(
        "serve", help="host one live register server on a real socket"
    )
    serve.add_argument("sid", help="server id, e.g. s0")
    serve.add_argument("--n", type=int, default=6)
    serve.add_argument("--f", type=int, default=1)
    serve.add_argument(
        "--address",
        default="tcp:127.0.0.1:0",
        help="listen address: tcp:HOST:PORT (port 0 = ephemeral) or unix:PATH",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--byzantine",
        default=None,
        metavar="STRATEGY",
        help="host a Byzantine zoo strategy instead of a correct server",
    )
    serve.add_argument(
        "--wire",
        type=int,
        choices=(1, 2),
        default=2,
        help="wire codec version spoken on every connection (default 2, "
        "the repro-wire/2 binary codec; 1 = JSON)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="live loopback cluster + closed/open-loop load + regularity "
        "verdict (+ saturation sweep)",
    )
    loadgen.add_argument("--n", type=int, default=6)
    loadgen.add_argument("--f", type=int, default=1)
    loadgen.add_argument("--clients", type=int, default=3)
    loadgen.add_argument("--duration", type=float, default=5.0)
    loadgen.add_argument(
        "--wire",
        type=int,
        choices=(1, 2),
        default=2,
        help="wire codec version (default 2 = repro-wire/2 binary; 1 = JSON)",
    )
    loadgen.add_argument(
        "--flush-watermark",
        type=int,
        default=None,
        metavar="BYTES",
        help="outbound coalescing threshold per connection "
        "(default 65536; 0 = eager per-frame writes)",
    )
    loadgen.add_argument(
        "--open-loop",
        action="store_true",
        help="headline load uses Poisson arrivals at --rate instead of the "
        "closed loop (latency then includes queueing delay)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="OPS_PER_S",
        help="aggregate offered rate for --open-loop",
    )
    loadgen.add_argument(
        "--sweep",
        nargs="?",
        const="auto",
        default=None,
        metavar="R1,R2,...",
        help="also trace an open-loop saturation curve at these offered "
        "rates (bare --sweep picks a default geometric ladder); one fresh "
        "cluster and one regularity verdict per point",
    )
    loadgen.add_argument(
        "--sweep-duration",
        type=float,
        default=3.0,
        help="measured seconds per sweep point (default 3)",
    )
    loadgen.add_argument(
        "--loop",
        choices=("auto", "uvloop", "asyncio"),
        default="auto",
        help="event-loop runtime: auto = uvloop when installed, stdlib "
        "otherwise (the [perf] extra installs uvloop)",
    )
    loadgen.add_argument(
        "--warmup",
        type=float,
        default=1.0,
        help="seconds of samples to discard before measuring",
    )
    loadgen.add_argument(
        "--read-fraction",
        type=float,
        default=0.5,
        help="probability each operation is a read (default 0.5)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--byzantine",
        default=None,
        metavar="STRATEGY",
        help="substitute one server with this zoo strategy",
    )
    loadgen.add_argument(
        "--byzantine-server",
        default=None,
        metavar="SID",
        help="which server --byzantine replaces (default: the last)",
    )
    loadgen.add_argument(
        "--servers",
        default=None,
        metavar="SID=ADDR,...",
        help="dial externally served daemons instead of booting local ones",
    )
    loadgen.add_argument("--family", choices=("tcp", "unix"), default="tcp")
    loadgen.add_argument("--socket-dir", default=None)
    loadgen.add_argument("--op-timeout", type=float, default=30.0)
    loadgen.add_argument("--proxy-loss", type=float, default=0.0)
    loadgen.add_argument("--proxy-duplication", type=float, default=0.0)
    loadgen.add_argument("--proxy-delay", type=float, default=0.0)
    loadgen.add_argument("--proxy-jitter", type=float, default=0.0)
    loadgen.add_argument(
        "--min-ops-per-s",
        type=float,
        default=0.0,
        help="exit 1 if measured throughput falls below this floor",
    )
    loadgen.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the benchmark JSON (BENCH_live.json) here",
    )

    fabric = sub.add_parser(
        "fabric",
        help="sharded KV fabric: scale-out loadgen, targeted chaos, serve "
        "(docs/FABRIC.md)",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    def _fabric_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--shards", type=int, default=2, help="register groups (default 2)"
        )
        p.add_argument("--n", type=int, default=6, help="servers per shard")
        p.add_argument("--f", type=int, default=1, help="fault budget per shard")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--byzantine",
            default=None,
            metavar="STRATEGY",
            help="every shard hosts one server of this zoo strategy",
        )
        p.add_argument(
            "--proxied",
            action="store_true",
            help="front every server with a fault proxy (partition verbs "
            "need this; fabric chaos --nemesis partition implies it)",
        )
        p.add_argument(
            "--inline",
            action="store_true",
            help="host shards on this process's loop instead of one OS "
            "process per shard (fast, for tests and smoke runs)",
        )
        p.add_argument(
            "--wire",
            type=int,
            choices=(1, 2),
            default=2,
            help="wire codec version (default 2 = repro-wire/2 binary)",
        )
        p.add_argument(
            "--loop",
            choices=("auto", "uvloop", "asyncio"),
            default="auto",
            help="event-loop runtime (parent process only)",
        )

    def _fabric_load_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--clients", type=int, default=2, help="worker endpoints per shard"
        )
        p.add_argument("--op-timeout", type=float, default=30.0)
        p.add_argument(
            "--rate-per-shard",
            type=float,
            default=150.0,
            help="offered open-loop ops/s per shard (aggregate scales with "
            "the shard count; default 150)",
        )
        p.add_argument("--duration", type=float, default=5.0)
        p.add_argument("--warmup", type=float, default=1.0)
        p.add_argument("--read-fraction", type=float, default=0.5)
        p.add_argument(
            "--keys", type=int, default=256, help="keyspace size (default 256)"
        )
        p.add_argument(
            "--skew",
            choices=("uniform", "zipf"),
            default="uniform",
            help="key popularity: uniform or zipf (1/rank^s)",
        )
        p.add_argument(
            "--zipf-s",
            type=float,
            default=1.1,
            help="zipf exponent (default 1.1; only with --skew zipf)",
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="write the JSON artifact here",
        )

    fab_load = fabric_sub.add_parser(
        "loadgen",
        help="scale-out load over 1..K shards + per-shard regularity "
        "verdicts (repro-bench-fabric/1)",
    )
    _fabric_common(fab_load)
    _fabric_load_common(fab_load)
    fab_load.add_argument(
        "--sweep",
        action="store_true",
        help="run the shard ladder 1, 2, 4, ... up to --shards (fresh "
        "fabric per point) instead of --shards only",
    )
    fab_load.add_argument(
        "--closed",
        action="store_true",
        help="closed-loop workers (capacity) instead of open-loop Poisson "
        "arrivals at --rate-per-shard",
    )
    fab_load.add_argument(
        "--min-ops-per-s",
        type=float,
        default=0.0,
        help="exit 1 if the largest point's throughput is below this floor",
    )

    fab_chaos = fabric_sub.add_parser(
        "chaos",
        help="aim one nemesis at one shard under load; exit 0 only if the "
        "blast radius is contained and the target stabilizes",
    )
    _fabric_common(fab_chaos)
    _fabric_load_common(fab_chaos)
    fab_chaos.add_argument(
        "--target", default="shard0", help="shard to attack (default shard0)"
    )
    fab_chaos.add_argument(
        "--nemesis",
        choices=("partition", "corrupt", "crash"),
        default="partition",
        help="fault kind aimed at --target",
    )
    fab_chaos.add_argument(
        "--start",
        type=float,
        default=1.0,
        help="seconds into the measured window the fault lands",
    )
    fab_chaos.add_argument(
        "--length",
        type=float,
        default=2.0,
        help="seconds the fault holds before heal/respawn",
    )

    fab_serve = fabric_sub.add_parser(
        "serve",
        help="boot a fabric, print its topology JSON, serve until ^C",
    )
    _fabric_common(fab_serve)

    lint = sub.add_parser(
        "lint",
        help="determinism & stabilization-soundness static analysis",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text"
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only .py files changed vs HEAD (plus untracked ones); "
        "positional paths become a scope filter",
    )
    lint.add_argument(
        "--model-cache",
        default=None,
        metavar="PATH",
        help="cache the phase-1 program model here, keyed on a source hash",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="JSON baseline of grandfathered findings to subtract",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "experiments": _cmd_experiments,
        "run": _cmd_run,
        "reproduce-all": _cmd_reproduce_all,
        "demo": _cmd_demo,
        "profile": _cmd_profile,
        "check": _cmd_check,
        "fuzz": _cmd_fuzz,
        "chaos": _cmd_chaos,
        "shrink": _cmd_shrink,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "fabric": _cmd_fabric,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    raise SystemExit(main())
