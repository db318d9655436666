"""Command-line interface.

Nine subcommands::

    python -m repro algorithms            # list registered protocols
    python -m repro run ...               # one simulation, summarized
    python -m repro compare ...           # several protocols, one table
    python -m repro locality ...          # crash probe with ASCII strip
    python -m repro report ...            # inspect / diff RunReport JSON
    python -m repro explore ...           # adversarial exploration
                                          #   (fuzz | replay | shrink)
    python -m repro metrics ...           # OpenMetrics export / scrape
                                          #   endpoint (export | serve)
    python -m repro bench ...             # append-only bench history
                                          #   (append | history | check)
    python -m repro live ...              # real-transport runtimes
                                          #   (run | serve | verify)

``live run`` executes a scenario over a real transport — the in-process
asyncio bus or one-process-per-node localhost TCP sockets — recording a
schema-versioned event log; ``live verify`` replays such a log in the
simulator under the invariant monitors and checks effect-stream
fidelity (exit 1 when not clean); ``live serve`` runs a bus scenario
with a live OpenMetrics scrape endpoint.  See docs/live.md.

``explore fuzz`` runs a seeded campaign of controlled schedules with
invariant monitors attached and exits 1 when any monitor fires, saving
one replayable repro file per violation; ``explore replay`` re-executes
a repro file and verifies the recorded violation reappears; ``explore
shrink`` delta-debugs a repro file down to a minimal failing case.

Topology specs are compact strings: ``line:13``, ``grid:25``,
``ring:8``, ``random:20:8x6`` (20 nodes uniform in an 8x6 arena).

``run --report out.json`` saves the run's structured
:class:`~repro.obs.report.RunReport` (telemetry is switched on
implicitly so the probe metrics are populated); ``compare --report``
saves one JSON object keyed by algorithm name.  ``run --metrics
out.prom`` additionally writes the probe snapshot as OpenMetrics text;
``metrics serve report.json`` turns a saved report into a Prometheus
scrape endpoint; ``bench check`` exits 1 when the newest
``BENCH_history.jsonl`` record regressed past the calibrated-jitter
tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError, ReproError
from repro.harness.experiments import crash_probe
from repro.mobility import RandomWaypoint
from repro.net.geometry import (
    Point,
    grid_positions,
    line_positions,
    random_positions,
    ring_positions,
)
from repro.obs.report import RunReport
from repro.runtime.registry import ALGORITHMS
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds
from repro.sim.rng import RandomSource


def parse_topology(spec: str, seed: int = 0) -> Tuple[List[Point], float]:
    """Parse a topology spec; returns (positions, suggested arena span)."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "line" and len(parts) == 2:
            n = int(parts[1])
            return list(line_positions(n, spacing=1.0)), float(n)
        if kind == "grid" and len(parts) == 2:
            n = int(parts[1])
            side = max(1, round(n ** 0.5))
            return list(grid_positions(n, spacing=1.0)), float(side)
        if kind == "ring" and len(parts) == 2:
            n = int(parts[1])
            radius = max(1.0, n / 6.0)
            return list(ring_positions(n, radius=radius)), 2 * radius
        if kind == "random" and len(parts) == 3:
            n = int(parts[1])
            w, _, h = parts[2].partition("x")
            width, height = float(w), float(h or w)
            rng = RandomSource(seed).stream("cli-topology")
            return list(random_positions(n, width, height, rng)), max(width, height)
    except ValueError as exc:
        raise ConfigurationError(f"bad topology spec {spec!r}: {exc}") from exc
    raise ConfigurationError(
        f"unknown topology spec {spec!r} "
        "(use line:N, grid:N, ring:N or random:N:WxH)"
    )


def parse_range(spec: str) -> Tuple[float, float]:
    """Parse 'lo:hi' into a float pair."""
    lo, _, hi = spec.partition(":")
    try:
        return float(lo), float(hi or lo)
    except ValueError as exc:
        raise ConfigurationError(f"bad range {spec!r}") from exc


def parse_crash(spec: str) -> Tuple[float, int]:
    """Parse 'time:node' into a crash event."""
    time, _, node = spec.partition(":")
    try:
        return float(time), int(node)
    except ValueError as exc:
        raise ConfigurationError(f"bad crash spec {spec!r}") from exc


def build_config(args, algorithm: Optional[str] = None) -> ScenarioConfig:
    positions, span = parse_topology(args.topology, seed=args.seed)
    mobility_factory = None
    if args.movers > 0:
        movers = args.movers

        def mobility_factory(node_id, _span=span, _movers=movers):
            if node_id < _movers:
                return RandomWaypoint(
                    _span, _span, speed_range=(0.5, 1.2),
                    pause_range=(5.0, 20.0),
                )
            return None

    return ScenarioConfig(
        positions=positions,
        radio_range=args.radio_range,
        algorithm=algorithm or args.algorithm,
        seed=args.seed,
        bounds=TimeBounds(nu=args.nu, tau=args.tau),
        think_range=parse_range(args.think),
        crashes=[parse_crash(c) for c in args.crash],
        delta_override=len(positions) - 1 if args.movers else None,
        mobility_factory=mobility_factory,
        # A report or metrics snapshot is only useful with the probe
        # metrics in it.
        telemetry=bool(
            getattr(args, "report", None) or getattr(args, "metrics", None)
        ),
        watchdog=getattr(args, "watchdog", None),
    )


def summarize_result(result) -> List[Sequence]:
    s = summarize(result.response_times)
    return [
        ["cs entries", result.cs_entries],
        ["messages", result.messages_sent],
        ["msgs / cs", f"{result.messages_per_cs():.1f}"
         if result.messages_per_cs() is not None else "-"],
        ["mean response", f"{s.mean:.3f}" if s else "-"],
        ["p95 response", f"{s.p95:.3f}" if s else "-"],
        ["max response", f"{s.maximum:.3f}" if s else "-"],
        ["starved", ",".join(map(str, result.starved)) or "none"],
    ]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_algorithms(args, out) -> int:
    rows = [[name] for name in sorted(ALGORITHMS)]
    out.write(render_table(["algorithm"], rows) + "\n")
    return 0


def cmd_run(args, out) -> int:
    config = build_config(args)
    shards = getattr(args, "shards", 1)
    if shards > 1:
        from repro.sim.sharded import ShardedEngine

        engine = ShardedEngine(
            config,
            num_shards=shards,
            workers=getattr(args, "shard_workers", None),
            # build_config's waypoint movers draw speeds from (0.5, 1.2).
            max_speed=1.2 if args.movers > 0 else None,
        )
        result = engine.run(until=args.until)
    else:
        result = Simulation(config).run(until=args.until)
    out.write(render_table(
        ["metric", "value"],
        summarize_result(result),
        title=f"{args.algorithm} on {args.topology} for {args.until} tu "
              f"(seed {args.seed})",
    ) + "\n")
    for warning in result.watchdog_warnings:
        out.write(
            f"warning: node {warning['node']} starving since "
            f"t={warning['hungry_since']:.1f} "
            f"(observed t={warning['time']:.1f})\n"
        )
    if args.report:
        path = result.report().save(args.report)
        out.write(f"report written to {path}\n")
    if getattr(args, "metrics", None):
        path = Path(args.metrics)
        path.write_text(result.openmetrics())
        out.write(f"metrics written to {path}\n")
    return 0


def cmd_compare(args, out) -> int:
    rows = []
    reports = {}
    for algorithm in args.algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {algorithm!r}")
        config = build_config(args, algorithm=algorithm)
        result = Simulation(config).run(until=args.until)
        if args.report:
            reports[algorithm] = result.report().to_dict()
        s = summarize(result.response_times)
        rows.append([
            algorithm,
            result.cs_entries,
            f"{s.mean:.2f}" if s else "-",
            f"{s.maximum:.2f}" if s else "-",
            f"{result.messages_per_cs():.1f}"
            if result.messages_per_cs() is not None else "-",
            ",".join(map(str, result.starved)) or "-",
        ])
    out.write(render_table(
        ["algorithm", "cs entries", "mean rt", "max rt", "msgs/cs", "starved"],
        rows,
        title=f"Comparison on {args.topology}, {args.until} tu (seed "
              f"{args.seed})",
    ) + "\n")
    if args.report:
        path = Path(args.report)
        path.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
        out.write(f"reports written to {path}\n")
    return 0


def cmd_report(args, out) -> int:
    if len(args.files) > 2:
        raise ConfigurationError(
            "report takes one file (summary) or two (diff)"
        )
    first = RunReport.load(args.files[0])
    if len(args.files) == 1:
        for line in first.summary_lines():
            out.write(line + "\n")
        return 0
    second = RunReport.load(args.files[1])
    changed = first.diff(second)
    if not changed:
        out.write("reports are identical\n")
        return 0
    width = max(len(path) for path in changed)
    for path, (ours, theirs) in changed.items():
        out.write(f"{path:<{width}}  {ours!r} -> {theirs!r}\n")
    out.write(f"{len(changed)} leaves differ\n")
    return 1


def cmd_explore(args, out) -> int:
    handlers = {
        "fuzz": cmd_explore_fuzz,
        "replay": cmd_explore_replay,
        "shrink": cmd_explore_shrink,
    }
    return handlers[args.explore_command](args, out)


def cmd_explore_fuzz(args, out) -> int:
    from repro.explore import run_campaign, shrink_repro

    if args.algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {args.algorithm!r}")
    result = run_campaign(
        args.algorithm,
        runs=args.runs,
        seed=args.seed,
        strategy=args.strategy,
        workers=args.workers,
        stop_on_first=args.stop_on_first,
    )
    rows = [
        [o["family"], "VIOLATED" if o["violated"] else "ok", o["steps"]]
        for o in result.outcomes
    ]
    out.write(render_table(
        ["family", "outcome", "steps"],
        rows,
        title=f"fuzz {args.algorithm}: {result.runs} runs, "
              f"strategy {args.strategy}, seed {args.seed}",
    ) + "\n")
    if result.clean:
        out.write("campaign clean: no invariant violations\n")
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, repro in enumerate(result.violations):
        if args.shrink:
            repro, _ = shrink_repro(repro, max_replays=args.max_replays)
        monitor = repro.violation.get("monitor", "violation")
        path = out_dir / f"{args.algorithm}-{monitor}-{index}.json"
        repro.save(path)
        out.write(
            f"violation of {monitor!r} at step "
            f"{repro.violation.get('step')} "
            f"(t={repro.violation.get('time'):.3f}) -> {path}\n"
        )
    return 1


def cmd_explore_replay(args, out) -> int:
    from repro.explore import replay
    from repro.explore.repro_file import ReproFile

    repro = ReproFile.load(args.file)
    result = replay(repro)  # raises ReproError on divergence -> exit 2
    violation = result.violation
    out.write(
        f"reproduced: {violation.monitor!r} violated at step "
        f"{violation.step} (t={violation.time:.3f})\n"
    )
    if args.report:
        path = result.report.save(args.report)
        out.write(f"report written to {path}\n")
    return 0


def cmd_explore_shrink(args, out) -> int:
    from repro.explore import shrink_repro
    from repro.explore.repro_file import ReproFile

    repro = ReproFile.load(args.file)
    shrunk, replays = shrink_repro(repro, max_replays=args.max_replays)
    destination = Path(args.out) if args.out else Path(
        str(args.file)).with_suffix(".min.json")
    shrunk.save(destination)
    out.write(
        f"shrunk size {repro.size()} -> {shrunk.size()} "
        f"(decisions {len(repro.decisions)} -> {len(shrunk.decisions)}, "
        f"until {repro.until:g} -> {shrunk.until:g}) "
        f"in {replays} replays\n"
    )
    out.write(f"minimal repro written to {destination}\n")
    return 0


def cmd_metrics(args, out) -> int:
    handlers = {
        "export": cmd_metrics_export,
        "serve": cmd_metrics_serve,
    }
    return handlers[args.metrics_command](args, out)


def _report_openmetrics(path) -> str:
    from repro.obs.openmetrics import openmetrics_from_report

    return openmetrics_from_report(RunReport.load(path))


def cmd_metrics_export(args, out) -> int:
    text = _report_openmetrics(args.file)
    if args.out:
        Path(args.out).write_text(text)
        out.write(f"metrics written to {args.out}\n")
    else:
        out.write(text)
    return 0


def cmd_metrics_serve(args, out) -> int:
    from repro.obs.openmetrics import build_metrics_server

    # Re-read the report on every scrape so a long-running harness can
    # keep rewriting the file and Prometheus sees fresh numbers.
    server = build_metrics_server(
        lambda: _report_openmetrics(args.file),
        host=args.host,
        port=args.port,
    )
    host, port = server.server_address[:2]
    out.write(f"serving metrics on http://{host}:{port}/metrics\n")
    try:
        if args.once:
            server.handle_request()
        else:  # pragma: no cover - interactive loop
            server.serve_forever()
    finally:
        server.server_close()
    return 0


def cmd_bench(args, out) -> int:
    handlers = {
        "append": cmd_bench_append,
        "history": cmd_bench_history,
        "check": cmd_bench_check,
    }
    return handlers[args.bench_command](args, out)


def cmd_bench_append(args, out) -> int:
    from repro.obs.bench_history import append_record

    sections = json.loads(Path(args.bench).read_text())
    if not isinstance(sections, dict):
        raise ConfigurationError(
            f"{args.bench}: bench snapshot must be a JSON object"
        )
    record = append_record(args.history, sections)
    out.write(
        f"appended {len(record['sections'])} section(s) at "
        f"{record['timestamp']} "
        f"(commit {record['git_commit'] or 'unknown'}, "
        f"version {record['version']}) to {args.history}\n"
    )
    return 0


def cmd_bench_history(args, out) -> int:
    from repro.obs.bench_history import load_history

    records = load_history(args.history)
    if not records:
        out.write(f"no records in {args.history}\n")
        return 0
    rows = []
    for record in records[-args.last:] if args.last else records:
        commit = record.get("git_commit") or "-"
        rows.append([
            record.get("timestamp", "-"),
            commit[:12],
            record.get("version", "-"),
            len(record.get("sections", {})),
            record.get("peak_rss_kb") or "-",
        ])
    out.write(render_table(
        ["timestamp", "commit", "version", "sections", "peak rss kb"],
        rows,
        title=f"{len(records)} record(s) in {args.history}",
    ) + "\n")
    return 0


def cmd_bench_check(args, out) -> int:
    from repro.obs.bench_history import check_latest, load_history

    records = load_history(args.history)
    if len(records) < 2:
        out.write(
            f"{len(records)} record(s) in {args.history}: "
            "nothing to compare against yet\n"
        )
        return 0
    result = check_latest(records, floor=args.floor, window=args.window)
    out.write(
        f"checked {result.checked} metric(s) against a trailing median of "
        f"{result.baseline_records} record(s), tolerance "
        f"{result.tolerance:.1%} (jitter {result.jitter:.1%}, floor "
        f"{args.floor:.1%})\n"
    )
    if result.clean:
        out.write("no regressions\n")
        return 0
    for regression in result.regressions:
        out.write(f"REGRESSION {regression.describe()}\n")
    out.write(f"{len(result.regressions)} regression(s) detected\n")
    return 0 if args.report_only else 1


def cmd_locality(args, out) -> int:
    reports = {}
    for algorithm in args.algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {algorithm!r}")
        reports[algorithm] = crash_probe(
            algorithm, n=args.nodes, until=args.until, seed=args.seed,
            crash_time=args.crash_time,
        )
    crash_node = args.nodes // 2
    out.write(
        f"{args.nodes}-node line, node {crash_node} crashes while eating "
        f"(X = crashed, # = starved, . = progressing)\n"
    )
    for algorithm, report in reports.items():
        cells = []
        for node in range(args.nodes):
            if node == crash_node:
                cells.append("X")
            elif node in report.starved:
                cells.append("#")
            else:
                cells.append(".")
        radius = report.starvation_radius
        out.write(
            f"  {algorithm:>14s}  [{''.join(cells)}]  radius = "
            f"{radius if radius is not None else 0}\n"
        )
    return 0


def cmd_live(args, out) -> int:
    handlers = {
        "run": cmd_live_run,
        "verify": cmd_live_verify,
        "serve": cmd_live_serve,
    }
    return handlers[args.live_command](args, out)


def _write_recording(recording, destination, out) -> None:
    from repro.live import save_recording

    with open(destination, "w") as stream:
        save_recording(recording, stream)
    out.write(f"recording written to {destination}\n")


def _verify_one(recording, label, out) -> bool:
    from repro.live import verify_recording

    report = verify_recording(recording)
    if report["clean"]:
        out.write(
            f"{label}: clean — {report['rows']} rows replayed, "
            f"{report['fidelity']['expected']} effects matched, "
            f"monitors {', '.join(report['monitors'])}\n"
        )
    elif report["violation"] is not None:
        violation = report["violation"]
        out.write(
            f"{label}: VIOLATION — monitor {violation.get('monitor')!r} "
            f"fired at t={violation.get('time')}\n"
        )
    else:
        divergence = report["fidelity"]["divergence"]
        out.write(
            f"{label}: DIVERGED — replay left the recording at effect "
            f"{divergence['index']} (expected {divergence['expected']}, "
            f"got {divergence['actual']})\n"
        )
    return bool(report["clean"])


def cmd_live_run(args, out) -> int:
    from repro.live import run_bus_family, run_socket_family

    if args.runtime == "socket":
        recording = run_socket_family(
            args.family, args.algorithm, seed=args.seed,
            time_scale=args.time_scale or 0.02,
        )
    else:
        recording = run_bus_family(
            args.family, args.algorithm, seed=args.seed,
            time_scale=args.time_scale or 0.005,
        )
    out.write(
        f"live {args.runtime} run {args.family}/{args.algorithm} "
        f"seed {args.seed}: {len(recording['rows'])} rows, "
        f"t_end {recording['t_end']:.3f}\n"
    )
    if args.out:
        _write_recording(recording, args.out, out)
    if args.verify:
        return 0 if _verify_one(recording, args.out or "recording", out) else 1
    return 0


def cmd_live_verify(args, out) -> int:
    from repro.live import load_recording

    status = 0
    for path in args.files:
        with open(path) as stream:
            recording = load_recording(stream)
        if not _verify_one(recording, str(path), out):
            status = 1
    return status


def cmd_live_serve(args, out) -> int:
    from repro.live import serve

    out.write(
        f"serving live metrics on http://{args.host}:{args.port}/metrics\n"
    )
    recording = serve(
        args.family, args.algorithm, seed=args.seed,
        time_scale=args.time_scale or 0.05,
        host=args.host, port=args.port, duration=args.duration,
    )
    out.write(
        f"run finished: {len(recording['rows'])} rows, "
        f"t_end {recording['t_end']:.3f}\n"
    )
    if args.out:
        _write_recording(recording, args.out, out)
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Local mutual exclusion in MANETs (Kogan, ICDCS 2008) — "
                    "simulation CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list registered protocols")

    def add_common(p):
        p.add_argument("--topology", default="line:10",
                       help="line:N | grid:N | ring:N | random:N:WxH")
        p.add_argument("--radio-range", type=float, default=1.0)
        p.add_argument("--until", type=float, default=300.0,
                       help="virtual time to simulate")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--think", default="1.0:4.0",
                       help="think-time range lo:hi")
        p.add_argument("--nu", type=float, default=1.0,
                       help="max message delay")
        p.add_argument("--tau", type=float, default=1.0,
                       help="max eating time")
        p.add_argument("--movers", type=int, default=0,
                       help="first K nodes follow random waypoint")
        p.add_argument("--crash", action="append", default=[],
                       metavar="TIME:NODE", help="schedule a crash")
        p.add_argument("--report", default=None, metavar="OUT.json",
                       help="write the structured run report "
                            "(enables telemetry)")

    run_parser = sub.add_parser("run", help="run one simulation")
    add_common(run_parser)
    run_parser.add_argument("--algorithm", default="alg2",
                            choices=sorted(ALGORITHMS))
    run_parser.add_argument(
        "--metrics", default=None, metavar="OUT.prom",
        help="write the probe snapshot as OpenMetrics text "
             "(enables telemetry)",
    )
    run_parser.add_argument(
        "--watchdog", type=float, default=None, metavar="THRESHOLD",
        help="warn when a node stays hungry longer than this (virtual time)",
    )
    run_parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="spatial shards for the parallel engine (1 = classic engine)",
    )
    run_parser.add_argument(
        "--shard-workers", type=int, default=None, metavar="W",
        help="processes hosting the shards (default: min(shards, cpus))",
    )

    compare_parser = sub.add_parser("compare", help="compare protocols")
    add_common(compare_parser)
    compare_parser.add_argument(
        "--algorithms", nargs="+",
        default=["alg2", "alg1-greedy", "chandy-misra"],
    )

    locality_parser = sub.add_parser(
        "locality", help="crash probe with ASCII starvation strip"
    )
    locality_parser.add_argument("--nodes", type=int, default=13)
    locality_parser.add_argument("--until", type=float, default=600.0)
    locality_parser.add_argument("--seed", type=int, default=5)
    locality_parser.add_argument("--crash-time", type=float, default=20.0)
    locality_parser.add_argument(
        "--algorithms", nargs="+",
        default=["alg2", "alg1-linial", "chandy-misra"],
    )

    report_parser = sub.add_parser(
        "report", help="pretty-print one RunReport JSON, or diff two"
    )
    report_parser.add_argument(
        "files", nargs="+", metavar="REPORT.json",
        help="one file to summarize, two to diff (exit 1 when they differ)",
    )

    explore_parser = sub.add_parser(
        "explore", help="adversarial exploration: fuzz, replay, shrink"
    )
    explore_sub = explore_parser.add_subparsers(
        dest="explore_command", required=True
    )

    fuzz_parser = explore_sub.add_parser(
        "fuzz", help="run a seeded fuzz campaign (exit 1 on violations)"
    )
    fuzz_parser.add_argument("--algorithm", default="alg2",
                             choices=sorted(ALGORITHMS))
    fuzz_parser.add_argument("--runs", type=int, default=20)
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument("--strategy", default="random",
                             choices=["random", "pct"])
    fuzz_parser.add_argument("--workers", type=int, default=1,
                             help="process fan-out")
    fuzz_parser.add_argument("--out", default="repros", metavar="DIR",
                             help="directory for violation repro files")
    fuzz_parser.add_argument("--stop-on-first", action="store_true",
                             help="stop the campaign at the first violation")
    fuzz_parser.add_argument("--shrink", action="store_true",
                             help="delta-debug each violation before saving")
    fuzz_parser.add_argument("--max-replays", type=int, default=150,
                             help="shrink replay budget (with --shrink)")

    replay_parser = explore_sub.add_parser(
        "replay", help="re-run a repro file (exit 2 when it diverges)"
    )
    replay_parser.add_argument("file", metavar="REPRO.json")
    replay_parser.add_argument("--report", default=None, metavar="OUT.json",
                               help="save the replay's RunReport")

    shrink_parser = explore_sub.add_parser(
        "shrink", help="delta-debug a repro file to a minimal failing case"
    )
    shrink_parser.add_argument("file", metavar="REPRO.json")
    shrink_parser.add_argument("--out", default=None, metavar="OUT.json",
                               help="destination (default: <file>.min.json)")
    shrink_parser.add_argument("--max-replays", type=int, default=300)

    metrics_parser = sub.add_parser(
        "metrics", help="OpenMetrics export and scrape endpoint"
    )
    metrics_sub = metrics_parser.add_subparsers(
        dest="metrics_command", required=True
    )
    export_parser = metrics_sub.add_parser(
        "export", help="render a saved RunReport as OpenMetrics text"
    )
    export_parser.add_argument("file", metavar="REPORT.json")
    export_parser.add_argument("--out", default=None, metavar="OUT.prom",
                               help="destination (default: stdout)")
    serve_parser = metrics_sub.add_parser(
        "serve", help="serve a saved RunReport on /metrics "
                      "(re-read per scrape)"
    )
    serve_parser.add_argument("file", metavar="REPORT.json")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=9464)
    serve_parser.add_argument("--once", action="store_true",
                              help="serve a single request, then exit")

    bench_parser = sub.add_parser(
        "bench", help="append-only bench history and regression checks"
    )
    bench_sub = bench_parser.add_subparsers(
        dest="bench_command", required=True
    )
    append_parser = bench_sub.add_parser(
        "append", help="append a BENCH_core.json snapshot to the history"
    )
    append_parser.add_argument("--bench", default="BENCH_core.json",
                               metavar="BENCH.json")
    append_parser.add_argument("--history", default="BENCH_history.jsonl",
                               metavar="HISTORY.jsonl")
    history_parser = bench_sub.add_parser(
        "history", help="list the recorded bench runs"
    )
    history_parser.add_argument("--history", default="BENCH_history.jsonl",
                                metavar="HISTORY.jsonl")
    history_parser.add_argument("--last", type=int, default=0,
                                help="only show the last N records")
    check_parser = bench_sub.add_parser(
        "check", help="compare the newest record to the trailing median "
                      "(exit 1 on regression)"
    )
    check_parser.add_argument("--history", default="BENCH_history.jsonl",
                              metavar="HISTORY.jsonl")
    check_parser.add_argument("--floor", type=float, default=0.05,
                              help="minimum drift fraction that flags")
    check_parser.add_argument("--window", type=int, default=5,
                              help="trailing records forming the baseline")
    check_parser.add_argument("--report-only", action="store_true",
                              help="report regressions but exit 0")

    live_parser = sub.add_parser(
        "live", help="run the protocols over a real transport; "
                     "verify recordings through the sim oracle"
    )
    live_sub = live_parser.add_subparsers(dest="live_command", required=True)

    def add_live_scenario(p):
        p.add_argument("--family", default="static-line",
                       help="scenario family (see explore's generator pool)")
        p.add_argument("--algorithm", default="alg2",
                       choices=sorted(ALGORITHMS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--time-scale", type=float, default=None,
                       metavar="SECONDS",
                       help="wall seconds per virtual time unit")

    live_run = live_sub.add_parser(
        "run", help="record one live scenario run"
    )
    add_live_scenario(live_run)
    live_run.add_argument("--runtime", choices=("bus", "socket"),
                          default="bus",
                          help="in-process asyncio bus, or one OS process "
                               "per node over localhost TCP")
    live_run.add_argument("--out", default=None, metavar="RECORDING.json",
                          help="write the recorded event log")
    live_run.add_argument("--verify", action="store_true",
                          help="replay the recording in-sim immediately "
                               "(exit 1 when not clean)")

    live_verify = live_sub.add_parser(
        "verify", help="replay recordings in-sim under invariant monitors "
                       "(exit 1 when any is not clean)"
    )
    live_verify.add_argument("files", nargs="+", metavar="RECORDING.json")

    live_serve = live_sub.add_parser(
        "serve", help="run a bus scenario with a live /metrics endpoint"
    )
    add_live_scenario(live_serve)
    live_serve.add_argument("--host", default="127.0.0.1")
    live_serve.add_argument("--port", type=int, default=9464)
    live_serve.add_argument("--duration", type=float, default=None,
                            help="virtual-time horizon override")
    live_serve.add_argument("--out", default=None, metavar="RECORDING.json",
                            help="write the recorded event log")
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "--version":
        # Handled before argparse so the version lands on ``out`` (the
        # stock "version" action writes to stdout and exits).
        from repro import __version__

        out.write(f"repro {__version__}\n")
        return 0
    parser = build_parser()
    args = parser.parse_args(arguments)
    handlers = {
        "algorithms": cmd_algorithms,
        "run": cmd_run,
        "compare": cmd_compare,
        "locality": cmd_locality,
        "report": cmd_report,
        "explore": cmd_explore,
        "metrics": cmd_metrics,
        "bench": cmd_bench,
        "live": cmd_live,
    }
    try:
        return handlers[args.command](args, out)
    except FileNotFoundError as exc:
        out.write(f"error: {exc}\n")
        return 2
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
