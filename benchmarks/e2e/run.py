#!/usr/bin/env python3
"""Whole-run ledger: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--trace]
                                  [--out FILE] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json [--exact]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                  --trace 0|1          # benchmark driver

Each workload runs in its own fresh child process, one repeat at a
time: the parent hands out repeats round-robin (A,B,C,D,A,B,...) so a
noisy stretch of the host lands on all workloads alike, and never runs
two children at once.  README.md describes workloads, metrics, bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WARMUPS = 1
REPEATS = 5
#: Untraced repeats a driver's ``--trace 1`` run takes first, as the
#: base of ``trace.overhead_ratio``.
TRACE_BASE_REPEATS = 2

#: Metrics the ledger keeps beyond BENCHMARK.json's ``end_to_end`` list
#: (which holds only what every workload, live included, can report).
#: Simulated-time metrics are deterministic per seed: 2 % is for a
#: change that means to alter the protocol, ``--exact`` for one that
#: does not.
LEDGER_ONLY = {
    "sim_response_p50": {"unit": "vt", "better": "lower", "bound": 0.02},
    "sim_response_p99": {"unit": "vt", "better": "lower", "bound": 0.02},
    "sim_msgs_per_cs": {"unit": "msgs", "better": "lower", "bound": 0.02},
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}
#: ``setup_s`` is milliseconds: below this absolute change it is noise.
SETUP_FLOOR_S = 0.005


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json's workload names and metric tables (by name)."""
    with open(ROOT / "BENCHMARK.json") as stream:
        spec = json.load(stream)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    end_to_end.update(LEDGER_ONLY)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": end_to_end,
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


# ----------------------------------------------------------------------
# Child side: one workload, repeats on request
# ----------------------------------------------------------------------
def child_main(name: str, seed: int, smoke: bool) -> int:
    """Serve ``run`` / ``trace`` requests from stdin until EOF."""
    sys.path.insert(0, str(SRC))
    import workloads
    from trace import Tracer

    workload = workloads.get(name, smoke)
    inputs = workload.build(seed)
    tracer = Tracer()
    for line in sys.stdin:
        if line.strip() == "trace":
            tracer.install()
            try:
                reply = workload.repeat(inputs, tracer)
            finally:
                tracer.restore()
        else:
            reply = workload.repeat(inputs)
        reply["peak_rss_mb"] = workloads.peak_rss_mb()
        print(json.dumps(reply), flush=True)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class Child:
    """One workload's process; idle between requests."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--child", name, "--seed", str(seed),
        ]
        if smoke:
            command.append("--smoke")
        self.name = name
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def ask(self, request: str) -> Dict[str, Any]:
        assert self.process.stdin and self.process.stdout
        self.process.stdin.write(request + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.name}: child exited with {self.process.wait()}"
            )
        return json.loads(line)

    def close(self) -> None:
        if self.process.stdin and not self.process.stdin.closed:
            try:
                self.process.stdin.close()  # EOF ends the child's loop
            except BrokenPipeError:
                pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout:
            self.process.stdout.close()


def measure(
    names: Sequence[str],
    seed: int,
    smoke: bool,
    repeats: int,
    traced: int,
    seconds: float = 0.0,
) -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
    """Warm up, then ``repeats`` untraced and ``traced`` traced repeats
    of each workload, interleaved by repeat.  With ``seconds``, the last
    phase keeps going until that much time has been measured."""
    replies: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"warmup": [], "run": [], "trace": []} for name in names
    }
    phases = [("warmup", 0 if smoke else WARMUPS), ("run", repeats),
              ("trace", traced)]
    last = max(i for i, (_, count) in enumerate(phases) if count)
    children: List[Child] = []
    try:
        children.extend(Child(name, seed, smoke) for name in names)
        started = time.perf_counter()
        for index, (phase, count) in enumerate(phases):
            if phase == "run":
                started = time.perf_counter()
            request = "trace" if phase == "trace" else "run"
            done = 0
            while done < count or (
                index == last and time.perf_counter() - started < seconds
            ):
                for child in children:
                    replies[child.name][phase].append(child.ask(request))
                done += 1
    finally:
        for child in children:
            child.close()
    return replies


def spread(values: List[float]) -> Dict[str, float]:
    """Median with quartiles and the sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values),
    }


def summarise(replies: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    """One workload's ledger entry from its repeats' replies."""
    everything = replies["warmup"] + replies["run"] + replies["trace"]
    errors = [error for reply in everything for error in reply["errors"]]
    # Same seed, same process, same inputs: any disagreement between
    # repeats (traced ones included) is non-determinism in src/.
    fingerprints = [r["fingerprint"] for r in everything if "fingerprint" in r]
    if any(fingerprint != fingerprints[0] for fingerprint in fingerprints):
        errors.append(f"repeats disagree: {fingerprints}")

    timed = [reply for reply in replies["run"] if "metrics" in reply]
    metrics: Dict[str, Dict[str, float]] = {}
    if timed:
        for metric in timed[0]["metrics"]:
            metrics[metric] = spread([r["metrics"][metric] for r in timed])
        metrics["peak_rss_mb"] = spread([timed[-1]["peak_rss_mb"]])
    attempted = sum(reply.get("attempted", 0) for reply in timed)
    failed = sum(reply.get("failed", 0) for reply in timed)

    layers: Dict[str, float] = {}
    traced = [reply["traced"] for reply in replies["trace"] if "traced" in reply]
    if traced and timed:
        for metric in traced[0]:
            layers[metric] = statistics.median(t[metric] for t in traced)
        layers["trace.overhead_ratio"] = layers.pop(
            "trace.wall_s"
        ) / statistics.median(reply["wall_s"] for reply in timed)
        # Shares sum to 1 by construction (the uncovered wall is sim's);
        # what can go wrong is spans that add up to more than the wall.
        for sample in traced:
            uncovered = sample["sim.other_self_s"] / sample["trace.wall_s"]
            if uncovered < -0.01:
                errors.append(
                    f"spans exceed the traced wall by {-uncovered:.2%}"
                )

    share = 1.0 if errors or not attempted else failed / attempted
    metrics["failed_share"] = spread([share])
    entry: Dict[str, Any] = {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "errors": errors,
    }
    if fingerprints:
        entry["sim_digest"] = fingerprints[0]["sim_digest"]
    if layers:
        entry["layers"] = layers
    return entry


def show(name: str, entry: Dict[str, Any], spec) -> None:
    print(f"\n{name}" + (
        f"  sim_digest={entry['sim_digest']}" if "sim_digest" in entry else ""
    ))
    for metric, row in entry["metrics"].items():
        unit = spec["end_to_end"][metric]["unit"]
        print(f"  {metric:<22}{row['median']:>16.6g} {unit:<6}"
              f" q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']}")
    print(f"  attempted={entry['attempted']} failed={entry['failed']}")
    for metric, value in entry.get("layers", {}).items():
        unit = spec["per_layer"][metric]["unit"]
        print(f"  {metric:<34}{value:>16.6g} {unit}")
    for error in entry["errors"]:
        print(f"  CHECK FAILED: {error}")


# ----------------------------------------------------------------------
# Comparing two ledgers
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, exact: bool) -> int:
    """Apply the bounds to B against A; 1 on any breach."""
    with open(path_a) as stream:
        ledger_a = json.load(stream)["workloads"]
    with open(path_b) as stream:
        ledger_b = json.load(stream)["workloads"]
    spec = load_spec()["end_to_end"]
    breaches = 0
    for name in ledger_a:
        if name not in ledger_b:
            continue
        entry_a, entry_b = ledger_a[name], ledger_b[name]
        print(name)
        if "sim_digest" in entry_a:
            same = entry_a["sim_digest"] == entry_b.get("sim_digest")
            print(f"  sim_digest {'identical' if same else 'DIFFERS'}")
            if exact and not same:
                breaches += 1
        for metric, row_a in entry_a["metrics"].items():
            row_b = entry_b["metrics"].get(metric)
            if row_b is None:
                continue
            a, b = row_a["median"], row_b["median"]
            rule = spec[metric]
            worse = (b - a) if rule["better"] == "lower" else (a - b)
            if metric == "failed_share":
                breach = worse > 0
            elif exact and metric.startswith("sim_"):
                breach = a != b
            else:
                breach = worse > rule["bound"] * abs(a)
                if metric == "setup_s":
                    breach = breach and worse > SETUP_FLOOR_S
            # A spread wider than the bound cannot resolve a change of
            # the bound's size: say so instead of calling it unchanged.
            noisy = any(
                row["q3"] - row["q1"] > rule["bound"] * abs(row["median"])
                for row in (row_a, row_b)
            ) and rule["bound"] > 0
            verdict = "BREACH" if breach else (
                "unresolved" if noisy else "ok"
            )
            change = (b - a) / a if a else 0.0
            print(f"  {metric:<22}{a:>14.6g} -> {b:<14.6g}"
                  f"{change:>+9.2%}  bound {rule['bound']:.0%}  {verdict}")
            breaches += breach
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=spec["workloads"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--seconds", type=float,
                        help="driver mode: measure this long, print one "
                             "JSON result as the last line")
    parser.add_argument("--out", help="write the ledger as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat, tracer self-test")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--exact", action="store_true",
                        help="with --compare: sim_digest and sim_* metrics "
                             "must be identical")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare[0], args.compare[1], args.exact)
    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child, args.seed, args.smoke)

    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        if args.trace:
            replies = measure([args.workload], args.seed, args.smoke,
                              TRACE_BASE_REPEATS, 1, args.seconds)
        else:
            replies = measure([args.workload], args.seed, args.smoke,
                              REPEATS, 0, args.seconds)
        entry = summarise(replies[args.workload])
        show(args.workload, entry, spec)
        if "run_wall_s" not in entry["metrics"]:
            return 1  # no repeat got as far as its metrics: errors only
        if args.trace:
            # The contract wants every per-layer name from every
            # workload; a layer a workload never enters measures 0.
            values = {name: entry["layers"].get(name, 0.0)
                      for name in spec["per_layer"]}
            table = spec["per_layer"]
        else:
            values = {name: entry["metrics"][name]["median"]
                      for name in spec["end_to_end"]
                      if name not in LEDGER_ONLY}
            table = spec["end_to_end"]
        print(json.dumps({
            "correct": not entry["errors"],
            "attempted": max(1, entry["attempted"]),
            "failed": entry["failed"],
            "metrics": {
                name: {"value": value, "unit": table[name]["unit"]}
                for name, value in values.items()
            },
        }))
        return 0

    ok = True
    if args.smoke:
        import selftest

        selftest.run()
    names = [args.workload] if args.workload else spec["workloads"]
    replies = measure(names, args.seed, args.smoke,
                      1 if args.smoke else REPEATS,
                      1 if args.trace or args.smoke else 0)
    ledger = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    for name in names:
        entry = ledger["workloads"][name] = summarise(replies[name])
        show(name, entry, spec)
        ok = ok and not entry["errors"] and not entry["failed"]
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(ledger, stream, indent=1, sort_keys=True)
            stream.write("\n")
    print("\nall checks passed" if ok else "\nCHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
