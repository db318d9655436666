#!/usr/bin/env python3
"""Which ``src/`` functions does each claim of this repository reach?

The paper's claims (safety, failure locality, response time) are
exercised by four kinds of runs: the e2e ledger, the CLI commands that
CI and the docs run, the EXPERIMENTS.md paper benchmarks and the
examples.  This tool runs each of them, plus the micro-benches and the
tier-1 suite, under a stdlib recorder, and writes one report row per
``src/`` function that none of the four claims reaches::

    python3 tools/reach_audit.py                        # all claims -> docs/reachability.md
    python3 tools/reach_audit.py --data /tmp/reach --reuse   # re-render from saved records

The recorder is ``sys.setprofile`` + ``threading.setprofile``, put into
every Python process of a claim by a generated ``sitecustomize`` on
``PYTHONPATH``, so e2e children, CLI subprocesses and fork children
are recorded too.  Two things it has to get right:

* A fork child (socket node processes, fuzz worker pools) leaves
  through ``os._exit``, so an ``atexit`` dump never
  runs.  Each function is written through to the record file the
  first time it is called.
* pytest-benchmark's fixture calls ``sys.setprofile(None)`` around every
  timed call, so the benchmarks run with ``--benchmark-disable``.

Records are keyed on (file, first line) and named through ``ast``:
``co_qualname`` only exists from Python 3.11 on.  Each claim's saved
records carry a digest of the ``src/`` tree they were recorded from;
``--reuse`` refuses records whose tree differs from the current one,
since shifted line numbers would credit or blame the wrong functions.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Key = Tuple[str, int]  # (path relative to the scanned root, first line)


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------


def install(out_dir: str, prefix: str) -> None:
    """Record every function under ``prefix`` the first time it is called.

    Lines ``<abs file>\\t<first line>`` go to a per-process file in
    ``out_dir`` with one unbuffered ``os.write`` each, so nothing is lost
    when the process ends through ``os._exit``.  A fork child inherits
    the descriptor and the seen set and appends only what is new to it.
    """
    prefix = os.path.abspath(prefix)
    path = os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}.txt")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    seen: Set[object] = set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(prefix):
            os.write(fd, f"{filename}\t{code.co_firstlineno}\n".encode())

    threading.setprofile(hook)
    sys.setprofile(hook)


def load(out_dir: str, root: str) -> Set[Key]:
    """Every (path relative to ``root``, first line) recorded in ``out_dir``."""
    root = os.path.abspath(root)
    reached: Set[Key] = set()
    for name in os.listdir(out_dir):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(out_dir, name)) as stream:
            for line in stream:
                filename, first = line.rstrip("\n").split("\t")
                reached.add((os.path.relpath(filename, root), int(first)))
    return reached


SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tools!r})
import reach_audit
sys.path.pop(0)
reach_audit.install({out!r}, {prefix!r})
"""


def write_sitecustomize(site_dir: str, out_dir: str, prefix: str) -> None:
    with open(os.path.join(site_dir, "sitecustomize.py"), "w") as stream:
        stream.write(SITECUSTOMIZE.format(
            tools=str(Path(__file__).resolve().parent),
            out=out_dir, prefix=prefix,
        ))


# ----------------------------------------------------------------------
# Functions defined under a root, named through ast
# ----------------------------------------------------------------------


class Function(NamedTuple):
    path: str  # relative to the scanned root
    first: int  # co_firstlineno: the first decorator, else the def
    last: int
    qualname: str
    parent: Optional[Key]  # enclosing function, for nested defs
    protocol: bool  # a member of a typing.Protocol class


def functions(root: str) -> Dict[Key, Function]:
    """Every ``def`` in the ``.py`` files under ``root``, by record key."""
    found: Dict[Key, Function] = {}

    def visit(node, path, prefix, parent, protocol):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                is_protocol = any(
                    (isinstance(b, ast.Name) and b.id == "Protocol")
                    or (isinstance(b, ast.Attribute) and b.attr == "Protocol")
                    for b in child.bases
                )
                visit(child, path, f"{prefix}{child.name}.", parent, is_protocol)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (path, first)
                found[key] = Function(
                    path, first, child.end_lineno, prefix + child.name,
                    parent, protocol,
                )
                visit(child, path, f"{prefix}{child.name}.<locals>.", key, False)
            else:
                visit(child, path, prefix, parent, protocol)

    for file in sorted(Path(root).rglob("*.py")):
        path = str(file.relative_to(root))
        visit(ast.parse(file.read_text(), str(file)), path, "", None, False)
    return found


def tree_digest(root: str) -> str:
    """Digest of the names and contents of the ``.py`` files under ``root``."""
    digest = hashlib.sha256()
    for file in sorted(Path(root).rglob("*.py")):
        digest.update(str(file.relative_to(root)).encode() + b"\0")
        digest.update(file.read_bytes() + b"\0")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Claims
# ----------------------------------------------------------------------

# Each claim is one bash script run from the repo root with ``$T`` a
# scratch directory and ``$PORT`` a free localhost port.  The CLI claim
# mirrors ci.yml: its commands, writing into ``$T/ci`` under CI's own
# file names, then the bodies of its ``python - <<'EOF'`` steps, read
# from ci.yml and run in ``$T/ci`` as CI runs them in its workspace.
# Then it runs the commands the docs show, writing into ``$T``.
PYTEST = "python -m pytest -q -p no:cacheprovider"
CI = ROOT / ".github" / "workflows" / "ci.yml"


def ci_python_steps(text: str) -> List[str]:
    """The bodies of a workflow's ``python - <<'EOF'`` steps, dedented."""
    bodies: List[str] = []
    body: Optional[List[str]] = None
    for line in text.splitlines():
        if body is None:
            if line.rstrip().endswith("python - <<'EOF'"):
                body = []
        elif line.strip() == "EOF":
            bodies.append(textwrap.dedent("\n".join(body)) + "\n")
            body = None
        else:
            body.append(line)
    return bodies


#: The line of the ``cli`` claim that :func:`claim_script` replaces with
#: ci.yml's python steps (read when a claim runs, not at import: every
#: recorded process imports this module).
CI_STEPS = "# ci.yml python steps\n"


def claim_script(name: str) -> str:
    """One claim's bash script, with ci.yml's python steps in place."""
    # CI runs them with PYTHONPATH=src, plus tests/ for its helpers.
    steps = "".join(
        f"(cd $T/ci && PYTHONPATH=$PYTHONPATH:{ROOT / 'tests'} "
        f"python - <<'EOF'\n{body}EOF\n)\n"
        for body in ci_python_steps(CI.read_text())
    )
    return CLAIMS[name][1].replace(CI_STEPS, steps)


CLAIMS: Dict[str, Tuple[str, str]] = {
    "e2e": ("e2e ledger", "python3 benchmarks/e2e/run.py --smoke"),
    "cli": ("CI / docs CLI", r"""
# ci.yml
mkdir -p $T/ci/live-logs
python -m repro bench history --last 5
python -m repro bench check --report-only
python -m repro run --topology line:8 --until 300 --seed 0 --algorithm alg2 \
    --crash 30:4 --watchdog 25 --report $T/ci/sample_run_report.json \
    --metrics $T/ci/sample_run_metrics.prom
python -m repro report $T/ci/sample_run_report.json
python -m repro run --topology grid:400 --algorithm alg2 --until 60 --movers 4 \
    --report $T/ci/mobile_run_report.json
for algorithm in alg2 alg1-greedy alg1-linial; do
    python -m repro explore fuzz --algorithm $algorithm --runs 20 --seed 0 \
        --workers 2 --shrink --out $T/clean
done
for algorithm in alg2-nonotify alg1-noreturn alg1-nodoorway; do
    if python -m repro explore fuzz --algorithm $algorithm --runs 12 --seed 1 \
            --stop-on-first --out $T/repros; then
        exit 1
    fi
done
python -m repro live run --runtime bus --family fig6 --algorithm alg1-greedy \
    --seed 0 --out $T/ci/live-logs/bus-fig6.json
python -m repro live serve --port $PORT --duration 2 --out $T/serve.json
# ci.yml python steps
python -m repro live verify $T/ci/live-logs/bus-fig6.json \
    $T/ci/live-logs/socket-line.json $T/serve.json
if python -m repro live verify $T/ci/live-logs/bus-fig6-tampered.json; then
    exit 1
fi
# README.md
python -m repro algorithms
python -m repro run --topology grid:25 --algorithm alg2 --until 300 --movers 4
python -m repro compare --topology line:13 --algorithms alg2 chandy-misra oracle
python -m repro locality --nodes 13
python -m repro live run --runtime socket --family static-line --algorithm alg2 \
    --verify
# docs/observability.md
python -m repro run --topology line:8 --report $T/out.json
python -m repro compare --topology line:8 --report $T/cmp.json
if python -m repro report $T/ci/sample_run_report.json $T/out.json; then exit 1; fi
python -m repro metrics serve $T/ci/sample_run_report.json --port $PORT --once &
python - <<EOF
import time, urllib.request
for _ in range(100):
    try:
        urllib.request.urlopen("http://127.0.0.1:$PORT/metrics").read()
        break
    except OSError:
        time.sleep(0.1)
EOF
wait
# docs/exploration.md
repro=$(ls $T/repros/alg2-nonotify-*.json | head -1)
python -m repro explore shrink $repro --out $T/min.json
python -m repro explore replay $T/min.json
"""),
    "paper": ("paper benches", f"{PYTEST} benchmarks --benchmark-disable -m 'not perf and not fuzz'"),
    "examples": ("examples", "for example in examples/*.py; do python $example > /dev/null; done"),
    "micro": ("micro-benches", f"{PYTEST} benchmarks/test_perf_core.py --benchmark-disable -m perf"),
    "tier1": ("tier-1", f"{PYTEST} tests -x"),
}
CLAIMED = ("e2e", "cli", "paper", "examples")  # micro and tier1 are not claims


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run_claim(name: str, data_dir: str) -> Set[Key]:
    """Run one claim under the recorder; save and return what it reached."""
    records = os.path.join(data_dir, name)
    shutil.rmtree(records, ignore_errors=True)
    os.makedirs(records)
    src = tree_digest(str(SRC))
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as scratch:
        write_sitecustomize(site, records, str(SRC))
        env = dict(os.environ, PYTHONPATH=f"{site}:{SRC}", T=scratch,
                   PORT=str(free_port()))
        env.pop("REPRO_WRITE_BENCH", None)
        started = time.perf_counter()
        done = subprocess.run(
            ["bash", "-euo", "pipefail", "-c", claim_script(name)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        if done.returncode != 0:
            sys.exit(f"claim {name!r} failed with exit {done.returncode}")
    reached = load(records, str(SRC))
    with open(os.path.join(data_dir, f"{name}.json"), "w") as stream:
        json.dump({"src": src, "reached": sorted(reached)}, stream)
    print(f"{name}: {len(reached)} code objects in "
          f"{time.perf_counter() - started:.0f} s", file=sys.stderr)
    return reached


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------

# What keeps a function that no claim reaches: a file, a class or a
# function, written "path" or "path::qualname" (which covers what is
# nested in it).  Everything unmatched is a deletion candidate.
INTERFACE = "interface: base-class default or an override of one"
FAULT = "fault path: runs only on a peer loss, crash, violation or regression"
MECHANICS = "data-structure mechanics for loads the claims do not reach"
ORACLE = "oracle seam: a test oracle in tests/oracles/ works through it"

OWNERS: Dict[str, str] = {
    "repro/core/messages.py::GraphExchange.__reduce__":
        "live/ sockets: masks never cross a process raw",
    "repro/core/coloring/greedy.py::graph_exchange":
        "live/ sockets (`GraphExchange.__reduce__`)",
    "repro/explore/schedule.py::PCTStrategy": "ROADMAP Table 1 item (PCT campaigns)",
    "repro/core/ablations.py::Algorithm1SelfOrganizing":
        "DESIGN.md Chapter 7 extension (`alg1-selforg`, README algorithm list)",
    "repro/runtime/registry.py::_alg1_selforg":
        "DESIGN.md Chapter 7 extension (`alg1-selforg`, README algorithm list)",
    "repro/core/base.py::LocalMutexAlgorithm": INTERFACE,
    "repro/core/algorithm2.py::Algorithm2.bootstrap_peer": INTERFACE,
    "repro/core/ablations.py::Algorithm2NoNotify._on_notification":
        INTERFACE + " (what the `alg2-nonotify` ablation removes)",
    "repro/baselines/centralized.py::CentralizedOracle.on_message": INTERFACE,
    "repro/core/doorway_harness.py::DoorwayAlgorithm": INTERFACE,
    "repro/core/coloring/session.py::ColoringSession": INTERFACE,
    "repro/core/coloring/session.py::ColoringProcedure": INTERFACE,
    "repro/core/coloring/greedy.py::GreedyColoring.max_color": INTERFACE,
    "repro/core/coloring/randomized.py::RandomizedColoring.max_color": INTERFACE,
    "repro/explore/schedule.py::ControlledScheduler": INTERFACE,
    "repro/explore/schedule.py::ReplaySchedule._tie_break":
        INTERFACE + " (replays of recorded tie decisions)",
    "repro/explore/monitors.py::InvariantMonitor.check": INTERFACE,
    "repro/mobility/base.py::MobilityModel.next_episode": INTERFACE,
    "repro/mobility/static.py::StaticMobility.next_episode": INTERFACE,
    "repro/obs/registry.py::_Instrument.snapshot": INTERFACE,
    "repro/live/runtime.py::LiveTimerHandle": INTERFACE + " (`TimerHandle`)",
    "repro/errors.py::SafetyViolation": FAULT,
    "repro/baselines/token_mutex.py::RaymondToken.on_link_up":
        FAULT + " (rejects a topology change)",
    "repro/baselines/token_mutex.py::RaymondToken.on_link_down":
        FAULT + " (rejects a topology change)",
    "repro/live/socket_transport.py::backoff_delays": FAULT,
    "repro/live/socket_transport.py::SocketTransport._peer_lost": FAULT,
    "repro/live/socket_transport.py::SocketTransport._reconnect": FAULT,
    "repro/live/socket_transport.py::SocketTransport._link_restored": FAULT,
    "repro/live/node.py::LiveProbes.note_link_down": FAULT,
    "repro/live/node.py::LiveProbes.note_reconnect": FAULT,
    "repro/live/linklayer.py::_noop": FAULT + " (the live drop record)",
    "repro/explore/monitors.py::_lower": FAULT,
    "repro/explore/monitors.py::PriorityMonitor._scan_order_cycle": FAULT,
    "repro/explore/shrink.py::shrink_repro.<locals>.test_crashes":
        FAULT + " (shrinking a repro that holds crashes)",
    "repro/obs/bench_history.py::append_record":
        "the `REPRO_WRITE_BENCH=1` sink of `benchmarks/test_perf_core.py`,"
        " which CI's perf step runs",
    "repro/mobility/kinetic.py::KineticEngine._freeze":
        FAULT + " (a mover stopped or crashed mid-flight)",
    "repro/mobility/kinetic.py::KineticEngine._compact_examined": MECHANICS,
    "repro/sim/schedqueue.py::LadderQueue._spill_bottom": MECHANICS,
    "repro/sim/schedqueue.py::LadderQueue._sweep": MECHANICS,
    "repro/sim/events.py::ScheduledEvent.__lt__":
        ORACLE + " (the heap queue orders events by it)",
    "repro/core/coloring/greedy.py::greedy_color_graph":
        ORACLE + " (the set-of-tuples greedy session colours through it)",
    "repro/explore/monitors.py::InvariantMonitor.spec":
        ORACLE + " (the whole-network scans are built from it)",
    "repro/net/topology.py::DynamicTopology.links":
        ORACLE + " (the grid and the all-pairs scan are compared through it)",
    "repro/net/topology.py::DynamicTopology.add_node":
        ORACLE + " (the grid and the all-pairs scan grow one arrival at a time through it)",
    "repro/net/topology.py::DynamicTopology._grid_insert":
        ORACLE + " (the grid side of `add_node`)",
    "repro/mobility/base.py::MobilityController.move_node":
        ORACLE + " (the kinetic engine and the fixed-step walk are driven through it)",
    "repro/mobility/base.py::MobilityController.position_now":
        ORACLE + " (the fixed-step walk inherits it; the link-graph ground truth reads it)",
    "repro/sim/timers.py::Timer.pending": INTERFACE + " (`TimerHandle.pending`)",
}


def in_scope(fn: Function, scope: str) -> bool:
    name = f"{fn.path}::{fn.qualname}"
    return name == scope or name.startswith((scope + ".", scope + "::"))


def owner_of(fn: Function) -> Optional[str]:
    if fn.protocol:
        return "interface: `typing.Protocol` member"
    for scope, owner in OWNERS.items():
        if in_scope(fn, scope):
            return owner
    return None


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def render(defs: Dict[Key, Function], reached: Dict[str, Set[Key]]) -> str:
    claimed = set().union(*(reached[c] for c in CLAIMED))
    unreached = {k for k in defs if k not in claimed}
    # A def nested in an unreached def goes with it.
    rows = sorted(k for k in unreached if defs[k].parent not in unreached)

    def lines(keys):
        return sum(defs[k].last - defs[k].first + 1 for k in keys)

    # An owner of no row keeps nothing: the claims reach what it names.
    stale = [scope for scope in OWNERS
             if not any(in_scope(defs[k], scope) for k in rows)]
    if stale:
        sys.exit(f"OWNERS entries that keep no unreached function: {stale}")

    tier1 = reached["tier1"]
    micro = reached["micro"]
    tier1_only = [k for k in rows if k in tier1]
    nothing = [k for k in rows if k not in tier1 and k not in micro]
    kept = [k for k in rows if owner_of(defs[k])]
    out = [
        "# Reachability of `src/` from the paper's claims",
        "",
        "Generated by `python3 tools/reach_audit.py`; do not edit by hand.",
        "",
        "A claim is a run that exercises what the paper claims: the e2e",
        "ledger (`benchmarks/e2e/run.py --smoke`), the CLI commands that CI",
        "and the docs run, the EXPERIMENTS.md paper benchmarks and the",
        "examples.  The micro-benches (`benchmarks/test_perf_core.py`) and",
        "the tier-1 suite are recorded too, but reaching a function from",
        "them alone does not keep it: it must name the ROADMAP item or the",
        "claim that owns it.",
        "",
        f"- `src/` defines {len(defs)} functions.",
        f"- The claims reach {len(defs) - len(unreached)}; the "
        f"{len(rows)} rows below are what they leave ({lines(rows)} lines, "
        "a nested def counted with the def around it).",
        f"- Reached by tier-1: {len(tier1_only)} rows ({lines(tier1_only)} lines); "
        f"by the micro-benches only: "
        f"{len([k for k in rows if k in micro and k not in tier1])}; "
        f"by nothing: {len(nothing)} ({lines(nothing)} lines).",
        f"- Kept with an owner: {len(kept)}; deletion candidates: "
        f"{len(rows) - len(kept)}.",
        "",
    ]
    for name in CLAIMS:
        out.append(f"- {CLAIMS[name][0]} (`{name}`) reaches "
                   f"{len(reached[name] & defs.keys())} functions.")
    columns = list(CLAIMS)
    out += [
        "",
        "| function | lines | " + " | ".join(columns) + " | verdict |",
        "|---|---:|" + "---|" * len(columns) + "---|",
    ]
    for key in rows:
        fn = defs[key]
        marks = ["✓" if key in reached[c] else "" for c in columns]
        owner = owner_of(fn)
        verdict = f"kept: {owner}" if owner else "**delete**"
        out.append(
            f"| `{fn.path}:{fn.first}` `{fn.qualname}` | "
            f"{fn.last - fn.first + 1} | " + " | ".join(marks) + f" | {verdict} |"
        )
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", default=None, metavar="DIR",
                        help="keep the raw records here (default: a temp dir)")
    parser.add_argument("--reuse", action="store_true",
                        help="re-render from the records already in --data "
                             "(a claim with none is run)")
    parser.add_argument("--out", default=str(ROOT / "docs" / "reachability.md"))
    args = parser.parse_args(argv)

    data_dir = args.data or tempfile.mkdtemp(prefix="reach-")
    os.makedirs(data_dir, exist_ok=True)
    src = tree_digest(str(SRC))
    reached: Dict[str, Set[Key]] = {}
    for name in CLAIMS:
        saved = os.path.join(data_dir, f"{name}.json")
        if args.reuse and os.path.exists(saved):
            with open(saved) as stream:
                record = json.load(stream)
            if record["src"] != src:
                sys.exit(f"{saved} was recorded from another src/ tree; "
                         "run without --reuse")
            reached[name] = {tuple(k) for k in record["reached"]}
        else:
            reached[name] = run_claim(name, data_dir)
    with open(args.out, "w") as stream:
        stream.write(render(functions(str(SRC)), reached))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
