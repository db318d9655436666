"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main, parse_crash, parse_range, parse_topology
from repro.errors import ConfigurationError


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_parse_topology_variants():
    line, span = parse_topology("line:5")
    assert len(line) == 5 and span == 5.0
    grid, _ = parse_topology("grid:9")
    assert len(grid) == 9
    ring, _ = parse_topology("ring:6")
    assert len(ring) == 6
    rand, span = parse_topology("random:7:4x3")
    assert len(rand) == 7 and span == 4.0
    for p in rand:
        assert 0 <= p.x <= 4 and 0 <= p.y <= 3


def test_parse_topology_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_topology("blob:5")
    with pytest.raises(ConfigurationError):
        parse_topology("line:x")
    with pytest.raises(ConfigurationError):
        parse_topology("random:5")


def test_parse_range_and_crash():
    assert parse_range("1.5:3") == (1.5, 3.0)
    assert parse_range("2") == (2.0, 2.0)
    assert parse_crash("10:3") == (10.0, 3)
    with pytest.raises(ConfigurationError):
        parse_range("a:b")
    with pytest.raises(ConfigurationError):
        parse_crash("10")


def test_algorithms_lists_registry():
    code, output = run_cli("algorithms")
    assert code == 0
    for name in ("alg2", "alg1-greedy", "alg1-linial", "chandy-misra",
                 "oracle", "alg2-nonotify"):
        assert name in output


def test_run_produces_summary():
    code, output = run_cli(
        "run", "--topology", "line:4", "--until", "50",
        "--algorithm", "alg2",
    )
    assert code == 0
    assert "cs entries" in output
    assert "starved" in output


def test_run_with_crash():
    code, output = run_cli(
        "run", "--topology", "line:5", "--until", "60",
        "--algorithm", "alg2", "--crash", "10:2",
    )
    assert code == 0
    assert "cs entries" in output


def test_compare_table():
    code, output = run_cli(
        "compare", "--topology", "line:4", "--until", "40",
        "--algorithms", "alg2", "oracle",
    )
    assert code == 0
    assert "alg2" in output and "oracle" in output


def test_locality_strip():
    code, output = run_cli(
        "locality", "--nodes", "7", "--until", "150",
        "--algorithms", "alg2",
    )
    assert code == 0
    assert "[" in output and "X" in output


def test_unknown_algorithm_is_a_clean_error():
    code, output = run_cli(
        "compare", "--topology", "line:4", "--until", "10",
        "--algorithms", "nope",
    )
    assert code == 2
    assert "error:" in output


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------


def test_run_report_round_trips(tmp_path):
    from repro.obs.report import RunReport

    path = tmp_path / "run.json"
    code, output = run_cli(
        "run", "--topology", "line:4", "--until", "50",
        "--algorithm", "alg2", "--report", str(path),
    )
    assert code == 0
    assert str(path) in output
    report = RunReport.load(path)
    assert report.config["algorithm"] == "alg2"
    assert report.probes, "telemetry is implied by --report"
    assert RunReport.from_json(report.to_json()).to_dict() == report.to_dict()


def test_run_with_movers_moves_nodes_kinetically(tmp_path):
    from repro.obs.report import RunReport

    path = tmp_path / "run.json"
    code, output = run_cli(
        "run", "--topology", "grid:16", "--until", "60",
        "--algorithm", "alg2", "--movers", "4", "--report", str(path),
    )
    assert code == 0
    assert "cs entries" in output
    report = RunReport.load(path)
    assert report.probes["mobility.updates"]["by_key"]["arrival"] > 0
    assert report.probes["mobility.crossings"]["value"] > 0
    # The report says what moved: grid:16 spans a 4x4 arena.
    assert report.config["mobility"] == [{
        "kind": "waypoint", "nodes": [0, 1, 2, 3],
        "params": {"width": 4.0, "height": 4.0, "speed_range": [0.5, 1.2],
                   "pause_range": [5.0, 20.0]},
    }]


def test_run_watchdog_prints_warnings(tmp_path):
    code, output = run_cli(
        "run", "--topology", "line:8", "--until", "300", "--seed", "0",
        "--algorithm", "alg2", "--crash", "30:4", "--watchdog", "25",
        "--report", str(tmp_path / "r.json"),
    )
    assert code == 0
    assert "warning: node" in output


def test_report_subcommand_summarizes_one_file(tmp_path):
    path = tmp_path / "run.json"
    run_cli("run", "--topology", "line:4", "--until", "40",
            "--algorithm", "alg2", "--report", str(path))
    code, output = run_cli("report", str(path))
    assert code == 0
    assert "schema v" in output
    assert "cs entries" in output


def test_report_subcommand_diffs_two_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("run", "--topology", "line:4", "--until", "40", "--seed", "1",
            "--algorithm", "alg2", "--report", str(a))
    run_cli("run", "--topology", "line:4", "--until", "40", "--seed", "2",
            "--algorithm", "alg2", "--report", str(b))

    code, output = run_cli("report", str(a), str(a))
    assert code == 0 and "identical" in output

    code, output = run_cli("report", str(a), str(b))
    assert code == 1
    assert "leaves differ" in output
    assert "config.seed" in output


def test_report_subcommand_rejects_three_files(tmp_path):
    code, output = run_cli("report", "x.json", "y.json", "z.json")
    assert code == 2 and "error:" in output


def test_report_subcommand_missing_file_is_clean_error(tmp_path):
    code, output = run_cli("report", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in output


def test_compare_report_keyed_by_algorithm(tmp_path):
    import json as json_mod

    path = tmp_path / "cmp.json"
    code, output = run_cli(
        "compare", "--topology", "line:4", "--until", "40",
        "--algorithms", "alg2", "oracle", "--report", str(path),
    )
    assert code == 0
    data = json_mod.loads(path.read_text())
    assert set(data) == {"alg2", "oracle"}
    for payload in data.values():
        assert payload["schema_version"] >= 1


# ----------------------------------------------------------------------
# metrics export / serve
# ----------------------------------------------------------------------


def test_run_metrics_writes_openmetrics(tmp_path):
    from helpers import parse_openmetrics

    path = tmp_path / "run.prom"
    code, output = run_cli(
        "run", "--topology", "line:4", "--until", "50",
        "--algorithm", "alg2", "--metrics", str(path),
    )
    assert code == 0
    assert str(path) in output
    families = parse_openmetrics(path.read_text())
    assert any(name.startswith("repro_alg2_") for name in families), (
        "telemetry is implied by --metrics"
    )


def test_metrics_export_renders_saved_report(tmp_path):
    from helpers import parse_openmetrics

    report = tmp_path / "run.json"
    run_cli("run", "--topology", "line:4", "--until", "50",
            "--report", str(report))
    code, output = run_cli("metrics", "export", str(report))
    assert code == 0
    parse_openmetrics(output)
    prom = tmp_path / "run.prom"
    code, output = run_cli(
        "metrics", "export", str(report), "--out", str(prom)
    )
    assert code == 0
    parse_openmetrics(prom.read_text())


def test_metrics_export_missing_file_is_clean_error(tmp_path):
    code, output = run_cli("metrics", "export", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error" in output


def test_metrics_serve_once_answers_a_scrape(tmp_path):
    """As its own process (the way CI and the docs run it) the server
    announces its URL at once on a piped stdout, and finishes the answer
    before exiting: the handler thread is not left to die with the
    interpreter."""
    import os
    import select
    import subprocess
    import sys
    import urllib.request
    from pathlib import Path

    from helpers import parse_openmetrics

    report = tmp_path / "run.json"
    run_cli("run", "--topology", "line:4", "--until", "50",
            "--report", str(report))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    # A buffered stdout, as on a stock runner: the URL must be flushed.
    env.pop("PYTHONUNBUFFERED", None)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "metrics", "serve", str(report),
         "--port", "0", "--once"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        # Port 0 never collides; the announced URL carries the real port.
        ready, _, _ = select.select([server.stdout], [], [], 30)
        assert ready, "no URL line within 30 s"
        url = server.stdout.readline().split()[-1]
        body = urllib.request.urlopen(url, timeout=30).read().decode()
        assert server.wait(timeout=30) == 0
    finally:
        server.kill()
        server.wait()
    assert parse_openmetrics(body)
