"""Append-only bench history and the BENCHMARK.json regression check."""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import pytest

from repro._version import __version__
from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.bench_history import (
    append_record,
    check_latest,
    git_commit,
    load_benchmark,
    load_history,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
PARENT = {
    "setup_s": 0.01,
    "run_wall_s": 3.0,
    "events_per_s": 60_000.0,
    "cs_entries_per_s": 700.0,
    "us_per_delivery": 15.0,
    "peak_rss_mb": 40.0,
}


def _micro(wall=1.0):
    return {"engine": {"run_seconds": wall, "events_per_second": 1000.0}}


def _ledger(workload=WORKLOADS[0], **scale):
    """An ``e2e_ledger`` section whose ``change`` medians equal the parent
    ones, except ``metric=factor`` on ``workload``."""
    section = {}
    for name in WORKLOADS:
        change = dict(PARENT)
        if name == workload:
            for metric, factor in scale.items():
                change[metric] = PARENT[metric] * factor
        section[name] = {"parent": dict(PARENT), "change": change}
    return {"e2e_ledger": section}


def _history(tmp_path, *runs):
    """A history of ``runs`` beside a copy of the repo's BENCHMARK.json."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    path = tmp_path / "hist.jsonl"
    for index, sections in enumerate(runs):
        append_record(
            path, sections,
            commit=f"c{index}", timestamp=f"t{index}", peak_rss_kb=1000,
        )
    return path


def _check(path):
    return check_latest(load_history(path), load_benchmark(path))


def _flagged(result):
    return {(r.workload, r.metric) for r in result.regressions}


# -- record plumbing ---------------------------------------------------------


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "hist.jsonl"
    record = append_record(
        path, _micro(), commit="abc", timestamp="now", peak_rss_kb=7
    )
    assert record["version"] == __version__
    assert record["git_commit"] == "abc"
    loaded = load_history(path)
    assert loaded == [record]
    append_record(path, _micro(wall=2.0), commit="def",
                  timestamp="later", peak_rss_kb=8)
    assert len(load_history(path)) == 2  # append-only: first survives


def test_append_defaults_stamp_provenance(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = append_record(tmp_path / "hist.jsonl", _micro())
    assert record["version"] == __version__
    assert record["peak_rss_kb"] is None or record["peak_rss_kb"] > 0
    assert record["timestamp"]


def test_git_commit_in_this_repo_and_outside(tmp_path):
    head = git_commit()
    assert head is None or len(head) == 40
    assert git_commit(tmp_path) is None


def test_load_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "hist.jsonl"
    path.write_text('{"sections": {}}\nnot json\n')
    with pytest.raises(ConfigurationError):
        load_history(path)
    path.write_text('[1, 2]\n')
    with pytest.raises(ConfigurationError):
        load_history(path)


def test_load_missing_file_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.jsonl") == []


# -- the BENCHMARK.json rule -------------------------------------------------


@pytest.mark.parametrize("factor, flagged", [(1.3, True), (1.2, False)])
def test_run_wall_growth_is_judged_by_its_bound(tmp_path, factor, flagged):
    result = _check(_history(tmp_path, _ledger(run_wall_s=factor)))
    assert result.checked == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert _flagged(result) == ({(WORKLOADS[0], "run_wall_s")} if flagged
                                else set())
    assert result.clean is not flagged


@pytest.mark.parametrize("factor, flagged", [(0.7, True), (1.3, False)])
def test_events_per_s_is_judged_in_its_direction(tmp_path, factor, flagged):
    result = _check(_history(tmp_path, _ledger(events_per_s=factor)))
    assert _flagged(result) == ({(WORKLOADS[0], "events_per_s")} if flagged
                                else set())
    if flagged:
        assert "fell 30.0%" in result.regressions[0].describe()


def test_peak_rss_has_its_own_bound(tmp_path):
    result = _check(_history(tmp_path, _ledger(peak_rss_mb=1.21)))
    assert _flagged(result) == {(WORKLOADS[0], "peak_rss_mb")}
    assert "bound 20.0%" in result.regressions[0].describe()


def test_a_later_micro_record_does_not_hide_the_ledger(tmp_path):
    path = _history(tmp_path, _ledger(run_wall_s=1.3), _micro(), _micro())
    result = _check(path)
    assert result.record["git_commit"] == "c0"
    assert _flagged(result) == {(WORKLOADS[0], "run_wall_s")}


def test_only_the_newest_ledger_is_judged(tmp_path):
    path = _history(tmp_path, _ledger(run_wall_s=2.0), _ledger())
    assert _check(path).clean


def test_a_declared_leaf_missing_from_the_record_fails(tmp_path):
    sections = _ledger()
    del sections["e2e_ledger"][WORKLOADS[1]]["change"]["us_per_delivery"]
    path = _history(tmp_path, sections)
    result = _check(path)
    assert result.missing == [f"{WORKLOADS[1]}.us_per_delivery"]
    assert not result.clean
    out = io.StringIO()
    assert main(["bench", "check", "--history", str(path)], out) == 1
    assert f"MISSING {WORKLOADS[1]}.us_per_delivery" in out.getvalue()


def test_an_absent_workload_misses_every_declared_metric(tmp_path):
    sections = _ledger()
    del sections["e2e_ledger"][WORKLOADS[-1]]
    result = _check(_history(tmp_path, sections))
    assert result.missing == [
        f"{WORKLOADS[-1]}.{m['name']}" for m in BENCHMARK["end_to_end"]
    ]
    assert result.checked == (len(WORKLOADS) - 1) * len(BENCHMARK["end_to_end"])


def test_an_undeclared_workload_is_not_judged(tmp_path):
    # A record may hold extra runs (another seed); only declared
    # workloads are judged.
    sections = _ledger()
    sections["e2e_ledger"][f"{WORKLOADS[0]}@seed2"] = {
        "parent": dict(PARENT),
        "change": dict(PARENT, run_wall_s=PARENT["run_wall_s"] * 2),
    }
    result = _check(_history(tmp_path, sections))
    assert result.clean
    assert result.checked == len(WORKLOADS) * len(BENCHMARK["end_to_end"])


# -- CLI ---------------------------------------------------------------------


def test_cli_check_on_the_repo_history_checks_every_declared_metric():
    out = io.StringIO()
    main(["bench", "check", "--history", str(ROOT / "BENCH_history.jsonl"),
          "--report-only"], out)
    expected = len(BENCHMARK["workloads"]) * len(BENCHMARK["end_to_end"])
    assert f"checked {expected} metric(s)" in out.getvalue()


def test_cli_check_exit_codes(tmp_path):
    path = _history(tmp_path, _ledger())
    out = io.StringIO()
    assert main(["bench", "check", "--history", str(path)], out) == 0
    assert "no regressions" in out.getvalue()

    append_record(path, _ledger(run_wall_s=2.0), commit="c9",
                  timestamp="t9", peak_rss_kb=1000)
    out = io.StringIO()
    assert main(["bench", "check", "--history", str(path)], out) == 1
    assert "REGRESSION" in out.getvalue()

    # Report-only mode names the regression but exits 0 (CI smoke).
    out = io.StringIO()
    assert main(
        ["bench", "check", "--history", str(path), "--report-only"], out,
    ) == 0
    assert "REGRESSION" in out.getvalue()


def test_cli_check_without_a_ledger_record_has_nothing_to_check(tmp_path):
    path = _history(tmp_path, _micro())
    out = io.StringIO()
    assert main(["bench", "check", "--history", str(path)], out) == 0
    assert "nothing to check" in out.getvalue()


def test_cli_check_without_a_benchmark_declaration_is_an_error(tmp_path):
    path = tmp_path / "hist.jsonl"
    append_record(path, _ledger(), commit="c", timestamp="t", peak_rss_kb=1)
    out = io.StringIO()
    assert main(["bench", "check", "--history", str(path)], out) == 2
    assert "BENCHMARK.json" in out.getvalue()


def test_cli_history_empty_and_last(tmp_path):
    history = tmp_path / "h.jsonl"
    out = io.StringIO()
    assert main(["bench", "history", "--history", str(history)], out) == 0
    assert "no records" in out.getvalue()
    for index in range(4):
        append_record(history, _micro(), commit=f"c{index}",
                      timestamp=f"t{index}", peak_rss_kb=1)
    out = io.StringIO()
    assert main(["bench", "history", "--history", str(history),
                 "--last", "2"], out) == 0
    assert "4 record(s)" in out.getvalue()
