"""``tools/reach_audit.py``: the recorder, the ``ast`` naming, the
owner table and the report.

The recorder test uses a toy module with three functions: one called
in-process, one called only in a ``multiprocessing`` fork child (which
leaves through ``os._exit``, so a recorder that dumps at exit loses it)
and one never called.  The first two must be recorded and named
through ``ast`` — one of them sits under a decorator, whose line is
what the code object's first line points at — and the third must not.
The rest runs the naming, owner matching and rendering on toy trees,
and checks the owner table and the committed report against ``src/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import reach_audit  # noqa: E402

sys.path.remove(str(TOOLS))

TOY = '''\
class Box:
    @staticmethod
    def called_here():
        return 1


def called_in_child():
    return 2


def never_called():
    return 3
'''

SCRIPT = '''\
import multiprocessing
import sys

sys.path[:0] = [{tools!r}, {toy!r}]
import reach_audit

reach_audit.install({records!r}, {toy!r})
import toy

toy.Box.called_here()
child = multiprocessing.get_context("fork").Process(target=toy.called_in_child)
child.start()
child.join()
sys.exit(child.exitcode)
'''


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_recorder_sees_in_process_and_fork_child_calls(tmp_path):
    toy = tmp_path / "toy"
    toy.mkdir()
    (toy / "toy.py").write_text(TOY)
    records = tmp_path / "records"
    records.mkdir()
    script = SCRIPT.format(tools=str(TOOLS), toy=str(toy), records=str(records))
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)

    defs = reach_audit.functions(str(toy))
    assert sorted(fn.qualname for fn in defs.values()) == [
        "Box.called_here", "called_in_child", "never_called",
    ]
    reached = reach_audit.load(str(records), str(toy))
    assert sorted(defs[key].qualname for key in reached if key in defs) == [
        "Box.called_here", "called_in_child",
    ]


def _tree(tmp_path, **files):
    """Write ``name=source`` pairs as ``name.py`` under a fresh root."""
    root = tmp_path / "tree"
    root.mkdir()
    for name, source in files.items():
        (root / f"{name}.py").write_text(source)
    return root


def _by_name(defs):
    return {fn.qualname: fn for fn in defs.values()}


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------


def test_sitecustomize_records_every_python_process(tmp_path):
    # What a claim runs: a process that starts another one; both are
    # recorded through the generated sitecustomize, each to its own file.
    root = _tree(tmp_path, toy="def parent():\n    return 1\n\n\n"
                               "def child():\n    return 2\n")
    site = tmp_path / "site"
    site.mkdir()
    records = tmp_path / "records"
    records.mkdir()
    reach_audit.write_sitecustomize(str(site), str(records), str(root))
    script = (
        "import subprocess, sys, toy\n"
        "toy.parent()\n"
        "subprocess.run([sys.executable, '-c', 'import toy; toy.child()'],"
        " check=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=f"{site}{os.pathsep}{root}")
    subprocess.run([sys.executable, "-c", script], check=True, env=env,
                   timeout=60)

    assert len(list(records.glob("*.txt"))) == 2
    defs = reach_audit.functions(str(root))
    reached = reach_audit.load(str(records), str(root))
    assert all(path == "toy.py" for path, _ in reached)
    assert sorted(defs[key].qualname for key in reached) == ["child", "parent"]


def test_load_merges_process_files_and_ignores_others(tmp_path):
    root = tmp_path / "src"
    records = tmp_path / "records"
    records.mkdir()
    a = os.path.join(str(root), "pkg", "a.py")
    (records / "1-1.txt").write_text(f"{a}\t3\n{a}\t9\n")
    (records / "2-1.txt").write_text(f"{a}\t3\n")
    (records / "e2e.json").write_text("not a record")
    assert reach_audit.load(str(records), str(root)) == {
        (os.path.join("pkg", "a.py"), 3), (os.path.join("pkg", "a.py"), 9),
    }


# ----------------------------------------------------------------------
# Functions, named through ast
# ----------------------------------------------------------------------


def test_functions_names_nested_defs_and_links_their_parent(tmp_path):
    root = _tree(tmp_path, mod=(
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner\n"
        "\n"
        "\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        async def fetch(self):\n"
        "            return 2\n"
    ))
    defs = reach_audit.functions(str(root))
    by_name = _by_name(defs)
    assert sorted(by_name) == ["Outer.Inner.fetch", "outer",
                               "outer.<locals>.inner"]
    outer = by_name["outer"]
    assert (outer.first, outer.last, outer.parent) == (1, 4, None)
    inner = by_name["outer.<locals>.inner"]
    assert (inner.first, inner.last) == (2, 3)
    assert inner.parent == ("mod.py", 1)
    assert by_name["Outer.Inner.fetch"].parent is None


def test_functions_first_line_is_the_topmost_decorator(tmp_path):
    # co_firstlineno points at the first decorator, so the record key
    # must too, or a decorated function never matches its record.
    root = _tree(tmp_path, mod=(
        "import functools\n"
        "\n"
        "\n"
        "@functools.lru_cache()\n"
        "@staticmethod\n"
        "def cached():\n"
        "    return 1\n"
    ))
    (fn,) = reach_audit.functions(str(root)).values()
    assert (fn.qualname, fn.first, fn.last) == ("cached", 4, 7)


def test_functions_marks_only_protocol_members(tmp_path):
    root = _tree(tmp_path, mod=(
        "import typing\n"
        "from typing import Protocol\n"
        "\n"
        "\n"
        "class Bare(Protocol):\n"
        "    def send(self):\n"
        "        def helper():\n"
        "            pass\n"
        "\n"
        "\n"
        "class Dotted(typing.Protocol):\n"
        "    def now(self):\n"
        "        ...\n"
        "\n"
        "\n"
        "class Plain:\n"
        "    def run(self):\n"
        "        ...\n"
    ))
    protocol = {name: fn.protocol
                for name, fn in _by_name(reach_audit.functions(str(root))).items()}
    assert protocol == {
        "Bare.send": True,
        "Bare.send.<locals>.helper": False,
        "Dotted.now": True,
        "Plain.run": False,
    }


# ----------------------------------------------------------------------
# Owners
# ----------------------------------------------------------------------


def _fn(path, qualname, protocol=False):
    return reach_audit.Function(path, 1, 2, qualname, None, protocol)


@pytest.mark.parametrize("path, qualname, owned", [
    ("repro/obs/toy.py", "Toy.run", True),  # file scope
    ("repro/explore/schedule.py", "PCTStrategy", True),  # the scope itself
    ("repro/explore/schedule.py", "PCTStrategy._tie_break", True),  # member
    ("repro/obs/nest.py", "outer.<locals>.inner", True),  # nested def
    ("repro/explore/schedule.py", "PCTStrategyX.run", False),  # name prefix
    ("repro/explore/schedule.py", "RandomStrategy._tie_break", False),
    ("repro/obs/toyx.py", "run", False),  # file-name prefix
])
def test_owner_of_matches_whole_scopes_only(monkeypatch, path, qualname, owned):
    monkeypatch.setitem(reach_audit.OWNERS, "repro/obs/toy.py", "a whole file")
    monkeypatch.setitem(reach_audit.OWNERS,
                        "repro/obs/nest.py::outer.<locals>.inner", "a nested def")
    assert (reach_audit.owner_of(_fn(path, qualname)) is not None) is owned


def test_owner_of_a_protocol_member_is_an_interface():
    owner = reach_audit.owner_of(_fn("anywhere.py", "Port.send", protocol=True))
    assert owner == "interface: `typing.Protocol` member"


def test_every_owner_names_a_function_in_src():
    # An owner left behind by a deletion would silently keep nothing.
    names = {f"{fn.path}::{fn.qualname}"
             for fn in reach_audit.functions(str(reach_audit.SRC)).values()}
    unmatched = [
        scope for scope in reach_audit.OWNERS
        if not any(name == scope or name.startswith((scope + ".", scope + "::"))
                   for name in names)
    ]
    assert unmatched == []


# ----------------------------------------------------------------------
# Claims
# ----------------------------------------------------------------------

WORKFLOW_TOY = """\
      - name: Plain step
        run: python -m repro algorithms
      - name: First heredoc
        run: |
          PYTHONPATH=src:tests python - <<'EOF'
          import json
          if True:
              print(json.dumps({"a": 1}))
          EOF
      - name: Shell heredoc
        run: |
          cat <<'EOF'
          not python
          EOF
      - name: Second heredoc
        run: |
          PYTHONPATH=src python - <<'EOF'
          print("two")
          EOF
"""


def test_ci_python_steps_extracts_dedented_heredoc_bodies():
    assert reach_audit.ci_python_steps(WORKFLOW_TOY) == [
        'import json\nif True:\n    print(json.dumps({"a": 1}))\n',
        'print("two")\n',
    ]


def test_cli_claim_runs_every_python_step_of_ci():
    # The socket crash path runs only in one of these steps.
    steps = reach_audit.ci_python_steps(reach_audit.CI.read_text())
    assert any('"crashes"' in body and "run_socket" in body for body in steps)
    claim = reach_audit.claim_script("cli")
    assert all(body in claim for body in steps)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------

REPORT_TOY = (
    "def outer():\n"          # 1
    "    def inner():\n"      # 2
    "        return 1\n"      # 3
    "    return inner\n"      # 4
    "\n"
    "\n"
    "def claimed():\n"        # 7
    "    return 2\n"
    "\n"
    "\n"
    "def tested():\n"         # 11
    "    return 3\n"
    "\n"
    "\n"
    "def timed():\n"          # 15
    "    return 4\n"
    "\n"
    "\n"
    "def owned():\n"          # 19
    "    return 5\n"
)


@pytest.fixture
def report_toy(tmp_path, monkeypatch):
    monkeypatch.setattr(reach_audit, "OWNERS",
                        {"toy.py::owned": "the toy owner"})
    root = _tree(tmp_path, toy=REPORT_TOY)
    defs = reach_audit.functions(str(root))
    keys = {fn.qualname: key for key, fn in defs.items()}
    reached = {
        "e2e": {keys["claimed"]},
        "cli": set(),
        "paper": set(),
        "examples": set(),
        "micro": {keys["timed"]},
        "tier1": {keys["tested"], keys["owned"]},
    }
    return defs, reached


def _rows(report):
    return {line.split("` `")[1].split("`")[0]: line
            for line in report.splitlines() if line.startswith("| `")}


def test_render_folds_nested_defs_into_their_parent_row(report_toy):
    defs, reached = report_toy
    rows = _rows(reach_audit.render(defs, reached))
    assert sorted(rows) == ["outer", "owned", "tested", "timed"]
    assert rows["outer"].startswith("| `toy.py:1` `outer` | 4 |")


def test_render_keeps_only_what_an_owner_names(report_toy):
    # Reaching a function from tier-1 or the micro-benches alone does
    # not keep it; an owner does.
    defs, reached = report_toy
    rows = _rows(reach_audit.render(defs, reached))
    assert rows["tested"].endswith("| **delete** |")
    assert rows["timed"].endswith("| **delete** |")
    assert rows["outer"].endswith("| **delete** |")
    assert rows["owned"].endswith("| kept: the toy owner |")


def test_render_summary_counts(report_toy):
    defs, reached = report_toy
    report = reach_audit.render(defs, reached)
    assert "- `src/` defines 6 functions." in report
    assert ("- The claims reach 1; the 4 rows below are what they leave "
            "(10 lines, a nested def counted with the def around it).") in report
    assert ("- Reached by tier-1: 2 rows (4 lines); by the micro-benches "
            "only: 1; by nothing: 1 (4 lines).") in report
    assert "- Kept with an owner: 1; deletion candidates: 3." in report
    assert "- e2e ledger (`e2e`) reaches 1 functions." in report


def test_render_counts_only_defs_per_claim(report_toy):
    # Module bodies, lambdas and comprehensions are code objects too;
    # a claim's count holds only the defs among its records.
    defs, reached = report_toy
    reached["e2e"] |= {("toy.py", 8), ("other.py", 1)}
    report = reach_audit.render(defs, reached)
    assert "- e2e ledger (`e2e`) reaches 1 functions." in report
    assert "- The claims reach 1;" in report


def test_render_fails_on_an_owner_of_no_unreached_row(report_toy, monkeypatch):
    # An owner whose function a claim reaches keeps nothing; so does one
    # that names no function at all.
    defs, reached = report_toy
    monkeypatch.setitem(reach_audit.OWNERS, "toy.py::claimed", "stale")
    monkeypatch.setitem(reach_audit.OWNERS, "toy.py::gone", "stale too")
    with pytest.raises(SystemExit) as raised:
        reach_audit.render(defs, reached)
    assert str(raised.value) == (
        "OWNERS entries that keep no unreached function: "
        "['toy.py::claimed', 'toy.py::gone']"
    )
    # An owner of a nested def of an unreached def keeps nothing either:
    # the row is the def around it.
    monkeypatch.setattr(reach_audit, "OWNERS",
                        {"toy.py::outer.<locals>.inner": "folded"})
    with pytest.raises(SystemExit, match="inner"):
        reach_audit.render(defs, reached)


def _save_records(data, src, reached):
    for name in reach_audit.CLAIMS:
        (data / f"{name}.json").write_text(json.dumps(
            {"src": src, "reached": sorted(reached.get(name, ()))}))


def test_main_reuse_renders_saved_records_without_running_claims(
    tmp_path, monkeypatch
):
    # With one function reached, the real owners' nested scopes fold
    # into unreached parents and would keep nothing.
    monkeypatch.setattr(reach_audit, "OWNERS", {})
    data = tmp_path / "data"
    data.mkdir()
    defs = reach_audit.functions(str(reach_audit.SRC))
    _, key = min((fn.qualname, key) for key, fn in defs.items())
    _save_records(data, reach_audit.tree_digest(str(reach_audit.SRC)),
                  {"e2e": [key]})
    out = tmp_path / "report.md"
    assert reach_audit.main(["--data", str(data), "--reuse",
                             "--out", str(out)]) == 0
    report = out.read_text()
    assert f"- `src/` defines {len(defs)} functions." in report
    assert "- The claims reach 1;" in report
    assert "- e2e ledger (`e2e`) reaches 1 functions." in report
    assert "- tier-1 (`tier1`) reaches 0 functions." in report
    assert sorted(os.listdir(data)) == sorted(
        f"{name}.json" for name in reach_audit.CLAIMS)


def test_main_reuse_refuses_records_from_another_tree(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    _save_records(data, "0" * 64, {})
    out = tmp_path / "report.md"
    with pytest.raises(SystemExit, match="another src/ tree"):
        reach_audit.main(["--data", str(data), "--reuse", "--out", str(out)])
    assert not out.exists()


def test_tree_digest_follows_names_and_contents(tmp_path):
    root = _tree(tmp_path, a="x = 1\n")
    before = reach_audit.tree_digest(str(root))
    assert reach_audit.tree_digest(str(root)) == before
    (root / "a.py").write_text("\nx = 1\n")  # every line shifts by one
    shifted = reach_audit.tree_digest(str(root))
    assert shifted != before
    (root / "a.py").rename(root / "b.py")
    assert reach_audit.tree_digest(str(root)) not in (before, shifted)


def test_committed_report_has_no_deletion_candidates():
    report = (TOOLS.parent / "docs" / "reachability.md").read_text()
    assert "; deletion candidates: 0." in report
    assert "**delete**" not in report
