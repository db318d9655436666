"""Shared fixtures for the benchmark suite.

Every benchmark prints the paper-style table it regenerates; the
``report`` fixture writes through pytest's capture so the tables appear
in ``bench_output.txt`` alongside pytest-benchmark's timing table.

``tests/`` goes on ``sys.path`` so benchmarks can time the production
code against the equivalence oracles in ``tests/oracles/``.
"""

import sys
from pathlib import Path

import pytest

_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)


@pytest.fixture
def report(capsys):
    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _report
