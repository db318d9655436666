"""Tracer self-test on a toy three-class call chain.

    python3 benchmarks/e2e/selftest.py

``Outer.run`` calls ``Middle.step`` calls ``Inner.leaf``, each burning a
little CPU of its own.  Checks that the three layers' self times add up
to the outer span as timed from outside (within 1 %), that a subclass
override is traced under its base's name, and that ``restore`` leaves
every ``Class.__dict__`` exactly as it was.
"""

from __future__ import annotations

from time import perf_counter

from trace import Tracer


def _burn(seconds: float) -> None:
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        pass


class Inner:
    def leaf(self) -> None:
        _burn(0.004)


class LoudInner(Inner):
    def leaf(self) -> None:
        _burn(0.002)
        super().leaf()


class Middle:
    def __init__(self) -> None:
        self.inner = LoudInner()

    def step(self) -> None:
        _burn(0.003)
        self.inner.leaf()
        self.inner.leaf()


class Outer:
    def __init__(self) -> None:
        self.middle = Middle()

    def run(self) -> None:
        _burn(0.005)
        for _ in range(3):
            self.middle.step()


def run() -> None:
    """Raise AssertionError on any failed check."""
    classes = (Inner, LoudInner, Middle, Outer)
    before = [dict(vars(cls)) for cls in classes]
    tracer = Tracer()
    tracer.wrap(Outer, ("run",), "outer")
    tracer.wrap(Middle, ("step",), "middle")
    tracer.wrap(Inner, ("leaf",), "inner")
    try:
        outer = Outer()
        started = perf_counter()
        outer.run()
        wall = perf_counter() - started
    finally:
        tracer.restore()
    after = [dict(vars(cls)) for cls in classes]
    if before != after:
        raise AssertionError("restore() left a wrapper behind")

    layers = tracer.layers()
    total = sum(row["self_s"] for row in layers.values())
    if abs(total - wall) > 0.01 * wall:
        raise AssertionError(f"self times {total:.6f} != outer {wall:.6f}")
    # 3 steps x 2 leaves, each entering LoudInner.leaf then Inner.leaf.
    calls = {layer: row["calls"] for layer, row in layers.items()}
    if calls != {"outer": 1, "middle": 3, "inner": 12}:
        raise AssertionError(f"span counts {calls}")
    if tracer.calls_by_function() != {
        "Outer.run": 1, "Middle.step": 3, "Inner.leaf": 12,
    }:
        raise AssertionError(f"per-function {tracer.calls_by_function()}")
    expected = {"outer": 0.005, "middle": 0.009, "inner": 0.036}
    for layer, seconds in expected.items():
        if abs(layers[layer]["self_s"] - seconds) > 0.5 * seconds:
            raise AssertionError(
                f"{layer}: self {layers[layer]['self_s']:.4f}s, "
                f"burned {seconds}s"
            )
    print(f"tracer self-test ok: {total:.4f}s of {wall:.4f}s in spans")


if __name__ == "__main__":
    run()
