"""Scheduler equivalence: the ladder queue vs the heap oracle.

The ladder scheduler is only allowed to exist because it is
bit-identical to the binary heap (tests/oracles/heap_queue.py).  These
tests drive both through randomized schedules (cancellations, retimes,
same-instant tie groups under a ControlledScheduler) and require the
*exact* execution sequence to match, drive both queues' ``pop_due``
directly with random cut-offs and cancelled heads, then
poke the ladder's own mechanics (rung spills, bottom spill, sweep)
directly.
"""

import math
import random

import pytest

from oracles.heap_queue import HeapQueue, heap_simulator
from repro.explore.schedule import RandomStrategy
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.schedqueue import _BOTTOM_LIMIT, LadderQueue


# ----------------------------------------------------------------------
# Randomized equivalence property
# ----------------------------------------------------------------------


def _drive(sim: Simulator, seed: int):
    """One deterministic pseudo-random workload against ``sim``.

    Mixes schedules, clustered timestamps (tie groups), cancellations,
    retimes, in-callback scheduling, and chunked run() calls.  Returns
    the execution log.
    """
    rng = random.Random(seed)
    log = []
    # Handles are kept past their firing; a fired one reads cancelled.
    live = []

    def fire(label):
        log.append((sim.now, label))
        # Reentrant scheduling from inside a callback, sometimes.
        if rng.random() < 0.15:
            sim.schedule(rng.choice((0.0, 0.5, 3.0)), fire, ("child", label))

    horizon = 0.0
    for chunk in range(6):
        for i in range(120):
            roll = rng.random()
            # Cluster times so tie groups and shared buckets happen.
            t = sim.now + rng.choice((0.0, 0.25, 1.0, 1.0, 2.5, 7.0, 40.0))
            label = (chunk, i)
            if roll < 0.75:
                live.append(sim.schedule_at(t, fire, label))
            elif roll < 0.85 and live:
                live.pop(rng.randrange(len(live))).cancel()
            elif live:
                # Retime: the crash-injector pattern (cancel + reissue).
                live.pop(rng.randrange(len(live))).cancel()
                live.append(
                    sim.schedule_at(t + 1.0, fire, ("retimed", label))
                )
        horizon += rng.choice((1.5, 4.0, 9.0))
        sim.run(until=horizon)
        live = [handle for handle in live if not handle.cancelled]
    sim.run(until=horizon + 200.0)
    return log


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
def test_randomized_schedules_are_bit_identical(seed):
    ladder = Simulator()
    heap = heap_simulator()
    ladder_log = _drive(ladder, seed)
    heap_log = _drive(heap, seed)
    assert ladder_log == heap_log
    assert ladder.now == heap.now
    assert ladder.executed_events == heap.executed_events
    assert ladder.pending_events == heap.pending_events


@pytest.mark.parametrize("seed", [0, 7])
def test_tie_groups_match_under_a_controller(seed):
    """Same-key tie groups resolve identically under ladder and heap,
    whether the tied events were scheduled by absolute time or by
    delay."""
    logs = []
    for make in (Simulator, heap_simulator):
        sim = make()
        sim.set_choice_controller(RandomStrategy(seed))
        log = []
        for i in range(40):
            sim.schedule_at(5.0, log.append, ("event", i))
        for i in range(10):
            sim.schedule(5.0, log.append, ("timer", i))
        # And a few at a different priority — never in the same group.
        for i in range(5):
            sim.schedule_at(
                5.0, log.append, ("monitor", i),
                priority=EventPriority.MONITOR,
            )
        sim.run(until=10.0)
        assert len(log) == 55
        # Priority classes stay ordered regardless of controller.
        assert all(entry[0] != "monitor" for entry in log[:50])
        logs.append(log)
    assert logs[0] == logs[1]


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 13])
def test_pop_due_matches_the_heap_under_random_cutoffs(seed):
    """Queue level: the same pushes, cancellations (often of the head)
    and ``pop_due(until)`` calls with random cut-offs — some before the
    head, some past it — return the same event or ``None`` from both
    queues, and leave the same live count."""
    from repro.sim.events import ScheduledEvent

    rng = random.Random(seed)
    ladder, heap = LadderQueue(), HeapQueue()
    pending = []  # ladder handle, heap handle
    now, seq = 0.0, 0
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.5:
            t = now + rng.choice((0.0, 0.0, 0.5, 1.0, 3.0, 60.0))
            pair = tuple(
                ScheduledEvent(t, EventPriority.NORMAL, seq, fire, ())
                for fire in (lambda: None, lambda: None)
            )
            seq += 1
            ladder.push(pair[0])
            heap.push(pair[1])
            pending.append(pair)
        elif roll < 0.65 and pending:
            # Cancel the earliest pending event half of the time, so
            # pop_due keeps meeting cancelled heads.
            if rng.random() < 0.5:
                index = min(
                    range(len(pending)), key=lambda i: pending[i][0]._key
                )
            else:
                index = rng.randrange(len(pending))
            for event, queue in zip(pending.pop(index), (ladder, heap)):
                event.cancelled = True
                queue.note_cancelled()
        else:
            until = now + rng.choice((-1.0, 0.0, 0.25, 1.0, 5.0))
            got = ladder.pop_due(until)
            want = heap.pop_due(until)
            if want is None:
                assert got is None
            else:
                assert got is not None and got._key == want._key
                assert want.time <= until
                now = want.time
                pending = [p for p in pending if p[1] is not want]
        assert ladder.live == heap.live == len(pending)
    tail = [event._key for event in _drain(ladder)]
    assert tail == [event._key for event in _drain(heap)]
    assert ladder.dequeues == heap.dequeues


# ----------------------------------------------------------------------
# Ladder mechanics
# ----------------------------------------------------------------------


def _shells(times):
    """Bare event shells (engine=None keeps cancel() self-contained)."""
    from repro.sim.events import ScheduledEvent

    return [
        ScheduledEvent(t, EventPriority.NORMAL, seq, lambda: None, ())
        for seq, t in enumerate(times)
    ]


def _drain(q):
    """Pop every live event, in order."""
    popped = []
    while (event := q.pop_due(math.inf)) is not None:
        popped.append(event)
    return popped


def _prime(q):
    """Load the bottom tier without popping: nothing is due before
    ``-inf``, but the lookup refills from the top first."""
    assert q.pop_due(-math.inf) is None
    assert q._bottom


def test_ladder_pops_random_times_in_sorted_order():
    q = LadderQueue()
    rng = random.Random(42)
    times = [rng.uniform(0.0, 1000.0) for _ in range(3000)]
    shells = _shells(times)
    for shell in shells:
        q.push(shell)
    popped = []
    popped.extend(_drain(q))
    assert popped == sorted(shells, key=lambda e: e._key)
    assert q.dequeues == 3000 and q.live == 0


def test_ladder_spills_an_overloaded_bucket_into_a_deeper_rung():
    # Spread pushes spawn a coarse rung; a later burst lands >64 events
    # with distinct times in one coarse bucket, which must re-bucket
    # into a deeper rung instead of insertion-sorting the whole batch.
    q = LadderQueue()
    anchors = _shells([0.0, 1000.0])
    for shell in anchors:
        q.push(shell)
    _prime(q)  # the top transfer spawns the rung
    burst = _shells([600.0 + 0.1 * i for i in range(200)])
    for seq, shell in enumerate(burst, start=10):
        shell.seq = seq
        shell._key = (shell.time, int(shell.priority), seq)
        q.push(shell)
    popped = []
    popped.extend(_drain(q))
    assert popped == sorted(anchors + burst, key=lambda e: e._key)
    assert q.rung_spills >= 1


def test_ladder_single_timestamp_bucket_goes_straight_to_bottom():
    # >64 events at one timestamp cannot be re-bucketed; they must sort
    # directly to the bottom rather than recursing forever.
    q = LadderQueue()
    shells = _shells([5.0] * 300 + [1.0])
    for shell in shells:
        q.push(shell)
    order = []
    order.extend(event.seq for event in _drain(q))
    assert order == [300] + list(range(300))


def _overfill_bottom(times):
    """Load a bottom list past ``_BOTTOM_LIMIT`` after a top transfer.

    The anchors spawn a two-bucket rung; extracting (and taking) its
    first bucket moves the rung's cursor past [0, 500), so every later
    push in that range falls through to the empty bottom list.
    """
    q = LadderQueue()
    anchors = _shells([0.0, 1000.0])
    for shell in anchors:
        q.push(shell)
    assert q.pop_due(0.0) is anchors[0]
    burst = _shells(times)
    for seq, shell in enumerate(burst, start=10):
        shell.seq = seq
        shell._key = (shell.time, int(shell.priority), seq)
        q.push(shell)
    return q, anchors[1:] + burst


def test_ladder_spills_an_overlong_bottom_into_a_rung():
    rng = random.Random(3)
    count = _BOTTOM_LIMIT + 200
    q, shells = _overfill_bottom(
        [rng.uniform(1.0, 499.0) for _ in range(count)]
    )
    # The push past the limit re-bucketed the bottom into a new rung.
    assert len(q._bottom) < _BOTTOM_LIMIT
    assert len(q._rungs) == 2
    popped = []
    popped.extend(_drain(q))
    assert popped == sorted(shells, key=lambda e: e._key)


def test_ladder_single_timestamp_bottom_stays_sorted_past_the_limit():
    # One timestamp cannot be re-bucketed: the bottom keeps growing and
    # pops in seq order.
    q, shells = _overfill_bottom([250.0] * (_BOTTOM_LIMIT + 10))
    assert len(q._bottom) == _BOTTOM_LIMIT + 10
    popped = []
    popped.extend(_drain(q))
    assert popped == sorted(shells, key=lambda e: e._key)


def test_ladder_sweep_recycles_cancelled_shells():
    q = LadderQueue()
    shells = _shells([float(i % 37) for i in range(200)])
    for shell in shells:
        q.push(shell)
    for shell in shells[:150]:
        shell.cancelled = True  # engine=None: flip directly
        q.note_cancelled()
    assert q.compactions >= 1
    # The sweep dropped shells; draining drops those cancelled after it.
    assert q.live == 50 < q._size < 200
    drained = []
    drained.extend(_drain(q))
    assert drained == sorted(shells[150:], key=lambda e: e._key)
    assert q._size == 0 and q.live == 0


def test_ladder_equal_time_push_after_top_transfer():
    # After a top transfer, a new push at exactly the transferred max
    # time must land below the fresh top epoch and sort by seq.
    q = LadderQueue()
    shells = _shells([10.0, 20.0, 30.0])
    for shell in shells:
        q.push(shell)
    _prime(q)  # forces the top transfer
    late = _shells([30.0])[0]
    late.seq = 99
    late._key = (30.0, int(late.priority), 99)
    q.push(late)
    order = [event.seq for event in _drain(q)]
    assert order == [0, 1, 2, 99]


# ----------------------------------------------------------------------
# Engine contract on an idle queue
# ----------------------------------------------------------------------


def test_idle_advance_with_only_a_far_future_event():
    # With only a far-future event pending, run() must advance to
    # `until` without spinning or firing early.
    sim = Simulator()
    fired = []
    sim.schedule(100.0, fired.append, "late")
    assert sim.run(until=30.0) == 30.0
    assert fired == []
    assert sim.run(until=150.0) == 150.0
    assert fired == ["late"]
