"""Live-runtime tests: real transports with the simulator as oracle.

The load-bearing assertions are the record→replay round trips: a run
on the in-process bus (and on the per-process socket transport) must
replay deterministically in-sim with every invariant monitor clean and
the effect stream reproduced stamp for stamp.  Around those sit unit
tests for the pieces: bus FIFO under concurrent senders, the framing
codec (protocol messages, restricted unpickling), reconnect backoff,
the recording schema, the scenario-config round trip of the new replay
ingestion fields, and the ``repro live`` / ``repro --version`` CLI.
"""

import asyncio
import copy
import dataclasses
import io
import json
import pickle
import random

import pytest

from repro import __version__
from repro.cli import main as cli_main
from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.harness.config_io import config_from_dict, config_to_dict
from repro.live import (
    SCHEMA,
    derive_replay,
    load_recording,
    merge_rows,
    run_bus,
    run_bus_family,
    run_socket,
    save_recording,
    scripted_link_feed,
    verify_recording,
)
from repro.live.bus import InProcessBus
from repro.live.codec import FrameDecoder, decode_body, encode_frame
from repro.live.socket_transport import backoff_delays
from repro.net.geometry import Point
from repro.core.messages import (
    DoorwayCross,
    DoorwayExit,
    ForkGrant,
    ForkRequest,
    Notification,
    Switch,
)
from repro.net.topology import DynamicTopology
from repro.runtime.simulation import ScenarioConfig
from repro.explore.scenarios import build_scenario


# ----------------------------------------------------------------------
# Record -> replay round trips (the acceptance criterion)
# ----------------------------------------------------------------------
def assert_clean(report):
    assert report["violation"] is None, report["violation"]
    assert report["fidelity"]["divergence"] is None, report["fidelity"]
    assert report["clean"]
    assert report["fidelity"]["expected"] == report["fidelity"]["actual"] > 0


def test_bus_static_line_replays_clean():
    recording = run_bus_family("static-line", "alg2", seed=0,
                               time_scale=0.003)
    assert recording["schema"] == SCHEMA
    assert recording["runtime"] == "bus"
    assert recording["metrics"]["cs_entries"] > 0
    assert_clean(verify_recording(recording))


@pytest.fixture(scope="module")
def fig6_recording():
    # fig6: scripted link churn plus a crash, Algorithm 1.  Tests that
    # tamper with it work on a deep copy.
    return run_bus_family("fig6", "alg1-greedy", seed=0, time_scale=0.003)


def test_bus_fig6_churn_and_crash_replays_clean(fig6_recording):
    recording = fig6_recording
    kinds = {row["k"] for row in recording["rows"]}
    assert "crash" in kinds
    assert {"up", "down"} & kinds
    assert recording["metrics"]["crashed"] == 1
    # The effects hold the transitions and Algorithm 1's stage marks.
    tags = {tag for _, tag, _ in _effects(recording)}
    assert {"hungry", "enter", "exit", "crashed", "ADf", "SDf"} <= tags
    assert_clean(verify_recording(recording))


def test_bus_metrics_count_the_recorded_effects(fig6_recording):
    # The bus run composes one effect sink per process: the recorder's
    # fx rows first, then the collector.  Both read the same stream,
    # so the metrics block counts exactly what the rows hold.
    tags = [tag for _, tag, _ in _effects(fig6_recording)]
    metrics = fig6_recording["metrics"]
    assert metrics["cs_entries"] == tags.count("enter") > 0
    assert metrics["crashed"] == tags.count("crashed") == 1


def test_bus_recording_round_trips_through_json():
    recording = run_bus_family("fig6", "alg1-greedy", seed=1,
                               time_scale=0.003)
    stream = io.StringIO()
    save_recording(recording, stream)
    reloaded = load_recording(io.StringIO(stream.getvalue()))
    assert_clean(verify_recording(reloaded))


# ----------------------------------------------------------------------
# Fidelity must be able to fail: tampered recordings
# ----------------------------------------------------------------------
def _effects(recording):
    """The recording's effect stream as (stamp, tag, node), row order."""
    return [
        (row["t"], tag, node)
        for row in recording["rows"]
        for tag, node in row.get("fx", ())
    ]


def _lone_hungry(recording):
    """(row index, effect index) of a row whose only effect is a hunger.

    A hunger effect feeds nothing the replay derives (the hunger
    arrival comes from the row itself), so tampering with it changes
    the expected stream and leaves the replay's input as it was.
    """
    index = 0
    for position, row in enumerate(recording["rows"]):
        fx = row.get("fx", ())
        if row["k"] == "hungry" and [tag for tag, _ in fx] == ["hungry"]:
            return position, index
        index += len(fx)
    raise AssertionError("recording has no lone hunger effect")


def _tamper(recording, edit):
    """Verify a deep copy of ``recording`` after ``edit(rows)``."""
    tampered = copy.deepcopy(recording)
    edit(tampered["rows"])
    # Each tampering touches the expected stream only: the replay's
    # scenario and decisions are derived exactly as from the original.
    original, derived = derive_replay(recording), derive_replay(tampered)
    assert derived.scenario == original.scenario
    assert derived.decisions == original.decisions
    return verify_recording(tampered)


def _shift_lone_hunger(recording, shift):
    """Move one hunger effect ``shift`` later, out of its own row.

    A row's stamp is also the replay's input (the hunger arrival), so
    the effect moves into a following row of its own, which the replay
    reads nothing from but its effects.
    """
    position, index = _lone_hungry(recording)

    def edit(rows):
        row = rows[position]
        fx = row.pop("fx")
        rows.insert(position + 1, {"t": row["t"] + shift, "k": "timer",
                                   "fx": fx})

    return index, _tamper(recording, edit)


def test_stamp_shift_inside_tolerance_verifies_clean(fig6_recording):
    _, report = _shift_lone_hunger(fig6_recording, 5e-11)
    assert_clean(report)


def test_stamp_shift_beyond_tolerance_diverges(fig6_recording):
    index, report = _shift_lone_hunger(fig6_recording, 1e-6)
    assert report["clean"] is False
    assert report["violation"] is None
    fidelity = report["fidelity"]
    count = len(_effects(fig6_recording))
    assert fidelity["expected"] == fidelity["actual"] == count
    stamp, tag, node = _effects(fig6_recording)[index]
    assert report["fidelity"]["divergence"] == {
        "index": index,
        "expected": [stamp + 1e-6, tag, node],
        "actual": [stamp, tag, node],
    }


def test_swapped_effect_tag_diverges(fig6_recording):
    position, index = _lone_hungry(fig6_recording)

    def edit(rows):
        rows[position]["fx"][0][0] = "exit"

    report = _tamper(fig6_recording, edit)
    assert report["clean"] is False
    fidelity = report["fidelity"]
    count = len(_effects(fig6_recording))
    assert fidelity["expected"] == fidelity["actual"] == count
    stamp, _, node = _effects(fig6_recording)[index]
    assert report["fidelity"]["divergence"] == {
        "index": index,
        "expected": [stamp, "exit", node],
        "actual": [stamp, "hungry", node],
    }


def test_dropped_effect_diverges(fig6_recording):
    position, index = _lone_hungry(fig6_recording)

    def edit(rows):
        del rows[position]["fx"]

    report = _tamper(fig6_recording, edit)
    assert report["clean"] is False
    effects = _effects(fig6_recording)
    assert report["fidelity"]["expected"] == len(effects) - 1
    assert report["fidelity"]["actual"] == len(effects)
    assert report["fidelity"]["divergence"] == {
        "index": index,
        "expected": list(effects[index + 1]),
        "actual": list(effects[index]),
    }


def test_extra_trailing_effect_diverges(fig6_recording):
    last = fig6_recording["rows"][-1]

    def edit(rows):
        rows[-1].setdefault("fx", []).append(["hungry", 0])

    report = _tamper(fig6_recording, edit)
    assert report["clean"] is False
    count = len(_effects(fig6_recording))
    assert report["fidelity"]["expected"] == count + 1
    assert report["fidelity"]["actual"] == count
    assert report["fidelity"]["divergence"] == {
        "index": count,
        "expected": [last["t"], "hungry", 0],
        "actual": None,
    }


def test_cli_live_verify_reports_a_tampered_file(fig6_recording, tmp_path):
    # One call, two files: the clean one still verifies, the tampered
    # one is reported at the effect that went missing, and the exit
    # status says not every file was clean.
    tampered = copy.deepcopy(fig6_recording)
    position, index = _lone_hungry(tampered)
    del tampered["rows"][position]["fx"]
    paths = []
    for name, recording in (("clean", fig6_recording),
                            ("tampered", tampered)):
        paths.append(tmp_path / f"{name}.json")
        with open(paths[-1], "w") as stream:
            save_recording(recording, stream)
    out = io.StringIO()
    assert cli_main(["live", "verify", *map(str, paths)], out=out) == 1
    clean, diverged = out.getvalue().splitlines()
    assert clean.startswith(f"{paths[0]}: clean")
    assert diverged.startswith(
        f"{paths[1]}: DIVERGED — replay left the recording at effect "
        f"{index} "
    )


def test_dropped_stage_mark_diverges(fig6_recording):
    # The stage marks are checked like the transitions: a recording
    # that lost one SDf crossing is caught at that crossing.
    effects = _effects(fig6_recording)
    index = next(i for i, (_, tag, _) in enumerate(effects) if tag == "SDf")
    seen = 0
    for position, row in enumerate(fig6_recording["rows"]):
        fx = row.get("fx", ())
        if seen + len(fx) > index:
            break
        seen += len(fx)

    def edit(rows):
        del rows[position]["fx"][index - seen]

    report = _tamper(fig6_recording, edit)
    assert report["clean"] is False
    assert report["violation"] is None
    assert report["fidelity"]["expected"] == len(effects) - 1
    assert report["fidelity"]["actual"] == len(effects)
    assert report["fidelity"]["divergence"] == {
        "index": index,
        "expected": list(effects[index + 1]),
        "actual": list(effects[index]),
    }


def test_verify_replays_lean(fig6_recording, monkeypatch):
    # The replay keeps its effect log and nothing else: no telemetry
    # registry, and exactly the effects fidelity compares.
    import repro.explore.runner as runner

    original = runner.run_controlled
    built = []

    def spy(*args, on_simulation, **kwargs):
        def hook(simulation):
            built.append(simulation)
            on_simulation(simulation)

        return original(*args, on_simulation=hook, **kwargs)

    monkeypatch.setattr(runner, "run_controlled", spy)
    report = verify_recording(fig6_recording)
    assert_clean(report)
    simulation, = built
    assert simulation.registry is None
    assert len(simulation.effects) == report["fidelity"]["actual"]


def test_derive_replay_keeps_every_field_it_does_not_replay():
    # The origin leaves radio_range, seed and bounds to the defaults and
    # sets a field the replay does not touch (think_range).
    origin = {
        "positions": [[0.0, 0.0], [0.8, 0.0], [1.6, 0.0]],
        "algorithm": "alg2",
        "think_range": [2.0, 3.0],
        "crashes": [[6.0, 2]],
    }
    recording = run_bus(origin, 15.0, time_scale=0.003)
    derived = derive_replay(recording)
    base, config = config_from_dict(origin), config_from_dict(derived.scenario)
    replayed = {"bounds", "scripted_hunger", "scripted_eating", "link_script",
                "mobility_factory", "crashes", "trace", "telemetry"}
    for f in dataclasses.fields(ScenarioConfig):
        if f.name not in replayed:
            assert getattr(config, f.name) == getattr(base, f.name), f.name
    assert config.bounds.tau == base.bounds.tau
    assert config.bounds.nu >= base.bounds.nu
    # The crash is scenario data; the trace holds delays only.
    assert [node for _, node in config.crashes] == [2]
    assert {kind for kind, _ in derived.decisions} == {"d"}
    assert_clean(verify_recording(recording))


def _three_node_line_scenario():
    return {
        "positions": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
        "radio_range": 1.2,
        "algorithm": "alg2",
        "seed": 3,
        "bounds": {"nu": 1.0, "tau": 1.0, "min_delay_fraction": 0.5},
        "scripted_hunger": {
            "0": [1.0, 8.0, 16.0],
            "1": [1.5, 9.0, 17.0],
            "2": [2.0, 10.0, 18.0],
        },
    }


def test_socket_three_node_line_replays_clean():
    recording = run_socket(
        _three_node_line_scenario(), until=30.0, time_scale=0.01,
        start_grace=0.3,
    )
    assert recording["runtime"] == "socket"
    # One recorder per process: merged rows carry per-origin message ids.
    origins = {row["m"].split(":")[0]
               for row in recording["rows"] if row["k"] == "recv"}
    assert len(origins) > 1
    assert_clean(verify_recording(recording))


def test_socket_run_with_stochastic_hunger_replays_clean():
    # Each node process draws its own node's think times from the
    # simulator's workload substream; the replay sees only the rows.
    scenario = _three_node_line_scenario()
    del scenario["scripted_hunger"]
    recording = run_socket(
        scenario, until=20.0, time_scale=0.01, start_grace=0.3,
    )
    hungry = {row["n"] for row in recording["rows"] if row["k"] == "hungry"}
    assert hungry == {0, 1, 2}
    assert_clean(verify_recording(recording))


@pytest.mark.parametrize("churn, value", [
    ("mobility", [{"kind": "scripted", "nodes": [2],
                   "params": {"moves": [[5.0, 9.0, 9.0, 0.0]]}}]),
    ("link_script", [[5.0, "down", 0, 1, -1]]),
])
def test_socket_run_refuses_a_scenario_with_churn(churn, value):
    # A node process runs the static unit-disk graph; scripted churn
    # would be dropped without a word.
    scenario = _three_node_line_scenario()
    scenario[churn] = value
    with pytest.raises(ConfigurationError, match=churn):
        run_socket(scenario, until=30.0, time_scale=0.01)


def test_bus_runs_a_scenario_link_script():
    scenario = _three_node_line_scenario()
    scenario["link_script"] = [
        [4.0, "down", 1, 2, -1], [12.0, "up", 1, 2, 2],
    ]
    recording = run_bus(scenario, 20.0, time_scale=0.003)
    links = [(row["k"], row["a"], row["b"], row.get("mover"))
             for row in recording["rows"] if row["k"] in ("up", "down")]
    assert links == [("down", 1, 2, None), ("up", 1, 2, 2)]
    assert_clean(verify_recording(recording))


def test_load_recording_rejects_unknown_schema():
    bad = io.StringIO(json.dumps({"schema": "nope/9", "rows": []}))
    with pytest.raises(ConfigurationError):
        load_recording(bad)


def test_schema_1_recordings_are_refused(fig6_recording):
    # /1 recordings carry no stage marks; they are refused, not migrated.
    old = dict(fig6_recording, schema="repro.live.recording/1")
    with pytest.raises(ConfigurationError):
        load_recording(io.StringIO(json.dumps(old)))
    with pytest.raises(ConfigurationError):
        derive_replay(old)


# ----------------------------------------------------------------------
# Bus FIFO property
# ----------------------------------------------------------------------
def test_bus_preserves_per_link_fifo_under_concurrent_senders():
    rng = random.Random(7)
    for _ in range(20):
        loop = asyncio.new_event_loop()
        try:
            delivered = []
            bus = InProcessBus(
                loop, lambda src, dst, m, mid, inc:
                delivered.append((src, dst, mid)),
            )
            # Concurrent senders: every node streams to every other, the
            # global interleaving shuffled per round.
            sends = [
                (src, dst, f"{src}->{dst}#{seq}")
                for src in range(4) for dst in range(4) if src != dst
                for seq in range(10)
            ]
            by_link = {}
            for src, dst, mid in sends:
                by_link.setdefault((src, dst), []).append(mid)
            # Shuffle while keeping each directed link's internal order —
            # that order is exactly what senders submit and FIFO promises.
            order = sends[:]
            for _ in range(200):
                i, j = rng.randrange(len(order)), rng.randrange(len(order))
                if (order[i][0], order[i][1]) != (order[j][0], order[j][1]):
                    order[i], order[j] = order[j], order[i]
            for src, dst, mid in order:
                loop.call_soon(bus.send, src, dst, mid, mid, 0)
            loop.call_soon(loop.stop)
            loop.run_forever()
            # Drain the deliveries enqueued by the sends.
            loop.call_soon(loop.stop)
            loop.run_forever()
            got = {}
            for src, dst, mid in delivered:
                got.setdefault((src, dst), []).append(mid)
            submitted = {}
            for src, dst, mid in order:
                submitted.setdefault((src, dst), []).append(mid)
            assert got == submitted
            assert len(delivered) == len(sends)
        finally:
            loop.close()


# ----------------------------------------------------------------------
# Framing codec
# ----------------------------------------------------------------------
def test_codec_round_trips_interned_messages():
    # The field-light messages that used to be interned; they now pickle
    # by the dataclass's own state like every other message.
    sent = [
        ForkRequest(), ForkGrant(True), ForkGrant(False), Notification(),
        Switch(), DoorwayCross("ADf"), DoorwayExit("SDr"),
    ]
    frame = encode_frame({"y": "msg", "p": sent, "s": 1.25})
    decoder = FrameDecoder()
    # Feed byte by byte: the decoder must reassemble across chunks.
    frames = []
    for offset in range(len(frame)):
        frames.extend(decoder.feed(frame[offset:offset + 1]))
    assert len(frames) == 1
    payload = frames[0]
    assert payload["s"] == 1.25
    assert payload["p"] == sent
    assert [type(m) for m in payload["p"]] == [type(m) for m in sent]


def test_codec_batches_multiple_frames():
    frames = encode_frame({"n": 1}) + encode_frame({"n": 2})
    assert [f["n"] for f in FrameDecoder().feed(frames)] == [1, 2]


def test_codec_rejects_forbidden_globals():
    body = pickle.dumps(random.Random)  # not a repro.* class
    with pytest.raises(pickle.UnpicklingError):
        decode_body(body)


def test_codec_rejects_oversized_length_prefix():
    with pytest.raises(ProtocolError):
        FrameDecoder().feed((1 << 30).to_bytes(4, "big") + b"xxxx")


# ----------------------------------------------------------------------
# Reconnect backoff
# ----------------------------------------------------------------------
def test_backoff_delays_grow_to_cap_with_jitter():
    delays = list(backoff_delays(
        attempts=8, base=0.05, cap=0.4, rng=random.Random(1)
    ))
    assert len(delays) == 8
    for attempt, delay in enumerate(delays):
        nominal = min(0.4, 0.05 * 2 ** attempt)
        assert 0.5 * nominal <= delay < 1.5 * nominal
    # The tail is capped: jitter only, no further exponential growth.
    assert all(delay < 0.6 for delay in delays[-3:])


def test_peer_loss_surfaces_link_down_and_counts():
    from repro.live.linklayer import LiveLinkLayer
    from repro.live.node import LiveProbes
    from repro.live.recorder import LiveRecorder
    from repro.live.runtime import WallClockRuntime
    from repro.live.socket_transport import SocketTransport
    from repro.net.linklayer import LinkLayer
    from repro.obs.registry import MetricRegistry

    class StubWriter:
        def close(self):
            pass

    class StubHandler:
        def __init__(self):
            self.downs = []

        def on_link_down(self, peer):
            self.downs.append(peer)

    loop = asyncio.new_event_loop()
    try:
        recorder = LiveRecorder(origin=1)
        runtime = WallClockRuntime(loop, 1.0, recorder)
        registry = MetricRegistry()
        probes = LiveProbes(registry)
        transport = SocketTransport(loop, runtime, 1, [0], probes=probes)
        topology = DynamicTopology(radio_range=1.0)
        topology.add_nodes([(0, Point(0.0, 0.0)), (1, Point(1.0, 0.0))])
        linklayer = LinkLayer(topology)
        channel = LiveLinkLayer(
            runtime, recorder, transport.send, topology, linklayer.deliver,
            probes=probes,
        )
        linklayer.bind_channel(channel)
        transport.linklayer = linklayer
        transport.remember_ports({})
        handler = StubHandler()
        linklayer.register(1, handler)
        runtime.start()

        transport._writers[0] = StubWriter()
        transport._peer_lost(0, reason="liveness")

        # The loss is an on_link_down to the algorithm, an
        # endpoint-scoped down row in the log, and a live.* count.
        assert handler.downs == [0]
        assert 0 not in topology.neighbors(1)
        down_rows = [row for row in recorder.rows if row["k"] == "down"]
        assert down_rows and down_rows[0]["endpoint"] == 1
        assert probes.link_down.by_key.get("liveness") == 1
        # Losing an already-gone peer is a no-op, not a second event.
        transport._peer_lost(0, reason="liveness")
        assert probes.link_down.by_key.get("liveness") == 2  # counted...
        assert len(down_rows) == 1  # ...but no duplicate link event
        for task in transport._tasks:
            task.cancel()
        loop.run_until_complete(
            asyncio.gather(*transport._tasks, return_exceptions=True)
        )
    finally:
        loop.close()


def test_runtimes_satisfy_the_runtime_protocol():
    from repro.live.runtime import WallClockRuntime
    from repro.runtime.interface import Runtime
    from repro.sim import Simulator, Timer

    assert {n for n in vars(Runtime) if not n.startswith("_")} == {
        "now", "schedule",
    }

    def timer_script(runtime, advance):
        """start -> restart -> fire -> start -> cancel, with readings."""
        fired, readings = [], []
        timer = Timer(runtime, lambda: fired.append(runtime.now))

        def read():
            readings.append(
                (timer.pending, timer._event.time if timer.pending else None)
            )

        read()
        timer.start(5.0)
        read()
        advance(2.0)
        timer.start(4.0)  # restart: the deadline moves from 5 to 6
        read()
        advance(5.0)  # the superseded deadline passes silently
        read()
        advance(6.0)
        read()
        timer.start(1.0)
        read()
        timer.cancel()
        read()
        advance(8.0)
        read()
        return fired, readings

    sim = Simulator()
    assert isinstance(sim, Runtime)
    on_sim = timer_script(sim, lambda t: sim.run(until=t))

    loop = asyncio.new_event_loop()
    try:
        # A hand-moved loop clock makes the wall-clock side exact.
        clock = [0.0]
        loop.time = lambda: clock[0]
        runtime = WallClockRuntime(loop, 1.0)
        # Before start() `now` raises, and Python <= 3.11 evaluates
        # properties inside isinstance().
        runtime.start()
        assert isinstance(runtime, Runtime)

        def advance(t):
            clock[0] = t
            loop.call_soon(loop.stop)
            loop.run_forever()

        on_wall = timer_script(runtime, advance)
    finally:
        loop.close()

    assert on_sim == on_wall
    fired, readings = on_sim
    assert fired == [6.0]
    assert readings == [
        (False, None), (True, 5.0), (True, 6.0), (True, 6.0),
        (False, None), (True, 7.0), (False, None), (False, None),
    ]


# ----------------------------------------------------------------------
# Replay-ingestion plumbing in the simulator
# ----------------------------------------------------------------------
def test_scenario_config_round_trips_eating_and_link_script():
    config = ScenarioConfig(
        positions=[Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)],
        algorithm="alg2",
        scripted_hunger={0: [1.0], 1: [2.0]},
        scripted_eating={0: [0.5, 0.75], 2: [1.5]},
        link_script=[[3.0, "down", 0, 1, -1], [4.0, "up", 0, 1, 1]],
    )
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt.scripted_eating == {0: [0.5, 0.75], 2: [1.5]}
    assert rebuilt.link_script == [
        [3.0, "down", 0, 1, -1], [4.0, "up", 0, 1, 1]
    ]


def test_force_link_produces_diffs_and_rejects_self_links():
    topology = DynamicTopology(radio_range=1.0)
    topology.add_nodes([(0, Point(0.0, 0.0)), (1, Point(5.0, 0.0))])
    diff = topology.force_link(0, 1, True)
    assert diff.added == [(0, 1)]
    assert topology.has_link(0, 1)
    assert topology.force_link(0, 1, True).empty  # idempotent
    diff = topology.force_link(1, 0, False)
    assert diff.removed == [(0, 1)]
    with pytest.raises(TopologyError):
        topology.force_link(1, 1, True)


def test_scripted_link_feed_rejects_moving_speeds():
    scenario = build_scenario("fig6", "alg1-greedy", seed=0)["scenario"]
    feed = scripted_link_feed(config_from_dict(scenario))
    assert feed, "fig6's teleport move must yield link events"
    assert all(op in ("up", "down") for _, op, _, _, _ in feed)
    scenario = json.loads(json.dumps(scenario))
    scenario["mobility"][0]["params"]["moves"][0][3] = 1.0  # a real move
    with pytest.raises(ConfigurationError):
        scripted_link_feed(config_from_dict(scenario))


def test_build_scenario_names_unknown_families():
    row = build_scenario("static-line", "alg2", seed=4)
    assert row["scenario"]["algorithm"] == "alg2"
    with pytest.raises(KeyError) as excinfo:
        build_scenario("no-such-family", "alg2")
    assert "static-line" in str(excinfo.value)


def test_merge_rows_is_stable_and_strictly_increasing():
    merged = merge_rows({
        2: [{"t": 1.0, "k": "recv", "m": "2:1"},
            {"t": 2.0, "k": "recv", "m": "2:2"}],
        1: [{"t": 1.0, "k": "recv", "m": "1:1"},
            {"t": 1.0 + 1e-12, "k": "recv", "m": "1:2"}],
    })
    stamps = [row["t"] for row in merged]
    assert stamps == sorted(stamps)
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    # Stamp order first, ties by origin; per-origin order survives.
    assert [row["m"] for row in merged] == ["1:1", "2:1", "1:2", "2:2"]
    for origin in ("1", "2"):
        ours = [row["m"] for row in merged if row["m"].startswith(origin)]
        assert ours == sorted(ours)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_serve_exposes_live_metrics_mid_run(tmp_path):
    """``repro live serve``: a scrape during the run sees the live family,
    and the recording it returns verifies clean."""
    import socket
    import threading
    import time
    import urllib.request

    from helpers import parse_openmetrics
    from repro.live import serve

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    result = {}
    runner = threading.Thread(target=lambda: result.update(recording=serve(
        "static-line", "alg2", port=port, duration=20.0, time_scale=0.05,
    )))
    runner.start()
    families = {}
    url = f"http://127.0.0.1:{port}/metrics"
    while runner.is_alive() and "repro_live_events" not in families:
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                families = parse_openmetrics(response.read().decode())
        except OSError:
            time.sleep(0.05)
    runner.join(timeout=30.0)
    assert "repro_live_events" in families
    assert_clean(verify_recording(result["recording"]))


def test_cli_version_flag():
    out = io.StringIO()
    assert cli_main(["--version"], out=out) == 0
    assert out.getvalue().strip() == f"repro {__version__}"


def test_cli_live_run_records_and_verifies(tmp_path):
    destination = tmp_path / "recording.json"
    out = io.StringIO()
    rc = cli_main(
        ["live", "run", "--family", "static-line", "--algorithm", "alg2",
         "--seed", "0", "--time-scale", "0.003",
         "--out", str(destination), "--verify"],
        out=out,
    )
    assert rc == 0, out.getvalue()
    assert "clean" in out.getvalue()

    out = io.StringIO()
    assert cli_main(["live", "verify", str(destination)], out=out) == 0
    assert "clean" in out.getvalue()
