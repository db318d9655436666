"""TCP/localhost socket runtime: one process per node.

Each node runs as its own OS process with its own asyncio loop,
wall-clock runtime and recorder; neighbors talk over localhost TCP
streams carrying the length-prefixed frames of
:mod:`repro.live.codec`.  The dialing convention is by id — for every
undirected link the higher-id endpoint connects to the lower-id
endpoint's server — so exactly one stream exists per link.

Startup is coordinated over pipes by :func:`run_socket`: children bind
port 0 and report the kernel-assigned port, the coordinator broadcasts
the port map, children dial and accept until their neighbor set is
complete and report ready, then a single epoch ``t0`` (slightly in the
future) anchors every process's virtual clock.  Message frames carry
the sender's current execution stamp; the receiver's hybrid-clock bump
(:meth:`~repro.live.runtime.WallClockRuntime.observe_remote_stamp`)
makes receive stamps sort after their sends even across skewed clocks,
which is what lets :func:`~repro.live.recorder.merge_rows` interleave
the per-process logs into one causally consistent recording.

Robustness: every peer is heartbeated; silence past the liveness
timeout surfaces as an ``on_link_down`` to the algorithm (recorded as
an endpoint-scoped ``down`` row, counted under ``live.link_down``),
and the dialer side retries with capped exponential backoff plus
jitter (:func:`backoff_delays`).  A re-established stream surfaces as
``on_link_up``.  Endpoint-scoped churn replays best-effort — see
docs/live.md for the caveat; clean static runs replay exactly.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import time
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.live.codec import FrameDecoder, encode_frame
from repro.net.topology import link_key

#: Defaults for the robustness knobs, in wall seconds.
HEARTBEAT_INTERVAL = 0.1
LIVENESS_TIMEOUT = 1.0
RECONNECT_BASE = 0.05
RECONNECT_CAP = 2.0
RECONNECT_ATTEMPTS = 8


def backoff_delays(
    attempts: int = RECONNECT_ATTEMPTS,
    base: float = RECONNECT_BASE,
    cap: float = RECONNECT_CAP,
    rng: Optional[random.Random] = None,
) -> Iterator[float]:
    """Capped exponential backoff with jitter, in wall seconds.

    Delay ``k`` is uniform in ``[0.5, 1.5) * min(cap, base * 2**k)`` —
    exponential growth to a cap, with enough jitter that peers
    restarting together do not retry in lockstep.
    """
    rng = rng if rng is not None else random.Random()
    for attempt in range(attempts):
        yield min(cap, base * (2.0 ** attempt)) * (0.5 + rng.random())


class SocketTransport:
    """Framed TCP links from one node to its neighbors."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        runtime,
        node_id: int,
        neighbors: List[int],
        probes=None,
        hb_interval: float = HEARTBEAT_INTERVAL,
        liveness_timeout: float = LIVENESS_TIMEOUT,
        reconnect_attempts: int = RECONNECT_ATTEMPTS,
    ) -> None:
        self.loop = loop
        self.runtime = runtime
        self.node_id = node_id
        self.neighbors = sorted(neighbors)
        self.probes = probes
        self.hb_interval = hb_interval
        self.liveness_timeout = liveness_timeout
        self.reconnect_attempts = reconnect_attempts
        #: Wired after construction (the link layer's channel and the
        #: transport reference each other): the link layer the liveness
        #: feed drives, and the live channel's ``dispatch``.
        self.linklayer = None
        self.dispatch = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._last_heard: Dict[int, float] = {}
        self._said_bye: Set[int] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        self._all_connected = asyncio.Event()
        self._closing = False
        self._rng = random.Random(node_id * 7919 + 17)

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    async def start_server(self) -> int:
        self._server = await asyncio.start_server(
            self._on_accept, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def _on_accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        hello = None
        while hello is None:
            data = await reader.read(65536)
            if not data:
                writer.close()
                return
            frames = decoder.feed(data)
            if frames:
                hello = frames[0]
                rest = frames[1:]
        peer = int(hello["node"])
        self._attach(peer, reader, writer, decoder)
        for frame in rest:
            self._handle(peer, frame)

    async def connect_peers(self, ports: Dict[int, int]) -> None:
        """Dial lower-id neighbors; wait for higher-id ones to dial us."""
        for peer in self.neighbors:
            if peer < self.node_id:
                await self._dial(peer, ports[peer])
        self._check_connected()
        await self._all_connected.wait()

    async def _dial(self, peer: int, port: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_frame({"y": "hello", "node": self.node_id}))
        self._attach(peer, reader, writer, FrameDecoder())

    def _attach(
        self,
        peer: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: FrameDecoder,
    ) -> None:
        self._writers[peer] = writer
        self._last_heard[peer] = self.loop.time()
        self._said_bye.discard(peer)
        self._tasks.append(
            self.loop.create_task(self._read_loop(peer, reader, decoder))
        )
        self._check_connected()

    def _check_connected(self) -> None:
        if set(self.neighbors) <= set(self._writers):
            self._all_connected.set()

    def start_heartbeats(self) -> None:
        self._tasks.append(self.loop.create_task(self._heartbeat_loop()))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send(
        self, src: int, dst: int, message: Any, mid: str, incarnation: int
    ) -> None:
        writer = self._writers.get(dst)
        if writer is None:
            # Link is down/reconnecting: the message is lost in flight,
            # which the recording represents as an emit with no recv.
            return
        writer.write(encode_frame({
            "y": "msg",
            "src": src,
            "dst": dst,
            "m": mid,
            "i": incarnation,
            "s": self.runtime.last_stamp,
            "p": message,
        }))

    async def _read_loop(
        self, peer: int, reader: asyncio.StreamReader, decoder: FrameDecoder
    ) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self._last_heard[peer] = self.loop.time()
                for frame in decoder.feed(data):
                    self._handle(peer, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if not self._closing:
                self._peer_lost(peer, reason="disconnect")

    def _handle(self, peer: int, frame: Dict[str, Any]) -> None:
        kind = frame.get("y")
        if kind == "msg":
            if not self.runtime.started:
                return
            self.runtime.observe_remote_stamp(float(frame["s"]))
            self.dispatch(
                int(frame["src"]), int(frame["dst"]), frame["p"],
                frame["m"], int(frame["i"]),
            )
        elif kind == "bye":
            self._said_bye.add(peer)

    # ------------------------------------------------------------------
    # Liveness and reconnection
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        hb = encode_frame({"y": "hb"})
        while not self._closing:
            await asyncio.sleep(self.hb_interval)
            now = self.loop.time()
            for peer, writer in list(self._writers.items()):
                try:
                    writer.write(hb)
                except ConnectionError:  # pragma: no cover - race
                    continue
                if now - self._last_heard.get(peer, now) > self.liveness_timeout:
                    self._peer_lost(peer, reason="liveness")

    def _peer_lost(self, peer: int, reason: str) -> None:
        writer = self._writers.pop(peer, None)
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown race
                pass
        if self._closing or peer in self._said_bye:
            return
        if self.probes is not None:
            self.probes.note_link_down(reason)
        if (self.runtime.started
                and self.linklayer.topology.has_link(self.node_id, peer)):
            a, b = link_key(self.node_id, peer)
            self.runtime.execute(
                "down",
                {"a": a, "b": b, "endpoint": self.node_id},
                self.linklayer.apply_link_event, "down", a, b, -1,
            )
        if peer < self.node_id:  # we are the dialer for this link
            self._tasks.append(self.loop.create_task(self._reconnect(peer)))

    async def _reconnect(self, peer: int) -> None:
        port = self._peer_ports.get(peer)
        if port is None:
            return
        for delay in backoff_delays(
            self.reconnect_attempts, rng=self._rng
        ):
            await asyncio.sleep(delay)
            if self._closing or peer in self._writers:
                return
            if self.probes is not None:
                self.probes.note_reconnect()
            try:
                await self._dial(peer, port)
            except ConnectionError:
                continue
            self._link_restored(peer)
            return

    def _link_restored(self, peer: int) -> None:
        if (self.runtime.started
                and not self.linklayer.topology.has_link(self.node_id, peer)):
            a, b = link_key(self.node_id, peer)
            self.runtime.execute(
                "up",
                {"a": a, "b": b, "mover": -1, "endpoint": self.node_id},
                self.linklayer.apply_link_event, "up", a, b, -1,
            )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def remember_ports(self, ports: Dict[int, int]) -> None:
        self._peer_ports = dict(ports)

    async def close(self) -> None:
        self._closing = True
        bye = encode_frame({"y": "bye"})
        for writer in self._writers.values():
            try:
                writer.write(bye)
                await writer.drain()
            except ConnectionError:  # pragma: no cover - teardown race
                pass
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


# ----------------------------------------------------------------------
# Per-node process body
# ----------------------------------------------------------------------
def _node_process(
    node_id: int,
    scenario: Dict[str, Any],
    until: float,
    time_scale: float,
    hb_interval: float,
    liveness_timeout: float,
    conn,
) -> None:
    try:
        _node_main(
            node_id, scenario, until, time_scale, hb_interval,
            liveness_timeout, conn,
        )
    except Exception as exc:  # surface to the coordinator, don't hang it
        try:
            conn.send(("error", node_id, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


def _node_main(
    node_id: int,
    scenario: Dict[str, Any],
    until: float,
    time_scale: float,
    hb_interval: float,
    liveness_timeout: float,
    conn,
) -> None:
    from repro.harness.config_io import config_from_dict
    from repro.live.node import LiveNodeSet, LiveProbes
    from repro.live.recorder import LiveRecorder
    from repro.live.runtime import WallClockRuntime
    from repro.obs.probes import build_probes
    from repro.obs.registry import MetricRegistry

    config = config_from_dict(scenario)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    recorder = LiveRecorder(origin=node_id)
    runtime = WallClockRuntime(loop, time_scale, recorder)
    registry = MetricRegistry()
    live_probes = LiveProbes(registry)
    protocol_probes = build_probes(registry)

    nodes = LiveNodeSet(
        config, runtime, recorder, lambda *args: transport.send(*args),
        hosted=[node_id], probes=protocol_probes, live_probes=live_probes,
    )
    transport = SocketTransport(
        loop, runtime, node_id, nodes.topology.sorted_neighbors(node_id),
        probes=live_probes, hb_interval=hb_interval,
        liveness_timeout=liveness_timeout,
    )
    transport.linklayer = nodes.linklayer
    transport.dispatch = nodes.channel.dispatch

    port = loop.run_until_complete(transport.start_server())
    conn.send(("port", node_id, port))
    tag, ports = conn.recv()
    assert tag == "peers"
    transport.remember_ports(ports)
    loop.run_until_complete(transport.connect_peers(ports))
    conn.send(("ready", node_id))
    tag, t0_epoch = conn.recv()
    assert tag == "go"
    runtime.start(loop.time() + (t0_epoch - time.time()))

    nodes.drive()
    transport.start_heartbeats()
    t_end = runtime.run(until)
    loop.run_until_complete(transport.close())
    loop.close()
    conn.send((
        "rows", node_id, recorder.rows, t_end, registry.snapshot(),
    ))
    conn.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def run_socket(
    scenario: Dict[str, Any],
    until: float,
    time_scale: float = 0.02,
    hb_interval: float = HEARTBEAT_INTERVAL,
    liveness_timeout: float = LIVENESS_TIMEOUT,
    start_grace: float = 0.5,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one scenario as one process per node over localhost TCP.

    Returns a merged, schema-versioned recording (runtime ``socket``)
    ready for :func:`repro.live.replay.verify_recording`.  Each node
    process drives its own node's share of the scenario — scripted or
    stochastic hunger, its crashes — through the simulator's
    scenario-event code.  The links are the static unit-disk graph:
    a scenario with a ``mobility`` block or a ``link_script`` is
    refused.
    """
    from repro.live.recorder import make_recording, merge_rows

    for churn in ("mobility", "link_script"):
        if scenario.get(churn):
            raise ConfigurationError(
                f"socket runs need a static scenario; this one has "
                f"{churn!r} churn (scripted churn is bus-mode only)"
            )

    n = len(scenario["positions"])
    ctx = multiprocessing.get_context("fork")
    conns = {}
    procs = {}
    try:
        for node in range(n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_node_process,
                args=(node, scenario, until, time_scale, hb_interval,
                      liveness_timeout, child),
                daemon=True,
            )
            proc.start()
            child.close()
            conns[node] = parent
            procs[node] = proc

        setup_timeout = 30.0
        ports: Dict[int, int] = {}
        for node in range(n):
            msg = _recv(conns[node], setup_timeout)
            _expect(msg, "port", node)
            ports[msg[1]] = msg[2]
        for node in range(n):
            conns[node].send(("peers", ports))
        for node in range(n):
            _expect(_recv(conns[node], setup_timeout), "ready", node)
        t0_epoch = time.time() + start_grace
        for node in range(n):
            conns[node].send(("go", t0_epoch))

        run_timeout = until * time_scale + start_grace + 30.0
        rows_by_origin: Dict[int, List[Dict[str, Any]]] = {}
        snapshots: Dict[str, Any] = {}
        t_end = float(until)
        for node in range(n):
            msg = _recv(conns[node], run_timeout)
            _expect(msg, "rows", node)
            rows_by_origin[msg[1]] = msg[2]
            t_end = max(t_end, float(msg[3]))
            snapshots[str(node)] = msg[4]
        for proc in procs.values():
            proc.join(timeout=10.0)
    finally:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for conn in conns.values():
            conn.close()

    merged = merge_rows(rows_by_origin)
    doc_extra: Dict[str, Any] = {"probes_by_node": snapshots}
    if extra:
        doc_extra.update(extra)
    return make_recording(
        "socket", scenario, until, t_end, time_scale, merged, doc_extra
    )


def run_socket_family(
    family: str,
    algorithm: str,
    seed: int = 0,
    time_scale: float = 0.02,
) -> Dict[str, Any]:
    from repro.explore.scenarios import build_scenario

    row = build_scenario(family, algorithm, seed)
    return run_socket(
        row["scenario"], row["until"], time_scale=time_scale,
        extra={"family": row["family"], "algorithm": algorithm, "seed": seed},
    )


def _recv(conn, timeout: float) -> Tuple:
    if not conn.poll(timeout):
        raise ReproError(
            f"socket-run coordination timed out after {timeout:.0f}s"
        )
    return conn.recv()


def _expect(msg: Tuple, tag: str, node: int) -> None:
    if msg[0] == "error":
        raise ReproError(f"node {msg[1]} process failed: {msg[2]}")
    if msg[0] != tag:
        raise ReproError(
            f"unexpected coordination message from node {node}: {msg[0]!r} "
            f"(wanted {tag!r})"
        )
