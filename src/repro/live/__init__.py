"""Live service runtime: the protocols over real transports.

This package runs the *unmodified* registered algorithms and
:class:`~repro.runtime.node.NodeHarness` outside the simulator, over
two transports:

* :mod:`repro.live.bus` — many nodes, one asyncio loop, in-process
  delivery (per-directed-link FIFO preserved by the loop's ready
  queue);
* :mod:`repro.live.socket_transport` — one OS process per node,
  length-prefixed frames over localhost TCP, heartbeats, liveness
  timeouts and capped-backoff reconnects.

Node code cannot tell the difference: :class:`WallClockRuntime`
satisfies the same :class:`~repro.runtime.interface.Runtime` protocol
the simulator does, and the link layer is the simulator's own
:class:`~repro.net.linklayer.LinkLayer`, bound to the live channel
:class:`~repro.live.linklayer.LiveLinkLayer` instead of the simulated
one.

Every run records a schema-versioned event log
(:mod:`repro.live.recorder`); :mod:`repro.live.replay` projects that
log back onto a controlled simulation — the simulator acting as test
oracle — and checks the run against the exploration subsystem's
invariant monitors plus exact effect-stream fidelity.  The CLI surface
is ``repro live run|serve|verify``; see docs/live.md.
"""

from repro.live.recorder import (
    SCHEMA,
    LiveRecorder,
    load_recording,
    make_recording,
    merge_rows,
    save_recording,
)
from repro.live.replay import DerivedReplay, derive_replay, verify_recording
from repro.live.runtime import LiveTimerHandle, WallClockRuntime
from repro.live.service import run_bus, run_bus_family, scripted_link_feed, serve
from repro.live.socket_transport import (
    backoff_delays,
    run_socket,
    run_socket_family,
)

__all__ = [
    "SCHEMA",
    "DerivedReplay",
    "LiveRecorder",
    "LiveTimerHandle",
    "WallClockRuntime",
    "backoff_delays",
    "derive_replay",
    "load_recording",
    "make_recording",
    "merge_rows",
    "run_bus",
    "run_bus_family",
    "run_socket",
    "run_socket_family",
    "save_recording",
    "scripted_link_feed",
    "serve",
    "verify_recording",
]
