"""In-process message bus: many nodes, one asyncio loop.

The simplest real transport: a send enqueues the delivery on the loop
with ``call_soon``.  The loop's ready queue is FIFO, so deliveries
happen in global send order — which in particular preserves FIFO per
directed link, the one ordering property the protocols assume of a
channel.

Each queued delivery carries the link incarnation observed at send
time; the link layer re-checks it at dispatch so churn between send
and delivery drops the message exactly like the simulated channel
does.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable


class InProcessBus:
    """Loop-backed transport for single-process live runs."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        dispatch: Callable[[int, int, Any, str, int], None],
    ) -> None:
        self.loop = loop
        self._dispatch = dispatch

    def send(
        self, src: int, dst: int, message: Any, mid: str, incarnation: int
    ) -> None:
        self.loop.call_soon(
            self._dispatch, src, dst, message, mid, incarnation
        )
