"""Network substrate: topology, channels and the link-level protocol.

The paper's system model (Section 3.1) assumes:

* bidirectional, reliable, FIFO links with message delay bounded by ``nu``;
* a link-level protocol that notifies each node of link formations and
  failures, and that distinguishes the *static* endpoint from the
  *moving* endpoint of a new link (ties between two moving nodes broken
  deterministically, e.g. by ID);
* links change only when at least one endpoint moves;
* per-link forks created at link formation, owned by the static endpoint.

This package implements exactly that contract on top of a unit-disk
radio model over node positions.
"""

from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.messages import Message
from repro.net.topology import DynamicTopology, LinkDiff

__all__ = [
    "ChannelLayer",
    "DynamicTopology",
    "LinkDiff",
    "LinkLayer",
    "Message",
    "Point",
]
