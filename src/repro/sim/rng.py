"""Seeded random substreams.

Every stochastic component (per-node workload, per-link jitter, mobility
of each node, crash schedule...) draws from its own named substream so
that changing one component's consumption pattern does not perturb the
others.  Substream seeds are derived deterministically from the root seed
and the stream name via a stable hash.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple


def _derive_seed(root_seed: int, name: Tuple) -> int:
    """Derive a 64-bit substream seed from the root seed and a name."""
    payload = repr((root_seed, name)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """A root seed plus a family of independent named substreams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[Tuple, random.Random] = {}

    def stream(self, *name) -> random.Random:
        """Return the (memoized) substream identified by ``name``.

        Example::

            rng = RandomSource(42)
            rng.stream("mobility", node_id).random()
        """
        key = tuple(name)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(_derive_seed(self.seed, key))
            self._streams[key] = stream
        return stream

    def has_stream(self, *name) -> bool:
        """True iff the named substream has been materialized.

        Lazy consumers use this to tell "never drawn" apart from
        "drawn before": a ``random.Random`` costs ~2.5 KB, so hot
        call sites avoid materializing streams for components that
        never end up drawing (see :meth:`stream_seed`).
        """
        return tuple(name) in self._streams

    def stream_seed(self, *name) -> int:
        """The seed :meth:`stream` would use for ``name``.

        Derived from the root seed and the name alone — never from
        stream state — so a caller can seed a reusable scratch
        ``random.Random`` and reproduce the substream's draws without
        materializing (and forever retaining) the memoized stream.
        """
        return _derive_seed(self.seed, tuple(name))
