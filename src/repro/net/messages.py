"""Base message type shared by all protocols.

Concrete protocol messages (fork requests, doorway cross/exit
broadcasts, coloring rounds...) subclass :class:`Message` inside their
own packages; the channel layer only cares about size accounting and a
human-readable kind.

``kind`` is a *class* attribute stamped by ``__init_subclass__`` — the
channel reads it on every send for stats and tracing, so it must not
cost a ``type(self).__name__`` round-trip per message.  Protocol
message classes are declared with ``@dataclass(frozen=True,
slots=True)``; the slots keep per-message memory flat and attribute
access cheap on the delivery path.  (Plain ``@dataclass(frozen=True)``
subclasses still work — test fixtures use them — they just carry a
``__dict__``.)  Messages are compared by value and cross process
boundaries (the live socket codec) by ordinary pickling.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Message:
    """Immutable base class for protocol messages.

    Subclasses add payload fields; :attr:`kind` is the class name,
    cached on the class at definition time, which keeps traces and
    metric breakdowns readable without per-class boilerplate.
    """

    #: Short message type label used for tracing and accounting.
    #: Overwritten with the subclass name by ``__init_subclass__``.
    kind = "Message"

    def __init_subclass__(cls, **kwargs) -> None:
        # No zero-arg super() here: ``slots=True`` re-creates classes,
        # leaving the method's __class__ cell pointing at the original,
        # which breaks super()'s subtype check for grandchildren.
        object.__init_subclass__(**kwargs)
        cls.kind = cls.__name__

