"""Length-prefixed frames for the socket transport.

A frame is a 4-byte big-endian length followed by a pickled payload
dict.  Pickle is what lets the frozen, slotted protocol messages of
:mod:`repro.core.messages` cross the wire as themselves, so the
receiving node is handed objects equal to (and of the same type as)
the ones the simulator would hand it.

Deserialization is restricted: :class:`_RestrictedUnpickler` only
resolves classes from ``repro.*`` modules (plus a tiny builtin
allowlist), so a frame cannot instantiate arbitrary types.  Peers are
trusted processes of the same deployment, but a localhost port is a
localhost port.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, List

from repro.errors import ProtocolError

#: Upper bound on a single frame; protocol messages are tiny, so
#: anything near this is a corrupt or hostile stream.
MAX_FRAME = 1 << 24

_LENGTH_BYTES = 4

_SAFE_BUILTINS = frozenset({"frozenset", "set", "tuple", "complex"})


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if module == "repro" or module.startswith("repro."):
            return super().find_class(module, name)
        if module == "builtins" and name in _SAFE_BUILTINS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"frame references forbidden global {module}.{name}"
        )


def encode_frame(payload: Any) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(body)} bytes")
    return len(body).to_bytes(_LENGTH_BYTES, "big") + body


def decode_body(body: bytes) -> Any:
    return _RestrictedUnpickler(io.BytesIO(body)).load()


class FrameDecoder:
    """Incremental decoder: feed stream chunks, get whole frames out."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Any]:
        self._buffer.extend(data)
        frames: List[Any] = []
        buffer = self._buffer
        while len(buffer) >= _LENGTH_BYTES:
            length = int.from_bytes(buffer[:_LENGTH_BYTES], "big")
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame length {length} exceeds limit {MAX_FRAME}"
                )
            if len(buffer) < _LENGTH_BYTES + length:
                break
            body = bytes(buffer[_LENGTH_BYTES:_LENGTH_BYTES + length])
            del buffer[:_LENGTH_BYTES + length]
            frames.append(decode_body(body))
        return frames
