"""Wire protocol for networked serving: length-prefixed JSON frames.

One frame = a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON, optionally followed by a **binary attachment** whose length
the JSON header declares in its ``"bin"`` field.  JSON keeps the
protocol debuggable and versionable; the one hot field — an ndarray —
rides as the raw attachment bytes, because a float64 has an exact byte
representation: "bit-identical over the wire" becomes a property of
``memcpy`` instead of a property of every JSON float printer on the
path, and the array never transits a text codec at all (the client can
hand the socket a zero-copy ``memoryview`` of the caller's array).

For frames that must stay pure JSON (tests, ``nc``-style debugging,
future non-Python peers) there is also a base64 envelope form
(:func:`encode_array` / ``__nd__: 1``); :func:`decode_payload` accepts
either.

Handshake: the client speaks first with ``{"op": "hello", "proto": N}``;
the server answers ``{"ok": true, "proto": N}`` or a typed error frame
(``transport.protocol``) and closes.  Version negotiation is exact-match
on :data:`PROTO_VERSION` — there is exactly one protocol so far; the
handshake exists so there can be a second one without a flag day.

Request frames carry a client-generated ``id``: the server deduplicates
on it (see :mod:`repro.serve.transport`), which is what makes client
retries after a dropped connection *idempotent* rather than
double-executed.

Error frames carry the stable ``code`` from :mod:`repro.errors`;
:func:`error_from_frame` rebuilds the typed exception client-side.
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
from typing import Any

import numpy as np

from repro.errors import (
    ConfigError,
    ConnectionLostError,
    ProtocolError,
    ReproError,
    error_from_code,
)

#: exact-match protocol version (bump on any wire-visible change)
PROTO_VERSION = 1

#: refuse frames beyond this (a length prefix of garbage must not OOM us)
MAX_FRAME_BYTES = 64 << 20

#: length prefix size (4-byte unsigned big-endian)
_PREFIX = 4


# ------------------------------------------------------------------ ndarrays


def encode_array(arr: np.ndarray) -> dict[str, Any]:
    """An ndarray as a pure-JSON envelope (dtype + shape + base64 bytes)."""
    arr = np.ascontiguousarray(arr)
    return {
        "__nd__": 1,
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj: Any) -> np.ndarray:
    """Rebuild an :func:`encode_array` envelope; typed error on junk."""
    if not isinstance(obj, dict) or obj.get("__nd__") != 1:
        raise ProtocolError(f"expected ndarray envelope, got {type(obj).__name__}")
    try:
        dtype = np.dtype(obj["dtype"])
        shape = tuple(int(d) for d in obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
        arr = np.frombuffer(raw, dtype=dtype)
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"malformed ndarray envelope: {e}") from None
    expected = math.prod(shape)
    if arr.size != expected:
        raise ProtocolError(
            f"ndarray envelope size mismatch: {arr.size} elements for shape {shape}"
        )
    return arr.reshape(shape).copy()  # writable, owns its memory


def array_header(values) -> tuple[dict[str, Any], memoryview]:
    """The hot-path form: a tiny JSON header + the raw bytes to attach.

    The returned memoryview aliases ``values`` (made contiguous first) —
    hand it straight to the stream writer; nothing is copied and no
    text codec touches the payload.  A ragged nesting or an object
    array has no byte form (the latter's buffer holds pointers), so
    either is refused, typed.
    """
    try:
        arr = np.asarray(values)
    except ValueError as e:  # ragged nesting
        raise ConfigError(f"cannot send a ragged array over the wire: {e}") from None
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if arr.dtype.hasobject:
        raise ConfigError(f"cannot send a {arr.dtype} array over the wire")
    header = {"__nd__": 2, "dtype": arr.dtype.str, "shape": list(arr.shape)}
    return header, memoryview(arr).cast("B")


def decode_payload(obj: Any, attachment: bytes | memoryview = b"") -> np.ndarray:
    """Rebuild an array from either wire form.

    ``__nd__: 2`` headers read the frame's binary attachment
    (zero-copy: the result aliases the receive buffer and is read-only);
    ``__nd__: 1`` envelopes decode from base64.  Typed error on junk.
    """
    if isinstance(obj, dict) and obj.get("__nd__") == 2:
        try:
            dtype = np.dtype(obj["dtype"])
            shape = tuple(int(d) for d in obj["shape"])
            arr = np.frombuffer(attachment, dtype=dtype)
        except (KeyError, TypeError, ValueError) as e:
            raise ProtocolError(f"malformed ndarray header: {e}") from None
        expected = math.prod(shape)
        if arr.size != expected:
            raise ProtocolError(
                f"attachment holds {arr.size} elements, header says {shape}"
            )
        return arr.reshape(shape)
    return decode_array(obj)


# -------------------------------------------------------------------- frames


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one attachment-free message into a frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return len(body).to_bytes(_PREFIX, "big") + body


async def _read_exactly(reader: asyncio.StreamReader, n: int, what: str) -> bytes:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as e:
        if not e.partial and what == "frame prefix":
            raise ConnectionLostError("connection closed between frames") from None
        raise ConnectionLostError(
            f"connection closed inside a {what} ({len(e.partial)}/{n} bytes)"
        ) from None
    except (ConnectionError, OSError) as e:
        raise ConnectionLostError(f"connection lost: {e}") from None


async def read_frame(
    reader: asyncio.StreamReader,
) -> tuple[dict[str, Any], bytes]:
    """Read one frame: ``(message, attachment)``.

    The attachment is ``b""`` unless the message declares ``"bin": N``,
    in which case the next N bytes of the stream belong to this frame.
    Typed errors for EOF, oversize, and junk JSON.
    """
    prefix = await _read_exactly(reader, _PREFIX, "frame prefix")
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    body = await _read_exactly(reader, length, "frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"frame is not valid JSON: {e}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    attachment: bytes = b""
    bin_len = message.get("bin", 0)
    if bin_len:
        if not isinstance(bin_len, int) or not 0 < bin_len <= MAX_FRAME_BYTES:
            raise ProtocolError(f"bad attachment length {bin_len!r}")
        attachment = await _read_exactly(reader, bin_len, "frame attachment")
    return message, attachment


def write_frame_nowait(
    writer: asyncio.StreamWriter,
    message: dict[str, Any],
    attachment: bytes | memoryview = b"",
) -> None:
    """Queue one frame on the writer without draining (hot path).

    The caller is responsible for an eventual ``writer.drain()`` —
    batching many frames per drain is what amortizes flow-control
    checks and syscalls across a busy connection.
    """
    if attachment:
        message = {**message, "bin": len(attachment)}
    try:
        writer.write(encode_frame(message))
        if attachment:
            writer.write(attachment)  # zero-copy: no text codec, no concat
    except (ConnectionError, OSError) as e:
        raise ConnectionLostError(f"connection lost while writing: {e}") from None


async def write_frame(
    writer: asyncio.StreamWriter,
    message: dict[str, Any],
    attachment: bytes | memoryview = b"",
) -> None:
    """Write one frame and drain; connection failures come back typed."""
    write_frame_nowait(writer, message, attachment)
    try:
        await writer.drain()
    except (ConnectionError, OSError) as e:
        raise ConnectionLostError(f"connection lost while writing: {e}") from None


# ---------------------------------------------------------------- messages


def hello_frame() -> dict[str, Any]:
    """The client's opening frame."""
    return {"op": "hello", "proto": PROTO_VERSION}


def error_body(err: BaseException) -> dict[str, Any]:
    """The wire form of an exception (stable ``code`` + message)."""
    code = getattr(err, "code", None) or ReproError.code
    return {"code": str(code), "message": str(err)}


def error_frame(request_id: Any, err: BaseException) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "error": error_body(err)}


def result_frame(
    request_id: Any, result: np.ndarray
) -> tuple[dict[str, Any], memoryview]:
    """``(message, attachment)`` for one successful result."""
    header, attachment = array_header(result)
    return {"id": request_id, "ok": True, "result": header}, attachment


def error_from_frame(frame: dict[str, Any]) -> ReproError:
    """Rebuild the typed exception an error frame describes."""
    body = frame.get("error")
    if not isinstance(body, dict):
        return ProtocolError(f"malformed error frame: {frame!r}")
    return error_from_code(
        str(body.get("code", ReproError.code)), str(body.get("message", ""))
    )
