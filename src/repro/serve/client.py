"""Client for the networked serving path: retries, deadlines, idempotency.

:class:`ServeClient` is the other half of
:mod:`repro.serve.transport`.  It multiplexes any number of concurrent
requests over one TCP connection (a background reader task demuxes
responses by request ``id``), and owns the three client-side
reliability decisions:

* **Retries** — only *transport* failures (lost/torn connections) are
  retried, with bounded attempts and jittered exponential backoff.
  A typed error frame from the server is an *answer*, not a failure:
  it is raised immediately, never retried (retrying a
  ``serve.deadline`` or ``config.invalid`` verdict cannot change it).
  The jitter is deterministic per ``(request id, attempt)`` so chaos
  runs replay exactly.  The backoff base and cap and the connect
  timeout are the module constants below.
* **Idempotency** — the request ``id`` is minted once per logical call
  and reused verbatim across retries; the server deduplicates on it, so
  a retry after a dropped response collects the stored result instead
  of executing twice (past the server's replay budget it re-executes,
  to the same bits).
* **Deadline propagation** — the caller's ``deadline_ms`` is a total
  budget for the logical call.  Each attempt sends the *remaining*
  budget (so the server's scheduler sheds work nobody is waiting for),
  and the client stops retrying — :class:`~repro.errors.RequestTimeoutError`
  — once the budget is spent.

Usage::

    async with ServeClient(port=transport.port) as client:
        y = await client.propagate(column, deadline_ms=100.0,
                                   priority="interactive")
        ok = (await client.ready())["ready"]
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import os
import time
from typing import Any

import numpy as np

from repro import obs
from repro.errors import (
    ConfigError,
    ConnectionLostError,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    RetriesExhaustedError,
)
from repro.serve import protocol
from repro.serve.scheduler import check_deadline

#: first retry's backoff step, doubled per further attempt
BACKOFF_BASE_MS = 5.0
#: ceiling of one backoff step
BACKOFF_CAP_MS = 200.0
#: budget for opening the connection and its handshake
CONNECT_TIMEOUT_MS = 5_000.0


def backoff_ms(request_id: str, attempt: int) -> float:
    """Jittered exponential backoff, deterministic per (id, attempt).

    ``BACKOFF_BASE_MS * 2**(attempt-1)`` capped at ``BACKOFF_CAP_MS``,
    scaled into ``[0.5, 1.0)`` of itself by a hash-derived jitter —
    decorrelates a retry storm across clients while staying exactly
    replayable for a given request id (no global RNG state involved).
    """
    raw = min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.blake2b(
        f"{request_id}:{attempt}".encode(), digest_size=8
    ).digest()
    jitter = 0.5 + 0.5 * (int.from_bytes(digest, "big") / 2**64)
    return raw * jitter


class ServeClient:
    """One connection to a :class:`~repro.serve.transport.ServeTransport`.

    Safe for concurrent use from many tasks; reconnects lazily after a
    lost connection (the next call pays the reconnect).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int,
        retries: int = 3,
    ):
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = int(port)
        self.retries = int(retries)
        #: attempts re-sent after a lost connection, over the client's life
        self.retried = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._conn_lock = asyncio.Lock()
        self._closed = False
        self._seq = itertools.count()
        self._id_prefix = os.urandom(6).hex()

    # ------------------------------------------------------------ lifecycle

    async def connect(self) -> "ServeClient":
        await self._ensure_connected()
        return self

    async def close(self) -> None:
        self._closed = True
        await self._teardown(ConnectionLostError("client closed"))

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # --------------------------------------------------------------- calls

    async def propagate(
        self,
        columns: np.ndarray,
        *,
        priority: str | None = None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Remote :meth:`InferenceService.propagate`; bit-identical result.

        Columns travel in their own dtype, so the server's
        :meth:`~InferenceService.submit_nowait` is the one check on both
        paths; only a ragged nesting, which has no wire form, is refused
        here (:class:`~repro.errors.ConfigError`).  The returned array is
        a zero-copy view of the receive buffer and is read-only;
        ``.copy()`` it if you need to mutate.
        """
        return await self._call("propagate", columns, priority, deadline_ms)

    async def predict(
        self,
        node_ids,
        *,
        priority: str | None = None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Remote :meth:`InferenceService.predict` (read-only result).

        Ids travel in their own dtype and shape: the server rejects
        non-integer ids with a typed error instead of the client
        truncating them, and a scalar id gets one row back, as
        in-process.
        """
        return await self._call("predict", node_ids, priority, deadline_ms)

    async def health(self) -> dict[str, Any]:
        """The service's full health snapshot, over the wire."""
        response, _ = await self._roundtrip({"op": "health", "id": self._next_id()})
        return response["health"]

    async def ready(self) -> dict[str, Any]:
        """Readiness probe: ``{"ready": bool}``."""
        response, _ = await self._roundtrip({"op": "ready", "id": self._next_id()})
        return response["health"]

    # ------------------------------------------------------------ internals

    def _next_id(self) -> str:
        return f"{self._id_prefix}-{next(self._seq)}"

    async def _call(
        self, op: str, values, priority: str | None, deadline_ms: float | None
    ) -> np.ndarray:
        """One logical ``op`` request carrying ``values``: mint the id once,
        retry transport failures."""
        header, payload = protocol.array_header(values)
        check_deadline(deadline_ms)  # the budget is checked as in-process
        request_id = self._next_id()
        frame = {"op": op, "payload": header, "id": request_id}
        if priority is not None:
            frame["priority"] = priority
        t_start = time.perf_counter()
        budget_s = None if deadline_ms is None else deadline_ms / 1e3
        attempt = 0
        last_err: ReproError | None = None
        while attempt <= self.retries:
            attempt += 1
            remaining_s = None
            if budget_s is not None:
                remaining_s = budget_s - (time.perf_counter() - t_start)
                if remaining_s <= 0:
                    raise RequestTimeoutError(
                        f"deadline of {deadline_ms:.0f} ms spent after "
                        f"{attempt - 1} attempt(s)"
                    ) from last_err
                frame["deadline_ms"] = remaining_s * 1e3  # remaining budget
            try:
                response, attachment = await self._roundtrip(
                    frame, payload, timeout_s=remaining_s
                )
            except ConnectionLostError as e:
                last_err = e
                if attempt > self.retries:
                    break
                self.retried += 1
                obs.event(
                    "serve.client_retry", request_id=request_id,
                    attempt=attempt, reason=str(e),
                )
                await asyncio.sleep(backoff_ms(request_id, attempt) / 1e3)
                continue
            result = response.get("result")
            if result is None:
                raise ProtocolError(f"result frame without a result: {response!r}")
            return protocol.decode_payload(result, attachment)
        raise RetriesExhaustedError(
            f"request {request_id} failed after {attempt} attempt(s): {last_err}"
        ) from last_err

    async def _roundtrip(
        self,
        frame: dict[str, Any],
        payload: bytes | memoryview = b"",
        *,
        timeout_s: float | None = None,
    ) -> tuple[dict[str, Any], bytes]:
        """Send one frame, await its ``(response, attachment)``; raise
        typed server errors."""
        request_id = frame["id"]
        await self._ensure_connected()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            writer = self._writer
            if writer is None:
                raise ConnectionLostError("connection lost before send")
            # Lockless hot path: write_frame_nowait is synchronous (no
            # await between its writes), so concurrent callers cannot
            # interleave frames; the drain — the only await — happens
            # outside the frame and only under real backpressure.
            protocol.write_frame_nowait(writer, frame, payload)
            if writer.transport.get_write_buffer_size() > 256 * 1024:
                try:
                    await writer.drain()
                except (ConnectionError, OSError) as e:
                    raise ConnectionLostError(
                        f"connection lost while writing: {e}"
                    ) from None
            if timeout_s is None:
                response = await future
            else:
                try:
                    response = await asyncio.wait_for(future, timeout_s)
                except asyncio.TimeoutError:
                    raise RequestTimeoutError(
                        f"no response within the {timeout_s * 1e3:.0f} ms budget"
                    ) from None
        finally:
            self._pending.pop(request_id, None)
        message, attachment = response
        if not message.get("ok"):
            raise protocol.error_from_frame(message)
        return message, attachment

    async def _ensure_connected(self) -> None:
        if self._closed:
            raise ConnectionLostError("client is closed")
        async with self._conn_lock:
            if self._writer is not None and not self._writer.is_closing():
                return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    CONNECT_TIMEOUT_MS / 1e3,
                )
            except asyncio.TimeoutError:
                raise ConnectionLostError(
                    f"connect to {self.host}:{self.port} timed out"
                ) from None
            except (ConnectionError, OSError) as e:
                raise ConnectionLostError(
                    f"connect to {self.host}:{self.port} failed: {e}"
                ) from None
            try:
                await protocol.write_frame(writer, protocol.hello_frame())
                answer, _ = await protocol.read_frame(reader)
            except (ConnectionLostError, ProtocolError):
                writer.close()
                raise
            if not answer.get("ok"):
                writer.close()
                raise protocol.error_from_frame(answer)
            if answer.get("proto") != protocol.PROTO_VERSION:
                writer.close()
                raise ProtocolError(
                    f"server speaks proto {answer.get('proto')!r}, "
                    f"client needs {protocol.PROTO_VERSION}"
                )
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Demux responses to their waiting futures until the stream dies."""
        try:
            while True:
                frame, attachment = await protocol.read_frame(reader)
                future = self._pending.get(frame.get("id"))
                if future is not None and not future.done():
                    future.set_result((frame, attachment))
                # frames for unknown ids (e.g. a dedup replay that raced a
                # client-side timeout) are dropped on the floor, by design
        except (ConnectionLostError, ProtocolError) as e:
            await self._teardown(e)
        except asyncio.CancelledError:
            raise

    async def _teardown(self, error: ReproError) -> None:
        """Fail all waiters with ``error`` and forget the connection."""
        writer, self._writer = self._writer, None
        self._reader = None
        task, self._reader_task = self._reader_task, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
