"""Asyncio TCP transport in front of :class:`~repro.serve.InferenceService`.

The service itself is in-process asyncio only; this module puts it on
a socket without re-deciding anything the service already decided.
Its only options are where to listen (``host``, ``port``).  The
transport's job is strictly the network edge:

* **Framing + handshake** — length-prefixed JSON frames with binary
  array attachments (:mod:`repro.serve.protocol`); every connection
  opens with an exact-match version handshake so protocol evolution has
  a seam.
* **Idempotent execution** — request frames carry a client-generated
  ``id``.  The transport keeps an in-flight table and the last
  :data:`DEDUP_CAP` finished responses, evicted oldest first in the
  order they finished (a replay does not refresh one): a retried id
  joins the in-flight execution or replays the cached response, so a
  client retry after a dropped connection is **never double-executed**.  The
  response is cached as it is written, so a connection that dies
  mid-response still leaves the result for the retry; a frame reusing
  an id for another op, payload header or attachment is refused, typed.
* **Deadline/priority propagation** — frames carry ``deadline_ms``
  (remaining budget, recomputed by the client per attempt) and
  ``priority``, handed straight to the service's
  scheduler via its :meth:`~InferenceService.submit_nowait` hot path:
  no per-request task, and responses flow back through future
  callbacks into a per-connection writer task that batches many frames
  per drain.
* **Probes** — ``health`` and ``ready`` ops answer from
  :meth:`InferenceService.health` without touching the request queue,
  so a load balancer can probe a saturated service.
* **Graceful shutdown** — :meth:`ServeTransport.shutdown` (also the
  installed SIGTERM/SIGINT handler) stops accepting, closes the service
  (its graceful drain completes the in-flight batch and fails queued
  requests with a typed :class:`~repro.errors.ServiceClosedError`),
  flushes every pending response frame — real results and typed
  rejections alike — then closes the connections.  Every admitted
  request resolves; none are silently dropped.

Chaos: the injector's network sites fire at the response edge —
``net.conn_drop`` (connection aborted instead of the response write),
``net.partial_write`` (half a frame, then abort: the client must treat
a torn frame as a lost connection, never parse garbage) and
``net.slow_peer`` (stalled write) — plus ``serve.deadline_storm``
(the request's deadline collapses at arrival, exercising pre-launch
shedding end to end).  Under all of them the client observes only
typed errors or bit-identical results; ``scripts/chaos_serve.py``
gates exactly that.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
import zlib
from collections import OrderedDict, deque
from typing import Any

from repro import obs
from repro.errors import ConnectionLostError, ProtocolError, ReproError
from repro.resilience import faults
from repro.serve import protocol
from repro.serve.service import InferenceService

#: chaos sites consulted at the response-write edge
FAULT_CONN_DROP = "net.conn_drop"
FAULT_PARTIAL_WRITE = "net.partial_write"
FAULT_SLOW_PEER = "net.slow_peer"
#: chaos site collapsing an arriving request's deadline
FAULT_DEADLINE_STORM = "serve.deadline_storm"

#: injected slow-peer stall (seconds): long enough to shuffle batch
#: composition, short enough to keep chaos runs quick.
SLOW_PEER_SECONDS = 0.005

#: deadline a storm-hit request is collapsed to (expires pre-launch)
STORM_DEADLINE_MS = 0.01

#: finished responses kept for replay to a retried request id (evicted
#: in insertion order)
DEDUP_CAP = 1024

#: ops a request frame may carry (hello is handled by the handshake)
_REQUEST_OPS = ("propagate", "predict", "health", "ready")


class _Connection:
    """Per-connection state: the response outbox its writer task drains."""

    __slots__ = ("reader", "writer", "outbox", "wakeup", "closing", "writer_task")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: queued ``(message, attachment, rpc-accounting | None)`` frames
        self.outbox: deque = deque()
        self.wakeup = asyncio.Event()
        self.closing = False
        self.writer_task: asyncio.Task | None = None

    def send(
        self,
        message: dict[str, Any],
        attachment: bytes | memoryview = b"",
        rpc: tuple | None = None,
    ) -> None:
        self.outbox.append((message, attachment, rpc))
        self.wakeup.set()


def _fingerprint(request: tuple) -> tuple:
    """What a reused request id must repeat: the op, the payload header
    and the CRC-32 of the attachment (the cache keeps no payload bytes)."""
    op, header, attachment = request
    return op, header, zlib.crc32(attachment)


class ServeTransport:
    """TCP server exposing one :class:`InferenceService`.

    Usage::

        service = InferenceService(graph)
        transport = ServeTransport(service, port=0)   # 0 = ephemeral
        async with transport:                          # starts service too
            ...                                        # clients connect
    """

    def __init__(
        self,
        service: InferenceService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = int(port)
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        #: id -> (future, request) and id -> (frame, attachment, fingerprint)
        self._inflight: dict[str, tuple[asyncio.Future, tuple]] = {}
        self._responses: OrderedDict[
            str, tuple[dict[str, Any], bytes | memoryview, tuple]
        ] = OrderedDict()
        self._shutting_down = False

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "ServeTransport":
        if self._server is not None:
            return self
        await self.service.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.event("serve.transport_start", host=self.host, port=self.port)
        return self

    async def shutdown(self) -> None:
        """Graceful stop: no new connections, the service drains (the
        in-flight batch completes, queued requests fail typed), pending
        response frames flush, then the connections close.  Zero
        admitted requests are lost."""
        if self._shutting_down:
            return
        self._shutting_down = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Drain the service: every pending future resolves — a real
        # result for the in-flight batch, ServiceClosedError for the
        # still-queued rest — so every response frame enqueues now.
        await self.service.close()
        if self._inflight:
            await asyncio.gather(
                *(future for future, _ in self._inflight.values()),
                return_exceptions=True,
            )
        await asyncio.sleep(0)  # let future callbacks enqueue their frames
        # Flush each connection's outbox, then hang up; the closed
        # sockets surface as connection-lost to the blocked read loops.
        for conn in list(self._conns):
            conn.closing = True
            conn.wakeup.set()
        for conn in list(self._conns):
            if conn.writer_task is not None:
                with contextlib.suppress(Exception):
                    await conn.writer_task
            conn.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        obs.event("serve.transport_stop", host=self.host, port=self.port)

    async def __aenter__(self) -> "ServeTransport":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # ---------------------------------------------------------- connections

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn = _Connection(reader, writer)
        self._conns.add(conn)
        writer_task = asyncio.create_task(self._write_loop(conn))
        conn.writer_task = writer_task
        try:
            if await self._handshake(conn):
                await self._read_loop(conn)
        finally:
            # Let queued responses (typed rejections included) flush
            # before the socket closes; the writer task exits once the
            # outbox is empty and ``closing`` is set.
            conn.closing = True
            conn.wakeup.set()
            await writer_task
            self._conns.discard(conn)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _handshake(self, conn: _Connection) -> bool:
        try:
            hello, _ = await protocol.read_frame(conn.reader)
        except (ConnectionLostError, ProtocolError):
            return False
        if hello.get("op") != "hello" or hello.get("proto") != protocol.PROTO_VERSION:
            err = ProtocolError(
                f"handshake refused: need op=hello proto={protocol.PROTO_VERSION}, "
                f"got op={hello.get('op')!r} proto={hello.get('proto')!r}"
            )
            conn.send(protocol.error_frame(None, err))
            return False
        conn.send({
            "ok": True,
            "proto": protocol.PROTO_VERSION,
            "server": "repro.serve",
            "ops": list(_REQUEST_OPS),
        })
        return True

    async def _read_loop(self, conn: _Connection) -> None:
        # Deliberately not gated on shutdown: during a graceful drain a
        # straggler request still gets a typed serve.closed answer
        # instead of silence.
        while not conn.closing:
            try:
                frame, attachment = await protocol.read_frame(conn.reader)
            except ConnectionLostError:
                return
            except ProtocolError as e:
                # Unparseable input: answer typed, then hang up — the
                # stream offset is untrustworthy from here on.
                conn.send(protocol.error_frame(None, e))
                return
            self._handle_request(conn, frame, attachment)

    # ------------------------------------------------------------- requests

    def _handle_request(
        self, conn: _Connection, frame: dict[str, Any], attachment: bytes
    ) -> None:
        """Dispatch one request frame; its response lands in the outbox."""
        rpc = (str(frame.get("op")), time.time(), time.perf_counter())
        op = frame.get("op")
        request_id = frame.get("id")
        if op in ("health", "ready"):
            health = self.service.health()
            body = health if op == "health" else {"ready": health["ready"]}
            self._send(conn, {"id": request_id, "ok": True, "health": body}, rpc=rpc)
            return
        if op not in _REQUEST_OPS:
            self._refuse(conn, request_id, f"unknown op {op!r}", rpc)
            return
        if not isinstance(request_id, str) or not request_id:
            self._refuse(conn, request_id, f"op {op!r} requires a non-empty string id", rpc)
            return
        # Idempotency: a finished id replays its cached response; an
        # in-flight id joins the existing execution.  Either way the
        # request body is executed exactly once, and only a frame that
        # repeats the request the id first carried gets its answer.
        request = (op, frame.get("payload"), attachment)
        cached = self._responses.get(request_id)
        inflight = self._inflight.get(request_id)
        if cached is not None or inflight is not None:
            seen = cached[2] if cached is not None else _fingerprint(inflight[1])
            if seen != _fingerprint(request):
                self._refuse(conn, request_id, f"id {request_id!r} names another request", rpc)
                return
        if cached is not None:
            obs.event("serve.dedup_hit", op=str(op), request_id=request_id)
            self._send(conn, cached[0], cached[1], rpc)
            return
        if inflight is not None:
            future = inflight[0]
        else:
            future = self._execute(conn, frame, request_id, request, rpc)
            if future is None:
                return  # admission failed; typed error frame already queued
            self._inflight[request_id] = (future, request)
        future.add_done_callback(
            lambda fut, c=conn, rid=request_id, r=rpc, q=request:
                self._finish(c, rid, fut, r, q)
        )

    def _refuse(self, conn: _Connection, request_id: Any, reason: str, rpc: tuple) -> None:
        """Answer one frame with a typed protocol error; nothing runs."""
        self._send(conn, protocol.error_frame(request_id, ProtocolError(reason)), rpc=rpc)

    def _execute(
        self,
        conn: _Connection,
        frame: dict[str, Any],
        request_id: str,
        request: tuple,
        rpc: tuple,
    ) -> "asyncio.Future | None":
        """Validate and admit one ``(op, payload header, attachment)``
        request; returns the service future."""
        op, header, attachment = request
        injector = faults.get_injector()
        deadline_ms = frame.get("deadline_ms")
        priority = frame.get("priority")
        try:
            # json.loads yields floats for NaN/Infinity, and bool is an int.
            if deadline_ms is not None and (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not math.isfinite(deadline_ms)
            ):
                raise ProtocolError(f"bad deadline_ms {deadline_ms!r}")
            if injector.fire(FAULT_DEADLINE_STORM, op=op):
                deadline_ms = STORM_DEADLINE_MS
            payload = protocol.decode_payload(header, attachment)
            return self.service.submit_nowait(
                op, payload, priority=priority, deadline_ms=deadline_ms
            )
        except Exception as e:
            if not isinstance(e, ReproError):  # defensive: never leak an untyped crash
                e = ReproError(f"internal error: {type(e).__name__}: {e}")
            self._cache_and_send(
                conn, request_id, protocol.error_frame(request_id, e), b"", rpc, request
            )
            return None

    def _finish(
        self,
        conn: _Connection,
        request_id: str,
        future: "asyncio.Future",
        rpc: tuple,
        request: tuple,
    ) -> None:
        """Future callback: turn one outcome into a cached, queued frame."""
        self._inflight.pop(request_id, None)
        exc = ReproError("request cancelled") if future.cancelled() else future.exception()
        if exc is None:
            message, attachment = protocol.result_frame(request_id, future.result())
        else:
            message, attachment = protocol.error_frame(request_id, exc), b""
        self._cache_and_send(conn, request_id, message, attachment, rpc, request)

    def _cache_and_send(
        self,
        conn: _Connection,
        request_id: str,
        message: dict[str, Any],
        attachment: bytes | memoryview,
        rpc: tuple,
        request: tuple,
    ) -> None:
        # Cached in the write's own loop step, whether or not the write
        # succeeds: a response lost to a dropped connection replays to
        # the retry, never re-executes.  The CRC runs once the frame is
        # queued, off the response's latency path.
        try:
            self._send(conn, message, attachment, rpc)
        finally:
            self._responses[request_id] = (message, attachment, _fingerprint(request))
            while len(self._responses) > DEDUP_CAP:
                self._responses.popitem(last=False)

    # -------------------------------------------------------------- writing

    def _send(
        self,
        conn: _Connection,
        message: dict[str, Any],
        attachment: bytes | memoryview = b"",
        rpc: tuple | None = None,
    ) -> None:
        """Queue or directly write one response frame.

        Fault-free fast path: write inline right here (often a future
        callback) — no writer-task hop, no per-frame drain; asyncio's
        transport flushes eagerly.  The writer task takes over whenever
        order matters (frames already queued), chaos is armed (its
        injection points need ``await``), the peer is applying real
        backpressure, or the connection is closing (shutdown flushes
        through the outbox).
        """
        transport = conn.writer.transport
        if (
            not conn.outbox
            and not conn.closing
            and not faults.get_injector().enabled
            and transport is not None
            and transport.get_write_buffer_size() < (1 << 20)
        ):
            try:
                protocol.write_frame_nowait(conn.writer, message, attachment)
            except ConnectionLostError:
                conn.closing = True
                conn.wakeup.set()
                return
            if rpc is not None:
                self._emit_rpc(message, rpc)
            return
        conn.send(message, attachment, rpc)

    async def _write_loop(self, conn: _Connection) -> None:
        """The connection's single writer: many frames per drain."""
        injector = faults.get_injector()
        try:
            while True:
                if not conn.outbox:
                    if conn.closing:
                        return
                    conn.wakeup.clear()
                    if conn.closing:  # closed between check and clear
                        return
                    await conn.wakeup.wait()
                    continue
                wrote = 0
                while conn.outbox:
                    message, attachment, rpc = conn.outbox.popleft()
                    # chaos fires at the response edge only — handshake
                    # frames (rpc=None) stay clean so a connect is not a
                    # coin flip (retry semantics live on requests).
                    if injector.enabled and rpc is not None:
                        await self._chaos_edge(conn, injector)
                    protocol.write_frame_nowait(conn.writer, message, attachment)
                    wrote += 1
                    if rpc is not None:
                        self._emit_rpc(message, rpc)
                if wrote:
                    try:
                        await conn.writer.drain()
                    except (ConnectionError, OSError) as e:
                        raise ConnectionLostError(str(e)) from None
        except ConnectionLostError:
            conn.closing = True  # responses stay cached for retries

    async def _chaos_edge(self, conn: _Connection, injector) -> None:
        """Consult the network chaos sites before one response write."""
        if injector.fire(FAULT_SLOW_PEER):
            await asyncio.sleep(SLOW_PEER_SECONDS)
        if injector.fire(FAULT_CONN_DROP):
            self._abort(conn.writer)
            raise ConnectionLostError("injected connection drop (net.conn_drop)")
        if injector.fire(FAULT_PARTIAL_WRITE):
            frame_bytes = protocol.encode_frame({"ok": True})
            with contextlib.suppress(ConnectionError, OSError):
                conn.writer.write(frame_bytes[: max(1, len(frame_bytes) // 2)])
                await conn.writer.drain()
            self._abort(conn.writer)
            raise ConnectionLostError("injected torn response (net.partial_write)")

    def _emit_rpc(self, message: dict[str, Any], rpc: tuple) -> None:
        op, t_start_s, t_start_p = rpc
        code = "ok" if message.get("ok") else str(
            (message.get("error") or {}).get("code", "error")
        )
        obs.emit_span(
            "serve.rpc",
            start_s=t_start_s,
            wall_ms=(time.perf_counter() - t_start_p) * 1e3,
            status="ok" if code == "ok" else "error",
            op=op,
            code=code,
            worker="transport",
        )

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        transport = writer.transport
        if transport is not None:
            transport.abort()
