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
  ``id``.  One table keyed by id keeps each request with its service
  future while in flight and its response frame once finished: a
  retried id joins the in-flight execution or replays the stored
  frame, so a client retry after a dropped connection is **not
  double-executed**.  The response is stored before it is written, so
  a connection that dies mid-response still leaves it for the retry.
  A frame reusing an id is compared by value (op, payload header,
  attachment bytes); one naming another request is refused, typed.
  Finished entries are held within :data:`REPLAY_BUDGET_BYTES`,
  evicted oldest-finished first (a replay does not refresh one); every
  op is a pure read, so a retry whose entry was evicted re-executes
  to the same bits.
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
* **Graceful shutdown** — :meth:`ServeTransport.shutdown` stops
  accepting, closes the service (its graceful drain completes the
  in-flight batch and fails queued requests with a typed
  :class:`~repro.errors.ServiceClosedError`), then reads every frame
  each connection has already received and answers it — a frame read
  during the drain gets ``ServiceClosedError`` — flushes every response
  frame and closes the connections.  No frame the server received goes
  unanswered.

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
import socket
import time
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

#: bytes of finished requests and responses held for replay to a
#: retried id.  A client retries after its backoff: with the default 3
#: retries the steps (BACKOFF_BASE_MS doubling, under BACKOFF_CAP_MS)
#: sum to 35 ms, and at the loaded serve rate on G2 (about 2,700
#: propagates/s, each a 158-KB column in and one out) about 30 MB
#: finish in that time.  An entry evicted sooner costs only a
#: re-execution, to the same bits.
REPLAY_BUDGET_BYTES = 32 << 20

#: what one finished entry is charged beyond its attachments: about the
#: size of its Python objects (id, headers, response frame), so entries
#: without attachments are bounded too
_ENTRY_BYTES = 1024

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

    def stop_reading(self) -> None:
        """Shut the socket's read side.  The bytes already received stay
        readable (Linux), then the read loop meets end-of-file."""
        sock = self.writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RD)


class _Entry:
    """One request id: the request it named, its service future while in
    flight, its ``(message, attachment)`` response frame once finished."""

    __slots__ = ("request", "future", "response", "nbytes")

    def __init__(self, request: tuple):
        self.request = request
        self.future: asyncio.Future | None = None
        self.response: tuple[dict[str, Any], bytes | memoryview] | None = None
        self.nbytes = 0


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
        #: request id -> entry; finished entries in the order they finished
        self._requests: OrderedDict[str, _Entry] = OrderedDict()
        #: bytes the finished entries are charged
        self._held = 0
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
        in-flight batch completes, queued requests fail typed), every
        frame a connection has received is answered, the response frames
        flush, then the connections close."""
        if self._shutting_down:
            return
        self._shutting_down = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Drain the service: every pending future resolves — a real
        # result for the in-flight batch, ServiceClosedError for the
        # still-queued rest — and its done callbacks queue the frames.
        await self.service.close()
        pending = [e.future for e in self._requests.values() if e.response is None]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # From here a frame is answered as it is read (the closed service
        # refuses it at once).  Each read loop reads what its socket has
        # received, meets end-of-file, flushes its outbox and hangs up.
        for conn in list(self._conns):
            conn.stop_reading()
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
        # Reads until the stream ends, shutdown included: a frame that
        # arrives during the drain gets a typed serve.closed answer.
        while True:
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
        # Idempotency: an id runs once.  A frame repeating the request
        # the id first carried joins its execution or replays its frame.
        request = (op, frame.get("payload"), attachment)
        entry = self._requests.get(request_id)
        if entry is None:
            entry = self._requests[request_id] = _Entry(request)
            self._admit(request_id, entry, frame)
        elif entry.request != request:
            self._refuse(conn, request_id, f"id {request_id!r} names another request", rpc)
            return
        elif entry.response is not None:
            obs.event("serve.dedup_hit", op=str(op), request_id=request_id)
        if entry.response is not None:
            self._send(conn, *entry.response, rpc)
        else:
            entry.future.add_done_callback(
                lambda _, c=conn, e=entry, r=rpc: self._send(c, *e.response, r)
            )

    def _refuse(self, conn: _Connection, request_id: Any, reason: str, rpc: tuple) -> None:
        """Answer one frame with a typed protocol error; nothing runs."""
        self._send(conn, protocol.error_frame(request_id, ProtocolError(reason)), rpc=rpc)

    def _admit(self, request_id: str, entry: _Entry, frame: dict[str, Any]) -> None:
        """Validate and submit the entry's ``(op, payload header,
        attachment)`` request; a refusal finishes the entry at once."""
        op, header, attachment = entry.request
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
            entry.future = self.service.submit_nowait(
                op, payload, priority=priority, deadline_ms=deadline_ms
            )
        except Exception as e:
            if not isinstance(e, ReproError):  # defensive: never leak an untyped crash
                e = ReproError(f"internal error: {type(e).__name__}: {e}")
            self._finish(request_id, entry, protocol.error_frame(request_id, e))
            return
        entry.future.add_done_callback(lambda fut: self._resolve(request_id, entry, fut))

    def _resolve(self, request_id: str, entry: _Entry, future: "asyncio.Future") -> None:
        """Future callback: turn one outcome into the entry's frame."""
        exc = ReproError("request cancelled") if future.cancelled() else future.exception()
        if exc is None:
            self._finish(request_id, entry, *protocol.result_frame(request_id, future.result()))
        else:
            self._finish(request_id, entry, protocol.error_frame(request_id, exc))

    def _finish(
        self,
        request_id: str,
        entry: _Entry,
        message: dict[str, Any],
        attachment: bytes | memoryview = b"",
    ) -> None:
        """Store a request's response frame, before any write of it, so a
        response lost to a dropped connection replays to the retry; then
        hold the finished entries within :data:`REPLAY_BUDGET_BYTES`,
        evicting the oldest-finished first."""
        entry.future, entry.response = None, (message, attachment)
        entry.nbytes = _ENTRY_BYTES + len(entry.request[2]) + len(attachment)
        self._held += entry.nbytes
        requests = self._requests
        requests.move_to_end(request_id)
        while self._held > REPLAY_BUDGET_BYTES:
            oldest_id, oldest = next(iter(requests.items()))
            if oldest.response is None:
                requests.move_to_end(oldest_id)  # in flight: never evicted
                continue
            del requests[oldest_id]
            self._held -= oldest.nbytes

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
            conn.closing = True  # responses stay stored for retries

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
