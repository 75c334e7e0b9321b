"""Networked serving tests: protocol, scheduler, breaker, transport.

The wire path inherits the service's load-bearing property — a response
over the socket must be bit-identical to the in-process answer — and
adds its own: client retries are idempotent (never double-executed),
failures surface as *typed* errors with wire-stable codes, and a
graceful shutdown accounts for every admitted request.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro import serve
from repro.errors import (
    ConfigError,
    ConnectionLostError,
    DeadlineExceededError,
    ERROR_CODES,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    RetriesExhaustedError,
    ServeError,
    ServiceClosedError,
    error_from_code,
)
from repro.nn import GraphData
from repro.resilience.faults import fault_profile, no_faults
from repro.serve import protocol
from repro.serve import transport as transport_mod
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import BACKOFF_CAP_MS, ServeClient, backoff_ms
from repro.serve.scheduler import (
    DeadlineScheduler,
    SchedulerClosed,
    resolve_priority,
)
from repro.serve.service import _Request
from repro.serve.transport import ServeTransport
from tests.conftest import serial as _serial, wire


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact counts and bytes need a fault-free run; a test that wants
    faults swaps in its own profile."""
    with no_faults():
        yield


def _run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_envelope_round_trip_is_bit_identical(self, rng):
        arr = rng.standard_normal((7, 3))
        out = protocol.decode_array(protocol.encode_array(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype and out.shape == arr.shape

    def test_attachment_round_trip_is_bit_identical(self, rng):
        arr = rng.standard_normal((5, 4))
        header, payload = protocol.array_header(arr)
        out = protocol.decode_payload(header, bytes(payload))
        np.testing.assert_array_equal(out, arr)

    def test_attachment_decode_is_zero_copy_read_only(self, rng):
        arr = rng.standard_normal(6)
        header, payload = protocol.array_header(arr)
        out = protocol.decode_payload(header, bytes(payload))
        assert not out.flags.writeable

    def test_junk_envelope_is_typed(self):
        with pytest.raises(ProtocolError):
            protocol.decode_array([1, 2, 3])
        with pytest.raises(ProtocolError):
            protocol.decode_array({"__nd__": 1, "dtype": "nope", "shape": [1],
                                   "data": "AA=="})

    def test_size_mismatch_is_typed(self, rng):
        header, payload = protocol.array_header(rng.standard_normal(4))
        header["shape"] = [5]
        with pytest.raises(ProtocolError, match="header says"):
            protocol.decode_payload(header, bytes(payload))

    def test_oversize_frame_refused(self):
        huge = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_frame(huge)

    def test_error_frame_round_trips_the_type(self):
        frame = protocol.error_frame("r1", DeadlineExceededError("too late"))
        err = protocol.error_from_frame(frame)
        assert isinstance(err, DeadlineExceededError)
        assert "too late" in str(err)

    def test_error_code_registry_round_trips_every_code(self):
        for code, cls in ERROR_CODES.items():
            rebuilt = error_from_code(code, "m")
            assert type(rebuilt) is cls
            assert rebuilt.code == code

    def test_unknown_code_degrades_to_serve_error(self):
        err = error_from_code("serve.from_the_future", "m")
        assert isinstance(err, ServeError)
        assert err.code == "serve.from_the_future"
        # the class attribute stays untouched
        assert ServeError.code == "serve.error"

    def test_backoff_is_deterministic_and_bounded(self):
        a = backoff_ms("req-1", 3)
        b = backoff_ms("req-1", 3)
        assert a == b
        raw = min(200.0, 5.0 * 2 ** 2)
        assert 0.5 * raw <= a < raw
        # different attempts decorrelate
        assert backoff_ms("req-1", 4) != a

    def test_backoff_respects_cap(self):
        assert 0.5 * BACKOFF_CAP_MS <= backoff_ms("r", 30) < BACKOFF_CAP_MS


# --------------------------------------------------------------- scheduler


def _request(priority: str = "standard", deadline_p: float | None = None,
             tag: str = "propagate") -> _Request:
    return _Request(
        kind=tag, payload=np.zeros(1), future=None,
        t_admit_s=0.0, t_admit_p=0.0,
        priority=resolve_priority(priority), deadline_p=deadline_p,
    )


class TestDeadlineScheduler:
    def test_priority_classes_are_strict(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request("bulk", tag="b"))
        s.put_nowait(_request("standard", tag="s"))
        s.put_nowait(_request("interactive", tag="i"))
        assert [s.get_nowait().kind for _ in range(3)] == ["i", "s", "b"]

    def test_edf_within_a_class(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request(deadline_p=30.0, tag="late"))
        s.put_nowait(_request(deadline_p=10.0, tag="soon"))
        s.put_nowait(_request(deadline_p=20.0, tag="mid"))
        assert [s.get_nowait().kind for _ in range(3)] == ["soon", "mid", "late"]

    def test_no_deadline_sorts_last_fifo(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request(tag="first"))
        s.put_nowait(_request(tag="second"))
        s.put_nowait(_request(deadline_p=5.0, tag="urgent"))
        assert [s.get_nowait().kind for _ in range(3)] == [
            "urgent", "first", "second",
        ]

    def test_pop_expired_takes_only_the_expired_prefix(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request(deadline_p=1.0, tag="dead"))
        s.put_nowait(_request(deadline_p=2.0, tag="dying"))
        s.put_nowait(_request(deadline_p=100.0, tag="alive"))
        s.put_nowait(_request(tag="forever"))
        expired = s.pop_expired(now_p=50.0)
        assert sorted(r.kind for r in expired) == ["dead", "dying"]
        assert s.qsize() == 2

    def test_bounded_admission(self):
        s = DeadlineScheduler(maxsize=2)
        s.put_nowait(_request())
        s.put_nowait(_request())
        assert s.full()
        with pytest.raises(asyncio.QueueFull):
            s.put_nowait(_request())

    def test_close_wakes_a_blocked_get(self):
        async def main():
            s = DeadlineScheduler(maxsize=2)
            getter = asyncio.ensure_future(s.get())
            await asyncio.sleep(0)
            s.close()
            with pytest.raises(SchedulerClosed):
                await getter

        _run(main())

    def test_drain_pending_empties_everything(self):
        s = DeadlineScheduler(maxsize=8)
        for name in ("interactive", "standard", "bulk"):
            s.put_nowait(_request(name, tag=name))
        drained = list(s.drain_pending())
        assert len(drained) == 3 and s.qsize() == 0

    def test_unknown_priority_rejected(self):
        with pytest.raises(ConfigError, match="unknown priority"):
            resolve_priority("express")

    @pytest.mark.parametrize("priority", [["x"], {"a": 1}, 0])
    def test_non_string_priority_rejected(self, priority):
        with pytest.raises(ConfigError, match="unknown priority"):
            resolve_priority(priority)


# ----------------------------------------------------------------- breaker


class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = _Clock()
        b = CircuitBreaker(fail_threshold=3, reset_after_ms=1000, clock=clock)
        b.record_failure()
        b.record_failure()
        b.record_success()  # streak resets
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert b.transitions["open"] == 1

    def test_open_fast_fails_until_cooldown_then_probes(self):
        clock = _Clock()
        b = CircuitBreaker(fail_threshold=1, reset_after_ms=500, clock=clock)
        b.record_failure()
        assert not b.allow()
        assert 0 < b.retry_after_ms() <= 500
        clock.now += 0.6
        assert b.allow()  # cooldown elapsed: the probe goes through
        assert b.state == "half_open"

    def test_probe_success_closes(self):
        clock = _Clock()
        b = CircuitBreaker(fail_threshold=1, reset_after_ms=500, clock=clock)
        b.record_failure()
        clock.now += 1.0
        assert b.allow()
        b.record_success()
        assert b.state == "closed"
        assert b.transitions == {"open": 1, "half_open": 1, "close": 1}

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = _Clock()
        b = CircuitBreaker(fail_threshold=1, reset_after_ms=500, clock=clock)
        b.record_failure()
        clock.now += 1.0
        assert b.allow()
        b.record_failure()  # probe failed
        assert b.state == "open"
        assert b.retry_after_ms() == pytest.approx(500.0)
        assert b.transitions["open"] == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(fail_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(reset_after_ms=-1)

    def test_health_probe_changes_no_breaker_state(self, small_graph):
        """An open breaker past its cooldown reads ready; only the next
        admission half-opens it, not a ``health`` or ``ready`` probe."""
        clock = _Clock()

        async def main():
            async with serve.InferenceService(GraphData(small_graph)) as service:
                service.breaker = CircuitBreaker(fail_threshold=1, reset_after_ms=500,
                                                 clock=clock)
                service.breaker.record_failure()
                assert not service.health()["ready"]
                clock.now += 1.0
                return [service.health() for _ in range(2)], service.breaker

        probes, breaker = _run(main())
        assert [p["ready"] for p in probes] == [True, True]
        assert [p["breaker"]["state"] for p in probes] == ["open", "open"]
        assert breaker.state == "open"
        assert breaker.transitions == {"open": 1, "half_open": 0, "close": 0}

    def test_snapshot_shape(self):
        b = CircuitBreaker()
        snap = b.snapshot()
        assert snap["state"] == "closed"
        assert snap["retry_after_ms"] == 0.0
        assert set(snap["transitions"]) == {"open", "half_open", "close"}


# --------------------------------------------------------------- transport


class TestTransportRoundTrip:
    """Round trips over the module's ``served`` transport; the differential
    suite's boundary table holds the full bad-input matrix."""

    def test_health_and_ready_probes(self, served):
        health = served.run(served.client.health())
        assert health["running"] and health["ready"]
        assert health["breaker"]["state"] == "closed"
        assert served.run(served.client.ready()) == {"ready": True}

    def test_handshake_refuses_wrong_proto_version(self, served):
        async def main():
            reader, writer = await asyncio.open_connection("127.0.0.1", served.transport.port)
            await protocol.write_frame(writer, {"op": "hello", "proto": 999})
            answer, _ = await protocol.read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return answer

        answer = served.run(main())
        assert answer["ok"] is False
        assert answer["error"]["code"] == "transport.protocol"

    def test_client_rejects_wrong_server_proto(self, small_graph):
        """A server speaking a different version is a typed connect error."""

        async def fake_server(reader, writer):
            await protocol.read_frame(reader)
            await protocol.write_frame(writer, {"ok": True, "proto": 999})
            writer.close()
            await writer.wait_closed()

        async def main():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with ServeClient(port=port):
                    pass
            finally:
                server.close()
                await server.wait_closed()

        with no_faults():
            with pytest.raises(ProtocolError, match="server speaks proto"):
                _run(main())

    def test_garbage_frame_gets_typed_answer_then_hangup(self, served):
        async def main():
            reader, writer = await asyncio.open_connection("127.0.0.1", served.transport.port)
            await protocol.write_frame(writer, protocol.hello_frame())
            await protocol.read_frame(reader)
            writer.write(len(b"not json").to_bytes(4, "big") + b"not json")
            await writer.drain()
            answer, _ = await protocol.read_frame(reader)
            tail = await reader.read(64)  # server hangs up after answering
            writer.close()
            await writer.wait_closed()
            return answer, tail

        answer, tail = served.run(main())
        assert answer["error"]["code"] == "transport.protocol"
        assert tail == b""


# ------------------------------------------------------------- idempotency


class TestIdempotency:
    def test_duplicate_id_executes_once_and_replays(self, served, rng):
        column = rng.standard_normal(served.graph.num_vertices)
        executed = served.service.stats.requests
        with no_faults():
            outs = [
                protocol.decode_payload(answer["result"], attached)
                for answer, attached in (
                    wire(served, "propagate", column, id="dup-1") for _ in range(2)
                )
            ]
        # the duplicate never re-entered the service
        assert served.service.stats.requests == executed + 1
        np.testing.assert_array_equal(outs[0], _serial(served.graph, column))
        np.testing.assert_array_equal(outs[1], outs[0])

    def test_reused_id_with_another_request_is_refused(self, served, rng):
        """An id names one request: reusing it with another op, payload
        header or payload bytes is a typed error and runs nothing; a true
        retry still replays."""
        column = rng.standard_normal(served.graph.num_vertices)
        first, attached = wire(served, "propagate", column, id="reuse-1")
        executed = served.service.stats.requests
        for op, payload in (("propagate", column + 1.0), ("propagate", column[:, None]),
                            ("predict", np.arange(4))):
            with pytest.raises(ProtocolError, match="reuse-1"):
                wire(served, op, payload, id="reuse-1")
        assert served.service.stats.requests == executed
        assert wire(served, "propagate", column, id="reuse-1") == (first, attached)

    def test_reused_id_in_flight_joins_only_the_same_request(self, served, rng):
        """Frames sent back to back share an id while the first is in flight."""
        columns = rng.standard_normal((2, served.graph.num_vertices))

        async def main():
            reader, writer = await asyncio.open_connection("127.0.0.1", served.transport.port)
            await protocol.write_frame(writer, protocol.hello_frame())
            await protocol.read_frame(reader)
            for column in (columns[0], columns[1], columns[0]):
                header, body = protocol.array_header(column)
                protocol.write_frame_nowait(
                    writer, {"op": "propagate", "id": "busy-1", "payload": header}, body)
            answers = [await protocol.read_frame(reader) for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            return answers

        executed = served.service.stats.requests
        answers = served.run(main())
        refused = [a for a, _ in answers if not a["ok"]]
        results = [protocol.decode_payload(a["result"], b) for a, b in answers if a["ok"]]
        assert [protocol.error_from_frame(a).code for a in refused] == ["transport.protocol"]
        assert len(results) == 2 and served.service.stats.requests == executed + 1
        for out in results:
            np.testing.assert_array_equal(out, _serial(served.graph, columns[0]))

    def test_retry_after_dropped_response_collects_cached_result(self, served, rng):
        """net.conn_drop kills the connection *after* execution; the
        client's reconnect-and-retry must land the cached response, not
        a second execution."""
        column = rng.standard_normal(served.graph.num_vertices)
        executed = served.service.stats.requests

        async def main():
            async with ServeClient(port=served.transport.port, retries=6) as client:
                return await client.propagate(column)

        with fault_profile("net.conn_drop=1", seed=7):
            out = served.run(main())
        np.testing.assert_array_equal(out, _serial(served.graph, column))
        # retried over the wire, executed once
        assert served.service.stats.requests == executed + 1

    def test_replay_table_is_bounded_by_bytes(self, served, rng, monkeypatch):
        """The finished entries stay within the byte budget; a retry of an
        evicted id runs once more to the same bytes, and a reused id with
        a changed attachment is still refused once its entry finished."""
        monkeypatch.setattr(transport_mod, "REPLAY_BUDGET_BYTES", 8_000)
        columns = rng.standard_normal((11, served.graph.num_vertices))
        executed = served.service.stats.requests
        first = wire(served, "propagate", columns[0], id="evict-1")
        for column in columns[1:]:  # 10 x 960 attachment bytes, past the budget
            served.run(served.client.propagate(column))
        table = served.transport._requests
        finished = [e for e in table.values() if e.response is not None]
        held = sum(transport_mod._ENTRY_BYTES + len(e.request[2]) + len(e.response[1])
                   for e in finished)
        assert held <= 8_000 and "evict-1" not in table
        assert wire(served, "propagate", columns[0], id="evict-1") == first
        assert served.service.stats.requests == executed + 12
        with pytest.raises(ProtocolError, match="evict-1"):
            wire(served, "propagate", columns[1], id="evict-1")
        assert served.service.stats.requests == executed + 12


# ---------------------------------------------------------------- shutdown


class TestGracefulShutdown:
    def test_shutdown_races_inflight_batch_zero_lost(self, small_graph, rng):
        """close() while a batch is in flight: every request resolves
        bit-identical or typed; nothing is lost or silently dropped."""
        graph = GraphData(small_graph)
        columns = rng.standard_normal((16, graph.num_vertices))
        refs = [_serial(graph, c) for c in columns]

        async def main():
            service = serve.InferenceService(
                graph, config=serve.ServeConfig(
                    max_batch=2, max_delay_us=0
                )
            )
            transport = ServeTransport(service, port=0)
            outcome = {"ok": 0, "rejected": 0, "conn_lost": 0, "other": 0}
            async with transport:
                async with ServeClient(port=transport.port) as client:
                    async def one(i):
                        try:
                            out = await client.propagate(columns[i])
                        except ServiceClosedError:
                            outcome["rejected"] += 1
                        except (ConnectionLostError, RetriesExhaustedError):
                            outcome["conn_lost"] += 1
                        except ReproError:
                            outcome["other"] += 1
                        else:
                            assert np.array_equal(out, refs[i])
                            outcome["ok"] += 1

                    tasks = [
                        asyncio.ensure_future(one(i))
                        for i in range(len(columns))
                    ]
                    await asyncio.sleep(0)  # all requests hit the socket
                    await transport.shutdown()
                    await asyncio.gather(*tasks)
            return outcome

        with no_faults():
            outcome = _run(main())
        assert sum(outcome.values()) == 16
        assert outcome["other"] == 0
        assert outcome["rejected"] >= 1  # the drain rejected the queue, typed

    def test_frames_received_during_the_drain_are_each_answered(self, small_graph, rng):
        """Frames that reach the socket while the service drains are read
        and answered serve.closed, in order, before the connection closes."""
        graph = GraphData(small_graph)
        columns = rng.standard_normal((8, graph.num_vertices))

        async def main():
            service = serve.InferenceService(graph)
            transport = await ServeTransport(service, port=0).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", transport.port)
            await protocol.write_frame(writer, protocol.hello_frame())
            await protocol.read_frame(reader)
            await service.close()
            for i, column in enumerate(columns):
                header, body = protocol.array_header(column)
                protocol.write_frame_nowait(
                    writer, {"op": "propagate", "id": f"late-{i}", "payload": header}, body)
            await transport.shutdown()
            answers = []
            with contextlib.suppress(ConnectionLostError):
                while True:
                    answers.append((await protocol.read_frame(reader))[0])
            writer.close()
            await writer.wait_closed()
            return answers

        answers = _run(main())
        assert [a["id"] for a in answers] == [f"late-{i}" for i in range(8)]
        assert {protocol.error_from_frame(a).code for a in answers} == {"serve.closed"}

    def test_shutdown_is_idempotent_and_frees_the_port(self, small_graph):
        graph = GraphData(small_graph)

        async def main():
            service = serve.InferenceService(graph)
            transport = ServeTransport(service, port=0)
            await transport.start()
            port = transport.port
            await transport.shutdown()
            await transport.shutdown()  # second call is a no-op
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection("127.0.0.1", port)

        with no_faults():
            _run(main())

    def test_new_request_after_close_gets_typed_rejection(self, small_graph, rng):
        graph = GraphData(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                async with ServeClient(port=transport.port) as client:
                    await client.propagate(column)  # connection established
                    await service.close()
                    with pytest.raises(ServiceClosedError):
                        await client.propagate(column)

        with no_faults():
            _run(main())


# ------------------------------------------------------- deadline over wire


class TestDeadlinePropagation:
    def test_hopeless_deadline_is_typed_deadline_or_timeout(self, served, rng):
        columns = rng.standard_normal((6, served.graph.num_vertices))
        stats = served.service.stats
        before = stats.deadline_shed + stats.timeouts

        async def main():
            return await asyncio.gather(*[
                served.client.propagate(c, priority="bulk", deadline_ms=0.02)
                for c in columns
            ], return_exceptions=True)

        with no_faults():
            results = served.run(main())
        typed = 0
        for r in results:
            assert isinstance(r, (DeadlineExceededError, RequestTimeoutError, np.ndarray))
            typed += not isinstance(r, np.ndarray)
        # at least one went through a deadline path, not silent success
        assert typed + stats.deadline_shed + stats.timeouts - before >= 1
