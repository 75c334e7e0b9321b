"""Networked serving tests: protocol, scheduler, breaker, transport.

The wire path inherits the service's load-bearing property — a response
over the socket must be bit-identical to the in-process answer — and
adds its own: client retries are idempotent (never double-executed),
failures surface as *typed* errors with wire-stable codes, and a
graceful shutdown accounts for every admitted request.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import core, serve
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
from repro.nn import GCN, GraphData
from repro.nn.tensor import Tensor
from repro.resilience.faults import fault_profile, no_faults
from repro.serve import protocol
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient, backoff_ms
from repro.serve.scheduler import (
    DeadlineScheduler,
    SchedulerClosed,
    resolve_priority,
)
from repro.serve.service import _Request
from repro.serve.transport import ServeTransport


def _run(coro):
    return asyncio.run(coro)


def _serial(graph: GraphData, column: np.ndarray) -> np.ndarray:
    out, _ = core.spmm(graph.coo, graph.gcn_edge_values, column[:, None])
    return out[:, 0].copy()


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
        a = backoff_ms("req-1", 3, base_ms=5.0, cap_ms=200.0)
        b = backoff_ms("req-1", 3, base_ms=5.0, cap_ms=200.0)
        assert a == b
        raw = min(200.0, 5.0 * 2 ** 2)
        assert 0.5 * raw <= a < raw
        # different attempts decorrelate
        assert backoff_ms("req-1", 4, base_ms=5.0, cap_ms=200.0) != a

    def test_backoff_respects_cap(self):
        assert backoff_ms("r", 30, base_ms=5.0, cap_ms=50.0) < 50.0


# --------------------------------------------------------------- scheduler


def _request(priority: str = "standard", deadline_p: float | None = None,
             tag: str = "") -> _Request:
    return _Request(
        kind="propagate", payload=np.zeros(1), tenant=tag, future=None,
        t_admit_s=0.0, t_admit_p=0.0,
        priority=resolve_priority(priority), deadline_p=deadline_p,
    )


class TestDeadlineScheduler:
    def test_priority_classes_are_strict(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request("bulk", tag="b"))
        s.put_nowait(_request("standard", tag="s"))
        s.put_nowait(_request("interactive", tag="i"))
        assert [s.get_nowait().tenant for _ in range(3)] == ["i", "s", "b"]

    def test_edf_within_a_class(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request(deadline_p=30.0, tag="late"))
        s.put_nowait(_request(deadline_p=10.0, tag="soon"))
        s.put_nowait(_request(deadline_p=20.0, tag="mid"))
        assert [s.get_nowait().tenant for _ in range(3)] == ["soon", "mid", "late"]

    def test_no_deadline_sorts_last_fifo(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request(tag="first"))
        s.put_nowait(_request(tag="second"))
        s.put_nowait(_request(deadline_p=5.0, tag="urgent"))
        assert [s.get_nowait().tenant for _ in range(3)] == [
            "urgent", "first", "second",
        ]

    def test_pop_expired_takes_only_the_expired_prefix(self):
        s = DeadlineScheduler(maxsize=8)
        s.put_nowait(_request(deadline_p=1.0, tag="dead"))
        s.put_nowait(_request(deadline_p=2.0, tag="dying"))
        s.put_nowait(_request(deadline_p=100.0, tag="alive"))
        s.put_nowait(_request(tag="forever"))
        expired = s.pop_expired(now_p=50.0)
        assert sorted(r.tenant for r in expired) == ["dead", "dying"]
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
        assert len(drained) == 3 and s.empty()

    def test_unknown_priority_rejected(self):
        with pytest.raises(ConfigError, match="unknown priority"):
            resolve_priority("express")


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

    def test_snapshot_shape(self):
        b = CircuitBreaker()
        snap = b.snapshot()
        assert snap["state"] == "closed"
        assert snap["retry_after_ms"] == 0.0
        assert set(snap["transitions"]) == {"open", "half_open", "close"}


# --------------------------------------------------------------- transport


class TestTransportRoundTrip:
    def test_propagate_and_predict_bit_identical_over_the_wire(
        self, small_graph, rng
    ):
        graph = GraphData(small_graph)
        features = rng.standard_normal((graph.num_vertices, 12))
        model = GCN(12, 8, 5, seed=2)
        model.eval()
        logits = np.asarray(model(graph, Tensor(features)).data)
        columns = rng.standard_normal((4, graph.num_vertices))

        async def main():
            service = serve.InferenceService(
                graph, model=model, features=features
            )
            async with ServeTransport(service, port=0) as transport:
                async with ServeClient(port=transport.port) as client:
                    outs = await asyncio.gather(
                        *[client.propagate(c) for c in columns],
                        *[client.predict([i, i + 3]) for i in range(4)],
                    )
                    # the client sends ids as given; the server rejects
                    with pytest.raises(ConfigError, match="integers"):
                        await client.predict([1.7])
            return outs

        with no_faults():
            outs = _run(main())
        for c, out in zip(columns, outs[:4]):
            np.testing.assert_array_equal(out, _serial(graph, c))
        for i, out in enumerate(outs[4:]):
            np.testing.assert_array_equal(out, logits[[i, i + 3]])

    def test_health_and_ready_probes(self, small_graph):
        graph = GraphData(small_graph)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                async with ServeClient(port=transport.port) as client:
                    return await client.health(), await client.ready()

        with no_faults():
            health, ready = _run(main())
        assert health["running"] and health["ready"]
        assert health["breaker"]["state"] == "closed"
        assert ready == {"ready": True}

    def test_handshake_refuses_wrong_proto_version(self, small_graph):
        graph = GraphData(small_graph)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                await protocol.write_frame(
                    writer, {"op": "hello", "proto": 999}
                )
                answer, _ = await protocol.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return answer

        with no_faults():
            answer = _run(main())
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

    def test_unknown_op_and_bad_payload_are_typed(self, small_graph, rng):
        graph = GraphData(small_graph)
        features = rng.standard_normal((graph.num_vertices, 4))
        model = GCN(4, 4, 3, seed=0)

        async def roundtrip(frame, attachment=b"", **service_kwargs):
            service = serve.InferenceService(graph, **service_kwargs)
            async with ServeTransport(service, port=0) as transport:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                await protocol.write_frame(writer, protocol.hello_frame())
                await protocol.read_frame(reader)  # handshake answer
                await protocol.write_frame(writer, frame, attachment)
                answer, _ = await protocol.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return answer

        with no_faults():
            unknown = _run(roundtrip({"op": "transmogrify", "id": "r1"}))
            header, payload = protocol.array_header(np.zeros(3))
            misshapen = _run(roundtrip(
                {"op": "propagate", "id": "r2", "payload": header},
                bytes(payload),
            ))
            no_model = _run(roundtrip(
                {"op": "predict", "id": "r3",
                 "payload": protocol.encode_array(np.array([0]))},
            ))
            header, payload = protocol.array_header(np.array([1.7]))
            float_ids = _run(roundtrip(
                {"op": "predict", "id": "r4", "payload": header},
                bytes(payload), model=model, features=features,
            ))
        assert unknown["error"]["code"] == "transport.protocol"
        assert misshapen["error"]["code"] == "config.invalid"
        assert no_model["error"]["code"] == "config.invalid"
        assert float_ids["error"]["code"] == "config.invalid"
        assert "integers" in float_ids["error"]["message"]

    @pytest.mark.parametrize("dtype", ["<U3", "|b1", "<c16"])
    def test_non_numeric_column_attachment_rejected(self, small_graph, dtype):
        """A string, bool or complex attachment is refused, not cast."""
        graph = GraphData(small_graph)
        column = np.ones(graph.num_vertices).astype(dtype)
        header = {"__nd__": 2, "dtype": column.dtype.str,
                  "shape": list(column.shape)}

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                await protocol.write_frame(writer, protocol.hello_frame())
                await protocol.read_frame(reader)  # handshake answer
                await protocol.write_frame(
                    writer, {"op": "propagate", "id": "r1", "payload": header},
                    column.tobytes(),
                )
                answer, _ = await protocol.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return answer, service.stats.requests

        with no_faults():
            answer, admitted = _run(main())
        assert answer["ok"] is False
        assert answer["error"]["code"] == "config.invalid"
        assert "integers or floats" in answer["error"]["message"]
        assert admitted == 0

    def test_garbage_frame_gets_typed_answer_then_hangup(self, small_graph):
        graph = GraphData(small_graph)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                await protocol.write_frame(writer, protocol.hello_frame())
                await protocol.read_frame(reader)
                writer.write(len(b"not json").to_bytes(4, "big") + b"not json")
                await writer.drain()
                answer, _ = await protocol.read_frame(reader)
                tail = await reader.read(64)  # server hangs up after answering
                writer.close()
                await writer.wait_closed()
                return answer, tail

        with no_faults():
            answer, tail = _run(main())
        assert answer["error"]["code"] == "transport.protocol"
        assert tail == b""


# ------------------------------------------------------------- idempotency


class TestIdempotency:
    def test_duplicate_id_executes_once_and_replays(self, small_graph, rng):
        graph = GraphData(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                await protocol.write_frame(writer, protocol.hello_frame())
                await protocol.read_frame(reader)
                header, payload = protocol.array_header(column)
                frame = {"op": "propagate", "id": "dup-1", "payload": header}
                await protocol.write_frame(writer, frame, bytes(payload))
                first, a1 = await protocol.read_frame(reader)
                await protocol.write_frame(writer, frame, bytes(payload))
                second, a2 = await protocol.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return first, a1, second, a2, service.stats.requests

        with no_faults():
            first, a1, second, a2, executed = _run(main())
        assert executed == 1  # the duplicate never re-entered the service
        out1 = protocol.decode_payload(first["result"], a1)
        out2 = protocol.decode_payload(second["result"], a2)
        np.testing.assert_array_equal(out1, _serial(graph, column))
        np.testing.assert_array_equal(out2, out1)

    def test_retry_after_dropped_response_collects_cached_result(
        self, small_graph, rng
    ):
        """net.conn_drop kills the connection *after* execution; the
        client's reconnect-and-retry must land the cached response, not
        a second execution."""
        graph = GraphData(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                with fault_profile("net.conn_drop=1", seed=7):
                    async with ServeClient(port=transport.port, retries=6,
                                           backoff_base_ms=1.0) as client:
                        out = await client.propagate(column)
                return out, service.stats.requests

        out, executed = _run(main())
        np.testing.assert_array_equal(out, _serial(graph, column))
        assert executed == 1  # retried over the wire, executed once

    def test_dedup_cache_is_bounded(self, small_graph, rng):
        graph = GraphData(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            transport = ServeTransport(service, port=0, dedup_cap=4)
            async with transport:
                async with ServeClient(port=transport.port) as client:
                    for _ in range(10):
                        await client.propagate(column)
                return len(transport._responses)

        with no_faults():
            assert _run(main()) <= 4


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
                graph, config=serve.ServeConfig.from_env(
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
    def test_hopeless_deadline_is_typed_deadline_or_timeout(
        self, small_graph, rng
    ):
        graph = GraphData(small_graph)
        columns = rng.standard_normal((6, graph.num_vertices))

        async def main():
            service = serve.InferenceService(
                graph, config=serve.ServeConfig.from_env(
                    max_batch=1, max_delay_us=0
                )
            )
            async with ServeTransport(service, port=0) as transport:
                async with ServeClient(port=transport.port) as client:
                    doomed = [
                        asyncio.ensure_future(client.propagate(
                            c, priority="bulk", deadline_ms=0.02
                        ))
                        for c in columns
                    ]
                    results = await asyncio.gather(
                        *doomed, return_exceptions=True
                    )
                return results, service.stats

        with no_faults():
            results, stats = _run(main())
        typed = 0
        for r in results:
            assert isinstance(
                r, (DeadlineExceededError, RequestTimeoutError, np.ndarray)
            )
            typed += not isinstance(r, np.ndarray)
        # at least one went through a deadline path, not silent success
        assert typed + stats.deadline_shed + stats.timeouts >= 1

    def test_non_finite_and_boolean_deadlines_are_refused(self, small_graph, rng):
        """json.loads turns NaN/Infinity into floats and true into an int."""
        graph = GraphData(small_graph)
        header, payload = protocol.array_header(
            rng.standard_normal(graph.num_vertices)
        )

        async def main():
            service = serve.InferenceService(graph)
            answers = []
            async with ServeTransport(service, port=0) as transport:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", transport.port
                )
                await protocol.write_frame(writer, protocol.hello_frame())
                await protocol.read_frame(reader)
                for i, literal in enumerate(("NaN", "Infinity", "-Infinity", "true")):
                    body = (
                        f'{{"op":"propagate","id":"r{i}","deadline_ms":{literal},'
                        f'"payload":{json.dumps(header)},"bin":{len(payload)}}}'
                    ).encode()
                    writer.write(len(body).to_bytes(4, "big") + body + bytes(payload))
                    await writer.drain()
                    answers.append((await protocol.read_frame(reader))[0])
                writer.close()
                await writer.wait_closed()
            return answers, service.stats.requests

        with no_faults():
            answers, admitted = _run(main())
        assert [a["error"]["code"] for a in answers] == ["transport.protocol"] * 4
        assert admitted == 0

    def test_in_process_deadline_must_be_finite(self, small_graph, rng):
        graph = GraphData(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            async with service:
                for bad in (float("nan"), float("inf"), True):
                    with pytest.raises(ConfigError, match="deadline_ms"):
                        service.submit_nowait(
                            "propagate", column[:, None], deadline_ms=bad
                        )
                return service.stats.requests

        with no_faults():
            assert _run(main()) == 0

    def test_priority_is_validated_over_the_wire(self, small_graph, rng):
        graph = GraphData(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            async with ServeTransport(service, port=0) as transport:
                async with ServeClient(port=transport.port) as client:
                    with pytest.raises(ConfigError, match="unknown priority"):
                        await client.propagate(column, priority="express")

        with no_faults():
            _run(main())
