#!/usr/bin/env python
"""Network-level chaos gate for the serving path (PR 10).

Runs :class:`repro.serve.ServeTransport` + :class:`repro.serve.ServeClient`
through four segments and turns the PR's acceptance criteria into exit
status:

1. **chaos** — 4 worker clients under the ``chaos`` profile
   (``net.conn_drop``, ``net.partial_write``, ``net.slow_peer``,
   ``serve.deadline_storm``, ``serve.batch_fail`` all armed).  Gate:
   every response is **bit-identical** to the serial reference or a
   **typed** ``repro`` error — zero silent corruptions, zero untyped
   escapes — the client retry path fired >= 1x, and successful-request
   p99 stays under ``CHAOS_P99_BOUND_MS``.
2. **deadline** — a saturated service plus already-hopeless bulk
   requests.  Gate: the scheduler sheds expired requests *before*
   launch (``deadline_shed`` >= 1 server-side, clients see typed
   deadline/timeout errors).
3. **breaker** — a directed total-failure storm (``serve.batch_fail=1``,
   ``retries=0``) trips the breaker; clients then fast-fail typed; the
   profile clears and the cooldown probe closes it.  Gate: trip,
   half-open and close each observed >= 1x, plus >= 1 fast-fail.
4. **drain** — graceful shutdown mid-traffic.  Gate: every in-flight
   request resolves (bit-identical result or typed
   ``serve.closed`` rejection), nothing lost, >= 1 typed rejection
   observed.

The run streams an obs trace (``--trace``, default
``chaos_serve_trace.jsonl``) for ``python -m repro.obs summary`` and
writes a ``CHAOS_serve.json`` report.  Wall-clock serving speed is
measured by ``e2ebench/run.py``, not here.

Usage::

    PYTHONPATH=src python scripts/chaos_serve.py --quick
    PYTHONPATH=src python scripts/chaos_serve.py --quick --check   # CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: p99 bound for *successful* requests under chaos — generous (CI
#: runners are slow; injected stalls and retry backoff are part of the
#: measurement); the point is catching unbounded queueing, not an SLO.
CHAOS_P99_BOUND_MS = 1500.0

#: worker clients in the chaos segment (PR acceptance: 4).
CHAOS_WORKERS = 4

#: fault seed when neither ``--seed`` nor ``REPRO_FAULT_SEED`` is set
CHAOS_SEED = 1337


def _build_fixture(quick: bool, seed: int):
    from repro.nn import GraphData
    from repro.sparse import load_dataset

    dataset_key = "G0" if quick else "G2"
    graph = GraphData(load_dataset(dataset_key).coo).warm()
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((32, graph.num_vertices))
    return dataset_key, graph, columns


def _serial_reference(graph, columns) -> list[np.ndarray]:
    from repro import core

    refs = []
    for col in columns:
        out, _ = core.spmm(graph.coo, graph.gcn_edge_values, col[:, None])
        refs.append(out[:, 0].copy())
    return refs


class ServerThread:
    """A transport + service on a dedicated thread with its own loop.

    Keeps the server's event loop out of the client loop's way — the
    closest single-process stand-in for a real remote server.
    """

    def __init__(self, graph, config):
        self.graph = graph
        self.config = config
        self.port: int | None = None
        self.transport = None
        self.service = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        from repro.serve import InferenceService, ServeTransport

        self._loop = asyncio.get_running_loop()
        self.service = InferenceService(self.graph, config=self.config)
        self.transport = ServeTransport(self.service, port=0)
        await self.transport.start()
        self.port = self.transport.port
        self._ready.set()
        while not self._stopped.is_set():
            await asyncio.sleep(0.005)

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        return self

    def call(self, coro):
        """Run a coroutine on the server loop, synchronously."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=60)

    def shutdown_transport(self) -> None:
        """Graceful drain, on the server's own loop."""
        self.call(self.transport.shutdown())

    def stop(self) -> None:
        if self._ready.is_set() and not self._stopped.is_set():
            with contextlib.suppress(Exception):
                if not self.transport._shutting_down:
                    self.shutdown_transport()
        self._stopped.set()
        self._thread.join(timeout=30)


@contextlib.contextmanager
def server(graph, **config_overrides):
    from repro.serve import ServeConfig

    handle = ServerThread(
        graph, ServeConfig(**config_overrides)
    ).start()
    try:
        yield handle
    finally:
        handle.stop()


# ------------------------------------------------------------- segment 1


def segment_chaos(graph, columns, refs, *, quick: bool, seed: int) -> dict:
    from repro import obs
    from repro.errors import ReproError
    from repro.resilience.faults import fault_profile
    from repro.serve import ServeClient

    per_worker = 25 if quick else 60

    async def worker(port: int, wid: int, tally: dict):
        async with ServeClient(port=port, retries=4) as client:
            for i in range(per_worker):
                idx = (wid * per_worker + i) % len(columns)
                t0 = time.perf_counter()
                try:
                    out = await client.propagate(columns[idx], deadline_ms=8_000)
                except ReproError as e:
                    tally.setdefault("typed", {}).setdefault(e.code, 0)
                    tally["typed"][e.code] += 1
                except Exception as e:  # noqa: BLE001 — the gate itself
                    tally["untyped"] = tally.get("untyped", 0) + 1
                    tally.setdefault("untyped_kinds", []).append(type(e).__name__)
                else:
                    tally["latencies"].append((time.perf_counter() - t0) * 1e3)
                    if np.array_equal(out, refs[idx]):
                        tally["ok"] = tally.get("ok", 0) + 1
                    else:
                        tally["corrupt"] = tally.get("corrupt", 0) + 1
            tally["client_retries"] += client.retried

    async def main(port: int):
        tally = {"latencies": [], "client_retries": 0}
        await asyncio.gather(
            *[worker(port, w, tally) for w in range(CHAOS_WORKERS)]
        )
        return tally

    with fault_profile("chaos", seed=seed) as injector:
        with server(graph) as handle:
            tally = asyncio.run(main(handle.port))
        fired = dict(injector.fired)
    latencies = tally.pop("latencies")
    return {
        "workers": CHAOS_WORKERS,
        "requests": CHAOS_WORKERS * per_worker,
        "ok": tally.get("ok", 0),
        "corrupt": tally.get("corrupt", 0),
        "typed_errors": tally.get("typed", {}),
        "untyped_errors": tally.get("untyped", 0),
        "untyped_kinds": tally.get("untyped_kinds", []),
        "client_retries": tally["client_retries"],
        "p50_ms": obs.percentile(latencies, 50),
        "p99_ms": obs.percentile(latencies, 99),
        "faults_fired": fired,
    }


# ------------------------------------------------------------- segment 2


def segment_deadline(graph, columns, refs, *, quick: bool) -> dict:
    """Bulk requests with already-hopeless deadlines, then real traffic.

    The doomed requests go in *first* with a deadline far below one
    event-loop turn: by the time the drain's synchronous sweep pops
    them they are expired but their timers have not run yet (the drain
    wakeup was queued before the timers came due), so they take the
    pre-launch shed path — ``serve.deadline_shed`` server-side — rather
    than the waiting-timeout path.  Stragglers that the sweep does not
    reach time out typed; both surface to the client as deadline errors.
    """
    from repro.errors import DeadlineExceededError, RequestTimeoutError
    from repro.resilience.faults import no_faults
    from repro.serve import ServeClient

    flood, hopeless = (24, 8) if quick else (48, 16)

    async def main(port: int):
        outcome = {"ok": 0, "shed": 0, "timeout": 0, "other": 0, "other_kinds": []}
        async with ServeClient(port=port) as client:
            async def fg(i):
                out = await client.propagate(
                    columns[i % len(columns)], priority="interactive"
                )
                if np.array_equal(out, refs[i % len(refs)]):
                    outcome["ok"] += 1

            async def doomed(i):
                try:
                    await client.propagate(
                        columns[i % len(columns)], priority="bulk",
                        deadline_ms=0.02,
                    )
                except DeadlineExceededError:
                    outcome["shed"] += 1
                except RequestTimeoutError:
                    outcome["timeout"] += 1
                except Exception as e:  # noqa: BLE001 — tallied, gate fails on it
                    outcome["other"] += 1
                    outcome["other_kinds"].append(type(e).__name__)
                else:
                    outcome["ok"] += 1  # won the race: served before expiry

            tasks = [asyncio.ensure_future(doomed(i)) for i in range(hopeless)]
            await asyncio.sleep(0)  # doomed frames hit the socket first
            tasks += [asyncio.ensure_future(fg(i)) for i in range(flood)]
            await asyncio.gather(*tasks)
            health = await client.health()
        return outcome, health

    with no_faults():
        # max_batch=2 keeps the queue busy long enough to expire deadlines
        with server(graph, max_batch=2, max_delay_us=0) as handle:
            outcome, health = asyncio.run(main(handle.port))
    return {
        "flood": flood,
        "hopeless": hopeless,
        **outcome,
        "server_deadline_shed": health["stats"]["deadline_shed"],
        "server_timeouts": health["stats"]["timeouts"],
    }


# ------------------------------------------------------------- segment 3


def segment_breaker(graph, columns, *, quick: bool, seed: int) -> dict:
    """Directed storm: every batch fails totally until the breaker trips;
    then the storm clears and the cooldown probe closes it again."""
    from repro.errors import CircuitOpenError, FaultInjectedError
    from repro.resilience.faults import fault_profile, no_faults
    from repro.serve import ServeClient

    reset_ms = 80.0
    outcome = {"failed": 0, "fastfail": 0, "recovered": 0, "other": 0}

    async def storm(port: int):
        async with ServeClient(port=port) as client:
            for i in range(6):
                try:
                    await client.propagate(columns[i % len(columns)])
                except FaultInjectedError:
                    outcome["failed"] += 1
                except CircuitOpenError:
                    outcome["fastfail"] += 1
                except Exception:  # noqa: BLE001 — tallied, gate fails on it
                    outcome["other"] += 1

    async def recover(port: int):
        async with ServeClient(port=port) as client:
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                await asyncio.sleep(reset_ms / 1e3)
                try:
                    await client.propagate(columns[0])
                except CircuitOpenError:
                    continue  # cooldown not elapsed yet
                outcome["recovered"] += 1
                return await client.health()
            return await client.health()

    # retries=0: a batch_fail fire is a total batch failure (no second
    # attempt); threshold 1 trips on the first one even under the
    # injector's burst bound.
    with server(
        graph, retries=0, breaker_threshold=1, breaker_reset_ms=reset_ms
    ) as handle:
        with fault_profile("serve.batch_fail=1", seed=seed):
            asyncio.run(storm(handle.port))
        with no_faults():
            health = asyncio.run(recover(handle.port))
    transitions = health["breaker"]["transitions"]
    return {
        **outcome,
        "final_state": health["breaker"]["state"],
        "transitions": transitions,
        "server_fastfails": health["stats"]["breaker_fastfail"],
    }


# ------------------------------------------------------------- segment 4


def _cause_chain(error: BaseException) -> list[str]:
    """Type names down ``error``'s cause chain (``__context__`` where
    ``raise ... from None`` hid the cause)."""
    names = []
    while error is not None:
        names.append(type(error).__name__)
        error = error.__cause__ if error.__cause__ is not None else error.__context__
    return names


def segment_drain(graph, columns, refs, *, quick: bool) -> dict:
    """Graceful shutdown mid-traffic: typed rejections, zero losses."""
    from repro.errors import ConnectionLostError, ServiceClosedError
    from repro.resilience.faults import no_faults
    from repro.serve import ServeClient

    inflight = 24 if quick else 48
    outcome = {
        "ok": 0, "rejected": 0, "conn_lost": 0, "other": 0, "corrupt": 0,
        "other_kinds": [],
        # each unexpected error's cause chain, outermost first, so a
        # failed gate names the OS error under the typed one
        "other_causes": [],
    }

    async def main(handle):
        async with ServeClient(port=handle.port) as client:
            async def one(i):
                try:
                    out = await client.propagate(columns[i % len(columns)])
                except ServiceClosedError:
                    outcome["rejected"] += 1
                except ConnectionLostError:
                    outcome["conn_lost"] += 1
                except Exception as e:  # noqa: BLE001 — tallied, gate fails on it
                    outcome["other"] += 1
                    outcome["other_kinds"].append(type(e).__name__)
                    outcome["other_causes"].append(" <- ".join(_cause_chain(e)))
                else:
                    if np.array_equal(out, refs[i % len(refs)]):
                        outcome["ok"] += 1
                    else:
                        outcome["corrupt"] += 1

            tasks = [asyncio.ensure_future(one(i)) for i in range(inflight)]
            await asyncio.sleep(0)  # everything enqueued or queued to send
            await asyncio.to_thread(handle.shutdown_transport)
            await asyncio.gather(*tasks)
        return outcome

    with no_faults():
        # max_batch=2: the backlog outlives the shutdown call, so some
        # requests are served and some meet the drain — both paths land.
        with server(graph, max_batch=2, max_delay_us=0) as handle:
            drained_before = None
            result = asyncio.run(main(handle))
            drained_before = handle.service.stats.drained
    result["server_drained"] = drained_before
    result["accounted"] = sum(
        result[k] for k in ("ok", "rejected", "conn_lost", "other", "corrupt")
    )
    result["inflight"] = inflight
    return result


# ------------------------------------------------------------------ gates


def _check_report(report: dict) -> list[str]:
    problems = []
    ch = report["chaos"]
    if ch["corrupt"]:
        problems.append(f"chaos: {ch['corrupt']} silently corrupted response(s)")
    if ch["untyped_errors"]:
        problems.append(
            f"chaos: {ch['untyped_errors']} untyped error(s) escaped "
            f"({', '.join(ch['untyped_kinds'][:4])})"
        )
    if ch["client_retries"] < 1:
        problems.append("chaos: client retry path never exercised")
    if ch["ok"] + sum(ch["typed_errors"].values()) + ch["untyped_errors"] + ch["corrupt"] != ch["requests"]:
        problems.append("chaos: requests lost (tally does not add up)")
    if ch["p99_ms"] > CHAOS_P99_BOUND_MS:
        problems.append(
            f"chaos p99 {ch['p99_ms']:.0f} ms > {CHAOS_P99_BOUND_MS:.0f} ms bound"
        )
    dl = report["deadline"]
    if dl["server_deadline_shed"] < 1:
        problems.append("deadline: nothing shed pre-launch (EDF shed path dead)")
    if dl["other"]:
        problems.append(
            f"deadline: {dl['other']} unexpected error(s) "
            f"({', '.join(dl['other_kinds'][:4])})"
        )
    br = report["breaker"]
    if br["transitions"]["open"] < 1:
        problems.append("breaker never tripped open")
    if br["transitions"]["half_open"] < 1:
        problems.append("breaker never half-opened")
    if br["transitions"]["close"] < 1 or br["final_state"] != "closed":
        problems.append(
            f"breaker never closed after recovery (final state {br['final_state']})"
        )
    if br["fastfail"] < 1 and br["server_fastfails"] < 1:
        problems.append("breaker fast-fail path never exercised")
    if br["recovered"] < 1:
        problems.append("no request succeeded after the breaker recovered")
    if br["other"]:
        problems.append(f"breaker: {br['other']} unexpected error(s)")
    dr = report["drain"]
    if dr["rejected"] < 1:
        problems.append("drain: no queued request got the typed rejection")
    if dr["corrupt"]:
        problems.append(f"drain: {dr['corrupt']} corrupted response(s)")
    if dr["other"]:
        problems.append(
            f"drain: {dr['other']} unexpected error(s) "
            f"({', '.join(dr['other_kinds'][:4])})"
        )
    if dr["accounted"] != dr["inflight"]:
        problems.append(
            f"drain: requests lost ({dr['accounted']}/{dr['inflight']} accounted)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small dataset / short runs (CI smoke)")
    parser.add_argument("--out", default="CHAOS_serve.json")
    parser.add_argument("--trace", default="chaos_serve_trace.jsonl",
                        help="obs trace artifact ('' disables)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every gate holds")
    parser.add_argument("--seed", type=int, default=None,
                        help="fault seed (default: REPRO_FAULT_SEED, else "
                             f"{CHAOS_SEED})")
    args = parser.parse_args(argv)

    from repro import obs, settings
    from repro.errors import ConfigError
    from repro.resilience.faults import no_faults

    if args.seed is None:
        try:
            env_seed = settings.get().fault_seed
        except ConfigError as e:
            parser.error(str(e))
        args.seed = CHAOS_SEED if env_seed is None else env_seed

    with no_faults():  # fixture + references stay clean under env chaos
        dataset_key, graph, columns = _build_fixture(args.quick, seed=0)
        refs = _serial_reference(graph, columns)
    report = {
        "benchmark": "serve transport chaos gate (PR 10)",
        "quick": args.quick,
        "dataset": dataset_key,
        "seed": args.seed,
        "cpus": os.cpu_count(),
    }
    trace_cm = obs.trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with trace_cm:
        report["chaos"] = segment_chaos(
            graph, columns, refs, quick=args.quick, seed=args.seed
        )
        report["deadline"] = segment_deadline(graph, columns, refs, quick=args.quick)
        report["breaker"] = segment_breaker(
            graph, columns, quick=args.quick, seed=args.seed
        )
        report["drain"] = segment_drain(graph, columns, refs, quick=args.quick)

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    ch = report["chaos"]
    print(f"dataset {dataset_key}, seed {args.seed}")
    typed_total = sum(ch["typed_errors"].values())
    print(f"chaos ({ch['workers']} workers): {ch['ok']} bit-identical, "
          f"{typed_total} typed error(s) {ch['typed_errors']}, "
          f"{ch['corrupt']} corrupt, {ch['untyped_errors']} untyped, "
          f"{ch['client_retries']:.0f} client retry(ies), "
          f"p99 {ch['p99_ms']:.1f} ms")
    dl = report["deadline"]
    print(f"deadline: {dl['server_deadline_shed']} shed pre-launch, "
          f"{dl['timeout']} timed out waiting, {dl['ok']} served")
    br = report["breaker"]
    print(f"breaker: transitions {br['transitions']}, "
          f"{br['fastfail']} client fast-fail(s), final {br['final_state']}")
    dr = report["drain"]
    print(f"drain: {dr['ok']} served, {dr['rejected']} typed rejection(s), "
          f"{dr['conn_lost']} conn-lost, {dr['accounted']}/{dr['inflight']} accounted")
    for chain in dr["other_causes"][:4]:
        print(f"drain: unexpected {chain}")
    if args.trace:
        print(f"trace -> {args.trace}")
    print(f"wrote {args.out}")

    if args.check:
        problems = _check_report(report)
        if problems:
            print("CHECK FAILED: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
