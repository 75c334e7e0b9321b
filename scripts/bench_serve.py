#!/usr/bin/env python
"""Load generator + SLO benchmark for the inference service (PR 8).

Drives :class:`repro.serve.InferenceService` over a resident graph and
measures what micro-batching buys:

* **closed-loop throughput** — N clients issuing back-to-back
  ``propagate`` requests, once with micro-batching and once with
  ``batching=False`` in the same process (warm cache both times); the
  headline number is the requests/sec ratio.
* **equivalence** — every batched response is compared bit-for-bit
  against a direct serial ``core.spmm`` launch of the same column, and
  ``predict`` responses against a standalone model forward.
* **overload** — a flood against a tiny admission queue must shed with
  :class:`~repro.errors.ServiceOverloadedError`, never hang or corrupt.
* **open-loop Poisson** — arrivals at ~70% of measured capacity;
  reports p50/p99 latency and queue behavior under realistic load.
* **chaos** — the run repeats under the ``chaos`` fault profile
  (``serve.batch_fail`` armed): degraded batches and retries are
  expected, wrong responses are not.
* **transport** — the same closed loop over the loopback TCP
  transport (``ServeTransport`` + ``ServeClient``, PR 10), isolating
  the clean-path RPC cost as a requests/sec row; chaos behavior over
  the wire lives in ``scripts/chaos_serve.py``.

Writes ``BENCH_serve.json`` plus a SHA-stamped ``BENCH_trajectory.json``
entry.  ``--check`` turns the acceptance criteria into exit status:
batched >= 2x unbatched requests/sec, bit-identical responses, >= 90%
steady-state plan-cache hit rate, shedding under overload, zero wrong
responses under chaos, and a p99 sanity bound.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py --quick
    PYTHONPATH=src python scripts/bench_serve.py --quick --check   # CI gate
    PYTHONPATH=src python scripts/bench_serve.py --no-batching     # baseline only
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

#: p99 latency sanity bound for --check (generous: CI runners are slow
#: and single-core; the point is catching pathological queueing, not
#: enforcing a production SLO).
P99_BOUND_MS = 500.0

#: open-loop arrival rate as a fraction of measured closed-loop capacity
POISSON_LOAD = 0.7


def _build_fixture(quick: bool, seed: int):
    """Resident graph + trained-shape model + request column pool."""
    from repro.nn import GCN, GraphData, synthesize
    from repro.sparse import load_dataset

    dataset_key = "G0" if quick else "G2"
    dataset = load_dataset(dataset_key)
    graph = GraphData(dataset.coo)
    data = synthesize(dataset, feature_length=16, seed=seed)
    graph.warm(data.features)
    model = GCN(data.feature_length, 8, data.num_classes, seed=seed)
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((32, graph.num_vertices))
    return dataset_key, graph, model, data, columns


def _serial_reference(graph, columns) -> list[np.ndarray]:
    """Ground truth per column: one (V, 1) launch each, no batching."""
    from repro import core

    refs = []
    for col in columns:
        out, _ = core.spmm(graph.coo, graph.gcn_edge_values, col[:, None])
        refs.append(out[:, 0].copy())
    return refs


def _warm_buckets(graph, max_batch: int) -> None:
    """Prime the plan cache for every power-of-two batch width."""
    from repro import core

    width = 1
    while width <= max_batch:
        x = np.zeros((graph.num_vertices, width))
        core.spmm(graph.coo, graph.gcn_edge_values, x)
        width *= 2


async def _closed_loop(service, columns, *, clients: int, per_client: int):
    """N clients issuing back-to-back requests; returns (wall_s, responses)."""
    responses: dict[int, np.ndarray] = {}

    async def client(cid: int) -> None:
        for i in range(per_client):
            index = (cid * per_client + i) % len(columns)
            responses[cid * per_client + i] = await service.propagate(
                columns[index]
            )

    t0 = time.perf_counter()
    await asyncio.gather(*[client(c) for c in range(clients)])
    return time.perf_counter() - t0, responses


def _run_closed_loop(graph, columns, config, *, clients, per_client):
    from repro.serve import InferenceService

    async def main():
        service = InferenceService(graph, config=config)
        async with service:
            wall_s, responses = await _closed_loop(
                service, columns, clients=clients, per_client=per_client
            )
        return wall_s, responses, service.stats

    return asyncio.run(main())


def _check_responses(responses, refs, per_client: int) -> int:
    """Count responses that are not bit-identical to the serial reference."""
    wrong = 0
    for key, value in responses.items():
        if not np.array_equal(value, refs[key % len(refs)]):
            wrong += 1
    return wrong


def _bench_throughput(graph, columns, refs, *, quick: bool) -> dict:
    """Batched vs unbatched closed-loop, same process, warm cache."""
    from repro.core import get_plan_cache
    from repro.serve import ServeConfig

    clients = 16 if quick else 24
    per_client = 15 if quick else 40
    batched_cfg = ServeConfig.from_env()
    unbatched_cfg = ServeConfig.from_env(batching=False)

    _warm_buckets(graph, batched_cfg.max_batch)
    cache = get_plan_cache()
    before = cache.stats()
    wall_b, resp_b, stats_b = _run_closed_loop(
        graph, columns, batched_cfg, clients=clients, per_client=per_client
    )
    after = cache.stats()
    steady_hits = after["plancache_hits"] - before["plancache_hits"]
    steady_misses = after["plancache_misses"] - before["plancache_misses"]
    steady_total = steady_hits + steady_misses
    hit_rate = steady_hits / steady_total if steady_total else 0.0

    wall_u, resp_u, stats_u = _run_closed_loop(
        graph, columns, unbatched_cfg, clients=clients, per_client=per_client
    )
    n = clients * per_client
    return {
        "clients": clients,
        "requests_per_mode": n,
        "batched": {
            "wall_s": wall_b,
            "requests_per_s": n / wall_b,
            "wrong_responses": _check_responses(resp_b, refs, per_client),
            **stats_b.to_dict(),
        },
        "unbatched": {
            "wall_s": wall_u,
            "requests_per_s": n / wall_u,
            "wrong_responses": _check_responses(resp_u, refs, per_client),
            **stats_u.to_dict(),
        },
        "speedup": wall_u / wall_b,
        "steady_state_hit_rate": hit_rate,
        "steady_state_launches": steady_total,
    }


def _bench_predict_equivalence(graph, model, data, *, quick: bool) -> dict:
    """Batched predict rows == standalone model forward rows, bitwise."""
    from repro.nn.tensor import Tensor
    from repro.serve import InferenceService, ServeConfig

    model.eval()
    logits = np.asarray(model(graph, Tensor(data.features)).data)
    queries = [np.arange(i, i + 3) % graph.num_vertices for i in range(24)]

    async def main():
        service = InferenceService(
            graph, model=model, features=data.features,
            config=ServeConfig.from_env(),
        )
        async with service:
            rows = await asyncio.gather(
                *[service.predict(q) for q in queries]
            )
        return rows, service.stats

    rows, stats = asyncio.run(main())
    wrong = sum(
        0 if np.array_equal(row, logits[q]) else 1
        for q, row in zip(queries, rows)
    )
    return {
        "queries": len(queries),
        "wrong_responses": wrong,
        "batches": stats.batches,
        "mean_occupancy": stats.mean_occupancy,
    }


def _bench_overload(graph, columns, *, quick: bool) -> dict:
    """Flood a tiny queue: overflow must shed, survivors must be right."""
    from repro.errors import ServiceOverloadedError
    from repro.serve import InferenceService, ServeConfig

    flood = 64 if quick else 256
    config = ServeConfig.from_env(
        queue_depth=8, max_batch=4, max_delay_us=20_000
    )

    async def main():
        service = InferenceService(graph, config=config)
        shed = 0
        results = []
        async with service:
            async def fire(i: int):
                nonlocal shed
                try:
                    results.append(await service.propagate(columns[i % len(columns)]))
                except ServiceOverloadedError:
                    shed += 1

            await asyncio.gather(*[fire(i) for i in range(flood)])
        return shed, len(results), service.stats

    shed, served, stats = asyncio.run(main())
    return {
        "flood": flood,
        "shed": shed,
        "served": served,
        "queue_depth": config.queue_depth,
        "stats": stats.to_dict(),
    }


def _bench_poisson(graph, columns, refs, *, rate_rps: float, quick: bool) -> dict:
    """Open-loop Poisson arrivals at ``rate_rps``; p50/p99 from the service."""
    from repro.serve import InferenceService, ServeConfig

    n_arrivals = 150 if quick else 600
    rng = np.random.default_rng(7)
    gaps = rng.exponential(1.0 / max(rate_rps, 1.0), size=n_arrivals)

    async def main():
        service = InferenceService(graph, config=ServeConfig.from_env())
        wrong = 0
        async with service:
            tasks = []

            async def fire(i: int):
                nonlocal wrong
                y = await service.propagate(columns[i % len(columns)])
                if not np.array_equal(y, refs[i % len(refs)]):
                    wrong += 1

            for i in range(n_arrivals):
                tasks.append(asyncio.ensure_future(fire(i)))
                await asyncio.sleep(gaps[i])
            await asyncio.gather(*tasks)
        return wrong, service.stats

    wrong, stats = asyncio.run(main())
    return {
        "arrivals": n_arrivals,
        "offered_rps": rate_rps,
        "wrong_responses": wrong,
        **stats.to_dict(),
    }


def _bench_chaos(graph, columns, refs, *, quick: bool) -> dict:
    """Closed-loop under the chaos profile: slow is fine, wrong is not."""
    from repro.resilience.faults import fault_profile
    from repro.serve import ServeConfig

    clients, per_client = (6, 10) if quick else (12, 25)
    with fault_profile("chaos", seed=1337):
        wall_s, responses, stats = _run_closed_loop(
            graph, columns, ServeConfig.from_env(),
            clients=clients, per_client=per_client,
        )
    return {
        "requests": clients * per_client,
        "wall_s": wall_s,
        "wrong_responses": _check_responses(responses, refs, per_client),
        **stats.to_dict(),
    }


def _bench_transport(graph, columns, refs, *, quick: bool) -> dict:
    """Closed loop over the loopback TCP transport (PR 10).

    Same event loop for server and clients, so the row isolates the
    RPC machinery (framing, dedup bookkeeping, scheduler) rather than
    the network.  Faults are masked: this is the clean-path number;
    behavior *under* chaos is ``scripts/chaos_serve.py``'s job.
    """
    from repro.resilience.faults import no_faults
    from repro.serve import InferenceService, ServeConfig, ServeTransport
    from repro.serve.client import ServeClient

    clients, per_client = (16, 10) if quick else (24, 25)

    async def run():
        responses: dict[int, np.ndarray] = {}
        service = InferenceService(graph, config=ServeConfig.from_env())
        transport = ServeTransport(service, port=0)
        await transport.start()
        client = ServeClient(port=transport.port)
        try:
            await client.propagate(columns[0])  # connect + plan warm-up

            async def worker(cid: int) -> None:
                for i in range(per_client):
                    key = cid * per_client + i
                    responses[key] = await client.propagate(
                        columns[key % len(columns)]
                    )

            t0 = time.perf_counter()
            await asyncio.gather(*[worker(c) for c in range(clients)])
            wall_s = time.perf_counter() - t0
        finally:
            await client.close()
            await transport.shutdown()
        return wall_s, responses, service.stats

    with no_faults():
        wall_s, responses, stats = asyncio.run(run())
    n = clients * per_client
    return {
        "clients": clients,
        "requests": n,
        "wall_s": wall_s,
        "requests_per_s": n / wall_s,
        "wrong_responses": _check_responses(responses, refs, per_client),
        **stats.to_dict(),
    }


def _check_report(report: dict) -> list[str]:
    problems = []
    thr = report.get("throughput")
    if thr:
        if thr["speedup"] < 2.0:
            problems.append(
                f"batched speedup {thr['speedup']:.2f}x < 2x vs unbatched"
            )
        if thr["steady_state_hit_rate"] < 0.9:
            problems.append(
                f"steady-state plan-cache hit rate "
                f"{thr['steady_state_hit_rate']:.0%} < 90%"
            )
        for mode in ("batched", "unbatched"):
            if thr[mode]["wrong_responses"]:
                problems.append(
                    f"{mode}: {thr[mode]['wrong_responses']} response(s) "
                    f"differ from serial reference"
                )
    if report["predict"]["wrong_responses"]:
        problems.append(
            f"predict: {report['predict']['wrong_responses']} wrong row(s)"
        )
    if report["overload"]["shed"] == 0:
        problems.append("overload flood shed nothing (backpressure broken)")
    if report["overload"]["shed"] + report["overload"]["served"] != report["overload"]["flood"]:
        problems.append("overload: requests lost (shed + served != flood)")
    if report["poisson"]["wrong_responses"]:
        problems.append(
            f"poisson: {report['poisson']['wrong_responses']} wrong response(s)"
        )
    if report["poisson"]["p99_ms"] > P99_BOUND_MS:
        problems.append(
            f"poisson p99 {report['poisson']['p99_ms']:.1f} ms > "
            f"{P99_BOUND_MS:.0f} ms sanity bound"
        )
    if report["chaos"]["wrong_responses"]:
        problems.append(
            f"chaos: {report['chaos']['wrong_responses']} wrong response(s)"
        )
    transport = report.get("transport")
    if transport and transport["wrong_responses"]:
        problems.append(
            f"transport: {transport['wrong_responses']} response(s) differ "
            f"from serial reference over the wire"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small dataset / short runs (CI smoke)")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="result JSON path (default: BENCH_serve.json)")
    parser.add_argument("--trajectory", default="BENCH_trajectory.json",
                        help="cumulative headline-numbers file ('' disables)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the acceptance gates hold")
    parser.add_argument("--no-batching", action="store_true",
                        help="run only the unbatched closed-loop baseline")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro import obs
    from repro.serve import ServeConfig

    obs.reset_metrics()
    dataset_key, graph, model, data, columns = _build_fixture(args.quick, args.seed)
    refs = _serial_reference(graph, columns)
    config = ServeConfig.from_env()

    if args.no_batching:
        clients, per_client = (8, 25) if args.quick else (16, 50)
        wall_s, responses, stats = _run_closed_loop(
            graph, columns, ServeConfig.from_env(batching=False),
            clients=clients, per_client=per_client,
        )
        n = clients * per_client
        print(f"unbatched only: {n} requests in {wall_s:.2f} s "
              f"({n / wall_s:.1f} req/s), "
              f"{_check_responses(responses, refs, per_client)} wrong")
        return 0

    report = {
        "benchmark": "inference-service wall-clock (PR 8)",
        "quick": args.quick,
        "dataset": dataset_key,
        "cpus": os.cpu_count(),
        "config": {
            "max_batch": config.max_batch,
            "max_delay_us": config.max_delay_us,
            "queue_depth": config.queue_depth,
            "timeout_ms": config.timeout_ms,
            "retries": config.retries,
        },
    }
    report["throughput"] = _bench_throughput(graph, columns, refs, quick=args.quick)
    report["predict"] = _bench_predict_equivalence(graph, model, data, quick=args.quick)
    report["overload"] = _bench_overload(graph, columns, quick=args.quick)
    rate = POISSON_LOAD * report["throughput"]["batched"]["requests_per_s"]
    report["poisson"] = _bench_poisson(graph, columns, refs,
                                       rate_rps=rate, quick=args.quick)
    report["chaos"] = _bench_chaos(graph, columns, refs, quick=args.quick)
    report["transport"] = _bench_transport(graph, columns, refs,
                                           quick=args.quick)

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    if args.trajectory:
        from repro.bench.trajectory import append_trajectory

        thr = report["throughput"]
        append_trajectory(args.trajectory, {
            "benchmark": "serve",
            "timestamp": time.time(),
            "quick": args.quick,
            "cpus": report["cpus"],
            "batched_rps": thr["batched"]["requests_per_s"],
            "unbatched_rps": thr["unbatched"]["requests_per_s"],
            "speedup": thr["speedup"],
            "steady_state_hit_rate": thr["steady_state_hit_rate"],
            "poisson_p50_ms": report["poisson"]["p50_ms"],
            "poisson_p99_ms": report["poisson"]["p99_ms"],
            "chaos_wrong": report["chaos"]["wrong_responses"],
            "transport_rps": report["transport"]["requests_per_s"],
        })

    thr = report["throughput"]
    print(f"{report['cpus']} cpu(s), dataset {dataset_key}")
    print(f"closed-loop: batched {thr['batched']['requests_per_s']:8.1f} req/s "
          f"(occupancy {thr['batched']['mean_occupancy']:.1f}), "
          f"unbatched {thr['unbatched']['requests_per_s']:8.1f} req/s "
          f"-> {thr['speedup']:.2f}x, "
          f"steady-state hit rate {thr['steady_state_hit_rate']:.0%}")
    print(f"poisson @ {report['poisson']['offered_rps']:.0f} req/s: "
          f"p50 {report['poisson']['p50_ms']:.2f} ms, "
          f"p99 {report['poisson']['p99_ms']:.2f} ms, "
          f"{report['poisson']['shed']} shed")
    print(f"overload: {report['overload']['shed']}/{report['overload']['flood']} shed "
          f"at queue depth {report['overload']['queue_depth']}")
    print(f"chaos: {report['chaos']['degraded']} degrade(s), "
          f"{report['chaos']['retries']} retry(ies), "
          f"{report['chaos']['wrong_responses']} wrong response(s)")
    print(f"transport: {report['transport']['requests_per_s']:8.1f} req/s "
          f"over loopback TCP "
          f"({report['transport']['wrong_responses']} wrong)")
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
