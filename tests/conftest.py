"""Shared fixtures: small graphs, operand factories, the leak check and ``--full``."""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import core, settings
from repro.core import clear_plan_cache
from repro.nn import GCN, GraphData
from repro.nn.tensor import Tensor
from repro.resilience import faults
from repro.serve import InferenceService, ServeClient, ServeConfig, ServeTransport, protocol
from repro.sparse import COOMatrix, generators


def pytest_addoption(parser):
    parser.addoption("--full", action="store_true",
                     help="check the paper claims on the full sweeps instead of the quick subset")


@pytest.fixture(scope="session")
def quick_mode(request) -> bool:
    """False under ``--full``: the paper-claim experiments run their full sweeps."""
    return not request.config.getoption("--full")


@pytest.fixture(autouse=True)
def _cold_plan_cache():
    """Every test starts with a cold structural plan cache.

    Session-scoped graph fixtures are shared across tests, so without
    this a test asserting on the simulation pipeline (stage spans,
    trace contents) would observe a warm replay from an earlier test.
    Tests that want warm behaviour exercise it within their own body.
    """
    clear_plan_cache()
    yield
    clear_plan_cache()


def _open_fds() -> dict[str, str]:
    """This process's open file descriptors and what each points at."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:  # the descriptor that listed the directory
            pass
    return fds


@pytest.fixture(autouse=True, scope="module")
def _no_leaks():
    """Fail a test module that leaves a thread or an open file descriptor behind."""
    threads = set(threading.enumerate())
    fds = _open_fds() if os.path.isdir("/proc/self/fd") else None
    yield
    gc.collect()  # close what only garbage still holds
    leaked = [t.name for t in threading.enumerate() if t not in threads]
    if fds is not None:
        leaked += [f"fd {fd} -> {target}" for fd, target in _open_fds().items()
                   if fds.get(fd) != target]
    assert not leaked, f"left behind: {leaked}"


@pytest.fixture(autouse=True)
def _fresh_settings():
    """Re-read the environment after each test.

    Settings are parsed once and cached; a test that changed a
    ``REPRO_*`` variable (its monkeypatch is undone before this runs)
    must not leak the cached value into the next test.
    """
    yield
    settings.reload()


@pytest.fixture()
def repro_env(monkeypatch):
    """Set ``REPRO_*`` variables for one test and reload the settings.

    ``repro_env(REPRO_OBS="off", REPRO_FAULT_SEED=None)`` sets the
    first and unsets the second; a malformed value raises
    :class:`~repro.errors.ConfigError` from the reload.
    """

    def apply(**values: str | None) -> settings.Settings:
        for name, value in values.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        return settings.reload()

    return apply


@pytest.fixture(autouse=True)
def _fresh_injector():
    """Re-read the fault profile and zero occurrence counters per test.

    The injector's fire schedule is a pure function of (seed, site,
    occurrence index); dropping the process injector makes each test
    resolve a fresh one, so it sees the same deterministic schedule
    regardless of test ordering.
    """
    faults._default = None
    yield
    faults._default = None


@pytest.fixture(scope="session")
def tiny_coo() -> COOMatrix:
    """The 4x4 example matrix from the paper's Fig. 1 neighborhood."""
    rows = np.array([0, 0, 1, 2, 2, 2, 3])
    cols = np.array([1, 3, 2, 0, 1, 3, 2])
    return COOMatrix.from_edges(4, 4, rows, cols)


@pytest.fixture(scope="session")
def small_graph() -> COOMatrix:
    """A small skewed graph big enough to span several warps."""
    return generators.power_law(500, 8.0, seed=42)


@pytest.fixture(scope="session")
def medium_graph() -> COOMatrix:
    """~40k-edge R-MAT graph: multiple CTAs, heavy skew."""
    return generators.rmat(10, 20, seed=7)


@pytest.fixture(scope="session")
def uniform_graph() -> COOMatrix:
    """Near-uniform degrees (road-like)."""
    return generators.road_grid(40, seed=3)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_operands(coo: COOMatrix, F: int, rng: np.random.Generator):
    """(edge_values, X, Xrow, x) operand bundle for kernel tests."""
    return (
        rng.standard_normal(coo.nnz),
        rng.standard_normal((coo.num_cols, F)),
        rng.standard_normal((coo.num_rows, F)),
        rng.standard_normal(coo.num_cols),
    )


# ---------------------------------------------------------------- serving


@pytest.fixture(scope="module")
def served():
    """Serving, started once per module on one background event loop.

    ``service`` has a GCN model over a 60-vertex graph, ``bare`` has no
    model, ``transport`` puts ``service`` on TCP and ``client`` is
    connected to it; ``run(coro)`` runs a coroutine on the loop.
    """
    graph = GraphData(generators.power_law(60, 4.0, seed=3))
    features = np.random.default_rng(0).standard_normal((graph.num_vertices, 6))
    model = GCN(6, 8, 4, seed=1)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="served-loop")
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=60)

    async def start():
        service = InferenceService(
            graph, model=model, features=features,
            config=ServeConfig(max_batch=8, max_delay_us=2_000),
        )
        transport = await ServeTransport(service, port=0).start()
        return SimpleNamespace(
            service=service, transport=transport, bare=await InferenceService(graph).start(),
            client=await ServeClient(port=transport.port).connect(),
        )

    s = run(start())
    s.run, s.graph, s.model, s.features = run, graph, model, features
    s.logits = np.asarray(model.eval()(graph, Tensor(features)).data)
    s.columns = np.random.default_rng(1).standard_normal((graph.num_vertices, 2))
    try:
        yield s
    finally:
        async def stop():
            await s.client.close()
            await s.transport.shutdown()
            await s.bare.close()

        run(stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        assert not thread.is_alive(), "the serving loop did not stop"
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


def serial(graph: GraphData, column: np.ndarray) -> np.ndarray:
    """One propagate column computed alone: a width-1 ``core.spmm``."""
    out, _ = core.spmm(graph.coo, graph.gcn_edge_values, column[:, None])
    return out[:, 0].copy()


async def submit(service, kind, payload, **kwargs):
    """``service.submit_nowait`` from inside the loop, awaited."""
    return await service.submit_nowait(kind, payload, **kwargs)


_IDS = itertools.count()


async def frame(port: int, message: dict, attachment: bytes = b"") -> tuple[dict, bytes]:
    """Send one raw request frame and return the answer frame and its
    attachment; a typed error frame is raised as its error."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await protocol.write_frame(writer, protocol.hello_frame())
        await protocol.read_frame(reader)
        # a fresh id: the transport replays the answer to a repeated one
        body = json.dumps({"id": f"f{next(_IDS)}", **message, "bin": len(attachment)})
        writer.write(len(body).to_bytes(4, "big") + body.encode() + attachment)
        await writer.drain()
        answer, attached = await protocol.read_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    if not answer["ok"]:
        raise protocol.error_from_frame(answer)
    return answer, attached


def wire(s, op: str, payload, **fields) -> tuple[dict, bytes]:
    """A raw ``op`` frame carrying ``payload`` as a binary attachment."""
    arr = np.asarray(payload)
    header = {"__nd__": 2, "dtype": arr.dtype.str, "shape": list(arr.shape)}
    return s.run(frame(s.transport.port, {"op": op, "payload": header, **fields},
                       arr.tobytes()))
