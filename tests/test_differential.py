"""Differential suite: every execution path against one engine output and one oracle.

Two tables; the next kernel or serving path is registered by adding a row.

* ``PATHS`` holds every kernel path: each registered SpMM, SDDMM and SpMV
  kernel and the fused GAT layer, called as ``kernel(...)`` and through
  ``repro.core``, and every GNNOne config (cache sizes x schedules, the
  NZE-cache ablation).  For any drawn graph (:func:`tests.oracles.graphs`)
  and width, a path's output, with the plan cache cold and warm and on
  writeable and read-only (memoized) operands, is ``np.array_equal`` to
  the engine output, and the engine output agrees with the kind's
  independent oracle (:data:`tests.oracles.ORACLES`) within
  :data:`tests.oracles.TOL`.  Serving adds two paths, in-process and
  over TCP, for any drawn batch of request widths, kinds and column
  dtypes.
* ``BOUNDARIES`` pairs each public boundary with each bad-input class;
  the pair either works or raises the named :mod:`repro.errors` error.

Serving runs on the ``served`` fixture: one service, its TCP transport
and one client on a background event loop, started once for the module.
"""

from __future__ import annotations

import asyncio
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import core
from repro.core.autotune import CACHE_SIZES, SCHEDULES
from repro.errors import ConfigError, FormatError, ProtocolError
from repro.kernels.gnnone import CONSECUTIVE, GnnOneConfig, GnnOneSDDMM, GnnOneSpMM
from repro.kernels.gnnone.fused import GnnOneFusedGATLayer
from repro.kernels.registry import (
    sddmm_kernel,
    sddmm_kernel_names,
    spmm_kernel,
    spmm_kernel_names,
    spmv_kernel,
    spmv_kernel_names,
)
from repro.resilience import no_faults
from repro.sparse import generators
from tests.conftest import frame, submit, wire
from tests.oracles import (
    ORACLES, assert_close, assert_path, engine_output, gcn_oracle, graphs, operands,
)


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact outputs and per-input errors need a fault-free run; the chaos
    gates and the fault tests cover injected faults."""
    with no_faults():
        yield


# ------------------------------------------------------------------ paths


def _config_id(cfg: GnnOneConfig) -> str:
    return "no-nze-cache" if not cfg.enable_nze_cache else f"c{cfg.cache_size}-{cfg.schedule}"


#: every non-default GNNOne config: the tuner's space and the Fig-8 cache ablation
CONFIGS = [
    GnnOneConfig(cache_size=c, schedule=s)
    for c in CACHE_SIZES for s in SCHEDULES if (c, s) != (128, CONSECUTIVE)
] + [GnnOneConfig(enable_nze_cache=False)]

#: (kind, kernel factory, ``repro.core`` call or None)
PATHS = [
    *(
        pytest.param(kind, partial(factory, name), partial(api, backend=name),
                     id=f"{kind}-{name}")
        for kind, factory, names, api in (
            ("spmm", spmm_kernel, spmm_kernel_names(), core.spmm),
            ("sddmm", sddmm_kernel, sddmm_kernel_names(), core.sddmm),
            ("spmv", spmv_kernel, spmv_kernel_names(), core.spmv),
        )
        for name in names
    ),
    *(
        pytest.param(kind, partial(cls, cfg), partial(api, config=cfg),
                     id=f"{kind}-gnnone-{_config_id(cfg)}")
        for kind, cls, api in (("spmm", GnnOneSpMM, core.spmm),
                               ("sddmm", GnnOneSDDMM, core.sddmm))
        for cfg in CONFIGS
    ),
    pytest.param("fused-gat", GnnOneFusedGATLayer, None, id="fused-gat"),
    pytest.param("fused-gat", partial(GnnOneFusedGATLayer, CONFIGS[-1]), None,
                 id="fused-gat-no-nze-cache"),
]


@pytest.mark.parametrize("kind, kernel, api", PATHS)
@given(A=graphs(), F=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(A=generators.power_law(500, 8.0, seed=42), F=100, seed=0)  # several warps, F > 64
@settings(max_examples=10, deadline=None)
def test_every_path_is_the_engine_output(kind, kernel, api, A, F, seed):
    writeable = operands(kind, A, F, np.random.default_rng(seed))
    read_only = tuple(op.copy() for op in writeable)
    for op in read_only:
        op.setflags(write=False)
    expect = engine_output(kind, A, writeable)
    assert_close(expect, ORACLES[kind](A, *writeable))
    cache = core.get_plan_cache()
    core.clear_plan_cache()
    cold = kernel()(A, *writeable)
    assert cold.time_us > 0
    hits = cache.hits
    outputs = [cold.output] + [kernel()(A, *ops).output
                               for ops in (writeable, read_only, read_only)]
    assert cache.hits == hits + 3  # every later launch replays the plan
    if api is not None:
        for ops in (writeable, read_only):
            out, report = api(A, *ops)
            assert report == cold.cost  # the kernel the call names, launched
            outputs.append(out)
    for out in outputs:
        assert np.array_equal(out, expect)
    assert len({id(out) for out in outputs}) == len(outputs)  # never a shared buffer


# ---------------------------------------------------------------- serving


def test_served_logits_agree_with_the_oracle(served):
    assert_close(served.logits, gcn_oracle(served.graph, served.model, served.features))


#: a request: its kind, width (0 is a 1-D column or a scalar id) and the
#: dtype of its columns (they travel over TCP in their own dtype)
REQUESTS = st.lists(
    st.tuples(st.sampled_from(["propagate", "predict"]), st.integers(0, 3),
              st.sampled_from(["float64", "float32", "int64"])),
    min_size=1, max_size=8,
)


def _columns(rng, shape, dtype):
    if dtype == "int64":
        return rng.integers(-5, 5, shape)
    return rng.standard_normal(shape).astype(dtype)


@pytest.mark.parametrize("via", ["in-process", "tcp"])
@given(batch=REQUESTS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_serving_paths_are_the_engine_output(served, via, batch, seed):
    """Concurrent requests share batches; each is admitted once, and its
    answer is bit-identical to its own float64 engine launch (propagate)
    or its logit rows (predict)."""
    rng = np.random.default_rng(seed)
    V = served.graph.num_vertices
    payloads = [
        _columns(rng, (V, width) if width else V, dtype) if kind == "propagate"
        else (rng.integers(0, V, width) if width else int(rng.integers(V)))
        for kind, width, dtype in batch
    ]
    target = served.service if via == "in-process" else served.client

    async def send():
        return await asyncio.gather(*[
            getattr(target, kind)(payload) for (kind, *_), payload in zip(batch, payloads)
        ])

    admitted = served.service.stats.requests
    answers = served.run(send())
    assert served.service.stats.requests - admitted == len(batch)
    coo, values = served.graph.coo, served.graph.gcn_edge_values
    for (kind, *_), payload, answer in zip(batch, payloads, answers):
        if kind == "predict":
            assert np.array_equal(answer, served.logits[payload])
        else:
            assert answer.shape == payload.shape and answer.dtype == np.float64
            assert_path("spmm", answer.reshape(V, -1), coo, (values, payload.reshape(V, -1)))


# ------------------------------------------------------------- boundaries

G = generators.power_law(40, 4.0, seed=1)
_r = np.random.default_rng(7)
VALS, XC, XR, XV = (_r.standard_normal(G.nnz), _r.standard_normal((G.num_cols, 4)),
                    _r.standard_normal((G.num_rows, 4)), _r.standard_normal(G.num_cols))
EL, ER = _r.standard_normal(G.num_rows), _r.standard_normal(G.num_cols)

#: bad-input class -> (the input, or how it spoils a well-formed array
#: operand; whether the boundary must still work), per input kind
CASES = {
    "array": {
        "ragged": (lambda op: [[1.0], [1.0, 2.0]], False),
        "wrong-rank": (lambda op: op[..., None], False),
        "short": (lambda op: op[:-1], False),
        "long": (lambda op: np.concatenate([op, op[:1]]), False),
        "str": (lambda op: op.astype(str), False),
        "complex": (lambda op: op + 0j, False),
        "object": (lambda op: op.astype(object), False),
        "bool": (lambda op: op > 0, False),
        "int32": (lambda op: op.astype(np.int32), True),
        "float32": (lambda op: op.astype(np.float32), True),
        "non-contiguous": (lambda op: np.repeat(op, 2, axis=0)[::2], True),
        "nan": (lambda op: np.where(op > 0, np.nan, op), True),
    },
    "ids": {
        "float": (np.array([1.7]), False),
        "bool": (np.array([True]), False),
        "scalar-bool": (True, False),
        "str": (np.array(["3"]), False),
        "object": (np.array([1], object), False),
        "negative": (np.array([-1]), False),
        "too-large": (np.array([60]), False),  # |V| of the served graph
        "ragged": ([[1], [2, 3]], False),
        "2-D": (np.array([[1, 2]]), False),
        "empty": (np.array([], np.int64), False),
        "int32": (np.array([1, 59], np.int32), True),
        "uint8": (np.array([0, 5], np.uint8), True),
    },
    "deadline": {
        "nan": (float("nan"), False), "inf": (float("inf"), False),
        "-inf": (float("-inf"), False), "bool": (True, False),
    },
    "no-model": {"ids": (np.array([0]), False)},
    "kind": {"unknown": ("transmogrify", False), "misspelt": ("predcit", False),
             "list": (["propagate"], False)},
    "priority": {"unknown": ("express", False), "list": (["x"], False),
                 "dict": ({"a": 1}, False), "int": (0, False), "bulk": ("bulk", True)},
    "autotune": {
        "bool-width": ((True,), False), "float-width": ((2.5,), False),
        "zero-width": ((0,), False), "str-width": (("8",), False),
        "unknown-kind": ((8, "gemm"), False), "list-kind": ((8, ["spmm"]), False),
        "int64-width": ((np.int64(8), "sddmm"), True),
    },
    "frame": {
        "unknown-op": ({"op": "transmogrify"}, False),
        "no-id": ({"op": "propagate", "id": ""}, False),
        "bad-dtype": ({"op": "propagate",
                       "payload": {"__nd__": 2, "dtype": "nope", "shape": [1]}}, False),
        "size-mismatch": ({"op": "propagate",
                           "payload": {"__nd__": 2, "dtype": "<f8", "shape": [5]}}, False),
    },
}
#: a ragged nesting or an object array has no wire form
NO_WIRE_FORM = ("ragged", "object")


def _every(call, items) -> None:
    """``call`` on every item: all work, or all raise one error type (re-raised)."""
    errors = []
    for item in items:
        try:
            call(item)
        except Exception as e:  # compared below
            errors.append(e)
    if errors:
        assert len(errors) == len(items) and len({type(e) for e in errors}) == 1, errors
        raise errors[0]


SPMM, SDDMM, SPMV = ([factory(n) for n in names()] for factory, names in (
    (spmm_kernel, spmm_kernel_names), (sddmm_kernel, sddmm_kernel_names),
    (spmv_kernel, spmv_kernel_names)))
FUSED = GnnOneFusedGATLayer()

#: boundary -> (input kind, call with one case's input, the typed error it raises)
TABLE = {
    "core.spmm-X": ("array", lambda s, f: core.spmm(G, VALS, f(XC))[0], FormatError),
    "core.spmm-edge_values": ("array", lambda s, f: core.spmm(G, f(VALS), XC)[0], FormatError),
    "core.sddmm-X": ("array", lambda s, f: core.sddmm(G, f(XR), XC)[0], FormatError),
    "core.sddmm-Y": ("array", lambda s, f: core.sddmm(G, XR, f(XC))[0], FormatError),
    "core.spmv-x": ("array", lambda s, f: core.spmv(G, VALS, f(XV))[0], FormatError),
    "core.spmv-edge_values": ("array", lambda s, f: core.spmv(G, f(VALS), XV)[0], FormatError),
    "kernels.spmm": ("array", lambda s, f: _every(lambda k: k(G, VALS, f(XC)), SPMM),
                     FormatError),
    "kernels.sddmm": ("array", lambda s, f: _every(lambda k: k(G, f(XR), XC), SDDMM),
                      FormatError),
    "kernels.spmv": ("array", lambda s, f: _every(lambda k: k(G, VALS, f(XV)), SPMV),
                     FormatError),
    "fused-gat-el": ("array", lambda s, f: FUSED(G, f(EL), ER, XC).output, FormatError),
    "fused-gat-X": ("array", lambda s, f: FUSED(G, EL, ER, f(XC)).output, FormatError),
    "core.autotune": ("autotune", lambda s, args: core.autotune(G, *args), ConfigError),
    "service.propagate": (
        "array", lambda s, f: s.run(s.service.propagate(f(s.columns))), ConfigError),
    "service.submit_nowait-propagate": (
        "array", lambda s, f: s.run(submit(s.service, "propagate", f(s.columns))),
        ConfigError),
    "client.propagate": (
        "array", lambda s, f: s.run(s.client.propagate(f(s.columns))), ConfigError),
    "wire.propagate": ("array", lambda s, f: wire(s, "propagate", f(s.columns)), ConfigError),
    "service.predict": ("ids", lambda s, ids: s.run(s.service.predict(ids)), ConfigError),
    "service.submit_nowait-predict": (
        "ids", lambda s, ids: s.run(submit(s.service, "predict", ids)), ConfigError),
    "client.predict": ("ids", lambda s, ids: s.run(s.client.predict(ids)), ConfigError),
    "wire.predict": ("ids", lambda s, ids: wire(s, "predict", ids), ConfigError),
    "service.predict-bare": (
        "no-model", lambda s, ids: s.run(s.bare.predict(ids)), ConfigError),
    "service.submit_nowait-predict-bare": (
        "no-model", lambda s, ids: s.run(submit(s.bare, "predict", ids)), ConfigError),
    "service.submit_nowait-kind": (
        "kind", lambda s, kind: s.run(submit(s.service, kind, s.columns)), ConfigError),
    "service.propagate-priority": (
        "priority", lambda s, p: s.run(s.service.propagate(s.columns, priority=p)),
        ConfigError),
    "client.propagate-priority": (
        "priority", lambda s, p: s.run(s.client.propagate(s.columns, priority=p)),
        ConfigError),
    "wire.propagate-priority": (
        "priority", lambda s, p: wire(s, "propagate", s.columns, priority=p), ConfigError),
    "service.propagate-deadline": (
        "deadline", lambda s, d: s.run(s.service.propagate(s.columns, deadline_ms=d)),
        ConfigError),
    "service.submit_nowait-deadline": (
        "deadline",
        lambda s, d: s.run(submit(s.service, "propagate", s.columns, deadline_ms=d)),
        ConfigError),
    "client.propagate-deadline": (
        "deadline", lambda s, d: s.run(s.client.propagate(s.columns, deadline_ms=d)),
        ConfigError),
    "wire.propagate-deadline": (
        "deadline", lambda s, d: wire(s, "propagate", s.columns, deadline_ms=d),
        ProtocolError),
    "wire.frame": ("frame", lambda s, m: s.run(frame(s.transport.port, m)), ProtocolError),
}

BOUNDARIES = [
    pytest.param(call, value, None if works else error, id=f"{name}-{case}")
    for name, (kind, call, error) in TABLE.items()
    for case, (value, works) in CASES[kind].items()
    if not (name.startswith("wire") and case in NO_WIRE_FORM)
]


@pytest.mark.parametrize("call, value, error", BOUNDARIES)
def test_each_boundary_works_or_raises_typed(served, call, value, error):
    """A refused request is refused before admission: the service counts
    no request, and its breaker stays closed for every other caller."""
    admitted = served.service.stats.requests
    if error is None:
        out = call(served, value)
        if isinstance(out, np.ndarray):  # a numeric input is answered in float64
            assert out.dtype == np.float64
    else:
        with pytest.raises(error):
            call(served, value)
        assert served.service.stats.requests == admitted
    assert served.service.breaker.state == "closed"
