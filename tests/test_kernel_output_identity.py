"""Every kernel's output is the engine output, cold or warm.

GNNOne and every baseline return the base-class ``compute`` (the
``repro.exec`` engine), so a launch's output does not depend on whether
the plan cache simulated it (miss) or replayed it (hit), nor on which
kernel of a kind ran.  Every output check is ``np.array_equal``; only
the engine output's agreement with the independent oracle
(``tests.oracles.assert_path``) takes a tolerance.  Operands are both
read-only (memoized) and writeable.  A price-only ``simulate`` gives
every kernel's launch cost and trace.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import clear_plan_cache, get_plan_cache
from repro.errors import FormatError
from repro.exec import get_engine
from repro.kernels.gnnone import GnnOneFusedGATLayer
from repro.kernels.registry import (
    sddmm_kernel,
    sddmm_kernel_names,
    spmm_kernel,
    spmm_kernel_names,
    spmv_kernel,
    spmv_kernel_names,
)
from repro.resilience import no_faults
from tests.oracles import assert_path, operands

ROOT = Path(__file__).resolve().parents[1]
F = 32

KERNELS = (
    [("spmm", name) for name in spmm_kernel_names()]
    + [("sddmm", name) for name in sddmm_kernel_names()]
    + [("spmv", name) for name in spmv_kernel_names()]
)
REGISTRY = {"spmm": spmm_kernel, "sddmm": sddmm_kernel, "spmv": spmv_kernel}


def _operands(kind, A, read_only):
    ops = operands(kind, A, F, np.random.default_rng(5))
    for op in ops:
        op.setflags(write=not read_only)
    return ops


@pytest.mark.parametrize("read_only", [True, False], ids=["read-only", "writeable"])
@pytest.mark.parametrize("kind,name", KERNELS, ids=[f"{k}-{n}" for k, n in KERNELS])
def test_cold_and_warm_outputs_are_the_engine_output(kind, name, read_only, medium_graph):
    """A fixed-graph case of the differential path table."""
    A = medium_graph
    ops = _operands(kind, A, read_only)
    kernel = REGISTRY[kind](name)
    cache = get_plan_cache()
    with no_faults():
        cold = kernel(A, *ops)
        hits = cache.hits
        warm = kernel(A, *ops)
        assert cache.hits == hits + 1
    assert_path(kind, cold.output, A, ops)
    assert np.array_equal(warm.output, cold.output)
    assert cold.output is not warm.output


PRICED = KERNELS + [("fused-gat", "gnnone")]


@pytest.mark.parametrize("kind,name", PRICED, ids=[f"{k}-{n}" for k, n in PRICED])
def test_simulate_is_the_launch_cost_and_trace(kind, name, medium_graph):
    """``simulate(A, F)`` prices a launch without operands, cold or warm."""
    A = medium_graph
    kernel = GnnOneFusedGATLayer() if kind == "fused-gat" else REGISTRY[kind](name)
    feature_length = 1 if kind == "spmv" else F
    ops = _operands(kind, A, read_only=False)
    with no_faults():
        cold_plan = kernel.simulate(A, feature_length)
        warm_plan = kernel.simulate(A, feature_length)
        clear_plan_cache()
        cold = kernel(A, *ops)
        warm = kernel(A, *ops)
    assert warm_plan is cold_plan
    for result in (cold, warm):
        assert result.cost == cold_plan.cost
        assert pickle.dumps(result.trace) == pickle.dumps(cold_plan.trace)


#: the one import a baseline keeps: e2ebench's probe test rebinds the copy
#: of ``reference_spmm`` that huang.py holds; a call to it is still flagged
REEXPORTS = {("huang.py", "reference_spmm")}


def reference_oracle_uses(source: str, filename: str = "") -> list[int]:
    """Lines importing or naming a ``reference_*`` oracle."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if (filename, a.name) not in REEXPORTS]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(n.startswith("reference_") for n in names):
            lines.append(node.lineno)
    return lines


def test_reference_detector_catches_each_spelling():
    source = (
        "from repro.kernels.base import SpMMKernel, reference_spmm\n"
        "from repro.kernels import base\n"
        "y = base.reference_sddmm(A, X, Y)\n"
        "z = self.compute(A, X, Y)\n"
        "w = '''reference_spmv(A) in a string'''\n"
        "v = reference_spmm(A, w, X)\n"
    )
    assert reference_oracle_uses(source) == [1, 3, 6]
    assert reference_oracle_uses(source, "huang.py") == [3, 6]


def test_no_baseline_returns_a_reference_oracle():
    """Baselines compute through ``compute``; the oracles are for tests and
    checks only, so no kernel's output can depend on cache state."""
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src" / "repro" / "kernels" / "baselines").rglob("*.py"))
        for line in reference_oracle_uses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert offenders == []


def test_engine_sddmm_rejects_operands_that_do_not_fit(medium_graph):
    """The engine gathers with ``np.take(mode="wrap")``, so an operand that
    does not fit ``A`` must raise before the gather, not wrap silently."""
    A = medium_graph
    X = np.ones((A.num_rows, F))
    Y = np.ones((A.num_cols, F))
    for bad in ((X[:-1], Y), (X, Y[:-1]), (X, Y[:, :-1]), (X[0], Y)):
        with pytest.raises(FormatError):
            get_engine().sddmm(A, *bad)
    assert np.array_equal(get_engine().sddmm(A, X, Y), np.full(A.nnz, float(F)))
