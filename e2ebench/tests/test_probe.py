"""The outside-in probe: rebinding, restoring, and additive self time."""

from __future__ import annotations

import asyncio
import math
import sys
import types

import pytest

from e2ebench.probe import Probe, Target


class FakeClock:
    """Stands in for ``time.perf_counter``: time moves only when work says so."""

    def __init__(self):
        self.now = 1000.0

    def perf_counter(self) -> float:
        return self.now

    def busy(self, seconds: float) -> None:
        self.now += seconds


FAKE_CORE = """
import asyncio


def _busy(seconds):
    CLOCK.busy(seconds)


def leaf():
    _busy(0.002)
    return 1


def mid():
    _busy(0.001)
    return leaf() + leaf()


def top():
    _busy(0.003)
    return mid() + leaf()


def scoped():
    return leaf()


async def client_call():
    await asyncio.sleep(0)
    return leaf()


class Result:
    def __init__(self):
        self._backward = lambda: _busy(0.001)


def make():
    return Result()


class Base:
    def run(self):
        return leaf()


class Sub(Base):
    def run(self):
        _busy(0.001)
        return super().run()
"""


@pytest.fixture
def clock(monkeypatch):
    import e2ebench.probe as probe_mod

    fake = FakeClock()
    monkeypatch.setattr(probe_mod, "time", fake)
    return fake


@pytest.fixture
def fakeprog(clock):
    """A two-module program: ``core`` defines, ``user`` holds a copy; its
    work advances the fake clock the probe reads."""
    pkg = types.ModuleType("fakeprog")
    core = types.ModuleType("fakeprog.core")
    core.CLOCK = clock
    exec(compile(FAKE_CORE, "fakeprog/core.py", "exec"), vars(core))
    user = types.ModuleType("fakeprog.user")
    user.leaf = core.leaf  # ``from fakeprog.core import leaf``
    modules = {"fakeprog": pkg, "fakeprog.core": core, "fakeprog.user": user}
    sys.modules.update(modules)
    yield core, user
    for name in modules:
        sys.modules.pop(name, None)


def _targets():
    return [
        Target("fakeprog.core", "leaf", "leaf"),
        Target("fakeprog.core", "mid", "mid"),
        Target("fakeprog.core", "top", "top"),
        Target("fakeprog.core:Base", "run", "run"),
    ]


def test_install_rebinds_copies_and_subclasses_and_uninstall_restores(fakeprog):
    core, user = fakeprog
    before = {
        "core.leaf": core.leaf, "user.leaf": user.leaf, "core.top": core.top,
        "Base.run": vars(core.Base)["run"], "Sub.run": vars(core.Sub)["run"],
    }
    probe = Probe(_targets()).install()
    assert core.leaf is not before["core.leaf"]
    assert user.leaf is not before["user.leaf"]
    assert vars(core.Base)["run"] is not before["Base.run"]
    assert vars(core.Sub)["run"] is not before["Sub.run"]
    probe.uninstall()
    after = {
        "core.leaf": core.leaf, "user.leaf": user.leaf, "core.top": core.top,
        "Base.run": vars(core.Base)["run"], "Sub.run": vars(core.Sub)["run"],
    }
    assert after == before
    assert all(after[k] is before[k] for k in before)


def test_program_targets_install_and_restore_every_original():
    from e2ebench.layers import program_targets
    import repro.kernels.base as base
    import repro.kernels.baselines.huang as huang
    import repro.nn.tensor as tensor
    import repro.serve.service  # noqa: F401 - load every target module

    originals = {
        "matmul": tensor.matmul,
        "huang.reference_spmm": huang.reference_spmm,
        "SpMMKernel.__call__": vars(base.SpMMKernel)["__call__"],
    }
    probe = Probe(program_targets())
    with probe.installed_for():
        assert tensor.matmul is not originals["matmul"]
        assert huang.reference_spmm is not originals["huang.reference_spmm"]
        assert huang.reference_spmm is base.reference_spmm
        saved = list(probe._saved)
        assert len(saved) > 50
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original
    assert tensor.matmul is originals["matmul"]
    assert huang.reference_spmm is originals["huang.reference_spmm"]
    assert vars(base.SpMMKernel)["__call__"] is originals["SpMMKernel.__call__"]


def test_rows_plus_unattributed_equal_op_time(fakeprog, clock):
    core, user = fakeprog
    probe = Probe(_targets())
    with probe.installed_for():
        for _ in range(3):
            with probe.op("a"):
                clock.busy(0.002)  # the op's own, unattributed work
                core.top()
                user.leaf()
                core.Sub().run()
    table = probe.layer_ms("a")
    rows = {k: v for k, v in table.items() if k not in ("op", "unattributed")}
    assert rows == pytest.approx({
        "leaf": 10.0,  # 5 calls per op at 2 ms
        "mid": 1.0,  # its own 1 ms, not its two leaf calls
        "top": 3.0,  # its own 3 ms, not mid's or its leaf call
        "run": 1.0,  # Sub.run's own 1 ms; Base.run only calls leaf
    })
    assert table["unattributed"] == pytest.approx(2.0)
    assert table["op"] == pytest.approx(17.0)
    assert math.isclose(sum(rows.values()) + table["unattributed"], table["op"],
                        rel_tol=1e-12)
    assert len(probe.ops["a"]) == 3


def test_calls_outside_an_op_are_not_recorded(fakeprog):
    core, _ = fakeprog
    probe = Probe(_targets())
    with probe.installed_for():
        core.top()
    assert not probe.rows and not probe.ops


def test_scopes_rename_and_shadow_rows(fakeprog, monkeypatch):
    core, _ = fakeprog
    import e2ebench.probe as probe_mod

    monkeypatch.setitem(probe_mod.SCOPED_ROWS, ("leaf", "eval"), "leaf_in_eval")
    monkeypatch.setitem(probe_mod.SHADOW_ROWS, ("leaf", "eval"), "leaf_shadow")
    monkeypatch.setitem(probe_mod.SCOPED_ROWS, ("leaf", "client"), "leaf_in_client")
    targets = [
        Target("fakeprog.core", "leaf", "leaf"),
        Target("fakeprog.core", "scoped", "scoped", scope="eval"),
        Target("fakeprog.core", "client_call", scope="client"),
    ]
    probe = Probe(targets)
    with probe.installed_for():
        with probe.op("a"):
            core.scoped()
            core.leaf()
            asyncio.run(core.client_call())
    rows, shadow = probe.rows["a"], probe.shadow["a"]
    assert set(rows) == {"leaf", "leaf_in_eval", "leaf_in_client", "scoped"}
    assert shadow["leaf_shadow"] == rows["leaf_in_eval"]


def test_grad_closure_and_hook(fakeprog, clock):
    core, _ = fakeprog
    seen = []
    probe = Probe([Target("fakeprog.core", "make", "make", grad=True,
                          hook=lambda p, slot, args, res: seen.append((slot, res)))])
    with probe.installed_for():
        with probe.op("b"):
            out = core.make()
            out._backward()
    assert seen and seen[0][0] == "b"
    assert probe.rows["b"]["make"] == pytest.approx(0.001)  # the closure's time


def test_snapshot_deltas_are_counted_per_op():
    ticks = {"n": 0}

    def snapshot():
        ticks["n"] += 5
        return {"hits": ticks["n"]}

    probe = Probe(snapshot=snapshot)
    for _ in range(2):
        with probe.op("a") as op:
            pass
        assert op.seconds >= 0
    assert probe.counts["a"]["hits"] == 10
