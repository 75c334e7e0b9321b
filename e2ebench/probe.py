"""Outside-in per-layer timing for the benchmark's traced run.

The probe never edits the program.  :meth:`Probe.install` rebinds the
public functions and methods named by its :class:`Target` list to timing
wrappers -- every module-level copy made by ``from m import f`` as well,
and the method on every subclass that defines it -- and
:meth:`Probe.uninstall` puts each original back and checks that it did.

Self time: each thread keeps its own stack of open wrapped calls.  A
call's self time is its duration minus the durations of the wrapped
calls nested directly inside it, so the rows recorded for one operation
never overlap; whatever the op took beyond their sum is reported as the
``unattributed`` remainder.

Scopes: a target may put its callees in a scope (``bwd`` inside
``Tensor.backward``, ``eval`` inside ``Trainer.evaluate``); an ``async``
target sets the scope of its task instead (``client`` inside the client's
request coroutines), because an await would break a per-thread stack.
A scope can rename a row (forward work inside evaluation is charged to
``nn.evaluate``; wire encode/decode goes to the client or the server
side) or additionally count it in a non-additive *shadow* row (dense and
exec numerics inside backward).

Only calls made while an op slot is active (:meth:`Probe.op`) are
recorded; everything else runs through the wrapper untouched.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

_TASK_SCOPE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "e2ebench_task_scope", default=None
)

#: (row, scope) -> the row the call is charged to inside that scope
SCOPED_ROWS = {
    ("nn.forward", "eval"): "nn.evaluate",
    ("wire.encode", "client"): "client.encode",
    ("wire.decode", "client"): "client.decode",
}
#: rows whose side is the server unless a scope says otherwise
DEFAULT_ROWS = {"wire.encode": "server.encode", "wire.decode": "server.decode"}
#: (row, scope) -> a non-additive row that also counts the self time
SHADOW_ROWS = {
    ("nn.dense", "bwd"): "nn.dense_bwd",
    ("exec.spmm", "bwd"): "exec.bwd",
    ("exec.sddmm", "bwd"): "exec.bwd",
    ("exec.other", "bwd"): "exec.bwd",
}


@dataclass(frozen=True)
class Target:
    """One public callable of the program to observe.

    ``owner`` is ``"pkg.module"`` for a function or ``"pkg.module:Class"``
    for a method.  ``row`` names the self-time row (``None``: not timed,
    only ``scope``/``hook`` apply); ``grad`` also times the backward
    closure of the tensor the call returns; ``hook(probe, slot, args,
    result)`` reads the result of a call made inside an op.
    """

    owner: str
    attr: str
    row: str | None = None
    scope: str | None = None
    grad: bool = False
    hook: Callable[["Probe", str, tuple, Any], None] | None = None


class Op:
    """Handle yielded by :meth:`Probe.op`; ``seconds`` is set on exit."""

    seconds: float = 0.0


def _class_tree(cls: type) -> Iterator[type]:
    seen: set[type] = set()
    todo = [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.add(c)
            yield c
            todo.extend(c.__subclasses__())


class Probe:
    """Per-slot self-time rows, counters and op durations."""

    def __init__(
        self,
        targets: list[Target] = (),
        snapshot: Callable[[], dict[str, float]] | None = None,
    ):
        self.targets = list(targets)
        self._snapshot = snapshot
        self._saved: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: the op slot calls are charged to; ``None`` records nothing
        self.slot: str | None = None
        self.rows: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.shadow: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.ops: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------ install

    def install(self) -> "Probe":
        if self._saved:
            raise RuntimeError("probe already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self) -> None:
        functions: dict[int, tuple[Any, Any]] = {}
        packages: set[str] = set()
        for target in self.targets:
            modname, _, clsname = target.owner.partition(":")
            packages.add(modname.split(".")[0])
            module = importlib.import_module(modname)
            if not clsname:
                original = getattr(module, target.attr)
                functions[id(original)] = (original, self._wrap(original, target))
                continue
            for cls in _class_tree(getattr(module, clsname)):
                original = vars(cls).get(target.attr)
                if original is None:
                    continue
                if not inspect.isfunction(original):
                    raise TypeError(f"{cls.__qualname__}.{target.attr} is not a plain method")
                self._rebind(cls, target.attr, original, self._wrap(original, target))
        # One pass over the program's loaded modules rebinds every copy.
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] not in packages:
                continue
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, value, hit[1])

    def _rebind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original; raises if any location still differs."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in saved
            if vars(owner).get(attr) is not original
        ]
        if wrong:
            raise RuntimeError(f"probe left wrappers in place: {wrong}")

    @contextlib.contextmanager
    def installed_for(self) -> Iterator["Probe"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -------------------------------------------------------------- wrappers

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        probe = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def scoped(*args, **kwargs):
                token = _TASK_SCOPE.set(target.scope)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    _TASK_SCOPE.reset(token)

            return scoped

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot = probe.slot
            if slot is None:
                return fn(*args, **kwargs)
            if target.row is None and target.scope is None:
                result = fn(*args, **kwargs)
            else:
                stack = probe._stack()
                frame = [target, time.perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - frame[1]
                    stack.pop()
                    if stack:
                        stack[-1][2] += elapsed
                    if target.row is not None:
                        probe._record(slot, target.row, elapsed - frame[2], stack)
            if target.grad and callable(getattr(result, "_backward", None)):
                result._backward = probe._wrap(
                    result._backward, dataclasses.replace(target, grad=False, hook=None)
                )
            if target.hook is not None:
                target.hook(probe, slot, args, result)
            return result

        return timed

    def _record(self, slot: str, row: str, self_s: float, stack: list[list]) -> None:
        scopes = [f[0].scope for f in stack if f[0].scope]
        task_scope = _TASK_SCOPE.get()
        if task_scope:
            scopes.append(task_scope)
        charged = DEFAULT_ROWS.get(row, row)
        shadow = None
        for scope in scopes:
            charged = SCOPED_ROWS.get((row, scope), charged)
            shadow = SHADOW_ROWS.get((row, scope), shadow)
        with self._lock:
            self.rows[slot][charged] += self_s
            if shadow is not None:
                self.shadow[slot][shadow] += self_s

    # ------------------------------------------------------------------- ops

    def add(self, slot: str, counter: str, value: float) -> None:
        with self._lock:
            self.counts[slot][counter] += value

    @contextlib.contextmanager
    def op(self, slot: str) -> Iterator[Op]:
        """Time one operation and charge wrapped calls made during it to ``slot``."""
        before = self._snapshot() if self._snapshot else {}
        handle = Op()
        self.slot = slot
        t0 = time.perf_counter()
        try:
            yield handle
        finally:
            handle.seconds = time.perf_counter() - t0
            self.slot = None
            after = self._snapshot() if self._snapshot else {}
            with self._lock:
                self.ops[slot].append(handle.seconds)
                for key, value in after.items():
                    self.counts[slot][key] += value - before.get(key, 0.0)

    def layer_ms(self, slot: str) -> dict[str, float]:
        """Per-op mean milliseconds of each self-time row, plus ``op`` (the
        mean op time) and ``unattributed`` (``op`` minus the rows' sum)."""
        n = len(self.ops[slot])
        if not n:
            return {"op": 0.0, "unattributed": 0.0}
        table = {row: s * 1e3 / n for row, s in self.rows[slot].items()}
        op_ms = sum(self.ops[slot]) * 1e3 / n
        table["unattributed"] = op_ms - sum(table.values())
        table["op"] = op_ms
        return table

    def shadow_ms(self, slot: str) -> dict[str, float]:
        n = len(self.ops[slot])
        return {row: s * 1e3 / n for row, s in self.shadow[slot].items()} if n else {}
