"""Nothing under ``src/`` exists only for its own tests.

Two AST scans.  The first lists every top-level function and class and
every public method under ``src/repro`` and looks for a reference to its
name in the product code: ``src/``, ``scripts/``, ``e2ebench/`` and
``examples/``.  A name referenced only by its own
definition (and by ``tests/``, which the scan does not read) is an
orphan.  Package
re-exports (``from x import name`` and ``__all__``) are not references,
and top-level dunders (a module ``__getattr__``) are the interpreter's
to call, so they are not scanned.  Methods are matched by attribute
name alone, so the scan misses an orphan whose name some other attribute
shares; a name looked up only as a string (the benchmark probe's hooks)
is flagged and must be allowed.

The second lists every parameter with a default (keyword-only, or
positional-or-keyword) of a function under ``src/repro`` and looks for
a call in the product code that passes it, by keyword or by position.
One that no call passes is a knob with a single value in use: make it
that value.  A function forwarding its own defaulted parameter under the
same name (``f(x=x)`` or ``f(x)`` inside a function taking ``x=...``)
passes it only if some call passes that parameter in turn.  The scan
matches by name too: a keyword counts wherever some call passes that
name (``device=``), and a positional argument wherever some call to a
function of that name (``obj.m(...)`` for any ``m``, ``Cls(...)`` for
``Cls.__init__``) reaches its position.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCT_DIRS = ("src", "scripts", "e2ebench", "examples")

#: names kept although no product code refers to them, each with its reason
ALLOWED = {
    "ServeClient.ready": "client call for the server's ready verb that README documents",
    "encode_array": "e2ebench/layers.py hooks it by name (wire.encode row)",
}


def _definitions(path: Path, tree: ast.Module) -> list[tuple[str, ast.AST]]:
    defs: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [
                (f"{node.name}.{m.name}", m)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not m.name.startswith("_")
            ]
    return defs


def find_orphans(src_files: list[Path], product_files: list[Path]) -> set[str]:
    """Names defined in ``src_files`` that no ``product_files`` code refers to."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    trees = {path: ast.parse(path.read_text(), str(path)) for path in product_files}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    orphans = set()
    for path in src_files:
        for name, node in _definitions(path, trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            uses = [
                (p, line) for p, line in refs.get(name.rsplit(".", 1)[-1], [])
                if not (p == path and line in own)
            ]
            if not uses:
                orphans.add(name)
    return orphans


#: parameters with defaults kept although no product call passes them
ALLOWED_KNOBS = {
    "faults.FaultInjector.__init__(max_burst=)": "bounds the fault model's bursts",
    "validation.validate_graph(require_sorted=)":
        "input check: ordering is fatal only on request",
    "breaker.CircuitBreaker.__init__(clock=)": "lets a test substitute a fake clock",
    "atomics.conflict_degree(window=)":
        "the oracle test sweeps small windows to reach window edges on small inputs",
    "plancache.PlanCache.__init__(capacity=)": "tests shrink it to reach LRU eviction",
    "protocol.write_frame(attachment=)":
        "tests write raw request frames with array attachments",
    "binning.build_degree_bins(boundaries=)":
        "tests check the degree classes at given boundaries and refuse unsorted ones",
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted(args: ast.arguments) -> list[ast.arg]:
    """The parameters a caller may leave out: trailing positional ones
    with defaults, then keyword-only ones."""
    positional = args.posonlyargs + args.args
    return positional[len(positional) - len(args.defaults):] + args.kwonlyargs


def find_unset_knobs(src_files: list[Path], product_files: list[Path]) -> set[str]:
    """``"module.Owner.func(name=)"`` for each parameter with a default
    defined in ``src_files`` (keyword-only, or positional-or-keyword)
    that no call in ``product_files`` passes, by keyword or by position.

    A function forwarding its own defaulted parameter under the same
    name passes it only if a call passes that parameter in turn.
    """
    trees = {path: ast.parse(path.read_text(), str(path)) for path in product_files}
    #: (path, line, source) per keyword argument, by name; the source is
    #: the caller's ``(def key, parameter)`` when forwarded, else None
    keywords: dict[str, list[tuple[Path, int, tuple | None]]] = {}
    #: (path, line, positional args, caller key, caller's defaulted names) by callee
    calls: dict[str, list[tuple[Path, int, list[ast.expr], tuple, set[str]]]] = {}

    def visit(path: Path, node: ast.AST, key: tuple, defaulted: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            key = (path, node.lineno, node.col_offset)
            defaulted = {a.arg for a in _defaulted(node.args)}
        if isinstance(node, ast.keyword) and node.arg is not None:
            value = node.value
            forwarded = (isinstance(value, ast.Name) and value.id == node.arg
                         and node.arg in defaulted)
            keywords.setdefault(node.arg, []).append(
                (path, node.lineno, (key, node.arg) if forwarded else None)
            )
        if isinstance(node, ast.Call) and (name := _callee(node)) is not None:
            calls.setdefault(name, []).append(
                (path, node.lineno, node.args, key, defaulted)
            )
        for child in ast.iter_child_nodes(node):
            visit(path, child, key, defaulted)

    for path, tree in trees.items():
        visit(path, tree, (), set())

    def positional_source(args, i: int, name: str, key, defaulted) -> object:
        """How a call's positional args reach index ``i``: ``None`` directly,
        the caller's ``(key, name)`` when forwarded, ``False`` not at all."""
        if any(isinstance(a, ast.Starred) for a in args[: i + 1]):
            return None  # *args may reach any position
        if len(args) <= i:
            return False
        arg = args[i]
        if isinstance(arg, ast.Name) and arg.id == name and name in defaulted:
            return (key, name)
        return None

    #: (def key, parameter) -> (label or None outside src, sources that pass it)
    knobs: dict[tuple, tuple[str | None, list]] = {}
    src = set(src_files)
    for path, tree in trees.items():
        for owner in ast.walk(tree):
            for node in ast.iter_child_nodes(owner):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                key = (path, node.lineno, node.col_offset)
                in_class = isinstance(owner, ast.ClassDef)
                prefix = path.stem + "." + (owner.name + "." if in_class else "")
                is_init = in_class and node.name == "__init__"
                callee = owner.name if is_init else node.name
                positional = node.args.posonlyargs + node.args.args
                if in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                ):
                    positional = positional[1:]  # self / cls
                own = range(node.lineno, node.end_lineno + 1)
                for arg in _defaulted(node.args):
                    sources = [
                        by for p, line, by in keywords.get(arg.arg, [])
                        if not (p == path and line in own)
                    ]
                    if arg in positional:
                        i = positional.index(arg)
                        sources += [
                            by for p, line, args, k, dflt in calls.get(callee, [])
                            if not (p == path and line in own)
                            and (by := positional_source(args, i, arg.arg, k, dflt))
                            is not False
                        ]
                    label = f"{prefix}{node.name}({arg.arg}=)" if path in src else None
                    knobs[(key, arg.arg)] = (label, sources)

    passed: set[tuple] = set()
    changed = True
    while changed:
        changed = False
        for knob, (_, sources) in knobs.items():
            if knob not in passed and any(
                by is None or by in passed or by not in knobs for by in sources
            ):
                passed.add(knob)
                changed = True
    return {label for knob, (label, _) in knobs.items()
            if label is not None and knob not in passed}


def _product_files() -> list[Path]:
    return sorted(p for d in PRODUCT_DIRS for p in (ROOT / d).rglob("*.py"))


def _src_files() -> list[Path]:
    return sorted((ROOT / "src").rglob("*.py"))


def test_every_definition_has_a_product_reference():
    orphans = find_orphans(_src_files(), _product_files())
    assert orphans - set(ALLOWED) == set(), (
        "defined under src/ but referenced only by tests; delete it, move a "
        "test oracle into tests/, or allow it with a reason"
    )
    assert set(ALLOWED) <= orphans, "allowlist entries now referenced or gone"


def test_a_planted_orphan_is_found(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def planted_function():\n"
        "    return planted_function\n"  # a self-reference does not count
        "\n\n"
        "class Planted:\n"
        "    def planted_method(self):\n"
        "        return 1\n"
        "\n"
        "    def _private(self):\n"
        "        return 2\n"
    )
    orphans = find_orphans(_src_files() + [planted], _product_files() + [planted])
    assert orphans - set(ALLOWED) == {"planted_function", "Planted", "Planted.planted_method"}


def test_every_keyword_only_parameter_is_passed_by_a_product_call():
    unset = find_unset_knobs(_src_files(), _product_files())
    assert unset - set(ALLOWED_KNOBS) == set(), (
        "parameter with a default that no product call passes; make it the "
        "one value in use, or allow it with a reason"
    )
    assert set(ALLOWED_KNOBS) <= unset, "knob allowlist entries now passed or gone"


def test_a_planted_knob_is_found(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        # device= counts as set: other product calls pass that name
        "def planted(x, *, planted_knob=1, device=None):\n"
        "    return planted(x, planted_knob=2)\n"  # a self-call does not count
        "\n\n"
        "class Planted:\n"
        "    def method(self, *, planted_method_knob=0):\n"
        "        return planted_method_knob\n"
        "\n\n"
        "def inner(*, forwarded_knob=0):\n"
        "    return forwarded_knob\n"
        "\n\n"
        "def outer(*, forwarded_knob=0):\n"  # forwarding is not a pass
        "    return inner(forwarded_knob=forwarded_knob)\n"
        "\n\n"
        # positional-or-keyword: only a call reaching the position sets it
        "def positional(x, planted_pos_set=1, planted_pos_knob=2):\n"
        "    return x\n"
        "\n\n"
        "positional(1, 2)\n"
        "\n\n"
        "class PlantedInit:\n"
        "    def __init__(self, planted_init_set=0, planted_init_knob=0):\n"
        "        pass\n"
        "\n\n"
        "PlantedInit(1)\n"  # self is not a position
        "\n\n"
        "def pos_inner(a, pos_forwarded=0):\n"
        "    return a\n"
        "\n\n"
        "def pos_outer(a, pos_forwarded=0):\n"  # a forwarded knob nobody sets
        "    return pos_inner(a, pos_forwarded)\n"
        "\n\n"
        "def pos_relay(a, relayed=0):\n"
        "    return pos_sink(a, relayed)\n"
        "\n\n"
        "def pos_sink(a, relayed=0):\n"  # reached through a relay a call sets
        "    return a\n"
        "\n\n"
        "pos_relay(1, 5)\n"
    )
    unset = find_unset_knobs(_src_files() + [planted], _product_files() + [planted])
    assert unset - set(ALLOWED_KNOBS) == {
        "planted.planted(planted_knob=)",
        "planted.Planted.method(planted_method_knob=)",
        "planted.inner(forwarded_knob=)",
        "planted.outer(forwarded_knob=)",
        "planted.positional(planted_pos_knob=)",
        "planted.PlantedInit.__init__(planted_init_knob=)",
        "planted.pos_inner(pos_forwarded=)",
        "planted.pos_outer(pos_forwarded=)",
    }
