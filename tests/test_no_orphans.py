"""Nothing under ``src/`` exists only for its own tests.

Two AST scans.  The first lists every top-level function and class and
every public method under ``src/repro`` and looks for a reference to its
name in the product code: ``src/``, ``scripts/``, ``e2ebench/``,
``examples/`` and ``benchmarks/``.  A name referenced only by its own
definition (and by ``tests/``, which the scan does not read) is an
orphan.  Package
re-exports (``from x import name`` and ``__all__``) are not references,
and top-level dunders (a module ``__getattr__``) are the interpreter's
to call, so they are not scanned.  Methods are matched by attribute
name alone, so the scan misses an orphan whose name some other attribute
shares; a name looked up only as a string (the benchmark probe's hooks)
is flagged and must be allowed.

The second lists every keyword-only parameter of a function under
``src/repro`` and looks for a call in the product code that passes it
by keyword.  One that no call passes is a knob with a single value in
use: make it that value.  A wrapper forwarding its own parameter under
the same name (``f(x=x)`` inside a function taking ``x``) does not count
as a pass.  The scan matches by name too, so a knob that some other call
passes under the same name (``device=``) counts as set.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCT_DIRS = ("src", "scripts", "e2ebench", "examples", "benchmarks")

#: names kept although no product code refers to them, each with its reason
ALLOWED = {
    "read_trace": "public obs API that README documents (strict trace reader)",
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


#: keyword-only parameters kept although no product call passes them
ALLOWED_KNOBS = {
    "faults.FaultInjector.__init__(max_burst=)": "bounds the fault model's bursts",
    "validation.validate_graph(require_sorted=)":
        "input check: ordering is fatal only on request",
    "breaker.CircuitBreaker.__init__(clock=)": "lets a test substitute a fake clock",
}


def find_unset_knobs(src_files: list[Path], product_files: list[Path]) -> set[str]:
    """``"module.Owner.func(name=)"`` for each keyword-only parameter
    defined in ``src_files`` that no call in ``product_files`` passes by
    keyword."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in product_files}
    passed: dict[str, list[tuple[Path, int]]] = {}

    def visit(path: Path, node: ast.AST, params: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.keyword) and node.arg is not None:
            value = node.value
            forwarded = isinstance(value, ast.Name) and value.id == node.arg
            if not (forwarded and node.arg in params):
                passed.setdefault(node.arg, []).append((path, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(path, child, params)

    for path, tree in trees.items():
        visit(path, tree, set())
    unset = set()
    for path in src_files:
        for owner in ast.walk(trees[path]):
            for node in ast.iter_child_nodes(owner):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                prefix = path.stem + "."
                if isinstance(owner, ast.ClassDef):
                    prefix += owner.name + "."
                own = range(node.lineno, node.end_lineno + 1)
                for arg in node.args.kwonlyargs:
                    uses = [
                        (p, line) for p, line in passed.get(arg.arg, [])
                        if not (p == path and line in own)
                    ]
                    if not uses:
                        unset.add(f"{prefix}{node.name}({arg.arg}=)")
    return unset


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
        "keyword-only parameter that no product call passes; make it the "
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
    )
    unset = find_unset_knobs(_src_files() + [planted], _product_files() + [planted])
    assert unset - set(ALLOWED_KNOBS) == {
        "planted.planted(planted_knob=)",
        "planted.Planted.method(planted_method_knob=)",
        "planted.inner(forwarded_knob=)",
        "planted.outer(forwarded_knob=)",
    }
