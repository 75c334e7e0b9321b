"""Nothing under ``src/`` exists only for its own tests.

An AST scan lists every top-level function and class and every public
method under ``src/repro`` and looks for a reference to its name in the
product code: ``src/``, ``scripts/``, ``e2ebench/``, ``examples/`` and
``benchmarks/``.  A name referenced only by its own definition (and by
``tests/``, which the scan does not read) is an orphan.  Package
re-exports (``from x import name`` and ``__all__``) are not references,
and top-level dunders (a module ``__getattr__``) are the interpreter's
to call, so they are not scanned.  Methods are matched by attribute
name alone, so the scan misses an orphan whose name some other attribute
shares; a name looked up only as a string (the benchmark probe's hooks)
is flagged and must be allowed.
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
