"""The library carries no code that only its own tests reach.

Two checks over the syntax trees of ``src/emrings``: every name a module
imports is used in that module, and every top-level function or class is
referenced somewhere in the package outside its own definition.  Names are
matched by identifier (a ``Name`` or an attribute), which is enough for a
package without dynamic lookups.  Exempt from the second check: what
``emrings/__init__.py`` exports (the public API), what the benchmark's
tracer looks up by name (``TRACED`` in ``perfbench/spans.py``), and
``poly_mul``, the reference product the tests compare against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emrings"
REFERENCES = {"poly_mul"}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _identifiers(node: ast.AST) -> Counter:
    """How often each Name id and attribute name occurs under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _traced() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {fn for fns in ast.literal_eval(node.value).values() for fn in fns}
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue  # its imports are the package's exports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            unused += [f"{name}.{b}" for b in bound if b not in used]
    assert unused == []


def test_every_definition_is_referenced_in_the_package():
    modules = _modules()
    exports = {
        alias.asname or alias.name
        for node in modules["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    keep = exports | _traced() | REFERENCES
    everywhere = sum((_identifiers(tree) for tree in modules.values()), Counter())
    unreferenced = [
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in keep
        and everywhere[node.name] == _identifiers(node)[node.name]
    ]
    assert unreferenced == []
