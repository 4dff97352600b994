"""The package holds only code the package runs.

Every top-level binding of a module in `src/busycheck` (a def, a class, an
assignment or an imported name) must be used by package code outside its
own definition: loaded by name in its module, read as an attribute of that
name anywhere in the package, or imported by name from its module into
another.  `__init__.py` is neither checked nor counted, since its names are
re-exports.  References that only the tests use live in `tests/reference.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "busycheck"

# Names kept in the package for perfbench/tracing.py, which wraps each one
# where it stands; nothing in the package calls them.
EXEMPT = {
    "cli.explore": "the tracer wraps it to count explored states under `cli`",
    "harness.explore": "the tracer wraps it to count explored states under `harness`",
    "proofs.parse": "the tracer wraps it to count parsed atoms under `proofs`",
    "proofs.view_shift_status": "the tracer wraps it as `assertions.view_shift`",
}


def _bound(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = (n for t in targets for n in ast.walk(t))
        return [n.id for n in names if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    return []


def _loads(node: ast.AST) -> set[str]:
    """Names loaded and attribute names read anywhere under `node`."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    return used


def unused_bindings() -> list[str]:
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    nodes = [n for tree in modules.values() for n in ast.walk(tree)]
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    # (module, name) of each `from .module import name`
    imported = {
        (n.module, a.name) for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names
    }
    unused = []
    for module, tree in modules.items():
        loads = [_loads(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            elsewhere = set().union(*loads[:i], *loads[i + 1 :])
            for name in _bound(stmt):
                if name in elsewhere or name in attributes or (module, name) in imported:
                    continue
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_in_src_has_a_caller_in_src():
    unused = [name for name in unused_bindings() if name not in EXEMPT]
    assert not unused, "bound in src/busycheck but used only outside it: " + ", ".join(unused)


def test_every_exemption_is_still_bound_and_still_unused():
    assert set(EXEMPT) <= set(unused_bindings())
