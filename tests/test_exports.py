"""Every exported name has a caller inside the package."""

import ast
from pathlib import Path

import subpot

PACKAGE = Path(subpot.__file__).parent


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced_names():
    """Names loaded anywhere outside __init__.py, except inside their own definition."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = _defined_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


def test_every_export_has_a_caller_in_the_package():
    unused = sorted(set(subpot.__all__) - _referenced_names())
    assert unused == []
