"""The package exports only what the pipeline itself calls: every name in
eaqmds.__all__ resolves, and each one is referenced somewhere in the
package other than its own def or class (the package __init__, which only
re-exports, does not count)."""

import ast
from pathlib import Path

import eaqmds

SRC = Path(eaqmds.__file__).parent


def _references_outside_own_definition():
    """Names and attribute names used in each top-level statement of each
    module, except inside the def or class that defines that name."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_exports_resolve():
    for name in eaqmds.__all__:
        assert getattr(eaqmds, name) is not None, name


def test_exports_are_used_by_the_package():
    used = _references_outside_own_definition()
    unused = [name for name in eaqmds.__all__ if name not in used]
    assert unused == []
