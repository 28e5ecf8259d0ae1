"""The package exports only what the pipeline itself calls: every name in
eaqmds.__all__ resolves, and each one, like every public top-level
function and public method, is referenced somewhere in the package other
than its own def or class (the package __init__, which only re-exports,
does not count).  The only exceptions are the two dual-containment
oracles of verify.py, which the tests run against each other.  Outside
the family table, cosets.py, no code branches on a family's name."""

import ast
from pathlib import Path

import eaqmds

SRC = Path(eaqmds.__file__).parent
ORACLES = {"verify.is_hermitian_dual_containing",
           "verify.dual_containment_matrix_oracle"}


def _modules():
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _references_outside_own_definition():
    """Names and attribute names used in each module, except inside the
    def or class that defines that name."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for _, tree in _modules():
        visit(tree, frozenset())
    return used


def _public_functions():
    """module.name of each public top-level function and
    module.Class.name of each public method."""
    for module, tree in _modules():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                yield f"{module}.{stmt.name}", stmt.name
            elif isinstance(stmt, ast.ClassDef):
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef):
                        yield f"{module}.{stmt.name}.{node.name}", node.name


def test_exports_resolve():
    for name in eaqmds.__all__:
        assert getattr(eaqmds, name) is not None, name


def test_exports_are_used_by_the_package():
    used = _references_outside_own_definition()
    unused = [name for name in eaqmds.__all__ if name not in used]
    assert unused == []


def test_public_functions_are_used_by_the_package():
    used = _references_outside_own_definition()
    unused = [where for where, name in _public_functions()
              if not name.startswith("_") and name not in used
              and where not in ORACLES]
    assert unused == []


def _family_branches():
    """module:line of each comparison with a family-name literal, or a
    tuple, list or set of them, and of each dict keyed by one, outside
    cosets.py."""
    names = {"i", "ii", "iii", "iv", "v"}

    def family_literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(family_literal(item) for item in node.elts)
        return isinstance(node, ast.Constant) and node.value in names

    for module, tree in _modules():
        if module == "cosets":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                found = any(map(family_literal,
                                [node.left, *node.comparators]))
            elif isinstance(node, ast.Dict):
                found = any(map(family_literal, filter(None, node.keys)))
            else:
                found = False
            if found:
                yield f"{module}:{node.lineno}"


def test_no_family_branches_outside_the_family_table():
    """The facts of each family live in one place, the rows of
    cosets.group: no other module branches on a family's name or keys a
    dict by it."""
    assert list(_family_branches()) == []
