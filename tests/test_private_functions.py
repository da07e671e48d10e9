"""Source lint: every private function of the package has a caller in it.

Every module of the package is parsed with ``ast``.  A module-level
function whose name starts with ``_`` must be referenced, by name or as an
attribute, somewhere in the package outside its own definition.  A builder
that only the tests use belongs with the tests (see tests/ed_reference.py).
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xxzfidelity"


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in paths}


def _references(tree, skip) -> set:
    """Every name and attribute that tree mentions outside the node skip."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_every_private_function_has_a_caller():
    modules = _modules()
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not any(node.name in _references(other, skip=node)
                                for other in modules.values())):
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert unreferenced == []
