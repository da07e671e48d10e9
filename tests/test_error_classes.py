"""Source lint: one exception class per failure kind, and nothing else raised.

Every module of the package is parsed with ``ast``.  A ``raise`` must name
one of the four failure kinds or re-raise the active exception; errors.py
must define exactly the base class plus those four, all exported.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xxzfidelity"
KINDS = {"InvalidSpec", "NonConvergent", "Overflow", "SizeLimit"}


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in paths}


def _raised_name(node: ast.Raise):
    """The class a raise statement names, or None for a bare re-raise."""
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_every_raise_names_a_failure_kind():
    offenders = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                raised = _raised_name(node)
                if raised is not None and raised not in KINDS:
                    offenders.append(f"{name}:{node.lineno} raises {raised}")
    assert offenders == []


def test_errors_module_defines_exactly_the_five_classes():
    tree = _modules()["errors.py"]
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == sorted(KINDS | {"XXZFidelityError"})
    exported = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"]]
    assert len(exported) == 1
    assert sorted(ast.literal_eval(exported[0])) == sorted(classes)
