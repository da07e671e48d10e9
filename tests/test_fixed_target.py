"""Source lint: every truncated evaluation stops at the one module constant
qseries.REL_TOL, and no function takes a per-call tolerance.

Every module of the package is parsed with ``ast``.  No parameter may be
named ``tol`` or ``rel_tol``, and none of the retired names of the old
tolerance object may be defined again.
"""
import ast
from pathlib import Path

import xxzfidelity
from xxzfidelity import qseries

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xxzfidelity"
KNOB_PARAMETERS = {"tol", "rel_tol"}
RETIRED_NAMES = {"Tolerance", "DEFAULT_TOL", "DEFAULT_REL_TOL", "_MIN_REL_TOL"}


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in paths}


def _defined_names(node):
    """Names a definition, assignment or import binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name for alias in node.names]
    return []


def test_no_function_takes_a_tolerance():
    offenders = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg in KNOB_PARAMETERS:
                offenders.append(f"{name}:{node.lineno} takes {node.arg}")
    assert offenders == []


def test_no_tolerance_object_is_defined():
    offenders = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            for bound in _defined_names(node):
                if bound in RETIRED_NAMES:
                    offenders.append(f"{name}:{node.lineno} defines {bound}")
    assert offenders == []


def test_one_target_and_27_exports():
    assert qseries.REL_TOL == 1e-12
    assert len(xxzfidelity.__all__) == 27
