"""No relative check under tests/ hides pytest.approx's absolute bound.

pytest.approx(v, rel=r) also accepts anything within its default abs=1e-12,
so rel=1e-15 on an O(1) value checks only 1e-12, and rel=5e-12 on 0.1
checks 1e-11.  Every approx that names rel therefore names abs as well.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _implicit_abs_calls(source: str) -> list[int]:
    """Lines of pytest.approx calls that name rel and not abs."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "approx"
                or isinstance(func, ast.Name) and func.id == "approx"):
            continue
        named = {keyword.arg for keyword in node.keywords}
        if "rel" in named and "abs" not in named:
            lines.append(node.lineno)
    return lines


def test_every_relative_approx_names_its_abs():
    found = {}
    for path in sorted(TESTS.glob("*.py")):
        lines = _implicit_abs_calls(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_the_scan_sees_each_spelling():
    flagged = ("pytest.approx(x, rel=1e-15)", "approx(x, rel=0.05)",
               "pytest.approx(x, rel=budget)",
               "pytest.approx(\n    x,\n    rel=5e-13)")
    allowed = ("pytest.approx(x, rel=1e-15, abs=0)", "pytest.approx(x)",
               "pytest.approx(x, abs=1e-15)", "math.isclose(x, y, rel_tol=0.1)")
    for source in flagged:
        assert _implicit_abs_calls(source) == [1], source
    for source in allowed:
        assert _implicit_abs_calls(source) == [], source
