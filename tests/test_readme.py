"""The README's Quick start runs, and prints the numbers its comments show.

A statement's expected output is its inline ``# ...`` comment, or the
comment line right after it; a statement that prints nothing, or carries
no such comment, is only run.
"""
import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
# the printed decimals of one double agree to ~1e-16; 1e-14 still catches
# a value that drifted since the README was written
REL_TOL = 1e-14


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _expected(lines: list[str], stmt: ast.stmt) -> str | None:
    """The comment that shows what stmt prints, if any."""
    inline = lines[stmt.end_lineno - 1].partition("#")[2]
    if inline:
        return inline.strip()
    after = lines[stmt.end_lineno].strip() if stmt.end_lineno < len(lines) else ""
    return after[1:].strip() if after.startswith("#") else None


def _agrees(printed: str, expected: str) -> bool:
    words, want = printed.split(), expected.split()
    if len(words) != len(want):
        return False
    for word, target in zip(words, want):
        try:
            value, target_value = float(word), float(target)
        except ValueError:
            if word != target:
                return False
        else:
            if value != pytest.approx(target_value, rel=REL_TOL, abs=0.0):
                return False
    return True


def test_quick_start_prints_its_comments():
    code = _quick_start()
    lines = code.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(code).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
        expected = _expected(lines, stmt)
        if out.getvalue() and expected is not None:
            assert _agrees(out.getvalue(), expected), (
                f"README line {stmt.lineno}: printed {out.getvalue()!r}, "
                f"the comment shows {expected!r}")
            checked += 1
    assert checked == 3
