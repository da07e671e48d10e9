"""Importing the package loads no scipy, exports exactly what it imports,
and keeps exporting what the benchmark uses."""
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import xxzfidelity
from xxzfidelity import convergence_study

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports the package from src/, so no module
    the test session has already loaded (scipy among them) is present."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_points_and_commands_load_no_scipy(tmp_path):
    # scipy is imported where a finite chain is built or solved, so the
    # import, point evaluations and every command but ed never load it
    output = str(tmp_path / "report")
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import xxzfidelity\n"
        "loaded = {'import': scipy_modules()}\n"
        "xxzfidelity.evaluate_point(xxzfidelity.ModelPoint.from_x(0.3))\n"
        "loaded['evaluate_point'] = scipy_modules()\n"
        "from xxzfidelity.cli import main\n"
        "for argv in (['eval', '--x', '0.5'],\n"
        "             ['scan', '--min', '0.1', '--max', '0.9', '--count', '5'],\n"
        "             ['fit', '--eps-min', '1e-3', '--eps-max', '1e-2'],\n"
        "             ['identities']):\n"
        f"    code = main([*argv, '--output', {output!r}])\n"
        "    loaded[argv[0]] = [code, scipy_modules()]\n"
        "print(json.dumps(loaded))\n")
    done = _fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["import"] == []
    assert loaded["evaluate_point"] == []
    for command in ("eval", "scan", "fit", "identities"):
        assert loaded[command] == [0, []], command


def test_ed_command_imports_scipy_where_it_solves():
    # every in-process test runs with scipy already loaded, so only a fresh
    # interpreter sees a missing local import
    done = _fresh_python("-m", "xxzfidelity", "ed", "--x", "0.2",
                         "--Ls", "8,12")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rows = json.loads(done.stdout)
    assert [row["f_finite"] for row in rows] == [
        row.f_finite for row in convergence_study([8, 12], 0.2)]


def test_all_lists_exactly_the_public_imports():
    # a name left in __all__ after its import is gone breaks only
    # `from xxzfidelity import *`, which nothing else exercises
    exported = xxzfidelity.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(xxzfidelity, name) for name in exported)
    public = {name for name, value in vars(xxzfidelity).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(exported) == public


def test_benchmark_names_stay_exported():
    # perfbench/workloads.py, freeze_ed.py and test_perfbench.py reach these
    # through the package namespace
    for name in ("ModelPoint", "fidelity", "log_correlation_length",
                 "convergence_study", "ln_g_series", "NonConvergent",
                 "log_multibase_product", "bipartite_fidelity_finite"):
        assert name in xxzfidelity.__all__, name
