"""Importing the package, point calls, `eval` and a linear `scan` load no
numpy and no scipy; `fit`, `identities` and a log-spaced `scan` load numpy
but no scipy; `ed` loads both, but not scipy.sparse.linalg.  The package
exports exactly what it imports, and keeps exporting what the benchmark
uses."""
import importlib
import inspect
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


#: runs in a fresh interpreter: imports the package, evaluates one point,
#: then runs each command of sys.argv[1] (a JSON list of argv lists) and
#: prints the numpy and scipy modules loaded after each step
_TRACE_LOADS = (
    "import json, sys\n"
    "def loaded_now():\n"
    "    return {p: sorted(m for m in sys.modules if m.startswith(p))\n"
    "            for p in ('numpy', 'scipy')}\n"
    "import xxzfidelity\n"
    "steps = [['import', 0, loaded_now()]]\n"
    "xxzfidelity.evaluate_point(xxzfidelity.ModelPoint.from_x(0.3))\n"
    "steps.append(['evaluate_point', 0, loaded_now()])\n"
    "from xxzfidelity.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    code = main(argv)\n"
    "    steps.append([' '.join(argv), code, loaded_now()])\n"
    "print(json.dumps(steps))\n")


def _trace_loads(*commands: list[str]) -> list:
    done = _fresh_python("-c", _TRACE_LOADS, json.dumps(commands))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_points_and_commands_load_no_scipy(tmp_path):
    # numpy is imported where arrays are built and scipy where a finite
    # chain is built or solved, so the import, point evaluations, eval and
    # a linear scan load neither, and no command but ed loads scipy
    out = ["--output", str(tmp_path / "report")]
    steps = _trace_loads(["eval", "--x", "0.5", *out],
                         ["eval", "--eps", "0.01", *out],
                         ["scan", "--min", "0.1", "--max", "0.9",
                          "--count", "5", *out])
    assert len(steps) == 5
    for name, code, loaded in steps:
        assert code == 0, name
        assert loaded == {"numpy": [], "scipy": []}, name
    # each in its own interpreter, so each shows that it loads numpy itself
    for argv in (["fit", "--eps-min", "1e-3", "--eps-max", "1e-2"],
                 ["identities"],
                 ["scan", "--min", "0.1", "--max", "0.9", "--count", "5",
                  "--spacing", "log"]):
        name, code, loaded = _trace_loads([*argv, *out])[-1]
        assert code == 0, name
        assert "numpy" in loaded["numpy"], name
        assert loaded["scipy"] == [], name


def test_a_chain_is_specified_without_numpy():
    # the spec checks L and x by comparisons alone, so neither a valid
    # chain nor an oversized one loads numpy
    done = _fresh_python("-c", (
        "import sys\n"
        "from xxzfidelity import SizeLimit, SpinChainSpec\n"
        "SpinChainSpec(8, 0.3)\n"
        "try:\n"
        "    SpinChainSpec(26, 0.3)\n"
        "except SizeLimit:\n"
        "    print('numpy' in sys.modules)\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


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


def test_ed_command_loads_no_arpack(tmp_path):
    # the finite chain is built with scipy.sparse and solved by scipy.linalg
    # (dense) or the package's own Lanczos, never by scipy.sparse.linalg
    name, code, loaded = _trace_loads(["ed", "--x", "0.2", "--Ls", "8,12",
                                       "--output", str(tmp_path / "rows")])[-1]
    assert code == 0, name
    assert {"scipy.sparse", "scipy.linalg"} <= set(loaded["scipy"])
    assert [m for m in loaded["scipy"]
            if m.startswith("scipy.sparse.linalg")] == []


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


#: module-level functions that perfbench/tracing.py names as spans and
#: perfbench/workloads.py calls; a missing one breaks only a traced run
_BENCHMARK_FUNCTIONS = {
    "qseries": ("log_multibase_product", "qproduct_direct"),
    "fidelity": ("fidelity", "fidelity_simplified", "fidelity_modular",
                 "fidelity_raw", "ln_g_series"),
    "elliptic": ("log_correlation_length",),
    "scaling": ("fit_asymptote", "collect_minus_ln_f", "collect_ln_xi"),
    "ed_oracle": ("sector_basis", "ground_state", "build_hamiltonian",
                  "split_product_state", "bipartite_fidelity_finite"),
    "cli": ("main",),
}


def test_benchmark_names_stay_exported():
    # perfbench/workloads.py, freeze_ed.py and test_perfbench.py reach these
    # through the package namespace
    for name in ("ModelPoint", "fidelity", "log_correlation_length",
                 "convergence_study", "ln_g_series", "NonConvergent",
                 "log_multibase_product", "bipartite_fidelity_finite"):
        assert name in xxzfidelity.__all__, name
    # the tracer wraps each span's function where its own module defines it
    for short, names in _BENCHMARK_FUNCTIONS.items():
        module = importlib.import_module(f"xxzfidelity.{short}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{short}.{name}"
            assert fn.__module__ == module.__name__, f"{short}.{name}"
    assert hasattr(importlib.import_module("xxzfidelity.ed_oracle"),
                   "DENSE_DIM_LIMIT")
    assert hasattr(importlib.import_module("xxzfidelity.cli"), "POINT_COLUMNS")


def test_ed_spans_stay_on_the_f_L_path(monkeypatch):
    # the ED stages keep public names only for the tracer's spans, so each
    # must still be called when f_L is computed from a cold cache, or its
    # span reads zero
    from xxzfidelity import ed_oracle
    called = []
    for name in _BENCHMARK_FUNCTIONS["ed_oracle"]:
        def counting(*args, _name=name, _fn=getattr(ed_oracle, name)):
            called.append(_name)
            return _fn(*args)
        monkeypatch.setattr(ed_oracle, name, counting)
    ed_oracle._even_block.cache_clear()
    ed_oracle._half_pattern.cache_clear()
    ed_oracle.bipartite_fidelity_finite(8, 0.3)
    assert set(called) == set(_BENCHMARK_FUNCTIONS["ed_oracle"])
