"""Importing the package loads no eigensolver module, and exports exactly
what it imports."""
import json
import subprocess
import sys
import types
from pathlib import Path

import xxzfidelity

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_solver():
    # the dense and Lanczos solvers are imported where a ground state is
    # solved, so point evaluations and the CLI never pay for loading them
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import xxzfidelity\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('scipy'))))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "scipy.sparse" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.sparse.linalg" not in loaded


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
