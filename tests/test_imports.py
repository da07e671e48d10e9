"""Importing the package loads no eigensolver module."""
import json
import subprocess
import sys
from pathlib import Path

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
