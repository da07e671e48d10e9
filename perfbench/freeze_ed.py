"""Print the frozen f_L table that ``reference.ED_TABLE`` holds.

Run from the repository root against the commit whose values are frozen:

    python3 perfbench/freeze_ed.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xxzfidelity import bipartite_fidelity_finite  # noqa: E402

ED_XS = (0.1, 0.2, 0.3, 0.4, 0.5)
ED_LS = (8, 12, 14, 16, 18)

if __name__ == "__main__":
    print("ED_TABLE: dict[float, dict[int, float]] = {")
    for x in ED_XS:
        row = ", ".join(f"{L}: {bipartite_fidelity_finite(L, x)!r}" for L in ED_LS)
        print(f"    {x}: {{{row}}},")
    print("}")
