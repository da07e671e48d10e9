"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload points_massive --seeds 1-10 --seconds 10

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  Each run's result line is appended to --out when given.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            check=True, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.out:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<52} median {med:<12.6g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
