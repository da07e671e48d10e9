"""Benchmark of the xxzfidelity package: one workload, one seed, one run.

    python3 perfbench/run.py --workload points_massive --seed 1 --seconds 10 --trace 0

Closed loop, one caller, in this process: the next op starts when the
previous one has returned.  The timed region is the op alone; input
generation and the correctness checks run outside it.  The program is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.

--trace 0 prints the end-to-end metrics: set-up time (fresh interpreters),
throughput, latency median and tail, the share of ops that succeeded, and
peak RSS.  --trace 1 runs the workload untraced for half of --seconds, then
again with spans on the same inputs, and prints the per-layer metrics
(``tracing.layer_metrics``) and the tracing overhead.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads: the benchmark is one caller, and on
# a shared 2-core host a second BLAS thread makes ed_chain's timings follow
# the other tenants' load, which no single-threaded calibration kernel sees.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy.sparse  # noqa: E402

import reference  # noqa: E402

try:  # workloads puts src/ on the path; tracing relies on it
    import workloads
    import tracing
except ImportError as exc:
    tracing = workloads = None
    IMPORT_ERROR = exc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_traces"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_RUNS = 5
#: calibration: nominal time of each kernel, spacing in op time, samples per
#: median
CALIBRATION_NOMINAL_S = {"interpreter": 0.5e-3, "numpy": 1.0e-3, "full": 12e-3}
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 5
#: untimed warm-up ops run for at least this long (and at least one op), on
#: inputs from a stream the timed ops never draw from
WARMUP_SECONDS = 0.5

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ok_frac": "fraction", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("calls_per_op"):
        return "calls/op"
    if name.endswith("_ms_per_op") or name.endswith("_ms"):
        return "ms/op"
    if name == "fidelity.routes_per_call":
        return "routes/call"
    if name == "ed_oracle.H_nnz_max":
        return "count"
    if name == "ed_oracle.H_bytes_computed":
        return "bytes"
    return "fraction"


def measure_setup(warmup: str, kernel: str | None) -> tuple[float, list[float]]:
    """Median time of fresh interpreter -> import -> one warm-up op, scaled
    (when the workload names a kernel) by calibrations just before and
    after each interpreter; also the unscaled times."""
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            f"import xxzfidelity\n{warmup}")
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = calibration_kernel(kernel) if kernel else None
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        raw.append(perf_counter() - t0)
        factor = (CALIBRATION_NOMINAL_S[kernel]
                  / (0.5 * (before + calibration_kernel(kernel)))
                  if kernel else 1.0)
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), raw


_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 1 << 16)


def _interpreter_work() -> None:
    acc = 0.0
    for i in range(4000):
        acc += (i * 0.5) ** 0.5


def _numpy_work() -> None:
    b = _CALIBRATION_ARRAY
    for _ in range(2):
        b = np.exp(-b)


@functools.cache
def _linalg_operands():
    """A fixed 50000-square sparse matrix (10 entries a row), a vector, and
    a symmetric 200-square dense matrix.  The matrix is built in CSR form
    directly, so building it needs no more memory than the kernel keeps
    (about 10 MB, a constant part of the peak RSS of the workloads that use
    it)."""
    rng = np.random.default_rng(0)
    n, per_row = 50_000, 10
    sparse = scipy.sparse.csr_matrix(
        (rng.random(per_row * n),
         rng.integers(0, n, per_row * n, dtype=np.int32),
         np.arange(0, per_row * n + 1, per_row, dtype=np.int32)),
        shape=(n, n))
    dense = rng.standard_normal((200, 200))
    return sparse, np.ones(n), dense + dense.T


def _linalg_work() -> None:
    sparse, vector, dense = _linalg_operands()
    for _ in range(5):
        sparse @ vector
    np.linalg.eigh(dense)


_KERNEL_PARTS = {
    "interpreter": (_interpreter_work,),
    "numpy": (_numpy_work,),
    "full": (_interpreter_work, _numpy_work, _linalg_work),
}


def calibration_kernel(kind: str) -> float:
    """Seconds taken by a fixed piece of work, best of three: scalar
    interpreter arithmetic, numpy exp over 64k doubles, or both with sparse
    matrix-vector products and a dense eigh (full)."""
    parts = _KERNEL_PARTS[kind]
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for part in parts:
            part()
        best = min(best, perf_counter() - t0)
    return best


class SpeedLog:
    """Calibration samples taken between ops, and the scale they imply.

    On the 2-core machine these figures come from, speed drifts by 20% and more
    over minutes.  Where a workload names a calibration kernel, its timings
    are scaled to the speed at which that kernel takes its nominal time: an
    op's factor is the nominal time over the median of the
    CALIBRATION_WINDOW samples nearest to it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds = array("d")
        self.before_op = array("q")

    def sample(self, next_op: int) -> None:
        self.seconds.append(calibration_kernel(self.kind))
        self.before_op.append(next_op)

    def factors(self, n_ops: int) -> np.ndarray:
        cal = np.asarray(self.seconds)
        half = CALIBRATION_WINDOW // 2
        local = np.array([np.median(cal[max(0, i - half): i + half + 1])
                          for i in range(len(cal))])
        idx = np.searchsorted(np.asarray(self.before_op), np.arange(n_ops),
                              side="right") - 1
        return CALIBRATION_NOMINAL_S[self.kind] / local[idx]


class Pass:
    """Latencies and failure kinds of one pass of ops.

    Inputs and outputs are kept only until their chunk is checked, so memory
    does not grow with the number of ops a run completes.
    """

    def __init__(self, workload):
        self.workload = workload
        self.latency = array("d")
        self.ok = array("b")
        self.failures = Counter()
        self.first_inputs = []
        self._inputs, self._outputs = [], []
        kernel = workload.calibration
        self.speed = SpeedLog(kernel) if kernel else None

    def _check_pending(self) -> None:
        for kind in self.workload.check(self._inputs, self._outputs):
            self.ok.append(kind is None)
            if kind is not None:
                self.failures[kind] += 1
        if not self.first_inputs:
            self.first_inputs = self._inputs
        self._inputs, self._outputs = [], []

    def run(self, inputs, seconds=None, count=None, tracer=None, block=None):
        """Run ops until their summed time reaches seconds and they fill
        whole blocks of block inputs (the workload's by default), or until
        count ops."""
        op = self.workload.op
        chunk = self.workload.chunk
        block = block or self.workload.block
        busy = 0.0
        last_calibration = -CALIBRATE_EVERY_S
        while (busy < seconds or len(self.latency) % block if count is None
               else len(self.latency) < count):
            if self.speed and busy - last_calibration >= CALIBRATE_EVERY_S:
                self.speed.sample(len(self.latency))
                last_calibration = busy
            value = next(inputs)
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = op(value)
                else:
                    out = tracer.run_op(len(self.latency), op, value)
            except Exception as exc:  # an op failure is data to report
                out = workloads.OpFailure(exc)
            dt = perf_counter() - t0
            busy += dt
            self.latency.append(dt)
            self._inputs.append(value)
            self._outputs.append(out)
            if len(self._inputs) >= chunk:
                self._check_pending()
        self._check_pending()
        if self.speed:
            self.speed.sample(len(self.latency))
        return self

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def scale(self) -> np.ndarray:
        """Each op's machine-speed factor (all 1 without a kernel)."""
        if self.speed is None:
            return np.ones(self.attempted)
        return self.speed.factors(self.attempted)

    def scaled_latency(self) -> np.ndarray:
        """Each op's latency in seconds, scaled to the nominal speed."""
        return np.asarray(self.latency) * self.scale()


def tail(samples_ms, percentile: float) -> tuple[float, int]:
    """The percentile of samples_ms and the number of samples beyond it."""
    s = np.sort(np.asarray(samples_ms))
    return (float(np.percentile(s, percentile)),
            len(s) - int(np.ceil(percentile / 100.0 * len(s))))


def warm_up(workload, seed: int) -> None:
    """Let lazy set-up and caches settle before the timed ops."""
    Pass(workload).run(workload.inputs(seed + 2 ** 32), WARMUP_SECONDS, block=1)


def end_to_end(workload, seed: int, seconds: float, lines: list) -> tuple:
    setup_s, setup_runs = measure_setup(workload.warmup, workload.calibration)
    warm_up(workload, seed)
    lines.append(f"setup_s unscaled runs: "
                 f"{', '.join(f'{t:.3f}' for t in setup_runs)} s")
    before = tracing.package_functions()
    tracing.assert_untraced(before)
    run = Pass(workload).run(workload.inputs(seed), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracing.assert_untraced(before)
    ok = np.asarray(run.ok, dtype=bool)
    if not ok.any():
        raise RuntimeError(f"no op succeeded: {dict(run.failures)}")
    latency = run.scaled_latency()
    ok_ms = latency[ok] * 1e3
    raw_ms = np.asarray(run.latency)[ok] * 1e3
    tail_p = workload.tail_percentile
    tail_ms, beyond = tail(ok_ms, tail_p)
    lines.append(f"ops: {run.attempted} attempted, {len(ok_ms)} ok, "
                 f"{sum(run.latency):.3f} s busy, {latency.sum():.3f} s scaled")
    lines.append(f"unscaled: ops_per_s {len(ok_ms) / sum(run.latency):.6g}, "
                 f"op_p50_ms {np.median(raw_ms):.6g}, "
                 f"op_tail_ms {tail(raw_ms, tail_p)[0]:.6g}")
    lines.append(f"op_tail_ms is p{tail_p:g} of {len(ok_ms)} successful ops, "
                 f"{beyond} beyond it")
    failed = run.attempted - len(ok_ms)
    lines.append(f"fail_frac {failed / run.attempted:.6f} "
                 f"({failed} of {run.attempted}); by kind: "
                 f"{dict(sorted(run.failures.items())) or 'none'}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ok_ms) / float(latency.sum()),
        "op_p50_ms": float(np.median(ok_ms)),
        "op_tail_ms": tail_ms,
        "ok_frac": len(ok_ms) / run.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, [run]


def traced(workload, seed: int, seconds: float, lines: list) -> tuple:
    before = tracing.package_functions()
    tracing.assert_untraced(before)
    warm_up(workload, seed)
    plain = Pass(workload).run(workload.inputs(seed), seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spanned = Pass(workload).run(workload.inputs(seed),
                                     count=plain.attempted, tracer=tracer)
    finally:
        tracer.restore()
    tracing.assert_untraced(before)
    n = spanned.attempted
    metrics = tracing.layer_metrics(tracer.names, tracer.arrays(), n,
                                    spanned.scale())
    metrics["ed_oracle.H_nnz_max"] = float(tracer.h_nnz_max)
    metrics["ed_oracle.H_bytes_computed"] = float(tracer.h_bytes)
    plain_wall = float(plain.scaled_latency().sum())
    traced_wall = float(spanned.scaled_latency().sum())
    metrics["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    metrics["fidelity.ln_g_series.nonconvergent_frac"] = \
        workloads.nonconvergent_frac(seed)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload.name}-seed{seed}.npz"
    tracer.save(path)
    lines.append(f"traced {n} ops ({len(tracer.name)} spans, written to "
                 f"{path.relative_to(ROOT)}); untraced {plain_wall:.3f} s, "
                 f"traced {traced_wall:.3f} s")
    lines.append("ed_oracle.H_bytes_computed is CSR data+indices+indptr bytes "
                 "of the largest Hamiltonian, computed from its arrays")
    return metrics, [plain, spanned]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if workloads is None:
        print(f"cannot import the program from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    reference.check_mp_anchors()
    WORKDIR.mkdir(exist_ok=True)
    try:
        workload = workloads.make(args.workload, WORKDIR)
        lines = [f"workload {args.workload}, seed {args.seed}, "
                 f"{args.seconds:g} s, trace {args.trace}"]
        run_fn = traced if args.trace else end_to_end
        metrics, passes = run_fn(workload, args.seed, args.seconds, lines)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    rng = np.random.default_rng(args.seed)
    problems = [note for note in (
        workload.check_reference(passes[0].first_inputs, rng),) if note]
    for p in passes:
        if p.failures:
            problems.append(f"failed ops: {dict(p.failures)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failures.values()) for p in passes)

    units = {**UNITS, **{k: layer_unit(k) for k in metrics if k not in UNITS}}
    width = max(map(len, metrics))
    for name, value in metrics.items():
        lines.append(f"{name:<{width}}  {value:.6g} {units[name]}")
    lines.extend(f"PROBLEM: {p}" for p in problems)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
