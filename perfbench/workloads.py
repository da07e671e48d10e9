"""The four benchmark workloads: seeded inputs, one op, and its checks.

Each workload draws its inputs from ``numpy.random.default_rng(seed)`` and
hands the program only those inputs.  Continuous inputs are drawn in
stratified blocks (one draw per equal-width stratum, in shuffled order), so
every block covers the whole range: a run's mix of cheap and expensive
points then barely depends on the seed, while no two ops share an input.

``calibration`` names the kernel (``run.calibration_kernel``) by whose
speed a workload's timings are scaled, or None.  The machine's speed drifts
by 20% and more over minutes, so each kernel mirrors where its workload's
time goes: scalar interpreter work for points_massive (the log-series
loop), numpy exp for points_critical (the vectorised ln g), and both with
sparse matrix-vector products and a dense eigh ("full", 12 ms) for ed_chain
(basis and Hamiltonian loops, Lanczos, dense eigh at L=12) and for
verify_suite (``qproduct_direct`` recursion, vectorised ln g, file
writes).  Measured against runs minutes apart, scaling cut the spread of
points_massive's ops_per_s from 0.2-0.3 to 0.02-0.04.  Over a few minutes
of consecutive ops, the full kernel cut the spread of the median of ten
ed_chain ops from 0.13 to 0.04, and of the median and p90 of twenty
verify_suite ops from 0.11 and 0.15 to 0.06, where the interpreter and
numpy parts alone (1.5 ms) left 0.08 and 0.13.  OpenBLAS
is held to one thread (``run.py``); with two, no kernel helped ed_chain.

``tail_percentile`` is fixed per workload, so that the tail's definition
does not move with throughput: the highest of p99 and p90 that has well
over ten samples beyond it in a 20 s run (about 3e5 and 1.5e3 ops), or p75
where none has (ed_chain and verify_suite, about 10 and 30 ops).  Above p99
the 0.05 ms ops of points_massive count the host's preemptions rather than
the program's work; above p75, ed_chain's tail is one or two ops, and over
ten runs its p90 spread by 0.19 and verify_suite's by 0.14.

``check`` runs outside every timed region and returns, per op, ``None`` or
the failure kind: the exception's class name, or ``wrong_*`` for an answer
that misses its reference.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
# ops call through the package and module namespaces, never through local
# bindings, so that the tracing wrappers see every call
import xxzfidelity as xf  # noqa: E402
from xxzfidelity import cli  # noqa: E402

if Path(xf.__file__).resolve().parent != SRC / "xxzfidelity":
    raise ImportError(f"xxzfidelity imported from {xf.__file__}, not from {SRC}")

#: ln xi may differ from its reference by this much, relative
LN_XI_REL_TOL = 1e-10
#: the float reference may differ from the mpmath one by this much
FLOAT_REFERENCE_TOL = 1e-14
#: ops of each run whose inputs are also checked against mpmath
MP_SAMPLE = 8

_STRATA = 64

#: smallest eps of points_critical: the package raises NonConvergent below
#: eps ~ 1.857e-5 (its ln g term cap), and the benchmark's ops must not fail
CRITICAL_EPS_MIN = 3e-5
#: the probe of that defect: eps range and number of draws
PROBE_EPS_MIN, PROBE_EPS_MAX = 1e-6, 0.5
PROBE_COUNT = 32


class OpFailure:
    """An op that raised: only the exception's class name is kept, so a
    pending chunk does not hold tracebacks and the arrays in their frames."""

    def __init__(self, exc: Exception):
        self.kind = type(exc).__name__


def _stratified(rng, lo: float, hi: float):
    """Endless stream of draws in [lo, hi), one per stratum per block."""
    while True:
        u = (rng.permutation(_STRATA) + rng.random(_STRATA)) / _STRATA
        yield from (lo + (hi - lo) * u).tolist()


class Workload:
    """Defaults: full calibration, p75 as the tail, blocks of one input,
    no reference to self-check.

    ``block`` is the length of the input stream's blocks: a timed pass ends
    on a block boundary, so every run sees the same mix of inputs.
    """

    calibration = "full"
    tail_percentile = 75.0
    block = 1

    def check_reference(self, inputs, rng) -> str | None:
        return None


class Points(Workload):
    """One op: fidelity(p) and log_correlation_length(p) at one point.

    Checked against ``reference``: ln f must be within the program's own
    est_rel_error of the reference (an honest bound), ln xi within
    LN_XI_REL_TOL relative.
    """

    chunk = 8192
    block = _STRATA

    def __init__(self, name: str, var: str, lo: float, hi: float,
                 calibration: str, tail_percentile: float):
        self.name, self.var, self.lo, self.hi = name, var, lo, hi
        self.calibration = calibration
        self.tail_percentile = tail_percentile
        smallest = hi if var == "eps" else lo
        self.warmup = (
            "from xxzfidelity import ModelPoint, fidelity, log_correlation_length\n"
            f"p = ModelPoint.from_{var}({smallest!r})\n"
            "fidelity(p)\nlog_correlation_length(p)\n")

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        if self.var == "x":
            yield from _stratified(rng, self.lo, self.hi)
        else:
            for v in _stratified(rng, math.log(self.lo), math.log(self.hi)):
                yield math.exp(v)

    def op(self, v: float):
        p = xf.ModelPoint.from_x(v) if self.var == "x" else xf.ModelPoint.from_eps(v)
        r = xf.fidelity(p)
        return r.ln_f, r.est_rel_error, xf.log_correlation_length(p)

    def eps_of(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        return -np.log(v) if self.var == "x" else v

    def check(self, inputs, outputs) -> list:
        kinds = [o.kind if isinstance(o, OpFailure) else None for o in outputs]
        good = [i for i, k in enumerate(kinds) if k is None]
        if not good:
            return kinds
        eps = self.eps_of([inputs[i] for i in good])
        got = np.array([outputs[i] for i in good], dtype=float)
        f_err = np.abs(got[:, 0] - reference.ln_f(eps))
        ref_xi = reference.ln_xi(eps)
        xi_err = np.abs(got[:, 2] - ref_xi)
        bad_f = ~(f_err <= got[:, 1])
        bad_xi = ~(xi_err <= LN_XI_REL_TOL * np.abs(ref_xi))
        for j, i in enumerate(good):
            if bad_f[j]:
                kinds[i] = "wrong_ln_f"
            elif bad_xi[j]:
                kinds[i] = "wrong_ln_xi"
        return kinds

    def check_reference(self, inputs, rng) -> str | None:
        """Compare the float reference with mpmath on a sample of inputs."""
        sample = rng.choice(len(inputs), size=min(MP_SAMPLE, len(inputs)),
                            replace=False)
        f_err, xi_err = reference.float_reference_error(
            self.eps_of([inputs[i] for i in sample]))
        if max(f_err, xi_err) > FLOAT_REFERENCE_TOL:
            return (f"float reference is off mpmath by {f_err:.1e} (ln f), "
                    f"{xi_err:.1e} (ln xi)")
        return None


class EdChain(Workload):
    """One op: convergence_study([12, 14, 16, 18], x) on the frozen x grid.

    Checked against ``reference.ED_TABLE``: every f_L in (0, 1] and within
    ED_ABS_TOL of its frozen value.
    """

    name = "ed_chain"
    chunk = 1
    Ls = (12, 14, 16, 18)
    xs = tuple(sorted(reference.ED_TABLE))
    block = len(xs)
    ED_ABS_TOL = 1e-9
    warmup = ("from xxzfidelity import convergence_study\n"
              f"convergence_study([{Ls[0]}], {xs[0]!r})\n")

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield from (self.xs[i] for i in rng.permutation(len(self.xs)))

    def op(self, x: float):
        return xf.convergence_study(self.Ls, x)

    def check(self, inputs, outputs) -> list:
        kinds = []
        for x, rows in zip(inputs, outputs):
            if isinstance(rows, OpFailure):
                kinds.append(rows.kind)
                continue
            table = reference.ED_TABLE[x]
            ok = ([r.L for r in rows] == list(self.Ls) and all(
                0.0 < r.f_finite <= 1.0
                and abs(r.f_finite - table[r.L]) <= self.ED_ABS_TOL
                for r in rows))
            kinds.append(None if ok else "wrong_f_L")
        return kinds


class VerifySuite(Workload):
    """One op: ``xxzfid identities``, ``fit`` and ``scan`` via cli.main.

    Fit eps bounds are drawn inside [1e-3, 1e-2] and the 200-point scan's x
    bounds inside [0.05, 0.95], each as a window of nearly fixed width, so
    every op does about the same work.  The identities grid is fixed in the
    program, so that third of the op repeats the same inputs every time.
    """

    name = "verify_suite"
    chunk = 4
    SCAN_COUNT = 200
    IDENTITY_TOL = 1e-10
    # the asymptote budgets of the package's acceptance test 04
    FIT_A_REL_TOL = 1e-3
    FIT_B_ABS_TOL = 1e-3

    def __init__(self, workdir: Path):
        self.workdir = workdir
        out = str(workdir / "warmup.json")
        self.warmup = (
            "from xxzfidelity.cli import main\n"
            f"assert main(['identities', '--output', {out!r}]) == 0\n"
            "assert main(['fit', '--eps-min', '1e-3', '--eps-max', '1e-2',"
            f" '--output', {out!r}]) == 0\n"
            "assert main(['scan', '--min', '0.05', '--max', '0.9', '--count',"
            f" '1', '--output', {out!r}]) == 0\n")

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        i = 0
        while True:
            fit_lo = math.exp(rng.uniform(math.log(1e-3), math.log(1.5e-3)))
            fit_hi = math.exp(rng.uniform(math.log(7e-3), math.log(1e-2)))
            scan_lo = rng.uniform(0.05, 0.10)
            yield (i, fit_lo, fit_hi, scan_lo, scan_lo + 0.85)
            i += 1

    def _paths(self, i: int) -> dict:
        return {c: self.workdir / f"op{i}-{c}.json"
                for c in ("identities", "fit", "scan")}

    def op(self, inp):
        i, fit_lo, fit_hi, scan_lo, scan_hi = inp
        paths = self._paths(i)
        return [
            cli.main(["identities", "--output", str(paths["identities"])]),
            cli.main(["fit", "--eps-min", repr(fit_lo), "--eps-max", repr(fit_hi),
                      "--output", str(paths["fit"])]),
            cli.main(["scan", "--min", repr(scan_lo), "--max", repr(scan_hi),
                      "--count", str(self.SCAN_COUNT),
                      "--output", str(paths["scan"])]),
        ]

    def _kind(self, codes, paths) -> str | None:
        if codes != [0, 0, 0]:
            return f"exit_{'_'.join(map(str, codes))}"
        identities = json.loads(paths["identities"].read_text())
        if not identities or not all(r["max_residual"] < self.IDENTITY_TOL
                                     for r in identities):
            return "wrong_identity"
        fits = json.loads(paths["fit"].read_text())
        if len(fits) != 2 or not all(r["A_rel_error"] < self.FIT_A_REL_TOL
                                     and r["B_abs_error"] < self.FIT_B_ABS_TOL
                                     for r in fits):
            return "wrong_fit"
        rows = json.loads(paths["scan"].read_text())
        if len(rows) != self.SCAN_COUNT or not all(
                all(c in r for c in cli.POINT_COLUMNS)
                and math.isfinite(r["ln_f"]) and math.isfinite(r["ln_xi"])
                for r in rows):
            return "wrong_scan"
        return None

    def check(self, inputs, outputs) -> list:
        kinds = []
        for inp, codes in zip(inputs, outputs):
            paths = self._paths(inp[0])
            kinds.append(codes.kind if isinstance(codes, OpFailure)
                         else self._kind(codes, paths))
            for path in paths.values():
                path.unlink(missing_ok=True)
        return kinds


def nonconvergent_frac(seed: int, n: int = PROBE_COUNT) -> float:
    """Share of n eps, stratified log-uniform in [PROBE_EPS_MIN, PROBE_EPS_MAX],
    at which ln_g_series raises NonConvergent.

    The package's known ln g defect (NonConvergent below eps ~ 1.9e-5) lies
    below CRITICAL_EPS_MIN, so no points_critical op meets it; this probe,
    run outside every timed op and span, keeps it in view.
    """
    draws = _stratified(np.random.default_rng([seed, 1]),
                        math.log(PROBE_EPS_MIN), math.log(PROBE_EPS_MAX))
    failed = 0
    for _ in range(n):
        try:
            xf.ln_g_series(xf.ModelPoint.from_eps(math.exp(next(draws))))
        except xf.NonConvergent:
            failed += 1
    return failed / n


NAMES = ("points_massive", "points_critical", "ed_chain", "verify_suite")


def make(name: str, workdir: Path):
    """The workload called name; workdir takes its output files."""
    if name == "points_massive":
        return Points(name, "x", 0.05, 0.6, "interpreter", 99.0)
    if name == "points_critical":
        return Points(name, "eps", CRITICAL_EPS_MIN, 0.5, "numpy", 90.0)
    if name == "ed_chain":
        return EdChain()
    if name == "verify_suite":
        return VerifySuite(workdir)
    raise ValueError(f"unknown workload {name!r}")
