"""Command-line front end.

Subcommands: ``eval`` (one anisotropy point), ``scan`` (grid of points),
``fit`` (asymptotic coefficient extraction against the reference
expansions), ``identities`` (all residual suites), ``ed`` (finite-chain
convergence study).  Reports are JSON (default) or CSV, written to stdout
or ``--output``; floats use the shortest round-trip representation, so
identical configurations yield byte-identical reports.

Point rows always carry the same columns:
x, eps, delta, xi, ln_xi, f, ln_f, ratio, path, est_rel_error
(xi is inf once it exceeds the double range; ln_xi is always finite).

Exit codes: 0 success, 1 validation error, 2 numerical failure.  Errors are
reported on stderr as one JSON object {"error": <class>, "message": ...}.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .ed_oracle import convergence_study
from .elliptic import ModelPoint
from .errors import InvalidSpec, XXZFidelityError
# fidelity and fidelity_modular are unused here and stay bound only because
# perfbench/test_perfbench.py checks that its tracer wraps both bindings
from .fidelity import fidelity, fidelity_modular, identity_report  # noqa: F401
from .qseries import Tolerance
from .scaling import (LN_XI_COEFFS, MINUS_LN_F_COEFFS, _check_grid_count,
                      collect_ln_xi, collect_minus_ln_f, evaluate_point,
                      fit_asymptote, log_spaced)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

POINT_COLUMNS = ("x", "eps", "delta", "xi", "ln_xi", "f", "ln_f", "ratio",
                 "path", "est_rel_error")


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one CLI invocation.

    ``grid_var`` names the grid coordinate: ``scan`` takes x (the default)
    or eps; ``fit`` samples eps and accepts nothing else.
    """

    command: str
    x: float | None = None
    eps: float | None = None
    grid_var: str | None = None
    grid_min: float | None = None
    grid_max: float | None = None
    count: int = 10
    spacing: str = "linear"
    rel_tol: float = 1e-12
    max_terms: int | None = None
    fmt: str = "json"
    output: str | None = None
    Ls: tuple[int, ...] = ()

    def __post_init__(self):
        if self.command not in ("eval", "scan", "fit", "identities", "ed"):
            raise InvalidSpec(f"unknown command {self.command!r}")
        if self.grid_var is None:
            object.__setattr__(self, "grid_var",
                               "eps" if self.command == "fit" else "x")
        if self.fmt not in ("json", "csv"):
            raise InvalidSpec(f"format must be json or csv, got {self.fmt!r}")
        if self.spacing not in ("linear", "log"):
            raise InvalidSpec(f"spacing must be linear or log, got {self.spacing!r}")
        if self.grid_var not in ("x", "eps"):
            raise InvalidSpec(f"var must be x or eps, got {self.grid_var!r}")
        if self.command == "fit" and self.grid_var != "eps":
            raise InvalidSpec(f"fit samples eps, got var {self.grid_var!r}")
        if self.command == "eval":
            if (self.x is None) == (self.eps is None):
                raise InvalidSpec("eval needs exactly one of --x / --eps")
        if self.command in ("scan", "fit"):
            if self.grid_min is None or self.grid_max is None:
                raise InvalidSpec(f"{self.command} needs grid bounds")
            if not (self.grid_min <= self.grid_max):
                raise InvalidSpec("grid min must be <= max")
            _check_grid_count(self.count)
            if self.grid_var == "x":
                if not (0.0 < self.grid_min and self.grid_max < 1.0):
                    raise InvalidSpec("x grid bounds must lie inside (0,1)")
            elif not (self.grid_min > 0.0):
                raise InvalidSpec("eps grid bounds must be positive")
        if self.command == "ed" and self.x is None:
            raise InvalidSpec("ed needs --x")

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(rel_tol=self.rel_tol, max_terms=self.max_terms)


def _point_row(p: ModelPoint, tol: Tolerance) -> dict:
    point = evaluate_point(p, tol)
    result = point.fidelity
    return {
        "x": p.x, "eps": p.eps, "delta": p.delta,
        "xi": point.xi, "ln_xi": point.ln_xi,
        "f": result.f, "ln_f": result.ln_f,
        "ratio": point.ratio, "path": result.path.value,
        "est_rel_error": result.est_rel_error,
    }


def _grid(config: RunConfig) -> list[float]:
    lo, hi, count = config.grid_min, config.grid_max, config.count
    if config.spacing == "log":
        return log_spaced(lo, hi, count)
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _run_eval(config: RunConfig):
    p = (ModelPoint.from_x(config.x) if config.x is not None
         else ModelPoint.from_eps(config.eps))
    return _point_row(p, config.tolerance), POINT_COLUMNS


def _run_scan(config: RunConfig):
    tol = config.tolerance
    point = ModelPoint.from_x if config.grid_var == "x" else ModelPoint.from_eps
    return [_point_row(point(v), tol) for v in _grid(config)], POINT_COLUMNS


_FIT_COLUMNS = ("quantity", "A", "B", "C", "max_residual", "sample_count",
                "A_expected", "A_rel_error", "B_expected", "B_abs_error")


def _run_fit(config: RunConfig):
    tol = config.tolerance
    eps_grid = _grid(config)
    targets = [
        ("minus_ln_f", collect_minus_ln_f(eps_grid, tol), MINUS_LN_F_COEFFS),
        ("ln_xi", collect_ln_xi(eps_grid, tol), LN_XI_COEFFS),
    ]
    rows = []
    for name, samples, (a_ref, b_ref) in targets:
        fit = fit_asymptote(samples)
        rows.append({
            "quantity": name,
            "A": fit.A, "B": fit.B, "C": fit.C,
            "max_residual": fit.max_residual,
            "sample_count": fit.sample_count,
            "A_expected": a_ref,
            "A_rel_error": abs(fit.A - a_ref) / abs(a_ref),
            "B_expected": b_ref,
            "B_abs_error": abs(fit.B - b_ref),
        })
    return rows, _FIT_COLUMNS


_IDENTITY_COLUMNS = ("check", "max_residual")


def _run_identities(config: RunConfig):
    return [{"check": name, "max_residual": value}
            for name, value in identity_report(config.tolerance)], _IDENTITY_COLUMNS


_ED_COLUMNS = ("L", "f_finite", "f_exact", "abs_error")


def _run_ed(config: RunConfig):
    rows = convergence_study(config.Ls, config.x, config.tolerance)
    return [{"L": r.L, "f_finite": r.f_finite, "f_exact": r.f_exact,
             "abs_error": r.abs_error} for r in rows], _ED_COLUMNS


def _render_csv(rows, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _render(rows, columns, fmt: str) -> str:
    if fmt == "csv":
        return _render_csv(rows if isinstance(rows, list) else [rows], columns)
    return json.dumps(rows, indent=2) + "\n"


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    runners = {
        "eval": _run_eval,
        "scan": _run_scan,
        "fit": _run_fit,
        "identities": _run_identities,
        "ed": _run_ed,
    }
    try:
        rows, columns = runners[config.command](config)
        text = _render(rows, columns, config.fmt)
    except InvalidSpec as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except XXZFidelityError as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse front end that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--rel-tol", type=float, default=1e-12,
                     help="relative tolerance of every truncated evaluation")
    sub.add_argument("--max-terms", type=int, default=None,
                     help="override the per-strategy term caps")
    sub.add_argument("--format", dest="fmt", default="json", help="json or csv")
    sub.add_argument("--output", default=None, help="file path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xxzfid",
                     description="Bipartite fidelity and correlation length "
                                 "of the infinite antiferromagnetic XXZ chain")
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="evaluate one anisotropy point")
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--eps", type=float, default=None)
    _add_common(p_eval)

    p_scan = commands.add_parser("scan", help="evaluate a grid of points")
    p_scan.add_argument("--var", dest="grid_var", default="x", help="x or eps")
    p_scan.add_argument("--min", dest="grid_min", type=float, required=True)
    p_scan.add_argument("--max", dest="grid_max", type=float, required=True)
    p_scan.add_argument("--count", type=int, default=10)
    p_scan.add_argument("--spacing", default="linear", help="linear or log")
    _add_common(p_scan)

    p_fit = commands.add_parser("fit", help="asymptotic coefficient extraction")
    p_fit.add_argument("--eps-min", dest="grid_min", type=float, required=True)
    p_fit.add_argument("--eps-max", dest="grid_max", type=float, required=True)
    p_fit.add_argument("--count", type=int, default=10)
    p_fit.add_argument("--spacing", default="log", help="linear or log")
    _add_common(p_fit)

    p_id = commands.add_parser("identities", help="run all residual suites")
    _add_common(p_id)

    p_ed = commands.add_parser("ed", help="finite-chain convergence study")
    p_ed.add_argument("--x", type=float, required=True)
    p_ed.add_argument("--Ls", type=lambda s: tuple(int(t) for t in s.split(",")),
                      default=(8, 12), help="comma-separated even lengths")
    _add_common(p_ed)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = RunConfig(**vars(args))
    except InvalidSpec as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
