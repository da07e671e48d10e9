"""Command-line front end.

Subcommands: ``eval`` (one anisotropy point), ``scan`` (grid of points),
``fit`` (asymptotic coefficient extraction against the reference
expansions), ``identities`` (all residual suites), ``ed`` (finite-chain
convergence study).  Reports are JSON (default) or CSV, written to stdout
or ``--output``; floats use the shortest round-trip representation, so
identical configurations yield byte-identical reports; for ``ed`` only at
a fixed BLAS thread count, which moves the last bits of f_L.

Point rows always carry the same columns:
x, eps, delta, xi, ln_xi, f, ln_f, ratio, path, est_rel_error
(xi is inf once it exceeds the double range; ln_xi is always finite).

Exit codes: 0 success, 1 validation error, 2 numerical failure.  A usage
error (an unknown flag, a missing or malformed value) is a validation error
too.  Errors are reported on stderr as one JSON object
{"error": <class>, "message": ...}.
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

    Every default lives here, not in the parser.  ``grid_var`` names the
    grid coordinate: ``scan`` takes x (the default) or eps; ``fit`` samples
    eps, by default log-spaced, and accepts nothing else.
    """

    command: str
    x: float | None = None
    eps: float | None = None
    grid_var: str | None = None
    grid_min: float | None = None
    grid_max: float | None = None
    count: int = 10
    spacing: str | None = None
    fmt: str = "json"
    output: str | None = None
    Ls: tuple[int, ...] = (8, 12)

    def __post_init__(self):
        if self.command not in ("eval", "scan", "fit", "identities", "ed"):
            raise InvalidSpec(f"unknown command {self.command!r}")
        fit = self.command == "fit"
        if self.grid_var is None:
            object.__setattr__(self, "grid_var", "eps" if fit else "x")
        if self.spacing is None:
            object.__setattr__(self, "spacing", "log" if fit else "linear")
        if self.fmt not in ("json", "csv"):
            raise InvalidSpec(f"format must be json or csv, got {self.fmt!r}")
        if self.spacing not in ("linear", "log"):
            raise InvalidSpec(f"spacing must be linear or log, got {self.spacing!r}")
        if self.grid_var not in ("x", "eps"):
            raise InvalidSpec(f"var must be x or eps, got {self.grid_var!r}")
        if fit and self.grid_var != "eps":
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
            point = (ModelPoint.from_x if self.grid_var == "x"
                     else ModelPoint.from_eps)
            point(self.grid_min)
            point(self.grid_max)
        if self.command == "ed" and self.x is None:
            raise InvalidSpec("ed needs --x")


def _point_row(p: ModelPoint) -> dict:
    point = evaluate_point(p)
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
    # lo + i*step rounds and can pass hi, so it is clamped and hi ends the grid
    return [min(lo + i * step, hi) for i in range(count - 1)] + [hi]


def _run_eval(config: RunConfig):
    p = (ModelPoint.from_x(config.x) if config.x is not None
         else ModelPoint.from_eps(config.eps))
    return _point_row(p), POINT_COLUMNS


def _run_scan(config: RunConfig):
    point = ModelPoint.from_x if config.grid_var == "x" else ModelPoint.from_eps
    return [_point_row(point(v)) for v in _grid(config)], POINT_COLUMNS


_FIT_COLUMNS = ("quantity", "A", "B", "C", "max_residual", "sample_count",
                "A_expected", "A_rel_error", "B_expected", "B_abs_error")


def _run_fit(config: RunConfig):
    eps_grid = _grid(config)
    targets = [
        ("minus_ln_f", collect_minus_ln_f(eps_grid), MINUS_LN_F_COEFFS),
        ("ln_xi", collect_ln_xi(eps_grid), LN_XI_COEFFS),
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
            for name, value in identity_report()], _IDENTITY_COLUMNS


_ED_COLUMNS = ("L", "f_finite", "f_exact", "abs_error")


def _run_ed(config: RunConfig):
    rows = convergence_study(config.Ls, config.x)
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
        if config.output:
            _write(config.output, text)
        else:
            sys.stdout.write(text)
    except XXZFidelityError as exc:
        _emit_error(exc)
        return (EXIT_VALIDATION if isinstance(exc, InvalidSpec)
                else EXIT_NUMERICAL)
    return EXIT_OK


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write --output {path!r}: "
                          f"{exc.strerror or exc}") from exc


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse front end: a usage error is an InvalidSpec, exit code 1, and
    an absent flag sets nothing, so its RunConfig default applies."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        _emit_error(InvalidSpec(f"{self.prog}: {message}"))
        self.exit(EXIT_VALIDATION)


def _lengths(text: str) -> tuple[int, ...]:
    """The integers of --Ls; main reports a malformed list as a usage error."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidSpec(f"xxzfid ed: argument --Ls: takes comma-separated "
                          f"even integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xxzfid",
                     description="Bipartite fidelity and correlation length "
                                 "of the infinite antiferromagnetic XXZ chain")
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="evaluate one anisotropy point")
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--eps", type=float)

    p_scan = commands.add_parser("scan", help="evaluate a grid of points")
    p_scan.add_argument("--var", dest="grid_var", help="x (default) or eps")
    p_scan.add_argument("--min", dest="grid_min", type=float)
    p_scan.add_argument("--max", dest="grid_max", type=float)
    p_scan.add_argument("--count", type=int)
    p_scan.add_argument("--spacing", help="linear (default) or log")

    p_fit = commands.add_parser("fit", help="asymptotic coefficient extraction")
    p_fit.add_argument("--eps-min", dest="grid_min", type=float)
    p_fit.add_argument("--eps-max", dest="grid_max", type=float)
    p_fit.add_argument("--count", type=int)
    p_fit.add_argument("--spacing", help="log (default) or linear")

    commands.add_parser("identities", help="run all residual suites")

    p_ed = commands.add_parser("ed", help="finite-chain convergence study")
    p_ed.add_argument("--x", type=float)
    p_ed.add_argument("--Ls", type=_lengths,
                      help="comma-separated even lengths (default 8,12)")

    for sub in commands.choices.values():
        sub.add_argument("--format", dest="fmt", help="json or csv")
        sub.add_argument("--output", help="file path (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(build_parser().parse_args(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    except InvalidSpec as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
