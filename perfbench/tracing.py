"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every module-level binding of each traced
function (``log_multibase_product`` is bound in qseries, fidelity, elliptic
and the package namespace; ``fidelity`` also as ``ed_oracle._exact_fidelity``)
with one wrapper that records a span, and ``Tracer.restore`` puts the
originals back.  A span is (name, start, end, parent span, op id, tag); the
spans stay in memory until ``save`` writes them out.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: the modules whose public functions are traced, and the public functions
#: of cli left unwrapped (so cli.main's self time covers parse, render, write)
TRACED_MODULES = tuple(importlib.import_module(f"xxzfidelity.{m}") for m in (
    "qseries", "fidelity", "elliptic", "scaling", "ed_oracle", "cli"))
CLI_UNTRACED = ("build_parser", "run")
OP = "op"
ROUTES = ("fidelity.fidelity_simplified", "fidelity.fidelity_modular",
          "fidelity.fidelity_raw")
ED_LENGTHS = (12, 14, 16, 18)

_MARK = "_perfbench_span"


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def traced_functions() -> dict:
    """span name -> original function, for every traced public function."""
    found = {}
    for module in TRACED_MODULES:
        for attr, fn in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or (_short(module) == "cli" and attr in CLI_UNTRACED)):
                continue
            found[f"{_short(module)}.{attr}"] = fn
    return found


def package_functions() -> dict:
    """(module name, attribute) -> bound function, over the whole package."""
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "xxzfidelity" or name.startswith("xxzfidelity.")
            for attr, value in vars(module).items() if callable(value)}


def assert_untraced(before: dict) -> None:
    """Raise unless every binding is the very object it was in before and
    none is a tracing wrapper."""
    now = package_functions()
    for key, fn in before.items():
        if now.get(key) is not fn or hasattr(fn, _MARK):
            raise AssertionError(f"{'.'.join(key)} is wrapped or rebound")


def _ground_state_tag(args, kwargs, result) -> int:
    """1 when ground_state took the iterative path, by its dimension rule."""
    H = args[0] if args else kwargs["H"]
    return int(H.shape[0] >= sys.modules["xxzfidelity.ed_oracle"].DENSE_DIM_LIMIT)


def _bipartite_tag(args, kwargs, result) -> int:
    return int(args[0] if args else kwargs["L"])


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self):
        self.functions = traced_functions()
        self.names = [OP] + sorted(self.functions)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self._stack = [-1]
        self._op = -1
        self._installed = []
        self.h_nnz_max = 0
        self.h_bytes = 0
        self._tags = {"ed_oracle.ground_state": _ground_state_tag,
                      "ed_oracle.bipartite_fidelity_finite": _bipartite_tag}

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.tag.append(-1)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        tag_of = self._tags.get(span)
        record_h = span == "ed_oracle.build_hamiltonian"
        open_, close, tags = self._open, self._close, self.tag
        name_id = self._ids[span]

        def wrapper(*args, **kwargs):
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if tag_of is not None:
                tags[sid] = tag_of(args, kwargs, result)
            if record_h:
                self._record_hamiltonian(result)
            return result

        setattr(wrapper, _MARK, span)
        wrapper.__wrapped__ = fn
        return wrapper

    def _record_hamiltonian(self, H) -> None:
        if H.nnz > self.h_nnz_max:
            self.h_nnz_max = H.nnz
            self.h_bytes = H.data.nbytes + H.indices.nbytes + H.indptr.nbytes

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(span, fn)
                    for span, fn in self.functions.items()}
        for (name, attr), value in package_functions().items():
            if id(value) in wrappers:
                module = sys.modules[name]
                setattr(module, attr, wrappers[id(value)])
                self._installed.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def run_op(self, op_id: int, fn, arg):
        """fn(arg) inside the root span of op op_id."""
        self._op = op_id
        sid = self._open(self._ids[OP])
        try:
            return fn(arg)
        finally:
            self._close(sid)

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "tag": np.frombuffer(self.tag, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans nest and never overlap within one thread, so the covered time is
    the sum of the children's durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def layer_metrics(names, spans: dict, n_ops: int, scale=None) -> dict:
    """Per-layer numbers from one traced pass of n_ops ops; scale[i], when
    given, multiplies the durations of op i's spans."""
    ids = {n: i for i, n in enumerate(names)}
    name, parent, tag = spans["name"], spans["parent"], spans["tag"]
    duration = spans["end"] - spans["start"]
    if scale is not None:
        duration = duration * np.asarray(scale)[spans["op"]]
    self_t = self_times(parent, duration)
    is_op = name == ids[OP]
    op_wall = float(duration[is_op].sum())

    def of(span):
        return name == ids[span]

    def calls(span):
        return float(of(span).sum()) / n_ops

    def self_ms(*spans_):
        mask = np.isin(name, [ids[s] for s in spans_])
        return float(self_t[mask].sum()) * 1e3 / n_ops

    def share(span):
        return float(self_t[of(span)].sum()) / op_wall

    m = {}
    for span in ("qseries.log_multibase_product", "fidelity.ln_g_series",
                 "elliptic.log_correlation_length", "qseries.qproduct_direct",
                 "ed_oracle.sector_basis", "ed_oracle.ground_state"):
        m[f"{span}.calls_per_op"] = calls(span)
        m[f"{span}.self_ms_per_op"] = self_ms(span)
        m[f"{span}.share"] = share(span)

    fid_calls = of("fidelity.fidelity")
    route_ids = [ids[r] for r in ROUTES]
    has_parent = parent >= 0
    routes_under_fidelity = np.zeros(len(name), dtype=bool)
    routes_under_fidelity[has_parent] = (
        np.isin(name[has_parent], route_ids)
        & (name[parent[has_parent]] == ids["fidelity.fidelity"]))
    m["fidelity.routes_per_call"] = (
        float(routes_under_fidelity.sum()) / float(fid_calls.sum())
        if fid_calls.any() else 0.0)
    for span in ("fidelity.fidelity",) + ROUTES + (
            "scaling.fit_asymptote", "cli.main", "ed_oracle.build_hamiltonian",
            "ed_oracle.split_product_state",
            "ed_oracle.bipartite_fidelity_finite"):
        m[f"{span}.self_ms_per_op"] = self_ms(span)
    m["scaling.collect.self_ms_per_op"] = self_ms(
        "scaling.collect_minus_ln_f", "scaling.collect_ln_xi")

    gs = of("ed_oracle.ground_state")
    m["ed_oracle.ground_state.iterative_frac"] = (
        float(tag[gs].mean()) if gs.any() else 0.0)
    bff = of("ed_oracle.bipartite_fidelity_finite")
    for L in ED_LENGTHS:
        m[f"ed_oracle.bipartite_fidelity_finite.L{L}_ms"] = (
            float(duration[bff & (tag == L)].sum()) * 1e3 / n_ops)
    m["op.unattributed_share"] = float(self_t[is_op].sum()) / op_wall
    return m
