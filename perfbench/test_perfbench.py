"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracing
import workloads
import xxzfidelity as xf

# frozen finite-size values at x = 0.2 from the package's ED tests
F_8 = 0.9103850129763998
F_12 = 0.8995519516351791


def _first(workload, seed, n=40):
    return list(itertools.islice(workload.inputs(seed), n))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_follow_the_seed(name, tmp_path):
    w = workloads.make(name, tmp_path)
    assert _first(w, 7) == _first(w, 7)
    assert _first(w, 7) != _first(w, 8)


def test_point_inputs_stay_in_range_and_never_repeat(tmp_path):
    massive = _first(workloads.make("points_massive", tmp_path), 3, 4096)
    assert min(massive) >= 0.05 and max(massive) < 0.6
    critical = _first(workloads.make("points_critical", tmp_path), 3, 4096)
    assert min(critical) >= workloads.CRITICAL_EPS_MIN and max(critical) < 0.5
    assert len(set(massive)) == len(set(critical)) == 4096


def test_self_time_of_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    assert tracing.self_times(parent, end - start).tolist() == [3.0, 3.0, 2.0, 2.0]


def _traced_op(workload, value):
    tracer = tracing.Tracer()
    before = tracing.package_functions()
    tracer.install()
    try:
        out = tracer.run_op(0, workload.op, value)
    finally:
        tracer.restore()
    tracing.assert_untraced(before)
    spans = tracer.arrays()
    counts = {n: int((spans["name"] == i).sum())
              for i, n in enumerate(tracer.names)}
    return out, counts, tracing.layer_metrics(tracer.names, spans, 1)


def test_span_counts_per_op(tmp_path):
    points = workloads.make("points_massive", tmp_path)
    _, counts, m = _traced_op(points, 0.3)
    assert counts["qseries.log_multibase_product"] == 5
    assert counts["fidelity.ln_g_series"] == 0
    assert m["fidelity.routes_per_call"] == 1.0
    _, counts, m = _traced_op(points, 0.8)
    assert counts["qseries.log_multibase_product"] == 7
    assert counts["fidelity.ln_g_series"] == 1
    assert m["fidelity.routes_per_call"] == 2.0
    assert 0.0 <= m["op.unattributed_share"] < 1.0


def test_wrappers_cover_every_binding():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import xxzfidelity
        from xxzfidelity import cli, ed_oracle, elliptic, qseries
        fid = tracing.TRACED_MODULES[1]
        lmp = qseries.log_multibase_product
        assert hasattr(lmp, "_perfbench_span")
        assert fid.log_multibase_product is lmp
        assert elliptic.log_multibase_product is lmp
        assert xxzfidelity.log_multibase_product is lmp
        assert cli.fidelity_modular is fid.fidelity_modular
        assert hasattr(ed_oracle._exact_fidelity, "_perfbench_span")
        assert cli.fidelity is ed_oracle._exact_fidelity
        assert not hasattr(cli.run, "_perfbench_span")
    finally:
        tracer.restore()
    assert not hasattr(qseries.log_multibase_product, "_perfbench_span")


def test_mpmath_reference_hits_its_anchors():
    reference.check_mp_anchors()


@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.049, 0.051, 0.5, 3.0])
def test_float_reference_matches_mpmath(eps):
    f_err, xi_err = reference.float_reference_error([eps])
    assert f_err < workloads.FLOAT_REFERENCE_TOL
    assert xi_err < workloads.FLOAT_REFERENCE_TOL


def test_ed_table_reproduces_the_package_constants():
    assert abs(reference.ED_TABLE[0.2][8] - F_8) <= workloads.EdChain.ED_ABS_TOL
    assert abs(reference.ED_TABLE[0.2][12] - F_12) <= workloads.EdChain.ED_ABS_TOL


def test_point_check_flags_wrong_answers(tmp_path):
    w = workloads.make("points_critical", tmp_path)
    inputs = [0.3, 1e-3]
    outputs = [w.op(v) for v in inputs]
    assert w.check(inputs, outputs) == [None, None]
    ln_f, est, ln_xi = outputs[0]
    bad = [(ln_f + 2 * est, est, ln_xi), (ln_f, est, ln_xi * (1 + 1e-9))]
    assert w.check(inputs[:1] * 2, bad) == ["wrong_ln_f", "wrong_ln_xi"]
    failure = w.check([1e-3], [workloads.OpFailure(ZeroDivisionError())])
    assert failure == ["ZeroDivisionError"]


def test_critical_range_stays_above_the_nonconvergent_floor(tmp_path):
    w = workloads.make("points_critical", tmp_path)
    inputs = [w.lo, 1.5 * w.lo]
    assert w.check(inputs, [w.op(v) for v in inputs]) == [None, None]
    with pytest.raises(xf.NonConvergent):
        w.op(1e-6)


def test_nonconvergent_probe_sees_the_known_defect():
    # the package fails below eps ~ 1.857e-5: ln(1.857e-5/1e-6)/ln(5e5) ~ 0.22
    assert 0.15 < workloads.nonconvergent_frac(1) < 0.3


def test_ed_check_flags_a_wrong_f_L(tmp_path):
    w = workloads.make("ed_chain", tmp_path)
    rows = [type("Row", (), {"L": L, "f_finite": reference.ED_TABLE[0.1][L]})
            for L in w.Ls]
    assert w.check([0.1], [rows]) == [None]
    rows[-1].f_finite += 1e-8
    assert w.check([0.1], [rows]) == ["wrong_f_L"]


def test_tail_counts_the_samples_beyond_it():
    value, beyond = run.tail(np.arange(1000.0), 99.0)
    assert beyond == 10
    assert math.isclose(value, np.percentile(np.arange(1000.0), 99.0))
    assert run.tail(np.arange(12.0), 100.0) == (11.0, 0)


def test_speed_scale_uses_the_nearest_calibrations():
    log = run.SpeedLog("interpreter")
    log.seconds.extend([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    log.before_op.extend([0, 1, 2, 3, 4, 5, 6])
    factors = log.factors(7) / run.CALIBRATION_NOMINAL_S["interpreter"]
    assert factors[0] == 1.0 and factors[-1] == 0.5


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_carries_exactly_the_declared_metrics(trace, capsys):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert run.main(["--workload", "points_massive", "--seed", "1",
                     "--seconds", "0.2", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
