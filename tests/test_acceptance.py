"""Acceptance gate: the eight headline checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines even on
success; each check also asserts, so the suite fails loudly when a claim
stops holding.
"""
import math

import numpy as np
import scipy.linalg

from xxzfidelity import (ModelPoint, SpinChainSpec,
                         bipartite_fidelity_finite, convergence_study,
                         evaluate_point, fidelity, fidelity_modular,
                         fidelity_raw, fidelity_simplified, fit_asymptote,
                         ln_g_series, minus_ln_f_reference)
from xxzfidelity.ed_oracle import (_half_ground, build_hamiltonian,
                                   split_product_state)
from xxzfidelity.elliptic import modulus_k, modulus_kprime
from xxzfidelity.fidelity import short_theta_identity_residual
from xxzfidelity.qseries import minus_one_peel_residual, verify_qcalc_identities
from xxzfidelity.scaling import collect_ln_xi, collect_minus_ln_f, log_spaced

from ed_reference import lowest_pair, split_hamiltonian

QUARTER_LN2 = 0.25 * math.log(2.0)
SELF_DUAL_X = math.exp(-math.pi)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"acceptance {n}: {detail}"


def test_01_three_route_equivalence():
    """Raw, simplified and modular fidelity agree to 1e-9 on 20 points."""
    worst = 0.0
    for x in np.linspace(0.3, 0.9, 20):
        p = ModelPoint.from_x(float(x))
        lns = [fidelity_raw(p).ln_f, fidelity_simplified(p).ln_f,
               fidelity_modular(p).ln_f]
        worst = max(worst, abs(math.expm1(max(lns) - min(lns))))
    _report(1, worst < 1e-9,
            f"three-route relative spread on x in [0.3, 0.9]: max {worst:.3e} (< 1e-9)")


def test_02_identity_suites():
    """Base-splitting, sign-pairing, minus-one peel and short-theta residuals < 1e-10."""
    worst_qcalc = 0.0
    for ix in range(1, 10):
        x = ix / 10.0
        for z in (0.2, -0.2, 0.6, -0.6):
            for b in (1, 2, 4):
                for c in (1, 2, 4):
                    r1, r2 = verify_qcalc_identities(x, z, b, c)
                    worst_qcalc = max(worst_qcalc, r1, r2)

    worst_peel = max(minus_one_peel_residual((ix / 10.0) ** 4)
                     for ix in range(1, 10))

    worst_theta = 0.0
    for b in (1.0, 2.0, 4.0, 8.0):
        for x in (0.4, 0.5, 0.7):
            worst_theta = max(worst_theta,
                              short_theta_identity_residual(b, ModelPoint.from_x(x)))
    theta_self_dual = short_theta_identity_residual(
        4.0, ModelPoint.from_x(SELF_DUAL_X))

    ok = (worst_qcalc < 1e-10 and worst_peel < 1e-10
          and worst_theta < 1e-10 and theta_self_dual < 1e-12)
    _report(2, ok,
            f"residuals: base-split/sign-pair {worst_qcalc:.3e}, "
            f"minus-one peel {worst_peel:.3e}, short-theta {worst_theta:.3e} "
            f"(all < 1e-10), self-dual theta {theta_self_dual:.3e} (< 1e-12)")


def test_03_modular_property_and_complementarity():
    """k'(x) = k(x~) and k^2 + k'^2 = 1 to 1e-10 on x in [0.3, 0.95]."""
    worst_dual = 0.0
    worst_comp = 0.0
    for ix in range(6, 20):
        x = ix * 0.05
        p = ModelPoint.from_x(x)
        worst_dual = max(worst_dual,
                         abs(modulus_kprime(x) - modulus_k(p.x_dual)))
        worst_comp = max(worst_comp,
                         abs(modulus_k(x) ** 2 + modulus_kprime(x) ** 2 - 1.0))
    ok = worst_dual < 1e-10 and worst_comp < 1e-10
    _report(3, ok,
            f"max |k'(x) - k(x_dual)| = {worst_dual:.3e}, "
            f"max |k^2 + k'^2 - 1| = {worst_comp:.3e} (both < 1e-10)")


def test_04_asymptote_recovery():
    """Fits over eps in [1e-3, 1e-2] recover the leading coefficients."""
    eps_grid = log_spaced(1e-3, 1e-2, 10)
    fit_f = fit_asymptote(collect_minus_ln_f(eps_grid))
    fit_xi = fit_asymptote(collect_ln_xi(eps_grid))

    a_f_ref, b_f_ref = math.pi ** 2 / 16.0, -QUARTER_LN2
    a_xi_ref, b_xi_ref = math.pi ** 2 / 2.0, -math.log(4.0)
    rel_a_f = abs(fit_f.A - a_f_ref) / a_f_ref
    abs_b_f = abs(fit_f.B - b_f_ref)
    rel_a_xi = abs(fit_xi.A - a_xi_ref) / a_xi_ref
    abs_b_xi = abs(fit_xi.B - b_xi_ref)

    ok = (rel_a_f < 1e-3 and abs_b_f < 1e-3
          and rel_a_xi < 1e-3 and abs_b_xi < 1e-3)
    _report(4, ok,
            f"-ln f: A off pi^2/16 by {rel_a_f:.2e} rel, B off -ln2/4 by "
            f"{abs_b_f:.2e}; ln xi: A off pi^2/2 by {rel_a_xi:.2e} rel, "
            f"B off -ln4 by {abs_b_xi:.2e} (all < 1e-3)")


def test_05_conjecture_ratio():
    """-ln f / ln xi hits 0.125 at eps = 1e-4 and approaches it monotonically."""
    devs = [abs(evaluate_point(ModelPoint.from_eps(e)).ratio - 0.125)
            for e in (1e-2, 1e-3, 1e-4)]
    ok = devs[-1] < 1e-3 and devs[0] > devs[1] > devs[2]
    _report(5, ok,
            f"|ratio - 1/8| at eps 1e-2/1e-3/1e-4: "
            f"{devs[0]:.3e} > {devs[1]:.3e} > {devs[2]:.3e}, final < 1e-3")


def test_06_no_log_correction():
    """-ln f minus its asymptote is exactly -eps^2/16 to leading order.

    Any ln(eps) correction would dominate this remainder: one with
    coefficient 1e-8 already moves the ratio by more than 1 at eps = 1e-3.
    """
    worst = max(abs((y - minus_ln_f_reference(e)) / (-e * e / 16.0) - 1.0)
                for e, y in collect_minus_ln_f(log_spaced(1e-3, 1e-2, 10)))
    _report(6, worst < 1e-3,
            f"max |(-ln f - asymptote) / (-eps^2/16) - 1| on eps in "
            f"[1e-3, 1e-2]: {worst:.3e} (< 1e-3)")


def test_07_finite_chain_convergence():
    """Finite-chain f_L approaches the exact f(0.2); solver invariants hold."""
    rows = convergence_study([8, 12, 16], 0.2)
    errors = [r.abs_error for r in rows]
    f_exact = fidelity(ModelPoint.from_x(0.2)).f
    rel_16 = errors[-1] / f_exact
    decreasing = errors[0] > errors[1] > errors[2]

    # split factorization at L=8: the tensor product of half-chain ground
    # states is the split-chain ground state
    spec = SpinChainSpec(8, 0.2)
    split_gs = lowest_pair(split_hamiltonian(spec))[1]
    product = split_product_state(8, _half_ground(4, spec.delta))
    full = lowest_pair(build_hamiltonian(spec))[1]
    via_diag = float(np.dot(full, split_gs)) ** 2
    via_product = float(np.dot(full, product)) ** 2
    split_gap = abs(via_diag - via_product)

    # solver parity at L=12: the package's Lanczos weight against the
    # ground state of a dense eigh, in the unit product state q
    spec = SpinChainSpec(12, 0.2)
    q = split_product_state(12, _half_ground(6, spec.delta))
    _, v = scipy.linalg.eigh(build_hamiltonian(spec).toarray(),
                             subset_by_index=[0, 0])
    f_dense = float(v[:, 0] @ q) ** 2 / float(q @ q)
    parity_gap = abs(bipartite_fidelity_finite(12, 0.2) - f_dense)

    ok = (decreasing and rel_16 <= 0.02 and split_gap < 1e-10
          and parity_gap <= 1e-14)
    _report(7, ok,
            f"|f_L - f| at L=8/12/16: {errors[0]:.3e} > {errors[1]:.3e} > "
            f"{errors[2]:.3e}, L=16 off by {rel_16 * 100:.2f}% (<= 2%); "
            f"split-factorization gap {split_gap:.1e} (< 1e-10), "
            f"Lanczos weight against dense eigh {parity_gap:.1e} (<= 1e-14)")


def test_08_trivial_limits():
    """f(x -> 0) -> 1 and ln g -> (ln 2)/4 with O(eps) deviation."""
    f_small = fidelity(ModelPoint.from_x(1e-6)).f
    dev_f = abs(f_small - 1.0)

    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        devs.append(abs(ln_g_series(ModelPoint.from_eps(eps)) - QUARTER_LN2))
    linear = all(d <= 0.3 * e for d, e in zip(devs, (1e-2, 1e-3, 1e-4)))

    ok = dev_f < 1e-11 and linear and devs[0] > devs[1] > devs[2]
    _report(8, ok,
            f"|f(1e-6) - 1| = {dev_f:.3e} (< 1e-11); |ln g - ln2/4| over eps "
            f"1e-2/1e-3/1e-4: {devs[0]:.2e}/{devs[1]:.2e}/{devs[2]:.2e}, "
            f"each <= 0.3 eps")
