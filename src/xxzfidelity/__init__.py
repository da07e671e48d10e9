"""Exact bipartite fidelity and correlation length of the infinite
antiferromagnetic XXZ chain, from multi-base q-Pochhammer products, with an
elliptic/modular toolbox, asymptotic-scaling extraction, and a finite-chain
exact-diagonalization cross-check.
"""
from .ed_oracle import (ConvergenceRow, GroundState, SpinChainSpec,
                        bipartite_fidelity_finite, build_hamiltonian,
                        convergence_study, ground_state, split_product_state)
from .elliptic import (ModelPoint, correlation_length, log_correlation_length,
                       modulus_k, modulus_kprime)
from .errors import (InvalidSpec, NonConvergent, Overflow, SizeLimit,
                     XXZFidelityError)
from .fidelity import (FidelityResult, Path, fidelity,
                       fidelity_modular, fidelity_raw, fidelity_simplified,
                       g_decomposition_residual, g_product, identity_report,
                       ln_g_series, short_theta_identity_residual)
from .qseries import (Tolerance, log_multibase_product,
                      minus_one_peel_residual, qproduct_direct,
                      verify_qcalc_identities)
from .scaling import (AsymptoticFit, collect_ln_xi, collect_minus_ln_f,
                      conjecture_ratio, fit_asymptote, ln_xi_reference,
                      log_spaced, minus_ln_f_reference)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit", "ConvergenceRow", "FidelityResult", "GroundState",
    "InvalidSpec", "ModelPoint", "NonConvergent", "Overflow", "Path",
    "SizeLimit", "SpinChainSpec", "Tolerance", "XXZFidelityError",
    "bipartite_fidelity_finite", "build_hamiltonian", "collect_ln_xi",
    "collect_minus_ln_f", "conjecture_ratio", "convergence_study",
    "correlation_length", "fidelity", "fidelity_modular", "fidelity_raw",
    "fidelity_simplified", "fit_asymptote", "g_decomposition_residual",
    "g_product", "ground_state", "identity_report", "ln_g_series",
    "ln_xi_reference", "log_correlation_length", "log_multibase_product",
    "log_spaced", "minus_ln_f_reference", "minus_one_peel_residual",
    "modulus_k", "modulus_kprime", "qproduct_direct",
    "short_theta_identity_residual", "split_product_state",
    "verify_qcalc_identities",
]
