"""Exact bipartite fidelity and correlation length of the infinite
antiferromagnetic XXZ chain, from multi-base q-Pochhammer products, with an
elliptic/modular toolbox, asymptotic-scaling extraction, and a finite-chain
exact-diagonalization cross-check.

The package attribute ``fidelity`` is the route-selector function, not the
module of the same name, which the import below shadows; the module is
reached as ``sys.modules["xxzfidelity.fidelity"]``.
"""
from .ed_oracle import (ConvergenceRow, SpinChainSpec,
                        bipartite_fidelity_finite, convergence_study)
from .elliptic import ModelPoint, log_correlation_length
from .errors import (InvalidSpec, NonConvergent, Overflow, SizeLimit,
                     XXZFidelityError)
from .fidelity import (FidelityResult, Path, fidelity, fidelity_modular,
                       fidelity_raw, fidelity_simplified, identity_report,
                       ln_g_series)
from .qseries import log_multibase_product, qproduct_direct
from .scaling import (AsymptoticFit, PointResult, evaluate_point,
                      fit_asymptote, ln_xi_reference, minus_ln_f_reference)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit", "ConvergenceRow", "FidelityResult", "InvalidSpec",
    "ModelPoint", "NonConvergent", "Overflow", "Path", "PointResult",
    "SizeLimit", "SpinChainSpec", "XXZFidelityError",
    "bipartite_fidelity_finite", "convergence_study", "evaluate_point",
    "fidelity", "fidelity_modular", "fidelity_raw", "fidelity_simplified",
    "fit_asymptote", "identity_report", "ln_g_series", "ln_xi_reference",
    "log_correlation_length", "log_multibase_product",
    "minus_ln_f_reference", "qproduct_direct",
]
