"""Reference Hamiltonians that the tests compare the ED oracle against.

The package builds one chain shape per length, the full chain in its even
block.  These two builders reach the shapes it no longer serves through its
own private pieces (_even_states or _sector, then _pattern, then
_hamiltonian), so they give the bits the package would give:

* split_hamiltonian, the chain without its central bond, whose ground state
  is the product of the two half-chain ground states;
* sector_matrix, H on any block of any bonds and fields.

The package solves only the half chains it builds (ground_state), so the
tests solve every other matrix with lowest_pair, a plain dense eigh.

Not a test module: pytest collects nothing here.
"""
import numpy as np
import scipy.linalg as sla

from xxzfidelity.ed_oracle import _even_states, _hamiltonian, _pattern


def split_hamiltonian(spec):
    """H of spec's chain with the central bond L/2 - L/2+1 removed, in the
    even block of build_hamiltonian, Néel fields included: R maps each
    half onto the other, so the block holds the split ground state."""
    L = spec.L
    bonds = [(j, j + 1) for j in range(1, L) if j != L // 2]
    return _hamiltonian(_pattern(_even_states(L), bonds, [(1, 1), (L, -1)]),
                        spec.delta)


def sector_matrix(block, bonds, fields, delta):
    """Sparse symmetric H on a block, as _sector or _even_states returns it.
    bonds are 1-based site pairs; fields are (site, h) pairs adding
    h * sigma^z_site, each h = +-Delta/2."""
    sign = {0.5 * delta: 1, -0.5 * delta: -1}
    return _hamiltonian(_pattern(block, bonds,
                                 [(site, sign[h]) for site, h in fields]),
                        delta)


def lowest_pair(H):
    """The lowest eigenvalue of a sparse symmetric H and its unit vector,
    largest entry positive, from a plain scipy.linalg.eigh of the dense
    matrix."""
    w, v = sla.eigh(H.toarray())
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    return float(w[0]), vec
