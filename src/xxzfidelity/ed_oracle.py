"""Finite-chain exact-diagonalization cross-check of the product formulas.

A length-L chain carries the Hamiltonian

    H = -1/2 sum_bonds (sx sx + sy sy + Delta sz sz),    Delta = -(x + 1/x)/2,

over all L-1 nearest-neighbor bonds, or with the central bond L/2 - L/2+1
removed for the split chain.  The alternating "+-+-" boundary conditions of
the infinite problem are emulated by Néel pinning fields: virtual sites 0
and L+1 frozen to the alternating pattern couple to the outer spins through
the same -1/2 Delta sz sz exchange, selecting a unique finite-volume ground
state in the massive regime.  The fields are the only boundary: with them
f_L approaches f (at x = 0.2, f_L = 0.910, 0.900 and 0.895 at L = 8, 12
and 16, against f = 0.890), while free ends move away from it (0.805,
0.726 and 0.656).

Everything is built in a fixed-magnetization sector basis: a sorted int64
array of bitmasks of up spins, in which a state's index is its
``searchsorted`` rank, so the Hamiltonian and the product state are
assembled by numpy array operations, one bond or field at a time.

The map R, reflection j -> L+1-j composed with a global spin flip, commutes
with the full, split and half-chain Hamiltonians, Néel fields included.
The full and split ground states live in the zero sector for even L, and
both are even under R, so the full-length chain is built and solved only
in the R-even block of that sector, about half its dimension (the
symmetry-adapted basis of Sandvik, arXiv:1101.3281, section 4).  The split
ground state is assembled exactly as the tensor product of the two
half-chain ground states.  Only the left half is diagonalized, and only in
its Néel sector, where the pinned first spin puts its ground state.  R
maps the left half onto the right one, so the right amplitude on a mask is
the left amplitude on its image.  The product state then starts the
one-eigenpair Lanczos solve of the full chain.  The finite-size fidelity

    f_L = |<gs(H)|gs_left x gs_right>|^2

converges toward the infinite-chain f(x) as L grows; this module is a
verification harness with loose tolerances, not a second route to the
exact result.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import ModelPoint
from .errors import InvalidSpec, NonConvergent, Overflow, SizeLimit
from .fidelity import fidelity as _exact_fidelity
from .qseries import DEFAULT_TOL, _HUGE, Tolerance, _brief

#: refuse to build an even block beyond this dimension (L = 24 has 1,354,126
#: states, L = 26 has 5,204,396)
SECTOR_DIM_CAP = 1_400_000
#: below this dimension the dense eigensolver is used (the measured
#: dense-eigh / Lanczos crossover with one BLAS thread)
DENSE_DIM_LIMIT = 250


@dataclass(frozen=True)
class SpinChainSpec:
    """Finite-chain description: length, nome and split flag; the Néel
    fields are always on.  L is checked before x, by _check_length."""

    L: int
    x: float
    split: bool = False

    def __post_init__(self):
        _check_length(self.L)
        # delta checks x through ModelPoint; every diagonal entry of H is
        # bounded by (L + 1) |Delta| / 2
        if not (self.L + 1) * 0.5 * abs(self.delta) <= _HUGE:
            raise InvalidSpec(f"at x={self.x!r} the L={self.L} Hamiltonian "
                              "overflows the float range; x is too small")
        if not isinstance(self.split, (bool, np.bool_)):
            raise InvalidSpec(f"split must be a bool, got {_brief(self.split)}")

    @property
    def delta(self) -> float:
        return ModelPoint.from_x(self.x).delta


def _check_length(L) -> None:
    """The one rule on a chain length, shared by the spec and the product
    state: InvalidSpec unless L is an even integer >= 4, and SizeLimit
    before any allocation if the even block would exceed SECTOR_DIM_CAP."""
    if not isinstance(L, numbers.Integral) or L < 4 or L % 2 != 0:
        raise InvalidSpec(f"L must be an even integer >= 4, got {_brief(L)}")
    # the block holds the 2^(L/2) self-images, so a long chain is refused
    # before math.comb runs on it
    if L // 2 >= SECTOR_DIM_CAP.bit_length() or _even_dim(L) > SECTOR_DIM_CAP:
        raise SizeLimit(f"the even block of L={_brief(L)} has more than "
                        f"SECTOR_DIM_CAP = {SECTOR_DIM_CAP} states")


@dataclass(frozen=True, eq=False)
class GroundState:
    """Lowest eigenpair of a symmetric operator, as ground_state returns it."""

    energy: float
    amplitudes: np.ndarray


def sector_basis(n_sites: int, n_up: int) -> np.ndarray:
    """All n_sites-bit masks with n_up bits set (site j <-> bit j-1).

    A sorted int64 array, so a state's index is its ``searchsorted`` rank.
    Built site by site from basis(m, k) = basis(m-1, k) followed by
    basis(m-1, k-1) | 1 << (m-1); both parts are sorted and the second lies
    above the first, so the concatenation is sorted.  Only the counts k
    that can still reach n_up are kept, which bounds the memory by a few
    times the final dimension.
    """
    if n_sites > 63:
        raise InvalidSpec(f"int64 masks hold at most 63 sites, got {n_sites}")
    empty = np.zeros(0, dtype=np.int64)
    levels = {0: np.zeros(1, dtype=np.int64)}
    for m in range(1, n_sites + 1):
        bit = np.int64(1) << (m - 1)
        lowest = max(0, n_up - (n_sites - m))
        levels = {k: np.concatenate([levels.get(k, empty),
                                     levels.get(k - 1, empty) | bit])
                  for k in range(lowest, min(m, n_up) + 1)}
    return levels.get(n_up, empty)


def _sector_matrix(n_sites, n_up, bonds, fields, delta, block=None):
    """Sparse symmetric H in the (n_sites, n_up) sector, or in a block of it.

    bonds: (a, b) 1-based site pairs carrying the exchange;
    fields: (site, h) pairs adding h * sigma^z_site.  The diagonal adds the
    bond terms, then the field terms, in the order given.

    block = (rows, column, weight) restricts H to symmetry-adapted states:
    block state r is built on the basis state rows[r], a hop onto basis
    state t lands on block state column[t], and its amplitude h becomes
    h * weight[column[t]] / weight[r].  The default is the whole sector:
    every row, the identity map and unit weights.
    """
    basis = sector_basis(n_sites, n_up)
    if block is None:
        index = np.arange(len(basis), dtype=np.int32)
        block = (index, index, np.ones(len(basis)))
    rows_of, column, weight = block
    states = basis[rows_of]
    dim = len(states)
    diag = np.zeros(dim)
    # int32 indices, the CSR index type, halve the memory of the entries
    rows, cols = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    vals = [np.zeros(0)]
    for a, b in bonds:
        sa = (states >> (a - 1)) & 1
        sb = (states >> (b - 1)) & 1
        diag += np.where(sa == sb, -0.5 * delta, 0.5 * delta)
        hop = np.flatnonzero(sa != sb)
        mask = (1 << (a - 1)) | (1 << (b - 1))
        target = column[np.searchsorted(basis, states[hop] ^ mask)]
        rows.append(hop.astype(np.int32))
        cols.append(target)
        vals.append(-weight[target] / weight[hop])
    for site, h in fields:
        diag += np.where((states >> (site - 1)) & 1, h, -h)
    # the nonzero diagonal joins the same COO list, whose duplicates the CSR
    # conversion sums; one list at a time, so each is freed once joined
    nonzero = np.flatnonzero(diag).astype(np.int32)
    rows.append(nonzero)
    cols.append(nonzero)
    vals.append(diag[nonzero])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def _image(masks: np.ndarray, n_sites: int) -> np.ndarray:
    """Reflection composed with a global spin flip, on bitmasks.

    Site j goes to n_sites + 1 - j and every spin flips.  The map commutes
    with the bonds of the full, split and half chains and takes the Néel
    field -h on site 1 to +h on site n_sites.
    """
    image = np.full_like(masks, (1 << n_sites) - 1)
    for j in range(n_sites):
        image ^= ((masks >> j) & 1) << (n_sites - 1 - j)
    return image


@functools.lru_cache(maxsize=1)
def _even_states(L: int):
    """The R-even states of the zero sector: representatives and weights.

    R is _image on the L-site chain; it maps the zero sector onto itself.
    Each pair {m, R m} is represented by its lower mask, which has the
    lower rank, and spans the normalized state (|m> + |R m>) / sqrt(2); a
    self-image m = R m spans |m> alone.  With n_r = 2 for a self-image and
    1 otherwise, <r|psi> = sqrt(2 / n_r) psi[m_r] for an R-even psi, and
    weight = sqrt(n_r) turns each hop into the standard sqrt(n_r'/n_r)
    matrix element.  Returns (basis, image, rows, weight): the sector
    basis, the image of each of its masks, the basis indices of the
    representatives and their weights.

    build_hamiltonian and split_product_state of one f_L share a single
    result, cached for the last L; its arrays are read-only.
    """
    basis = sector_basis(L, L // 2)
    image = _image(basis, L)
    rows = np.flatnonzero(basis <= image)
    weight = np.where(basis[rows] == image[rows], math.sqrt(2.0), 1.0)
    for array in (basis, image, rows, weight):
        array.flags.writeable = False
    return basis, image, rows, weight


def _even_dim(L: int) -> int:
    """Dimension of the even block: each pair counts once, and the
    2^(L/2) self-images (each site pair j, L+1-j holds one up spin) once."""
    return (math.comb(L, L // 2) + 2 ** (L // 2)) // 2


def build_hamiltonian(spec: SpinChainSpec):
    """Sparse symmetric H of the (possibly split) chain in the even block.

    The block holds the states of the zero sector that are even under
    reflection composed with a global spin flip (see _even_states).  R
    commutes with H, Néel fields included, split or not.  In the full chain
    every off-diagonal entry of H is -1 and hops connect the zero sector,
    so by Perron-Frobenius its ground state is unique and positive, hence
    R-even; the split ground state, a half-chain state times its mirror
    image, is R-even by construction.  So the block loses neither.  The
    spec has already bounded the block by SECTOR_DIM_CAP.  The Néel fields
    freeze the virtual spins to sz_0 = -1 and sz_L+1 = +1.
    """
    L = spec.L
    bonds = [(j, j + 1) for j in range(1, L)]
    if spec.split:
        bonds.remove((L // 2, L // 2 + 1))
    fields = [(1, 0.5 * spec.delta), (L, -0.5 * spec.delta)]
    basis, image, rows, weight = _even_states(L)
    # R permutes the sector, so sorting the images ranks them (several
    # times faster than a searchsorted of the scattered images)
    index = np.arange(len(basis))
    image_rank = np.empty_like(index)
    image_rank[np.argsort(image)] = index
    # basis state i lands on the block state of the lower of i and R i
    column = (np.cumsum(basis <= image, dtype=np.int32) - 1)[
        np.minimum(index, image_rank)]
    return _sector_matrix(L, L // 2, bonds, fields, spec.delta,
                          block=(rows, column, weight))


def ground_state(H, start=None) -> GroundState:
    """Lowest eigenpair of a real symmetric operator; deterministic.

    Dense diagonalization of the lowest level only below DENSE_DIM_LIMIT,
    otherwise a one-eigenpair Lanczos solve started from ``start`` (the
    normalized all-ones vector when None; the dense path ignores it).  Any
    finite vector with a nonzero entry is a valid start: it is scaled by
    its largest magnitude first, so neither its norm nor its square can
    leave the float range.  The returned vector is normalized, with its
    largest entry positive.  H (dense or sparse) and start must hold finite
    real numbers; anything else, complex entries included, is InvalidSpec.

    A start vector needs only overlap with the ground state.  The split
    product state that bipartite_fidelity_finite passes overlaps it by
    sqrt(f_L), about 0.9.  Both lie in the even block of build_hamiltonian,
    which holds no other symmetry sector, so no symmetry can make the start
    orthogonal to the ground state.
    """
    dense = not sp.issparse(H)
    if dense:
        H = _floats(H, "H")
    else:
        H = H.tocsr()
        H = sp.csr_matrix((_floats(H.data, "H"), H.indices, H.indptr),
                          shape=H.shape)
    if (H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0
            or not np.isfinite(H if dense else H.data).all()):
        raise InvalidSpec(
            f"H must be a non-empty, square, finite matrix, got shape {H.shape}")
    dim = H.shape[0]
    if start is not None:
        start = _floats(start, "start")
        if (start.shape != (dim,) or not np.isfinite(start).all()
                or not start.any()):
            raise InvalidSpec(
                f"start must be a finite nonzero vector of length {dim}")
        start = start / np.abs(start).max()
    if dim < DENSE_DIM_LIMIT:
        import scipy.linalg as sla  # loaded only where a dense solve runs
        w, v = sla.eigh(H if dense else H.toarray(), subset_by_index=[0, 0])
    else:
        import scipy.sparse.linalg as spla  # loaded only where ARPACK runs
        if start is None:
            start = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            w, v = spla.eigsh(H, k=1, which="SA", v0=start)
        except spla.ArpackNoConvergence as exc:
            raise NonConvergent(f"Lanczos failed to converge: {exc}") from exc
    if not (np.isfinite(w[0]) and np.isfinite(v[:, 0]).all()):
        raise Overflow(f"the lowest eigenpair of H leaves the float range: {w[0]}")
    vec = v[:, 0] / np.linalg.norm(v[:, 0])
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0.0:
        vec = -vec
    return GroundState(energy=float(w[0]), amplitudes=vec)


def _floats(values, name: str) -> np.ndarray:
    """values as a float array; InvalidSpec unless they are real numbers
    that convert to floats (no complex, text or out-of-range integers)."""
    try:
        values = np.asarray(values)
        if values.dtype.kind != "c":
            return values.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidSpec(f"{name} must hold real numbers that convert to floats")


def _half_ground(n_sites: int, delta: float) -> GroundState:
    """Ground state of the left half-chain, solved in its Néel sector.

    The half keeps the virtual-site-0 field on its first site, which pins
    that site up, so its ground state lies in the sector of the Néel state
    with odd sites up, n_up = ceil(n_sites / 2).  An all-sector scan over
    every half of an admitted chain finds it there, the next sector at
    least 0.26 higher.
    """
    bonds = [(j, j + 1) for j in range(1, n_sites)]
    fields = [(1, 0.5 * delta)]
    return ground_state(_sector_matrix(n_sites, (n_sites + 1) // 2, bonds,
                                       fields, delta))


def split_product_state(L: int, left: GroundState) -> np.ndarray:
    """left x mirror(left) in the even-block coordinates of build_hamiltonian.

    left is a Néel-sector state of the L/2-site left half, as _half_ground
    returns it.  Its mirror, the right half, has on mask h the amplitude
    left[_image(h)], so the product is R-even by construction; its
    coordinate on block state r is
    sqrt(2 / n_r) left[m_r & low] left[_image(m_r >> L/2)].  Raises
    InvalidSpec unless L is an even integer >= 4 and left's amplitudes span
    the Néel sector.
    """
    _check_length(L)
    half = L // 2
    basis_left = sector_basis(half, (half + 1) // 2)
    if np.shape(left.amplitudes) != basis_left.shape:
        raise InvalidSpec(
            f"the Néel sector of a {half}-site half has dimension "
            f"{len(basis_left)}, got amplitudes of shape "
            f"{np.shape(left.amplitudes)}")
    basis, _, rows, weight = _even_states(L)
    states = basis[rows]
    low = states & ((1 << half) - 1)
    il = np.searchsorted(basis_left, low)
    keep = np.flatnonzero(np.append(basis_left, -1)[il] == low)
    # the upper half of a kept state holds the rest of the zero sector's up
    # spins, so its image has as many as the left half and lies in its basis
    ir = np.searchsorted(basis_left, _image(states[keep] >> half, half))
    product = np.zeros(len(states))
    product[keep] = (left.amplitudes[il[keep]] * left.amplitudes[ir]
                     * (math.sqrt(2.0) / weight[keep]))
    return product


def bipartite_fidelity_finite(L: int, x: float) -> float:
    """f_L = |<gs(full chain)|gs(left half) x gs(right half)>|^2, Néel-pinned.

    The split ground state is assembled from the half-chain ground states,
    which is both cheaper and exact (the removed bond decouples the
    halves); the right half is the mirror image of the left one.  The
    product state then starts the full-chain solve.  Both vectors are in
    the orthonormal coordinates of the even block of build_hamiltonian, so
    the overlap is a plain dot product.  The spec is checked first, so an
    oversized L raises SizeLimit before any solve.
    """
    spec = SpinChainSpec(L, x)
    H = build_hamiltonian(spec)
    left = _half_ground(L // 2, spec.delta)
    product = split_product_state(L, left)
    full = ground_state(H, start=product)
    overlap = float(np.dot(full.amplitudes, product))
    return overlap * overlap


@dataclass(frozen=True)
class ConvergenceRow:
    """One line of a convergence study: chain length, f_L, f(x), |f_L - f(x)|."""

    L: int
    f_finite: float
    f_exact: float

    @property
    def abs_error(self) -> float:
        return abs(self.f_finite - self.f_exact)


def convergence_study(Ls, x: float,
                      tol: Tolerance = DEFAULT_TOL) -> list[ConvergenceRow]:
    """Néel-pinned f_L against the exact infinite-chain f(x), computed once
    at tol.  Every length and x are checked before any chain is solved, x
    also when there is no length."""
    specs = [SpinChainSpec(L, x) for L in Ls]
    p = ModelPoint.from_x(x)
    if not specs:
        return []
    f_exact = _exact_fidelity(p, tol).f
    return [ConvergenceRow(spec.L, bipartite_fidelity_finite(spec.L, x),
                           f_exact) for spec in specs]
