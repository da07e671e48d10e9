"""Finite-chain exact-diagonalization cross-check of the product formulas.

A length-L chain carries the Hamiltonian

    H = -1/2 sum_bonds (sx sx + sy sy + Delta sz sz),    Delta = -(x + 1/x)/2,

over all L-1 nearest-neighbor bonds, or with the central bond L/2 - L/2+1
removed for the split chain.  The alternating "+-+-" boundary conditions of
the infinite problem are emulated by Néel pinning fields: virtual sites 0
and L+1 frozen to the alternating pattern couple to the outer spins through
the same -1/2 Delta sz sz exchange, selecting a unique finite-volume ground
state in the massive regime.

Everything is built in a fixed-magnetization sector basis: a sorted int64
array of bitmasks of up spins, in which a state's index is its
``searchsorted`` rank, so the Hamiltonian and the product state are
assembled by numpy array operations, one bond or field at a time.  The full
and split ground states live in the zero sector for even L, and the split
ground state is assembled exactly as the tensor product of the two
half-chain ground states.  Only the left half is diagonalized: reflection
composed with a global spin flip maps it onto the right half, fields
included, so the right ground state is a permutation of the left one's
amplitudes.  The product state then starts the one-eigenpair Lanczos solve
of the full chain.  The finite-size fidelity

    f_L = |<gs(H)|gs_left x gs_right>|^2

converges toward the infinite-chain f(x) as L grows; this module is a
verification harness with loose tolerances, not a second route to the
exact result.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import ModelPoint
from .errors import InvalidSpec, NonConvergent, SizeLimit
from .fidelity import fidelity as _exact_fidelity
from .qseries import DEFAULT_TOL, _LN_HUGE, Tolerance

#: refuse to build sector bases beyond this dimension
SECTOR_DIM_CAP = 200_000
#: below this dimension the dense eigensolver is used (the measured
#: dense-eigh / Lanczos crossover with one BLAS thread)
DENSE_DIM_LIMIT = 250


class Pinning(enum.Enum):
    """Boundary treatment: free ends, or Néel fields on virtual outer sites."""

    NONE = "none"
    NEEL = "neel"


@dataclass(frozen=True)
class SpinChainSpec:
    """Finite-chain description: length, nome, split flag, boundary pinning."""

    L: int
    x: float
    split: bool = False
    pinning: Pinning = Pinning.NEEL

    def __post_init__(self):
        _check_length(self.L)
        if not (0.0 < self.x < 1.0):
            raise InvalidSpec(f"x must lie in (0,1), got {self.x!r}")
        # every diagonal entry of H is bounded by (L + 1) |Delta| / 2; in log
        # space, since a float times an int beyond 1.8e308 raises OverflowError
        if math.log(self.L + 1) + math.log(0.5 * abs(self.delta)) > _LN_HUGE:
            raise InvalidSpec(f"at x={self.x!r} the L={self.L} Hamiltonian "
                              "overflows the float range; x is too small")
        if not isinstance(self.pinning, Pinning):
            raise InvalidSpec(f"pinning must be a Pinning member, got {self.pinning!r}")

    @property
    def delta(self) -> float:
        return -0.5 * (self.x + 1.0 / self.x)


def _check_length(L) -> None:
    """The one rule on a chain length, shared by the spec and the product state."""
    if not isinstance(L, numbers.Integral) or L < 4 or L % 2 != 0:
        raise InvalidSpec(f"L must be an even integer >= 4, got {L!r}")


@dataclass(frozen=True, eq=False)
class GroundState:
    """Lowest eigenpair within one magnetization sector.

    sector is the total-sigma^z eigenvalue (2 * n_up - n_sites).
    """

    energy: float
    amplitudes: np.ndarray
    sector: int


def _neel_sign(site: int) -> int:
    """The frozen alternating pattern, +1 on odd (1-based) sites."""
    return 1 if site % 2 == 1 else -1


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


def _sector_matrix(n_sites, n_up, bonds, fields, delta):
    """Sparse symmetric H in the (n_sites, n_up) sector.

    bonds: (a, b) 1-based site pairs carrying the exchange;
    fields: (site, h) pairs adding h * sigma^z_site.  The diagonal adds the
    bond terms, then the field terms, in the order given.
    """
    basis = sector_basis(n_sites, n_up)
    dim = len(basis)
    diag = np.zeros(dim)
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for a, b in bonds:
        sa = (basis >> (a - 1)) & 1
        sb = (basis >> (b - 1)) & 1
        diag += np.where(sa == sb, -0.5 * delta, 0.5 * delta)
        hop = np.flatnonzero(sa != sb)
        mask = (1 << (a - 1)) | (1 << (b - 1))
        rows.append(hop)
        cols.append(np.searchsorted(basis, basis[hop] ^ mask))
    for site, h in fields:
        diag += np.where((basis >> (site - 1)) & 1, h, -h)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.full(len(rows), -1.0)
    H = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    H = H + sp.diags(diag).tocsr()
    return H


def build_hamiltonian(spec: SpinChainSpec):
    """Sparse symmetric H of the (possibly split) chain in the zero sector."""
    L = spec.L
    n_up = L // 2
    dim = math.comb(L, n_up)
    if dim > SECTOR_DIM_CAP:
        raise SizeLimit(
            f"zero sector of L={L} has dimension {dim} > cap {SECTOR_DIM_CAP}")
    bonds = [(j, j + 1) for j in range(1, L)]
    if spec.split:
        bonds.remove((L // 2, L // 2 + 1))
    fields = []
    if spec.pinning is Pinning.NEEL:
        h = -0.5 * spec.delta
        fields = [(1, h * _neel_sign(0)), (L, h * _neel_sign(L + 1))]
    return _sector_matrix(L, n_up, bonds, fields, spec.delta)


def ground_state(H, sector: int = 0, start=None) -> GroundState:
    """Lowest eigenpair of a symmetric operator; deterministic.

    Dense diagonalization of the lowest level only below DENSE_DIM_LIMIT,
    otherwise a one-eigenpair Lanczos solve started from ``start`` (the
    normalized all-ones vector when None; the dense path ignores it).  The
    returned vector is normalized, with its largest entry positive.

    A start vector needs only overlap with the ground state.  The split
    product state that bipartite_fidelity_finite passes overlaps it by
    sqrt(f_L), about 0.9.  Like the all-ones vector it is symmetric under
    reflection composed with a spin flip, which permutes the zero-sector
    basis and commutes with H, pinned or not.  Either start keeps Lanczos
    in the symmetric subspace, so the product state cannot miss a ground
    state that the all-ones start would find.
    """
    dense = not sp.issparse(H)
    H = np.asarray(H, dtype=float) if dense else H.tocsr()
    if (H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0
            or not np.isfinite(H if dense else H.data).all()):
        raise InvalidSpec(
            f"H must be a non-empty, square, finite matrix, got shape {H.shape}")
    dim = H.shape[0]
    if start is not None:
        start = np.asarray(start, dtype=float)
        if (start.shape != (dim,) or not np.isfinite(start).all()
                or np.linalg.norm(start) == 0.0):
            raise InvalidSpec(
                f"start must be a finite nonzero vector of length {dim}")
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

    vec = v[:, 0] / np.linalg.norm(v[:, 0])
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0.0:
        vec = -vec
    return GroundState(energy=float(w[0]), amplitudes=vec, sector=sector)


def _half_ground(n_sites: int, delta: float, pinning: Pinning) -> GroundState:
    """Global ground state of the left half-chain, minimized over all sectors.

    Pinned, the half keeps the virtual-site-0 field on its first site.
    """
    bonds = [(j, j + 1) for j in range(1, n_sites)]
    fields = []
    if pinning is Pinning.NEEL:
        fields = [(1, -0.5 * delta * _neel_sign(0))]
    best = None
    for n_up in range(n_sites + 1):
        H = _sector_matrix(n_sites, n_up, bonds, fields, delta)
        gs = ground_state(H, sector=2 * n_up - n_sites)
        if best is None or gs.energy < best.energy:
            best = gs
    return best


def _mirror(left: GroundState, n_sites: int) -> GroundState:
    """The right half-chain ground state, as the image of the left one.

    Site j goes to n_sites + 1 - j and every spin flips.  The map commutes
    with the bonds, takes the left field -h on site 1 to the right field +h
    on site n_sites, and takes sector s to -s.  On amplitudes it is a
    permutation: each image mask is ranked in the target sector's basis.
    """
    n_up = (left.sector + n_sites) // 2
    basis = sector_basis(n_sites, n_up)
    image = np.full_like(basis, (1 << n_sites) - 1)
    for j in range(n_sites):
        image ^= ((basis >> j) & 1) << (n_sites - 1 - j)
    target = sector_basis(n_sites, n_sites - n_up)
    amplitudes = np.empty_like(left.amplitudes)
    amplitudes[np.searchsorted(target, image)] = left.amplitudes
    return GroundState(left.energy, amplitudes, -left.sector)


def _half_basis(half: int, gs: GroundState) -> np.ndarray:
    """The sector basis of a half-chain state, checked against its length."""
    n_up, odd = divmod(gs.sector + half, 2)
    basis = sector_basis(half, n_up) if not odd else np.zeros(0, dtype=np.int64)
    if np.shape(gs.amplitudes) != basis.shape:
        raise InvalidSpec(
            f"sector {gs.sector} of a {half}-site half has dimension "
            f"{len(basis)}, got amplitudes of shape {np.shape(gs.amplitudes)}")
    return basis


def split_product_state(L: int, left: GroundState, right: GroundState) -> np.ndarray:
    """Tensor product of half-chain ground states on the full zero-sector basis.

    Raises InvalidSpec unless L is an even integer >= 4, the half sectors
    add up to zero (else the product has no weight in the zero sector) and
    each half's amplitudes span its sector.
    """
    _check_length(L)
    if left.sector + right.sector != 0:
        raise InvalidSpec(
            f"half-chain sectors {left.sector} + {right.sector} != 0")
    half = L // 2
    basis_left = _half_basis(half, left)
    basis_right = _half_basis(half, right)
    basis_full = sector_basis(L, L // 2)
    il, in_left = _rank(basis_left, basis_full & ((1 << half) - 1))
    ir, in_right = _rank(basis_right, basis_full >> half)
    keep = np.flatnonzero(in_left & in_right)
    product = np.zeros(len(basis_full))
    product[keep] = left.amplitudes[il[keep]] * right.amplitudes[ir[keep]]
    return product


def _rank(basis: np.ndarray, masks: np.ndarray):
    """Index of each mask in the sorted basis, and whether it is there."""
    index = np.searchsorted(basis, masks)
    return index, np.append(basis, -1)[index] == masks


def bipartite_fidelity_finite(L: int, x: float,
                              pinning: Pinning = Pinning.NEEL) -> float:
    """f_L = |<gs(full chain)|gs(left half) x gs(right half)>|^2.

    The split ground state is assembled from the half-chain ground states,
    which is both cheaper and exact (the removed bond decouples the
    halves); the right half is the mirror image of the left one.  The
    product state then starts the full-chain solve.  Unpinned, an odd
    half-chain has degenerate ground states in the sectors +1 and -1, so no
    unique split state exists and the length is rejected.  The full-chain
    Hamiltonian is built first, so an oversized L raises SizeLimit before
    any half-chain work.
    """
    spec = SpinChainSpec(L, x, split=False, pinning=pinning)
    if pinning is Pinning.NONE and (L // 2) % 2 == 1:
        raise InvalidSpec(
            f"unpinned L={L} has an odd half, whose ground state is degenerate "
            "in the sectors +1 and -1; use L divisible by 4 or Neel pinning")
    H = build_hamiltonian(spec)
    left = _half_ground(L // 2, spec.delta, pinning)
    product = split_product_state(L, left, _mirror(left, L // 2))
    full = ground_state(H, sector=0, start=product)
    overlap = float(np.dot(full.amplitudes, product))
    return overlap * overlap


@dataclass(frozen=True)
class ConvergenceRow:
    """One line of a convergence study: chain length, f_L, f(x), |f_L - f(x)|."""

    L: int
    f_finite: float
    f_exact: float
    abs_error: float


def convergence_study(Ls, x: float, pinning: Pinning = Pinning.NEEL,
                      tol: Tolerance = DEFAULT_TOL) -> list[ConvergenceRow]:
    """f_L against the exact infinite-chain f(x), computed once at tol."""
    Ls = list(Ls)
    if not Ls:
        return []
    f_exact = _exact_fidelity(ModelPoint.from_x(x), tol).f
    rows = []
    for L in Ls:
        f_L = bipartite_fidelity_finite(L, x, pinning)
        rows.append(ConvergenceRow(L, f_L, f_exact, abs(f_L - f_exact)))
    return rows
