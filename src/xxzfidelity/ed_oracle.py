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
half-chain ground states.  The finite-size fidelity

    f_L = |<gs(H)|gs_left x gs_right>|^2

converges toward the infinite-chain f(x) as L grows; this module is a
verification harness with loose tolerances, not a second route to the
exact result.
"""
from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import ModelPoint
from .errors import InvalidSpec, NonConvergent, SectorMismatch, SizeLimit
from .fidelity import fidelity as _exact_fidelity
from .qseries import DEFAULT_TOL, Tolerance

#: refuse to build sector bases beyond this dimension
SECTOR_DIM_CAP = 200_000
#: below this dimension the dense eigensolver is used (the measured
#: dense-eigh / Lanczos crossover with one BLAS thread)
DENSE_DIM_LIMIT = 250
#: warn when the finite-volume gap shrinks below this
GAP_FLAG = 1e-8


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
        if (not isinstance(self.L, numbers.Integral) or self.L < 4
                or self.L % 2 != 0):
            raise InvalidSpec(f"L must be an even integer >= 4, got {self.L!r}")
        if not (0.0 < self.x < 1.0):
            raise InvalidSpec(f"x must lie in (0,1), got {self.x!r}")
        if not isinstance(self.pinning, Pinning):
            raise InvalidSpec(f"pinning must be a Pinning member, got {self.pinning!r}")

    @property
    def delta(self) -> float:
        return -0.5 * (self.x + 1.0 / self.x)


@dataclass(frozen=True, eq=False)
class GroundState:
    """Lowest eigenpair within one magnetization sector.

    sector is the total-sigma^z eigenvalue (2 * n_up - n_sites); gap is the
    distance to the next eigenvalue when the solver produced one (None for
    one-dimensional sectors).
    """

    energy: float
    amplitudes: np.ndarray
    sector: int
    gap: float | None = None


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


def ground_state(H, sector: int = 0) -> GroundState:
    """Lowest eigenpair of a symmetric operator; deterministic.

    Dense diagonalization, for the two lowest levels only, below
    DENSE_DIM_LIMIT, otherwise a Lanczos solve seeded with the normalized
    all-ones vector.  The gap to the next level is recorded and a warning is
    emitted when it falls below GAP_FLAG, signalling a near-degenerate
    finite-volume ground state.
    """
    dim = H.shape[0]
    if dim < DENSE_DIM_LIMIT:
        import scipy.linalg as sla  # loaded only where a dense solve runs
        dense = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
        w, v = sla.eigh(dense, subset_by_index=[0, min(1, dim - 1)])
        energy = float(w[0])
        vec = v[:, 0]
        gap = float(w[1] - w[0]) if dim > 1 else None
    else:
        import scipy.sparse.linalg as spla  # loaded only where ARPACK runs
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            w, v = spla.eigsh(H, k=2, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise NonConvergent(f"Lanczos failed to converge: {exc}") from exc
        order = np.argsort(w)
        energy = float(w[order[0]])
        vec = v[:, order[0]]
        gap = float(w[order[1]] - w[order[0]])

    vec = np.asarray(vec, dtype=float)
    vec = vec / np.linalg.norm(vec)
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0.0:
        vec = -vec
    if gap is not None and gap < GAP_FLAG:
        warnings.warn(f"near-degenerate ground state: gap = {gap:.3e}",
                      RuntimeWarning)
    return GroundState(energy=energy, amplitudes=vec, sector=sector, gap=gap)


def _half_ground(n_sites: int, delta: float, pinning: Pinning,
                 side: str) -> GroundState:
    """Global ground state of one half-chain, minimized over all sectors.

    The left half keeps the virtual-site-0 field on its first site; the
    right half keeps the virtual-site-(L+1) field on its last site (its
    sign is +1 for even L, continuing the alternating pattern).
    """
    bonds = [(j, j + 1) for j in range(1, n_sites)]
    fields = []
    if pinning is Pinning.NEEL:
        h = -0.5 * delta
        if side == "left":
            fields = [(1, h * _neel_sign(0))]
        else:
            fields = [(n_sites, h * _neel_sign(2 * n_sites + 1))]
    best = None
    for n_up in range(n_sites + 1):
        H = _sector_matrix(n_sites, n_up, bonds, fields, delta)
        gs = ground_state(H, sector=2 * n_up - n_sites)
        if best is None or gs.energy < best.energy:
            best = gs
    return best


def split_product_state(L: int, left: GroundState, right: GroundState) -> np.ndarray:
    """Tensor product of half-chain ground states on the full zero-sector basis.

    Raises SectorMismatch unless the half sectors add up to zero, i.e.
    unless the product state has any weight in the zero sector at all.
    """
    if left.sector + right.sector != 0:
        raise SectorMismatch(
            f"half-chain sectors {left.sector} + {right.sector} != 0")
    half = L // 2
    basis_left = sector_basis(half, (left.sector + half) // 2)
    basis_right = sector_basis(half, (right.sector + half) // 2)
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
    halves).  Unpinned, an odd half-chain has degenerate ground states in
    the sectors +1 and -1, so no unique split state exists and the length
    is rejected.
    """
    spec = SpinChainSpec(L, x, split=False, pinning=pinning)
    if pinning is Pinning.NONE and (L // 2) % 2 == 1:
        raise InvalidSpec(
            f"unpinned L={L} has an odd half, whose ground state is degenerate "
            "in the sectors +1 and -1; use L divisible by 4 or Neel pinning")
    full = ground_state(build_hamiltonian(spec), sector=0)
    delta = spec.delta
    left = _half_ground(L // 2, delta, pinning, "left")
    right = _half_ground(L // 2, delta, pinning, "right")
    product = split_product_state(L, left, right)
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
