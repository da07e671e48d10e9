"""Finite-chain exact-diagonalization cross-check of the product formulas.

A length-L chain carries the Hamiltonian

    H = -1/2 sum_bonds (sx sx + sy sy + Delta sz sz),    Delta = -(x + 1/x)/2,

over all L-1 nearest-neighbor bonds; without the central bond L/2 - L/2+1
it splits into two half chains.  The alternating "+-+-" boundary
conditions of the infinite problem are emulated by Néel pinning fields:
virtual sites 0 and L+1 frozen to the alternating pattern couple to the
outer spins through the same -1/2 Delta sz sz exchange, selecting a unique
finite-volume ground state in the massive regime.  The fields are the
only boundary: with them f_L approaches f (at x = 0.2, f_L = 0.910, 0.900
and 0.895 at L = 8, 12 and 16, against f = 0.890), while free ends move
away from it (0.805, 0.726 and 0.656).

Everything is built by numpy array operations on blocks of
fixed-magnetization sectors.  A block, the whole sector or the R-even part
below, is described once, by the triple (states, index, weight): the
bitmasks of up spins its states are built on, an int32 table over all 2^n
masks that gives each sector mask its block state, and the weight of each
block state.  The Hamiltonian is written straight into its CSR rows, one
bond or field at a time: a hop's target state is a single lookup in
index, a first pass over the bonds lays out the rows and a second fills
them.

Every diagonal term, bond or Néel field, is +-Delta/2, so on a block

    H = K + (Delta/2) diag(k),

where K, the hops -weight[t]/weight[r], and k, one integer per state
with |k| <= L + 1, do not depend on x.  Their structure is built once
per chain length, L for a full chain and n for a half chain, and cached
(_even_block, _half_pattern): K's CSR indptr and indices, its entries as
int8 codes of their few values, the diagonal slots, and k as int8; for
the full chain also the positions and factors of the split product
state.  A call decodes K's entries into a fresh data array and writes
the correctly rounded (Delta/2) k on its diagonal, so H's sparsity
pattern is the same at every x.  A length holds 5 bytes per entry of K
and 13 per block state, with every array read-only: 1.7 MB at L = 18 and
116 MB at L = MAX_LENGTH, where building it takes the 2^L mask table
(64 MB) only while it runs.

The map R, reflection j -> L+1-j composed with a global spin flip, commutes
with the full-chain Hamiltonian, Néel fields included.  The full ground
state and the split one live in the zero sector for even L, and both are
even under R, so the full-length chain is built and solved only in the
R-even block of that sector, about half its dimension (the
symmetry-adapted basis of Sandvik, arXiv:1101.3281, section 4).  The
split ground state is assembled exactly as the tensor product of the two
half-chain ground states.  Only the left half is diagonalized, and only in
its Néel sector, where the pinned first spin puts its ground state.  R
maps the left half onto the right one, so the right amplitude on a mask is
the left amplitude on its image.  The finite-size fidelity

    f_L = |<gs(H)|gs_left x gs_right>|^2

converges toward the infinite-chain f(x) as L grows; this module is a
verification harness with loose tolerances, not a second route to the
exact result.

f_L needs no full-chain ground-state vector.  A Lanczos recurrence
started from the unit product state q (_ground_weight) makes f_L the
Gauss-quadrature weight of the lowest Ritz value of its tridiagonal
matrix, which converges like the eigenvalue; the solve keeps its last two
vectors and stops once its error estimate reaches f_L's rounding floor,
holding no mask table.  It runs on H scaled by its largest |entry|, so no
norm overflows even at |Delta| ~ 1e188 (x ~ 1e-188).  ground_state, which
solves the half chains, takes a dense ``scipy.linalg.eigh`` of the lowest
level; the largest half, the Néel sector of 12 sites at L = MAX_LENGTH,
has 924 states.

A chain is checked once, by SpinChainSpec, which bipartite_fidelity_finite
and convergence_study build before any work.  The stages below it,
sector_basis, build_hamiltonian, ground_state and split_product_state,
take only what the package builds and validate nothing but sector_basis's
63-site limit of int64 masks; they are internal, and keep public names
only because the benchmark's tracer wraps them by name.

numpy and scipy are imported only inside the functions that build or solve
a chain, on their first call, so importing the package, evaluating points
and specifying a chain load neither, and no command but ``ed`` loads scipy;
``ed`` loads ``scipy.sparse`` and ``scipy.linalg`` and no ARPACK.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .elliptic import ModelPoint
from .errors import (_HUGE, _brief, InvalidSpec, NonConvergent, Overflow,
                     SizeLimit)
from .fidelity import fidelity as _exact_fidelity

if TYPE_CHECKING:
    import numpy as np

#: the longest chain built: its even block has 1,354,126 states, and that
#: of L = 26 has 5,204,396
MAX_LENGTH = 24
#: one above the largest half chain, the Néel sector of MAX_LENGTH / 2
#: sites, so every ground_state solve lies below it.  Nothing here reads
#: it: the benchmark's tracer tags a ground_state call at or above it as
#: iterative, and tests/test_imports.py keeps it for that tracer
DENSE_DIM_LIMIT = math.comb(MAX_LENGTH // 2, (MAX_LENGTH // 2 + 1) // 2) + 1
#: error estimate at which _ground_weight stops: f_L's rounding floor.
#: Dense eigh's f_L at L = 12 and 14 (x = 1e-100 to 0.9999) is itself off
#: the stopped weight by up to 2e-15, i.e. a few ulps of a weight in [0.5, 1)
_WEIGHT_TOL = 1e-15
#: products before _ground_weight raises NonConvergent: about six times the
#: longest solve seen, 48 at L = MAX_LENGTH and x = 1 - 1e-6 (40 at
#: L = 20); the count falls with x, to 2 at x = 1e-6
_WEIGHT_STEPS = 300


@dataclass(frozen=True)
class SpinChainSpec:
    """Full-chain description: length and nome; the Néel fields are always
    on.  The one check of a chain: InvalidSpec unless L is an even integer
    >= 4, SizeLimit before any allocation if L > MAX_LENGTH, then
    InvalidSpec for an x that ModelPoint refuses or whose H overflows.  L
    is checked before x, and neither check loads numpy."""

    L: int
    x: float

    def __post_init__(self):
        L = self.L
        if not isinstance(L, numbers.Integral) or L < 4 or L % 2 != 0:
            raise InvalidSpec(f"L must be an even integer >= 4, got {_brief(L)}")
        if L > MAX_LENGTH:
            raise SizeLimit(f"L={_brief(L)} is longer than MAX_LENGTH = {MAX_LENGTH}")
        # delta checks x through ModelPoint; every diagonal entry of H is
        # bounded by (L + 1) |Delta| / 2
        if not (self.L + 1) * 0.5 * abs(self.delta) <= _HUGE:
            raise InvalidSpec(f"at x={self.x!r} the L={self.L} Hamiltonian "
                              "overflows the float range; x is too small")

    @property
    def delta(self) -> float:
        return ModelPoint.from_x(self.x).delta


def sector_basis(n_sites: int, n_up: int) -> np.ndarray:
    """All n_sites-bit masks with n_up bits set (site j <-> bit j-1).

    A sorted int64 array; _sector numbers it through a table over all masks.
    Built site by site from basis(m, k) = basis(m-1, k) followed by
    basis(m-1, k-1) | 1 << (m-1); both parts are sorted and the second lies
    above the first, so the concatenation is sorted.  Only the counts k
    that can still reach n_up are kept, which bounds the memory by a few
    times the final dimension.
    """
    if n_sites > 63:
        raise InvalidSpec(f"int64 masks hold at most 63 sites, got {n_sites}")
    import numpy as np  # loaded only where a finite chain is built
    empty = np.zeros(0, dtype=np.int64)
    levels = {0: np.zeros(1, dtype=np.int64)}
    for m in range(1, n_sites + 1):
        bit = np.int64(1) << (m - 1)
        lowest = max(0, n_up - (n_sites - m))
        levels = {k: np.concatenate([levels.get(k, empty),
                                     levels.get(k - 1, empty) | bit])
                  for k in range(lowest, min(m, n_up) + 1)}
    return levels.get(n_up, empty)


def _sector(n_sites: int, n_up: int):
    """The whole (n_sites, n_up) sector as the block _pattern takes:
    each basis state is its own block state, of unit weight, and index, over
    all 2^n_sites masks, is read only at the sector's."""
    import numpy as np  # loaded only where a finite chain is built
    states = sector_basis(n_sites, n_up)
    index = np.empty(1 << n_sites, dtype=np.int32)
    index[states] = np.arange(len(states), dtype=np.int32)
    return states, index, np.ones(len(states))


class _Pattern(NamedTuple):
    """The x-independent part of H = K + (Delta/2) diag(k) on a block.

    indptr, indices and codes are K in canonical CSR form (rows sorted, no
    duplicates), each entry stored as an int8 code of its value (see
    _hop_values), with code 0 on the diagonal of every row whose k is
    nonzero; slots are the positions of those zeros, and k (int8) the
    count of each, |k| <= L + 1.  Every array is read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    codes: np.ndarray
    slots: np.ndarray
    k: np.ndarray


@functools.lru_cache(maxsize=1)
def _hop_values() -> np.ndarray:
    """K's entry for each code of a _Pattern; read-only.

    A hop from block state r to t is -weight[t] / weight[r], with weights
    1 and sqrt(2) (self-images, flag s = 1): _pattern codes it as
    1 + 2 s_t + 8 s_r, and two hops merged on one entry, which share t and
    r, as twice that.  The eight codes of hops are distinct, and none is
    0, the diagonal slot's.  Each value takes the arithmetic of a float
    build of K, one division and one addition for a merged pair, so the
    decoded entries are that build's bits; int8 codes hold K in an eighth
    of its float size, which keeps a fresh L = MAX_LENGTH call below the
    memory of building the block.
    """
    import numpy as np  # loaded only where a finite chain is built
    values = np.zeros(23)
    weights = (1.0, math.sqrt(2.0))
    for s_t, s_r in ((0, 0), (1, 0), (0, 1), (1, 1)):
        code = 1 + 2 * s_t + 8 * s_r
        values[code] = -weights[s_t] / weights[s_r]
        values[2 * code] = values[code] + values[code]
    values.flags.writeable = False
    return values


def _pattern(block, bonds, fields) -> _Pattern:
    """The _Pattern of H on a block of a fixed-magnetization sector.

    block = (states, index, weight), as _sector or _even_states returns
    it: block state r is built on the mask states[r], a hop onto a sector
    mask t lands on block state index[t], and its amplitude h becomes
    h * weight[index[t]] / weight[r], with weights 1 or sqrt(2).
    bonds: (a, b) 1-based site pairs carrying the exchange;
    fields: (site, sign) pairs adding sign * Delta/2 * sigma^z_site, sign
    +1 or -1.  Every diagonal term is +-Delta/2, so the diagonal is
    Delta/2 times the integer k of each row.

    The CSR arrays are written in two passes.  The first counts each row's
    hops, which lays out the rows and gives k: a bond adds +1 where it
    hops and -1 elsewhere, so k = 2 count - len(bonds) before the fields.
    The second writes each bond's hops into the next free slots of their
    rows, then code 0 on the diagonal of each row with k != 0.
    sum_duplicates then sorts each row, once per pattern, and merges the
    hops onto m and R m that land on one block state; both have the same
    code, so the merged code is its double.  No hop lands on its own block
    state: within a sector the index is one-to-one, and in the R-even
    block m ^ pair = R m would need the two flipped sites to be mirror
    images, which only the central bond's are, and R flips the spins it
    mirrors, so m and R m agree there.  So the zero codes are exactly the
    diagonal slots.  The peak is the block, the pattern and a few arrays
    of the block's dimension.
    """
    import numpy as np  # loaded only where a finite chain is built
    states, index, weight = block
    dim = len(states)

    def hops(pair):
        """Where the bond on the two bits of pair flips its spins."""
        spins = states & pair
        return (spins != 0) & (spins != pair)

    pairs = [(1 << (a - 1)) | (1 << (b - 1)) for a, b in bonds]
    count = np.zeros(dim, dtype=np.int32)
    for pair in pairs:
        count += hops(pair)
    k = count.astype(np.int8)
    k *= 2
    k -= len(pairs)
    for site, sign in fields:
        k += np.where((states >> (site - 1)) & 1, sign, -sign)
    nonzero = np.flatnonzero(k)
    count[nonzero] += 1
    # int32 indices, the CSR index type, halve the memory of the entries
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    codes = np.empty(indptr[-1], dtype=np.int8)
    # the code of each state as a hop's target and as its row
    self_image = (weight != 1.0).astype(np.int8)
    as_target, as_row = 1 + 2 * self_image, 8 * self_image
    # the next free slot of each row; intp indices scatter fastest
    free = indptr[:-1].astype(np.intp)
    for pair in pairs:
        hop = np.flatnonzero(hops(pair))
        target = index[states[hop] ^ pair]
        slot = free[hop]
        indices[slot] = target
        codes[slot] = as_target[target] + as_row[hop]
        free[hop] = slot + 1
    slot = free[nonzero]
    indices[slot] = nonzero
    codes[slot] = 0
    import scipy.sparse as sp  # loaded only where a finite chain is built
    K = sp.csr_matrix((codes, indices, indptr), shape=(dim, dim))
    K.sum_duplicates()
    pattern = _Pattern(K.indptr, K.indices, K.data,
                       np.flatnonzero(K.data == 0), k[nonzero])
    for array in pattern:
        array.flags.writeable = False
    return pattern


def _hamiltonian(pattern: _Pattern, delta: float):
    """H = K + (Delta/2) diag(k) as a CSR matrix: fresh data decoded from
    the pattern's codes, whose diagonal slots get (0.5 * delta) * k, one
    rounding each, and the pattern's read-only indptr and indices."""
    import scipy.sparse as sp  # loaded only where a finite chain is built
    data = _hop_values()[pattern.codes]
    data[pattern.slots] = (0.5 * delta) * pattern.k
    dim = len(pattern.indptr) - 1
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(dim, dim))


def _image(masks: np.ndarray, n_sites: int) -> np.ndarray:
    """Reflection composed with a global spin flip, on bitmasks.

    Site j goes to n_sites + 1 - j and every spin flips.  The map commutes
    with the bonds of an n_sites-site chain and takes the Néel field -h on
    site 1 to +h on site n_sites.  The low half of the bits lands in the
    high half and the other way round, each through one lookup in
    _half_image.
    """
    low = n_sites // 2
    return (_half_image(low)[masks & ((1 << low) - 1)] << (n_sites - low)
            | _half_image(n_sites - low)[masks >> low])


def _half_image(width: int) -> np.ndarray:
    """_image of every width-bit mask, computed bit by bit: the table that
    _image reads for each half of a mask."""
    import numpy as np  # loaded only where a finite chain is built
    masks = np.arange(1 << width, dtype=np.int64)
    image = np.full_like(masks, (1 << width) - 1)
    for j in range(width):
        image ^= ((masks >> j) & 1) << (width - 1 - j)
    return image


def _even_states(L: int):
    """The R-even block of the zero sector, as _pattern takes it.

    R is _image on the L-site chain; it maps the zero sector onto itself.
    Each pair {m, R m} is represented by its lower mask and spans the
    normalized state (|m> + |R m>) / sqrt(2); a self-image m = R m spans
    |m> alone.  With n_r = 2 for a self-image and 1 otherwise,
    <r|psi> = sqrt(2 / n_r) psi[m_r] for an R-even psi, and
    weight = sqrt(n_r) turns each hop into the standard sqrt(n_r'/n_r)
    matrix element.  Returns (states, index, weight): the representatives
    in increasing order, an int32 table over all 2^L masks that holds the
    rank of each representative at both m and R m (64 MB at L =
    MAX_LENGTH), and the weights.  Only _even_block calls it, and drops
    the table before it returns.
    """
    import numpy as np  # loaded only where a finite chain is built
    basis = sector_basis(L, L // 2)
    image = _image(basis, L)
    lower = basis <= image
    states, images = basis[lower], image[lower]
    rank = np.arange(len(states), dtype=np.int32)
    index = np.empty(1 << L, dtype=np.int32)
    index[states] = rank
    index[images] = rank
    weight = np.where(states == images, math.sqrt(2.0), 1.0)
    return states, index, weight


@functools.lru_cache(maxsize=None)
def _even_block(L: int):
    """Everything of the L-site chain's even block that does not depend on
    x, built once per length: (pattern, gather, factor).

    pattern is the _Pattern of H; the Néel fields freeze the virtual spins
    to sz_0 = -1 and sz_L+1 = +1, so site 1 carries the sign +1 and site L
    the sign -1.  gather[i, j] is the block state of the zero-sector mask
    made of the left Néel-sector mask i and the mirror of the left mask j,
    and factor = sqrt(2) / weight there: split_product_state writes
    factor * left[i] left[j] at gather.  The 2^L table of _even_states
    lives only while this runs.  The key space is the MAX_LENGTH / 2 - 1
    even lengths from 4; one holds 1.7 MB at L = 18 and 116 MB at
    L = MAX_LENGTH, mostly K's 17.5 million int32 indices.  Every array is
    read-only.
    """
    import numpy as np  # loaded only where a finite chain is built
    block = _even_states(L)
    _, index, weight = block
    bonds = [(j, j + 1) for j in range(1, L)]
    pattern = _pattern(block, bonds, [(1, 1), (L, -1)])
    half = L // 2
    masks = sector_basis(half, (half + 1) // 2)
    gather = index[masks[:, None] | _image(masks, half) << half]
    factor = math.sqrt(2.0) / weight[gather]
    for array in (gather, factor):
        array.flags.writeable = False
    return pattern, gather, factor


def build_hamiltonian(spec: SpinChainSpec):
    """Sparse symmetric H of the full chain in the even block.

    The block holds the states of the zero sector that are even under
    reflection composed with a global spin flip (see _even_states).  R
    commutes with H, Néel fields included.  In the zero sector every
    off-diagonal entry of H is -1 and hops connect the sector, so by
    Perron-Frobenius its ground state is unique and positive, hence
    R-even, and the block does not lose it.  The spec has already refused
    L > MAX_LENGTH.  H = K + (Delta/2) diag(k): the pattern of K and k is
    built once per L by _even_block, and each call decodes K's entries
    into fresh data and writes the correctly rounded (Delta/2) k on its
    diagonal (_hamiltonian).  The returned H owns its data; its indptr and
    indices are the cache's, read-only.
    """
    pattern = _even_block(spec.L)[0]
    return _hamiltonian(pattern, spec.delta)


def ground_state(H) -> np.ndarray:
    """Lowest eigenvector of a half chain's H, as _half_ground builds it.

    H is a real, exactly symmetric CSR matrix below DENSE_DIM_LIMIT
    states, the Néel sector of a half chain; it is not validated.  A dense
    ``scipy.linalg.eigh`` of the lowest level only, Overflow if the pair
    it returns leaves the float range.  The returned vector is
    normalized, with its largest entry positive.
    """
    import numpy as np  # loaded only where a ground state is solved
    import scipy.linalg as sla
    w, v = sla.eigh(H.toarray(), subset_by_index=[0, 0])
    energy, vec = w[0], v[:, 0]
    if not (np.isfinite(energy) and np.isfinite(vec).all()):
        raise Overflow(f"the lowest eigenpair of H leaves the float range: {energy}")
    vec = vec / np.linalg.norm(vec)
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0.0:
        vec = -vec
    return vec


def _ground_weight(H, start):
    """Weight of H's ground state in start, |<gs|start>|^2 / |start|^2, read
    off the Lanczos tridiagonal: (weight, estimate).

    One unrestarted three-term recurrence runs on A = H / s, s the largest
    |entry| of H (1 for a zero H), so no norm or Rayleigh quotient leaves
    the float range however large or small the entries are; each H v is
    divided by s in place, and H is never copied.  It runs from the unit
    start q and keeps only its current and previous vectors, the alphas
    and the betas.  After step n, T_n's two lowest eigenpairs
    (theta_0, s), (theta_1, .), solved by LAPACK's dstebz and dstein, the
    two routines scipy.linalg.eigh_tridiagonal would call, on views of the
    alpha and beta arrays, give the Gauss-quadrature weight s_0^2 of
    the lowest Ritz value in q, which converges to |<gs|q>|^2 quadratically
    in the Ritz residual r = beta_n |s_(n-1)|, like the eigenvalue and
    unlike the vector (Golub and Meurant, Matrices, Moments and Quadrature
    with Applications, 2010, ch. 6).  estimate = 10 (r / delta)^2, delta =
    theta_1 - theta_0: (r / delta)^2 alone was seen up to 9 times below
    the error (L = 4-14, x = 1e-100 to 0.9999, stops forced at estimates
    of 1e-4 to 1e-12, errors against dense eigh).  The weight is returned
    once estimate <= _WEIGHT_TOL, long before the recurrence loses the
    orthogonality it never restores (Paige, IMA J. Appl. Math. 18 (1976)
    373).  NonConvergent after _WEIGHT_STEPS products, at a step that
    leaves the float range, or when either routine fails.  start is a finite
    nonzero vector, H a finite symmetric CSR matrix whose ground state is
    the lowest level start overlaps.
    """
    import numpy as np  # loaded only where a ground state is solved
    import scipy.linalg as sla
    scale = max(float(H.data.max(initial=0.0)),
                -float(H.data.min(initial=0.0))) or 1.0
    v = start / math.sqrt(start @ start)
    # the previous vector, spent by each step as its scratch; zero before
    # the first, so that step subtracts nothing
    previous, b = np.zeros(len(v)), 0.0
    alpha, beta = np.empty(_WEIGHT_STEPS), np.empty(_WEIGHT_STEPS)
    stebz, stein = sla.lapack.dstebz, sla.lapack.dstein
    for n in range(1, _WEIGHT_STEPS + 1):
        # w = A v - b previous - a v, both terms subtracted in place through
        # the scratch, so a step allocates only the product
        w = H @ v
        w /= scale
        w -= np.multiply(previous, b, out=previous)
        a = v @ w
        w -= np.multiply(v, a, out=previous)
        b = math.sqrt(w @ w)
        alpha[n - 1], beta[n - 1] = a, b
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonConvergent(f"Lanczos step {n} gave alpha {a:.3g} and beta "
                                f"{b:.3g}, a T_{n} that dstebz cannot take")
        if n == 1:  # T_1 = (alpha_0): one Ritz value, no gap yet
            weight, residual, gap = 1.0, b, 0.0
        else:
            d, e = alpha[:n], beta[:n - 1]
            m, theta, iblock, isplit, info = stebz(d, e, 2, 0.0, 0.0, 1, 2,
                                                   0.0, "B")
            routine = "dstebz"
            if not info:
                s, info = stein(d, e, theta[:m], iblock, isplit)
                routine = "dstein"
            if info:
                raise NonConvergent(f"{routine} failed on T_{n} of the "
                                    f"Lanczos recurrence: info {info}")
            low, high = np.argsort(theta[:m])
            weight = float(s[0, low]) ** 2
            residual = b * abs(float(s[-1, low]))
            gap = float(theta[high] - theta[low])
        # a zero residual closes an invariant subspace: the weight is exact
        ratio = residual / gap if gap > 0.0 else math.inf if residual else 0.0
        estimate = 10.0 * ratio * ratio
        if estimate <= _WEIGHT_TOL:
            return weight, estimate
        w *= 1.0 / b
        previous, v = v, w
    raise NonConvergent(
        f"the ground-state weight did not settle after {_WEIGHT_STEPS} Lanczos "
        f"steps: the Ritz residual is {residual:.3g} of the scaled operator "
        f"and the error estimate {estimate:.3g}")


@functools.lru_cache(maxsize=None)
def _half_pattern(n_sites: int) -> _Pattern:
    """The _Pattern of the left half-chain in its Néel sector, built once
    per n_sites: the virtual-site-0 field gives site 1 the sign +1."""
    bonds = [(j, j + 1) for j in range(1, n_sites)]
    return _pattern(_sector(n_sites, (n_sites + 1) // 2), bonds, [(1, 1)])


def _half_ground(n_sites: int, delta: float) -> np.ndarray:
    """Ground-state amplitudes of the left half-chain, solved in its Néel
    sector.

    The half keeps the virtual-site-0 field on its first site, which pins
    that site up, so its ground state lies in the sector of the Néel state
    with odd sites up, n_up = ceil(n_sites / 2).  An all-sector scan over
    every half of an admitted chain finds it there, the next sector at
    least 0.26 higher.
    """
    return ground_state(_hamiltonian(_half_pattern(n_sites), delta))


def split_product_state(L: int, left: np.ndarray) -> np.ndarray:
    """left x mirror(left) in the even-block coordinates of build_hamiltonian.

    L is a length that SpinChainSpec has admitted, and left the Néel-sector
    amplitudes of the L/2-site left half, as _half_ground returns them;
    neither is validated.  The mirror of left, the right half, has on mask
    h the amplitude left[_image(h)].  A left mask i next to a mirrored left
    mask j is a zero-sector mask, whose block state r gets sqrt(2 / n_r)
    left[i] left[j]; its image, the pair (j, i), writes the same bits to
    the same r, so the product is R-even by construction and the even
    block loses none of it.  Other block states stay 0.  The positions r
    and the factors sqrt(2 / n_r) are read from the full chain's
    _even_block, so a call at a length already built makes no mask table.
    """
    import numpy as np  # loaded only where a finite chain is built
    pattern, gather, factor = _even_block(L)
    product = np.zeros(len(pattern.indptr) - 1)
    product[gather] = np.multiply.outer(left, left) * factor
    return product


def bipartite_fidelity_finite(L: int, x: float) -> float:
    """f_L = |<gs(full chain)|gs(left half) x gs(right half)>|^2, Néel-pinned.

    The split ground state is assembled from the half-chain ground states,
    which is both cheaper and exact (the removed bond decouples the
    halves); the right half is the mirror image of the left one.  f_L is
    then the weight of the full chain's ground state in that product
    state, read off the Lanczos recurrence started from it
    (_ground_weight), within about 1e-15; no full-chain vector is formed.
    Both the product state and H are in the orthonormal coordinates of the
    even block of build_hamiltonian, whose ground state is the full
    chain's and which holds no other symmetry sector, so the product state
    overlaps it by sqrt(f_L), about 0.9.  The x-independent structure of
    the half chain and of the full chain is built on the first call at a
    length and cached: a later call at that length, whatever its x, only
    writes two diagonals and solves.  The spec is checked first, so an
    oversized L raises SizeLimit before any solve.
    """
    spec = SpinChainSpec(L, x)
    left = _half_ground(L // 2, spec.delta)
    H = build_hamiltonian(spec)
    return _ground_weight(H, split_product_state(L, left))[0]


@dataclass(frozen=True)
class ConvergenceRow:
    """One line of a convergence study: chain length, f_L, f(x), |f_L - f(x)|."""

    L: int
    f_finite: float
    f_exact: float

    @property
    def abs_error(self) -> float:
        return abs(self.f_finite - self.f_exact)


def convergence_study(Ls, x: float) -> list[ConvergenceRow]:
    """Néel-pinned f_L against the exact infinite-chain f(x), computed once.
    Every length and x are checked before any chain is solved, x also when
    there is no length."""
    specs = [SpinChainSpec(L, x) for L in Ls]
    p = ModelPoint.from_x(x)
    if not specs:
        return []
    f_exact = _exact_fidelity(p).f
    return [ConvergenceRow(spec.L, bipartite_fidelity_finite(spec.L, x),
                           f_exact) for spec in specs]
