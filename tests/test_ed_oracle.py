"""Finite-chain exact diagonalization: sector algebra, splits, convergence."""
import ast
import dataclasses
import hashlib
import math
import tracemalloc
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from xxzfidelity import (ConvergenceRow, InvalidSpec, NonConvergent,
                         Overflow, SizeLimit, SpinChainSpec,
                         bipartite_fidelity_finite, convergence_study,
                         fidelity, qseries)
from xxzfidelity.elliptic import ModelPoint
from xxzfidelity import ed_oracle
from xxzfidelity.ed_oracle import (DENSE_DIM_LIMIT, MAX_LENGTH,
                                   _half_ground, _image, _sector,
                                   build_hamiltonian, ground_state,
                                   sector_basis, split_product_state)

from ed_reference import lowest_pair, sector_matrix, split_hamiltonian

#: SHA-256 of the CSR arrays of build_hamiltonian, frozen: see
#: TestBuildHamiltonian.test_bits_are_pinned.  Re-pinned from
#: 8cfcd1495800676b1225b9d7d426f7a7f7cf9da110a6bb65e43c00777251bd0d when
#: the diagonal became the correctly rounded (Delta/2) k instead of a
#: sequential sum of +-Delta/2 terms
H_DIGEST = "a0344799bcbb1530cbdbb1008a5e9ebf937e8ce3071961ae09f9ad15269c4f23"
# frozen finite-size values at x = 0.2, Néel pinning
F_8 = 0.9103850129763998
F_12 = 0.8995519516351791

#: the benchmark's reference module, whose ED_TABLE holds f_L frozen from
#: the ARPACK-based solver at x = 0.1 ... 0.5, L = 8 ... 18
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def _frozen_ed_table():
    """ED_TABLE as its file writes it, read without running the module."""
    for node in ast.parse(REFERENCE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "ED_TABLE":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ED_TABLE in {REFERENCE}")


def _loop_sector_matrix(n_sites, n_up, bonds, fields, delta):
    """Reference builder: one Python pass per basis state, dict ranking.
    Each diagonal entry is the correctly rounded sum of its terms (fsum)."""
    basis = sorted(sum(1 << p for p in positions)
                   for positions in combinations(range(n_sites), n_up))
    index = {m: i for i, m in enumerate(basis)}
    dim = len(basis)
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for i, m in enumerate(basis):
        terms = []
        for a, b in bonds:
            sa = 1.0 if (m >> (a - 1)) & 1 else -1.0
            sb = 1.0 if (m >> (b - 1)) & 1 else -1.0
            terms.append(-0.5 * delta * sa * sb)
            if sa != sb:
                m2 = m ^ ((1 << (a - 1)) | (1 << (b - 1)))
                rows.append(i)
                cols.append(index[m2])
                vals.append(-1.0)
        for site, h in fields:
            s = 1.0 if (m >> (site - 1)) & 1 else -1.0
            terms.append(h * s)
        diag[i] = math.fsum(terms)
    H = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return H + sp.diags(diag).tocsr()


def _reflect_flip(m, n):
    """Reference reflection j -> n+1-j with every spin flipped, bit by bit."""
    return sum(1 << (n - 1 - j) for j in range(n) if not (m >> j) & 1)


def _even_dim(L):
    """Reference dimension of the even block: each pair {m, R m} counts
    once, and the 2^(L/2) self-images (each site pair j, L+1-j holds one
    up spin) once."""
    return (math.comb(L, L // 2) + 2 ** (L // 2)) // 2


def _loop_split_product_state(L, left):
    """Reference product state of a Néel-sector left half and its mirror:
    one dict lookup per full-chain basis state."""
    half = L // 2
    index_left = {m: i for i, m in enumerate(
        sector_basis(half, (half + 1) // 2).tolist())}
    basis_full = sector_basis(L, L // 2).tolist()
    product = np.zeros(len(basis_full))
    for i, m in enumerate(basis_full):
        il = index_left.get(m & ((1 << half) - 1))
        ir = index_left.get(_reflect_flip(m >> half, half))
        if il is not None and ir is not None:
            product[i] = left[il] * left[ir]
    return product


def _half_by_n_up(n, delta, field):
    """All-sector scan of a half chain with one Néel field (site, h): the
    lowest pair for each number of up spins."""
    bonds = [(j, j + 1) for j in range(1, n)]
    return {n_up: lowest_pair(sector_matrix(_sector(n, n_up), bonds,
                                            [field], delta))
            for n_up in range(n + 1)}


def _right_half(n, delta):
    """Independent right-half solve: the field of the up virtual spin on
    site n, in the sector that completes the left half's Néel sector."""
    bonds = [(j, j + 1) for j in range(1, n)]
    return lowest_pair(sector_matrix(_sector(n, n // 2), bonds,
                                     [(n, -0.5 * delta)], delta))


def _half_hamiltonian(n, delta):
    """The left half chain's H as _half_ground hands it to ground_state."""
    return ed_oracle._hamiltonian(ed_oracle._half_pattern(n), delta)


def _clear_caches():
    """Drop every cached pattern, so that the next build is cold."""
    ed_oracle._even_block.cache_clear()
    ed_oracle._half_pattern.cache_clear()


def _csr_arrays(H):
    """Copies of H's CSR arrays."""
    return tuple(a.copy() for a in (H.indptr, H.indices, H.data))


def _same_arrays(a, b):
    """Equal CSR array tuples: the same dtypes and the same entries (==)."""
    return all(u.dtype == v.dtype and np.array_equal(u, v)
               for u, v in zip(a, b, strict=True))


def _reference_k(states, bonds, fields):
    """The diagonal of H in units of Delta/2, mask by mask in Python: -1
    for each aligned bond, +1 for each anti-aligned one, sign * sz for
    each field (site, sign)."""
    def sz(m, site):
        return 1 if (m >> (site - 1)) & 1 else -1
    return np.array([sum(-sz(m, a) * sz(m, b) for a, b in bonds)
                     + sum(sign * sz(m, site) for site, sign in fields)
                     for m in states.tolist()])


class TestSpinChainSpec:
    def test_delta(self):
        assert SpinChainSpec(8, 0.5).delta == pytest.approx(-1.25, rel=1e-15,
                                                            abs=0)
        assert SpinChainSpec(8, 0.2).delta == pytest.approx(-2.6, rel=1e-15,
                                                            abs=0)

    def test_defaults(self):
        # a spec is its length and nome, with nothing else to set: the
        # package builds one chain shape per length
        spec = SpinChainSpec(8, 0.5)
        assert [f.name for f in dataclasses.fields(spec)] == ["L", "x"]
        assert spec == SpinChainSpec(L=8, x=0.5)
        with pytest.raises(TypeError):
            SpinChainSpec(8, 0.5, True)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            SpinChainSpec(2, 0.5)
        with pytest.raises(InvalidSpec):
            SpinChainSpec(7, 0.5)
        for bad_L in (8.0, 8.5, "8"):
            with pytest.raises(InvalidSpec):
                SpinChainSpec(bad_L, 0.5)
        with pytest.raises(InvalidSpec):
            bipartite_fidelity_finite(8.0, 0.3)
        with pytest.raises(InvalidSpec):
            convergence_study([8.0], 0.3)
        for bad_x in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(InvalidSpec):
                SpinChainSpec(8, bad_x)

    def test_rejects_x_whose_hamiltonian_overflows(self):
        # Delta = -5e307, so (L + 1) |Delta| / 2 leaves the float range
        with pytest.raises(InvalidSpec):
            SpinChainSpec(8, 1e-308)
        with pytest.raises(InvalidSpec):
            SpinChainSpec(8, 1e-310)
        # a chain too long to solve is refused as such, whatever x is
        with pytest.raises(SizeLimit):
            SpinChainSpec(10 ** 400, 0.5)
        assert SpinChainSpec(8, 1e-300).delta == pytest.approx(-5e299)
        assert bipartite_fidelity_finite(8, 1e-300) == 1.0

    def test_frozen(self):
        spec = SpinChainSpec(8, 0.5)
        with pytest.raises(AttributeError):
            spec.L = 10


class TestSectorBasis:
    def test_small_enumeration(self):
        assert sector_basis(4, 2).tolist() == [0b0011, 0b0101, 0b0110, 0b1001,
                                               0b1010, 0b1100]
        assert sector_basis(3, 0).tolist() == [0]
        assert sector_basis(3, 3).tolist() == [0b111]

    def test_counts(self):
        for n, k in ((6, 3), (8, 4), (10, 2)):
            basis = sector_basis(n, k)
            assert len(basis) == math.comb(n, k)
            assert basis.tolist() == sorted(basis.tolist())
            assert all(bin(m).count("1") == k for m in basis.tolist())

    def test_matches_combinations(self):
        for n in range(11):
            for k in range(n + 1):
                masks = sorted(sum(1 << p for p in positions)
                               for positions in combinations(range(n), k))
                basis = sector_basis(n, k)
                assert basis.dtype == np.int64
                assert np.array_equal(basis, masks), (n, k)

    def test_widest_mask(self):
        assert sector_basis(63, 1)[-1] == 1 << 62
        with pytest.raises(InvalidSpec):
            sector_basis(64, 1)


class TestSectorMatrix:
    def test_two_site_analytic(self):
        # zero-magnetization block of a single bond is [[d/2, -1], [-1, d/2]]
        delta = -2.6
        M = sector_matrix(_sector(2, 1), [(1, 2)], [], delta)
        assert M.toarray() == pytest.approx(
            np.array([[delta / 2.0, -1.0], [-1.0, delta / 2.0]]))
        energy, vec = lowest_pair(M)
        assert energy == pytest.approx(delta / 2.0 - 1.0, rel=1e-14, abs=0)
        assert vec == pytest.approx(np.full(2, 1.0 / math.sqrt(2.0)),
                                    rel=1e-14, abs=0)

    def test_full_spectrum_against_dense_kron(self):
        # independent construction on the unreduced 2^L space
        I2 = np.eye(2)
        SX = np.array([[0.0, 1.0], [1.0, 0.0]])
        SY = np.array([[0.0, -1.0], [1.0, 0.0]]) * 1j
        SZ = np.diag([1.0, -1.0])

        def site_op(n, j, P):
            out = np.array([[1.0 + 0j]])
            for k in range(1, n + 1):
                out = np.kron(out, P if k == j else I2)
            return out

        L, x = 4, 0.2
        delta = -0.5 * (x + 1.0 / x)
        h = -0.5 * delta
        H = np.zeros((16, 16), complex)
        for j in range(1, L):
            H += -0.5 * (site_op(L, j, SX) @ site_op(L, j + 1, SX)
                         + site_op(L, j, SY) @ site_op(L, j + 1, SY)
                         + delta * site_op(L, j, SZ) @ site_op(L, j + 1, SZ))
        # virtual spins down on site 0 and up on site L+1
        H -= h * site_op(L, 1, SZ)
        H += h * site_op(L, L, SZ)
        assert np.max(np.abs(H.imag)) < 1e-14
        dense_spectrum = np.sort(np.linalg.eigvalsh(H.real))

        bonds = [(j, j + 1) for j in range(1, L)]
        fields = [(1, -h), (L, h)]
        sector_spectrum = np.sort(np.concatenate([
            np.linalg.eigvalsh(sector_matrix(_sector(L, n), bonds, fields,
                                             delta).toarray())
            for n in range(L + 1)]))
        assert sector_spectrum == pytest.approx(dense_spectrum, abs=1e-12)

    def test_matches_loop_builder(self):
        # same CSR arrays, bit for bit, in every sector of short chains
        delta = SpinChainSpec(8, 0.2).delta
        h = -0.5 * delta
        for n in range(2, 11):
            for split in (False, True):
                bonds = [(j, j + 1) for j in range(1, n)]
                if split:
                    bonds.remove((n // 2, n // 2 + 1))
                for fields in ([], [(1, -h), (n, h * (-1) ** n)]):
                    for n_up in range(n + 1):
                        new = sector_matrix(_sector(n, n_up), bonds, fields,
                                            delta)
                        old = _loop_sector_matrix(n, n_up, bonds, fields, delta)
                        for attr in ("indptr", "indices", "data"):
                            a, b = getattr(new, attr), getattr(old, attr)
                            assert a.dtype == b.dtype, (n, n_up, split, attr)
                            assert np.array_equal(a, b), (n, n_up, split, attr)

    def test_hermitian(self):
        spec = SpinChainSpec(8, 0.2)
        for H in (build_hamiltonian(spec), split_hamiltonian(spec)):
            assert abs(H - H.T).max() < 1e-14


class TestBuildHamiltonian:
    def test_split_removes_central_bond_only(self):
        spec = SpinChainSpec(8, 0.2)
        full, split = build_hamiltonian(spec), split_hamiltonian(spec)
        assert full.shape == split.shape == (43, 43)
        assert (full != split).nnz > 0

    def test_size_limit(self):
        # L = 24 is the longest admitted chain; only its length is checked
        # here, by the spec, so no Hamiltonian is built
        assert SpinChainSpec(MAX_LENGTH, 0.2).L == MAX_LENGTH == 24
        for L in (26, 64, 10 ** 300):
            with pytest.raises(SizeLimit, match="MAX_LENGTH = 24"):
                SpinChainSpec(L, 0.2)

    def test_neel_fields_continue_the_boundary_pattern(self):
        # with the virtual spins down on site 0 and up on site L+1, the Néel
        # state with odd sites up is the one diagonal state at the bound
        # -(L + 1)|Delta|/2 of SpinChainSpec; free ends would tie it with
        # its spin flip
        for L in (4, 8, 12):
            spec = SpinChainSpec(L, 0.3)
            diag = build_hamiltonian(spec).diagonal()
            states, _, _ = ed_oracle._even_states(L)
            neel = sum(1 << (j - 1) for j in range(1, L + 1, 2))
            lowest = np.flatnonzero(diag == diag.min())
            assert states[lowest].tolist() == [neel]
            assert diag.min() == pytest.approx((L + 1) * 0.5 * spec.delta,
                                               rel=1e-15, abs=0)

    def test_even_dimension(self):
        # one state per {m, R m} pair, the 2^(L/2) self-images counted once
        for L in range(4, 15, 2):
            basis = sector_basis(L, L // 2)
            image = _image(basis, L)
            assert _even_dim(L) == np.count_nonzero(basis <= image)
            assert np.count_nonzero(basis == image) == 2 ** (L // 2)
            assert build_hamiltonian(SpinChainSpec(L, 0.3)).shape == (
                _even_dim(L),) * 2
        assert [_even_dim(L) for L in (8, 12, 16, 18, 22, 24)] == [
            43, 494, 6563, 24566, 353740, 1354126]

    def test_block_map(self):
        # the representatives are the masks m <= R m in increasing order,
        # each is its own block state, and every mask of the zero sector
        # and its image land on the same one
        for L in range(4, 15, 2):
            states, index, weight = ed_oracle._even_states(L)
            basis = sector_basis(L, L // 2).tolist()
            images = [_reflect_flip(m, L) for m in basis]
            assert states.tolist() == [m for m, image in zip(basis, images)
                                       if m <= image]
            assert index.dtype == np.int32 and index.shape == (1 << L,)
            assert np.array_equal(index[states], np.arange(_even_dim(L)))
            assert np.array_equal(index[basis], index[images]), L
            self_image = [_reflect_flip(m, L) == m for m in states.tolist()]
            assert np.array_equal(weight == math.sqrt(2.0), self_image)

    def test_block_built_once_per_shape(self, monkeypatch):
        # one pattern per shape, the half chain's and the full chain's,
        # across f_L calls at different x, shared by H and the product
        # state; the 2^L mask table is built once and none is alive while
        # the half chain or the full chain is solved
        even_states, pattern = ed_oracle._even_states, ed_oracle._pattern
        tables, built, alive = [], [], []

        def tracked_states(L):
            block = even_states(L)
            tables.append(weakref.ref(block[1]))
            return block

        def counting_pattern(block, bonds, fields):
            built.append(len(block[0]))
            return pattern(block, bonds, fields)

        def watched(name):
            solve = getattr(ed_oracle, name)

            def watched_solve(*args, **kwargs):
                alive.append((name, sum(table() is not None
                                        for table in tables)))
                return solve(*args, **kwargs)
            monkeypatch.setattr(ed_oracle, name, watched_solve)

        monkeypatch.setattr(ed_oracle, "_even_states", tracked_states)
        monkeypatch.setattr(ed_oracle, "_pattern", counting_pattern)
        watched("ground_state")
        watched("_ground_weight")
        _clear_caches()
        bipartite_fidelity_finite(8, 0.3)
        bipartite_fidelity_finite(8, 0.7)
        # the Néel sector of the 4-site half has 6 states, the even block 43
        assert built == [6, 43]
        assert len(tables) == 1
        assert alive == [("ground_state", 0), ("_ground_weight", 0)] * 2

    def test_bits_are_pinned(self):
        # SHA-256 of every CSR array with its dtype, L = 4-16, x = 0.05,
        # 0.3 and 0.7, full and split (the split H built by the test
        # reference): a change to any bit of any H fails here.  The build
        # calls no BLAS, so the digest holds at any BLAS thread count
        digest = hashlib.sha256()
        for L in range(4, 17, 2):
            for x in (0.05, 0.3, 0.7):
                spec = SpinChainSpec(L, x)
                for H in (build_hamiltonian(spec), split_hamiltonian(spec)):
                    for a in (H.indptr, H.indices, H.data):
                        digest.update(str(a.dtype).encode())
                        digest.update(a.tobytes())
        assert digest.hexdigest() == H_DIGEST

    def test_even_block_spectrum_lies_in_the_zero_sector(self):
        # R-even levels are zero-sector levels, and the lowest one is shared
        for L in range(4, 13, 2):
            spec = SpinChainSpec(L, 0.3)
            for split, build in ((False, build_hamiltonian),
                                 (True, split_hamiltonian)):
                bonds = [(j, j + 1) for j in range(1, L)]
                if split:
                    bonds.remove((L // 2, L // 2 + 1))
                h = -0.5 * spec.delta
                full = np.linalg.eigvalsh(_loop_sector_matrix(
                    L, L // 2, bonds, [(1, -h), (L, h)], spec.delta).toarray())
                even = np.linalg.eigvalsh(build(spec).toarray())
                nearest = np.abs(even[:, None] - full[None, :]).min(axis=1)
                case = (L, split)
                assert nearest.max() < 1e-12, case
                assert abs(even[0] - full[0]) < 1e-12, case

    def test_block_matches_projected_loop_builder(self):
        # the even block against P^T H P, H the loop builder's zero sector
        # and P the orthonormal R-even basis, one column per representative
        # m <= R m in increasing order, built from _reflect_flip.  The
        # diagonals of m and R m add the same L + 1 terms of size |Delta|/2
        # in different orders, so the two sides may part by a few ulps of
        # that sum; at most 8 ulps of |Delta| were seen (L = 10, 12)
        for L in range(4, 13, 2):
            basis = sorted(sum(1 << p for p in positions)
                           for positions in combinations(range(L), L // 2))
            rank = {m: i for i, m in enumerate(basis)}
            reps = [m for m in basis if m <= _reflect_flip(m, L)]
            P = np.zeros((len(basis), len(reps)))
            for r, m in enumerate(reps):
                image = _reflect_flip(m, L)
                P[rank[m], r] = P[rank[image], r] = (
                    1.0 if image == m else math.sqrt(0.5))
            for x in (0.05, 0.3, 0.7):
                spec = SpinChainSpec(L, x)
                for split, build in ((False, build_hamiltonian),
                                     (True, split_hamiltonian)):
                    bonds = [(j, j + 1) for j in range(1, L)]
                    if split:
                        bonds.remove((L // 2, L // 2 + 1))
                    h = -0.5 * spec.delta
                    H = _loop_sector_matrix(L, L // 2, bonds,
                                            [(1, -h), (L, h)],
                                            spec.delta).toarray()
                    block = build(spec).toarray()
                    ulps = (np.abs(block - P.T @ H @ P).max()
                            / np.spacing(abs(spec.delta)))
                    assert ulps <= L, (L, x, split, ulps)

    def test_build_peak_memory(self):
        # a cold build: the two-pass pattern build holds the pattern, a few
        # arrays of the block's dimension and the 2^L mask table (1 MB
        # here), then H's data is decoded, about 1.4 times H in all
        _clear_caches()
        tracemalloc.start()
        try:
            H = build_hamiltonian(SpinChainSpec(18, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr_bytes = H.data.nbytes + H.indices.nbytes + H.indptr.nbytes
        assert peak <= 2.25 * csr_bytes, peak / csr_bytes


#: x from the deep Ising limit to next to the gapless point
PATTERN_XS = (1e-300, 1e-8, 0.05, 0.3, 0.7, 1.0 - 1e-12)
#: the x grid of the cache tests
CACHE_XS = (1e-100, 0.05, 0.3, 0.7, 0.999)


class TestStructureCache:
    def test_pattern_and_diagonal_do_not_depend_on_x(self, monkeypatch):
        # H = K + (Delta/2) diag(k): at every x the same CSR pattern, and
        # the diagonal is (0.5 * delta) * k, bit for bit, with k counted
        # mask by mask.  A sequential sum of the +-Delta/2 terms leaves a
        # residue of a few ulps on rows whose k is 0, which stores an entry
        # there at some x and not at others
        for L in range(4, 17, 2):
            states = ed_oracle._even_states(L)[0]
            for split, build in ((False, build_hamiltonian),
                                 (True, split_hamiltonian)):
                bonds = [(j, j + 1) for j in range(1, L)]
                if split:
                    bonds.remove((L // 2, L // 2 + 1))
                k = _reference_k(states, bonds, [(1, 1), (L, -1)])
                first = None
                for x in PATTERN_XS:
                    spec = SpinChainSpec(L, x)
                    H = build(spec)
                    first = first or (H.indptr.copy(), H.indices.copy())
                    case = (L, split, x)
                    assert np.array_equal(H.indptr, first[0]), case
                    assert np.array_equal(H.indices, first[1]), case
                    assert np.array_equal(H.diagonal(),
                                          (0.5 * spec.delta) * k), case
        # the half chains, as _half_ground hands them to ground_state
        seen = []
        monkeypatch.setattr(ed_oracle, "ground_state", seen.append)
        for n in range(2, 10):
            states = sector_basis(n, (n + 1) // 2)
            k = _reference_k(states, [(j, j + 1) for j in range(1, n)],
                             [(1, 1)])
            first = None
            for x in PATTERN_XS:
                delta = SpinChainSpec(4, x).delta
                _half_ground(n, delta)
                H = seen.pop()
                first = first or (H.indptr.copy(), H.indices.copy())
                case = (n, x)
                assert np.array_equal(H.indptr, first[0]), case
                assert np.array_equal(H.indices, first[1]), case
                assert np.array_equal(H.diagonal(), (0.5 * delta) * k), case

    def test_results_do_not_depend_on_the_cache(self):
        # f_L and every CSR array of build_hamiltonian are the same (==)
        # from a cold cache, whichever of the two is called first, and from
        # a cache warmed by the other x, in either order
        for L in range(4, 19, 2):
            def arrays(x):
                return _csr_arrays(build_hamiltonian(SpinChainSpec(L, x)))

            cold = {}
            for x in CACHE_XS:
                _clear_caches()
                cold[x] = bipartite_fidelity_finite(L, x), arrays(x)
                _clear_caches()
                H_first = arrays(x)
                assert bipartite_fidelity_finite(L, x) == cold[x][0], (L, x)
                assert _same_arrays(H_first, cold[x][1]), (L, x)
            for order in (CACHE_XS, CACHE_XS[::-1]):
                _clear_caches()
                for x in order:
                    f = bipartite_fidelity_finite(L, x)
                    assert f == cold[x][0], (L, x)
                    assert _same_arrays(arrays(x), cold[x][1]), (L, x)

    def test_writing_into_H_changes_no_later_result(self):
        spec = SpinChainSpec(10, 0.3)
        H = build_hamiltonian(spec)
        reference = _csr_arrays(H)
        f = bipartite_fidelity_finite(10, 0.3)
        H.data[:] = 7.0
        # the shared pattern arrays refuse writes
        with pytest.raises(ValueError):
            H.indices[0] = 1
        with pytest.raises(ValueError):
            H.indptr[1] = 0
        assert _same_arrays(_csr_arrays(build_hamiltonian(spec)), reference)
        assert bipartite_fidelity_finite(10, 0.3) == f

    def test_cached_arrays_are_read_only(self):
        bipartite_fidelity_finite(8, 0.3)
        pattern, gather, factor = ed_oracle._even_block(8)
        cached = [ed_oracle._hop_values(), *ed_oracle._half_pattern(4),
                  *pattern, gather, factor]
        assert len(cached) == 1 + 5 + 7
        assert not any(a.flags.writeable for a in cached)


class TestGroundState:
    def test_normalized_pivot_positive_deterministic(self):
        # the halves of L = 8 and 12
        for n in (4, 6):
            H = _half_hamiltonian(n, SpinChainSpec(2 * n, 0.2).delta)
            a = ground_state(H)
            b = ground_state(H)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12
            assert a[np.argmax(np.abs(a))] > 0.0
            assert np.array_equal(a, b)

    def test_lowest_level_matches_a_full_eigh(self):
        # the halves of the benchmark's lengths, L = 12 to 18
        for n in range(6, 10):
            H = _half_hamiltonian(n, SpinChainSpec(2 * n, 0.2).delta)
            assert np.max(np.abs(ground_state(H) - lowest_pair(H)[1])) < 1e-10

    def test_residual_on_the_largest_half_chain(self):
        # the Néel sector of L = MAX_LENGTH, at the Rayleigh quotient
        n = MAX_LENGTH // 2
        H = _half_hamiltonian(n, SpinChainSpec(MAX_LENGTH, 0.2).delta)
        assert H.shape[0] == DENSE_DIM_LIMIT - 1
        vec = ground_state(H)
        residual = H @ vec - (vec @ (H @ vec)) * vec
        assert np.linalg.norm(residual) < 1e-10

    def test_every_admitted_half_chain_is_below_the_limit(self):
        for L in range(4, MAX_LENGTH + 1, 2):
            n = L // 2
            assert len(sector_basis(n, (n + 1) // 2)) < DENSE_DIM_LIMIT, L

    def test_one_dimensional_sector(self):
        H = sector_matrix(_sector(2, 0), [(1, 2)], [], -2.6)
        assert H.toarray() == pytest.approx(-0.5 * (-2.6), rel=1e-15, abs=0)
        assert ground_state(H).tolist() == [1.0]

    def test_near_degenerate_solve_finds_the_lowest_level(self):
        # free ends and nearly classical: the two Néel states barely split
        delta = SpinChainSpec(8, 1e-4).delta
        bonds = [(j, j + 1) for j in range(1, 8)]
        H = sector_matrix(_sector(8, 4), bonds, [], delta)
        lowest = sla.eigh(H.toarray(), eigvals_only=True)[0]
        vec = ground_state(H)
        assert vec @ (H @ vec) == pytest.approx(lowest, rel=1e-14, abs=0)

    @pytest.mark.parametrize("L", [12, 14])
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.99])
    def test_lanczos_matches_dense_eigh(self, L, x):
        # the package's one Lanczos, the full-chain weight read from the
        # split product state, against the dense ground state
        H, product, f_dense = _full_chain(L, x)
        assert abs(ed_oracle._ground_weight(H, product)[0] - f_dense) <= 1e-14

    def test_eigenvalue_beyond_the_float_range_raises_overflow(self):
        # finite entries whose lowest eigenvalue the solver cannot represent
        big = np.finfo(float).max
        with pytest.raises(Overflow):
            ground_state(sp.csr_matrix([[0.0, big], [big, 0.0]]))


class TestSplitStructure:
    def test_energy_additivity(self):
        # removed central bond decouples the halves exactly
        spec = SpinChainSpec(8, 0.2)
        energy = lowest_pair(split_hamiltonian(spec))[0]
        left = _half_ground(4, spec.delta)
        left_energy = left @ (_half_hamiltonian(4, spec.delta) @ left)
        right_energy = _right_half(4, spec.delta)[0]
        assert abs(energy - left_energy - right_energy) < 1e-12

    def test_product_state_factorizes_split_ground_state(self):
        spec = SpinChainSpec(8, 0.2)
        split = lowest_pair(split_hamiltonian(spec))[1]
        product = split_product_state(8, _half_ground(4, spec.delta))
        assert abs(np.linalg.norm(product) - 1.0) < 1e-12
        assert abs(abs(np.dot(split, product)) - 1.0) < 1e-10

    def test_half_ground_state_lies_in_the_neel_sector(self):
        # the all-sector scan is the reference for solving one sector: on
        # every half of an admitted chain (L <= 24) the pinned first spin
        # puts the lowest level at ceil(n/2) up spins, and the right half's
        # ground state reads the left amplitudes through _image
        for x in (1e-3, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-9):
            delta = SpinChainSpec(8, x).delta
            for n in range(2, 13):
                case = (x, n)
                by_n_up = _half_by_n_up(n, delta, (1, 0.5 * delta))
                lowest = min(by_n_up, key=lambda k: by_n_up[k][0])
                assert lowest == (n + 1) // 2, case
                energy, reference = by_n_up[lowest]
                left = _half_ground(n, delta)
                assert abs(np.dot(left, reference) - 1.0) < 1e-12, case
                right_energy, right = _right_half(n, delta)
                assert abs(right_energy - energy) < 1e-11 * n, case
                mirrored = left[np.searchsorted(
                    sector_basis(n, lowest), _image(sector_basis(n, n // 2), n))]
                overlap = np.dot(mirrored, right)
                assert abs(abs(overlap) - 1.0) < 1e-12, case

    def test_product_state_matches_loop_reference(self):
        # the even-block coordinates are sqrt(2 / n_r) times the full-basis
        # amplitude of the representative, and the full product is R-even
        rng = np.random.default_rng(7)
        for L in (8, 10, 12):
            half = L // 2
            basis = sector_basis(L, half)
            image = _image(basis, L)
            represents = basis <= image
            scale = np.where(basis == image, 1.0, math.sqrt(2.0))[represents]
            dim = math.comb(half, (half + 1) // 2)
            lefts = [_half_ground(half, -2.6)] + [
                rng.standard_normal(dim) for _ in range(3)]
            for left in lefts:
                full = _loop_split_product_state(L, left)
                assert np.array_equal(full[np.searchsorted(basis, image)], full)
                assert np.array_equal(split_product_state(L, left),
                                      scale * full[represents])


class TestFiniteFidelity:
    def test_frozen_values(self):
        assert bipartite_fidelity_finite(8, 0.2) == pytest.approx(F_8, abs=1e-8)
        assert bipartite_fidelity_finite(12, 0.2) == pytest.approx(F_12, abs=1e-8)

    def test_benchmark_table(self):
        # every f_L of the benchmark's ed_chain grid, as the previous
        # eigensolver froze it
        table = _frozen_ed_table()
        assert sorted(table) == [0.1, 0.2, 0.3, 0.4, 0.5]
        for x, row in table.items():
            assert {12, 14, 16, 18} <= set(row), x
            for L, f in row.items():
                got = bipartite_fidelity_finite(L, x)
                assert abs(got - f) <= 1e-12, (L, x)

    def test_unit_interval(self):
        for L in (4, 6, 8):
            f = bipartite_fidelity_finite(L, 0.3)
            assert 0.0 < f < 1.0

    def test_near_classical_chain_barely_entangles(self):
        for L in (4, 8):
            assert 1.0 - bipartite_fidelity_finite(L, 0.01) < 1e-3

    @pytest.mark.parametrize("x", [2.4384494202288235e-188,
                                   4.4206379720286926e-225])
    def test_tiny_x_stays_in_the_unit_interval(self, x):
        # an all-sector half-chain scan raised Overflow here: LAPACK returned
        # a non-finite eigenvector for a 6-site sector that never holds the
        # ground state
        assert 0.0 <= bipartite_fidelity_finite(12, x) <= 1.0

    def test_size_cap_checked_before_half_chain_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved a half chain of an oversized L")

        monkeypatch.setattr(ed_oracle, "_half_ground", never)
        for L in (26, 64):
            with pytest.raises(SizeLimit):
                bipartite_fidelity_finite(L, 0.3)


#: the x grid of the full-chain weight tests, deep Ising to near gapless
WEIGHT_XS = (1e-100, 1e-3, 0.05, 0.3, 0.7, 0.9, 0.999)
#: rounding of f_L in either solve: up to 2e-15 was seen between the
#: stopped weight and dense eigh at L = 12 and 14
F_ROUNDING = 4e-15


def _full_chain(L, x):
    """H and the split product state of an f_L, and f_L by dense eigh."""
    spec = SpinChainSpec(L, x)
    product = split_product_state(L, _half_ground(L // 2, spec.delta))
    H = build_hamiltonian(spec)
    _, v = sla.eigh(H.toarray(), subset_by_index=[0, 0])
    return H, product, float(v[:, 0] @ product) ** 2 / float(product @ product)


def _count_products(monkeypatch):
    """Count the CSR operator's `@`, the solvers' matrix-vector products."""
    matmul, counts = sp.csr_matrix.__matmul__, [0]

    def counting(A, v):
        counts[0] += 1
        return matmul(A, v)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
    return counts


def _eigh_tridiagonal_weight(H, start):
    """Reference _ground_weight that solves each T_n through
    scipy.linalg.eigh_tridiagonal, which calls the same dstebz and dstein
    with its own argument checks around them."""
    scale = max(float(H.data.max(initial=0.0)),
                -float(H.data.min(initial=0.0))) or 1.0
    v = start / math.sqrt(start @ start)
    previous, b = np.zeros(len(v)), 0.0
    alpha, beta = [], []
    for _ in range(ed_oracle._WEIGHT_STEPS):
        w = H @ v
        w /= scale
        w -= np.multiply(previous, b, out=previous)
        a = v @ w
        w -= np.multiply(v, a, out=previous)
        b = math.sqrt(w @ w)
        alpha.append(a)
        beta.append(b)
        if len(alpha) == 1:
            weight, residual, gap = 1.0, b, 0.0
        else:
            theta, s = sla.eigh_tridiagonal(alpha, beta[:-1], select="i",
                                            select_range=(0, 1))
            weight = float(s[0, 0]) ** 2
            residual = b * abs(float(s[-1, 0]))
            gap = float(theta[1] - theta[0])
        ratio = residual / gap if gap > 0.0 else math.inf if residual else 0.0
        estimate = 10.0 * ratio * ratio
        if estimate <= ed_oracle._WEIGHT_TOL:
            return weight, estimate
        w *= 1.0 / b
        previous, v = v, w
    raise AssertionError("the reference weight did not settle")


class TestGroundWeight:
    """f_L read off the Lanczos tridiagonal, against dense eigh."""

    @pytest.mark.parametrize("L", [12, 14])
    @pytest.mark.parametrize("x", WEIGHT_XS)
    def test_matches_dense_eigh(self, L, x):
        H, product, f_dense = _full_chain(L, x)
        f, estimate = ed_oracle._ground_weight(H, product)
        assert abs(f - f_dense) <= 1e-14
        assert estimate <= ed_oracle._WEIGHT_TOL
        # the estimate covers the error at the stop, up to rounding
        assert abs(f - f_dense) <= estimate + F_ROUNDING
        assert bipartite_fidelity_finite(L, x) == f

    @pytest.mark.parametrize("L", [12, 14])
    def test_estimate_covers_the_error_of_an_early_stop(self, L, monkeypatch):
        # (r / delta)^2 alone reads up to 9 times low, hence the factor 10
        monkeypatch.setattr(ed_oracle, "_WEIGHT_TOL", 1e-8)
        errors = []
        for x in WEIGHT_XS:
            H, product, f_dense = _full_chain(L, x)
            f, estimate = ed_oracle._ground_weight(H, product)
            errors.append(abs(f - f_dense))
            assert estimate <= 1e-8, x
            assert errors[-1] <= estimate + F_ROUNDING, x
        # the stops came early enough to leave errors far above rounding
        assert max(errors) > 1e-10

    def test_product_counts(self, monkeypatch):
        # the full-chain products alone: the half chains are solved densely
        counts = _count_products(monkeypatch)
        for x, most in ((0.5, 34), (0.1, 16)):
            counts[0] = 0
            bipartite_fidelity_finite(18, x)
            assert 0 < counts[0] <= most, (x, counts[0])

    def test_step_cap_raises_nonconvergent(self, monkeypatch):
        monkeypatch.setattr(ed_oracle, "_WEIGHT_STEPS", 1)
        with pytest.raises(NonConvergent,
                           match=r"after 1 Lanczos steps.*residual.*estimate inf"):
            bipartite_fidelity_finite(12, 0.3)

    def test_invariant_subspace_gives_the_exact_weight(self, monkeypatch):
        # the start spans two eigenvectors: the second step closes the
        # Krylov space, and a 1 x 1 operator is done after one product
        counts = _count_products(monkeypatch)
        H = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        f, estimate = ed_oracle._ground_weight(H, np.array([1.0, 1.0, 0.0]))
        assert f == pytest.approx(0.5, rel=1e-15, abs=0)
        assert estimate <= ed_oracle._WEIGHT_TOL and counts[0] == 2
        assert ed_oracle._ground_weight(sp.csr_matrix([[-2.0]]),
                                        np.array([3.0])) == (1.0, 0.0)

    @pytest.mark.parametrize("L", range(4, 17, 2))
    def test_bits_match_the_eigh_tridiagonal_loop(self, L):
        for x in WEIGHT_XS:
            spec = SpinChainSpec(L, x)
            product = split_product_state(L, _half_ground(L // 2, spec.delta))
            H = build_hamiltonian(spec)
            assert (ed_oracle._ground_weight(H, product)
                    == _eigh_tridiagonal_weight(H, product)), x

    def test_small_operators_match_the_eigh_tridiagonal_loop(self):
        for H, start in ((np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 0.0]),
                         ([[-2.0]], [3.0])):
            H, start = sp.csr_matrix(H), np.array(start)
            assert (ed_oracle._ground_weight(H, start)
                    == _eigh_tridiagonal_weight(H, start))

    def test_split_tridiagonal_matches_the_eigh_tridiagonal_loop(
            self, monkeypatch):
        # a start that is an eigenvector to rounding: T_1 has no gap, so
        # the tiny beta_0 does not stop it, and T_2 splits into two 1 x 1
        # blocks whose block order puts the lowest Ritz value second
        H = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        start = np.array([1e-17, 1.0, 0.0])
        stebz, orders = sla.lapack.dstebz, []

        def recording(*args):
            m, w, iblock, isplit, info = result = stebz(*args)
            orders.append((iblock[:m].tolist(), np.argsort(w[:m]).tolist()))
            return result

        monkeypatch.setattr(sla.lapack, "dstebz", recording)
        assert (ed_oracle._ground_weight(H, start)
                == _eigh_tridiagonal_weight(H, start))
        assert orders[0] == ([1, 2], [1, 0])

    def test_lapack_failure_raises_nonconvergent(self, monkeypatch):
        # T_1 has no gap, so the second step solves T_2
        monkeypatch.setattr(sla.lapack, "dstein",
                            lambda d, e, w, *blocks: (np.zeros((len(d), 2)), 1))
        with pytest.raises(NonConvergent, match="dstein failed on T_2"):
            ed_oracle._ground_weight(sp.csr_matrix(np.diag([1.0, 2.0, 3.0])),
                                     np.ones(3))

    def test_step_outside_the_float_range_raises_nonconvergent(self):
        with pytest.raises(NonConvergent, match="step 1 gave alpha nan"):
            ed_oracle._ground_weight(sp.csr_matrix([[math.nan]]),
                                     np.array([1.0]))

    def test_peak_memory(self):
        # the current and previous vectors and the product A v
        spec = SpinChainSpec(16, 0.3)
        product = split_product_state(16, _half_ground(8, spec.delta))
        H = build_hamiltonian(spec)
        tracemalloc.start()
        try:
            ed_oracle._ground_weight(H, product)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * product.nbytes, peak / product.nbytes


class TestConvergenceStudy:
    def test_empty(self):
        assert convergence_study([], 0.2) == []
        for bad_x in (5.0, 0.0, 1.0):
            with pytest.raises(InvalidSpec):
                convergence_study([], bad_x)

    def test_every_length_checked_before_any_solve(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved a chain before checking every length")

        monkeypatch.setattr(ed_oracle, "_half_ground", never)
        monkeypatch.setattr(ed_oracle, "ground_state", never)
        for Ls, error in (([8, 12, 7], InvalidSpec), ([8, 12, 8.0], InvalidSpec),
                          ([8, 26], SizeLimit), ([16, 18, 26], SizeLimit),
                          ([8, 10 ** 400], SizeLimit)):
            with pytest.raises(error):
                convergence_study(Ls, 0.3)

    def test_rows_and_errors(self):
        rows = convergence_study([4, 8], 0.2)
        assert [r.L for r in rows] == [4, 8]
        f_exact = fidelity(ModelPoint.from_x(0.2)).f
        for row in rows:
            assert isinstance(row, ConvergenceRow)
            assert row.abs_error == abs(row.f_finite - f_exact)
        assert rows[0].abs_error > rows[1].abs_error

    def test_exact_value_uses_the_given_tolerance(self, monkeypatch):
        monkeypatch.setattr(qseries, "REL_TOL", 1e-6)
        rows = convergence_study([4, 6], 0.6)
        f_exact = fidelity(ModelPoint.from_x(0.6)).f
        for row in rows:
            assert row.f_exact == f_exact
            assert row.abs_error == abs(row.f_finite - f_exact)
