"""Finite-chain exact diagonalization: sector algebra, splits, convergence."""
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from xxzfidelity import (ConvergenceRow, InvalidSpec, NonConvergent,
                         Overflow, SizeLimit, SpinChainSpec, Tolerance,
                         bipartite_fidelity_finite, convergence_study,
                         fidelity)
from xxzfidelity.elliptic import ModelPoint
from xxzfidelity import ed_oracle
from xxzfidelity.ed_oracle import (DENSE_DIM_LIMIT, GroundState,
                                   _even_dim, _half_ground, _image,
                                   _sector_matrix, build_hamiltonian,
                                   ground_state, sector_basis,
                                   split_product_state)

# frozen finite-size values at x = 0.2, Néel pinning
F_8 = 0.9103850129763998
F_12 = 0.8995519516351791


def _loop_sector_matrix(n_sites, n_up, bonds, fields, delta):
    """Reference builder: one Python pass per basis state, dict ranking."""
    basis = sorted(sum(1 << p for p in positions)
                   for positions in combinations(range(n_sites), n_up))
    index = {m: i for i, m in enumerate(basis)}
    dim = len(basis)
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for i, m in enumerate(basis):
        d = 0.0
        for a, b in bonds:
            sa = 1.0 if (m >> (a - 1)) & 1 else -1.0
            sb = 1.0 if (m >> (b - 1)) & 1 else -1.0
            d += -0.5 * delta * sa * sb
            if sa != sb:
                m2 = m ^ ((1 << (a - 1)) | (1 << (b - 1)))
                rows.append(i)
                cols.append(index[m2])
                vals.append(-1.0)
        for site, h in fields:
            s = 1.0 if (m >> (site - 1)) & 1 else -1.0
            d += h * s
        diag[i] = d
    H = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return H + sp.diags(diag).tocsr()


def _reflect_flip(m, n):
    """Reference reflection j -> n+1-j with every spin flipped, bit by bit."""
    return sum(1 << (n - 1 - j) for j in range(n) if not (m >> j) & 1)


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
            product[i] = left.amplitudes[il] * left.amplitudes[ir]
    return product


def _half_by_n_up(n, delta, field):
    """All-sector scan of a half chain with one Néel field (site, h): the
    lowest level for each number of up spins."""
    bonds = [(j, j + 1) for j in range(1, n)]
    return {n_up: ground_state(_sector_matrix(n, n_up, bonds, [field], delta))
            for n_up in range(n + 1)}


def _right_half(n, delta):
    """Independent right-half solve: the field of the up virtual spin on
    site n, in the sector that completes the left half's Néel sector."""
    bonds = [(j, j + 1) for j in range(1, n)]
    return ground_state(_sector_matrix(n, n // 2, bonds,
                                       [(n, -0.5 * delta)], delta))


class TestSpinChainSpec:
    def test_delta(self):
        assert SpinChainSpec(8, 0.5).delta == pytest.approx(-1.25, rel=1e-15)
        assert SpinChainSpec(8, 0.2).delta == pytest.approx(-2.6, rel=1e-15)

    def test_defaults(self):
        spec = SpinChainSpec(8, 0.5)
        assert spec.split is False

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
        # any truthy value used to remove the central bond
        for bad_split in ("no", 1, None, np.array([True])):
            with pytest.raises(InvalidSpec):
                SpinChainSpec(8, 0.2, split=bad_split)
        assert SpinChainSpec(8, 0.2, split=np.bool_(True)).split

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
        M = _sector_matrix(2, 1, [(1, 2)], [], delta).toarray()
        assert M == pytest.approx(
            np.array([[delta / 2.0, -1.0], [-1.0, delta / 2.0]]))
        gs = ground_state(M)
        assert gs.energy == pytest.approx(delta / 2.0 - 1.0, rel=1e-14)
        assert gs.amplitudes == pytest.approx(
            np.full(2, 1.0 / math.sqrt(2.0)), rel=1e-14)

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
            np.linalg.eigvalsh(_sector_matrix(L, n, bonds, fields, delta).toarray())
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
                        new = _sector_matrix(n, n_up, bonds, fields, delta)
                        old = _loop_sector_matrix(n, n_up, bonds, fields, delta)
                        for attr in ("indptr", "indices", "data"):
                            a, b = getattr(new, attr), getattr(old, attr)
                            assert a.dtype == b.dtype, (n, n_up, split, attr)
                            assert np.array_equal(a, b), (n, n_up, split, attr)

    def test_hermitian(self):
        for split in (False, True):
            H = build_hamiltonian(SpinChainSpec(8, 0.2, split=split))
            assert abs(H - H.T).max() < 1e-14


class TestBuildHamiltonian:
    def test_split_removes_central_bond_only(self):
        full = build_hamiltonian(SpinChainSpec(8, 0.2))
        split = build_hamiltonian(SpinChainSpec(8, 0.2, split=True))
        assert full.shape == split.shape == (43, 43)
        assert (full != split).nnz > 0

    def test_size_limit(self):
        # L = 24 is the longest admitted chain; only its size is checked
        # here, by the spec, so no Hamiltonian is built
        assert _even_dim(24) <= ed_oracle.SECTOR_DIM_CAP < _even_dim(26)
        for L in (26, 64, 10 ** 300):
            with pytest.raises(SizeLimit):
                SpinChainSpec(L, 0.2)

    def test_neel_fields_continue_the_boundary_pattern(self):
        # with the virtual spins down on site 0 and up on site L+1, the Néel
        # state with odd sites up is the one diagonal state at the bound
        # -(L + 1)|Delta|/2 of SpinChainSpec; free ends would tie it with
        # its spin flip
        for L in (4, 8, 12):
            spec = SpinChainSpec(L, 0.3)
            diag = build_hamiltonian(spec).diagonal()
            basis, _, rows, _ = ed_oracle._even_states(L)
            neel = sum(1 << (j - 1) for j in range(1, L + 1, 2))
            lowest = np.flatnonzero(diag == diag.min())
            assert basis[rows][lowest].tolist() == [neel]
            assert diag.min() == pytest.approx((L + 1) * 0.5 * spec.delta,
                                               rel=1e-15)

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

    def test_even_states_built_once_per_f_L(self):
        ed_oracle._even_states.cache_clear()
        bipartite_fidelity_finite(8, 0.3)
        info = ed_oracle._even_states.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the shared arrays cannot be changed under another caller
        assert not any(a.flags.writeable for a in ed_oracle._even_states(8))

    def test_even_block_spectrum_lies_in_the_zero_sector(self):
        # R-even levels are zero-sector levels, and the lowest one is shared
        for L in range(4, 13, 2):
            for split in (False, True):
                spec = SpinChainSpec(L, 0.3, split)
                bonds = [(j, j + 1) for j in range(1, L)]
                if split:
                    bonds.remove((L // 2, L // 2 + 1))
                h = -0.5 * spec.delta
                full = np.linalg.eigvalsh(_loop_sector_matrix(
                    L, L // 2, bonds, [(1, -h), (L, h)], spec.delta).toarray())
                even = np.linalg.eigvalsh(build_hamiltonian(spec).toarray())
                nearest = np.abs(even[:, None] - full[None, :]).min(axis=1)
                case = (L, split)
                assert nearest.max() < 1e-12, case
                assert abs(even[0] - full[0]) < 1e-12, case


class TestGroundState:
    def test_normalized_pivot_positive_deterministic(self):
        H = build_hamiltonian(SpinChainSpec(8, 0.2))
        a = ground_state(H)
        b = ground_state(H)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
        assert a.amplitudes[np.argmax(np.abs(a.amplitudes))] > 0.0
        assert a.energy == b.energy
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_dense_iterative_parity(self):
        # dim 494 > DENSE_DIM_LIMIT: the Lanczos route against a full eigh
        H = build_hamiltonian(SpinChainSpec(12, 0.2))
        assert H.shape[0] >= DENSE_DIM_LIMIT
        iterative = ground_state(H)
        w, v = sla.eigh(H.toarray())
        vec = v[:, 0] * np.sign(v[np.argmax(np.abs(v[:, 0])), 0])
        assert abs(w[0] - iterative.energy) < 1e-10
        assert np.max(np.abs(vec - iterative.amplitudes)) < 1e-10

    def test_iterative_residual(self):
        # dim 1730 > DENSE_DIM_LIMIT, so auto takes the Lanczos route
        H = build_hamiltonian(SpinChainSpec(14, 0.2))
        gs = ground_state(H)
        residual = H @ gs.amplitudes - gs.energy * gs.amplitudes
        assert np.linalg.norm(residual) < 1e-10

    def test_lanczos_failure_raises_nonconvergent(self, monkeypatch):
        def fail(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                           np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", fail)
        H = build_hamiltonian(SpinChainSpec(12, 0.2))
        assert H.shape[0] >= DENSE_DIM_LIMIT
        with pytest.raises(NonConvergent, match="Lanczos"):
            ground_state(H)

    def test_one_dimensional_sector(self):
        H = _sector_matrix(2, 0, [(1, 2)], [], -2.6)
        gs = ground_state(H)
        assert gs.amplitudes.tolist() == [1.0]
        assert gs.energy == pytest.approx(-0.5 * (-2.6), rel=1e-15)

    def test_near_degenerate_solve_finds_the_lowest_level(self):
        # free ends and nearly classical: the two Néel states barely split
        delta = SpinChainSpec(8, 1e-4).delta
        bonds = [(j, j + 1) for j in range(1, 8)]
        H = _sector_matrix(8, 4, bonds, [], delta)
        lowest = sla.eigh(H.toarray(), eigvals_only=True)[0]
        assert ground_state(H).energy == pytest.approx(lowest, rel=1e-14)

    def test_product_state_start_saves_matvecs(self, monkeypatch):
        eigsh, counts = spla.eigsh, []

        def counting(A, *args, **kwargs):
            counts.append(0)

            def matvec(v):
                counts[-1] += 1
                return A @ v

            return eigsh(spla.LinearOperator(A.shape, matvec=matvec,
                                             dtype=float), *args, **kwargs)

        spec = SpinChainSpec(16, 0.3)
        left = _half_ground(8, spec.delta)
        product = split_product_state(16, left)
        H = build_hamiltonian(spec)
        monkeypatch.setattr(spla, "eigsh", counting)
        warm = ground_state(H, start=product)
        cold = ground_state(H)
        assert counts[0] < counts[1]
        assert abs(warm.energy - cold.energy) < 1e-10
        assert abs(abs(np.dot(warm.amplitudes, cold.amplitudes)) - 1.0) < 1e-10

    def test_rejects_bad_operators(self):
        nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
        for bad in (sp.csr_matrix((0, 0)), np.zeros((0, 0)), np.ones(3),
                    np.ones((2, 3)), sp.csr_matrix(np.ones((2, 3))), nan,
                    sp.csr_matrix(nan), np.array([[0.0, np.inf], [np.inf, 0.0]]),
                    # past the float range, text, and complex entries whose
                    # imaginary part a float conversion would drop
                    [[10 ** 400]], [["a"]], np.array([[0.0, 1j], [-1j, 0.0]]),
                    sp.csr_matrix(np.array([[0.0, 1j], [-1j, 0.0]]))):
            with pytest.raises(InvalidSpec):
                ground_state(bad)

    def test_eigenvalue_beyond_the_float_range_raises_overflow(self):
        # finite entries whose lowest eigenvalue the solver cannot represent
        big = np.finfo(float).max
        with pytest.raises(Overflow):
            ground_state(np.array([[0.0, big], [big, 0.0]]))

    def test_rejects_bad_start_vectors(self):
        for L in (8, 12):  # dense and Lanczos paths
            H = build_hamiltonian(SpinChainSpec(L, 0.2))
            dim = H.shape[0]
            for bad in (np.ones(dim - 1), np.ones((dim, 1)), np.zeros(dim),
                        np.full(dim, -0.0), np.full(dim, np.nan),
                        np.full(dim, np.inf), [10 ** 400] * dim, ["a"] * dim,
                        np.full(dim, 1j), np.full(dim, 1.0 + 1e-3j)):
                with pytest.raises(InvalidSpec):
                    ground_state(H, start=bad)

    def test_start_vectors_of_any_finite_scale(self):
        # neither the norm of 1e308s nor that of subnormals is representable
        for L in (8, 12):  # dense and Lanczos paths
            H = build_hamiltonian(SpinChainSpec(L, 0.2))
            dim = H.shape[0]
            plain = ground_state(H)
            for scale in (1e308, -1e308, 1e-320, 5e-324):
                gs = ground_state(H, start=np.full(dim, scale))
                assert abs(gs.energy - plain.energy) < 1e-12
                assert np.max(np.abs(gs.amplitudes - plain.amplitudes)) < 1e-10


class TestSplitStructure:
    def test_energy_additivity(self):
        # removed central bond decouples the halves exactly
        spec = SpinChainSpec(8, 0.2, split=True)
        gs = ground_state(build_hamiltonian(spec))
        left = _half_ground(4, spec.delta)
        right = _right_half(4, spec.delta)
        assert abs(gs.energy - left.energy - right.energy) < 1e-12

    def test_product_state_factorizes_split_ground_state(self):
        spec = SpinChainSpec(8, 0.2, split=True)
        gs = ground_state(build_hamiltonian(spec))
        left = _half_ground(4, spec.delta)
        product = split_product_state(8, left)
        assert abs(np.linalg.norm(product) - 1.0) < 1e-12
        assert abs(abs(np.dot(gs.amplitudes, product)) - 1.0) < 1e-10

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
                lowest = min(by_n_up, key=lambda k: by_n_up[k].energy)
                assert lowest == (n + 1) // 2, case
                left = _half_ground(n, delta)
                assert left.energy == pytest.approx(
                    by_n_up[lowest].energy, rel=1e-13, abs=1e-13), case
                right = _right_half(n, delta)
                assert abs(right.energy - left.energy) < 1e-11 * n, case
                mirrored = left.amplitudes[np.searchsorted(
                    sector_basis(n, lowest), _image(sector_basis(n, n // 2), n))]
                overlap = np.dot(mirrored, right.amplitudes)
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
                GroundState(0.0, rng.standard_normal(dim)) for _ in range(3)]
            for left in lefts:
                full = _loop_split_product_state(L, left)
                assert np.array_equal(full[np.searchsorted(basis, image)], full)
                assert np.allclose(split_product_state(L, left),
                                   scale * full[represents],
                                   rtol=1e-15, atol=0.0)

    def test_rejects_amplitudes_that_miss_their_sector(self):
        # the Néel sector of a 4-site half has 6 states; 4 and 1 are the
        # sizes of other sectors, 10 that of a 5-site half's Néel sector
        for amplitudes in (np.ones(3), np.ones((6, 1)), np.ones(4),
                           np.ones(1), np.ones(10), np.ones(0)):
            with pytest.raises(InvalidSpec):
                split_product_state(8, GroundState(0.0, amplitudes))

    def test_rejects_a_length_that_is_not_an_even_integer(self):
        left = _half_ground(4, -2.6)
        for bad_L in (9, 8.0):
            with pytest.raises(InvalidSpec):
                split_product_state(bad_L, left)


class TestFiniteFidelity:
    def test_frozen_values(self):
        assert bipartite_fidelity_finite(8, 0.2) == pytest.approx(F_8, abs=1e-8)
        assert bipartite_fidelity_finite(12, 0.2) == pytest.approx(F_12, abs=1e-8)

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

    def test_exact_value_uses_the_given_tolerance(self):
        tol = Tolerance(1e-6)
        rows = convergence_study([4, 6], 0.6, tol=tol)
        f_exact = fidelity(ModelPoint.from_x(0.6), tol).f
        for row in rows:
            assert row.f_exact == f_exact
            assert row.abs_error == abs(row.f_finite - f_exact)
