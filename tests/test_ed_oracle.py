"""Finite-chain exact diagonalization: sector algebra, splits, convergence."""
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from xxzfidelity import (ConvergenceRow, GroundState, InvalidSpec,
                         NonConvergent, Overflow, Pinning, SizeLimit,
                         SpinChainSpec, Tolerance, bipartite_fidelity_finite,
                         build_hamiltonian, convergence_study, fidelity,
                         ground_state, split_product_state)
from xxzfidelity.elliptic import ModelPoint
from xxzfidelity import ed_oracle
from xxzfidelity.ed_oracle import (DENSE_DIM_LIMIT, _even_dim, _half_ground,
                                   _image, _mirror, _neel_sign, _sector_matrix,
                                   sector_basis)

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


def _loop_split_product_state(L, left, right):
    """Reference product state: one dict lookup per full-chain basis state."""
    half = L // 2
    index_left = {m: i for i, m in enumerate(
        sector_basis(half, (left.sector + half) // 2).tolist())}
    index_right = {m: i for i, m in enumerate(
        sector_basis(half, (right.sector + half) // 2).tolist())}
    basis_full = sector_basis(L, L // 2).tolist()
    product = np.zeros(len(basis_full))
    for i, m in enumerate(basis_full):
        il = index_left.get(m & ((1 << half) - 1))
        ir = index_right.get(m >> half)
        if il is not None and ir is not None:
            product[i] = left.amplitudes[il] * right.amplitudes[ir]
    return product


def _right_half_by_sector(n, delta, pinning):
    """Independent right-half solve: the field on site n, one level per sector."""
    bonds = [(j, j + 1) for j in range(1, n)]
    fields = ([(n, -0.5 * delta * _neel_sign(2 * n + 1))]
              if pinning is Pinning.NEEL else [])
    return {2 * n_up - n: ground_state(
        _sector_matrix(n, n_up, bonds, fields, delta), sector=2 * n_up - n)
        for n_up in range(n + 1)}


class TestSpinChainSpec:
    def test_delta(self):
        assert SpinChainSpec(8, 0.5).delta == pytest.approx(-1.25, rel=1e-15)
        assert SpinChainSpec(8, 0.2).delta == pytest.approx(-2.6, rel=1e-15)

    def test_defaults(self):
        spec = SpinChainSpec(8, 0.5)
        assert spec.split is False
        assert spec.pinning is Pinning.NEEL

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
        with pytest.raises(InvalidSpec):
            SpinChainSpec(8, 0.5, pinning="neel")

    def test_rejects_x_whose_hamiltonian_overflows(self):
        # Delta = -5e307, so (L + 1) |Delta| / 2 leaves the float range
        with pytest.raises(InvalidSpec):
            SpinChainSpec(8, 1e-308)
        with pytest.raises(InvalidSpec):
            SpinChainSpec(8, 1e-310)
        with pytest.raises(InvalidSpec):
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

    def test_neel_sign_pattern(self):
        assert [_neel_sign(s) for s in range(5)] == [-1, 1, -1, 1, -1]


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
        H += h * _neel_sign(0) * site_op(L, 1, SZ)
        H += h * _neel_sign(L + 1) * site_op(L, L, SZ)
        assert np.max(np.abs(H.imag)) < 1e-14
        dense_spectrum = np.sort(np.linalg.eigvalsh(H.real))

        bonds = [(j, j + 1) for j in range(1, L)]
        fields = [(1, h * _neel_sign(0)), (L, h * _neel_sign(L + 1))]
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
                for fields in ([], [(1, h * _neel_sign(0)),
                                    (n, h * _neel_sign(n + 1))]):
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
        # L = 24 is the longest admitted chain; only its size is checked here
        assert _even_dim(24) <= ed_oracle.SECTOR_DIM_CAP < _even_dim(26)
        for L in (26, 64, 10 ** 300):
            with pytest.raises(SizeLimit):
                build_hamiltonian(SpinChainSpec(L, 0.2))

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
            for pinning in Pinning:
                for split in (False, True):
                    spec = SpinChainSpec(L, 0.3, split, pinning)
                    bonds = [(j, j + 1) for j in range(1, L)]
                    if split:
                        bonds.remove((L // 2, L // 2 + 1))
                    h = -0.5 * spec.delta
                    fields = ([(1, h * _neel_sign(0)), (L, h * _neel_sign(L + 1))]
                              if pinning is Pinning.NEEL else [])
                    full = np.linalg.eigvalsh(_loop_sector_matrix(
                        L, L // 2, bonds, fields, spec.delta).toarray())
                    even = np.linalg.eigvalsh(build_hamiltonian(spec).toarray())
                    nearest = np.abs(even[:, None] - full[None, :]).min(axis=1)
                    case = (L, pinning, split)
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
        # unpinned and nearly classical: the two Néel states barely split
        H = build_hamiltonian(SpinChainSpec(8, 1e-4, pinning=Pinning.NONE))
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
        left = _half_ground(8, spec.delta, Pinning.NEEL)
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
                    sp.csr_matrix(nan), np.array([[0.0, np.inf], [np.inf, 0.0]])):
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
                        np.full(dim, np.inf)):
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
        gs = ground_state(build_hamiltonian(spec), sector=0)
        left = _half_ground(4, spec.delta, Pinning.NEEL)
        right = _mirror(left, 4)
        assert left.sector == right.sector == 0
        assert abs(gs.energy - left.energy - right.energy) < 1e-12

    def test_product_state_factorizes_split_ground_state(self):
        spec = SpinChainSpec(8, 0.2, split=True)
        gs = ground_state(build_hamiltonian(spec), sector=0)
        left = _half_ground(4, spec.delta, Pinning.NEEL)
        product = split_product_state(8, left)
        assert abs(np.linalg.norm(product) - 1.0) < 1e-12
        assert abs(abs(np.dot(gs.amplitudes, product)) - 1.0) < 1e-10

    def test_mirror_matches_independent_right_half_solve(self):
        for delta in (-1.01, -2.6, -5.0):
            for pinning in Pinning:
                for n in range(2, 10):
                    left = _half_ground(n, delta, pinning)
                    right = _mirror(left, n)
                    by_sector = _right_half_by_sector(n, delta, pinning)
                    lowest = min(gs.energy for gs in by_sector.values())
                    independent = by_sector[-left.sector]
                    case = (delta, pinning, n)
                    assert right.sector == -left.sector, case
                    assert abs(right.energy - lowest) < 1e-12, case
                    assert abs(independent.energy - lowest) < 1e-12, case
                    overlap = np.dot(right.amplitudes, independent.amplitudes)
                    assert abs(abs(overlap) - 1.0) < 1e-12, case

    def test_product_state_matches_loop_reference(self):
        # the even-block coordinates are sqrt(2 / n_r) times the full-basis
        # amplitude of the representative, and the full product is R-even
        rng = np.random.default_rng(7)
        for L in (8, 12):
            half = L // 2
            basis = sector_basis(L, half)
            image = _image(basis, L)
            represents = basis <= image
            scale = np.where(basis == image, 1.0, math.sqrt(2.0))[represents]
            lefts = [_half_ground(half, -2.6, Pinning.NEEL)] + [
                GroundState(0.0, rng.standard_normal(math.comb(half, n_up)),
                            2 * n_up - half) for n_up in range(half + 1)]
            for left in lefts:
                full = _loop_split_product_state(L, left, _mirror(left, half))
                assert np.array_equal(full[np.searchsorted(basis, image)], full)
                assert np.allclose(split_product_state(L, left),
                                   scale * full[represents],
                                   rtol=1e-15, atol=0.0)

    def test_rejects_amplitudes_that_miss_their_sector(self):
        for left in (GroundState(0.0, np.ones(3), 0),
                     GroundState(0.0, np.ones((6, 1)), 0),
                     GroundState(0.0, np.ones(6), 1),
                     GroundState(0.0, np.ones(1), 6)):
            with pytest.raises(InvalidSpec):
                split_product_state(8, left)

    def test_rejects_a_length_that_is_not_an_even_integer(self):
        left = _half_ground(4, -2.6, Pinning.NEEL)
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

    def test_unpinned_odd_half_rejected_before_diagonalizing(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("diagonalized an unpinned odd-half chain")

        monkeypatch.setattr(ed_oracle, "ground_state", never)
        for L in (6, 10, 14):
            with pytest.raises(InvalidSpec, match="odd half"):
                bipartite_fidelity_finite(L, 0.3, Pinning.NONE)

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
