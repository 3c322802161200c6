import itertools

import numpy as np
import pytest

from subspec.ensembles import half_ones_diagonal, random_symmetric, rw_covariance
from subspec import linalg as linalg_mod
from subspec.linalg import DenseMatrix, gather_submatrices, singular_values
from subspec.oracle import exact_F
from subspec import sampling as sampling_mod
from subspec.sampling import (SubsetSample, Xoshiro256pp, derive_sample_seed,
                              draw_subsets, principal_submatrix,
                              random_k_subset, row_submatrix, solve_subsets, splitmix64_mix,
                              subset_spectrum)

# upper 0.999 quantile of chi-square, keyed by degrees of freedom
CHI2_999 = {5: 20.515, 9: 27.877}


class TestSeedDerivation:
    def test_pure_function(self):
        assert derive_sample_seed(123, 45) == derive_sample_seed(123, 45)

    def test_adjacent_indices_differ(self):
        assert derive_sample_seed(7, 0) != derive_sample_seed(7, 1)

    def test_no_collisions_below_one_million(self):
        seeds = {derive_sample_seed(0xDEADBEEF, i) for i in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_distinct_streams(self):
        streams = (Xoshiro256pp.from_seed(derive_sample_seed(42, i)) for i in range(4))
        states = {(s.s0, s.s1, s.s2, s.s3) for s in streams}
        assert len(states) == 4

    def test_splitmix_mix_is_64_bit(self):
        for z in (0, 1, 2**63, 2**64 - 1):
            out = splitmix64_mix(z)
            assert 0 <= out < 2**64


class TestXoshiro:
    def test_deterministic_stream(self):
        a = Xoshiro256pp.from_seed(5)
        b = Xoshiro256pp.from_seed(5)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_known_answer_streams(self):
        # first outputs pinned at the extremes of the seed range
        expected = {
            0: [0x53175D61490B23DF, 0x61DA6F3DC380D507,
                0x5C0FDF91EC9A7BFC, 0x02EEBF8C3BBE5E1A],
            2**64 - 1: [0x56CCF8CE948E27B2, 0xE68588432E5A5B90,
                        0xE3E9B5A48119CA8B, 0x460F19495532AE73],
        }
        for seed, words in expected.items():
            rng = Xoshiro256pp.from_seed(seed)
            assert [rng.next_u64() for _ in range(4)] == words

    def test_unit_interval(self):
        rng = Xoshiro256pp.from_seed(1)
        draws = [rng.next_unit() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.05

    def test_bounded_draws(self):
        rng = Xoshiro256pp.from_seed(2)
        assert all(0 <= rng.next_below(7) < 7 for _ in range(1000))

    def test_gaussian_moments(self):
        rng = Xoshiro256pp.from_seed(3)
        draws = np.array([rng.next_gaussian() for _ in range(20000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03


class TestRandomKSubset:
    def test_full_set(self):
        rng = Xoshiro256pp.from_seed(0)
        assert random_k_subset(5, 5, rng).indices == (1, 2, 3, 4, 5)

    def test_out_of_range(self):
        rng = Xoshiro256pp.from_seed(0)
        with pytest.raises(ValueError):
            random_k_subset(5, 6, rng)
        with pytest.raises(ValueError):
            random_k_subset(5, 0, rng)

    def test_consumes_exactly_k_draws(self):
        a = Xoshiro256pp.from_seed(77)
        b = Xoshiro256pp.from_seed(77)
        random_k_subset(9, 4, a)
        for _ in range(4):
            b.next_u64()
        assert (a.s0, a.s1, a.s2, a.s3) == (b.s0, b.s1, b.s2, b.s3)

    def test_frequency_n2_k1(self):
        rng = Xoshiro256pp.from_seed(314)
        hits = sum(1 for _ in range(1_000_000) if random_k_subset(2, 1, rng).indices == (1,))
        assert 0.497 <= hits / 1_000_000 <= 0.503

    def test_uniformity_chi_square_n5_k2(self):
        rng = Xoshiro256pp.from_seed(2718)
        counts = {c: 0 for c in itertools.combinations(range(1, 6), 2)}
        n_draws = 100_000
        for _ in range(n_draws):
            counts[random_k_subset(5, 2, rng).indices] += 1
        expected = n_draws / 10
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < CHI2_999[9]

    def test_uniformity_chi_square_n4_k2(self):
        rng = Xoshiro256pp.from_seed(99)
        counts = {c: 0 for c in itertools.combinations(range(1, 5), 2)}
        n_draws = 60_000
        for _ in range(n_draws):
            counts[random_k_subset(4, 2, rng).indices] += 1
        expected = n_draws / 6
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < CHI2_999[5]

    def test_worker_order_independence(self):
        # sample i depends only on (master_seed, i)
        def draw(i):
            return random_k_subset(8, 3, Xoshiro256pp.from_seed(derive_sample_seed(1234, i)))

        forward = [draw(i).indices for i in range(20)]
        backward = [draw(i).indices for i in reversed(range(20))]
        assert forward == list(reversed(backward))


class TestDrawSubsets:
    # (n, k, master seed, first stream, count); the 300-stream offset is the
    # second half of test_split_run_additivity
    CASES = [(1, 1, 0, 0, 4), (9, 1, -5, 0, 40), (6, 6, 2**64 - 1, 0, 9),
             (8, 3, 42, 300, 500), (30, 8, 2**70 + 3, 7, 60), (300, 40, 0, 0, 5),
             (9, 3, 4, 0, 50)]

    @staticmethod
    def scalar(n, k, seed, offset, count):
        return [random_k_subset(n, k, Xoshiro256pp.from_seed(
                    derive_sample_seed(seed, offset + i))).indices for i in range(count)]

    @pytest.mark.parametrize("lanes", [1, 3, sampling_mod.DRAW_LANES])
    def test_rows_equal_scalar_stream(self, lanes, monkeypatch):
        # one lane, chunks that straddle every count, and the default
        monkeypatch.setattr(sampling_mod, "DRAW_LANES", lanes)
        for n, k, seed, offset, count in self.CASES:
            got = draw_subsets(n, k, seed, offset, count)
            assert got.shape == (count, k)
            assert [tuple(row) for row in got.tolist()] == self.scalar(n, k, seed, offset, count)

    def test_all_zero_state_rule(self, monkeypatch):
        # a lane whose four seed words are 0 starts from the golden gamma,
        # like the scalar class; no real seed reaches that state, so the
        # state mixer is stubbed to produce it for every lane
        real_mix = sampling_mod._mix_lanes
        calls = []

        def zero_state_mix(z):
            calls.append(None)
            return real_mix(z) if len(calls) <= 2 else np.zeros_like(z)

        monkeypatch.setattr(sampling_mod, "_mix_lanes", zero_state_mix)
        rng = Xoshiro256pp(0, 0, 0, 0)
        expected = random_k_subset(10, 4, rng).indices
        assert draw_subsets(10, 4, 1, 0, 1).tolist() == [list(expected)]

    def test_index_type_and_edges(self):
        assert draw_subsets(255, 2, 1, 0, 3).dtype == np.uint8
        assert draw_subsets(256, 2, 1, 0, 3).dtype == np.uint16
        assert draw_subsets(70000, 2, 1, 0, 3).dtype == np.uint32
        assert draw_subsets(5, 2, 1, 0, 0).shape == (0, 2)
        with pytest.raises(ValueError, match="k out of range"):
            draw_subsets(5, 6, 1, 0, 3)
        with pytest.raises(ValueError, match="k out of range"):
            draw_subsets(5, 0, 1, 0, 3)


class TestSubsetSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSample((2, 1), 4)
        with pytest.raises(ValueError):
            SubsetSample((1, 1), 4)
        with pytest.raises(ValueError):
            SubsetSample((0, 1), 4)
        with pytest.raises(ValueError):
            SubsetSample((1, 5), 4)


class TestSubmatrices:
    def test_full_subset_is_identity_operation(self):
        m = rw_covariance(4)
        s = SubsetSample((1, 2, 3, 4), 4)
        assert principal_submatrix(m, s).data.tolist() == m.data.tolist()
        assert row_submatrix(m, s).data.tolist() == m.data.tolist()

    def test_diagonal_selection(self):
        m = DenseMatrix(np.diag([1.0, 2.0, 3.0]))
        sub = principal_submatrix(m, SubsetSample((1, 3), 3))
        assert sub.data.tolist() == [[1.0, 0.0], [0.0, 3.0]]

    def test_rw_covariance_lookup(self):
        sub = principal_submatrix(rw_covariance(4), SubsetSample((2, 4), 4))
        assert sub.data.tolist() == [[2.0, 2.0], [2.0, 4.0]]

    def test_row_of_identity(self):
        sub = row_submatrix(DenseMatrix(np.eye(3)), SubsetSample((2,), 3))
        assert sub.data.tolist() == [[0.0, 1.0, 0.0]]

    def test_identity_rows_have_unit_singular_values(self):
        m = DenseMatrix(np.eye(6))
        sv = singular_values(row_submatrix(m, SubsetSample((1, 3, 4), 6))).values
        np.testing.assert_allclose(sv, np.ones(3), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            principal_submatrix(rw_covariance(4), SubsetSample((1, 2), 3))
        with pytest.raises(ValueError):
            row_submatrix(rw_covariance(4), SubsetSample((1, 2), 5))

    def test_hermitian_preserved(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = DenseMatrix(a + a.conj().T)
        sub = principal_submatrix(m, SubsetSample((1, 3, 5), 5))
        assert np.max(np.abs(sub.data - sub.data.conj().T)) == 0.0


class TestGatherSubmatrices:
    def test_matches_ix_indexing(self):
        # any index order, repeats included, on real, complex and rectangular input
        rng = np.random.default_rng(16)
        x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        for m in (rw_covariance(7), DenseMatrix(x + x.conj().T),
                  DenseMatrix(rng.standard_normal((7, 4)))):
            idx = np.array([rng.permutation(7)[:3] for _ in range(5)] + [[6, 6, 0]])
            rows = gather_submatrices(m, idx, "singular")
            assert rows.shape == (6, 3, m.cols)
            for block, sel in zip(rows, idx):
                assert block.tobytes() == m.data[np.ix_(sel, np.arange(m.cols))].tobytes()
            if m.is_square():
                blocks = gather_submatrices(m, idx, "eigen")
                assert blocks.shape == (6, 3, 3) and blocks.dtype == m.data.dtype
                for block, sel in zip(blocks, idx):
                    assert block.tobytes() == m.data[np.ix_(sel, sel)].tobytes()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            gather_submatrices(rw_covariance(4), np.array([[0, 1]]), "other")


class TestSubsetSpectrum:
    def test_modes(self):
        m = rw_covariance(4)
        s = SubsetSample((2, 4), 4)
        eig = subset_spectrum(m, s, "eigen")
        assert eig.values.size == 2
        sing = subset_spectrum(m, s, "singular")
        assert sing.values.size == 2
        with pytest.raises(ValueError):
            subset_spectrum(m, s, "other")


class TestSolveSubsets:
    @pytest.mark.parametrize("budget", [1, 700, sampling_mod.STACK_BYTES])
    def test_rows_equal_subset_spectrum(self, budget, monkeypatch):
        # one matrix per stack, stacks of a few, and the default budget
        monkeypatch.setattr(sampling_mod, "STACK_BYTES", budget)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        cases = [(rw_covariance(9), 4, "eigen"), (half_ones_diagonal(8), 3, "eigen"),
                 (DenseMatrix(x + x.conj().T), 3, "eigen"),
                 (random_symmetric(8, 3, "gaussian"), 3, "singular"),
                 (DenseMatrix(rng.standard_normal((6, 2))), 3, "singular")]
        for m, k, mode in cases:
            subsets = [tuple(int(i) + 1 for i in np.sort(rng.choice(m.rows, k, replace=False)))
                       for _ in range(13)]
            table = solve_subsets(m, np.array(subsets), mode)
            assert table.shape == (13, min(k, m.cols))
            for row, s in zip(table, subsets):
                spectrum = subset_spectrum(m, SubsetSample(s, m.rows), mode)
                assert row.tobytes() == spectrum.values.tobytes()

    @staticmethod
    def record_stacks(monkeypatch):
        """(index rows, bytes gathered by the solver) for each stack that
        `solve_subsets` hands to the block solver, on every path."""
        stacks = []
        real_solver = sampling_mod.principal_block_solver
        real_gather = linalg_mod.gather_submatrices

        def recording_solver(m):
            blocks = real_solver(m)

            def record(idx):
                stacks.append([idx.shape[0], 0])
                return blocks.solve(idx)
            return blocks._replace(solve=record)

        def recording_gather(m, idx, mode):
            stack = real_gather(m, idx, mode)
            stacks[-1][1] += stack.nbytes
            return stack

        monkeypatch.setattr(sampling_mod, "principal_block_solver", recording_solver)
        monkeypatch.setattr(linalg_mod, "gather_submatrices", recording_gather)
        return stacks

    def test_stacks_stay_within_budget(self, monkeypatch):
        stacks = self.record_stacks(monkeypatch)
        monkeypatch.setattr(sampling_mod, "STACK_BYTES", 1000)
        m = rw_covariance(12)
        subsets = list(itertools.combinations(range(1, 13), 3))
        solve_subsets(m, np.array(subsets), "eigen")
        sizes = [size for _, size in stacks]
        assert sum(sizes) == len(subsets) * 9 * 8
        assert max(sizes) <= 1000
        stacks.clear()
        solve_subsets(m, np.array([range(1, 13)]), "eigen")
        assert [size for _, size in stacks] == [12 * 12 * 8]

    def test_diagonal_stacks_read_only_the_diagonal(self, monkeypatch):
        # a stack of a diagonal M's blocks holds STACK_BYTES of diagonal
        # entries, k of them per row, and gathers no k x k block
        stacks = self.record_stacks(monkeypatch)
        monkeypatch.setattr(sampling_mod, "STACK_BYTES", 1000)
        m = half_ones_diagonal(12)
        subsets = np.array(list(itertools.combinations(range(1, 13), 3)))
        table = solve_subsets(m, subsets, "eigen")
        rows = [count for count, _ in stacks]
        assert sum(rows) == len(subsets)
        assert max(rows) == 1000 // (8 * 3)
        assert all(size == 0 for _, size in stacks)
        assert table.tobytes() == np.sort(m.data.diagonal()[subsets - 1], axis=1).tobytes()
        stacks.clear()
        solve_subsets(m, np.array([range(1, 13)]), "eigen")
        assert stacks == [[1, 0]]

    def test_stacks_tile_the_table(self, monkeypatch):
        # the per-stack form hands out consecutive row blocks of each chunk
        # in turn, none spanning two chunks, and reads a chunk only when the
        # stacks before it are used
        monkeypatch.setattr(sampling_mod, "STACK_BYTES", 1000)
        m = rw_covariance(12)
        subsets = np.array(list(itertools.combinations(range(1, 13), 3)), dtype=np.uint8)
        step = 1000 // (3 * 3 * 8)
        bounds = [0, 40, 41, 100, len(subsets)]
        read = []

        def chunks():
            for lo, hi in zip(bounds, bounds[1:]):
                read.append(lo)
                yield subsets[lo:hi]

        stacks = sampling_mod.solve_stacks(m, chunks(), "eigen")
        assert read == []
        first = [next(stacks) for _ in range(3)]
        assert read == [0]
        stacks = first + list(stacks)
        assert read == bounds[:-1]
        assert [len(spectra) for spectra in stacks] == [
            min(step, hi - start) for lo, hi in zip(bounds, bounds[1:])
            for start in range(lo, hi, step)]
        joined = np.concatenate(stacks)
        assert joined.tobytes() == solve_subsets(m, subsets, "eigen").tobytes()

    def test_rejects_unknown_mode_and_non_square_eigen(self):
        with pytest.raises(ValueError, match="unknown mode"):
            solve_subsets(rw_covariance(4), np.array([[1, 2]]), "other")
        with pytest.raises(ValueError, match="not square"):
            solve_subsets(DenseMatrix(np.ones((4, 3))), np.array([[1, 2]]), "eigen")


class TestExchangeability:
    def test_exact_f_invariant_under_conjugation(self):
        # permuting rows and columns of M must not change the subset-averaged CDF
        rng = np.random.default_rng(14)
        m = random_symmetric(6, 55, "gaussian")
        perm = rng.permutation(6)
        conjugated = DenseMatrix(m.data[np.ix_(perm, perm)])
        f = exact_F(m, 2)
        g = exact_F(conjugated, 2)
        assert f.jumps.size == g.jumps.size
        np.testing.assert_allclose(f.jumps, g.jumps, atol=1e-12 * np.abs(m.data).max())
        assert f.cum.tolist() == g.cum.tolist()

    def test_exact_f_invariant_exactly_for_diagonal(self):
        m = half_ones_diagonal(6)
        flipped = DenseMatrix(m.data[::-1, ::-1].copy())
        f = exact_F(m, 3)
        g = exact_F(flipped, 3)
        assert f.jumps.tolist() == g.jumps.tolist()
        assert f.cum.tolist() == g.cum.tolist()
