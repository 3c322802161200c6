import itertools

import numpy as np
import pytest

from subspec.ensembles import half_ones_diagonal, random_symmetric, rw_covariance
from subspec.linalg import DenseMatrix, singular_values
from subspec.oracle import exact_F
from subspec.sampling import (SeedPlan, SubsetSample, Xoshiro256pp, derive_sample_seed,
                              principal_submatrix, random_k_subset, row_submatrix,
                              splitmix64_mix, subset_spectrum)

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
        plan = SeedPlan(42)
        states = {tuple((s.s0, s.s1, s.s2, s.s3)) for s in (plan.stream(i) for i in range(4))}
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
        plan = SeedPlan(1234)
        forward = [random_k_subset(8, 3, plan.stream(i)).indices for i in range(20)]
        backward = [random_k_subset(8, 3, plan.stream(i)).indices
                    for i in reversed(range(20))]
        assert forward == list(reversed(backward))


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


class TestSubsetSpectrum:
    def test_modes(self):
        m = rw_covariance(4)
        s = SubsetSample((2, 4), 4)
        eig = subset_spectrum(m, s, "eigen")
        assert eig.count == 2
        sing = subset_spectrum(m, s, "singular")
        assert sing.count == 2
        with pytest.raises(ValueError):
            subset_spectrum(m, s, "other")


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
        np.testing.assert_allclose(f.jumps, g.jumps, atol=1e-12 * m.max_abs())
        assert f.cum.tolist() == g.cum.tolist()

    def test_exact_f_invariant_exactly_for_diagonal(self):
        m = half_ones_diagonal(6)
        flipped = DenseMatrix(m.data[::-1, ::-1].copy())
        f = exact_F(m, 3)
        g = exact_F(flipped, 3)
        assert f.jumps.tolist() == g.jumps.tolist()
        assert f.cum.tolist() == g.cum.tolist()
