import itertools
import math

import numpy as np
import pytest

from subspec.cli import main as cli_main
from subspec.ensembles import (half_ones_diagonal, load_matrix, random_symmetric,
                               rw_covariance, save_matrix)
from subspec.linalg import DenseMatrix, Spectrum
from subspec.montecarlo import pointwise_tail_bound, supnorm_mean_bound
from subspec.oracle import (ExactDistribution, chaining_check, chaining_checks, exact_F,
                            exact_pointwise_profile, exact_supnorm_distribution,
                            halfones_exact_mean, hypergeometric_pmf, pointwise_profile,
                            subset_spectra, subset_table)
from subspec.sampling import SubsetSample, subset_spectrum
from subspec.spectra import StepCdf, esd, step_cdf, sup_distance

from reference import exact_pointwise_tail


class TestEnumerateSubsets:
    def test_lexicographic_4_choose_2(self):
        subsets = subset_table(4, 2).tolist()
        assert subsets == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]

    def test_single_subset(self):
        assert subset_table(3, 3).tolist() == [[1, 2, 3]]

    def test_count_20_choose_10(self):
        assert subset_table(20, 10).shape == (184756, 10)

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="Monte Carlo"):
            subset_table(30, 15, cap=1000)

    def test_table_rows_are_the_subsets(self):
        for n, k in ((1, 1), (4, 2), (7, 3), (9, 9), (300, 1)):
            table = subset_table(n, k)
            assert table.dtype == np.uint8 if n < 256 else table.dtype == np.uint16
            assert table.tolist() == [list(c) for c in itertools.combinations(range(1, n + 1), k)]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            subset_table(4, 5)


class TestExactF:
    def test_half_ones(self):
        f = exact_F(half_ones_diagonal(4), 2)
        assert f.jumps.tolist() == [0.0, 1.0]
        np.testing.assert_allclose(f.cum, [0.5, 1.0], atol=1e-15)

    def test_k_equals_one_distinct_diagonal(self):
        m = DenseMatrix(np.diag([3.0, 1.0, 4.0, 1.5]))
        f = exact_F(m, 1)
        reference = esd(Spectrum(np.sort(np.diag(m.data))))
        assert f.jumps.tolist() == reference.jumps.tolist()
        assert f.cum.tolist() == reference.cum.tolist()

    def test_k_equals_n(self):
        m = random_symmetric(5, 8, "gaussian")
        f = exact_F(m, 5)
        from subspec.linalg import eigenvalues_hermitian
        reference = esd(eigenvalues_hermitian(m))
        assert f.jumps.tolist() == reference.jumps.tolist()
        assert f.cum.tolist() == reference.cum.tolist()


def _case_matrix(case, tmp_path):
    """Exact-law reference cases: generic, tied, singular-mode and a complex
    Hermitian matrix read back from a file."""
    if case == "rw-covariance":
        return rw_covariance(9), 4, "eigen"
    if case == "half-ones":
        return half_ones_diagonal(8), 3, "eigen"
    if case == "singular":
        return random_symmetric(8, 3, "gaussian"), 3, "singular"
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    path = tmp_path / "hermitian.txt"
    save_matrix(DenseMatrix((x + x.conj().T) / 2), path)
    return load_matrix(path), 3, "eigen"


def _buffered_exact_F(m, k, mode, buffer_limit):
    """The former exact_F: per-subset solves whose value counts are merged
    buffer by buffer.  Reference for the one-table reduction."""
    total = math.comb(m.rows, k)
    values, counts = np.empty(0), np.empty(0)
    buffer, buffered = [], 0

    def merge(values, counts, extra):
        stacked = np.concatenate([values] + extra)
        weights = np.concatenate([counts, np.ones(sum(a.size for a in extra))])
        uniq, inverse = np.unique(stacked, return_inverse=True)
        return uniq, np.bincount(inverse, weights=weights, minlength=uniq.size)

    for s in itertools.combinations(range(1, m.rows + 1), k):
        spec = subset_spectrum(m, SubsetSample(s, m.rows), mode)
        buffer.append(spec.values)
        buffered += spec.values.size
        if buffered >= buffer_limit:
            values, counts = merge(values, counts, buffer)
            buffer, buffered = [], 0
    if buffer:
        values, counts = merge(values, counts, buffer)
    cum = np.cumsum(counts) / (total * k)
    cum[-1] = 1.0
    return StepCdf(values, cum)


@pytest.mark.parametrize("case", ["rw-covariance", "half-ones", "singular", "complex-file"])
def test_exact_laws_match_per_subset_reference(case, tmp_path):
    m, k, mode = _case_matrix(case, tmp_path)
    reference = _buffered_exact_F(m, k, mode, buffer_limit=10)
    assert math.comb(m.rows, k) * k >= 100  # the 10-value buffer merges many times
    f = exact_F(m, k, mode)
    assert f.jumps.tobytes() == reference.jumps.tobytes()
    assert f.cum.tobytes() == reference.cum.tobytes()

    spectra = [subset_spectrum(m, SubsetSample(s, m.rows), mode)
               for s in itertools.combinations(range(1, m.rows + 1), k)]
    distances = np.array([sup_distance(esd(spec), reference) for spec in spectra])
    uniq, counts = np.unique(distances, return_counts=True)
    law = exact_supnorm_distribution(m, k, mode)
    assert law.values.tobytes() == uniq.tobytes()
    assert law.probs.tobytes() == (counts / len(spectra)).tobytes()

    xs = np.array([reference.jumps[0] - 1.0, *reference.jumps[::7], 0.5])
    fa = np.array([np.searchsorted(spec.values, xs, side="right") / spec.values.size
                   for spec in spectra])
    profile = exact_pointwise_profile(m, k, xs, mode)
    assert profile.fa.tobytes() == fa.tobytes()
    assert profile.f.tobytes() == (fa.sum(axis=0) / len(spectra)).tobytes()


class TestExactSupnormDistribution:
    def test_constant_diagonal(self):
        dist = exact_supnorm_distribution(DenseMatrix(2.5 * np.eye(5)), 2)
        assert dist.values.tolist() == [0.0]
        assert dist.probs.tolist() == [1.0]

    def test_half_ones_hand_enumeration(self):
        dist = exact_supnorm_distribution(half_ones_diagonal(4), 2)
        assert dist.values.tolist() == [0.0, 0.5]
        np.testing.assert_allclose(dist.probs, [4 / 6, 2 / 6], atol=1e-15)
        assert abs(dist.mean() - 1 / 6) <= 1e-15

    def test_distinct_diagonal_leave_one_out(self):
        # hand enumeration: omitting the entry of rank i deviates by
        # max(i-1, n-i)/(n(n-1)), so ranks i and n+1-i tie by mirror symmetry
        m = DenseMatrix(np.diag([1.0, 2.0, 4.0, 8.0, 16.0]))
        dist = exact_supnorm_distribution(m, 4)
        expected = {0.10: 1 / 5, 0.15: 2 / 5, 0.20: 2 / 5}
        for value, prob in expected.items():
            mass = dist.probs[np.abs(dist.values - value) <= 1e-9].sum()
            assert abs(mass - prob) <= 1e-12

    def test_matches_brute_force(self):
        # independent oracle: dense-grid evaluation of |F_A - F| around jumps
        m = random_symmetric(6, 21, "gaussian")
        k = 2
        dist = exact_supnorm_distribution(m, k)
        reference = exact_F(m, k)
        from subspec.sampling import SubsetSample, subset_spectrum
        distances = []
        for combo in itertools.combinations(range(1, 7), k):
            spec = subset_spectrum(m, SubsetSample(combo, 6), "eigen")
            grid = np.concatenate([reference.jumps, spec.values])
            probe = np.concatenate([grid, grid - 1e-9])
            fa = np.searchsorted(spec.values, probe, side="right") / k
            fr = reference.eval_many(probe)
            distances.append(float(np.max(np.abs(fa - fr))))
        assert abs(dist.mean() - np.mean(distances)) <= 1e-9


class TestPointwise:
    def test_r_above_one(self):
        assert exact_pointwise_tail(half_ones_diagonal(4), 2, 0.0, 1.1) == 0.0

    def test_x_below_support(self):
        assert exact_pointwise_tail(half_ones_diagonal(4), 2, -5.0, 0.2) == 0.0

    def test_half_ones_deviation(self):
        # |F_A(0) - 1/2| >= 0.4 exactly on the two single-species subsets
        p = exact_pointwise_tail(half_ones_diagonal(4), 2, 0.0, 0.4)
        assert abs(p - 2 / 6) <= 1e-15

    def test_profile_matches_scalar(self):
        m = rw_covariance(6)
        profile = exact_pointwise_profile(m, 2, [1.0, 3.0])
        for i, x in enumerate((1.0, 3.0)):
            assert profile.tails([0.25])[i, 0] == exact_pointwise_tail(m, 2, x, 0.25)

    def test_profile_mean_is_exact_f(self):
        m = rw_covariance(5)
        xs = np.linspace(0.0, 8.0, 9)
        profile = exact_pointwise_profile(m, 2, xs)
        f = exact_F(m, 2)
        np.testing.assert_allclose(profile.f, f.eval_many(xs), atol=1e-12)


class TestHypergeometric:
    def test_small_case_exact(self):
        hs, probs = hypergeometric_pmf(4, 2, 2)
        assert hs.tolist() == [0, 1, 2]
        assert probs.tolist() == [1 / 6, 4 / 6, 1 / 6]

    def test_sums_to_one(self):
        for (n, d, k) in [(10, 5, 3), (100, 37, 20), (1024, 512, 256), (9999, 4999, 123)]:
            _, probs = hypergeometric_pmf(n, d, k)
            assert abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12

    def test_mean_identity(self):
        # E H = k d / n
        n, d, k = 60, 25, 11
        hs, probs = hypergeometric_pmf(n, d, k)
        assert abs(math.fsum((hs * probs).tolist()) - k * d / n) <= 1e-12

    def test_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for (n, d, k) in [(10, 4, 3), (100, 37, 20), (1024, 512, 256)]:
            hs, probs = hypergeometric_pmf(n, d, k)
            ref = stats.hypergeom.pmf(hs, n, d, k)
            np.testing.assert_allclose(probs, ref, rtol=1e-10)


class TestHalfonesExactMean:
    def test_matches_enumeration(self):
        assert abs(halfones_exact_mean(4, 2) - 1 / 6) <= 1e-15

    def test_full_selection_is_deterministic(self):
        for n in (4, 9, 20):
            assert halfones_exact_mean(n, n) == 0.0

    def test_scaling_window_k64(self):
        k = 64
        v = halfones_exact_mean(4 * k, k)
        assert 0.05 <= v * math.sqrt(k) <= supnorm_mean_bound(k) * math.sqrt(k)

    def test_scaling_regression_window(self):
        # measured envelope of sqrt(k) * mean across the quarter-density family
        for k in (4, 8, 16, 32, 64, 128, 256):
            scaled = halfones_exact_mean(4 * k, k) * math.sqrt(k)
            assert 0.05 <= scaled <= 2.0

    def test_agrees_with_subset_enumeration(self):
        for (n, k) in [(6, 2), (7, 3), (8, 4)]:
            dist = exact_supnorm_distribution(half_ones_diagonal(n), k)
            assert abs(dist.mean() - halfones_exact_mean(n, k)) <= 1e-12


class TestChaining:
    def test_equal_cdfs(self):
        f = esd(Spectrum(np.array([0.0, 1.0, 2.0])))
        assert chaining_check(f, f, 4)

    def test_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = esd(Spectrum(np.sort(rng.standard_normal(rng.integers(1, 9)))))
            g = esd(Spectrum(np.sort(rng.standard_normal(rng.integers(1, 9)))))
            for l in (2, 5, 11, 40):
                assert chaining_check(f, g, l)

    def test_sqrt_k_specialization(self):
        # l = floor(sqrt(k)) + 1 turns 1/l into at most 1/sqrt(k)
        for k in (4, 10, 30, 100):
            l = int(math.isqrt(k)) + 1
            assert 1.0 / l <= 1.0 / math.sqrt(k)

    def test_rejects_small_l(self):
        f = esd(Spectrum(np.array([0.0])))
        with pytest.raises(ValueError):
            chaining_check(f, f, 1)


class TestExactDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExactDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ExactDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            ExactDistribution(np.array([1.0]), np.array([0.0]))

    def test_tail_and_moments(self):
        dist = ExactDistribution(np.array([0.0, 0.5]), np.array([0.75, 0.25]))
        assert dist.tail_prob(0.5) == 0.25
        assert dist.tail_prob(0.0) == 1.0
        assert dist.tail_prob(0.6) == 0.0
        assert abs(dist.mean() - 0.125) <= 1e-15
        assert abs(dist.variance() - (0.75 * 0.125**2 + 0.25 * 0.375**2)) <= 1e-15

    def test_csv(self, tmp_path):
        # the CLI's CSV of an exact law: a header and one (value, probability)
        # row per value, holding the law's floats
        out = tmp_path / "law.csv"
        assert cli_main(["oracle", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                         "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,probability"
        dist = exact_supnorm_distribution(half_ones_diagonal(4), 2)
        assert len(lines) == 1 + dist.values.size
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.tobytes() == np.column_stack((dist.values, dist.probs)).tobytes()


def lattice_table(rng, rows, k):
    """Sorted rows drawn from a five-point lattice with both signs of zero:
    ties within and across rows, and -0.0 next to 0.0."""
    values = rng.integers(-2, 3, size=(rows, k)) * 0.5
    values[(values == 0) & (rng.random((rows, k)) < 0.5)] = -0.0
    return np.sort(values, axis=1)


def array_pass_tables():
    rng = np.random.default_rng(31)
    wide = random_symmetric(5, 8, "gaussian").data[:, :2]
    return {
        "half-ones": subset_spectra(half_ones_diagonal(8), 3),
        "half-ones-k1": subset_spectra(half_ones_diagonal(6), 1),
        "gaussian": subset_spectra(random_symmetric(7, 5, "gaussian"), 3),
        "narrow-singular": subset_spectra(DenseMatrix(wide), 3, "singular"),
        "lattice": lattice_table(rng, 200, 4),
        "lattice-k1": lattice_table(rng, 50, 1),
        "signed-zeros": np.sort(np.where(rng.random((40, 3)) < 0.5, -0.0, 0.0), axis=1),
    }


def grid_for(table):
    """Every table value, both zeros and points outside the support."""
    return np.concatenate((np.unique(table), [-0.0, 0.0, table.min() - 1.0,
                                              table.max() + 1.0]))


class TestArrayPasses:
    """The array passes give the same floats as the loops they replaced."""

    @pytest.mark.parametrize("name", list(array_pass_tables()))
    def test_profile_matches_per_row_searchsorted(self, name, former_loops):
        table = array_pass_tables()[name]
        xs = grid_for(table)
        fa, f = former_loops.profile(table, xs)
        profile = pointwise_profile(table, xs)
        assert profile.fa.tobytes() == fa.tobytes()
        assert profile.f.tobytes() == f.tobytes()

    @pytest.mark.parametrize("name", list(array_pass_tables()))
    def test_tails_match_per_point_tail(self, name, former_loops):
        table = array_pass_tables()[name]
        profile = pointwise_profile(table, grid_for(table))
        # every deviation as an r (ties at the threshold), both zeros, r past 1
        r_grid = np.concatenate((np.unique(np.abs(profile.fa - profile.f)),
                                 [-0.0, 0.0, 1.5], np.linspace(0.0, 1.0, 21)))
        expected = [[former_loops.tail(profile.fa, profile.f, i, float(r)) for r in r_grid]
                    for i in range(profile.xs.size)]
        tails = profile.tails(r_grid)
        assert tails.tobytes() == np.array(expected).tobytes()
        for i in (0, profile.xs.size // 2, profile.xs.size - 1):
            for j in range(0, r_grid.size, 5):
                assert profile.tails([r_grid[j]])[i, 0] == expected[i][j]

    def test_tails_over_a_tightened_bound(self, former_loops):
        # a passing run counts no violations; a bound a tenth as large makes
        # the counts nonzero, and they must still agree
        r_grid = np.linspace(0.0, 1.0, 26)
        seen = 0
        for name, table in array_pass_tables().items():
            k = table.shape[1]
            tight = [pointwise_tail_bound(k, float(r)) / 10 for r in r_grid]
            profile = pointwise_profile(table, grid_for(table))
            fa, f = former_loops.profile(table, profile.xs)
            expected = sum(1 for i in range(profile.xs.size) for r, b in zip(r_grid, tight)
                           if former_loops.tail(fa, f, i, float(r)) > b)
            assert int(np.count_nonzero(profile.tails(r_grid) > tight)) == expected
            seen += expected
        assert seen > 0

    @staticmethod
    def chaining_pairs():
        rng = np.random.default_rng(12)
        pairs = []
        for _ in range(60):
            pairs.append(tuple(step_cdf(rng.standard_normal(rng.integers(1, 9)))
                               for _ in range(2)))
        for _ in range(60):
            pairs.append(tuple(step_cdf(lattice_table(rng, 1, int(rng.integers(1, 7)))[0])
                               for _ in range(2)))
        pairs.append((step_cdf(np.array([0.0])), step_cdf(np.array([-0.0, 0.0, 1.0]))))
        return pairs

    def test_chaining_levels_match_per_level_check(self, former_loops):
        levels = [*range(2, 13), 40, 7, 2]
        for f, g in self.chaining_pairs():
            expected = [sup_distance(g, f) <= former_loops.chaining_bound(f, g, l)
                        for l in levels]
            assert chaining_checks(f, g, levels).tolist() == expected
            assert [chaining_check(f, g, l) for l in levels] == expected

    def test_chaining_levels_under_an_injected_distance(self, former_loops, monkeypatch):
        # the bound holds on every valid pair, so the verdicts above are all
        # true: a distance set to each level's bound, and one ulp past it,
        # pins every level's 1/l + Delta bit for bit
        import subspec.oracle
        levels = list(range(2, 13))
        failures = 0
        for f, g in self.chaining_pairs()[::7]:
            bounds = [former_loops.chaining_bound(f, g, l) for l in levels]
            for s in (*bounds, *np.nextafter(bounds, np.inf)):
                monkeypatch.setattr(subspec.oracle, "sup_distance", lambda g, f, s=s: s)
                verdicts = chaining_checks(f, g, levels).tolist()
                assert verdicts == [s <= b for b in bounds]
                failures += verdicts.count(False)
        assert failures > 0

    def test_chaining_rejects_bad_levels(self):
        f = step_cdf(np.array([0.0, 1.0]))
        for levels in ([], [1], [3, 1], [[2, 3]]):
            with pytest.raises(ValueError):
                chaining_checks(f, f, levels)
