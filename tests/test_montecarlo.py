import math

import numpy as np
import pytest

from subspec.cli import main as cli_main
from subspec.ensembles import (half_ones_diagonal, load_matrix, random_symmetric,
                               rw_covariance, save_matrix)
from subspec.linalg import DenseMatrix, Spectrum, eigenvalues_hermitian
from subspec import montecarlo as montecarlo_mod
from subspec.montecarlo import (TailCurve, choose_reference, compare_tail,
                                empirical_tail, estimate_F, estimate_supnorm,
                                pointwise_tail_bound, supnorm_mean_bound,
                                supnorm_tail_bound)
from subspec.oracle import exact_F, exact_supnorm_distribution, halfones_exact_mean
from subspec import sampling as sampling_mod
from subspec.sampling import (SubsetSample, Xoshiro256pp, derive_sample_seed, draw_subsets,
                              random_k_subset, solve_subsets, subset_spectrum)
from subspec.spectra import StepCdf, esd, step_cdf, sup_distance

from reference import require_hermitian


class TestBounds:
    def test_supnorm_tail_clamp_at_r_zero(self):
        assert supnorm_tail_bound(100, 0.0) == 1.0
        assert supnorm_tail_bound(1, 0.0) == 1.0

    def test_supnorm_tail_k100_r2(self):
        expected = 120.0 * math.exp(-2.0 * math.sqrt(12.5))
        value = supnorm_tail_bound(100, 2.0)
        assert value == expected
        assert abs(value - 0.1019) <= 1e-4

    def test_supnorm_tail_monotone(self):
        for k in (1, 10, 400):
            vals = [supnorm_tail_bound(k, r) for r in np.linspace(0, 6, 30)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_mean_bound_values(self):
        assert supnorm_mean_bound(1) == 13.0
        assert abs(supnorm_mean_bound(100) - 2.6026) <= 1e-4
        assert abs(supnorm_mean_bound(10**6) - 0.0521) <= 1e-4

    def test_pointwise_bound(self):
        assert pointwise_tail_bound(8, 0.0) == 1.0
        assert pointwise_tail_bound(8, 1.0) == 1.0  # raw value 6/e > 1
        expected = 6.0 * math.exp(-10.0)
        assert abs(pointwise_tail_bound(800, 1.0) - expected) <= 1e-18
        assert abs(expected - 2.72e-4) <= 1e-6

    def test_bounds_reject_bad_args(self):
        with pytest.raises(ValueError):
            supnorm_tail_bound(0, 1.0)
        with pytest.raises(ValueError):
            supnorm_tail_bound(4, -0.1)
        with pytest.raises(ValueError):
            supnorm_mean_bound(0)

    def test_both_tail_bounds_are_probabilities(self):
        # neither bound dominates the other in general; assert only that each
        # is a valid nonincreasing probability curve
        for k in (1, 3, 50, 2000):
            rs = np.linspace(0.0, 8.0, 33)
            for bound in (supnorm_tail_bound, pointwise_tail_bound):
                vals = [bound(k, float(r)) for r in rs]
                assert all(0.0 <= v <= 1.0 for v in vals)
                assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestEstimateF:
    def test_constant_diagonal_single_atom(self):
        m = DenseMatrix(3.25 * np.eye(6))
        f = estimate_F(m, 2, "eigen", 25, 0)
        assert f.jumps.tolist() == [3.25]
        assert f.cum.tolist() == [1.0]

    def test_k_equals_n(self):
        m = random_symmetric(5, 2, "gaussian")
        f = estimate_F(m, 5, "eigen", 7, 123)
        reference = esd(eigenvalues_hermitian(m))
        assert f.jumps.tolist() == reference.jumps.tolist()
        assert f.cum.tolist() == reference.cum.tolist()

    def test_half_ones_converges_to_half(self):
        n_samples = 20000
        f = estimate_F(half_ones_diagonal(4), 2, "eigen", n_samples, 99)
        # per-sample F_A(0) has variance 1/12 under the subset law
        sigma = math.sqrt((1.0 / 12.0) / n_samples)
        assert abs(f.eval(0.0) - 0.5) <= 3.0 * sigma

    def test_non_hermitian_eigen_mode_rejected(self):
        m = DenseMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            estimate_F(m, 1, "eigen", 5, 0)

    def test_submatrix_guarded_at_its_own_scale(self):
        # the 1e-7 asymmetry is within tolerance of the full matrix's 1e6
        # scale but not of the unit block of rows and columns 2 and 3
        m = DenseMatrix(np.array([[1e6, 0.0, 0.0], [0.0, 1.0, 1.0 + 1e-7], [0.0, 1.0, 1.0]]))
        require_hermitian(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            estimate_F(m, 2, "eigen", 20, 0)

    def test_singular_mode_accepts_non_square(self):
        rng = np.random.default_rng(1)
        m = DenseMatrix(rng.standard_normal((4, 9)))
        f = estimate_F(m, 2, "singular", 20, 5)
        assert f.cum[-1] == 1.0
        assert np.all(f.jumps >= 0)

    @pytest.mark.parametrize("case", ["rw-covariance", "half-ones", "singular",
                                      "complex-file"])
    def test_matches_per_sample_count_reference(self, case, tmp_path):
        # the former _average_esd, kept as the reference for the shared
        # weighted count reduction; 300 draws of few subsets repeat many
        if case == "complex-file":
            rng = np.random.default_rng(5)
            x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            save_matrix(DenseMatrix((x + x.conj().T) / 2), tmp_path / "h.txt")
            m, k, mode = load_matrix(tmp_path / "h.txt"), 3, "eigen"
        else:
            m, k, mode = {"rw-covariance": (rw_covariance(9), 4, "eigen"),
                          "half-ones": (half_ones_diagonal(8), 3, "eigen"),
                          "singular": (random_symmetric(8, 3, "gaussian"), 3, "singular"),
                          }[case]
        subsets = [random_k_subset(m.rows, k, Xoshiro256pp.from_seed(derive_sample_seed(31, i)))
                   .indices for i in range(300)]
        spectra = {s: subset_spectrum(m, SubsetSample(s, m.rows), mode) for s in subsets}
        counts = {}
        for s in subsets:
            counts[s] = counts.get(s, 0) + 1
        all_values = np.concatenate([spectra[s].values for s in counts])
        all_weights = np.concatenate(
            [np.full(spectra[s].values.size, c, dtype=np.float64) for s, c in counts.items()])
        uniq, inverse = np.unique(all_values, return_inverse=True)
        per_value = np.bincount(inverse, weights=all_weights, minlength=uniq.size)
        cum = np.cumsum(per_value) / (len(subsets) * k)
        cum[-1] = 1.0
        f = estimate_F(m, k, mode, 300, 31)
        assert len(counts) < len(subsets)
        assert f.jumps.tobytes() == uniq.tobytes()
        assert f.cum.tobytes() == cum.tobytes()


class TestEstimateSupnorm:
    def test_constant_matrix_all_zero(self):
        m = DenseMatrix(1.5 * np.eye(5))
        report = estimate_supnorm(m, 2, "eigen", 50, 3, exact_F(m, 2))
        assert report.mean_supnorm == 0.0
        assert np.all(report.samples == 0.0)
        assert report.supnorm_quantiles[0.99] == 0.0

    @pytest.mark.parametrize("budget", [1, 700, 256 * 1024, sampling_mod.STACK_BYTES])
    def test_matches_per_draw_reference(self, budget, monkeypatch):
        # one distance per draw, in draw order, from the scalar streams; and
        # the same F_hat whether the counts come from one stack or many
        m = random_symmetric(8, 3, "gaussian")
        ref = exact_F(m, 3)
        draws = [random_k_subset(8, 3, Xoshiro256pp.from_seed(derive_sample_seed(9, i)))
                 for i in range(300)]
        expected = np.array([sup_distance(step_cdf(subset_spectrum(m, s, "eigen").values), ref)
                             for s in draws])
        one_stack = estimate_F(m, 3, "eigen", 300, 9)
        monkeypatch.setattr(sampling_mod, "STACK_BYTES", budget)
        report = estimate_supnorm(m, 3, "eigen", 300, 9, ref)
        assert len(set(s.indices for s in draws)) < 300
        assert report.samples.tobytes() == expected.tobytes()
        assert report.f_hat.jumps.tobytes() == one_stack.jumps.tobytes()
        assert report.f_hat.cum.tobytes() == one_stack.cum.tobytes()

    def test_half_ones_mean_matches_oracle(self):
        m = half_ones_diagonal(4)
        n_samples = 5000
        report = estimate_supnorm(m, 2, "eigen", n_samples, 11, exact_F(m, 2))
        exact_mean = halfones_exact_mean(4, 2)
        sigma = math.sqrt(exact_supnorm_distribution(m, 2).variance() / n_samples)
        assert abs(report.mean_supnorm - exact_mean) <= 3.0 * sigma

    def test_half_ones_law_at_scale(self):
        # every sample is |1/2 - H/256| for H hypergeometric (256 draws, 512
        # marked of 1024); the empirical CDF of 20000 samples stays in the
        # DKW band of the exact law, computed here from binomials alone
        n, k, n_samples = 1024, 256, 20_000
        half_cdf = StepCdf(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
        report = estimate_supnorm(half_ones_diagonal(n), k, "eigen", n_samples, 29, half_cdf)
        steps = report.samples * k
        assert np.all(steps == np.round(steps)) and steps.max() <= k // 2
        total = math.comb(n, k)
        pmf = [math.comb(n // 2, h) * math.comb(n // 2, k - h) / total for h in range(k + 1)]
        # P(|H - k/2| = j) for j = 0 .. k/2
        law = [pmf[k // 2]] + [pmf[k // 2 - j] + pmf[k // 2 + j] for j in range(1, k // 2 + 1)]
        exact = np.cumsum(law)
        empirical = np.cumsum(np.bincount(steps.astype(np.intp), minlength=k // 2 + 1)) / n_samples
        band = math.sqrt(math.log(2 / 1e-6) / (2 * n_samples))
        assert np.abs(empirical - exact).max() <= band

    def test_self_fit_bias_direction(self):
        # diagnostic at a fixed configuration: comparing against the run's own
        # average understates the deviation relative to the exact reference
        m = random_symmetric(10, 103, "gaussian")
        f_hat = estimate_F(m, 2, "eigen", 10, 3)
        vs_self = estimate_supnorm(m, 2, "eigen", 10, 3, f_hat)
        vs_exact = estimate_supnorm(m, 2, "eigen", 10, 3, exact_F(m, 2))
        assert vs_self.mean_supnorm < vs_exact.mean_supnorm

    def test_rerun_determinism(self):
        m = random_symmetric(9, 8, "gaussian")
        ref = exact_F(m, 3)
        a = estimate_supnorm(m, 3, "eigen", 400, 17, ref)
        b = estimate_supnorm(m, 3, "eigen", 400, 17, ref)
        assert a.mean_supnorm == b.mean_supnorm
        assert a.samples.tolist() == b.samples.tolist()
        assert a.f_hat.jumps.tolist() == b.f_hat.jumps.tolist()
        assert a.f_hat.cum.tolist() == b.f_hat.cum.tolist()
        assert a.supnorm_quantiles == b.supnorm_quantiles

    def test_shift_invariance(self):
        m = random_symmetric(8, 13, "gaussian")
        shifted = DenseMatrix(m.data + 2.5 * np.eye(8))
        a = estimate_supnorm(m, 3, "eigen", 300, 5, exact_F(m, 3))
        b = estimate_supnorm(shifted, 3, "eigen", 300, 5, exact_F(shifted, 3))
        assert abs(a.mean_supnorm - b.mean_supnorm) <= 1e-12
        np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)

    def test_quantiles_nondecreasing(self):
        m = random_symmetric(10, 4, "gaussian")
        report = estimate_supnorm(m, 4, "eigen", 200, 2, exact_F(m, 4))
        q = report.supnorm_quantiles
        assert q[0.5] <= q[0.9] <= q[0.99]

    def test_metadata_names_prng_and_solver(self):
        m = half_ones_diagonal(4)
        report = estimate_supnorm(m, 2, "eigen", 10, 0, exact_F(m, 2))
        assert "xoshiro256++" in report.metadata
        assert "jacobi" in report.metadata

    @pytest.mark.parametrize("case, k, mode, method", [
        ("symmetric", 12, "eigen", "jacobi"), ("symmetric", 13, "eigen", "bisection"),
        ("complex", 6, "eigen", "jacobi"), ("complex", 7, "eigen", "bisection"),
        ("diagonal", 40, "eigen", "jacobi"), ("gram", 12, "singular", "jacobi"),
        ("gram", 13, "singular", "bisection"), ("diagonal", 20, "singular", "jacobi")])
    def test_metadata_names_the_method_of_the_solved_order(self, case, k, mode, method):
        # the order solved is k, 2k for the complex embedding and k for the
        # blocks of gram(M); diagonal blocks reach no solver and keep
        # Jacobi's string, whose bytes their solve has
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 40))
        m = {"symmetric": random_symmetric(40, 3, "gaussian"),
             "complex": DenseMatrix(x + x.T + 1j * (x - x.T)), "diagonal": half_ones_diagonal(40),
             "gram": DenseMatrix(rng.standard_normal((40, 30)))}[case]
        report = estimate_supnorm(m, k, mode, 4, 0, estimate_F(m, k, mode, 4, 1))
        solver = {"jacobi": "eigensolver=jacobi-cyclic;jacobi_tol=1e-12;jacobi_max_sweeps=100",
                  "bisection": "eigensolver=householder-bisection;bisection_steps=53"}[method]
        assert report.metadata == f"prng=splitmix64+xoshiro256++;{solver}"


def deduplicated_sampled_spectra(m, k, mode, n_samples, master_seed, reference):
    """The former `montecarlo._sampled_spectra`, kept as the oracle: all
    draws at once, each distinct subset solved once, its values weighted by
    how often it was drawn and its distance shared by every draw of it."""
    subsets = draw_subsets(m.rows, k, master_seed, 0, n_samples)
    distinct, inverse, counts = np.unique(subsets, axis=0, return_inverse=True,
                                          return_counts=True)
    spectra = solve_subsets(m, distinct, mode)
    f_hat = step_cdf(spectra.ravel(), np.repeat(counts, spectra.shape[1]))
    distances = np.array([sup_distance(step_cdf(row), reference) for row in spectra])
    return f_hat, distances[inverse.reshape(-1)]


class TestSolvedAsDrawn:
    """Every draw is solved as drawn, DRAW_LANES at a time."""

    @staticmethod
    def make_case(case, tmp_path):
        """(m, k, mode, n_samples); "split" is the Gaussian case"""
        if case == "random-pm1":
            return random_symmetric(9, 0, "pm1"), 3, "eigen", 5000
        if case == "split":
            return random_symmetric(8, 3, "gaussian"), 3, "eigen", 700
        if case == "narrow-singular":
            rng = np.random.default_rng(2)
            return DenseMatrix(rng.standard_normal((6, 2))), 3, "singular", 400
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        save_matrix(DenseMatrix((x + x.conj().T) / 2), tmp_path / "h.txt")
        return load_matrix(tmp_path / "h.txt"), 3, "eigen", 400

    # one draw per chunk, chunks of a few, and the default; each against
    # stacks of one, of a few, a 256 KB budget, and the default budget
    @pytest.mark.parametrize("lanes, budget", [(1, 256 * 1024), (1, sampling_mod.STACK_BYTES),
                                               (3, 700), (sampling_mod.DRAW_LANES, 1),
                                               (sampling_mod.DRAW_LANES, 256 * 1024),
                                               (sampling_mod.DRAW_LANES,
                                                sampling_mod.STACK_BYTES)])
    @pytest.mark.parametrize("case", ["random-pm1", "split", "narrow-singular",
                                      "complex-file"])
    def test_matches_deduplicated_reference(self, case, lanes, budget, tmp_path,
                                            monkeypatch):
        m, k, mode, n_samples = self.make_case(case, tmp_path)
        ref = exact_F(m, k, mode)
        f_expected, d_expected = deduplicated_sampled_spectra(m, k, mode, n_samples, 8, ref)
        assert len(np.unique(draw_subsets(m.rows, k, 8, 0, n_samples), axis=0)) < n_samples
        monkeypatch.setattr(sampling_mod, "DRAW_LANES", lanes)
        monkeypatch.setattr(sampling_mod, "STACK_BYTES", budget)
        f_hat, distances = montecarlo_mod._sampled_spectra(m, k, mode, n_samples, 8, ref)
        assert f_hat.jumps.tobytes() == f_expected.jumps.tobytes()
        assert f_hat.cum.tobytes() == f_expected.cum.tobytes()
        assert distances.tobytes() == d_expected.tobytes()

    def test_draws_at_most_draw_lanes_rows_per_call(self, monkeypatch):
        rows = []
        real = montecarlo_mod.draw_subsets

        def recording(n, k, master_seed, offset, count):
            rows.append((offset, count))
            return real(n, k, master_seed, offset, count)

        monkeypatch.setattr(montecarlo_mod, "draw_subsets", recording)
        m = random_symmetric(9, 4, "pm1")
        estimate_supnorm(m, 3, "eigen", 5000, 4, exact_F(m, 3))
        lanes = sampling_mod.DRAW_LANES
        assert max(count for _, count in rows) <= lanes
        assert rows == [(start, min(lanes, 5000 - start)) for start in range(0, 5000, lanes)]

    def test_hermitian_decision_once_per_call(self, monkeypatch):
        # one decision per call, and every draw solved once on whichever
        # path it picks, gathered or diagonal
        decisions = []
        rows = []
        real = sampling_mod.principal_block_solver

        def recording(m):
            blocks = real(m)
            decisions.append(blocks.path)

            def counting(idx):
                rows.append(idx.shape[0])
                return blocks.solve(idx)
            return blocks._replace(solve=counting)

        monkeypatch.setattr(sampling_mod, "principal_block_solver", recording)
        m = random_symmetric(9, 4, "pm1")
        estimate_F(m, 3, "eigen", 5000, 4)
        assert decisions == ["symmetric"] and sum(rows) == 5000
        estimate_supnorm(m, 3, "eigen", 5000, 4, exact_F(m, 3))
        assert len(decisions) == 3  # exact_F decides once too
        assert sum(rows) == 2 * 5000 + math.comb(9, 3)
        decisions.clear()
        rows.clear()
        estimate_F(half_ones_diagonal(64), 8, "eigen", 5000, 4)
        assert decisions == ["diagonal"] and sum(rows) == 5000

    def test_non_hermitian_fails_before_any_draw(self, monkeypatch):
        draws = []
        real = montecarlo_mod.draw_subsets

        def recording(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(montecarlo_mod, "draw_subsets", recording)
        a = np.eye(64)
        a[0, 63] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            estimate_F(DenseMatrix(a), 8, "eigen", 5000, 0)
        with pytest.raises(ValueError, match="not Hermitian"):
            estimate_supnorm(DenseMatrix(a), 8, "eigen", 5000, 0, esd(Spectrum(np.ones(1))))
        assert draws == []


class TestEmpiricalTail:
    def make_report(self):
        m = half_ones_diagonal(8)
        return estimate_supnorm(m, 2, "eigen", 2000, 23, exact_F(m, 2))

    def test_large_r_empties(self):
        report = self.make_report()
        curve = empirical_tail(report, np.array([0.0, 0.5, 2.0]))
        assert curve.empirical[-1] == 0.0  # 1/sqrt(k) + 2 > 1 caps the sup norm

    def test_bound_at_zero_clamped(self):
        report = self.make_report()
        curve = empirical_tail(report, np.array([0.0, 1.0]))
        assert curve.bound[0] == 1.0

    def test_constant_matrix_tail_zero(self):
        m = DenseMatrix(np.eye(5) * 4.0)
        report = estimate_supnorm(m, 2, "eigen", 100, 0, exact_F(m, 2))
        curve = empirical_tail(report, np.linspace(0.0, 2.0, 9))
        assert np.all(curve.empirical == 0.0)

    def test_csv_shape(self, tmp_path):
        # the CLI's CSV of the same run: a header and one row per r point,
        # holding the curve's floats
        out = tmp_path / "tail.csv"
        assert cli_main(["estimate", "--ensemble", "half-ones", "--n", "8", "--k", "2",
                         "--samples", "2000", "--seed", "23", "--r-max", "1",
                         "--r-points", "5", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,empirical,bound,stderr"
        assert len(lines) == 6
        curve = empirical_tail(self.make_report(), np.linspace(0.0, 1.0, 5))
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        columns = np.column_stack((curve.r_grid, curve.empirical, curve.bound, curve.stderr()))
        assert rows.tobytes() == columns.tobytes()


class TestCompareTail:
    def test_exact_tail_passes(self):
        m = half_ones_diagonal(8)
        dist = exact_supnorm_distribution(m, 2)
        r_grid = np.linspace(0.0, 3.0, 31)
        empirical = np.array([dist.tail_prob(1.0 / math.sqrt(2) + r) for r in r_grid])
        bound = np.array([supnorm_tail_bound(2, float(r)) for r in r_grid])
        curve = TailCurve(r_grid, empirical, bound, n_samples=10**9)
        assert compare_tail(curve) == []
        assert np.all(empirical <= bound)  # zero tolerance needed

    def test_synthetic_violation_detected(self):
        r_grid = np.array([0.0, 0.5, 1.0])
        empirical = np.array([1.0, 1.0, 1.0])
        bound = np.array([supnorm_tail_bound(10**4, float(r)) for r in r_grid])
        curve = TailCurve(r_grid, empirical, bound, n_samples=100)
        violations = compare_tail(curve)
        assert violations and all(v["empirical"] == 1.0 for v in violations)


class TestTailCurveValidation:
    def test_rejects_increasing_empirical(self):
        with pytest.raises(ValueError):
            TailCurve(np.array([0.0, 1.0]), np.array([0.1, 0.2]),
                      np.array([1.0, 0.5]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TailCurve(np.array([0.0, 1.0]), np.array([1.5, 0.2]),
                      np.array([1.0, 0.5]), 10)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            TailCurve(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                      np.array([1.0, 1.0]), 10)


class TestChooseReference:
    def test_small_space_uses_exact(self):
        m = half_ones_diagonal(6)
        ref, note = choose_reference(m, 2, "eigen", 100, 0)
        assert note == "reference=exact_F"
        exact = exact_F(m, 2)
        assert ref.jumps.tolist() == exact.jumps.tolist()

    def test_large_space_uses_independent_estimate(self):
        m = random_symmetric(30, 1, "gaussian")
        ref, note = choose_reference(m, 15, "eigen", 20, 0, cap=1000)
        assert note.startswith("reference=estimate_F")
        assert ref.cum[-1] == 1.0
