import math

import numpy as np
import pytest

from subspec.ensembles import rw_covariance
from subspec.linalg import DenseMatrix, Spectrum
from subspec.sampling import solve_subsets
from subspec.spectra import (KsResult, StepCdf, cdf_from_csv, cdf_to_csv,
                             esd, kolmogorov_q, ks_two_sample, quantile_grid,
                             step_cdf, sup_distance, sup_distances)


def esd_of(*values):
    return esd(Spectrum(np.array(sorted(values), dtype=float)))


def random_esd(rng, max_size=10):
    return esd(Spectrum(np.sort(rng.standard_normal(rng.integers(1, max_size + 1)))))


class TestEsd:
    def test_single_atom(self):
        f = esd_of(1.0, 1.0)
        assert f.jumps.tolist() == [1.0]
        assert f.cum.tolist() == [1.0]

    def test_two_atoms(self):
        f = esd_of(-1.0, 1.0)
        assert f.jumps.tolist() == [-1.0, 1.0]
        assert f.cum.tolist() == [0.5, 1.0]

    def test_multiplicity_collapse(self):
        f = esd_of(0.0, 0.0, 1.0, 1.0)
        assert f.jumps.tolist() == [0.0, 1.0]
        assert f.cum.tolist() == [0.5, 1.0]

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.standard_normal(6))
        once = esd(Spectrum(values))
        twice = esd(Spectrum(np.sort(np.repeat(values, 2))))
        assert once.jumps.tolist() == twice.jumps.tolist()
        assert once.cum.tolist() == twice.cum.tolist()


class TestEval:
    def test_jump_semantics(self):
        f = esd_of(0.0, 1.0)
        assert f.eval(0.0) == 0.5
        assert f.eval_left(0.0) == 0.0

    def test_below_support(self):
        assert esd_of(0.0, 1.0).eval(-5.0) == 0.0

    def test_continuity_point(self):
        f = esd_of(0.0, 1.0)
        assert f.eval(0.5) == f.eval_left(0.5) == 0.5

    def test_left_le_right(self):
        rng = np.random.default_rng(1)
        f = random_esd(rng)
        for x in np.linspace(-3, 3, 50):
            assert f.eval_left(x) <= f.eval(x)

    def test_eval_many_matches_scalar(self):
        # the array evaluator that sup_distance, sup_distances and the
        # chaining checks run, against eval and eval_left point by point
        rng = np.random.default_rng(23)
        for trial in range(200):
            size = int(rng.integers(1, 30))
            values = rng.integers(-4, 5, size) * 0.5 if trial % 2 else rng.standard_normal(size)
            f = esd(Spectrum(np.sort(values)))
            lo, hi = f.jumps[0], f.jumps[-1]
            xs = np.concatenate([f.jumps, f.jumps - 1e-12, f.jumps + 1e-12,
                                 [lo - 1.0, lo - 1e-12, hi + 1e-12, hi + 1.0]])
            assert f.eval_many(xs).tolist() == [f.eval(float(x)) for x in xs]
            assert f.eval_many(xs, left=True).tolist() == [f.eval_left(float(x)) for x in xs]


class TestStepCdfValidation:
    def test_rejects_unsorted_jumps(self):
        with pytest.raises(ValueError):
            StepCdf(np.array([1.0, 0.0]), np.array([0.5, 1.0]))

    def test_rejects_decreasing_cum(self):
        with pytest.raises(ValueError):
            StepCdf(np.array([0.0, 1.0]), np.array([0.9, 0.5]))

    def test_rejects_bad_terminal(self):
        with pytest.raises(ValueError):
            StepCdf(np.array([0.0]), np.array([0.9]))

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            StepCdf(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestSupDistance:
    def test_identical(self):
        f = esd_of(0.0, 2.0, 5.0)
        assert sup_distance(f, f) == 0.0

    def test_direct_reading(self):
        assert sup_distance(esd_of(1.0, 2.0), esd_of(1.0, 3.0)) == 0.5

    def test_disjoint_atoms(self):
        assert sup_distance(esd_of(0.0), esd_of(1.0)) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f, g = random_esd(rng), random_esd(rng)
            d = sup_distance(f, g)
            assert d == sup_distance(g, f)
            assert 0.0 <= d <= 1.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f, g, h = (random_esd(rng) for _ in range(3))
            assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h) + 1e-15

    def test_left_limit_matters(self):
        # mass just below the other function's jump is only visible to the
        # left-limit comparison
        f = esd_of(0.0)
        g = esd_of(0.5)
        assert sup_distance(f, g) == 1.0

    def test_matches_brute_force_probing(self):
        # probe right values and just-left values around every jump
        rng = np.random.default_rng(8)
        for _ in range(100):
            f, g = random_esd(rng), random_esd(rng)
            grid = np.concatenate([f.jumps, g.jumps])
            probe = np.concatenate([grid, grid - 1e-12, grid + 1e-12, [-10.0, 10.0]])
            brute = max(abs(f.eval(float(x)) - g.eval(float(x))) for x in probe)
            assert abs(sup_distance(f, g) - brute) <= 1e-15


    def test_matches_union_of_jump_sets(self):
        # the former union scan, kept as the oracle: right values and left
        # limits at every jump of either function; same float required
        def union_sup(f, g):
            xs = np.union1d(f.jumps, g.jumps)
            right = np.abs(f.eval_many(xs) - g.eval_many(xs))
            left = np.abs(f.eval_many(xs, left=True) - g.eval_many(xs, left=True))
            return float(max(right.max(), left.max()))

        rng = np.random.default_rng(11)
        for trial in range(3000):
            sizes = rng.integers(1, [8, 400])
            rng.shuffle(sizes)
            if trial % 3 == 0:
                # shared atoms on a coarse lattice: ties between the jump sets
                f, g = (esd(Spectrum(np.sort(rng.integers(-4, 5, size).astype(float))))
                        for size in sizes)
            else:
                f, g = (random_esd(rng, size) for size in sizes)
            if trial % 5 == 0:
                # final values off 1 within the StepCdf tolerance, as a CSV can give
                g = StepCdf(g.jumps, np.minimum(g.cum, 1.0 - 1e-13 * rng.integers(0, 10)))
            assert sup_distance(f, g) == union_sup(f, g) == sup_distance(g, f)

        # the only gap is between the final values, past the shorter one's jumps
        f = StepCdf(np.array([0.0]), np.array([1.0 - 1e-12]))
        g = StepCdf(np.array([0.0, 1.0]), np.array([1.0 - 1e-12, 1.0]))
        assert sup_distance(f, g) == union_sup(f, g) > 0.0


class TestSupDistances:
    """The one-pass distances against the per-row loop they replace, kept
    as the oracle; the same floats are required."""

    @staticmethod
    def per_row(table, reference):
        return np.array([sup_distance(step_cdf(row), reference) for row in table],
                        dtype=np.float64)

    def check(self, table, reference):
        got = sup_distances(table, reference)
        assert got.shape == (table.shape[0],)
        assert got.tobytes() == self.per_row(table, reference).tobytes()

    @staticmethod
    def off_one(f, rng):
        # final value off 1 within the StepCdf tolerance, as a CSV can give
        shift = 1e-13 * rng.integers(-9, 10)
        return StepCdf(f.jumps, np.minimum(f.cum, 1.0 + shift) if shift < 0
                       else np.append(f.cum[:-1], 1.0 + shift))

    def test_random_tables_with_ties(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            k = int(rng.integers(1, 12))
            rows = int(rng.integers(1, 40))
            if trial % 2:
                # a coarse lattice: ties within rows and with the reference
                table = np.sort(rng.integers(-3, 4, (rows, k)).astype(float), axis=1)
                reference = esd(Spectrum(np.sort(
                    rng.integers(-3, 4, int(rng.integers(1, 30))).astype(float))))
            else:
                table = np.sort(rng.standard_normal((rows, k)), axis=1)
                reference = random_esd(rng, int(rng.integers(1, 60)))
            if trial % 3 == 0:
                reference = self.off_one(reference, rng)
            self.check(table, reference)

    def test_signed_zeros_are_one_value(self):
        table = np.array([[-1.0, -0.0, 0.0, 2.0], [-0.0, 0.0, 0.0, 0.0],
                          [0.0, -0.0, 1.0, 1.0], [-2.0, -1.0, -0.0, 0.0]])
        for reference in (esd_of(0.0), esd_of(-0.0, 1.0), esd_of(-1.0, 0.0, 0.0, 3.0)):
            self.check(table, reference)

    def test_single_column(self):
        rng = np.random.default_rng(22)
        table = rng.integers(-2, 3, (50, 1)).astype(float)
        for reference in (esd_of(0.0), esd_of(-1.0, 0.0, 1.0), random_esd(rng, 40)):
            self.check(table, reference)
            self.check(table, self.off_one(reference, rng))

    def test_reference_with_fewer_jumps_than_a_row(self):
        # sup_distance swaps its arguments here; the row side gives the same float
        rng = np.random.default_rng(23)
        table = np.sort(rng.standard_normal((200, 30)), axis=1)
        for size in (1, 2, 5):
            reference = random_esd(rng, size)
            self.check(table, reference)
            self.check(table, self.off_one(reference, rng))

    def test_final_value_gap(self):
        # past the row's last value the reference still climbs above 1, or
        # stays below it
        table = np.array([[0.0], [0.0], [1.0]])
        for cum in ([1.0, 1.0 + 9e-13], [1.0 - 9e-13, 1.0 - 9e-13], [0.5, 1.0 - 9e-13]):
            reference = StepCdf(np.array([0.0, 2.0]), np.array(cum))
            self.check(table, reference)
        assert sup_distances(table, StepCdf(np.array([0.0, 2.0]),
                                            np.array([1.0, 1.0 + 9e-13])))[0] > 0.0

    @pytest.mark.parametrize("case", ["real", "complex-hermitian", "narrow-singular"])
    def test_solved_rows(self, case):
        rng = np.random.default_rng(24)
        if case == "real":
            m, k, mode = rw_covariance(9), 4, "eigen"
        elif case == "complex-hermitian":
            x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            m, k, mode = DenseMatrix(x + x.conj().T), 3, "eigen"
        else:
            m, k, mode = DenseMatrix(rng.standard_normal((6, 2))), 3, "singular"
        subsets = np.array([np.sort(rng.choice(m.rows, k, replace=False)) + 1
                            for _ in range(60)])
        table = solve_subsets(m, subsets, mode)
        for reference in (step_cdf(table.ravel()), step_cdf(table[:3].ravel()),
                          esd_of(float(np.median(table)))):
            self.check(table, reference)
            self.check(table, self.off_one(reference, rng))


class TestKolmogorovQ:
    def test_q_zero(self):
        assert kolmogorov_q(0.0) == 1.0

    def test_q_one_direct_summation(self):
        expected = 2.0 * math.fsum(
            (-1.0) ** (j - 1) * math.exp(-2.0 * j * j) for j in range(1, 60))
        assert abs(kolmogorov_q(1.0) - expected) <= 1e-10
        assert abs(kolmogorov_q(1.0) - 0.2700) <= 1e-4

    def test_monotone_decreasing(self):
        grid = np.linspace(0.05, 3.0, 40)
        vals = [kolmogorov_q(x) for x in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for lam in (0.3, 0.5, 0.8, 1.0, 1.5, 2.5):
            assert abs(kolmogorov_q(lam) - float(special.kolmogorov(lam))) <= 1e-10


class TestKsTwoSample:
    def test_identical_samples(self):
        f = esd_of(1.0, 2.0, 3.0)
        res = ks_two_sample(f, f, 3, 3)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_small_statistic_large_p(self):
        res = KsResult(statistic=0.125, lam=math.sqrt(16 * 16 / 32) * 0.125,
                       p_value=kolmogorov_q(math.sqrt(16 * 16 / 32) * 0.125))
        assert abs(res.lam - 0.3536) <= 1e-4
        assert abs(res.p_value - 1.000) <= 1e-3

    def test_through_cdfs(self):
        f = esd_of(*range(16))
        g = esd_of(*[v + 0.5 for v in range(14)], 20.0, 21.0)
        res = ks_two_sample(f, g, 16, 16)
        assert res.statistic == sup_distance(f, g)
        assert res.lam == math.sqrt(8.0) * res.statistic

    def test_rejects_bad_sizes(self):
        f = esd_of(0.0)
        with pytest.raises(ValueError):
            ks_two_sample(f, f, 0, 4)


class TestQuantileGrid:
    def test_two_atoms(self):
        assert quantile_grid(esd_of(0.0, 1.0), 2).tolist() == [0.0]

    def test_four_atoms(self):
        assert quantile_grid(esd_of(1.0, 2.0, 3.0, 4.0), 4).tolist() == [1.0, 2.0, 3.0]

    def test_single_atom(self):
        for l in (2, 3, 10):
            assert quantile_grid(esd_of(5.0), l).tolist() == [5.0] * (l - 1)

    def test_nondecreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_esd(rng)
            ts = quantile_grid(f, int(rng.integers(2, 15)))
            assert np.all(np.diff(ts) >= 0)

    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            quantile_grid(esd_of(0.0), 1)


class TestCsvRoundTrip:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_esd(rng)
            g = cdf_from_csv(cdf_to_csv(f))
            assert f.jumps.tolist() == g.jumps.tolist()
            assert f.cum.tolist() == g.cum.tolist()

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            cdf_from_csv("a,b\n1,1\n")

    def test_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            cdf_from_csv("x,F\n0,0.5\n1,oops\n")


def test_chaining_bound_on_random_pairs():
    # discretization inequality: sup|G-F| <= 1/l + Delta on F's quantile grid
    rng = np.random.default_rng(7)
    for _ in range(200):
        f, g = random_esd(rng), random_esd(rng)
        for l in (2, 3, 5, 8, 13, 21, 34):
            ts = quantile_grid(f, l)
            delta = max(
                float(np.max(np.abs(g.eval_many(ts) - f.eval_many(ts)))),
                float(np.max(np.abs(g.eval_many(ts, left=True) - f.eval_many(ts, left=True)))))
            assert sup_distance(g, f) <= 1.0 / l + delta + 1e-12
