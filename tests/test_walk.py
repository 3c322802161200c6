import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import subspec.walk as walk_mod
from subspec.cli import main as cli_main
from subspec.ensembles import half_ones_diagonal, random_symmetric, rw_covariance
from subspec.linalg import DenseMatrix, Spectrum, eigenvalues_hermitian, gram, numerical_rank
from subspec.montecarlo import pointwise_tail_bound
from subspec.oracle import subset_spectra, subset_table
from subspec.sampling import SubsetSample, principal_submatrix, row_submatrix
from subspec.spectra import esd, step_cdf, sup_distance
from subspec.walk import (FunctionOnSubsets, _bitmasks, _set_rows, _swap_table,
                          esd_observable, esd_observable_grid, gap_concentration_bound,
                          kernel_errors, kernel_matrix, neighbor_table, permutations,
                          rank_step_check, spectral_gap, transpositions, triple_norm,
                          verify_gap_concentration, verify_triple_norm_bound)

import reference
from reference import (FunctionOnSn, PermIndex, dirichlet_form, lift, perm_rank, perm_unrank,
                       variance_mu)


class TestPermIndex:
    def test_rank_unrank_bijection(self):
        for n in (1, 2, 3, 4, 5):
            seen = set()
            for r in range(math.factorial(n)):
                perm = perm_unrank(n, r)
                assert perm_rank(perm) == r
                seen.add(perm)
            assert len(seen) == math.factorial(n)

    def test_lexicographic_order(self):
        perms = [perm_unrank(3, r) for r in range(6)]
        assert perms == sorted(perms)
        assert perms[0] == (0, 1, 2)
        assert perms[-1] == (2, 1, 0)

    def test_n8_spot_checks(self):
        assert perm_rank(perm_unrank(8, 0)) == 0
        assert perm_rank(perm_unrank(8, 40319)) == 40319
        assert perm_rank(perm_unrank(8, 12345)) == 12345

    def test_permindex_validation(self):
        with pytest.raises(ValueError):
            PermIndex(9, 0)
        with pytest.raises(ValueError):
            PermIndex(3, 6)
        p = PermIndex.from_permutation((2, 0, 1))
        assert p.permutation() == (2, 0, 1)


class TestPermutationArrays:
    """The array tables of `walk` against the rank loops and tuple-keyed
    dicts they replaced (`tests/reference.py`)."""

    def test_rows_are_unranked_permutations(self):
        for n in range(1, 7):
            perms = permutations(n)
            assert perms.shape == (math.factorial(n), n)
            assert [tuple(p) for p in perms.tolist()] == [
                perm_unrank(n, r) for r in range(math.factorial(n))]
        for n in (7, 8):
            perms = permutations(n)
            assert perms.shape == (math.factorial(n), n)
            for r in (0, 1, 719, 5039, 12345 % math.factorial(n), math.factorial(n) - 1):
                assert tuple(perms[r].tolist()) == perm_unrank(n, r)
        assert not permutations(4).flags.writeable
        for n in (0, 9):
            with pytest.raises(ValueError):
                permutations(n)

    def test_neighbor_table_matches_loop(self):
        for n in range(2, 9):
            assert np.array_equal(neighbor_table(n), reference.neighbor_table(n))
        with pytest.raises(ValueError):
            neighbor_table(9)

    def test_set_rows_match_dict(self):
        for n in range(1, 9):
            perms = permutations(n)
            for k in range(1, n + 1):
                rows = _set_rows(n, k)[_bitmasks(perms[:, :k])]
                assert np.array_equal(rows, reference.subset_rows(n, k))
                assert np.count_nonzero(_set_rows(n, k) >= 0) == math.comb(n, k)


class TestSwapTable:
    """`_swap_table`, the walk's steps seen through the selected set, against
    the dict-and-loop `reference.swap_rows` and the facts of the
    Bernoulli-Laplace chain."""

    def test_matches_dict(self):
        for n in range(2, 9):
            for k in range(1, n):
                table = _swap_table(n, k)
                assert table.dtype == np.intp and not table.flags.writeable
                assert table.tobytes() == reference.swap_rows(n, k).tobytes()

    def test_bernoulli_laplace_steps(self):
        for n in range(2, 9):
            for k in range(1, n):
                table = _swap_table(n, k)
                sets = [set(row) for row in subset_table(n, k).tolist()]
                steps = k * (n - k)
                assert table.shape == (math.comb(n, k), steps)
                # every row is reached exactly k(n - k) times
                assert np.bincount(table.ravel(), minlength=len(sets)).tolist() == \
                    [steps] * len(sets)
                for r, row in enumerate(table.tolist()):
                    # the k(n - k) targets are distinct
                    assert len(set(row)) == steps
                    for target in row:
                        # one element out and one in
                        (out,), (into,) = sets[r] - sets[target], sets[target] - sets[r]
                        # the reverse swap returns to the start
                        others = sorted(set(range(1, n + 1)) - sets[target])
                        back = sorted(sets[target]).index(into) * (n - k) + others.index(out)
                        assert table[target, back] == r


class TestKernel:
    def test_n2(self):
        assert kernel_matrix(2).tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_n3_rows(self):
        kernel = kernel_matrix(3)
        for row in kernel:
            values = sorted(row.tolist(), reverse=True)
            assert values[0] == pytest.approx(1 / 3, abs=1e-15)
            assert values[1:4] == pytest.approx([2 / 9] * 3, abs=1e-15)
            assert all(v == 0.0 for v in values[4:])

    def test_row_sums_identity(self):
        # 1/n + (n(n-1)/2)(2/n^2) = 1
        for n in (2, 3, 4, 5):
            kernel = kernel_matrix(n)
            np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-15)

    def test_table_errors_are_zero(self):
        for n in range(2, 9):
            assert kernel_errors(neighbor_table(n), n) == (0.0, 0.0, 0.0)

    def test_errors_tiny(self):
        # the dense oracle, by row and column sums of the n! x n! kernel
        for n in range(2, 7):
            assert max(reference.kernel_errors(kernel_matrix(n))) <= 1e-14

    @staticmethod
    def corrupted_tables(n):
        """Row 0's first step, moved: onto its second step, onto row 0
        itself, and onto a state that is no neighbour of row 0, so that
        the transposition does not undo it."""
        table = neighbor_table(n)
        outside = next(r for r in range(table.shape[0])
                       if r != 0 and r not in table[0])
        for target in (table[0, 1], 0, outside):
            corrupted = table.copy()
            corrupted[0, 0] = target
            yield corrupted

    def test_corruption_detected(self, monkeypatch):
        # each corrupted table fails the table check, and the dense kernel
        # built from it fails the dense oracle
        for n in (3, 4):
            repeat, self_step, not_undone = self.corrupted_tables(n)
            weight = 2.0 / (n * n)
            assert kernel_errors(repeat, n)[:2] == (weight, weight)
            assert kernel_errors(self_step, n)[:2] == (weight, weight)
            assert kernel_errors(not_undone, n)[:2] == (0.0, weight)
            for table in (repeat, self_step, not_undone):
                assert kernel_errors(table, n)[2] > 0.0
                monkeypatch.setattr(walk_mod, "neighbor_table", lambda _: table)
                assert max(reference.kernel_errors(kernel_matrix(n))) > 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_matrix(7)
        with pytest.raises(ValueError):
            kernel_matrix(1)


def partitions(n, largest=None):
    """The integer partitions of n into parts of at most `largest`, each a
    nonincreasing tuple."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(shape):
    return tuple(sum(1 for part in shape if part > j) for j in range(shape[0]))


def irrep_dimension(shape):
    """d_lambda by the hook length formula: n! over the product of hooks."""
    columns = conjugate(shape)
    hooks = math.prod(shape[i] - j + columns[j] - i - 1
                      for i in range(len(shape)) for j in range(shape[i]))
    return math.factorial(sum(shape)) // hooks


def closed_form_eigenvalues(n):
    """The kernel's eigenvalues by Diaconis & Shahshahani (1981), exact in
    rationals, as (value, multiplicity) per lambda of n: 1/n + ((n - 1)/n)
    r(lambda) with multiplicity d_lambda^2, where r(lambda) =
    sum_i [C(lambda_i, 2) - C(lambda'_i, 2)] / C(n, 2)."""
    for shape in partitions(n):
        r = Fraction(sum(math.comb(part, 2) for part in shape)
                     - sum(math.comb(part, 2) for part in conjugate(shape)), math.comb(n, 2))
        yield Fraction(1, n) + Fraction(n - 1, n) * r, irrep_dimension(shape) ** 2


def closed_form_spectrum(n):
    """`closed_form_eigenvalues` with multiplicity, each value rounded once,
    ascending."""
    return np.sort([float(value) for value, count in closed_form_eigenvalues(n)
                    for _ in range(count)])


@pytest.fixture
def fresh_gaps():
    """`spectral_gap` with its cache and `lanczos_tridiagonal`'s emptied
    before and after the test, for tests that patch what they call."""
    spectral_gap.cache_clear()
    walk_mod.lanczos_tridiagonal.cache_clear()
    yield spectral_gap
    spectral_gap.cache_clear()
    walk_mod.lanczos_tridiagonal.cache_clear()


class TestSpectralGap:
    def test_small_n_equals_two_over_n(self):
        for n in range(2, 9):
            assert abs(spectral_gap(n) - 2.0 / n) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lanczos_steps_are_the_distinct_eigenvalues(self, n, monkeypatch, fresh_gaps):
        # the tridiagonal matrix has one row per Lanczos step
        orders = []
        real = walk_mod.eigenvalues_hermitian
        monkeypatch.setattr(walk_mod, "eigenvalues_hermitian",
                            lambda m: orders.append(m.rows) or real(m))
        fresh_gaps(n)
        assert orders == [len({value for value, _ in closed_form_eigenvalues(n)})]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lanczos_gap_matches_the_dense_solve(self, n):
        dense = eigenvalues_hermitian(DenseMatrix(kernel_matrix(n))).values
        assert abs(spectral_gap(n) - (1.0 - dense[-2])) <= 1e-12

    def test_no_breakdown_raises(self, monkeypatch, fresh_gaps, tmp_path):
        monkeypatch.setattr(walk_mod, "_LANCZOS_BREAKDOWN", -1.0)
        with pytest.raises(RuntimeError, match="no breakdown within 6 steps"):
            fresh_gaps(3)
        # n(n - 1) + 1 steps, not n!, bound the run and its basis
        with pytest.raises(RuntimeError, match="no breakdown within 57 steps"):
            fresh_gaps(8)
        out = tmp_path / "verify.json"
        assert cli_main(["verify", "--n", "3", "--out", str(out)]) == 1
        assert not out.exists()

    def test_closed_form_ingredients(self):
        assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert conjugate((3, 1)) == (2, 1, 1)
        assert [irrep_dimension(shape) for shape in partitions(5)] == [1, 4, 5, 6, 5, 4, 1]
        for n in range(2, 7):
            assert sum(irrep_dimension(shape) ** 2 for shape in partitions(n)) == \
                math.factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_eigenvalue_matches_the_closed_form(self, n):
        # the dense n = 6 solve would take seconds; the gap tests reach n = 8
        got = eigenvalues_hermitian(DenseMatrix(kernel_matrix(n))).values
        expected = closed_form_spectrum(n)
        assert got.shape == expected.shape == (math.factorial(n),)
        assert np.abs(got - expected).max() <= 1e-10
        assert abs(1.0 - expected[-2] - 2.0 / n) <= 1e-15


class TestDirichletAndVariance:
    """The S_n oracle of `tests/reference.py`: the Poincare inequality
    gap * Var <= Dirichlet form on the walk's own state space."""

    def test_constant_function(self):
        f = FunctionOnSn(3, np.full(6, 2.5))
        assert dirichlet_form(f) == 0.0
        assert variance_mu(f) == 0.0

    def test_hand_computation_n2(self):
        f = FunctionOnSn(2, np.array([0.0, 1.0]))
        assert variance_mu(f) == 0.25
        assert dirichlet_form(f) == 0.25
        assert reference.triple_norm(f) == 0.5

    def test_poincare_inequality_random(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 5):
            gap = spectral_gap(n)
            for _ in range(100):
                f = FunctionOnSn(n, rng.standard_normal(math.factorial(n)))
                assert gap * variance_mu(f) <= dirichlet_form(f) + 1e-12

    def test_poincare_equality_on_eigenfunction(self):
        # 1{pi(0)=0} - 1/n spans part of the second eigenspace of the walk
        for n in (3, 4, 5):
            perms = [perm_unrank(n, r) for r in range(math.factorial(n))]
            values = np.array([1.0 if p[0] == 0 else 0.0 for p in perms]) - 1.0 / n
            f = FunctionOnSn(n, values)
            gap = spectral_gap(n)
            assert abs(gap * variance_mu(f) - dirichlet_form(f)) <= 1e-6


def verify_observables(n):
    """(k, observable) for every observable `verify` could check at n: its
    three matrices, k = 2..n-1 and a 20-point grid over each table's range."""
    for m in (rw_covariance(n), half_ones_diagonal(n), random_symmetric(n, 101, "gaussian")):
        for k in range(2, n):
            table = subset_spectra(m, k)
            for f in esd_observable_grid(table, n, np.linspace(table.min(), table.max(), 20)):
                yield k, f


class TestTripleNorm:
    def test_constant_zero(self):
        assert triple_norm(FunctionOnSubsets(3, 1, np.zeros(3))) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        f = FunctionOnSubsets(6, 3, rng.standard_normal(20))
        scaled = FunctionOnSubsets(6, 3, -3.5 * f.values)
        assert abs(triple_norm(scaled) - 3.5 * triple_norm(f)) <= 1e-12

    def test_matrix_free_n7(self):
        rng = np.random.default_rng(8)
        f = FunctionOnSubsets(7, 3, rng.standard_normal(35))
        assert triple_norm(f) > 0.0

    def test_hand_computation(self):
        # the indicator of the set {1} at n = 3, k = 1: two swaps move it by 1
        f = FunctionOnSubsets(3, 1, np.array([1.0, 0.0, 0.0]))
        assert triple_norm(f) == math.sqrt(2.0 / 9.0)
        assert reference.triple_norm(lift(f)) == math.sqrt(2.0 / 9.0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_the_sn_oracle(self, n):
        # each observable lifted to S_n: the same one-step norm within 4 ulps
        # (the swap table sums S_n's terms less the zeros) and the same
        # gap-concentration rows for both signs, but at exact ties
        r_grid, gap = np.linspace(0.0, 5.0, 26), spectral_gap(n)
        ties = total = 0
        for k, f in verify_observables(n):
            quotient, full = triple_norm(f), reference.triple_norm(lift(f))
            assert abs(quotient - full) <= 4 * np.spacing(full)
            for signed in (f, FunctionOnSubsets(n, k, -f.values)):
                rows = verify_gap_concentration(signed, r_grid, gap)
                expected = reference.verify_gap_concentration(lift(signed), r_grid, gap)
                ties += self.agree_but_at_ties(signed, quotient, rows, expected)
                total += len(rows)
        # ties are a few percent of the rows (1 to 2.1% for n = 3..8)
        assert ties < 0.05 * total

    @staticmethod
    def agree_but_at_ties(f, norm, rows, expected):
        """Assert that the rows are equal at every r but those where a value
        of the rescaled f is mean + r in exact arithmetic.  There the means
        over C(n, k) and over n! values, rounded apart, may put the tied
        values on either side, so each measure need only lie between the
        counts without and with them.  Returns the number of such r."""
        values = f.values / norm if norm > 0 else f.values
        ties = 0
        for row, other in zip(rows, expected):
            threshold = values.mean() + row["r"]
            tol = 1e-9 * max(1.0, abs(threshold))
            if np.all(np.abs(values - threshold) > tol):
                assert row == other
                continue
            ties += 1
            low = np.count_nonzero(values > threshold + tol) / values.size
            high = np.count_nonzero(values >= threshold - tol) / values.size
            assert row["bound"] == other["bound"]
            assert low <= row["measure"] <= high and low <= other["measure"] <= high
        return ties

    def test_observables_build_no_sn_table(self, monkeypatch):
        # at n = 8 no observable gathers a row per permutation: the subset
        # tables and the swap table carry them
        def sn_table(n):
            raise AssertionError(f"an n! = {math.factorial(n)}-row table was built")

        gap = spectral_gap(8)
        monkeypatch.setattr(walk_mod, "permutations", sn_table)
        monkeypatch.setattr(walk_mod, "neighbor_table", sn_table)
        m = random_symmetric(8, 101, "gaussian")
        for k in range(2, 8):
            table, xs = subset_spectra(m, k), np.linspace(-3.0, 3.0, 20)
            assert verify_triple_norm_bound(table, 8, xs) <= 4.0
            for f in esd_observable_grid(table, 8, xs):
                assert f.values.shape == (math.comb(8, k),)
                assert all(row["pass"] for row in verify_gap_concentration(f, [0.0, 1.0], gap))

    def test_neighbor_table_is_involution(self):
        table = neighbor_table(4)
        for t in range(table.shape[1]):
            assert np.all(table[table[:, t], t] == np.arange(24))


class TestEsdObservable:
    def test_extremes(self):
        table = subset_spectra(rw_covariance(4), 2)
        assert np.all(esd_observable(table, 4, 1e6).values == 1.0)
        assert np.all(esd_observable(table, 4, -1e6).values == 0.0)

    def test_half_ones_counts_selected_ones(self):
        f = esd_observable(subset_spectra(half_ones_diagonal(4), 2), 4, 0.0)
        for value, subset in zip(f.values, subset_table(4, 2).tolist()):
            ones_selected = sum(1 for p in subset if p <= 2)
            assert value == (2 - ones_selected) / 2

    def test_depends_only_on_selected_set(self):
        # lifted to S_n, the observable is the subset's value at every
        # permutation that selects it
        f = esd_observable(subset_spectra(random_symmetric(5, 3, "gaussian"), 3), 5, 0.3)
        row_of = {tuple(s): i for i, s in enumerate(subset_table(5, 3).tolist())}
        lifted = lift(f).values
        for r in range(120):
            key = sorted(p + 1 for p in perm_unrank(5, r)[:3])
            assert lifted[r] == f.values[row_of[tuple(key)]]

    def test_singular_mode_uses_gram_spectrum(self):
        # the row block A of S has A A* = gram(m)[S, S], so the singular-mode
        # observable reads the eigen table of gram(m)
        rng = np.random.default_rng(5)
        m = DenseMatrix(rng.standard_normal((4, 4)))
        f = esd_observable(subset_spectra(gram(m), 2), 4, 0.5)
        assert np.all((f.values >= 0) & (f.values <= 1))
        for value, subset in zip(f.values, subset_table(4, 2).tolist()):
            direct = esd(eigenvalues_hermitian(gram(row_submatrix(m, SubsetSample(subset, 4)))))
            assert value == direct.eval(0.5)

    def test_grid_matches_single(self):
        table = subset_spectra(rw_covariance(4), 2)
        xs = [0.1, 0.5, 2.0]
        grid = esd_observable_grid(table, 4, xs)
        for x, f in zip(xs, grid):
            assert f.values.tolist() == esd_observable(table, 4, x).values.tolist()

    def test_rejects_mismatched_table(self):
        table = subset_spectra(rw_covariance(5), 2)
        with pytest.raises(ValueError):
            esd_observable(table, 4, 0.0)  # C(5, 2) rows, not C(4, 2)
        with pytest.raises(ValueError):
            esd_observable(table[:-1], 5, 0.0)
        with pytest.raises(ValueError):
            esd_observable(subset_spectra(rw_covariance(9), 2), 9, 0.0)
        with pytest.raises(ValueError):
            rank_step_check(rw_covariance(4), table, [(0, 1, 2, 3)], [(0, 1)])


class TestTripleNormBound:
    def test_constant_diagonal_is_zero(self):
        table = subset_spectra(DenseMatrix(2.0 * np.eye(4)), 2)
        assert verify_triple_norm_bound(table, 4, [1.0, 2.0, 3.0]) == 0.0

    def test_half_ones_within_budget(self):
        worst = verify_triple_norm_bound(subset_spectra(half_ones_diagonal(4), 2), 4, [0.0])
        assert 0.0 < worst <= 4.0

    def test_random_within_budget(self):
        table = subset_spectra(random_symmetric(5, 12, "gaussian"), 3)
        xs = np.linspace(-4.0, 4.0, 20)
        assert verify_triple_norm_bound(table, 5, xs) <= 4.0


class TestGapConcentration:
    def test_bound_formula(self):
        assert gap_concentration_bound(1.0, 0.0) == 3.0
        assert abs(gap_concentration_bound(0.25, 2.0) - 3.0 * math.exp(-0.5)) <= 1e-15

    def test_constant_function_passes(self):
        f = FunctionOnSubsets(3, 2, np.full(3, 1.0))
        rows = verify_gap_concentration(f, [0.0, 0.5, 1.0], spectral_gap(3))
        assert all(row["pass"] for row in rows)
        assert rows[1]["measure"] == 0.0

    def test_observable_both_signs(self):
        f = esd_observable(subset_spectra(half_ones_diagonal(4), 2), 4, 0.0)
        r_grid = np.arange(0.0, 5.5, 0.5)
        for signed in (f, FunctionOnSubsets(4, 2, -f.values)):
            rows = verify_gap_concentration(signed, r_grid, spectral_gap(4))
            assert all(row["pass"] for row in rows)

    def test_pointwise_tail_reproduction(self):
        # combining the walk gap with the one-step budget: the exact measure of
        # |f - mean| >= r is at most 6 exp(-r sqrt(k)/sqrt(8)) at every x
        for n, k in ((4, 2), (5, 3)):
            table = subset_spectra(random_symmetric(n, 77, "gaussian"), k)
            for x in np.linspace(-3, 3, 8):
                f = esd_observable(table, n, float(x))
                mean = f.values.mean()
                for r in np.linspace(0.0, 2.0, 21):
                    measure = np.count_nonzero(
                        np.abs(f.values - mean) >= r) / f.values.size
                    assert measure <= pointwise_tail_bound(k, float(r)) + 1e-15


def rank_step_reference(m, table, rel_tol=1e-7):
    """The former one-step `rank_step_check` as a function of (perm, tau):
    np.ix_ blocks in permuted order, a zero-difference short-cut and one
    `numerical_rank` per difference, memoized on the two selections."""
    k = table.shape[1]
    row_of = {s: r for r, s in enumerate(itertools.combinations(range(1, m.rows + 1), k))}

    @functools.lru_cache(maxsize=None)
    def rank(sel_a, sel_b):
        diff = m.data[np.ix_(sel_a, sel_a)] - m.data[np.ix_(sel_b, sel_b)]
        return 0 if np.all(diff == 0) else numerical_rank(DenseMatrix(diff), rel_tol)

    @functools.lru_cache(maxsize=None)
    def cdf(sel):
        return esd(Spectrum(table[row_of[tuple(sorted(v + 1 for v in sel))]]))

    def step(perm, tau):
        moved = list(perm)
        i, j = tau
        moved[i], moved[j] = moved[j], moved[i]
        sel_a, sel_b = tuple(perm[:k]), tuple(moved[:k])
        return rank(sel_a, sel_b), sup_distance(cdf(sel_a), cdf(sel_b))

    return step


class TestRankStepCheck:
    def test_unselected_swap_is_identity(self):
        m = random_symmetric(5, 1, "gaussian")
        ranks, gaps = rank_step_check(m, subset_spectra(m, 2), [(0, 1, 2, 3, 4)], [(2, 4)])
        assert ranks.tolist() == [0]
        assert gaps.tolist() == [0.0]

    def test_in_out_swap_rank_at_most_two(self):
        m = random_symmetric(6, 2, "gaussian")
        ranks, gaps = rank_step_check(m, subset_spectra(m, 3), [(0, 1, 2, 3, 4, 5)], [(1, 4)])
        assert ranks[0] <= 2
        assert gaps[0] <= 2.0 / 3.0 + 1e-12

    def test_in_in_swap_rank_at_most_two(self):
        # both positions selected: the difference is u v^T + v u^T, rank <= 2,
        # and the selected set, hence the ESD, does not change
        m = random_symmetric(6, 9, "gaussian")
        ranks, gaps = rank_step_check(m, subset_spectra(m, 4), [(5, 1, 3, 0, 2, 4)], [(0, 2)])
        assert ranks[0] <= 2
        assert gaps[0] == 0.0
        sel_a = np.array([5, 1, 3, 0])
        sel_b = np.array([3, 1, 5, 0])
        spec_a = eigenvalues_hermitian(DenseMatrix(m.data[np.ix_(sel_a, sel_a)]))
        spec_b = eigenvalues_hermitian(DenseMatrix(m.data[np.ix_(sel_b, sel_b)]))
        np.testing.assert_allclose(spec_a.values, spec_b.values, atol=1e-12)

    def test_diagonal_matrix_gap_bound(self):
        m = DenseMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        table = subset_spectra(m, 2)
        rng = np.random.default_rng(3)
        perms, taus = [], []
        for _ in range(30):
            perms.append(tuple(int(v) for v in rng.permutation(5)))
            taus.append(tuple(int(v) for v in rng.choice(5, 2, replace=False)))
        _, gaps = rank_step_check(m, table, perms, taus)
        assert gaps.shape == (30,)
        assert np.all(gaps <= 2.0 / 2.0 + 1e-12)

    def test_exhaustive_small(self):
        # the gap must equal the one between direct solves of the two
        # selected sets, each in sorted order
        m = random_symmetric(4, 4, "gaussian")
        table = subset_spectra(m, 2)

        def direct_esd(perm):
            s = SubsetSample(tuple(sorted(p + 1 for p in perm[:2])), 4)
            return esd(eigenvalues_hermitian(principal_submatrix(m, s)))

        steps = [(perm_unrank(4, r), tau) for r in range(24) for tau in transpositions(4)]
        ranks, gaps = rank_step_check(m, table, [p for p, _ in steps], [t for _, t in steps])
        for (perm, (i, j)), rank_diff, f_gap in zip(steps, ranks, gaps):
            assert rank_diff <= 2
            assert f_gap <= 1.0 + 1e-12
            moved = list(perm)
            moved[i], moved[j] = moved[j], moved[i]
            assert f_gap == sup_distance(direct_esd(perm), direct_esd(moved))

    def test_matches_per_step_reference(self):
        # every step at n <= 5 on the three `verify` matrices: the same ranks
        # and gaps as the former one-step path
        for n in (3, 4, 5):
            steps = [(perm_unrank(n, r), tau) for r in range(math.factorial(n))
                     for tau in transpositions(n)]
            perms, taus = [p for p, _ in steps], [t for _, t in steps]
            for m in (rw_covariance(n), half_ones_diagonal(n),
                      random_symmetric(n, 101, "gaussian")):
                for k in range(2, n):
                    table = subset_spectra(m, k)
                    ranks, gaps = rank_step_check(m, table, perms, taus)
                    step = rank_step_reference(m, table)
                    expected = [step(p, t) for p, t in steps]
                    assert ranks.tolist() == [r for r, _ in expected]
                    assert gaps.tolist() == [g for _, g in expected]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_gaps_on_tie_heavy_tables(self, k):
        # the gaps read only the table, so any sorted C(n, k)-row table
        # serves: lattice values with both signs of zero, against the former
        # sup_distance(step_cdf(a), step_cdf(b)) of every step's two rows
        n = 6
        rng = np.random.default_rng(40 + k)
        table = rng.integers(-2, 3, size=(math.comb(n, k), k)) * 0.5
        table[(table == 0) & (rng.random(table.shape) < 0.5)] = -0.0
        table = np.sort(table, axis=1)
        row_of = {s: r for r, s in enumerate(itertools.combinations(range(1, n + 1), k))}
        steps = [(perm_unrank(n, r), tau) for r in range(0, 720, 11)
                 for tau in transpositions(n)]
        expected = []
        for perm, (i, j) in steps:
            moved = list(perm)
            moved[i], moved[j] = moved[j], moved[i]
            a, b = (table[row_of[tuple(sorted(v + 1 for v in p[:k]))]] for p in (perm, moved))
            expected.append(sup_distance(step_cdf(a), step_cdf(b)))
        _, gaps = rank_step_check(rw_covariance(n), table, [p for p, _ in steps],
                                  [t for _, t in steps])
        assert gaps.tobytes() == np.array(expected).tobytes()
        assert 0.0 < gaps.max() <= 1.0

    def test_complex_hermitian_matrix(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = DenseMatrix(x + x.conj().T)
        table = subset_spectra(m, 3)
        steps = [(perm_unrank(5, r), tau) for r in range(0, 120, 7)
                 for tau in transpositions(5)]
        ranks, gaps = rank_step_check(m, table, [p for p, _ in steps], [t for _, t in steps])
        step = rank_step_reference(m, table)
        expected = [step(p, t) for p, t in steps]
        assert ranks.tolist() == [r for r, _ in expected]
        assert gaps.tolist() == [g for _, g in expected]

    def test_ranks_match_the_gram_path(self):
        # every `verify` matrix: the ranks by absolute eigenvalues equal
        # those by the singular values of the former batched Gram path
        rng = np.random.default_rng(12)
        for n in (3, 4, 5, 6):
            perms = permutations(n)
            taus = [tuple(rng.choice(n, 2, replace=False)) for _ in perms]
            after = perms.copy()
            for row, (i, j) in zip(after, taus):
                row[[i, j]] = row[[j, i]]
            for m in (rw_covariance(n), half_ones_diagonal(n),
                      random_symmetric(n, 101, "gaussian")):
                for k in range(2, n):
                    ranks, _ = rank_step_check(m, subset_spectra(m, k), perms, taus)
                    diff = np.array([m.data[np.ix_(a[:k], a[:k])] - m.data[np.ix_(b[:k], b[:k])]
                                     for a, b in zip(perms, after)])
                    sv = reference.singular_values_stack(diff)
                    expected = np.count_nonzero(sv > 1e-7 * k * sv[:, -1:], axis=1)
                    assert ranks.tolist() == expected.tolist()

    def test_rejects_a_non_hermitian_matrix(self):
        m = DenseMatrix(np.random.default_rng(13).standard_normal((4, 4)))
        table = subset_spectra(random_symmetric(4, 6, "gaussian"), 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            rank_step_check(m, table, [(0, 1, 2, 3)], [(1, 2)])

    def test_ranks_the_hermitian_part_of_an_inexact_matrix(self):
        # M passes the guard, but its blocks' difference [[0, 5e-11], [0, 0]]
        # would not at its own scale; that of M's Hermitian part has rank 2
        data = np.full((4, 4), 0.5)
        np.fill_diagonal(data, 1.0)
        data[0, 1] += 5e-11
        m = DenseMatrix(data)
        ranks, _ = rank_step_check(m, subset_spectra(m, 2), [(0, 1, 2, 3)], [(1, 2)])
        assert ranks.tolist() == [2]

    def test_accepts_permindex(self):
        m = random_symmetric(4, 6, "gaussian")
        ranks, _ = rank_step_check(m, subset_spectra(m, 2), [PermIndex(4, 7).permutation()],
                                   [(0, 3)])
        assert ranks[0] <= 2

    def test_rejects_bad_steps(self):
        m = random_symmetric(4, 6, "gaussian")
        table = subset_spectra(m, 2)
        perm = (0, 1, 2, 3)
        for sigmas, taus in (([], []), ([perm], []), ([perm, perm], [(0, 1)]),
                             ([perm], [(1, 1)]), ([perm], [(0, 4)]), ([perm], [(-1, 2)]),
                             ([(0, 1, 2)], [(0, 1)]), ([(0, 1, 1, 3)], [(0, 1)])):
            with pytest.raises(ValueError):
                rank_step_check(m, table, sigmas, taus)


class TestFunctionValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            FunctionOnSubsets(4, 2, np.zeros(5))
        with pytest.raises(ValueError):
            FunctionOnSubsets(3, 1, np.zeros(6))  # n! values, not C(n, k)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            FunctionOnSubsets(2, 1, np.array([0.0, np.inf]))

    def test_n_and_k_in_range(self):
        # n = 9 is past every table; a larger n would ask triple_norm for a
        # 2^n-entry set table
        for n, k in ((9, 1), (9, 4), (1, 1), (4, 0), (4, 5)):
            with pytest.raises(ValueError):
                FunctionOnSubsets(n, k, np.zeros(max(1, math.comb(n, k))))
        assert FunctionOnSubsets(8, 8, np.zeros(1)).n == 8
