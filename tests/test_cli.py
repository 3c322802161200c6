import itertools
import json
import math
import time

import numpy as np
import pytest

from subspec.cli import MAX_R_POINTS, _to_json, main, run_verification
from subspec.ensembles import load_matrix, rw_covariance, save_matrix
from subspec.linalg import DenseMatrix
from subspec.montecarlo import TailCurve
from subspec.oracle import ExactDistribution, halfones_exact_mean
from subspec.sampling import (SubsetSample, Xoshiro256pp, derive_sample_seed, random_k_subset,
                              subset_spectrum)
from subspec.spectra import KsResult, cdf_to_csv, esd, ks_two_sample
from subspec.linalg import Spectrum
from subspec import walk

import reference


def run(*argv):
    return main(list(argv))


def count_batched_subset_solves(monkeypatch):
    """Record the number of index rows in each stack `solve_subsets` hands to
    the block solver that `principal_block_solver` picks for its matrix, on
    every path, gathered or diagonal."""
    import subspec.sampling
    real = subspec.sampling.principal_block_solver
    solved = []

    def counting_solver(m):
        blocks = real(m)

        def counting(idx):
            solved.append(idx.shape[0])
            return blocks.solve(idx)
        return blocks._replace(solve=counting)

    monkeypatch.setattr(subspec.sampling, "principal_block_solver", counting_solver)
    return solved


class TestGen:
    def test_writes_min_entries(self, tmp_path):
        out = tmp_path / "m.txt"
        assert run("gen", "rw-covariance", "--n", "5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "5 5 real"
        assert lines[3].split() == ["1", "2", "3", "3", "3"]

    def test_half_ones(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run("gen", "half-ones", "--n", "4", "--out", str(out)) == 0
        rows = [line.split() for line in out.read_text().splitlines()[1:]]
        assert [r[i] for i, r in enumerate(rows)] == ["1", "1", "0", "0"]

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("gen", "random-gaussian", "--n", "8", "--seed", "7", "--out", str(a))
        run("gen", "random-gaussian", "--n", "8", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_needs_random_ensemble(self, tmp_path, capsys):
        # a non-random ensemble would drop the seed without a word
        for ensemble in ("rw-covariance", "half-ones"):
            capsys.readouterr()
            out = tmp_path / f"{ensemble}.txt"
            assert run("gen", ensemble, "--n", "5", "--seed", "9", "--out", str(out)) == 2
            assert "--seed takes a random ensemble" in capsys.readouterr().err
            assert not out.exists()
        unseeded, seeded = tmp_path / "unseeded.txt", tmp_path / "seeded.txt"
        assert run("gen", "random-pm1", "--n", "5", "--out", str(unseeded)) == 0
        assert run("gen", "random-pm1", "--n", "5", "--seed", "0", "--out", str(seeded)) == 0
        assert unseeded.read_bytes() == seeded.read_bytes()


class TestEstimate:
    def test_constant_matrix_zero_mean(self, tmp_path):
        matrix = tmp_path / "c.txt"
        save_matrix(DenseMatrix(2.0 * np.eye(6)), matrix)
        out = tmp_path / "est.json"
        rc = run("estimate", "--matrix", str(matrix), "--k", "2", "--samples", "50",
                 "--seed", "1", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["mean_supnorm"] == 0.0
        assert doc["config"]["k"] == 2
        assert "xoshiro256++" in doc["report"]["metadata"]
        assert doc["tail_violations"] == []

    def test_csv_format(self, tmp_path):
        out = tmp_path / "tail.csv"
        rc = run("estimate", "--ensemble", "half-ones", "--n", "8", "--k", "2",
                 "--samples", "100", "--seed", "3", "--format", "csv",
                 "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,empirical,bound,stderr"
        assert len(lines) == 42  # default 41 grid points

    def test_eigen_mode_rejects_non_hermitian_file(self, tmp_path):
        matrix = tmp_path / "nh.txt"
        save_matrix(DenseMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])), matrix)
        rc = run("estimate", "--matrix", str(matrix), "--k", "1", "--samples", "5",
                 "--out", str(tmp_path / "x.json"))
        assert rc == 1

    def test_singular_mode_accepts_rectangular_file(self, tmp_path):
        matrix = tmp_path / "rect.txt"
        save_matrix(DenseMatrix(np.arange(12.0).reshape(3, 4)), matrix)
        rc = run("estimate", "--matrix", str(matrix), "--k", "2", "--mode", "singular",
                 "--samples", "20", "--seed", "5", "--out", str(tmp_path / "r.json"))
        assert rc == 0

    @pytest.mark.parametrize("n, note", [(12, "reference=exact_F"),
                                         (200, "reference=estimate_F(")])
    def test_singular_mode_forms_gram_once(self, tmp_path, monkeypatch, n, note):
        # the reference (exact below the cap, sampled above it) and the
        # samples solve blocks of the one gram(M) the matrix keeps
        import subspec.linalg
        real, formed = subspec.linalg.gram, []
        monkeypatch.setattr(subspec.linalg, "gram", lambda a: formed.append(a.rows) or real(a))
        out = tmp_path / "est.json"
        assert run("estimate", "--ensemble", "random-gaussian", "--n", str(n), "--k", "4",
                   "--samples", "50", "--mode", "singular", "--out", str(out)) == 0
        assert formed == [n]
        assert note in json.loads(out.read_text())["report"]["metadata"]

    def test_k_out_of_range_is_usage_error(self, tmp_path):
        rc = run("estimate", "--ensemble", "half-ones", "--n", "4", "--k", "9",
                 "--out", str(tmp_path / "x.json"))
        assert rc == 2

    def test_nonpositive_samples_is_usage_error(self, tmp_path):
        for samples in ("0", "-3"):
            rc = run("estimate", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                     "--samples", samples, "--out", str(tmp_path / "x.json"))
            assert rc == 2

    def test_r_points_above_cap_is_usage_error(self, tmp_path):
        # just above the cap first, so a missing cap fails here and never
        # reaches the 10^8-point grid
        out = tmp_path / "x.json"
        for points in (MAX_R_POINTS + 1, 100_000_000):
            started = time.perf_counter()
            rc = run("estimate", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                     "--samples", "5", "--r-points", str(points), "--out", str(out))
            assert rc == 2
            assert time.perf_counter() - started < 5.0
            assert not out.exists()
        rc = run("estimate", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                 "--samples", "5", "--r-points", str(MAX_R_POINTS), "--out", str(out))
        assert rc == 0
        assert len(json.loads(out.read_text())["tail_curve"]["r_grid"]) == MAX_R_POINTS

    def test_non_finite_r_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "x.json"
        for flags in (("--r-min", "nan"), ("--r-max", "nan"), ("--r-max", "inf")):
            rc = run("estimate", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                     "--samples", "5", *flags, "--out", str(out))
            assert rc == 2
        assert not out.exists()


class TestPair:
    def test_full_subset_gives_identical_cdfs(self, tmp_path):
        out = tmp_path / "pair.json"
        rc = run("pair", "--ensemble", "rw-covariance", "--n", "6", "--k", "6",
                 "--exclude-top", "0", "--pairs", "3", "--seed", "9",
                 "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert all(p["statistic"] == 0.0 and p["p_value"] == 1.0 for p in doc["pairs"])
        assert doc["summary"]["median_D"] == 0.0

    def test_exclude_top_bound(self, tmp_path):
        rc = run("pair", "--ensemble", "rw-covariance", "--n", "10", "--k", "4",
                 "--exclude-top", "4", "--pairs", "2", "--out", str(tmp_path / "x.json"))
        assert rc == 2

    def test_k_out_of_range_is_usage_error(self, tmp_path, capsys):
        for k in ("0", "11"):
            capsys.readouterr()
            rc = run("pair", "--ensemble", "rw-covariance", "--n", "10", "--k", k,
                     "--exclude-top", "0", "--pairs", "2", "--out", str(tmp_path / "x.json"))
            assert rc == 2
            assert "k must satisfy" in capsys.readouterr().err

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "pairs.csv"
        rc = run("pair", "--ensemble", "rw-covariance", "--n", "12", "--k", "5",
                 "--exclude-top", "1", "--pairs", "7", "--seed", "2",
                 "--format", "csv", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,D,lambda,p"
        assert len(lines) == 8

    def test_ks_sample_size_is_k_minus_excluded(self, tmp_path):
        out = tmp_path / "pair.json"
        run("pair", "--ensemble", "rw-covariance", "--n", "10", "--k", "4",
            "--exclude-top", "1", "--pairs", "1", "--seed", "0", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["first_pair"]["ks_sample_size"] == 3
        assert len(doc["first_pair"]["cdf_a"]["jumps"]) <= 3

    def test_singular_mode_on_rectangular_matrix(self, tmp_path):
        matrix = tmp_path / "rect.txt"
        save_matrix(DenseMatrix(np.arange(15.0).reshape(5, 3)), matrix)
        out = tmp_path / "pair.json"
        rc = run("pair", "--matrix", str(matrix), "--k", "2", "--mode", "singular",
                 "--exclude-top", "0", "--pairs", "4", "--seed", "1", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["pairs"]) == 4


    def test_singular_mode_on_narrow_matrix(self, tmp_path):
        # the 5 x 3 row blocks of a 10 x 3 matrix have three singular values,
        # so the KS sample size is 3 - exclude_top, not k - exclude_top
        matrix = tmp_path / "narrow.txt"
        save_matrix(DenseMatrix(np.arange(1.0, 31.0).reshape(10, 3) ** 1.5), matrix)
        common = ["pair", "--matrix", str(matrix), "--k", "5", "--mode", "singular",
                  "--pairs", "3", "--seed", "4"]
        for exclude_top, size in (("0", 3), ("1", 2)):
            out = tmp_path / f"pair{exclude_top}.json"
            assert run(*common, "--exclude-top", exclude_top, "--out", str(out)) == 0
            doc = json.loads(out.read_text())
            assert doc["first_pair"]["ks_sample_size"] == size
            assert len(doc["first_pair"]["cdf_a"]["jumps"]) <= size
            for p in doc["pairs"]:
                assert p["lambda"] == math.sqrt(size / 2) * p["statistic"]
        for exclude_top in ("3", "4"):
            out = tmp_path / "x.json"
            assert run(*common, "--exclude-top", exclude_top, "--out", str(out)) == 2
            assert not out.exists()

    @pytest.mark.parametrize("case", ["rw", "complex", "singular-square", "singular-wide"])
    def test_matches_per_pair_reference(self, tmp_path, case):
        # the former loop: one subset_spectrum solve per sampled submatrix
        rng = np.random.default_rng(21)
        if case == "complex":
            x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            m, k, mode = DenseMatrix(x + x.conj().T), 4, "eigen"
        elif case == "singular-square":
            m, k, mode = DenseMatrix(rng.standard_normal((12, 12))), 5, "singular"
        elif case == "singular-wide":
            m, k, mode = DenseMatrix(rng.standard_normal((8, 11))), 3, "singular"
        else:
            m, k, mode = rw_covariance(30), 8, "eigen"
        exclude_top, pairs, seed = 1, 9, 6
        path = tmp_path / "m.txt"
        save_matrix(m, path)
        m = load_matrix(path)

        def sample_cdf(stream):
            rng = Xoshiro256pp.from_seed(derive_sample_seed(seed, stream))
            spectrum = subset_spectrum(m, random_k_subset(m.rows, k, rng), mode)
            return esd(Spectrum(spectrum.values[:spectrum.values.size - exclude_top]))

        cdfs = [(sample_cdf(2 * p), sample_cdf(2 * p + 1)) for p in range(pairs)]
        results = [ks_two_sample(a, b, k - exclude_top, k - exclude_top) for a, b in cdfs]
        expected = "pair,D,lambda,p\n" + "".join(
            f"{i},{r.statistic:.17g},{r.lam:.17g},{r.p_value:.17g}\n"
            for i, r in enumerate(results))
        common = ["pair", "--matrix", str(path), "--k", str(k), "--mode", mode,
                  "--exclude-top", str(exclude_top), "--pairs", str(pairs),
                  "--seed", str(seed)]
        out = tmp_path / "pairs.csv"
        assert run(*common, "--format", "csv", "--out", str(out)) == 0
        assert out.read_bytes() == expected.encode()
        out = tmp_path / "pairs.json"
        assert run(*common, "--out", str(out)) == 0
        first = json.loads(out.read_text())["first_pair"]
        for key, cdf in zip(("cdf_a", "cdf_b"), cdfs[0]):
            assert first[key] == {"jumps": cdf.jumps.tolist(), "cum": cdf.cum.tolist()}


class TestVerify:
    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = run("verify", "--n", "3", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        names = [c["check"] for c in doc["checks"]]
        assert "kernel-validity-n3" in names
        assert "spectral-gap-n3" in names
        assert "chaining" in names
        gap_check = next(c for c in doc["checks"] if c["check"] == "spectral-gap-n3")
        assert gap_check["measured"] <= 1e-8

    def test_corruption_self_test_fails(self, tmp_path):
        out = tmp_path / "corrupt.json"
        rc = run("verify", "--n", "3", "--self-test-corrupt", "--out", str(out))
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_walk_reports_match_checks(self, corrupt):
        # each n's walk report holds the numbers of its kernel-validity and
        # spectral-gap checks; a corrupted class chain fails its check, by
        # 2/n^2, while the report keeps the clean chain's errors
        report = run_verification([3, 4], corrupt=corrupt)
        checks = {c["check"]: c for c in report["checks"]}
        keys = ["row_sum_error", "reversibility_error", "invariance_error"]
        assert [r["n"] for r in report["walk_reports"]] == [3, 4]
        for entry in report["walk_reports"]:
            n = entry["n"]
            assert list(entry) == ["n", *keys, "gap", "gap_theory"]
            kernel, gap = checks[f"kernel-validity-n{n}"], checks[f"spectral-gap-n{n}"]
            assert (entry["gap"], entry["gap_theory"]) == (gap["gap"], gap["gap_theory"])
            clean = [entry[key] for key in keys]
            assert clean == list(walk.class_chain_errors(n, *walk.class_chain(n))) == [0.0] * 3
            assert kernel["measured"] == (2.0 / (n * n) if corrupt else 0.0)
            assert kernel["pass"] is not corrupt
            assert ([kernel[key] for key in keys] == clean) is not corrupt

    def test_failed_one_step_norm_is_reported(self, tmp_path, monkeypatch):
        # a one-step norm far over budget fails its checks in the report
        # instead of aborting the run
        import subspec.cli as cli
        import subspec.walk as walk_mod
        monkeypatch.setattr(walk_mod, "triple_norm", lambda f: 10.0)
        report = cli.run_verification([3])
        norms = [c for c in report["checks"] if c["check"].startswith("one-step-norm-")]
        assert len(norms) == 3
        assert all(c["pass"] is False and c["measured"] == 600.0 for c in norms)
        assert report["pass"] is False
        out = tmp_path / "verify.json"
        assert run("verify", "--n", "3", "--out", str(out)) == 1
        assert json.loads(out.read_text())["pass"] is False

    def test_rejects_large_n(self, tmp_path):
        assert run("verify", "--n", "9", "--out", str(tmp_path / "x.json")) == 2
        assert run("verify", "--n", "1", "--out", str(tmp_path / "x.json")) == 2

    def test_builds_no_dense_kernel(self, tmp_path, monkeypatch):
        # the class chain holds the kernel's facts, so no path lists the n!
        # permutations, let alone builds an n! x n! matrix
        def dense(*args):
            raise AssertionError("the permutations were listed")
        monkeypatch.setattr(walk, "kernel_matrix", dense)
        monkeypatch.setattr(itertools, "permutations", dense)
        walk.spectral_gap.cache_clear()
        walk.class_chain.cache_clear()
        assert run("verify", "--n", "2", "3", "4", "5", "6", "7", "8",
                   "--out", str(tmp_path / "v.json")) == 0

    def test_largest_orders(self, tmp_path):
        # n = 7 and 8, past the dense kernel's cap; a corrupted class chain
        # fails the kernel-validity check alone
        out = tmp_path / "v.json"
        assert run("verify", "--n", "7", "8", "--out", str(out)) == 0
        assert json.loads(out.read_text())["pass"] is True
        assert run("verify", "--n", "7", "--self-test-corrupt", "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        assert [c["check"] for c in doc["checks"] if not c["pass"]] == ["kernel-validity-n7"]

    @pytest.mark.parametrize("n_values", [["3", "3"], ["3", "4", "3"]])
    def test_rejects_repeated_n(self, tmp_path, capsys, n_values):
        # a repeated n would repeat its check names and its walk report
        out = tmp_path / "x.json"
        assert run("verify", "--n", *n_values, "--out", str(out)) == 2
        assert "distinct n" in capsys.readouterr().err
        assert not out.exists()

    def test_solves_each_subset_once(self, tmp_path, monkeypatch):
        # one table per (n, matrix, k) with k < n, three matrices per n:
        # 3 * (6 + 14 + 30) = 150 distinct subset problems
        solved = count_batched_subset_solves(monkeypatch)
        rc = run("verify", "--n", "3", "4", "5", "--out", str(tmp_path / "v.json"))
        assert rc == 0
        assert sum(solved) == 3 * sum(math.comb(n, k) for n in (3, 4, 5) for k in range(1, n))


    def test_tightened_pointwise_bound_counts(self, monkeypatch, former_loops):
        # a passing run counts zero violations everywhere; under a bound
        # about half as large the counts are nonzero and must match the former
        # per-(x, r) loop, and no check evaluates one (x, r) tail at a time
        import subspec.cli as cli
        from subspec.ensembles import half_ones_diagonal, random_symmetric
        from subspec.montecarlo import pointwise_tail_bound
        from subspec.oracle import PointwiseProfile, mean_cdf, subset_spectra

        def tight(k, r):
            # a multiple of 1/4, so that some tails equal their bound exactly
            return math.floor(2 * pointwise_tail_bound(k, r)) / 4

        whole_grid_tails = PointwiseProfile.tails

        def tails(profile, r_grid):
            assert len(r_grid) == 26, "per-(x, r) tail call"
            return whole_grid_tails(profile, r_grid)

        monkeypatch.setattr(cli, "pointwise_tail_bound", tight)
        monkeypatch.setattr(PointwiseProfile, "tails", tails)
        checks = {c["check"]: c for c in cli.run_verification([3, 4])["checks"]}
        r_grid = np.linspace(0.0, 5.0, 26)
        total = 0
        for n in (3, 4):
            for label, m in (("rw-covariance", rw_covariance(n)),
                             ("half-ones", half_ones_diagonal(n)),
                             ("random", random_symmetric(n, 101, "gaussian"))):
                for k in range(1, min(4, n - 1) + 1):
                    table = subset_spectra(m, k)
                    xs = cli._spectrum_grid(mean_cdf(table), 8)
                    fa, f = former_loops.profile(table, xs)
                    expected = sum(1 for i in range(xs.size) for r in r_grid
                                   if former_loops.tail(fa, f, i, float(r)) > tight(k, float(r)))
                    check = checks[f"exact-pointwise-tail-n{n}-k{k}-{label}"]
                    assert check["measured"] == expected
                    assert check["pass"] is (expected == 0)
                    total += expected
        assert total > 0

    def test_chaining_counts_in_one_call(self, monkeypatch, former_loops):
        # all 200 pairs' eleven levels in one call; an inflated distance
        # makes some levels fail, and the count must match the former
        # per-level loop
        import subspec.cli as cli
        import subspec.oracle
        from subspec.spectra import step_cdf, sup_distance

        real_sup = subspec.oracle.pair_distances
        monkeypatch.setattr(subspec.oracle, "pair_distances",
                            lambda a, b: real_sup(a, b) + 0.25)
        calls = []
        real = cli.chaining_checks

        def counting(a, b, ls):
            calls.append((len(a), len(b), list(ls)))
            return real(a, b, ls)

        monkeypatch.setattr(cli, "chaining_checks", counting)
        check = next(c for c in cli.run_verification([3])["checks"] if c["check"] == "chaining")
        assert calls == [(200, 200, list(range(2, 13)))]

        rows = reference.verify_chaining_rows(cli.VERIFY_SEED)
        expected = 0
        for a, b in zip(rows[0::2], rows[1::2]):
            f, g = step_cdf(a), step_cdf(b)
            inflated = sup_distance(g, f) + 0.25
            expected += sum(1 for l in range(2, 13)
                            if not inflated <= former_loops.chaining_bound(f, g, l))
        assert 0 < check["measured"] == expected < 200 * 11
        assert check["pass"] is False

    def test_chaining_builds_no_step_cdf_per_draw(self, monkeypatch):
        # the 27 exact mean CDFs of n = 3, 4, 5 are the only StepCdfs; the
        # 400 chaining draws go into one table
        from subspec.spectra import StepCdf
        real = StepCdf.__post_init__
        built = []

        def counting(self):
            built.append(self.jumps.size)
            real(self)

        monkeypatch.setattr(StepCdf, "__post_init__", counting)
        assert run_verification([3, 4, 5])["pass"]
        assert 0 < len(built) <= 27


SOLVERS = {"jacobi": "eigensolver=jacobi-cyclic;jacobi_tol=1e-12;jacobi_max_sweeps=100",
           "bisection": "eigensolver=householder-bisection;bisection_steps=53"}


class TestSolverMetadata:
    @pytest.mark.parametrize("command, k, method", [
        ("pair", 12, "jacobi"), ("pair", 13, "bisection"), ("oracle", 12, "jacobi"),
        ("oracle", 13, "bisection"), ("oracle-singular", 13, "bisection")])
    def test_pair_and_oracle_name_the_method_of_order_k(self, tmp_path, command, k, method):
        out = tmp_path / "out.json"
        args = {"pair": ["pair", "--pairs", "2", "--exclude-top", "0"], "oracle": ["oracle"],
                "oracle-singular": ["oracle", "--mode", "singular"]}[command]
        assert run(*args, "--ensemble", "random-gaussian", "--n", "14", "--k", str(k),
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["metadata"] == \
            f"prng=splitmix64+xoshiro256++;{SOLVERS[method]}"

    def test_verify_names_the_method_of_its_lanczos_order(self):
        # its largest solve: the symmetrized class chain, of order p(6) = 11
        # and p(7) = 15
        for n_values, method in (([3, 6], "jacobi"), ([7], "bisection")):
            assert run_verification(n_values)["metadata"] == \
                f"prng=splitmix64+xoshiro256++;{SOLVERS[method]}"


class TestOracle:
    def test_half_ones_mean(self, tmp_path):
        out = tmp_path / "o.json"
        rc = run("oracle", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                 "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["mean_supnorm"] - halfones_exact_mean(4, 2)) <= 1e-15
        assert doc["supnorm_distribution"]["values"] == [0.0, 0.5]

    def test_full_subset_point_mass(self, tmp_path):
        out = tmp_path / "o.json"
        rc = run("oracle", "--ensemble", "rw-covariance", "--n", "5", "--k", "5",
                 "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["supnorm_distribution"]["values"] == [0.0]
        assert doc["supnorm_distribution"]["probabilities"] == [1.0]

    def test_k_out_of_range_is_usage_error(self, tmp_path, capsys):
        for k in ("0", "5"):
            capsys.readouterr()
            rc = run("oracle", "--ensemble", "half-ones", "--n", "4", "--k", k,
                     "--out", str(tmp_path / "x.json"))
            assert rc == 2
            assert "k must satisfy" in capsys.readouterr().err

    def test_cap_exceeded_is_usage_error(self, tmp_path):
        rc = run("oracle", "--ensemble", "rw-covariance", "--n", "30", "--k", "15",
                 "--cap", "1000", "--out", str(tmp_path / "x.json"))
        assert rc == 2

    def test_pointwise_section(self, tmp_path):
        out = tmp_path / "o.json"
        rc = run("oracle", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                 "--x", "0.0", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pointwise"][0]["x"] == 0.0
        assert all(t["probability"] <= t["bound"] + 1e-15
                   for t in doc["pointwise"][0]["tails"])

    def test_non_finite_x_is_usage_error(self, tmp_path):
        out = tmp_path / "o.json"
        for x in ("nan", "inf", "-inf"):
            rc = run("oracle", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                     "--x", "0.0", x, "--out", str(out))
            assert rc == 2
        assert not out.exists()

    def test_csv_distribution(self, tmp_path):
        out = tmp_path / "dist.csv"
        rc = run("oracle", "--ensemble", "half-ones", "--n", "4", "--k", "2",
                 "--format", "csv", "--out", str(out))
        assert rc == 0
        assert out.read_text().splitlines()[0] == "value,probability"

    def test_solves_each_subset_once(self, tmp_path, monkeypatch):
        solved = count_batched_subset_solves(monkeypatch)
        rc = run("oracle", "--ensemble", "rw-covariance", "--n", "8", "--k", "3",
                 "--x", "3", "9", "--out", str(tmp_path / "o.json"))
        assert rc == 0
        assert sum(solved) == math.comb(8, 3)

    def test_submatrix_guarded_at_its_own_scale(self, tmp_path, capsys):
        # the whole matrix passes the guard at its 1e6 scale; the unit block
        # of rows and columns 2 and 3 does not
        matrix = tmp_path / "m.txt"
        save_matrix(DenseMatrix(np.array([[1e6, 0.0, 0.0], [0.0, 1.0, 1.0 + 1e-7],
                                          [0.0, 1.0, 1.0]])), matrix)
        rc = run("oracle", "--matrix", str(matrix), "--k", "2",
                 "--out", str(tmp_path / "o.json"))
        assert rc == 1
        assert "not Hermitian" in capsys.readouterr().err

    def test_singular_mode_on_narrow_matrix(self, tmp_path, average_cdfs):
        # the 3 x 2 row blocks of a 5 x 2 matrix have two singular values, not k = 3
        matrix = tmp_path / "m.txt"
        data = np.arange(1.0, 11.0).reshape(5, 2) ** 1.5
        save_matrix(DenseMatrix(data), matrix)
        out = tmp_path / "o.json"
        rc = run("oracle", "--matrix", str(matrix), "--k", "3", "--mode", "singular",
                 "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        cdfs = [esd(subset_spectrum(load_matrix(matrix), SubsetSample(s, 5), "singular"))
                for s in itertools.combinations(range(1, 6), 3)]
        mixture = average_cdfs(cdfs, [0.1] * 10)
        assert doc["exact_F"]["jumps"] == mixture.jumps.tolist()
        np.testing.assert_allclose(doc["exact_F"]["cum"], mixture.cum, atol=1e-15)


class TestKs:
    def test_matches_library(self, tmp_path):
        f = esd(Spectrum(np.array([0.0, 1.0, 2.0, 3.0])))
        g = esd(Spectrum(np.array([0.5, 1.5, 2.5, 3.5])))
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        fa.write_text(cdf_to_csv(f))
        fb.write_text(cdf_to_csv(g))
        out = tmp_path / "ks.json"
        rc = run("ks", str(fa), str(fb), "--na", "4", "--nb", "4", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        expected = ks_two_sample(f, g, 4, 4)
        assert doc["result"]["statistic"] == expected.statistic
        assert doc["result"]["p_value"] == expected.p_value

    def test_tiny_statistic_gives_p_one(self, tmp_path):
        # statistic 1e-10 at sizes 1 and 1: lambda is about 7e-11
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        fa.write_text("x,F\n0,0.5\n1,1\n")
        fb.write_text("x,F\n0,0.5000000001\n1,1\n")
        out = tmp_path / "ks.json"
        assert run("ks", str(fa), str(fb), "--na", "1", "--nb", "1", "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert 0.0 < result["statistic"] < 1e-9
        assert result["p_value"] == 1.0

    def test_nonpositive_sample_size_is_usage_error(self, tmp_path):
        fa = tmp_path / "a.csv"
        fa.write_text(cdf_to_csv(esd(Spectrum(np.array([0.0, 1.0])))))
        for na, nb in (("0", "4"), ("4", "0"), ("-2", "4"), ("4", "-1")):
            rc = run("ks", str(fa), str(fa), "--na", na, "--nb", nb,
                     "--out", str(tmp_path / "ks.json"))
            assert rc == 2
        assert not (tmp_path / "ks.json").exists()

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = run("ks", str(tmp_path / "none.csv"), str(tmp_path / "none2.csv"),
                 "--na", "4", "--nb", "4")
        assert rc == 1


class TestUsage:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_missing_required(self):
        assert run("gen", "rw-covariance") == 2

    def test_ensemble_without_n(self, tmp_path):
        assert run("estimate", "--ensemble", "half-ones", "--k", "2",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_threads_env_default(self, monkeypatch, tmp_path):
        # there is no thread option: SUBSPEC_THREADS is ignored and
        # --threads is a usage error
        monkeypatch.setenv("SUBSPEC_THREADS", "3")
        common = ["--ensemble", "half-ones", "--n", "4", "--k", "2"]
        for argv in (["estimate", *common, "--samples", "10"],
                     ["pair", *common, "--exclude-top", "1", "--pairs", "2"]):
            assert run(*argv, "--out", str(tmp_path / "out")) == 0
            assert run(*argv, "--threads", "2", "--out", str(tmp_path / "out")) == 2

    def test_eigen_mode_on_non_square_matrix(self, tmp_path, capsys):
        # a configuration error with a pointer to singular mode, not a
        # failed computation
        matrix = tmp_path / "wide.txt"
        save_matrix(DenseMatrix(np.arange(24.0).reshape(3, 8)), matrix)
        for argv in (["estimate", "--samples", "10"], ["oracle"],
                     ["pair", "--exclude-top", "0", "--pairs", "2"]):
            capsys.readouterr()
            assert run(*argv, "--matrix", str(matrix), "--k", "2",
                       "--out", str(tmp_path / "out")) == 2
            assert "--mode singular" in capsys.readouterr().err
            assert run(*argv, "--matrix", str(matrix), "--k", "2", "--mode", "singular",
                       "--out", str(tmp_path / "out")) == 0

    def test_matrix_with_ensemble_or_n(self, tmp_path, capsys):
        # a file matrix leaves no room for --ensemble or --n: the run would
        # use the file and drop them from its recorded config
        matrix = tmp_path / "one.txt"
        save_matrix(DenseMatrix(np.array([[2.0]])), matrix)
        for argv in (["estimate", "--samples", "10"], ["oracle"],
                     ["pair", "--exclude-top", "0", "--pairs", "2"]):
            for extra in (["--ensemble", "half-ones", "--n", "6"], ["--ensemble", "half-ones"],
                          ["--n", "6"]):
                capsys.readouterr()
                assert run(*argv, "--matrix", str(matrix), *extra, "--k", "1",
                           "--out", str(tmp_path / "out")) == 2
                assert "--matrix takes neither" in capsys.readouterr().err
            assert run(*argv, "--matrix", str(matrix), "--k", "1",
                       "--out", str(tmp_path / "out")) == 0

    def test_matrix_seed_needs_random_ensemble(self, tmp_path, capsys):
        # the seed would be dropped from the run and from its recorded config
        matrix = tmp_path / "one.txt"
        save_matrix(DenseMatrix(np.array([[2.0]])), matrix)
        out = tmp_path / "out.json"
        for argv in (["estimate", "--k", "1", "--samples", "10"], ["oracle", "--k", "1"],
                     ["pair", "--k", "1", "--exclude-top", "0", "--pairs", "2"]):
            for source in (["--matrix", str(matrix)], ["--ensemble", "half-ones", "--n", "4"],
                           ["--ensemble", "rw-covariance", "--n", "4"]):
                capsys.readouterr()
                assert run(*argv, *source, "--matrix-seed", "5", "--out", str(out)) == 2
                assert "--matrix-seed takes a random ensemble" in capsys.readouterr().err
                assert run(*argv, *source, "--out", str(out)) == 0
                assert "matrix_seed" not in json.loads(out.read_text())["config"]
            random = ["--ensemble", "random-pm1", "--n", "4"]
            for seed, recorded in ((None, 0), ("0", 0), ("5", 5)):
                extra = [] if seed is None else ["--matrix-seed", seed]
                assert run(*argv, *random, *extra, "--out", str(out)) == 0
                assert json.loads(out.read_text())["config"]["matrix_seed"] == recorded

    def test_seeds_outside_the_seed_space(self, tmp_path, capsys):
        # seeds are 64-bit: -1 and 2^64 + 5 would wrap onto 2^64 - 1 and 5
        out = tmp_path / "out"
        random = ["--ensemble", "random-pm1", "--n", "4"]
        commands = [["gen", "random-gaussian", "--n", "3", "--seed"],
                    ["estimate", *random, "--k", "1", "--samples", "5", "--seed"],
                    ["estimate", *random, "--k", "1", "--samples", "5", "--matrix-seed"],
                    ["pair", *random, "--k", "2", "--exclude-top", "0", "--pairs", "2",
                     "--seed"],
                    ["pair", *random, "--k", "2", "--exclude-top", "0", "--pairs", "2",
                     "--matrix-seed"],
                    ["oracle", *random, "--k", "1", "--matrix-seed"]]
        for argv in commands:
            for seed in ("-1", str(2**64), str(2**64 + 5)):
                capsys.readouterr()
                assert run(*argv, seed, "--out", str(out)) == 2
                assert "outside [0, 2^64)" in capsys.readouterr().err
            assert run(*argv, str(2**64 - 1), "--out", str(out)) == 0

    def test_negative_cap(self, tmp_path, capsys):
        out = tmp_path / "out"
        common = ["--ensemble", "half-ones", "--n", "4", "--k", "1"]
        for argv in (["estimate", *common, "--samples", "5"], ["oracle", *common]):
            for cap in ("-1", "-5"):
                capsys.readouterr()
                assert run(*argv, "--cap", cap, "--out", str(out)) == 2
                assert "is negative" in capsys.readouterr().err
        assert run("estimate", *common, "--samples", "5", "--cap", "0", "--out", str(out)) == 0

    def test_every_eigen_subcommand_rejects_non_hermitian_input(self, tmp_path, capsys):
        # identity with one off-diagonal 1: its 1 x 1 blocks, and the blocks
        # of the pair drawn under seed 0, are all symmetric
        a = np.eye(6)
        a[0, 5] = 1.0
        matrix = tmp_path / "skew.txt"
        save_matrix(DenseMatrix(a), matrix)
        for argv in (["estimate", "--k", "1", "--samples", "10"], ["oracle", "--k", "1"],
                     ["pair", "--k", "2", "--exclude-top", "0", "--pairs", "1",
                      "--seed", "0"]):
            capsys.readouterr()
            assert run(*argv, "--matrix", str(matrix), "--out", str(tmp_path / "out")) == 1
            assert "not Hermitian" in capsys.readouterr().err


class TestByteIdenticalReruns:
    def test_estimate_rerun_identical(self, tmp_path):
        args = ["estimate", "--ensemble", "random-gaussian", "--n", "10",
                "--matrix-seed", "4", "--k", "3", "--samples", "300", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pair_rerun_identical(self, tmp_path):
        args = ["pair", "--ensemble", "rw-covariance", "--n", "20", "--k", "6",
                "--exclude-top", "1", "--pairs", "10", "--seed", "5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("verify", "--n", "3", "--out", str(a)) == 0
        assert run("verify", "--n", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_rerun_identical(self, tmp_path):
        args = ["oracle", "--ensemble", "half-ones", "--n", "6", "--k", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestJson:
    """`_to_json` prints a list of Python floats in one pass and an array
    through `.tolist()`; both must give the bytes of the one-call-per-value
    formatter they bypass (`reference.to_json`)."""

    CASES = [
        [],
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0, -1e300],
        [1.5, 2, True, False, None, "x", -0.0],
        [np.float64(0.1), 0.2, np.float32(0.3), np.int64(-7), np.bool_(True), np.nan],
        [np.float64(-0.0), np.float64(np.inf)],
        [[], [0.5, -0.0], [[1.0], [2, 3.0]], (4.0, 5.0), ()],
        {"a": [math.nan, 1e-310], "b": {}, "c": [], "d": (1.0,), "e": {"f": [2.0, 3]}},
        np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324]]),
        np.array([], dtype=np.float64),
        np.zeros((0, 3)),
        np.array([1, -2, 3], dtype=np.int16),
        np.array([True, False]),
        [np.array([0.25, 0.5]), np.arange(6.0).reshape(2, 3), np.array([[1, 2]])],
    ]

    @pytest.mark.parametrize("obj", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_matches_recursive_formatter(self, obj):
        assert _to_json(obj) == reference.to_json(obj)
        assert _to_json(obj, 2) == reference.to_json(obj, 2)


class TestCsv:
    """Every CSV output goes through `spectra.to_csv`; each must give the bytes of
    the one-line-at-a-time writer it replaced (`reference.*_csv`), also on
    -0.0, the smallest subnormal and two-digit pair indices."""

    CURVE = TailCurve(np.array([-0.0, 5e-324, 1.0 / 3.0, 2.0]),
                      np.array([1.0, 1.0 / 3.0, 5e-324, -0.0]),
                      np.array([1.0, 0.7, 1e-300, 0.0]), 3)
    LAW = ExactDistribution(np.array([-0.0, 5e-324, 1.0 / 3.0]),
                            np.array([0.5, 5e-324, 0.5]))
    RESULTS = [KsResult(-0.0, -0.0, 1.0), KsResult(5e-324, 5e-324, 1.0),
               KsResult(1.0 / 3.0, 0.7453559924999299, 0.6), KsResult(1.0, 2.0, 5e-324)] * 3

    def run_csv(self, tmp_path, *argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--format", "csv", "--out", str(out)) == 0
        return out.read_text()

    def test_estimate(self, tmp_path, monkeypatch):
        monkeypatch.setattr("subspec.cli.empirical_tail", lambda report, r_grid: self.CURVE)
        text = self.run_csv(tmp_path, "estimate", "--ensemble", "half-ones", "--n", "6",
                            "--k", "2", "--samples", "10")
        assert text == reference.tail_csv(self.CURVE)

    def test_oracle(self, tmp_path, monkeypatch):
        monkeypatch.setattr("subspec.cli.supnorm_law", lambda table, ref: self.LAW)
        text = self.run_csv(tmp_path, "oracle", "--ensemble", "half-ones", "--n", "4",
                            "--k", "2")
        assert text == reference.distribution_csv(self.LAW)

    def test_pair(self, tmp_path, monkeypatch):
        results = iter(self.RESULTS)
        monkeypatch.setattr("subspec.cli.ks_result", lambda *args: next(results))
        text = self.run_csv(tmp_path, "pair", "--ensemble", "rw-covariance", "--n", "8",
                            "--k", "3", "--exclude-top", "0", "--pairs", "12")
        assert len(text.splitlines()) == 13
        assert text == reference.pair_csv(self.RESULTS)

    @pytest.mark.parametrize("result", RESULTS[:4], ids=["-0", "5e-324", "third", "one"])
    def test_ks(self, tmp_path, monkeypatch, result):
        monkeypatch.setattr("subspec.cli.ks_two_sample", lambda *args: result)
        cdf = tmp_path / "a.csv"
        cdf.write_text(cdf_to_csv(esd(Spectrum(np.array([0.0, 1.0])))))
        text = self.run_csv(tmp_path, "ks", str(cdf), str(cdf), "--na", "2", "--nb", "2")
        assert text == reference.ks_csv(result)
