"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import time

import numpy as np

from subspec import walk
from subspec.cli import main as cli_main
from subspec.ensembles import half_ones_diagonal, random_symmetric, rw_covariance
from subspec.linalg import (DenseMatrix, Spectrum, eigenvalues_hermitian,
                            eigenvalues_hermitian_stack)
from subspec.montecarlo import (estimate_supnorm, pointwise_tail_bound,
                                supnorm_mean_bound, supnorm_tail_bound)
from subspec.oracle import (chaining_checks, exact_F, exact_pointwise_profile,
                            exact_supnorm_distribution, halfones_exact_mean,
                            hypergeometric_pmf, subset_spectra)
from subspec.spectra import StepCdf, esd, sup_distance

from reference import singular_values_stack


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def fresh_gap(n):
    walk.spectral_gap.cache_clear()
    walk.lanczos_tridiagonal.cache_clear()
    start = time.perf_counter()
    gap = walk.spectral_gap(n)
    return gap, time.perf_counter() - start


def hermitian_test_matrices(n, seeds):
    matrices = {"rw-covariance": rw_covariance(n), "half-ones": half_ones_diagonal(n)}
    for seed in seeds:
        matrices[f"random-{seed}"] = random_symmetric(n, seed, "gaussian")
    return matrices


def eigen_range_grid(matrix, points):
    vals = eigenvalues_hermitian(matrix).values
    lo, hi = float(vals[0]), float(vals[-1])
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, points)


def test_criterion_1_spectral_gap_fast():
    # at the tolerance `verify` checks the gap at
    worst = 0.0
    elapsed_6 = None
    for n in (2, 3, 4, 5, 6):
        gap, elapsed = fresh_gap(n)
        worst = max(worst, abs(gap - 2.0 / n))
        if n == 6:
            elapsed_6 = elapsed
    ok = worst <= 1e-8 and elapsed_6 < 5.0
    report("1-spectral-gap", ok,
           f"max |gap - 2/n| = {worst:.2e} for n in 2..6, n=6 solve {elapsed_6:.2f}s")


def test_criterion_2_kernel_validity():
    worst = 0.0
    for n in range(2, walk.MAX_PERM_N + 1):
        errors = walk.kernel_errors(walk.neighbor_table(n), n)
        worst = max(worst, *errors)
    report("2-kernel-validity", worst == 0.0, f"max error = {worst:.2e} for n <= 8")


def test_criterion_3_one_step_norm_budget():
    start = time.perf_counter()
    worst = 0.0
    within = True
    cases = 0
    for n in (4, 5, 6):
        for label, matrix in hermitian_test_matrices(n, range(201, 206)).items():
            xs = eigen_range_grid(matrix, 20)
            for k in range(2, n):
                table = subset_spectra(matrix, k)
                case_worst = walk.verify_triple_norm_bound(table, n, xs)
                within = within and case_worst <= 4.0 + k * n * 1e-12
                worst = max(worst, case_worst)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = within and elapsed < 120.0
    report("3-one-step-norm", ok,
           f"{cases} cases, worst kn*norm^2 = {worst:.6f} <= 4, {elapsed:.1f}s")


def test_criterion_4_gap_concentration():
    r_grid = np.linspace(0.0, 5.0, 26)
    violations = 0
    functions = 0
    for n in (4, 5, 6):
        gap = walk.spectral_gap(n)
        for matrix in hermitian_test_matrices(n, range(201, 206)).values():
            xs = eigen_range_grid(matrix, 20)
            for k in range(2, n):
                for f in walk.esd_observable_grid(subset_spectra(matrix, k), n, xs):
                    for signed in (f, walk.FunctionOnSubsets(n, k, -f.values)):
                        functions += 1
                        rows = walk.verify_gap_concentration(signed, r_grid, gap)
                        violations += sum(1 for row in rows if not row["pass"])
    report("4-gap-concentration", violations == 0,
           f"{functions} observables x 26 r-points, {violations} violations")


def test_criterion_5_exact_supnorm_tail():
    r_grid = np.linspace(0.0, 5.0, 50)
    violations = 0
    cases = 0
    for label, matrix in hermitian_test_matrices(10, range(301, 304)).items():
        for k in (2, 3, 4):
            dist = exact_supnorm_distribution(matrix, k)
            if dist.mean() > supnorm_mean_bound(k):
                violations += 1
            for r in r_grid:
                cases += 1
                if dist.tail_prob(1.0 / math.sqrt(k) + float(r)) > \
                        supnorm_tail_bound(k, float(r)):
                    violations += 1
    rng = np.random.default_rng(52)
    for _ in range(5):
        matrix = DenseMatrix(rng.standard_normal((8, 8)))
        for k in (2, 3, 4):
            dist = exact_supnorm_distribution(matrix, k, mode="singular")
            for r in r_grid:
                cases += 1
                if dist.tail_prob(1.0 / math.sqrt(k) + float(r)) > \
                        supnorm_tail_bound(k, float(r)):
                    violations += 1
    report("5-exact-supnorm-tail", violations == 0,
           f"{cases} (instance, r) pairs, {violations} violations")


def test_criterion_6_exact_pointwise_tail():
    r_grid = np.linspace(0.0, 5.0, 50)
    violations = 0
    cases = 0
    for label, matrix in hermitian_test_matrices(10, range(301, 304)).items():
        xs = eigen_range_grid(matrix, 10)
        for k in (2, 3, 4):
            tails = exact_pointwise_profile(matrix, k, xs).tails(r_grid)
            bounds = [pointwise_tail_bound(k, float(r)) for r in r_grid]
            cases += tails.size
            violations += int(np.count_nonzero(tails > bounds))
    report("6-exact-pointwise-tail", violations == 0,
           f"{cases} (instance, x, r) triples, {violations} violations")


def test_criterion_7_rank_inequalities():
    # draw every trial first, then solve both matrices of every trial of one
    # shape in a single stack
    rng = np.random.default_rng(53)
    eigen_trials = []
    for _ in range(1000):
        k = int(rng.integers(2, 31))
        rank = int(rng.integers(1, min(5, k) + 1))
        base = rng.standard_normal((k, k))
        a = base + base.T
        bump = np.zeros((k, k))
        for _ in range(rank):
            u = rng.standard_normal(k)
            bump += rng.standard_normal() * np.outer(u, u)
        eigen_trials.append((rank, a, a + bump))
    singular_trials = []
    for _ in range(1000):
        k = int(rng.integers(2, 31))
        n = int(rng.integers(k, 2 * k + 1))
        rank = int(rng.integers(1, min(5, k) + 1))
        a = rng.standard_normal((k, n))
        bump = np.zeros((k, n))
        for _ in range(rank):
            bump += np.outer(rng.standard_normal(k), rng.standard_normal(n))
        singular_trials.append((rank, a, a + bump))

    violations = 0
    for trials, solve in ((eigen_trials, eigenvalues_hermitian_stack),
                          (singular_trials, singular_values_stack)):
        by_shape = {}
        for trial in trials:
            by_shape.setdefault(trial[1].shape, []).append(trial)
        for (k, _), group in by_shape.items():
            spectra = solve(np.array([a for _, a, _ in group] + [b for _, _, b in group]))
            for (rank, _, _), va, vb in zip(group, spectra[:len(group)],
                                            spectra[len(group):]):
                gap = sup_distance(esd(Spectrum(va)), esd(Spectrum(vb)))
                if gap > rank / k + 1e-12:
                    violations += 1
    report("7-rank-inequalities", violations == 0,
           f"2000 randomized trials, {violations} violations")


def test_criterion_8_oracle_monte_carlo_agreement():
    start = time.perf_counter()
    matrix = random_symmetric(10, 404, "gaussian")
    k, n_samples = 3, 200_000
    reference = exact_F(matrix, k)
    mc = estimate_supnorm(matrix, k, "eigen", n_samples, 808, reference)
    dist = exact_supnorm_distribution(matrix, k)
    cdf_gap = sup_distance(mc.f_hat, reference)
    # pointwise band: Var F_A(x) <= F(x)(1 - F(x)) since F_A takes values in [0,1]
    f_vals = reference.cum
    bands = 3.0 * np.sqrt(f_vals * (1.0 - f_vals) / n_samples)
    pointwise_ok = bool(np.all(
        np.abs(mc.f_hat.eval_many(reference.jumps) - f_vals) <= bands + 1e-15))
    sigma = math.sqrt(dist.variance() / n_samples)
    mean_gap = abs(mc.mean_supnorm - dist.mean())
    elapsed = time.perf_counter() - start
    ok = cdf_gap <= 0.01 and pointwise_ok and mean_gap <= 3.0 * sigma and elapsed < 60.0
    report("8-oracle-mc-agreement", ok,
           f"sup|F_hat - F| = {cdf_gap:.4f} <= 0.01, pointwise within 3 sigma: "
           f"{pointwise_ok}, |mean - exact| = {mean_gap:.2e} "
           f"<= 3 sigma = {3 * sigma:.2e}, {elapsed:.1f}s")


def test_criterion_9_half_ones_scaling():
    half_cdf = StepCdf(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    ok = True
    details = []
    for k in (16, 64, 256):
        n = 4 * k
        exact_mean = halfones_exact_mean(n, k)
        scaled = exact_mean * math.sqrt(k)
        upper = 13.0 + math.sqrt(8.0) * math.log(k)
        sandwich = 0.05 <= scaled <= upper
        hs, probs = hypergeometric_pmf(n, n // 2, k)
        deviations = np.abs(0.5 - hs / k)
        variance = float(np.sum(probs * (deviations - exact_mean) ** 2))
        mc = estimate_supnorm(half_ones_diagonal(n), k, "eigen", 10_000, 7 * k,
                              half_cdf)
        sigma = math.sqrt(variance / 10_000)
        mc_match = abs(mc.mean_supnorm - exact_mean) <= 3.0 * sigma
        ok = ok and sandwich and mc_match
        details.append(f"k={k}: sqrt(k)*mean={scaled:.3f} in [0.05, {upper:.2f}], "
                       f"|mc - exact| = {abs(mc.mean_supnorm - exact_mean):.2e}")
    report("9-half-ones-scaling", ok, "; ".join(details))


def test_criterion_10_pair_regime(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "pairs.json"
    rc = cli_main(["pair", "--ensemble", "rw-covariance", "--n", "100", "--k", "20",
                   "--exclude-top", "4", "--pairs", "500", "--seed", "0",
                   "--out", str(out)])
    elapsed = time.perf_counter() - start
    doc = json.loads(out.read_text())
    median_d = doc["summary"]["median_D"]
    share = doc["summary"]["frac_p_ge_0.05"]
    ok = rc == 0 and median_d <= 0.2 and share >= 0.75 and elapsed < 30.0
    report("10-pair-regime", ok,
           f"median D = {median_d}, share p >= 0.05 = {share}, {elapsed:.1f}s")


def test_criterion_11_chaining():
    # every pair and level in one table call, the form `verify` uses
    rng = np.random.default_rng(54)
    values = np.full((2000, 10), np.inf)
    for row in values:
        size = int(rng.integers(1, 11))
        row[:size] = np.sort(rng.standard_normal(size))
    verdicts = chaining_checks(values[0::2], values[1::2], range(2, 41))
    assert verdicts.shape == (1000, 39)
    violations = int(np.count_nonzero(~verdicts))
    report("11-chaining", violations == 0,
           f"1000 pairs x l in 2..40, {violations} violations")


def test_criterion_12_thread_and_rerun_determinism(tmp_path):
    matrix_path = tmp_path / "m.txt"
    outcomes = []

    def rerun(name, argv_a, argv_b):
        a, b = tmp_path / f"{name}_a.out", tmp_path / f"{name}_b.out"
        assert cli_main(argv_a + ["--out", str(a)]) == 0
        assert cli_main(argv_b + ["--out", str(b)]) == 0
        outcomes.append((name, a.read_bytes() == b.read_bytes()))

    rerun("gen",
          ["gen", "random-gaussian", "--n", "8", "--seed", "3"],
          ["gen", "random-gaussian", "--n", "8", "--seed", "3"])
    est = ["estimate", "--ensemble", "random-gaussian", "--n", "10",
           "--matrix-seed", "5", "--k", "3", "--samples", "200", "--seed", "2"]
    rerun("estimate", est, est)
    pair = ["pair", "--ensemble", "rw-covariance", "--n", "30", "--k", "8",
            "--exclude-top", "2", "--pairs", "20", "--seed", "6"]
    rerun("pair", pair, pair)
    rerun("verify", ["verify", "--n", "3"], ["verify", "--n", "3"])
    orc = ["oracle", "--ensemble", "half-ones", "--n", "8", "--k", "3"]
    rerun("oracle", orc, orc)
    assert cli_main(["gen", "half-ones", "--n", "6", "--out", str(matrix_path)]) == 0
    est_csv = ["estimate", "--matrix", str(matrix_path), "--k", "2", "--samples",
               "100", "--seed", "1", "--format", "csv"]
    rerun("estimate-csv", est_csv, est_csv)
    cdf = tmp_path / "cdf.csv"
    from subspec.spectra import cdf_to_csv
    cdf.write_text(cdf_to_csv(esd(Spectrum(np.array([0.0, 1.0, 2.0])))))
    ks = ["ks", str(cdf), str(cdf), "--na", "3", "--nb", "3"]
    rerun("ks", ks, ks)
    ok = all(same for _, same in outcomes)
    report("12-determinism", ok,
           "; ".join(f"{name}={'identical' if same else 'DIFFERS'}"
                     for name, same in outcomes))
