"""Command-line entry point.

Subcommands: gen, estimate, pair, verify, oracle, ks.  Exit codes: 0 on
success, 1 when a computation or verification fails, 2 for usage and
configuration errors.  All outputs are UTF-8 text; JSON and CSV numbers are
printed with 17 significant digits so reruns with the same configuration
are byte-identical; every CSV output goes through `spectra.to_csv`.  The
names that `--ensemble` and `gen` accept are the keys of
`ensembles.ENSEMBLES`.

Importing this module pins OpenBLAS to one thread before numpy loads, unless
OPENBLAS_NUM_THREADS is set: the only BLAS call is the product gram(M), once
per matrix in singular mode, so a worker thread would mostly spin.
"""

from __future__ import annotations

import argparse
import json as _json
import math
import os
import sys
from statistics import median
from typing import Sequence

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

import numpy as np

from . import walk
from .ensembles import (ENSEMBLES, half_ones_diagonal, load_matrix, make_matrix,
                        random_symmetric, rw_covariance, save_matrix)
from .linalg import DenseMatrix
from .montecarlo import (choose_reference, compare_tail, empirical_tail, estimate_supnorm,
                         pointwise_tail_bound, standard_metadata, supnorm_mean_bound,
                         supnorm_tail_bound)
from .oracle import (DEFAULT_ENUMERATION_CAP, chaining_checks, mean_cdf, pointwise_profile,
                     subset_spectra, supnorm_law)
from .sampling import Xoshiro256pp, draw_subsets, solve_subsets
from .spectra import (StepCdf, cdf_from_csv, ks_result, ks_two_sample, pair_distances,
                      step_cdf, to_csv)

class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{child}{_json.dumps(str(key))}: {_to_json(value, indent + 1)}"
                for key, value in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(value) is float for value in obj):  # fast path for long float lists
            rows = [f"{child}{value:.17g}" for value in obj]
        else:
            rows = [f"{child}{_to_json(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if obj is None:
        return "null"
    return _json.dumps(str(obj))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_matrix(args: argparse.Namespace) -> tuple[DenseMatrix, dict]:
    if args.matrix_seed is not None and not (args.ensemble or "").startswith("random"):
        raise UsageError("--matrix-seed takes a random ensemble")
    if args.matrix:
        if args.ensemble is not None or args.n is not None:
            raise UsageError("--matrix takes neither --ensemble nor --n")
        m = load_matrix(args.matrix)
        if args.mode == "eigen" and not m.is_square():  # ensembles are square
            raise UsageError("eigen mode needs a square matrix; use --mode singular")
        desc = {"matrix": args.matrix}
    else:
        if args.ensemble is None:
            raise UsageError("need --matrix PATH or --ensemble NAME")
        if args.n is None or args.n < 1:
            raise UsageError("--ensemble requires a positive --n")
        seed = args.matrix_seed or 0
        desc = {"ensemble": args.ensemble, "n": args.n}
        if args.ensemble.startswith("random"):
            desc["matrix_seed"] = seed
        m = make_matrix(args.ensemble, args.n, seed)
    if not 1 <= args.k <= m.rows:
        raise UsageError("k must satisfy 1 <= k <= n")
    return m, desc


# The tail curve holds a few floats per r point and is printed whole, so
# the grid size is capped before anything is allocated.
MAX_R_POINTS = 10_001


def _r_grid(args: argparse.Namespace) -> np.ndarray:
    if not 2 <= args.r_points <= MAX_R_POINTS or not 0 <= args.r_min < args.r_max < math.inf:
        raise UsageError("need finite 0 <= r-min < r-max and between 2 and "
                         f"{MAX_R_POINTS} r-points")
    return np.linspace(args.r_min, args.r_max, args.r_points)


def _seed(text: str) -> int:
    """A seed option: an integer in [0, 2^64), the seed space of the PRNG."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} outside [0, 2^64)")
    return value


def _cap(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap {value} is negative")
    return value


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError("--n must be positive")
    if args.seed is not None and not args.ensemble.startswith("random"):
        raise UsageError("--seed takes a random ensemble")
    save_matrix(make_matrix(args.ensemble, args.n, args.seed or 0), args.out)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    matrix, matrix_desc = _resolve_matrix(args)
    if args.samples < 1:
        raise UsageError("samples must be positive")
    r_grid = _r_grid(args)
    reference, ref_note = choose_reference(matrix, args.k, args.mode, args.samples,
                                           args.seed, args.cap)
    report = estimate_supnorm(matrix, args.k, args.mode, args.samples, args.seed,
                              reference, metadata_note=ref_note)
    curve = empirical_tail(report, r_grid)
    violations = compare_tail(curve)
    if args.format == "csv":
        _emit(to_csv("r,empirical,bound,stderr", curve.r_grid, curve.empirical, curve.bound,
                     curve.stderr()), args.out)
        return 0
    doc = {
        "config": {
            "subcommand": "estimate", **matrix_desc, "k": args.k, "mode": args.mode,
            "n_samples": args.samples, "master_seed": args.seed,
            "r_grid": {"min": args.r_min, "max": args.r_max, "points": args.r_points},
            "enumeration_cap": args.cap,
        },
        "report": report.to_dict(),
        "mean_bound": supnorm_mean_bound(args.k),
        "tail_curve": curve.to_dict(),
        "tail_violations": violations,
    }
    _emit(_to_json(doc) + "\n", args.out)
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    matrix, matrix_desc = _resolve_matrix(args)
    # a singular-mode spectrum has min(k, cols) values, the width of the table
    width = min(args.k, matrix.cols) if args.mode == "singular" else args.k
    if not 0 <= args.exclude_top < width:
        raise UsageError("exclude-top must satisfy 0 <= exclude_top < k "
                         "(< the column count in singular mode)")
    if args.pairs < 1:
        raise UsageError("pairs must be positive")
    k_eff = width - args.exclude_top
    subsets = draw_subsets(matrix.rows, args.k, args.seed, 0, 2 * args.pairs)
    table = solve_subsets(matrix, subsets, args.mode)[:, :k_eff]
    results = [ks_result(d, k_eff, k_eff) for d in pair_distances(table[::2], table[1::2])]
    ds = sorted(r.statistic for r in results)
    summary = {
        "pairs": args.pairs,
        "median_D": median(ds),
        "frac_p_ge_0.05": sum(r.p_value >= 0.05 for r in results) / args.pairs,
        "D_quantiles": {str(q): ds[max(0, math.ceil(q * len(ds)) - 1)]
                        for q in (0.1, 0.25, 0.5, 0.75, 0.9)},
    }
    if args.format == "csv":
        _emit(to_csv("pair,D,lambda,p", range(args.pairs), [r.statistic for r in results],
                     [r.lam for r in results], [r.p_value for r in results]), args.out)
        return 0
    doc = {
        "config": {
            "subcommand": "pair", **matrix_desc, "k": args.k, "mode": args.mode,
            "exclude_top": args.exclude_top, "pairs": args.pairs,
            "master_seed": args.seed,
        },
        "metadata": standard_metadata(matrix, args.k, args.mode),
        "summary": summary,
        "pairs": [r.to_dict() for r in results],
        "first_pair": {
            **{name: {"jumps": cdf.jumps.tolist(), "cum": cdf.cum.tolist()}
               for name, cdf in zip(("cdf_a", "cdf_b"), map(step_cdf, table[:2]))},
            "ks_sample_size": k_eff,
        },
    }
    _emit(_to_json(doc) + "\n", args.out)
    return 0


def _spectrum_grid(full: StepCdf, points: int) -> np.ndarray:
    lo, hi = float(full.jumps[0]), float(full.jumps[-1])
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, points)


# seeds the `Xoshiro256pp` streams of the chaining pairs and, plus n, of the rank steps
VERIFY_SEED = 20260808


def run_verification(n_values: Sequence[int], corrupt: bool = False) -> dict:
    """The inequality suite: kernel sanity, spectral gap, one-step norm
    budget, gap concentration, rank steps, exact tails, chaining.

    Each n's walk report holds the clean kernel's errors and its gap; with
    `corrupt`, the kernel-validity check alone sees row 0 step to itself."""
    checks: list[dict] = []
    walk_reports: list[dict] = []

    def record(name: str, measured: float, required: float, ok: bool, **extra) -> None:
        checks.append({"check": name, "measured": measured, "required": required,
                       "pass": bool(ok), **extra})

    for n in n_values:
        table = walk.neighbor_table(n)
        row_err, rev_err, inv_err = clean = walk.kernel_errors(table, n)
        if corrupt:
            table = table.copy()
            table[0, 0] = 0
            row_err, rev_err, inv_err = walk.kernel_errors(table, n)
        record(f"kernel-validity-n{n}", max(row_err, rev_err, inv_err), 1e-14,
               max(row_err, rev_err, inv_err) <= 1e-14,
               row_sum_error=row_err, reversibility_error=rev_err,
               invariance_error=inv_err)
        gap = walk.spectral_gap(n)
        record(f"spectral-gap-n{n}", abs(gap - 2.0 / n), 1e-8,
               abs(gap - 2.0 / n) <= 1e-8, gap=gap, gap_theory=2.0 / n)
        walk_reports.append({"n": n, "row_sum_error": clean[0],
                             "reversibility_error": clean[1], "invariance_error": clean[2],
                             "gap": gap, "gap_theory": 2.0 / n})

        matrices = {
            "rw-covariance": rw_covariance(n),
            "half-ones": half_ones_diagonal(n),
            "random": random_symmetric(n, 101, "gaussian"),
        }
        r_grid = np.linspace(0.0, 5.0, 26)
        perms, pairs = walk.permutations(n), walk.transpositions(n)
        rng = Xoshiro256pp.from_seed(VERIFY_SEED + n)
        for label, matrix in matrices.items():
            tables = {k: subset_spectra(matrix, k) for k in range(1, n)}
            exact = {k: mean_cdf(table) for k, table in tables.items()}
            for k in range(2, n):
                xs = _spectrum_grid(exact[k], 20)
                worst = walk.verify_triple_norm_bound(tables[k], n, xs)
                record(f"one-step-norm-n{n}-k{k}-{label}", worst, 4.0,
                       worst <= 4.0 + k * n * 1e-12)
                mid = xs[len(xs) // 2]
                f = walk.esd_observable(tables[k], n, float(mid))
                ok = True
                worst_excess = 0.0
                for signed in (f, walk.FunctionOnSubsets(n, k, -f.values)):
                    for row in walk.verify_gap_concentration(signed, r_grid, gap):
                        worst_excess = max(worst_excess, row["measure"] - row["bound"])
                        ok = ok and row["pass"]
                record(f"gap-concentration-n{n}-k{k}-{label}", worst_excess, 0.0, ok)

                sigmas, taus = zip(*((perms[rng.next_below(len(perms))],
                                      pairs[rng.next_below(len(pairs))]) for _ in range(40)))
                ranks, gaps = walk.rank_step_check(matrix, tables[k], sigmas, taus)
                violations = int(np.count_nonzero((ranks > 2) | (gaps > 2.0 / k + 1e-12)))
                record(f"rank-step-n{n}-k{k}-{label}", violations, 0.0,
                       violations == 0, worst_esd_gap=float(gaps.max()))

            for k in range(1, min(4, n - 1) + 1):
                dist = supnorm_law(tables[k], exact[k])
                tail_violations = sum(
                    1 for r in r_grid
                    if dist.tail_prob(1.0 / math.sqrt(k) + float(r)) >
                    supnorm_tail_bound(k, float(r)))
                mean_ok = dist.mean() <= supnorm_mean_bound(k)
                record(f"exact-supnorm-tail-n{n}-k{k}-{label}", tail_violations, 0.0,
                       tail_violations == 0 and mean_ok, mean=dist.mean(),
                       mean_bound=supnorm_mean_bound(k))
                xs = _spectrum_grid(exact[k], 8)
                tails = pointwise_profile(tables[k], xs).tails(r_grid)
                bounds = [pointwise_tail_bound(k, float(r)) for r in r_grid]
                pw_violations = int(np.count_nonzero(tails > bounds))
                record(f"exact-pointwise-tail-n{n}-k{k}-{label}", pw_violations, 0.0,
                       pw_violations == 0)

    # 400 ESDs of 1..8 normals, paired off, as sorted rows padded with +inf
    rng = Xoshiro256pp.from_seed(VERIFY_SEED)
    draws = [[rng.next_gaussian() for _ in range(1 + rng.next_below(8))] for _ in range(400)]
    values = np.sort([d + [np.inf] * (8 - len(d)) for d in draws], axis=1)
    chain_violations = int(np.count_nonzero(~chaining_checks(
        values[0::2], values[1::2], range(2, 13))))
    record("chaining", chain_violations, 0.0, chain_violations == 0)
    largest = max(map(walk.lanczos_tridiagonal, n_values), key=len)  # the largest solve
    return {"n_values": list(n_values), "corrupt": corrupt,
            "metadata": standard_metadata(DenseMatrix(largest), len(largest)),
            "walk_reports": walk_reports,
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def cmd_verify(args: argparse.Namespace) -> int:
    if len(set(args.n)) < len(args.n) or not all(2 <= n <= walk.MAX_PERM_N for n in args.n):
        raise UsageError(f"verify takes distinct n between 2 and {walk.MAX_PERM_N}")
    report = run_verification(args.n, corrupt=args.self_test_corrupt)
    _emit(_to_json(report) + "\n", args.out)
    return 0 if report["pass"] else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    matrix, matrix_desc = _resolve_matrix(args)
    if args.x is not None and not all(math.isfinite(x) for x in args.x):
        raise UsageError("--x values must be finite")
    if math.comb(matrix.rows, args.k) > args.cap:
        raise UsageError(
            f"subset count C({matrix.rows},{args.k}) exceeds the enumeration cap "
            f"{args.cap}; use the Monte Carlo estimate subcommand instead")
    table = subset_spectra(matrix, args.k, args.mode, args.cap)
    reference = mean_cdf(table)
    dist = supnorm_law(table, reference)
    if args.format == "csv":
        _emit(to_csv("value,probability", dist.values, dist.probs), args.out)
        return 0
    doc = {
        "config": {
            "subcommand": "oracle", **matrix_desc, "k": args.k, "mode": args.mode,
            "enumeration_cap": args.cap,
        },
        "metadata": standard_metadata(matrix, args.k, args.mode),
        "exact_F": {"jumps": reference.jumps.tolist(), "cum": reference.cum.tolist()},
        "supnorm_distribution": {"values": dist.values.tolist(),
                                 "probabilities": dist.probs.tolist()},
        "mean_supnorm": dist.mean(),
        "mean_bound": supnorm_mean_bound(args.k),
    }
    if args.x is not None:
        profile = pointwise_profile(table, args.x)
        r_grid = np.linspace(0.0, 1.0, 21)
        doc["pointwise"] = [
            {"x": float(x), "F": float(f_x),
             "tails": [{"r": float(r), "probability": float(p),
                        "bound": pointwise_tail_bound(args.k, float(r))}
                       for r, p in zip(r_grid, tails)]}
            for x, f_x, tails in zip(profile.xs, profile.f, profile.tails(r_grid))]
    _emit(_to_json(doc) + "\n", args.out)
    return 0


def cmd_ks(args: argparse.Namespace) -> int:
    if args.na < 1 or args.nb < 1:
        raise UsageError("--na and --nb must be positive")
    with open(args.cdf_a, "r", encoding="utf-8") as fh:
        cdf_a = cdf_from_csv(fh.read())
    with open(args.cdf_b, "r", encoding="utf-8") as fh:
        cdf_b = cdf_from_csv(fh.read())
    result = ks_two_sample(cdf_a, cdf_b, args.na, args.nb)
    if args.format == "csv":
        _emit(to_csv("D,lambda,p", [result.statistic], [result.lam], [result.p_value]),
              args.out)
        return 0
    doc = {"config": {"subcommand": "ks", "cdf_a": args.cdf_a, "cdf_b": args.cdf_b,
                      "na": args.na, "nb": args.nb},
           "result": result.to_dict()}
    _emit(_to_json(doc) + "\n", args.out)
    return 0


def _add_matrix_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--matrix", help="path to a matrix file")
    sub.add_argument("--ensemble", choices=sorted(ENSEMBLES),
                     help="built-in matrix family")
    sub.add_argument("--n", type=int, help="matrix order for --ensemble")
    sub.add_argument("--matrix-seed", type=_seed,
                     help="seed for random ensembles (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspec",
        description="Spectral distributions of random submatrices: estimates, "
                    "exact oracles, and inequality verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="write a matrix file")
    p.add_argument("ensemble", choices=sorted(ENSEMBLES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed,
                   help="seed for random ensembles (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("estimate", help="Monte Carlo spectral-distribution estimate")
    _add_matrix_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("eigen", "singular"), default="eigen")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=2.0)
    p.add_argument("--r-points", type=int, default=41,
                   help=f"tail-curve grid size, 2 to {MAX_R_POINTS}")
    p.add_argument("--cap", type=_cap, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("pair", help="KS-compare spectra of random submatrix pairs")
    _add_matrix_options(p)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--mode", choices=("eigen", "singular"), default="eigen")
    p.add_argument("--exclude-top", type=int, default=4)
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("verify", help="run the inequality verification suite")
    p.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    p.add_argument("--self-test-corrupt", action="store_true",
                   help="inject a kernel corruption to prove the checks can fail")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact enumeration dumps")
    _add_matrix_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("eigen", "singular"), default="eigen")
    p.add_argument("--cap", type=_cap, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--x", type=float, nargs="+",
                   help="evaluation points for pointwise tails")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ks", help="two-sample KS test between two CDF CSV files")
    p.add_argument("cdf_a")
    p.add_argument("cdf_b")
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ks)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"subspec: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"subspec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
