"""Loop, dict and object encodings that the package replaced with arrays,
kept as the oracles the array paths are compared with.

`perm_rank`, `perm_unrank` and `PermIndex` address a permutation by its
lexicographic rank one digit at a time; `neighbor_table` and `subset_rows`
are the former `walk` tables built from them with Python loops and
tuple-keyed dicts, and `swap_rows` is `walk._swap_table` built the same
way.  `sn_words` and `sn_neighbor_table` are the former array tables
`walk.permutations` and `walk.neighbor_table`, which no path of the
package builds any more; the S_n functions below gather on them, because
the loop-built table is slow to build at n = 8.  `FunctionOnSn`, `triple_norm`,
`dirichlet_form`, `variance_mu` and `verify_gap_concentration` are the
former `walk` functions on S_n, one value per row of `sn_words(n)`, and
`lift` carries a `walk.FunctionOnSubsets` there through each
permutation's selected set.
`quantile_grid` is the former one-level quantile grid of `spectra`, on
the former `spectra.quantiles`, and `pair_chaining_checks` the former
one-pair `oracle.chaining_checks`, which measured every level of two
StepCdfs on those quantiles and compared them with `sup_distance`;
`verify_chaining_rows` is the former draw of `verify`'s chaining stage,
one row at a time.
`kernel_errors` is the former `walk` check of a dense
kernel, such as `walk.kernel_matrix(n)`, by its row and column sums.  `is_hermitian`, `require_hermitian` and
`exact_pointwise_tail` are the former one-matrix and one-point wrappers of
`linalg` and `oracle`.  `to_json` is the former one-call-per-value JSON
formatter of `cli`, and `tail_csv`, `distribution_csv`, `pair_csv`,
`ks_csv` and `cdf_csv` are the former one-line-at-a-time CSV writers of
`estimate`, `oracle`, `pair`, `ks` and `spectra.cdf_to_csv`.
`singular_values_stack` is the former batched Gram path of `linalg`, one
BLAS product per stack of matrices, and `row_block_singular_values` the
former singular-mode path of `sampling`, which gathered every row block and
handed it to that path.  `bisection` is the former `linalg._bisection`,
which ran a clamped Sturm count at every one of its 53 midpoints.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from subspec.linalg import (BISECTION_STEPS, DenseMatrix, _hermitian_gaps,
                            _require_hermitian_stack, _rescale_factors,
                            eigenvalues_hermitian_stack)
from subspec.oracle import DEFAULT_ENUMERATION_CAP, exact_pointwise_profile
from subspec.sampling import Xoshiro256pp
from subspec.spectra import StepCdf, sup_distance
from subspec.walk import FunctionOnSubsets, _bitmasks, _set_rows, gap_concentration_bound

MAX_PERM_N = 8


def perm_rank(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of 0..n-1."""
    n = len(perm)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if perm[j] < perm[i])
        rank += smaller * math.factorial(n - 1 - i)
    return rank


def perm_unrank(n: int, rank: int) -> tuple[int, ...]:
    """Permutation of 0..n-1 with the given lexicographic rank."""
    if not 0 <= rank < math.factorial(n):
        raise ValueError("rank out of range")
    pool = list(range(n))
    out = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        idx, rank = divmod(rank, f)
        out.append(pool.pop(idx))
    return tuple(out)


@dataclass(frozen=True)
class PermIndex:
    """A permutation of {0..n-1} addressed by lexicographic rank, n <= 8."""

    n: int
    rank: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_PERM_N:
            raise ValueError(f"n must lie in [1, {MAX_PERM_N}]")
        if not 0 <= self.rank < math.factorial(self.n):
            raise ValueError("rank out of range")

    def permutation(self) -> tuple[int, ...]:
        return perm_unrank(self.n, self.rank)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "PermIndex":
        return cls(len(perm), perm_rank(perm))


def perm_table(n: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """Every permutation of 0..n-1 by rank, and the tuple -> rank dict."""
    perms = tuple(perm_unrank(n, r) for r in range(math.factorial(n)))
    return perms, {p: r for r, p in enumerate(perms)}


def neighbor_table(n: int) -> np.ndarray:
    """[r, t] is the rank of permutation r with the positions of
    transposition t swapped, one (state, transposition) pair at a time."""
    perms, rank_of = perm_table(n)
    taus = list(itertools.combinations(range(n), 2))
    table = np.empty((len(perms), len(taus)), dtype=np.intp)
    for r, perm in enumerate(perms):
        word = list(perm)
        for t, (i, j) in enumerate(taus):
            word[i], word[j] = word[j], word[i]
            table[r, t] = rank_of[tuple(word)]
            word[i], word[j] = word[j], word[i]
    return table


@lru_cache(maxsize=8)
def sn_words(n: int) -> np.ndarray:
    """Read-only (n!, n) array of the permutations of 0..n-1 in
    lexicographic order, as `itertools.permutations` lists them."""
    words = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(words, dtype=np.intp, count=math.factorial(n) * n).reshape(-1, n)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=8)
def sn_neighbor_table(n: int) -> np.ndarray:
    """`neighbor_table(n)` by one array pass, read-only: each row of
    `sn_words(n)` read as a base-n numeral, these codes increasing along
    the rows, so the row of a swapped word is found by `searchsorted`."""
    words = sn_words(n)
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = (words * place).sum(axis=1)
    i, j = np.array(list(itertools.combinations(range(n), 2))).T
    # swapping positions i and j moves the code by (p_j - p_i)(n^(n-1-i) - n^(n-1-j))
    swapped = codes[:, None] + (words[:, j] - words[:, i]) * (place[i] - place[j])
    table = np.searchsorted(codes, swapped)
    table.setflags(write=False)
    return table


def subset_rows(n: int, k: int) -> np.ndarray:
    """[r] is the lexicographic row of the set of permutation r's first k
    entries among the k-subsets of {1..n}, found in a tuple-keyed dict."""
    row_of = {s: i for i, s in enumerate(itertools.combinations(range(1, n + 1), k))}
    perms, _ = perm_table(n)
    return np.array([row_of[tuple(sorted(p + 1 for p in perm[:k]))] for perm in perms],
                    dtype=np.intp)


def swap_rows(n: int, k: int) -> np.ndarray:
    """[r, a(n - k) + b] is the lexicographic row among the k-subsets of
    {1..n} of subset r with its a-th member swapped for its b-th
    non-member, both in ascending order, found in a tuple-keyed dict."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    row_of = {s: i for i, s in enumerate(subsets)}
    table = np.empty((len(subsets), k * (n - k)), dtype=np.intp)
    for r, s in enumerate(subsets):
        others = [v for v in range(1, n + 1) if v not in s]
        for c, (out, into) in enumerate(itertools.product(s, others)):
            table[r, c] = row_of[tuple(sorted(set(s) - {out} | {into}))]
    return table


@dataclass(frozen=True)
class FunctionOnSn:
    """Real function on S_n, one value per row of `sn_words(n)`."""

    n: int
    values: np.ndarray


def lift(f: FunctionOnSubsets) -> FunctionOnSn:
    """f as a function on S_n: each permutation takes the value of the set
    of its first k entries."""
    rows = _set_rows(f.n, f.k)[_bitmasks(sn_words(f.n)[:, :f.k])]
    return FunctionOnSn(f.n, f.values[rows])


def _neighbor_diffs(f: FunctionOnSn) -> np.ndarray:
    return f.values[:, None] - f.values[sn_neighbor_table(f.n)]


def dirichlet_form(f: FunctionOnSn) -> float:
    """Half the mu-weighted mean squared one-step increment of f."""
    diffs = _neighbor_diffs(f)
    size = f.values.size
    return float(np.sum(diffs * diffs)) / (size * f.n * f.n)


def variance_mu(f: FunctionOnSn) -> float:
    """Variance of f under the uniform measure."""
    centered = f.values - f.values.mean()
    return float(np.mean(centered * centered))


def triple_norm(f: FunctionOnSn) -> float:
    """Worst-case one-step L2 increment: sqrt of half the max over states of
    the expected squared step of f, over all C(n, 2) transpositions."""
    diffs = _neighbor_diffs(f)
    worst = float(np.max(np.sum(diffs * diffs, axis=1)))
    return math.sqrt(worst / (f.n * f.n))


def verify_gap_concentration(f: FunctionOnSn, r_grid: Sequence[float],
                             gap: float) -> list[dict]:
    """Exact superlevel measures of f (rescaled to unit one-step norm when
    nonconstant) against the walk's spectral-gap concentration bound, per r,
    each measure a count over the n! permutations."""
    tn = triple_norm(f)
    values = f.values / tn if tn > 0 else f.values
    mean = float(values.mean())
    size = values.size
    rows = []
    for r in r_grid:
        measure = float(np.count_nonzero(values >= mean + r)) / size
        bound = gap_concentration_bound(gap, float(r))
        rows.append({"r": float(r), "measure": measure, "bound": bound,
                     "pass": measure <= bound})
    return rows


def quantiles(f: StepCdf, qs: np.ndarray) -> np.ndarray:
    """Least jump with cumulative value >= q, per q (the last jump past 1)."""
    idx = np.searchsorted(f.cum, qs, side="left")
    return f.jumps[np.minimum(idx, f.jumps.size - 1)]


def pair_chaining_checks(f: StepCdf, g: StepCdf, ls: Sequence[int]) -> np.ndarray:
    """Discretization bound per level l in ls: sup|G - F| <= 1/l + Delta,
    with Delta measured on the l-quantile grid of F (right values and left
    limits).  All grids are looked up together and reduced per level, and
    sup|G - F| is measured once."""
    levels = np.array(ls, dtype=np.intp)
    if levels.ndim != 1 or levels.size == 0 or levels.min() < 2:
        raise ValueError("need at least one level, each at least 2")
    # level l contributes the l - 1 quantiles i/l, i = 1..l-1
    starts = np.concatenate(([0], np.cumsum(levels - 1)[:-1]))
    denominators = np.repeat(levels, levels - 1)
    numerators = np.arange(denominators.size) - np.repeat(starts, levels - 1) + 1
    ts = quantiles(f, numerators / denominators)
    delta = np.maximum(
        np.abs(g.eval_many(ts) - f.eval_many(ts)),
        np.abs(g.eval_many(ts, left=True) - f.eval_many(ts, left=True)))
    return sup_distance(g, f) <= 1.0 / levels + np.maximum.reduceat(delta, starts) + 1e-12


def verify_chaining_rows(seed: int) -> list[np.ndarray]:
    """The 400 sorted value rows of `verify`'s chaining stage, each drawn as
    `verify` drew it for one `step_cdf`: a size in 1..8, then that many
    standard normals, from `Xoshiro256pp.from_seed(seed)`."""
    rng = Xoshiro256pp.from_seed(seed)
    return [np.sort([rng.next_gaussian() for _ in range(1 + rng.next_below(8))])
            for _ in range(400)]


def quantile_grid(f: StepCdf, l: int) -> np.ndarray:
    """Quantile points t_i = least jump with cumulative value >= i/l, i = 1..l-1."""
    if l < 2:
        raise ValueError("l must be at least 2")
    return quantiles(f, np.arange(1, l) / l)


def kernel_errors(kernel: np.ndarray) -> tuple[float, float, float]:
    """(row-sum, detailed-balance, invariance) errors of a dense kernel under
    the uniform measure.  Uniformity turns detailed balance into plain
    symmetry and invariance into column sums of 1/n! each."""
    size = kernel.shape[0]
    row_sum_error = float(np.max(np.abs(kernel.sum(axis=1) - 1.0)))
    reversibility_error = float(np.max(np.abs(kernel - kernel.T)))
    invariance_error = float(np.max(np.abs(kernel.sum(axis=0) / size - 1.0 / size)))
    return row_sum_error, reversibility_error, invariance_error


def is_hermitian(m: DenseMatrix, tol: float) -> bool:
    """True iff max |M[i,j] - conj(M[j,i])| <= tol.  Raises on non-square input."""
    return float(_hermitian_gaps(m.data[None])[0]) <= tol


def require_hermitian(m: DenseMatrix) -> None:
    """Raise ValueError("not Hermitian") unless M is Hermitian to within
    1e-10 times its largest entry (or 1e-10 for the zero matrix)."""
    _require_hermitian_stack(m.data[None])


def singular_values_stack(stack: np.ndarray) -> np.ndarray:
    """Singular values of every matrix of a (B, r, c) stack: a (B, min(r, c))
    array with one ascending row per matrix, the square roots of the
    spectrum of the smaller Gram matrix, negatives counted as 0.

    A matrix whose largest entry lies outside [1e-100, 1e100] is divided by
    it first, as in the eigensolver, so that its Gram product neither
    overflows nor underflows; its singular values are scaled back after.
    """
    amax = np.abs(stack).max(axis=(1, 2))
    rescale = _rescale_factors(amax)
    work = stack if stack.shape[1] <= stack.shape[2] else \
        np.ascontiguousarray(stack.conj().transpose(0, 2, 1))
    if np.any(rescale != 1.0):
        work = work / rescale[:, None, None]
    g = work @ work.conj().transpose(0, 2, 1)
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    vals = eigenvalues_hermitian_stack(g)
    scale = (amax / rescale)[:, None]
    if np.any(vals < -1e-9 * scale * scale):
        raise ValueError("Gram spectrum has a negative eigenvalue beyond tolerance")
    vals[vals < 0] = 0.0
    return np.sqrt(vals) * rescale[:, None]


def row_block_singular_values(m: DenseMatrix, idx: np.ndarray) -> np.ndarray:
    """The singular values of M's row blocks at the 0-based index rows of a
    (B, k) array: each k x cols block gathered and handed to
    `singular_values_stack`, which takes the Gram spectrum of its smaller
    side at the block's own scale."""
    return singular_values_stack(m.data[idx])


def exact_pointwise_tail(m: DenseMatrix, k: int, x: float, r: float,
                         mode: str = "eigen",
                         cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact probability that |F_A(x) - F(x)| >= r under a uniform subset."""
    return float(exact_pointwise_profile(m, k, [x], mode, cap).tails([r])[0, 0])


def to_json(obj, indent: int = 0) -> str:
    """The CLI's JSON text, one recursive call per value: two-space indent,
    one item per line, floats with 17 significant digits."""
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{child}{json.dumps(str(key))}: {to_json(value, indent + 1)}"
                for key, value in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{child}{to_json(value, indent + 1)}" for value in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def tail_csv(curve) -> str:
    """`estimate --format csv` of a `TailCurve`, one line per r point."""
    lines = ["r,empirical,bound,stderr"]
    for r, e, b, se in zip(curve.r_grid, curve.empirical, curve.bound, curve.stderr()):
        lines.append(f"{r:.17g},{e:.17g},{b:.17g},{se:.17g}")
    return "\n".join(lines) + "\n"


def distribution_csv(dist) -> str:
    """`oracle --format csv` of an `ExactDistribution`, one line per value."""
    lines = ["value,probability"]
    for v, p in zip(dist.values, dist.probs):
        lines.append(f"{v:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


def pair_csv(results) -> str:
    """`pair --format csv` of a list of `KsResult`, one line per pair."""
    lines = ["pair,D,lambda,p"]
    for i, r in enumerate(results):
        lines.append(f"{i},{float(r.statistic):.17g},{float(r.lam):.17g},"
                     f"{float(r.p_value):.17g}")
    return "\n".join(lines) + "\n"


def ks_csv(result) -> str:
    """`ks --format csv` of one `KsResult`."""
    return ("D,lambda,p\n"
            f"{float(result.statistic):.17g},{float(result.lam):.17g},"
            f"{float(result.p_value):.17g}\n")


def cdf_csv(f) -> str:
    """`spectra.cdf_to_csv` of a `StepCdf`, one line per jump."""
    lines = ["x,F"]
    for x, c in zip(f.jumps, f.cum):
        lines.append(f"{x:.17g},{c:.17g}")
    return "\n".join(lines) + "\n"


def bisection(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal matrices with diagonals d
    (B, n) and off-diagonals e (B, n - 1), by BISECTION_STEPS halvings of
    the Gershgorin bracket on Sturm counts; rows are ascending, as two
    indices' brackets part only at a midpoint they share."""
    count, n = d.shape
    e2 = np.ascontiguousarray(np.square(e).T)
    pivmin = np.finfo(np.float64).tiny * np.maximum(1.0, e2.max(axis=0, initial=0.0))
    radius = np.abs(np.pad(e, ((0, 0), (1, 1))))
    radius = radius[:, 1:] + radius[:, :-1]
    lo, hi = (d - radius).min(axis=1), (d + radius).max(axis=1)
    pad = 2.1 * n * np.finfo(np.float64).eps * np.maximum(np.abs(lo), np.abs(hi))
    lo, hi = (np.repeat(bound[None], n, axis=0) for bound in (lo - pad, hi + pad))
    dt, q = d.T.copy(), np.empty((n, n, count))
    t, small = np.empty((n, count)), np.empty((n, count), dtype=bool)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        for i in range(n):  # q[i]: the i-th pivot of T - mid I, for every index
            np.subtract(dt[i], mid, out=q[i])
            if i:  # at most max(e^2) / pivmin <= 1 / tiny: no overflow
                q[i] -= np.divide(e2[i - 1], q[i - 1], out=t)
            np.copyto(q[i], -pivmin, where=np.less(np.abs(q[i], out=t), pivmin, out=small))
        below = np.count_nonzero(q < 0.0, axis=0) > np.arange(n)[:, None]
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return (0.5 * (lo + hi)).T
