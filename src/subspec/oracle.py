"""Exact, exhaustive small-scale computations.

Everything here enumerates all C(n, k) subsets, so results are exact laws
rather than estimates.  The enumeration refuses to run past a configurable
cap instead of silently subsampling; callers who outgrow it should switch
to the Monte Carlo estimators.

`subset_table` is the one builder of the lexicographic subsets: an
integer array with one sorted 1-based subset per row.  `subset_spectra`
solves its rows, and `walk` maps permutations onto them.

`subset_spectra` is the one enumerate-and-solve pass: it returns every
subset's spectrum as one table, and the exact laws (`mean_cdf`,
`supnorm_law`, `pointwise_profile`) are reductions of that table, so a
caller that needs several of them solves each subset once.

The reductions are array passes over the table, not loops over its rows:
`pointwise_profile` compares the whole table with one x at a time,
`PointwiseProfile.tails` counts every (x, r) tail from sorted deviation
columns, and `chaining_checks` measures all quantile levels of a pair in
one lookup.  Each gives the same floats as the per-row or per-level loop
it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .linalg import DenseMatrix
from .sampling import index_dtype, solve_subsets
from .spectra import StepCdf, quantiles, step_cdf, sup_distance, sup_distances

DEFAULT_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class ExactDistribution:
    """Exact finite law: strictly increasing values with positive probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        probs = np.array(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or values.size != probs.size or values.size == 0:
            raise ValueError("values and probs must be 1-D of equal positive length")
        if np.any(np.diff(values) <= 0):
            raise ValueError("values must be strictly increasing")
        if np.any(probs <= 0):
            raise ValueError("probabilities must be positive")
        if abs(math.fsum(probs.tolist()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return math.fsum((self.values * self.probs).tolist())

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(((self.values - mu) ** 2 * self.probs).tolist())

    def tail_prob(self, threshold: float) -> float:
        """Exact probability of a value >= threshold."""
        return math.fsum(self.probs[self.values >= threshold].tolist())


def subset_table(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """(C(n, k), k) array of all k-subsets of {1..n} in lexicographic order,
    one sorted 1-based subset per row, in `index_dtype(n)`.  Raises
    ValueError unless 1 <= k <= n and C(n, k) fits under the cap."""
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    count = math.comb(n, k)
    if count > cap:
        raise ValueError(
            f"subset count C({n},{k}) = {count} exceeds the enumeration cap {cap}; "
            "use the Monte Carlo estimators instead")
    combos = chain.from_iterable(combinations(range(1, n + 1), k))
    return np.fromiter(combos, dtype=index_dtype(n), count=count * k).reshape(count, k)


def subset_spectra(m: DenseMatrix, k: int, mode: str = "eigen",
                   cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Read-only (C(n, k), k) float64 table whose row i is the sorted
    spectrum of the subset in row i of `subset_table(n, k)` (lexicographic).

    In singular mode a matrix with fewer than k columns gives cols values
    per subset, and the table is that wide.  The table takes
    C(n, k) * k * 8 bytes, 119 MB at n = 23, k = 11.  The exact expected
    CDF of a generic matrix has that many distinct jumps, so building it
    costs that much memory with or without the table.
    """
    table = solve_subsets(m, subset_table(m.rows, k, cap), mode)
    table.setflags(write=False)
    return table


def mean_cdf(table: np.ndarray) -> StepCdf:
    """Equal-weight average of the per-row ESDs of a `subset_spectra` table."""
    return step_cdf(table.ravel())


def supnorm_law(table: np.ndarray, reference: StepCdf) -> ExactDistribution:
    """Exact law of the sup-norm distance between a uniform row's ESD and
    `reference`."""
    uniq, counts = np.unique(sup_distances(table, reference), return_counts=True)
    return ExactDistribution(uniq, counts / table.shape[0])


@dataclass(frozen=True)
class PointwiseProfile:
    """Per-subset CDF evaluations F_A(x) on a grid, with the exact mean F(x).

    fa has one row per subset (lexicographic order) and one column per x.
    """

    xs: np.ndarray
    f: np.ndarray
    fa: np.ndarray

    def tails(self, r_grid: Sequence[float]) -> np.ndarray:
        """(X, R) exact probabilities that |F_A(x) - F(x)| >= r, one row per
        grid x and one column per r.  Each deviation column is sorted once
        and counted at every r with one `searchsorted` call."""
        rows = self.fa.shape[0]
        rs = np.array(r_grid, dtype=np.float64)
        columns = np.sort(np.abs(self.fa - self.f), axis=0).T
        below = np.array([np.searchsorted(col, rs) for col in columns])
        return (rows - below.reshape(self.xs.size, rs.size)) / rows


def pointwise_profile(table: np.ndarray, xs: Sequence[float]) -> PointwiseProfile:
    """Every row's ESD evaluated at each x, and their mean.  A sorted row's
    ESD at x is its count of entries <= x over its width."""
    xs_arr = np.array(xs, dtype=np.float64)
    fa = np.empty((table.shape[0], xs_arr.size), dtype=np.float64)
    for j, x in enumerate(xs_arr):
        fa[:, j] = np.count_nonzero(table <= x, axis=1) / table.shape[1]
    return PointwiseProfile(xs_arr, fa.sum(axis=0) / table.shape[0], fa)


def exact_F(m: DenseMatrix, k: int, mode: str = "eigen",
            cap: int = DEFAULT_ENUMERATION_CAP) -> StepCdf:
    """The expected spectral distribution as an exact equal-weight average
    over every subset's submatrix ESD."""
    return mean_cdf(subset_spectra(m, k, mode, cap))


def exact_supnorm_distribution(m: DenseMatrix, k: int, mode: str = "eigen",
                               cap: int = DEFAULT_ENUMERATION_CAP) -> ExactDistribution:
    """Exact law of the sup-norm distance between a uniform subset's ESD and
    the exact expected CDF."""
    table = subset_spectra(m, k, mode, cap)
    return supnorm_law(table, mean_cdf(table))


def exact_pointwise_profile(m: DenseMatrix, k: int, xs: Sequence[float],
                            mode: str = "eigen",
                            cap: int = DEFAULT_ENUMERATION_CAP) -> PointwiseProfile:
    return pointwise_profile(subset_spectra(m, k, mode, cap), xs)


def hypergeometric_pmf(n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact pmf of the count of marked items among k draws without
    replacement from n items of which d are marked.

    Computed from exact integer binomials with one float division per
    atom, so each probability is correctly rounded.
    """
    if not (0 <= d <= n and 1 <= k <= n):
        raise ValueError("need 0 <= d <= n and 1 <= k <= n")
    h_min = max(0, k - (n - d))
    h_max = min(k, d)
    hs = np.arange(h_min, h_max + 1)
    denom = math.comb(n, k)
    probs = np.array([math.comb(d, h) * math.comb(n - d, k - h) / denom for h in hs])
    return hs, probs


def halfones_exact_mean(n: int, k: int) -> float:
    """Exact mean sup-norm deviation for the half-ones diagonal matrix.

    With d = floor(n/2) ones on the diagonal and H the hypergeometric count
    of selected ones, the deviation of a subset's ESD from the expected CDF
    is |d/n - H/k| exactly, so the mean is a finite hypergeometric sum.
    """
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    d = n // 2
    hs, probs = hypergeometric_pmf(n, d, k)
    deviations = np.abs(d / n - hs / k)
    return math.fsum((probs * deviations).tolist())


def chaining_checks(f: StepCdf, g: StepCdf, ls: Sequence[int]) -> np.ndarray:
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


def chaining_check(f: StepCdf, g: StepCdf, l: int) -> bool:
    """`chaining_checks` at the one level l."""
    return bool(chaining_checks(f, g, [l])[0])
