"""The random-transpositions walk on the symmetric group, made concrete.

States are permutations in one-line notation, addressed by lexicographic
rank.  One step holds with probability 1/n or composes on the right with a
uniformly random transposition (probability 2/n^2 each), i.e. swaps two
positions of the one-line word.  The uniform measure is invariant and the
kernel is symmetric, so everything reversible-chain-shaped can be checked
by direct matrix inspection.

Dense n! x n! work is capped at n = 6 (720^2 floats); rank/unrank and the
matrix-free neighbor sums (Dirichlet form, worst-case one-step increment)
additionally work for n = 7 and 8.

A permutation acts on the matrix only through the set of its first k
entries, so the ESD observables and the one-step ESD gap read rows of the
`oracle.subset_spectra(m, k)` table and solve no subset themselves.  The
singular-mode observable of the k x n row block A reads the table of
`gram(m)`, since A A* is the principal block (m m*)[S, S].  The rank
steps gather the permuted-order blocks of all their steps into one stack
and rank the differences in one batched solve.

The exact-law checks are array passes over those rows: the observables
take their values from one `oracle.pointwise_profile` per grid, and the
rank steps measure every step's ESD gap from comparison counts over the
two stacks of rows, with no per-step CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .linalg import (DenseMatrix, eigenvalues_hermitian, gather_submatrices,
                     numerical_rank_stack)
from .oracle import enumerate_subsets, pointwise_profile

_MAX_DENSE_N = 6
_MAX_PERM_N = 8


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
        if not 1 <= self.n <= _MAX_PERM_N:
            raise ValueError(f"n must lie in [1, {_MAX_PERM_N}]")
        if not 0 <= self.rank < math.factorial(self.n):
            raise ValueError("rank out of range")

    def permutation(self) -> tuple[int, ...]:
        return perm_unrank(self.n, self.rank)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "PermIndex":
        return cls(len(perm), perm_rank(perm))


@dataclass(frozen=True)
class FunctionOnSn:
    """Real function on S_n, indexed by permutation rank."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != math.factorial(self.n):
            raise ValueError("values must have length n!")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class WalkReport:
    """Kernel sanity numbers and the measured spectral gap for one n."""

    n: int
    row_sum_error: float
    reversibility_error: float
    invariance_error: float
    gap: float
    gap_theory: float

    def __post_init__(self) -> None:
        if min(self.row_sum_error, self.reversibility_error, self.invariance_error) < 0:
            raise ValueError("error fields must be nonnegative")
        if not self.gap > 0:
            raise ValueError("gap must be positive")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "row_sum_error": self.row_sum_error,
            "reversibility_error": self.reversibility_error,
            "invariance_error": self.invariance_error,
            "gap": self.gap,
            "gap_theory": self.gap_theory,
        }


def transpositions(n: int) -> list[tuple[int, int]]:
    """All n(n-1)/2 position pairs, lexicographic."""
    return list(combinations(range(n), 2))


@lru_cache(maxsize=8)
def _perm_table(n: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    perms = tuple(perm_unrank(n, r) for r in range(math.factorial(n)))
    return perms, {p: r for r, p in enumerate(perms)}


@lru_cache(maxsize=8)
def neighbor_table(n: int) -> np.ndarray:
    """neighbor_table(n)[r, t] is the rank of permutation r with the positions
    of transposition t swapped (one walk step via transposition t)."""
    if not 2 <= n <= _MAX_PERM_N:
        raise ValueError(f"n must lie in [2, {_MAX_PERM_N}]")
    perms, rank_of = _perm_table(n)
    taus = transpositions(n)
    table = np.empty((len(perms), len(taus)), dtype=np.intp)
    for r, perm in enumerate(perms):
        word = list(perm)
        for t, (i, j) in enumerate(taus):
            word[i], word[j] = word[j], word[i]
            table[r, t] = rank_of[tuple(word)]
            word[i], word[j] = word[j], word[i]
    table.setflags(write=False)
    return table


def kernel_matrix(n: int) -> np.ndarray:
    """Dense transition kernel: 1/n on the diagonal, 2/n^2 per transposition."""
    if not 2 <= n <= _MAX_DENSE_N:
        raise ValueError(f"n must lie in [2, {_MAX_DENSE_N}] for dense kernels")
    table = neighbor_table(n)
    size = table.shape[0]
    kernel = np.zeros((size, size), dtype=np.float64)
    np.fill_diagonal(kernel, 1.0 / n)
    rows = np.repeat(np.arange(size), table.shape[1])
    kernel[rows, table.ravel()] = 2.0 / (n * n)
    return kernel


def kernel_errors(kernel: np.ndarray) -> tuple[float, float, float]:
    """(row-sum, detailed-balance, invariance) errors of a kernel under the
    uniform measure.  Uniformity turns detailed balance into plain symmetry
    and invariance into column sums of 1/n! each."""
    size = kernel.shape[0]
    row_sum_error = float(np.max(np.abs(kernel.sum(axis=1) - 1.0)))
    reversibility_error = float(np.max(np.abs(kernel - kernel.T)))
    invariance_error = float(np.max(np.abs(kernel.sum(axis=0) / size - 1.0 / size)))
    return row_sum_error, reversibility_error, invariance_error


@lru_cache(maxsize=8)
def spectral_gap(n: int) -> float:
    """One minus the second-largest kernel eigenvalue, from the full
    symmetric eigendecomposition.  Cached per n (the n = 6 solve is the
    expensive one)."""
    spectrum = eigenvalues_hermitian(DenseMatrix(kernel_matrix(n)))
    return 1.0 - float(spectrum.values[-2])


def verify_kernel(n: int) -> WalkReport:
    errors = kernel_errors(kernel_matrix(n))
    return WalkReport(n, *errors, gap=spectral_gap(n), gap_theory=2.0 / n)


def _neighbor_diffs(f: FunctionOnSn) -> np.ndarray:
    table = neighbor_table(f.n)
    return f.values[:, None] - f.values[table]


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
    the expected squared step of f."""
    diffs = _neighbor_diffs(f)
    worst = float(np.max(np.sum(diffs * diffs, axis=1)))
    return math.sqrt(worst / (f.n * f.n))


@lru_cache(maxsize=32)
def _subset_rows(n: int, k: int) -> np.ndarray:
    """_subset_rows(n, k)[r] is the row, in `enumerate_subsets` order, of
    the set of permutation r's first k entries."""
    row_of = {s.indices: i for i, s in enumerate(enumerate_subsets(n, k))}
    perms, _ = _perm_table(n)
    rows = np.array([row_of[tuple(sorted(p + 1 for p in perm[:k]))] for perm in perms],
                    dtype=np.intp)
    rows.setflags(write=False)
    return rows


def _table_rows(table: np.ndarray, n: int) -> np.ndarray:
    """Per-rank rows into a `subset_spectra` table of k = table.shape[1]."""
    if not 2 <= n <= _MAX_DENSE_N:
        raise ValueError(f"matrix order must lie in [2, {_MAX_DENSE_N}]")
    k = table.shape[1]
    if not 1 <= k <= n or table.shape[0] != math.comb(n, k):
        raise ValueError(f"table must have C(n, k) = C({n}, {k}) rows, one per subset")
    return _subset_rows(n, k)


def esd_observable(table: np.ndarray, n: int, x: float) -> FunctionOnSn:
    """f(pi) = value at x of the ESD of the submatrix selected by pi's first
    k entries, read from `table` = `subset_spectra(m, k)` of an order-n m
    (k = table.shape[1]); depends only on the selected set by construction."""
    return esd_observable_grid(table, n, [x])[0]


def esd_observable_grid(table: np.ndarray, n: int, xs: Sequence[float]) -> list[FunctionOnSn]:
    """esd_observable for every x in xs."""
    rows = _table_rows(table, n)
    per_subset = pointwise_profile(table, xs).fa
    return [FunctionOnSn(n, per_subset[rows, j]) for j in range(len(xs))]


def verify_triple_norm_bound(table: np.ndarray, n: int, x_grid: Sequence[float]) -> float:
    """Assert the worst-case one-step estimate triple_norm(f_x)^2 <= 4/(kn)
    for every x in the grid; returns the largest kn * triple_norm^2 seen."""
    k = table.shape[1]
    budget = 4.0 / (k * n)
    worst = 0.0
    offenders = []
    for x, f in zip(x_grid, esd_observable_grid(table, n, x_grid)):
        tn2 = triple_norm(f) ** 2
        worst = max(worst, k * n * tn2)
        if tn2 > budget + 1e-12:
            offenders.append(float(x))
    if offenders:
        raise ValueError(f"one-step norm bound violated at x = {offenders}")
    return worst


def gap_concentration_bound(gap: float, r: float) -> float:
    """Exponential concentration bound 3 exp(-r sqrt(gap) / 2) for functions
    with worst-case one-step norm at most 1."""
    if gap <= 0 or r < 0:
        raise ValueError("need gap > 0 and r >= 0")
    return 3.0 * math.exp(-r * math.sqrt(gap) / 2.0)


def verify_gap_concentration(f: FunctionOnSn, r_grid: Sequence[float],
                             gap: float | None = None) -> list[dict]:
    """Exact superlevel measures of f (rescaled to unit one-step norm when
    nonconstant) against the spectral-gap concentration bound, per r."""
    tn = triple_norm(f)
    values = f.values / tn if tn > 0 else f.values
    mean = float(values.mean())
    if gap is None:
        gap = spectral_gap(f.n)
    size = values.size
    rows = []
    for r in r_grid:
        measure = float(np.count_nonzero(values >= mean + r)) / size
        bound = gap_concentration_bound(gap, float(r))
        rows.append({"r": float(r), "measure": measure, "bound": bound,
                     "pass": measure <= bound})
    return rows


def rank_step_check(m: DenseMatrix, table: np.ndarray,
                    sigmas: Sequence[PermIndex | Sequence[int]],
                    taus: Sequence[tuple[int, int]], rel_tol: float = 1e-7
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Walk steps sigma -> sigma tau seen through the submatrix, for
    k = table.shape[1]: per step, the rank of A(sigma) - A(sigma tau) and
    the sup-norm gap of the two ESDs, as (ranks, gaps) arrays.

    The submatrices keep the permutation's own row/column order; that is what
    confines the difference to one changed position (rank at most 2).  All
    differences are gathered into one stack and ranked together.  The ESDs
    are rows of `table`, `subset_spectra(m, k)`, so a step that keeps the
    selected set has gap exactly 0.  Each gap is the same float as
    `sup_distance(step_cdf(a), step_cdf(b))` of the step's two rows.
    """
    before = np.array([s.permutation() if isinstance(s, PermIndex) else s for s in sigmas],
                      dtype=np.intp)
    pairs = np.array(taus, dtype=np.intp)
    if before.ndim != 2 or before.shape[0] == 0 or pairs.shape != (before.shape[0], 2):
        raise ValueError("need one tau per sigma and at least one step")
    n = before.shape[1]
    if not m.is_square() or m.rows != n:
        raise ValueError("matrix order must match the permutation length")
    if np.any(np.sort(before, axis=1) != np.arange(n)):
        raise ValueError("each sigma must be a permutation of 0..n-1")
    rows = _table_rows(table, n)
    k = table.shape[1]
    i, j = pairs[:, 0], pairs[:, 1]
    if np.any(i == j) or pairs.min() < 0 or pairs.max() >= n:
        raise ValueError("tau must be two distinct positions in [0, n)")
    steps = np.arange(before.shape[0])
    after = before.copy()
    after[steps, i] = before[steps, j]
    after[steps, j] = before[steps, i]
    diff = (gather_submatrices(m, before[:, :k], "eigen")
            - gather_submatrices(m, after[:, :k], "eigen"))
    ranks = numerical_rank_stack(diff, rel_tol)
    _, rank_of = _perm_table(n)
    a, b = (table[[rows[rank_of[tuple(p)]] for p in perms.tolist()]]
            for perms in (before, after))
    # both ESDs at every entry of either row, as the c/k floats sup_distance
    # compares; on the union of the jumps every left limit is the value at
    # the jump before, so the values alone give the supremum
    points = np.concatenate((a, b), axis=1)[:, :, None]
    diffs = (np.count_nonzero(a[:, None] <= points, axis=2) / k
             - np.count_nonzero(b[:, None] <= points, axis=2) / k)
    # a step that keeps the selected set compares a row with itself: gap 0
    return ranks, np.abs(diffs).max(axis=1)
