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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .linalg import DenseMatrix, eigenvalues_hermitian, gram, numerical_rank
from .oracle import enumerate_subsets, pointwise_profile, subset_spectra
from .sampling import row_submatrix
from .spectra import esd, sup_distance

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


_GAP_CACHE: dict[int, float] = {}


def spectral_gap(n: int) -> float:
    """One minus the second-largest kernel eigenvalue, from the full
    symmetric eigendecomposition.  Cached per n (the n = 6 solve is the
    expensive one)."""
    if n not in _GAP_CACHE:
        spectrum = eigenvalues_hermitian(DenseMatrix(kernel_matrix(n)))
        _GAP_CACHE[n] = 1.0 - float(spectrum.values[-2])
    return _GAP_CACHE[n]


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


def _observable_spectra(m: DenseMatrix, k: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank row index into the (C(n, k), k) table of sorted subset
    spectra, rows in `enumerate_subsets` order (Gram eigenvalues in singular
    mode, so the observable is the CDF of A A*)."""
    n = m.rows
    if not 2 <= n <= _MAX_DENSE_N:
        raise ValueError(f"matrix order must lie in [2, {_MAX_DENSE_N}]")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if mode == "eigen":
        table = subset_spectra(m, k, "eigen")
    elif mode == "singular":
        # Gram eigenvalues, not the clamped square roots that
        # subset_spectra(m, k, "singular") holds
        table = np.array([eigenvalues_hermitian(gram(row_submatrix(m, s))).values
                          for s in enumerate_subsets(n, k)])
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'eigen' or 'singular'")
    row_of = {s.indices: i for i, s in enumerate(enumerate_subsets(n, k))}
    perms, _ = _perm_table(n)
    subset_of_rank = np.array([row_of[tuple(sorted(p + 1 for p in perm[:k]))]
                               for perm in perms], dtype=np.intp)
    return subset_of_rank, table


def esd_observable(m: DenseMatrix, k: int, x: float, mode: str = "eigen") -> FunctionOnSn:
    """f(pi) = value at x of the ESD of the submatrix selected by pi's first
    k entries; depends only on the selected set by construction."""
    return esd_observable_grid(m, k, [x], mode)[0]


def esd_observable_grid(m: DenseMatrix, k: int, xs: Sequence[float],
                        mode: str = "eigen") -> list[FunctionOnSn]:
    """esd_observable for every x in xs, sharing one subset enumeration."""
    subset_of_rank, table = _observable_spectra(m, k, mode)
    per_subset = pointwise_profile(table, xs).fa
    return [FunctionOnSn(m.rows, per_subset[subset_of_rank, j]) for j in range(len(xs))]


def verify_triple_norm_bound(m: DenseMatrix, k: int, x_grid: Sequence[float],
                             mode: str = "eigen") -> float:
    """Assert the worst-case one-step estimate triple_norm(f_x)^2 <= 4/(kn)
    for every x in the grid; returns the largest kn * triple_norm^2 seen."""
    n = m.rows
    budget = 4.0 / (k * n)
    worst = 0.0
    offenders = []
    for x, f in zip(x_grid, esd_observable_grid(m, k, x_grid, mode)):
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


def rank_step_check(m: DenseMatrix, k: int, sigma: PermIndex | Sequence[int],
                    tau: tuple[int, int], rel_tol: float = 1e-7) -> tuple[int, float]:
    """One walk step seen through the submatrix: rank of A(sigma) - A(sigma tau)
    and the sup-norm gap of the two ESDs.

    The submatrices keep the permutation's own row/column order; that is what
    confines the difference to one changed position (rank at most 2).
    """
    perm = sigma.permutation() if isinstance(sigma, PermIndex) else tuple(sigma)
    n = len(perm)
    if not m.is_square() or m.rows != n:
        raise ValueError("matrix order must match the permutation length")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    i, j = tau
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("tau must be two distinct positions in [0, n)")
    moved = list(perm)
    moved[i], moved[j] = moved[j], moved[i]
    sel_a = np.array(perm[:k], dtype=np.intp)
    sel_b = np.array(moved[:k], dtype=np.intp)
    sub_a = DenseMatrix(m.data[np.ix_(sel_a, sel_a)])
    sub_b = DenseMatrix(m.data[np.ix_(sel_b, sel_b)])
    diff = sub_a.data - sub_b.data
    if np.all(diff == 0):
        rank_diff = 0
    else:
        rank_diff = numerical_rank(DenseMatrix(diff), rel_tol)
    f_gap = sup_distance(esd(eigenvalues_hermitian(sub_a)),
                         esd(eigenvalues_hermitian(sub_b)))
    return rank_diff, f_gap
