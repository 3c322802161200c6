"""The random-transpositions walk on the symmetric group, made concrete.

States are permutations in one-line notation.  One step holds with
probability 1/n or composes on the right with a uniformly random
transposition (probability 2/n^2 each), i.e. swaps two positions of the
one-line word.  The step law is a class function, so seen through cycle
type the walk is a Markov chain on the p(n) partitions of n, 22 at n = 8:
`class_chain(n)`, in integer transposition counts, which
`class_chain_errors` checks in exact integers.  It has every distinct
eigenvalue of the walk, one per character (Diaconis & Shahshahani 1981),
so `spectral_gap` is one solve of order p(n); the CLI's `verify` reports
these per n.  Its rank steps decode a drawn rank with `unrank`, so no
path builds a row per permutation.

A permutation acts on the matrix only through its selected set, its first
k entries, a bitmask that one 2^n lookup maps to its row of
`oracle.subset_table(n, k)`.  So every observable is a `FunctionOnSubsets`,
one value per such row, and the walk seen through it is the
Bernoulli-Laplace chain (Diaconis & Shahshahani 1987): exactly k(n - k) of
the C(n, 2) transpositions change the set, one per (member, non-member)
swap, and `_swap_table(n, k)` holds those steps.  The measures are those
on S_n: each k-subset is the set of k!(n - k)! permutations, so the
uniform law on S_n pushes forward to the uniform law on the subsets and a
superlevel measure count / C(n, k) is the same correctly rounded rational
as count / n!.  A state's one-step sum of squares is its row sum over the
swap table, S_n's terms less the zeros, so the one-step norm, and with it
the float mean that a superlevel threshold starts from, can differ from
S_n's by an ulp or two; a count moves only where a value ties the
threshold in exact arithmetic.

The class chain takes any n, but `verify` and `FunctionOnSubsets` stop at
n = MAX_PERM_N = 8: the observables and rank steps grow with C(n, k)
subsets and 2^n-entry lookups, and no larger n has been timed or checked.
The dense `kernel_matrix`, a test oracle, stops at n = 6 (720^2 floats).

The ESD observables and the one-step ESD gap read rows of the
`oracle.subset_spectra(m, k)` table and solve no subset themselves.  The
singular-mode observable of the k x n row block A reads the table of
`gram(m)`, since A A* is the principal block (m m*)[S, S].  The rank
steps draw permutations and gather the permuted-order blocks of all their
steps into one stack, and rank the differences, which are Hermitian, by
their eigenvalues from one batched solve.

The exact-law checks are array passes over those rows: the observables
take their values from one `oracle.pointwise_profile` per grid, and the
rank steps take every step's ESD gap from one `spectra.pair_distances`
of the two stacks of rows, with no per-step CDF.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import (DenseMatrix, _hermitized, _require_hermitian_stack, eigenvalues_hermitian,
                     eigenvalues_hermitian_stack, gather_submatrices)
from .oracle import pointwise_profile, subset_table
from .spectra import pair_distances

# the largest n of `verify --n` and of a `FunctionOnSubsets`
MAX_PERM_N = 8
# the rel_tol at which `rank_step_check` ranks its one-step differences
RANK_STEP_REL_TOL = 1e-7


@dataclass(frozen=True)
class FunctionOnSubsets:
    """Real function on the k-subsets of {1..n}, one value per row of `subset_table(n, k)`."""

    n: int
    k: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (2 <= self.n <= MAX_PERM_N and 1 <= self.k <= self.n):
            raise ValueError(f"need 2 <= n <= {MAX_PERM_N} and 1 <= k <= n")
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != math.comb(self.n, self.k):
            raise ValueError("values must have length C(n, k)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def transpositions(n: int) -> list[tuple[int, int]]:
    """All n(n-1)/2 position pairs, lexicographic."""
    return list(itertools.combinations(range(n), 2))


def unrank(n: int, rank: int) -> list[int]:
    """The permutation of 0..n-1 of the given lexicographic rank, in
    one-line notation: its factorial-base digit at place p picks the entry."""
    pool = list(range(n))
    return [pool.pop(rank // math.factorial(p) % (p + 1)) for p in range(n - 1, -1, -1)]


def kernel_matrix(n: int) -> np.ndarray:
    """Dense transition kernel on the permutations of 0..n-1, 2 <= n <= 6,
    in lexicographic order: 1/n on the diagonal, 2/n^2 per transposition."""
    if not 2 <= n <= 6:
        raise ValueError("n must lie in [2, 6] for dense kernels")
    words = list(itertools.permutations(range(n)))
    rank = {word: r for r, word in enumerate(words)}
    kernel = np.eye(len(words)) / n
    for r, word in enumerate(words):
        for i, j in transpositions(n):
            swapped = list(word)
            swapped[i], swapped[j] = word[j], word[i]
            kernel[r, rank[tuple(swapped)]] = 2.0 / (n * n)
    return kernel


def _partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    """The partitions of n into parts of at most `largest`, reverse lexicographic."""
    return [(first, *rest) for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)] if n else [()]


@lru_cache(maxsize=16)
def class_chain(n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(sizes, counts) of the walk on the cycle types `_partitions(n, n)`:
    each class's size n!/z_mu as a Python int, and the read-only matrix
    whose [i, j] counts the transpositions from type i to type j.  Joining
    cycles of lengths a and b takes a*b of them; cutting one of length a
    into d and a - d takes a for d < a/2 and a/2 for d = a/2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    types = _partitions(n, n)
    row_of = {parts: i for i, parts in enumerate(types)}
    counts = np.zeros((len(types), len(types)), dtype=np.int64)
    for i, parts in enumerate(types):
        for x, y in itertools.combinations(range(len(parts)), 2):
            joined = parts[:x] + parts[x + 1:y] + parts[y + 1:] + (parts[x] + parts[y],)
            counts[i, row_of[tuple(sorted(joined, reverse=True))]] += parts[x] * parts[y]
        for x, a in enumerate(parts):
            for d in range(1, a // 2 + 1):
                cut = tuple(sorted(parts[:x] + parts[x + 1:] + (d, a - d), reverse=True))
                counts[i, row_of[cut]] += a if 2 * d < a else d
    sizes = tuple(math.factorial(n) // math.prod(part ** m * math.factorial(m) for part, m
                                                 in Counter(parts).items()) for parts in types)
    counts.setflags(write=False)
    return sizes, counts


def class_chain_errors(n: int, sizes: Sequence[int],
                       counts: np.ndarray) -> tuple[float, float, float]:
    """(row-sum, detailed-balance, invariance) errors of a class chain, in
    units of 2/n^2, from exact integers: the largest |row sum - C(n, 2)|,
    and over n! those of the flows F[mu, nu] = |C_mu| c(mu, nu): the
    largest |F - F^T|, and |column sum - C(n, 2) |C_nu|| or |sum |C_mu| - n!|."""
    c, z = counts.astype(object), np.array(sizes, dtype=object)
    steps, total, weight = math.comb(n, 2), math.factorial(n), 2.0 / (n * n)
    flows = z[:, None] * c
    invariance = max(np.abs(flows.sum(axis=0) - steps * z).max(), abs(z.sum() - total))
    return (weight * np.abs(c.sum(axis=1) - steps).max(),
            weight * (np.abs(flows - flows.T).max() / total), weight * (invariance / total))


def class_kernel(n: int) -> np.ndarray:
    """sqrt(P o P^T), elementwise, for the class chain's kernel P = I/n +
    (2/n^2) counts: by detailed balance D^1/2 P D^-1/2, with D the class
    measure, and bitwise symmetric, each entry a product of the same floats."""
    sizes, counts = class_chain(n)
    kernel = np.eye(len(sizes)) / n + (2.0 / (n * n)) * counts
    return np.sqrt(kernel * kernel.T)


@lru_cache(maxsize=16)
def spectral_gap(n: int) -> float:
    """One minus the walk's second-largest eigenvalue, that of `class_kernel(n)`."""
    return 1.0 - float(eigenvalues_hermitian(DenseMatrix(class_kernel(n))).values[-2])


def _bitmasks(sets: np.ndarray) -> np.ndarray:
    """The bitmask of each row of a (B, k) array of distinct 0-based indices."""
    return (1 << sets).sum(axis=1)


@lru_cache(maxsize=32)
def _set_rows(n: int, k: int) -> np.ndarray:
    """Read-only 2^n lookup: the entry at the bitmask of a k-subset of
    0..n-1 is that subset's row of `subset_table(n, k)`, every other entry
    is -1."""
    masks = _bitmasks(subset_table(n, k).astype(np.intp) - 1)
    lookup = np.full(1 << n, -1, dtype=np.intp)
    lookup[masks] = np.arange(masks.size)
    lookup.setflags(write=False)
    return lookup


@lru_cache(maxsize=32)
def _swap_table(n: int, k: int) -> np.ndarray:
    """Read-only (C(n, k), k(n - k)) table of the Bernoulli-Laplace steps:
    entry [r, a(n - k) + b] is the row of `subset_table(n, k)` that holds
    row r with its a-th member swapped for its b-th non-member, both
    counted in ascending order."""
    sets = subset_table(n, k).astype(np.intp) - 1
    masks = _bitmasks(sets)
    outside = np.nonzero(((masks[:, None] >> np.arange(n)) & 1) == 0)[1].reshape(masks.size, -1)
    swapped = masks[:, None, None] - (1 << sets)[:, :, None] + (1 << outside)[:, None, :]
    table = _set_rows(n, k)[swapped.reshape(masks.size, -1)]
    table.setflags(write=False)
    return table


def triple_norm(f: FunctionOnSubsets) -> float:
    """Worst-case one-step L2 increment: sqrt of half the max over states of
    the expected squared step of f, which only the swaps of `_swap_table` move."""
    diffs = f.values[:, None] - f.values[_swap_table(f.n, f.k)]
    worst = float(np.max(np.sum(diffs * diffs, axis=1)))
    return math.sqrt(worst / (f.n * f.n))


def _table_k(table: np.ndarray, n: int) -> int:
    """k = table.shape[1] of a `subset_spectra` table, after checking that
    it has one row per k-subset of an order-n matrix."""
    if not 2 <= n <= MAX_PERM_N:
        raise ValueError(f"matrix order must lie in [2, {MAX_PERM_N}]")
    k = table.shape[1]
    if not 1 <= k <= n or table.shape[0] != math.comb(n, k):
        raise ValueError(f"table must have C(n, k) = C({n}, {k}) rows, one per subset")
    return k


def esd_observable(table: np.ndarray, n: int, x: float) -> FunctionOnSubsets:
    """f(S) = value at x of the ESD of the principal submatrix on S, read from
    `table` = `subset_spectra(m, k)` of an order-n m (k = table.shape[1])."""
    return esd_observable_grid(table, n, [x])[0]


def esd_observable_grid(table: np.ndarray, n: int,
                        xs: Sequence[float]) -> list[FunctionOnSubsets]:
    """esd_observable for every x in xs."""
    k = _table_k(table, n)
    per_subset = pointwise_profile(table, xs).fa
    return [FunctionOnSubsets(n, k, per_subset[:, j]) for j in range(len(xs))]


def verify_triple_norm_bound(table: np.ndarray, n: int, x_grid: Sequence[float]) -> float:
    """The largest kn * triple_norm(f_x)^2 over the x in the grid, which the
    worst-case one-step estimate triple_norm(f_x)^2 <= 4/(kn) bounds by 4."""
    k = table.shape[1]
    return max((k * n * triple_norm(f) ** 2 for f in esd_observable_grid(table, n, x_grid)),
               default=0.0)


def gap_concentration_bound(gap: float, r: float) -> float:
    """Exponential concentration bound 3 exp(-r sqrt(gap) / 2) for functions
    with worst-case one-step norm at most 1."""
    if gap <= 0 or r < 0:
        raise ValueError("need gap > 0 and r >= 0")
    return 3.0 * math.exp(-r * math.sqrt(gap) / 2.0)


def verify_gap_concentration(f: FunctionOnSubsets, r_grid: Sequence[float],
                             gap: float) -> list[dict]:
    """Exact superlevel measures of f (rescaled to unit one-step norm when
    nonconstant) against the walk's spectral-gap concentration bound, per r."""
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


def rank_step_check(m: DenseMatrix, table: np.ndarray,
                    sigmas: Sequence[Sequence[int]],
                    taus: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Walk steps sigma -> sigma tau seen through the principal submatrix
    of a Hermitian M, for k = table.shape[1]: per step, the rank of
    A(sigma) - A(sigma tau) and the sup-norm gap of the two ESDs, as
    (ranks, gaps) arrays.  Each sigma is a permutation of 0..n-1 in
    one-line notation, such as `unrank(n, r)`.

    The submatrices keep the permutation's own row/column order; that is what
    confines the difference to one changed position (rank at most 2).  All
    differences are gathered into one stack, from M's Hermitian part as the
    table's blocks are solved, and solved together by
    `eigenvalues_hermitian_stack`; the rank is the count of absolute
    eigenvalues above `RANK_STEP_REL_TOL` * k times the largest.  An M that
    is not Hermitian raises ValueError("not Hermitian").  The gaps are
    `spectra.pair_distances` of rows of `table`, `subset_spectra(m, k)`, so
    a step that keeps the selected set has gap exactly 0.
    """
    before = np.array(sigmas, dtype=np.intp)
    pairs = np.array(taus, dtype=np.intp)
    if before.ndim != 2 or before.shape[0] == 0 or pairs.shape != (before.shape[0], 2):
        raise ValueError("need one tau per sigma and at least one step")
    n = before.shape[1]
    if not m.is_square() or m.rows != n:
        raise ValueError("matrix order must match the permutation length")
    if np.any(np.sort(before, axis=1) != np.arange(n)):
        raise ValueError("each sigma must be a permutation of 0..n-1")
    k = _table_k(table, n)
    i, j = pairs[:, 0], pairs[:, 1]
    if np.any(i == j) or pairs.min() < 0 or pairs.max() >= n:
        raise ValueError("tau must be two distinct positions in [0, n)")
    steps = np.arange(before.shape[0])
    after = before.copy()
    after[steps, i] = before[steps, j]
    after[steps, j] = before[steps, i]
    _require_hermitian_stack(m.data[None])
    # bit for bit M when M is exactly Hermitian; otherwise a difference far
    # below M's scale could fail the guard at its own
    h = DenseMatrix(_hermitized(m.data[None])[0])
    diff = gather_submatrices(h, before[:, :k]) - gather_submatrices(h, after[:, :k])
    vals = np.abs(eigenvalues_hermitian_stack(diff))
    ranks = np.count_nonzero(vals > RANK_STEP_REL_TOL * k * vals.max(axis=1, keepdims=True),
                             axis=1)
    a, b = (table[_set_rows(n, k)[_bitmasks(perms[:, :k])]] for perms in (before, after))
    return ranks, pair_distances(a, b)
