"""The random-transpositions walk on the symmetric group, made concrete.

States are permutations in one-line notation, the rows of the read-only
(n!, n) array `permutations(n)`, which lists them in lexicographic order.
One step holds with probability 1/n or composes on the right with a
uniformly random transposition (probability 2/n^2 each), i.e. swaps two
positions of the one-line word.  The uniform measure is invariant and the
kernel is symmetric, so everything reversible-chain-shaped can be checked
on `neighbor_table(n)`, which holds the whole kernel: `kernel_errors`
gives its row-sum, detailed-balance and invariance errors, and
`spectral_gap` the kernel's gap; the CLI's `verify` reports these per n.
`neighbor_table` reads each row of `permutations(n)` as a base-n numeral;
these codes increase along the rows, so the row of a swapped word is found
by `searchsorted` on them.

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

Every table, and so `verify`, stops at n = MAX_PERM_N = 8.  The dense
`kernel_matrix`, which only the tests use as an oracle, stops at n = 6
(720^2 floats).

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import (DenseMatrix, _hermitized, _require_hermitian_stack, eigenvalues_hermitian,
                     eigenvalues_hermitian_stack, gather_submatrices)
from .oracle import pointwise_profile, subset_table
from .sampling import Xoshiro256pp
from .spectra import pair_distances

MAX_DENSE_N = 6  # the largest n of a dense kernel
# the largest n of `permutations`, of every table and so of `verify --n`
MAX_PERM_N = 8
# the `Xoshiro256pp` seed of `spectral_gap`'s start vector, and the norm at
# or below which a new Krylov direction counts as zero: up to n = 8, kept
# directions have norms of 0.033 and more, the one after them 5.8e-13 or less
_LANCZOS_SEED = 1
_LANCZOS_BREAKDOWN = 1e-8
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


@lru_cache(maxsize=8)
def permutations(n: int) -> np.ndarray:
    """Read-only (n!, n) array whose rows are the permutations of 0..n-1 in
    lexicographic order."""
    if not 1 <= n <= MAX_PERM_N:
        raise ValueError(f"n must lie in [1, {MAX_PERM_N}]")
    words = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(words, dtype=np.intp, count=math.factorial(n) * n).reshape(-1, n)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=8)
def neighbor_table(n: int) -> np.ndarray:
    """neighbor_table(n)[r, t] is the row of `permutations(n)` that holds row
    r with the positions of transposition t swapped (one walk step via
    transposition t)."""
    if not 2 <= n <= MAX_PERM_N:
        raise ValueError(f"n must lie in [2, {MAX_PERM_N}]")
    perms = permutations(n)
    # row r as a base-n numeral: increasing in r, and below 8^8 for n <= 8
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = (perms * place).sum(axis=1)
    i, j = np.array(transpositions(n)).T
    # swapping positions i and j moves the code by (p_j - p_i)(n^(n-1-i) - n^(n-1-j))
    swapped = codes[:, None] + (perms[:, j] - perms[:, i]) * (place[i] - place[j])
    table = np.searchsorted(codes, swapped)
    table.setflags(write=False)
    return table


def kernel_matrix(n: int) -> np.ndarray:
    """Dense transition kernel: 1/n on the diagonal, 2/n^2 per transposition."""
    if not 2 <= n <= MAX_DENSE_N:
        raise ValueError(f"n must lie in [2, {MAX_DENSE_N}] for dense kernels")
    table = neighbor_table(n)
    size = table.shape[0]
    kernel = np.zeros((size, size), dtype=np.float64)
    np.fill_diagonal(kernel, 1.0 / n)
    rows = np.repeat(np.arange(size), table.shape[1])
    kernel[rows, table.ravel()] = 2.0 / (n * n)
    return kernel


def kernel_errors(table: np.ndarray, n: int) -> tuple[float, float, float]:
    """(row-sum, detailed-balance, invariance) errors, under the uniform
    measure, of the kernel of a neighbour table of S_n: 1/n to stay, 2/n^2
    per step.  A step to its own row or repeating another costs that row
    2/n^2; one that its transposition does not undo breaks symmetry by
    2/n^2; each step more or fewer than C(n, 2) into a state moves its
    measure by 2/n^2 / n!.  So all three are 0 for `neighbor_table(n)`."""
    size, steps = table.shape
    rows, weight = np.arange(size)[:, None], 2.0 / (n * n)
    ordered = np.sort(table, axis=1)
    reached = ((np.diff(ordered, axis=1, prepend=-1) != 0) & (ordered != rows)).sum(axis=1)
    counts = np.bincount(table.ravel(), minlength=size)
    return (weight * float(steps - reached.min()),
            weight * float(not np.all(table[table, np.arange(steps)] == rows)),
            weight * float(np.abs(counts - steps).max()) / size)


@lru_cache(maxsize=8)
def spectral_gap(n: int) -> float:
    """One minus the second-largest kernel eigenvalue, an eigenvalue of
    `lanczos_tridiagonal(n)`."""
    return 1.0 - float(eigenvalues_hermitian(DenseMatrix(lanczos_tridiagonal(n))).values[-2])


@lru_cache(maxsize=8)
def lanczos_tridiagonal(n: int) -> np.ndarray:
    """A read-only tridiagonal matrix with every distinct kernel eigenvalue.
    The kernel has one per value of 1/n + ((n - 1)/n) r(lambda) over the
    partitions lambda of n (Diaconis & Shahshahani 1981), so Lanczos from
    a Gaussian start drawn from `Xoshiro256pp`, reorthogonalized twice
    against the whole basis at every step, finds a new direction of norm
    zero after exactly that many steps; the tridiagonal matrix then holds
    every distinct eigenvalue.  The matvec gathers on `neighbor_table` and
    every inner product is an `np.sum`, so no BLAS call touches the bytes.
    r(lambda) is an integer over C(n, 2) in [-1, 1], so there are at most
    n(n - 1) + 1 distinct eigenvalues (and at most n!); raises RuntimeError
    if no direction vanishes within that many steps."""
    table = neighbor_table(n)
    size = table.shape[0]
    steps = min(size, n * (n - 1) + 1)
    rng = Xoshiro256pp.from_seed(_LANCZOS_SEED)
    q = np.fromiter((rng.next_gaussian() for _ in range(size)), dtype=np.float64, count=size)
    basis = [q / math.sqrt(np.sum(q * q))]
    alphas: list[float] = []
    betas: list[float] = []
    while len(basis) <= steps:
        q, qs = basis[-1], np.array(basis)
        w = q / n + (2.0 / (n * n)) * np.sum(q[table], axis=1)
        alpha = 0.0
        for _ in range(2):
            coeffs = np.sum(qs * w, axis=1)
            w = w - np.sum(coeffs[:, None] * qs, axis=0)
            alpha += float(coeffs[-1])
        alphas.append(alpha)
        beta = math.sqrt(np.sum(w * w))
        if beta <= _LANCZOS_BREAKDOWN:
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            tridiagonal.setflags(write=False)
            return tridiagonal
        betas.append(beta)
        basis.append(w / beta)
    raise RuntimeError(f"Lanczos on the n = {n} walk kernel found no breakdown "
                       f"within {steps} steps")


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
    one-line notation, such as a row of `permutations(n)`.

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
