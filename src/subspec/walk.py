"""The random-transpositions walk on the symmetric group, made concrete.

States are permutations in one-line notation, the rows of the read-only
(n!, n) array `permutations(n)`, which lists them in lexicographic order;
a state is its row there, and a function on S_n is one value per row.
One step holds with probability 1/n or composes on the right with a
uniformly random transposition (probability 2/n^2 each), i.e. swaps two
positions of the one-line word.  The uniform measure is invariant and the
kernel is symmetric, so everything reversible-chain-shaped can be checked
by direct matrix inspection: `kernel_errors` gives the row-sum,
detailed-balance and invariance errors of a dense `kernel_matrix`, and
`spectral_gap` the kernel's gap; the CLI's `verify` reports these per n.

Every other table is derived from `permutations(n)` with array
operations.  `neighbor_table` reads each row as a base-n numeral; these
codes increase along the rows, so the row of a swapped word is found by
`searchsorted` on them.  The selected set of a permutation, its first k
entries, is a bitmask, and one 2^n lookup maps it to its row of
`oracle.subset_table(n, k)`.

The dense kernel is capped at n = 6 (720^2 floats); the permutation
array and the matrix-free neighbor sums (spectral gap, Dirichlet form,
worst-case one-step increment) additionally work for n = 7 and 8.

A permutation acts on the matrix only through the set of its first k
entries, so the ESD observables and the one-step ESD gap read rows of the
`oracle.subset_spectra(m, k)` table and solve no subset themselves.  The
singular-mode observable of the k x n row block A reads the table of
`gram(m)`, since A A* is the principal block (m m*)[S, S].  The rank
steps gather the permuted-order blocks of all their steps into one stack
and rank the differences, which are Hermitian, by their eigenvalues from
one batched solve.

The exact-law checks are array passes over those rows: the observables
take their values from one `oracle.pointwise_profile` per grid, and the
rank steps measure every step's ESD gap from comparison counts over the
two stacks of rows, with no per-step CDF.
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

# the largest n of a dense kernel, and so of `verify --n`
MAX_DENSE_N = 6
_MAX_PERM_N = 8
# `spectral_gap`'s Lanczos start vector, and the norm at or below which a
# new Krylov direction counts as zero: kept directions have norms of 3e-2
# and more up to n = 8, and the direction after the last one 1e-12 or less
_LANCZOS_SEED = 1
_LANCZOS_BREAKDOWN = 1e-8
# the rel_tol at which `rank_step_check` ranks its one-step differences
RANK_STEP_REL_TOL = 1e-7


@dataclass(frozen=True)
class FunctionOnSn:
    """Real function on S_n, one value per row of `permutations(n)`."""

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


def transpositions(n: int) -> list[tuple[int, int]]:
    """All n(n-1)/2 position pairs, lexicographic."""
    return list(itertools.combinations(range(n), 2))


@lru_cache(maxsize=8)
def permutations(n: int) -> np.ndarray:
    """Read-only (n!, n) array whose rows are the permutations of 0..n-1 in
    lexicographic order."""
    if not 1 <= n <= _MAX_PERM_N:
        raise ValueError(f"n must lie in [1, {_MAX_PERM_N}]")
    words = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(words, dtype=np.intp, count=math.factorial(n) * n).reshape(-1, n)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=8)
def neighbor_table(n: int) -> np.ndarray:
    """neighbor_table(n)[r, t] is the row of `permutations(n)` that holds row
    r with the positions of transposition t swapped (one walk step via
    transposition t)."""
    if not 2 <= n <= _MAX_PERM_N:
        raise ValueError(f"n must lie in [2, {_MAX_PERM_N}]")
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
    """One minus the second-largest kernel eigenvalue.  The kernel has one
    distinct eigenvalue per value of 1/n + ((n - 1)/n) r(lambda) over the
    partitions lambda of n (Diaconis & Shahshahani 1981), so Lanczos from a
    seeded Gaussian start, reorthogonalized twice against the whole basis
    at every step, finds a new direction of norm zero after exactly that
    many steps; the tridiagonal matrix it has built then holds every
    distinct eigenvalue.  The matvec gathers on `neighbor_table` and every
    inner product is an `np.sum`, so no BLAS call touches the bytes.
    r(lambda) is an integer over C(n, 2) in [-1, 1], so there are at most
    n(n - 1) + 1 distinct eigenvalues (and at most n!); raises RuntimeError
    if no direction vanishes within that many steps."""
    table = neighbor_table(n)
    size = table.shape[0]
    steps = min(size, n * (n - 1) + 1)
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(size)
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
            return 1.0 - float(eigenvalues_hermitian(DenseMatrix(tridiagonal)).values[-2])
        betas.append(beta)
        basis.append(w / beta)
    raise RuntimeError(f"Lanczos on the n = {n} walk kernel found no breakdown "
                       f"within {steps} steps")


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


def _table_lookup(table: np.ndarray, n: int) -> np.ndarray:
    """`_set_rows` of a `subset_spectra` table of k = table.shape[1], after
    checking that it has one row per k-subset of an order-n matrix."""
    if not 2 <= n <= MAX_DENSE_N:
        raise ValueError(f"matrix order must lie in [2, {MAX_DENSE_N}]")
    k = table.shape[1]
    if not 1 <= k <= n or table.shape[0] != math.comb(n, k):
        raise ValueError(f"table must have C(n, k) = C({n}, {k}) rows, one per subset")
    return _set_rows(n, k)


def esd_observable(table: np.ndarray, n: int, x: float) -> FunctionOnSn:
    """f(pi) = value at x of the ESD of the submatrix selected by pi's first
    k entries, read from `table` = `subset_spectra(m, k)` of an order-n m
    (k = table.shape[1]); depends only on the selected set by construction."""
    return esd_observable_grid(table, n, [x])[0]


def esd_observable_grid(table: np.ndarray, n: int, xs: Sequence[float]) -> list[FunctionOnSn]:
    """esd_observable for every x in xs."""
    rows = _table_lookup(table, n)[_bitmasks(permutations(n)[:, :table.shape[1]])]
    per_subset = pointwise_profile(table, xs).fa
    return [FunctionOnSn(n, per_subset[rows, j]) for j in range(len(xs))]


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
    is not Hermitian raises ValueError("not Hermitian").  The ESDs
    are rows of `table`, `subset_spectra(m, k)`, so a step that keeps the
    selected set has gap exactly 0.  Each gap is the same float as
    `sup_distance(step_cdf(a), step_cdf(b))` of the step's two rows.
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
    lookup = _table_lookup(table, n)
    k = table.shape[1]
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
    a, b = (table[lookup[_bitmasks(perms[:, :k])]] for perms in (before, after))
    # both ESDs at every entry of either row, as the c/k floats sup_distance
    # compares; on the union of the jumps every left limit is the value at
    # the jump before, so the values alone give the supremum
    points = np.concatenate((a, b), axis=1)[:, :, None]
    diffs = (np.count_nonzero(a[:, None] <= points, axis=2) / k
             - np.count_nonzero(b[:, None] <= points, axis=2) / k)
    # a step that keeps the selected set compares a row with itself: gap 0
    return ranks, np.abs(diffs).max(axis=1)
