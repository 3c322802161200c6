"""Dense matrix storage and from-scratch symmetric spectral decompositions.

`_symmetric_eigenvalues` solves a (B, k, k) stack of real symmetric
matrices by one of two methods, chosen by k alone.  Both are elementwise
numpy and `np.sum` over contiguous rows, with no BLAS call, and treat each
matrix alone (rescale, pivots, bracket, steps), so its eigenvalues are
bit-identical to a solve of it alone.

- Below order 13, cyclic Jacobi in round-robin rounds of disjoint pivot
  pairs, one vectorized block each (Brent & Luk 1985), until the
  off-diagonal norm, summed directly, is below 1e-12 times the input's.
  When B * k >= 400 it holds the stack as (k, k, B) and masks the pairs a
  matrix does not rotate (0.70-0.73 of the time at B = 240 on an AMD EPYC
  VM); otherwise it gathers the rotated (matrix, pair) cells.
- From 13 on, Householder reduction to tridiagonal form, then bisection on
  Sturm counts (pivots below pivmin set to -pivmin, as LAPACK dstebz) for
  every eigenvalue at once.  The Gershgorin bracket, widened by 2.1 k eps t
  (t its largest absolute end), has width W <= 2.01 t, and 53 halvings
  leave W 2^-54 <= u t, u = 2^-53: one rounding of t.  An eigenvalue is
  then within (4 k^2 + 9) u |A|_F of A's.  The reflections are exact for
  A + E, |E|_F <= 2 (k - 2) g_k |A|_F < 4 k^2 u |A|_F (Higham 2002, Thm
  19.4, g_k = 2ku / (1 - 2ku)); a Sturm count is exact for off-diagonals
  moved by 2.5u relatively (Demmel 1997, sec. 5.3.4), 5u |A|_F; the bracket
  adds u t <= 2u |A|_F, the rescale and the midpoint 2u |A|_F.  A row x
  below 2^-500 is not reflected, a change far below u |A|_F.

The crossover: bisection's time over Jacobi's through this function as the
CLI runs it, the largest over stacks of rw-covariance, random-gaussian and
random-pm1 blocks (median of 9, 2-vCPU Intel Xeon VM).  Bisection led in
every cell from 13 on; at 12 it led here but tied (0.97, 1.00) in two
cells of another run.

  k        10    11    12    13    16    20    32
  B = 25   1.14  1.08  0.93  0.84  0.87  0.77  0.70
  B = 100  1.08  1.04  0.95  0.88  0.68  0.73  0.40
  B = 250  0.96  0.85  0.81  0.76  0.65  0.52  0.26

`gather_submatrices` is the one principal-block extraction of the package:
it turns rows of 0-based indices into a (B, k, k) stack with a single
`np.take`.  How a matrix's principal blocks are solved is decided once
per matrix, by `principal_block_solver`:

- a real diagonal M (off-diagonal zeros of either sign): every block is
  diagonal, which Jacobi returns at sweep 0, so its eigenvalues come from
  its k diagonal entries alone, at any k, and no k x k block is built;
- any other real M equal to its transpose bit for bit: every block is
  exactly symmetric too and is solved as gathered;
- any other Hermitian M: every block is guarded at its own scale and
  symmetrized first.

The `BlockSolver` it returns takes index rows and states the bytes one
row holds while solved: its k x k entries, or for a diagonal block 4k
(index, value and two copies).  Callers bound memory by the rows they
pass (`sampling.solve_stacks` keeps each stack within
`sampling.STACK_BYTES`): beyond the output, many stacks peaked under
tracemalloc at 6.9 times that on the symmetric path (k = 12; 3.2 by
bisection at k = 20), 14.0 on the complex Hermitian one, whose embedding
doubles the order (k = 6; 8.2 at k = 12), and 1.3 on the diagonal one,
shared by the processes that solve it.

Singular mode reads the same blocks of one matrix: a row block A = M[S, :]
has A A* = gram(M)[S, S], so `row_block_solver` forms gram(M) once and
hands it to `principal_block_solver`, which picks the path for it; its
blocks are budgeted like any others.  The matrix keeps that solver
(`DenseMatrix.row_blocks`), so a run that solves its row blocks in several
passes forms gram(M) once.  `singular_values` and `numerical_rank` of one
matrix are that solver on its one block of all rows, so `gram` is the
package's one matrix product.

A stack with B * k^3 >= 2 * `_PART_MIN_WORK` is cut into row ranges, at most
one per CPU, when the process runs one OS thread (`_fork_cpus`); each
range but the first is solved in a forked worker, and the bytes do not
depend on the cut.  `forked` is the package's one way of running work in
another process.

Complex Hermitian matrices X + iY are reduced to the real symmetric
doubling [[X, -Y], [Y, X]], whose spectrum is the original spectrum with
every multiplicity doubled; the halved multiset is returned.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
BISECTION_STEPS = 53

# matrices of this order and above are solved by Householder + bisection,
# below it by Jacobi (crossover in the module docstring)
_BISECTION_MIN_ORDER = 13

# B matrices of order n are solved by Jacobi batch last when B * n >= this
_BATCH_LAST_MIN_SIZE = 400

# B * n^3 of B order-n matrices that pays for a process (crossover in README)
_PART_MIN_WORK = 250_000


@dataclass(frozen=True)
class DenseMatrix:
    """Rectangular real or complex matrix with finite float64 entries.

    `data` is a 2-D C-ordered numpy array, float64 for real matrices and
    complex128 for complex ones.  The array is copied on construction and
    frozen, so values may be shared freely across threads.  An array that
    is already read-only, of that dtype, C-ordered and the owner of its data
    is adopted without a copy: whoever hands it over gives up writing to it.
    The solver of its row blocks (`row_blocks`) is cached on it.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix data must be 2-D and non-empty")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        flags = arr.flags
        if flags.writeable or not (flags.owndata and flags.c_contiguous) or arr.dtype != dtype:
            arr = np.array(arr, dtype=dtype, order="C")
        if not np.all(np.isfinite(arr.view(np.float64) if arr.dtype == np.complex128 else arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_complex(self) -> bool:
        return self.data.dtype == np.complex128

    @property
    def field(self) -> str:
        return "complex" if self.is_complex else "real"

    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def is_diagonal(self) -> bool:
        """Real, square and zero (of either sign) off the diagonal."""
        return (not self.is_complex and self.is_square()
                and np.count_nonzero(self.data) == np.count_nonzero(self.data.diagonal()))

    @cached_property
    def row_blocks(self) -> BlockSolver:
        """`row_block_solver` of this matrix, formed at first use and kept
        while the matrix lives, so that every singular-mode pass over its
        blocks reads the one gram(M) it holds."""
        return row_block_solver(self)


@dataclass(frozen=True)
class Spectrum:
    """Finite multiset of real eigenvalues or singular values, ascending."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("spectrum must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("spectrum values must be finite")
        if np.any(np.diff(arr) < 0):
            raise ValueError("spectrum values must be sorted ascending")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _hermitian_gaps(stack: np.ndarray) -> np.ndarray:
    """max |A[i,j] - conj(A[j,i])| of each matrix of a (B, k, k) stack."""
    if stack.shape[1] != stack.shape[2]:
        raise ValueError("not square")
    diff = stack - stack.conj().transpose(0, 2, 1)
    # in place for real input: a guard on a large matrix then needs one
    # temporary of its size, not two
    return np.abs(diff, out=diff if diff.dtype == np.float64 else None).max(axis=(1, 2))


def _require_hermitian_stack(stack: np.ndarray) -> None:
    """Raise ValueError("not Hermitian") unless every matrix of a (B, k, k)
    stack is Hermitian to within 1e-10 times its own largest entry (or
    1e-10 for a zero matrix)."""
    gaps = _hermitian_gaps(stack)
    scale = np.abs(stack).max(axis=(1, 2))
    if np.any(gaps > 1e-10 * np.where(scale > 0, scale, 1.0)):
        raise ValueError("not Hermitian")


def gather_submatrices(m: DenseMatrix, idx: np.ndarray) -> np.ndarray:
    """The principal k x k blocks of a square m at the 0-based index rows of
    a (B, k) array, as a fresh (B, k, k) stack gathered from the flat matrix
    in one `np.take`.  Rows and columns keep the order of their indices."""
    return np.take(m.data.reshape(-1), idx[:, :, None] * m.cols + idx[:, None, :])


class BlockSolver(NamedTuple):
    """The spectra of one matrix's blocks: `solve` maps a (B, k) array of
    0-based index rows to a (B, width) array, one ascending row per block,
    and `row_bytes(k)` is what one row of k indices holds while solved.
    `path` names the way the blocks are solved."""

    path: str
    solve: Callable[[np.ndarray], np.ndarray]
    row_bytes: Callable[[int], int]


def principal_block_solver(m: DenseMatrix) -> BlockSolver:
    """Check that M is square and Hermitian, then return the eigensolver for
    its principal blocks.  A real diagonal M's blocks are solved from their
    diagonal entries alone; those of another real M equal to its transpose
    bit for bit are exactly symmetric too and go to the bare solver as
    gathered; any other M's go through `eigenvalues_hermitian_stack`,
    each guarded at its own scale."""
    if not m.is_square():
        raise ValueError("not square")
    symmetric = False
    if m.is_diagonal:  # symmetric too: test it first
        diagonal = m.data.diagonal()
        return BlockSolver("diagonal", lambda idx: _diagonal_eigenvalues(diagonal[idx]),
                           lambda k: 4 * k * diagonal.itemsize)
    if not m.is_complex:
        bits = m.data.view(np.int64)
        symmetric = np.array_equal(bits, bits.T)
    if not symmetric:
        _require_hermitian_stack(m.data[None])
    solve = _symmetric_eigenvalues if symmetric else eigenvalues_hermitian_stack
    return BlockSolver("symmetric" if symmetric else "hermitian",
                       lambda idx: solve(gather_submatrices(m, idx)),
                       lambda k: k * k * m.data.itemsize)


def eigensolver_metadata(m: DenseMatrix, k: int, mode: str = "eigen") -> str:
    """The method and settings that solve M's k x k blocks in mode "eigen"
    or "singular" (those of gram(M)), by the order solved: 2k on a complex
    M's embedding, else k.  Diagonal blocks need none and keep Jacobi's."""
    diagonal = m.row_blocks.path == "diagonal" if mode == "singular" else m.is_diagonal
    if not diagonal and k * (2 if m.is_complex else 1) >= _BISECTION_MIN_ORDER:
        return f"eigensolver=householder-bisection;bisection_steps={BISECTION_STEPS}"
    return (f"eigensolver=jacobi-cyclic;jacobi_tol={JACOBI_TOL:g};"
            f"jacobi_max_sweeps={JACOBI_MAX_SWEEPS}")


# a nonzero row of the rescaled M must reach this: below it, its Gram entries
# (of the order of its square) near float64's underflow at 2^-1022
_GRAM_ROW_MIN = 2.0**-480


def row_block_solver(m: DenseMatrix) -> BlockSolver:
    """The singular values of M's k x cols row blocks A = M[S, :]: as
    A A* = gram(M)[S, S], the roots of the min(k, cols) largest eigenvalues
    of gram(M)'s principal blocks.  An M whose largest entry lies outside
    [1e-100, 1e100] is first divided by a power of two near it, which is
    exact; one Gram matrix cannot hold rows far below that scale, so a
    nonzero row still below _GRAM_ROW_MIN raises ValueError."""
    rowmax = np.abs(m.data).max(axis=1)
    amax = rowmax.max()
    # 2^(e - 1) <= amax < 2^e; 2^e itself overflows for the largest floats
    power = 2.0 ** (math.frexp(amax)[1] - 1) if _rescale_factors(amax) != 1.0 else 1.0
    if np.any((rowmax > 0) & (rowmax / power < _GRAM_ROW_MIN)):
        raise ValueError("a nonzero row is too small for singular mode: its largest entry "
                         "is below 2^-480 after rescaling")
    blocks = principal_block_solver(gram(DenseMatrix(m.data / power) if power != 1.0 else m))
    scale = amax / power

    def solve(idx: np.ndarray) -> np.ndarray:
        # roots of the Gram eigenvalues: negatives count as 0, and below
        # -1e-9 times the square of the rescaled largest entry they raise
        vals = blocks.solve(idx)[:, max(0, idx.shape[1] - m.cols):]
        if np.any(vals < -1e-9 * scale * scale):
            raise ValueError("Gram spectrum has a negative eigenvalue beyond tolerance")
        vals[vals < 0] = 0.0
        return np.sqrt(vals) * power
    return blocks._replace(solve=solve)


def _diagonal_eigenvalues(d: np.ndarray) -> np.ndarray:
    """`_jacobi` of the diagonal matrices with the rows of a (B, k) array on
    their diagonals, bit for bit.  Such a matrix has no off-diagonal mass
    after its rescale, so Jacobi returns it at sweep 0 as its sorted
    rescaled diagonal times the rescale factor; the same sort of the same
    row also orders signed zeros alike."""
    rescale = _rescale_factors(np.abs(d).max(axis=1))[:, None]
    return np.sort(d / rescale, axis=1) * rescale


# A + A* stays finite while every entry is below 2^1023; at or above it the
# halves are added instead
_HALVE_FIRST = 2.0**1023


def _hermitized(stack: np.ndarray) -> np.ndarray:
    """(A + A*) / 2 of every matrix of a guarded (B, k, k) stack, as a fresh
    stack; this removes the asymmetry of up to 1e-10 * scale that the
    guard allows."""
    adj = stack.conj().transpose(0, 2, 1)
    big = np.abs(stack).max(axis=(1, 2)) >= _HALVE_FIRST
    if not big.any():
        return 0.5 * (stack + adj)
    h = np.empty(stack.shape, dtype=np.result_type(stack.dtype, np.float64))
    h[~big] = 0.5 * (stack[~big] + adj[~big])
    h[big] = 0.5 * stack[big] + 0.5 * adj[big]
    return h


def eigenvalues_hermitian_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a (B, k, k) stack of Hermitian
    matrices: a (B, k) array with one ascending row per matrix.

    Each row is bit-identical to `eigenvalues_hermitian` of that matrix
    alone, whatever else the stack holds.  The stack is not modified.
    """
    _require_hermitian_stack(stack)
    h = _hermitized(stack)
    if np.iscomplexobj(h):
        # the real part is exactly symmetric and the imaginary part exactly
        # antisymmetric, as the embedding needs
        embedded = np.block([[h.real, -h.imag], [h.imag, h.real]])
        doubled = _symmetric_eigenvalues(embedded)
        # every eigenvalue appears exactly twice; average adjacent pairs,
        # halving first where their sum would overflow
        lo, hi = doubled[:, 0::2], doubled[:, 1::2]
        with np.errstate(over="ignore"):
            mean = 0.5 * (lo + hi)
        big = np.maximum(np.abs(lo), np.abs(hi)) >= _HALVE_FIRST
        return np.where(big, 0.5 * lo + 0.5 * hi, mean)
    return _symmetric_eigenvalues(h)


def eigenvalues_hermitian(m: DenseMatrix) -> Spectrum:
    """All eigenvalues of a Hermitian matrix, repeated by multiplicity, ascending."""
    return Spectrum(eigenvalues_hermitian_stack(m.data[None])[0])


def gram(a: DenseMatrix) -> DenseMatrix:
    """A times its conjugate transpose; Hermitian positive semidefinite."""
    g = a.data @ a.data.conj().T
    bits = g.view(np.int64)
    # (g + g*) / 2 is exactly Hermitian against rounding in the product.  A
    # real product equal to its transpose bit for bit (numpy hands a @ a.T to
    # a symmetric kernel) is kept: the sum would be 2g, exactly g once halved,
    # and forming it would take a second matrix of G's size
    if a.is_complex or not np.array_equal(bits, bits.T):
        g = g + g.conj().T
        g *= 0.5  # in place, so that DenseMatrix adopts it uncopied
    g.setflags(write=False)
    return DenseMatrix(g)


def singular_values(a: DenseMatrix) -> Spectrum:
    """Singular values of A, ascending: `row_block_solver` of A, or of A* if
    that has fewer rows, on its one block of all rows.  A nonzero row of
    that side too small for one Gram matrix raises ValueError."""
    side = a if a.rows <= a.cols else DenseMatrix(a.data.conj().T)
    return Spectrum(row_block_solver(side).solve(np.arange(side.rows)[None])[0])


def numerical_rank(a: DenseMatrix, rel_tol: float) -> int:
    """Number of singular values above rel_tol * max(rows, cols) * sigma_max.
    A zero matrix has rank 0."""
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    sv = singular_values(a).values
    return int(np.count_nonzero(sv > rel_tol * max(a.rows, a.cols) * sv[-1]))


@lru_cache(maxsize=128)
def _rotation_rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin schedule: n-1 rounds of disjoint pivot pairs covering all C(n,2).

    Round r pairs seat i with seat m-1-i of [0] + roll([1 .. m-1], r), where
    m is n rounded up to even; for odd n the extra player n sits out."""
    m = n + n % 2
    seats = np.zeros((m - 1, m), dtype=np.intp)
    seats[:, 1:] = 1 + (np.arange(m - 1) - np.arange(m - 1)[:, None]) % (m - 1)
    pairs = np.sort(np.stack([seats[:, :m // 2], seats[:, :m // 2 - 1:-1]]), axis=0)
    kept = pairs[:, pairs[1] < n].reshape(2, m - 1, -1)
    kept.setflags(write=False)
    return tuple(zip(*kept))


def _rescale_factors(amax: np.ndarray) -> np.ndarray:
    """Per-matrix divisor from its largest absolute entry: that entry when it
    lies outside [1e-100, 1e100] (and is not 0), else 1.0."""
    return np.where((amax > 1e100) | ((0.0 < amax) & (amax < 1e-100)), amax, 1.0)


def _off_norms(flat: np.ndarray, n: int) -> np.ndarray:
    """Off-diagonal Frobenius norm of each row of a (B, n*n) array (or view)
    of flattened n x n matrices; the squares are laid out row by row, so each
    sum adds in the order `np.sum` adds that matrix alone."""
    squares = np.multiply(flat, flat, order="C")
    squares[:, ::n + 1] = 0.0
    return np.sqrt(np.sum(squares, axis=1))


def _rotations(apq: np.ndarray, app: np.ndarray, aqq: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of the Jacobi rotation that zeroes each pivot apq
    between diagonal entries app and aqq, element by element."""
    diff = aqq - app
    tiny_pivot = np.abs(apq) < np.abs(diff) * 1e-36
    theta = diff / (2.0 * apq)
    t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    t = np.where(theta == 0.0, 1.0, t)
    t = np.where(tiny_pivot, apq / diff, t)
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c


def _sweep_row_major(a: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """One sweep of rotation rounds over a (B, n, n) stack, in place, with
    the pivots above each matrix's threshold gathered as (matrix, pair)
    cells; returns the off-diagonal norms after it."""
    count, n = a.shape[:2]
    for p_all, q_all in _rotation_rounds(n):
        apq = a[:, p_all, q_all]
        hit, pair = np.nonzero(np.abs(apq) > threshold[:, None])
        if hit.size == 0:
            continue
        p, q = p_all[pair], q_all[pair]
        c, s = _rotations(apq[hit, pair], a[hit, p, p], a[hit, q, q])
        cs, ss = c[:, None], s[:, None]
        col_p, col_q = a[hit, :, p], a[hit, :, q]
        a[hit, :, p] = cs * col_p - ss * col_q
        a[hit, :, q] = ss * col_p + cs * col_q
        row_p, row_q = a[hit, p, :], a[hit, q, :]
        a[hit, p, :] = cs * row_p - ss * row_q
        a[hit, q, :] = ss * row_p + cs * row_q
        a[hit, p, q] = 0.0
        a[hit, q, p] = 0.0
    return _off_norms(a.reshape(count, n * n), n)


def _rotate(a: np.ndarray, p: np.ndarray, q: np.ndarray, axis: int, c: np.ndarray,
            s: np.ndarray, miss: np.ndarray | None, work: tuple[np.ndarray, ...]) -> None:
    """Rotate the rows (axis 0) or columns (axis 1) p and q of an (n, n, B)
    stack in place, to c x_p - s x_q and s x_p + c x_q, except where `miss`
    holds.  `work` holds five arrays of the shape of the rotated rows."""
    x_p, x_q, new_p, new_q, tmp = work
    np.take(a, p, axis=axis, out=x_p, mode="wrap")  # "wrap" needs no copy; p is in range
    np.take(a, q, axis=axis, out=x_q, mode="wrap")
    np.multiply(c, x_p, out=new_p)
    new_p -= np.multiply(s, x_q, out=tmp)
    np.multiply(s, x_p, out=new_q)
    new_q += np.multiply(c, x_q, out=tmp)
    if miss is not None:
        np.copyto(new_p, x_p, where=miss)
        np.copyto(new_q, x_q, where=miss)
    index = (slice(None),) * axis
    a[index + (p,)] = new_p
    a[index + (q,)] = new_q


def _sweep_batch_last(a: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """`_sweep_row_major` of an (n, n, B) stack.  A pair rotates in every
    matrix where any of its pivots is above threshold; a mask keeps the
    others' entries (a rotation by c = 1, s = 0 could flip signed zeros)."""
    n, _, count = a.shape
    # allocated once: freeing and allocating arrays of this size every
    # round can make the allocator hand their pages back and fault them in
    work = np.empty((5, n * (n // 2) * count))
    views = {}  # pair count -> `_rotate`'s work arrays for columns and for rows
    for p, q in _rotation_rounds(n):
        apq = a[p, q]
        hit = np.abs(apq) > threshold
        pairs = hit.any(axis=1)
        if not pairs.all():
            if not pairs.any():
                continue
            p, q, apq, hit = p[pairs], q[pairs], apq[pairs], hit[pairs]
        if len(p) not in views:
            views[len(p)] = [tuple(w[:n * len(p) * count].reshape(shape) for w in work)
                             for shape in ((n, len(p), count), (len(p), n, count))]
        cols, rows = views[len(p)]
        c, s = _rotations(apq, a[p, p], a[q, q])
        miss = None if hit.all() else ~hit
        _rotate(a, p, q, 1, c, s, miss, cols)
        miss = None if miss is None else miss[:, None]
        _rotate(a, p, q, 0, c[:, None], s[:, None], miss, rows)
        a[p, q] = np.where(hit, 0.0, a[p, q])
        a[q, p] = np.where(hit, 0.0, a[q, p])
    return _off_norms(a.reshape(n * n, -1).T, n)


def _symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a (B, n, n) stack of real symmetric
    matrices, by Jacobi below order `_BISECTION_MIN_ORDER` and Householder +
    bisection from it on: a (B, n) array, rows ascending.  A float64 `a` is
    overwritten: callers pass a stack they just built.  A worker's
    RuntimeError is raised here with its message."""
    a = np.asarray(a, dtype=np.float64)
    count, n = a.shape[:2]
    # one process per _PART_MIN_WORK of the stack's work, at most one per row
    # and per CPU this process may use; 1 when the work pays for fewer than 2
    parts = min(count, count * n**3 // _PART_MIN_WORK)
    parts = min(parts, _fork_cpus()) if parts >= 2 else 1
    bounds = [count * i // parts for i in range(parts + 1)]
    def solve(part: np.ndarray) -> np.ndarray:  # by the method the order favours
        if n >= _BISECTION_MIN_ORDER:
            rescale = _rescale_factors(np.abs(part).max(axis=(1, 2)))[:, None]
            part /= rescale[:, :, None]
            with np.errstate(over="ignore"):  # an eigenvalue past the float range is inf
                return _bisection(*_tridiagonal(part)) * rescale
        return _jacobi(part, batch_last=len(part) * n >= _BATCH_LAST_MIN_SIZE)
    out = np.empty((count, n))
    with forked([(partial(solve, a[start:stop]), out[start:stop])
                 for start, stop in zip(bounds[1:-1], bounds[2:])]) as join:
        out[:bounds[1]] = solve(a[:bounds[1]])
        join()
    return out


@contextmanager
def forked(jobs: Sequence[tuple[Callable[[], np.ndarray], np.ndarray]]
           ) -> Iterator[Callable[[], None]]:
    """Run each job of the (job, out) pairs in its own forked worker while
    the body of the `with` runs.  A worker sends b"0" and the bytes of its
    float64 result through a pipe, or b"1" and the message of a RuntimeError
    it raised.  The function this yields reads every worker's result into
    its `out`, in place, and raises a worker's RuntimeError with its message.
    On leaving, however the body exits, every worker is killed and reaped."""
    pids, readers = [], []
    try:
        for job, _ in jobs:
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb", buffering=0))
            with open(write_fd, "wb") as sink:
                if (pid := os.fork()) == 0:
                    # a worker ends in os._exit, which flushes no inherited stdio
                    try:
                        try:
                            sink.write(b"0" + np.asarray(job(), dtype=np.float64).tobytes())
                        except RuntimeError as exc:
                            sink.write(b"1" + str(exc).encode())
                        sink.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)  # any other failure: the parent finds a short result
            pids.append(pid)

        def join() -> None:
            for reader, (_, out) in zip(readers, jobs):
                # to EOF before reaping: a worker waits while its result fills the pipe
                status, result = (data := reader.read())[:1], data[1:]
                if status != b"0" or len(result) != out.nbytes:
                    raise RuntimeError(result.decode() if status == b"1" else
                                       "worker returned no result")
                out[...] = np.frombuffer(result).reshape(out.shape)
        yield join
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL (no `signal` import); a worker that sent a result has exited
            os.waitpid(pid, 0)


def _fork_cpus() -> int:
    """The CPUs this process may use, or 1 if it must not fork: it has no
    `os.fork` or runs a second OS thread, whose locks a child could inherit."""
    try:
        alone = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
        return len(os.sched_getaffinity(0)) if alone else 1
    except (AttributeError, OSError):
        return 1


def _jacobi(a: np.ndarray, batch_last: bool) -> np.ndarray:
    """Eigenvalues of a float64 stack by blocked cyclic Jacobi, swept as it
    is or on its (n, n, B) transpose; a matrix leaves the stack at the sweep
    where it converges."""
    count, n = a.shape[:2]
    if n == 1 or not count:
        return a.reshape(count, n)

    rescale = _rescale_factors(np.abs(a).max(axis=(1, 2)))
    if np.any(rescale != 1.0):
        a /= rescale[:, None, None]

    flat = a.reshape(count, n * n)
    target = JACOBI_TOL * np.sqrt(np.sum(flat * flat, axis=1))
    off = _off_norms(flat, n)
    a = np.ascontiguousarray(a.transpose(1, 2, 0)) if batch_last else a
    # the axis of the matrices, the first of their rows and columns
    batch, rows, sweep = (2, 0, _sweep_batch_last) if batch_last else (0, 1, _sweep_row_major)
    out = np.empty((count, n), dtype=np.float64)
    active = np.arange(count)  # row of `out` for each matrix of `a`
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            done = off <= target
            if done.any():
                diagonal = a.diagonal(axis1=rows, axis2=rows + 1)  # (B, n)
                out[active[done]] = np.sort(diagonal[done], axis=1) * rescale[done, None]
                keep = ~done
                if not keep.any():
                    return out
                a = a.compress(keep, axis=batch)
                active, rescale, target, off = active[keep], rescale[keep], target[keep], off[keep]
            off = sweep(a, target / n)
    raise RuntimeError("eigensolver did not converge")


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals (B, n) and off-diagonals (B, n - 1) of tridiagonal
    matrices similar to a (B, n, n) symmetric stack, which is overwritten:
    step j reflects row j right of the diagonal, x, by I - w w^T, w = (x +
    sign(x_0) |x| e_1) / sqrt(|x| (|x| + |x_0|)), unless |x| < 2^-500."""
    for j in range(a.shape[1] - 2):
        x = a[:, j, j + 1:]
        norm = np.sqrt(np.sum(x * x, axis=1))
        w, alpha = x.copy(), np.copysign(norm, x[:, 0])
        w[:, 0] += alpha
        h = np.sqrt(norm * (norm + np.abs(x[:, 0])))
        w *= np.divide(1.0, h, out=np.zeros_like(h), where=norm >= 2.0**-500)[:, None]
        rest = a[:, j + 1:, j + 1:]
        p = np.sum(rest * w[:, None, :], axis=2)
        q = p - (0.5 * np.sum(w * p, axis=1))[:, None] * w
        rest -= w[:, :, None] * q[:, None, :] + q[:, :, None] * w[:, None, :]
        x[:, 0] = -alpha
    return a.diagonal(axis1=1, axis2=2), a.diagonal(1, axis1=1, axis2=2)


def _bisection(d: np.ndarray, e: np.ndarray) -> np.ndarray:
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
