"""Dense matrix storage and from-scratch symmetric spectral decompositions.

The eigensolver is a cyclic Jacobi iteration over round-robin rotation
rounds (Brent & Luk 1985).  Within a round the pivot pairs are disjoint,
so the rotations commute and can be applied as one vectorized block; the
result is exactly the sequential cyclic sweep, just faster.  Convergence
is declared when the off-diagonal Frobenius norm (summed directly over
off-diagonal entries, never by subtracting the diagonal from the total,
which loses all precision to cancellation) drops below 1e-12 times the
Frobenius norm of the input.

The solver works on a (B, k, k) stack of same-order matrices, one round
for all of them at once.  Each matrix keeps its own rescale, tolerance,
pivot mask and convergence test, so its eigenvalues are bit-identical to
a solve of it alone; a single matrix is a stack of one.  Singular values
and numerical ranks go through the same stacks, so the walk's one-step
differences are ranked all at once (`numerical_rank_stack`).

`gather_submatrices` is the one submatrix extraction of the package: it
turns rows of 0-based indices into a (B, k, cols) stack with a single
`np.take`.  How a matrix's principal blocks are solved is decided once
per matrix, by `principal_block_solver`:

- a real diagonal M (off-diagonal zeros of either sign): every block is
  diagonal, which the solver returns at sweep 0, so its eigenvalues come
  from its k diagonal entries alone and no k x k block is built;
- any other real M equal to its transpose bit for bit: every block is
  exactly symmetric too and is solved as gathered;
- any other Hermitian M: every block is guarded at its own scale and
  symmetrized first.

The `BlockSolver` it returns takes index rows and states the bytes one
row reads (k x k entries, or k diagonal ones), so callers bound memory by
the rows they pass (`sampling.solve_stacks` keeps each stack within
`sampling.STACK_BYTES`): the solver's working set is a few copies of it.

Complex Hermitian matrices X + iY are reduced to the real symmetric
doubling [[X, -Y], [Y, X]], whose spectrum is the original spectrum with
every multiplicity doubled; the halved multiset is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# beyond this order adaptive pivot skipping wins over plain full sweeps
_ADAPTIVE_MIN_ORDER = 257


@dataclass(frozen=True)
class DenseMatrix:
    """Rectangular real or complex matrix with finite float64 entries.

    `data` is a 2-D C-ordered numpy array, float64 for real matrices and
    complex128 for complex ones.  The array is copied on construction and
    frozen, so values may be shared freely across threads.  An array that
    is already read-only, of that dtype, C-ordered and the owner of its data
    is adopted without a copy: whoever hands it over gives up writing to it.
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


def require_hermitian(m: DenseMatrix) -> None:
    """Raise ValueError("not Hermitian") unless M is Hermitian to within
    1e-10 times its largest entry (or 1e-10 for the zero matrix)."""
    _require_hermitian_stack(m.data[None])


def _require_hermitian_stack(stack: np.ndarray) -> None:
    """`require_hermitian` for every matrix of a (B, k, k) stack, each
    against its own largest entry."""
    gaps = _hermitian_gaps(stack)
    scale = np.abs(stack).max(axis=(1, 2))
    if np.any(gaps > 1e-10 * np.where(scale > 0, scale, 1.0)):
        raise ValueError("not Hermitian")


def gather_submatrices(m: DenseMatrix, idx: np.ndarray, mode: str) -> np.ndarray:
    """The submatrices of m at the 0-based index rows of a (B, k) array, as
    a fresh (B, k, cols) stack: principal k x k blocks in eigen mode, k x n
    row blocks in singular mode.  Rows keep the order of their indices."""
    if mode == "eigen":
        # one gather from the flat matrix, with no k x n intermediate
        return np.take(m.data.reshape(-1), idx[:, :, None] * m.cols + idx[:, None, :])
    if mode == "singular":
        return np.take(m.data, idx, axis=0)
    raise ValueError(f"unknown mode {mode!r}; expected 'eigen' or 'singular'")


class BlockSolver(NamedTuple):
    """The spectra of one matrix's blocks: `solve` maps a (B, k) array of
    0-based index rows to a (B, width) array, one ascending row per block,
    and `row_bytes(k)` is what it reads for one row of k indices.  `path`
    names the way the blocks are solved."""

    path: str
    solve: Callable[[np.ndarray], np.ndarray]
    row_bytes: Callable[[int], int]


def principal_block_solver(m: DenseMatrix) -> BlockSolver:
    """Check that M is square and Hermitian, then return the eigensolver for
    its principal blocks.  A real diagonal M's blocks are solved from their
    diagonal entries alone; those of another real M equal to its transpose
    bit for bit are exactly symmetric too and go to the bare Jacobi solver
    as gathered; any other M's go through `eigenvalues_hermitian_stack`,
    each guarded at its own scale."""
    if not m.is_square():
        raise ValueError("not square")
    symmetric = False
    if not m.is_complex:
        diagonal = m.data.diagonal()
        # -0.0 counts as zero, and a diagonal M is symmetric: test it first
        if np.count_nonzero(m.data) == np.count_nonzero(diagonal):
            return BlockSolver("diagonal", lambda idx: _diagonal_eigenvalues(diagonal[idx]),
                               lambda k: k * diagonal.itemsize)
        bits = m.data.view(np.int64)
        symmetric = np.array_equal(bits, bits.T)
    if not symmetric:
        require_hermitian(m)
    solve = _symmetric_eigenvalues if symmetric else eigenvalues_hermitian_stack
    return BlockSolver("symmetric" if symmetric else "hermitian",
                       lambda idx: solve(gather_submatrices(m, idx, "eigen")),
                       lambda k: k * k * m.data.itemsize)


def row_block_solver(m: DenseMatrix) -> BlockSolver:
    """The singular values of M's k x cols row blocks, from their Gram
    spectra (`singular_values_stack`)."""
    return BlockSolver(
        "gram", lambda idx: singular_values_stack(gather_submatrices(m, idx, "singular")),
        lambda k: k * m.cols * m.data.itemsize)


def _diagonal_eigenvalues(d: np.ndarray) -> np.ndarray:
    """`_symmetric_eigenvalues` of the diagonal matrices with the rows of a
    (B, k) array on their diagonals, bit for bit.  Such a matrix has no
    off-diagonal mass after its rescale, so the solver returns it at sweep
    0 as its sorted rescaled diagonal times the rescale factor; the same
    sort of the same row also orders signed zeros alike."""
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
    return _guarded_eigenvalues(stack)


def _guarded_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """`eigenvalues_hermitian_stack` of a stack that needs no guard."""
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
    return DenseMatrix(_gram_stack(a.data[None])[0])


def _gram_stack(stack: np.ndarray) -> np.ndarray:
    g = stack @ stack.conj().transpose(0, 2, 1)
    # enforce exact Hermitian symmetry against rounding in the product
    return 0.5 * (g + g.conj().transpose(0, 2, 1))


def singular_values_stack(stack: np.ndarray) -> np.ndarray:
    """Singular values of every matrix of a (B, r, c) stack: a (B, min(r, c))
    array with one ascending row per matrix, the square roots of the
    spectrum of the smaller Gram matrix.

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
    # g is Hermitian up to rounding in the product: no guard, and the
    # solver's one symmetrization removes that rounding
    vals = _guarded_eigenvalues(g)
    scale = amax / rescale
    clamp = 1e-9 * scale * scale
    if np.any(vals < -clamp[:, None]):
        raise ValueError("Gram spectrum has a negative eigenvalue beyond tolerance")
    vals[vals < 0] = 0.0
    return np.sqrt(vals) * rescale[:, None]


def singular_values(a: DenseMatrix) -> Spectrum:
    """Singular values of A, ascending: square roots of the Gram spectrum."""
    return Spectrum(singular_values_stack(a.data[None])[0])


def numerical_rank_stack(stack: np.ndarray, rel_tol: float) -> np.ndarray:
    """Numerical rank of every matrix of a (B, r, c) stack: the number of its
    singular values above rel_tol * max(r, c) * sigma_max.  A zero matrix
    has rank 0."""
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    sv = singular_values_stack(stack)
    threshold = rel_tol * max(stack.shape[1:]) * sv[:, -1]
    return np.count_nonzero(sv > threshold[:, None], axis=1)


def numerical_rank(a: DenseMatrix, rel_tol: float) -> int:
    """Number of singular values above rel_tol * max(rows, cols) * sigma_max."""
    return int(numerical_rank_stack(a.data[None], rel_tol)[0])


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


def _root_sums(squares: np.ndarray) -> np.ndarray:
    """Square root of the sum of each matrix of a (B, n, n) stack of
    squares; each sum adds a matrix's n^2 entries in the order `np.sum`
    adds them for that matrix alone."""
    return np.sqrt(np.sum(squares.reshape(squares.shape[0], -1), axis=1))


def _symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a (B, n, n) stack of real symmetric
    matrices by blocked cyclic Jacobi: a (B, n) array, rows ascending.

    Each matrix keeps its own rescale, tolerance, pivot threshold and
    convergence test, and leaves the active stack at the sweep where it
    converges; a rotation reads and writes only its own matrix.  So a
    matrix's eigenvalues do not depend on its batch-mates.

    A float64 `a` is overwritten: callers pass a stack they just built,
    so the solver needs no copy of it.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[1]
    if n == 1:
        return a.reshape(a.shape[0], 1)

    rescale = _rescale_factors(np.abs(a).max(axis=(1, 2)))
    if np.any(rescale != 1.0):
        a /= rescale[:, None, None]

    out = np.empty(a.shape[:2], dtype=np.float64)
    active = np.arange(a.shape[0])  # row of `out` for each matrix of `a`
    diag = np.arange(n)
    # the first off-diagonal norm reuses the squares of the input norm
    squares = a * a
    target = JACOBI_TOL * _root_sums(squares)
    squares[:, diag, diag] = 0.0
    off = _root_sums(squares)
    del squares
    rounds = _rotation_rounds(n)
    adaptive = n >= _ADAPTIVE_MIN_ORDER
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            done = off <= target
            if done.any():
                eigenvalues = np.sort(a[:, diag, diag][done], axis=1)
                out[active[done]] = eigenvalues * rescale[done, None]
                keep = ~done
                if not keep.any():
                    return out
                a, active, rescale, target, off = (
                    a[keep], active[keep], rescale[keep], target[keep], off[keep])
            threshold = (off if adaptive else target) / n
            for p_all, q_all in rounds:
                apq = a[:, p_all, q_all]
                hit, pair = np.nonzero(np.abs(apq) > threshold[:, None])
                if hit.size == 0:
                    continue
                p = p_all[pair]
                q = q_all[pair]
                apq = apq[hit, pair]
                app = a[hit, p, p]
                aqq = a[hit, q, q]
                diff = aqq - app
                tiny_pivot = np.abs(apq) < np.abs(diff) * 1e-36
                theta = diff / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(theta == 0.0, 1.0, t)
                t = np.where(tiny_pivot, apq / diff, t)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cs = c[:, None]
                ss = s[:, None]
                col_p = a[hit, :, p]
                col_q = a[hit, :, q]
                a[hit, :, p] = cs * col_p - ss * col_q
                a[hit, :, q] = ss * col_p + cs * col_q
                row_p = a[hit, p, :]
                row_q = a[hit, q, :]
                a[hit, p, :] = cs * row_p - ss * row_q
                a[hit, q, :] = ss * row_p + cs * row_q
                a[hit, p, q] = 0.0
                a[hit, q, p] = 0.0
            squares = a * a
            squares[:, diag, diag] = 0.0
            off = _root_sums(squares)
    raise RuntimeError("eigensolver did not converge")
