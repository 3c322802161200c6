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
differences are ranked all at once (`numerical_rank_stack`).  Callers
bound memory by the stack they pass: the solver's working set is a few
copies of it (`sampling.solve_stacks` gathers submatrices in stacks of
at most `sampling.STACK_BYTES`).  A real matrix equal to its transpose
bit for bit is solved as a copy, since symmetrizing would give it back
unchanged; any other is symmetrized after the Hermitian guard.

Complex Hermitian matrices X + iY are reduced to the real symmetric
doubling [[X, -Y], [Y, X]], whose spectrum is the original spectrum with
every multiplicity doubled; the halved multiset is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    frozen, so values may be shared freely across threads.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix data must be 2-D and non-empty")
        if np.iscomplexobj(arr):
            arr = np.array(arr, dtype=np.complex128, order="C")
        else:
            arr = np.array(arr, dtype=np.float64, order="C")
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

    @property
    def entries(self) -> np.ndarray:
        """Row-major flat view of real64 values, re/im interleaved if complex."""
        if self.is_complex:
            return self.data.view(np.float64).ravel()
        return self.data.ravel()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

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

    @property
    def count(self) -> int:
        return int(self.values.size)


def is_hermitian(m: DenseMatrix, tol: float) -> bool:
    """True iff max |M[i,j] - conj(M[j,i])| <= tol.  Raises on non-square input."""
    return float(_hermitian_gaps(m.data[None])[0]) <= tol


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


def _require_hermitian_stack(stack: np.ndarray) -> np.ndarray:
    """`require_hermitian` for every matrix of a (B, k, k) stack, each
    against its own largest entry.

    Returns which matrices are float64 and equal to their transpose bit
    for bit.  Those pass without a subtraction; only the others pay for
    their gaps and largest entries.
    """
    if stack.shape[1] != stack.shape[2]:
        raise ValueError("not square")
    if stack.dtype == np.float64:
        bits = stack.view(np.int64)
        exact = (bits == bits.transpose(0, 2, 1)).all(axis=(1, 2))
    else:
        exact = np.zeros(stack.shape[0], dtype=bool)
    rest = stack if not exact.any() else stack[~exact]
    if rest.shape[0]:
        gaps = _hermitian_gaps(rest)
        scale = np.abs(rest).max(axis=(1, 2))
        if np.any(gaps > 1e-10 * np.where(scale > 0, scale, 1.0)):
            raise ValueError("not Hermitian")
    return exact


# A + A* stays finite while every entry is below 2^1023; at or above it the
# halves are added instead
_HALVE_FIRST = 2.0**1023


def _hermitized(stack: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """(A + A*) / 2 of every matrix of a guarded (B, k, k) stack, as a fresh
    stack.  A matrix marked exact already equals it bit for bit and is
    copied; the others are symmetrized, which also removes the asymmetry
    of up to 1e-10 * scale that the guard allows."""
    h = stack.astype(np.result_type(stack.dtype, np.float64))
    rows = np.flatnonzero(~exact)
    if rows.size:
        a = h[rows]
        adj = a.conj().transpose(0, 2, 1)
        big = np.abs(a).max(axis=(1, 2)) >= _HALVE_FIRST
        h[rows[~big]] = 0.5 * (a[~big] + adj[~big])
        h[rows[big]] = 0.5 * a[big] + 0.5 * adj[big]
    return h


def eigenvalues_hermitian_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a (B, k, k) stack of Hermitian
    matrices: a (B, k) array with one ascending row per matrix.

    Each row is bit-identical to `eigenvalues_hermitian` of that matrix
    alone, whatever else the stack holds.  The stack is not modified.
    """
    h = _hermitized(stack, _require_hermitian_stack(stack))
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
    g = _gram_stack(work)
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    vals = eigenvalues_hermitian_stack(g)
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
    """Round-robin schedule: n-1 rounds of disjoint pivot pairs covering all C(n,2)."""
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        p_arr = np.array(ps, dtype=np.intp)
        q_arr = np.array(qs, dtype=np.intp)
        p_arr.setflags(write=False)
        q_arr.setflags(write=False)
        rounds.append((p_arr, q_arr))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


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
