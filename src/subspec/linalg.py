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
copies of it (`sampling.solve_subsets` gathers submatrices in stacks of
at most `sampling.STACK_BYTES`).

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


def _require_hermitian_stack(stack: np.ndarray) -> None:
    """`require_hermitian` for every matrix of a (B, k, k) stack, each
    against its own largest entry."""
    gaps = _hermitian_gaps(stack)
    scale = np.abs(stack).max(axis=(1, 2))
    if np.any(gaps > 1e-10 * np.where(scale > 0, scale, 1.0)):
        raise ValueError("not Hermitian")


def eigenvalues_hermitian_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a (B, k, k) stack of Hermitian
    matrices: a (B, k) array with one ascending row per matrix.

    Each row is bit-identical to `eigenvalues_hermitian` of that matrix
    alone, whatever else the stack holds.
    """
    _require_hermitian_stack(stack)
    if np.iscomplexobj(stack):
        # Hermitize away the <= 1e-10*scale asymmetry allowed by the guard, so
        # the real part is exactly symmetric and the imaginary part exactly
        # antisymmetric before embedding
        h = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
        embedded = np.block([[h.real, -h.imag], [h.imag, h.real]])
        doubled = _symmetric_eigenvalues(embedded)
        # every eigenvalue appears exactly twice; average adjacent pairs
        return 0.5 * (doubled[:, 0::2] + doubled[:, 1::2])
    # symmetrize away the <= 1e-10*scale asymmetry allowed by the guard
    return _symmetric_eigenvalues(0.5 * (stack + stack.transpose(0, 2, 1)))


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
    spectrum of the smaller Gram matrix."""
    work = stack if stack.shape[1] <= stack.shape[2] else \
        np.ascontiguousarray(stack.conj().transpose(0, 2, 1))
    g = _gram_stack(work)
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    vals = eigenvalues_hermitian_stack(g)
    scale = np.abs(stack).max(axis=(1, 2))
    clamp = 1e-9 * scale * scale
    if np.any(vals < -clamp[:, None]):
        raise ValueError("Gram spectrum has a negative eigenvalue beyond tolerance")
    vals[vals < 0] = 0.0
    return np.sqrt(vals)


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


def _frobenius_norms(a: np.ndarray, off_diagonal: bool = False) -> np.ndarray:
    """Per-matrix Frobenius norm of a (B, n, n) stack, or of its
    off-diagonal part; each sum of squares adds a matrix's n^2 entries in
    the order `np.sum` adds them for that matrix alone."""
    squares = a * a
    if off_diagonal:
        diag = np.arange(a.shape[1])
        squares[:, diag, diag] = 0.0
    return np.sqrt(np.sum(squares.reshape(a.shape[0], -1), axis=1))


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

    amax = np.abs(a).max(axis=(1, 2))
    rescale = np.where((amax > 1e100) | ((0.0 < amax) & (amax < 1e-100)), amax, 1.0)
    a /= rescale[:, None, None]

    out = np.empty(a.shape[:2], dtype=np.float64)
    active = np.arange(a.shape[0])  # row of `out` for each matrix of `a`
    target = JACOBI_TOL * _frobenius_norms(a)
    rounds = _rotation_rounds(n)
    adaptive = n >= _ADAPTIVE_MIN_ORDER
    diag = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            off = _frobenius_norms(a, off_diagonal=True)
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
    raise RuntimeError("eigensolver did not converge")
