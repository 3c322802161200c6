"""Dense matrix storage and from-scratch symmetric spectral decompositions.

The eigensolver is a cyclic Jacobi iteration over round-robin rotation
rounds.  Within a round the pivot pairs are disjoint, so the rotations
commute and can be applied as one vectorized block; the result is exactly
the sequential cyclic sweep, just faster.  Convergence is declared when
the off-diagonal Frobenius norm (summed directly over off-diagonal
entries, never by subtracting the diagonal from the total, which loses
all precision to cancellation) drops below 1e-12 times the Frobenius
norm of the input.

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
    if not m.is_square():
        raise ValueError("not square")
    diff = m.data - m.data.conj().T
    return float(np.max(np.abs(diff))) <= tol


def require_hermitian(m: DenseMatrix) -> None:
    """Raise ValueError("not Hermitian") unless M is Hermitian to within
    1e-10 times its largest entry (or 1e-10 for the zero matrix)."""
    scale = m.max_abs()
    if not is_hermitian(m, 1e-10 * (scale if scale > 0 else 1.0)):
        raise ValueError("not Hermitian")


def eigenvalues_hermitian(m: DenseMatrix) -> Spectrum:
    """All eigenvalues of a Hermitian matrix, repeated by multiplicity, ascending."""
    require_hermitian(m)
    if m.is_complex:
        # Hermitize away the <= 1e-10*scale asymmetry allowed by the guard, so
        # the real part is exactly symmetric and the imaginary part exactly
        # antisymmetric before embedding
        h = 0.5 * (m.data + m.data.conj().T)
        embedded = np.block([[h.real, -h.imag], [h.imag, h.real]])
        doubled = _symmetric_eigenvalues(embedded)
        # every eigenvalue appears exactly twice; average adjacent pairs
        vals = 0.5 * (doubled[0::2] + doubled[1::2])
    else:
        # symmetrize away the <= 1e-10*scale asymmetry allowed by the guard
        sym = 0.5 * (m.data + m.data.T)
        vals = _symmetric_eigenvalues(sym)
    return Spectrum(vals)


def gram(a: DenseMatrix) -> DenseMatrix:
    """A times its conjugate transpose; Hermitian positive semidefinite."""
    g = a.data @ a.data.conj().T
    # enforce exact Hermitian symmetry against rounding in the product
    g = 0.5 * (g + g.conj().T)
    return DenseMatrix(g)


def singular_values(a: DenseMatrix) -> Spectrum:
    """Singular values of A, ascending: square roots of the Gram spectrum."""
    work = a if a.rows <= a.cols else DenseMatrix(a.data.conj().T)
    ev = eigenvalues_hermitian(gram(work)).values
    scale = a.max_abs()
    clamp = 1e-9 * scale * scale
    vals = ev.copy()
    negative = vals < 0
    if np.any(vals[negative] < -clamp):
        raise ValueError("Gram spectrum has a negative eigenvalue beyond tolerance")
    vals[negative] = 0.0
    return Spectrum(np.sqrt(vals))


def numerical_rank(a: DenseMatrix, rel_tol: float) -> int:
    """Number of singular values above rel_tol * max(rows, cols) * sigma_max."""
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    sv = singular_values(a).values
    sigma_max = float(sv[-1])
    threshold = rel_tol * max(a.rows, a.cols) * sigma_max
    return int(np.count_nonzero(sv > threshold))


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


def _off_norm(a: np.ndarray) -> float:
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.sqrt(np.sum(b * b)))


def _symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by blocked cyclic Jacobi, ascending."""
    a = np.array(a, dtype=np.float64, order="C")
    n = a.shape[0]
    if n == 1:
        return a.ravel().copy()

    amax = float(np.max(np.abs(a)))
    rescale = 1.0
    if amax > 1e100 or (0.0 < amax < 1e-100):
        rescale = amax
        a /= rescale

    target = JACOBI_TOL * float(np.sqrt(np.sum(a * a)))
    rounds = _rotation_rounds(n)
    adaptive = n >= _ADAPTIVE_MIN_ORDER
    for _ in range(JACOBI_MAX_SWEEPS):
        off = _off_norm(a)
        if off <= target:
            return np.sort(np.diag(a)) * rescale
        threshold = off / n if adaptive else target / n
        for p_all, q_all in rounds:
            apq = a[p_all, q_all]
            mask = np.abs(apq) > threshold
            if not mask.any():
                continue
            p = p_all[mask]
            q = q_all[mask]
            apq = apq[mask]
            app = a[p, p]
            aqq = a[q, q]
            diff = aqq - app
            tiny_pivot = np.abs(apq) < np.abs(diff) * 1e-36
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = diff / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(theta == 0.0, 1.0, t)
                t = np.where(tiny_pivot, apq / diff, t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            col_p = a[:, p]
            col_q = a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :]
            row_q = a[q, :]
            cs = c[:, None]
            ss = s[:, None]
            a[p, :] = cs * row_p - ss * row_q
            a[q, :] = ss * row_p + cs * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
    raise RuntimeError("eigensolver did not converge")
