"""Constructors for named test matrices and the text matrix-file format.

File format: the first non-comment line is "rows cols field" with field
"real" or "complex", followed by one line per row with whitespace-separated
entries; a complex entry is "re,im" with no spaces.  Lines starting with
'#' are comments.  Numbers are written with 17 significant digits, which
round-trips float64 exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix
from .sampling import Xoshiro256pp

ENSEMBLE_KINDS = ("rw_covariance", "half_ones", "random_symmetric_gaussian",
                  "random_symmetric_pm1", "file")


@dataclass(frozen=True)
class EnsembleSpec:
    """Names one input matrix: a built-in family, a random family, or a file."""

    kind: str
    n: int = 0
    seed: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind != "file" and self.n < 1:
            raise ValueError("n must be positive")
        if self.kind == "file" and not self.path:
            raise ValueError("file ensembles need a path")


def make_matrix(spec: EnsembleSpec) -> DenseMatrix:
    if spec.kind == "rw_covariance":
        return rw_covariance(spec.n)
    if spec.kind == "half_ones":
        return half_ones_diagonal(spec.n)
    if spec.kind == "random_symmetric_gaussian":
        return random_symmetric(spec.n, spec.seed, "gaussian")
    if spec.kind == "random_symmetric_pm1":
        return random_symmetric(spec.n, spec.seed, "pm1")
    return load_matrix(spec.path)


def _adopt(arr: np.ndarray) -> DenseMatrix:
    """Hand a freshly built array to DenseMatrix, which keeps it uncopied."""
    arr.setflags(write=False)
    return DenseMatrix(arr)


def rw_covariance(n: int) -> DenseMatrix:
    """Symmetric positive definite matrix with entry (i, j) = min(i, j), 1-based."""
    if n < 1:
        raise ValueError("n must be positive")
    idx = np.arange(1, n + 1, dtype=np.float64)
    return _adopt(np.minimum.outer(idx, idx))


def half_ones_diagonal(n: int) -> DenseMatrix:
    """Diagonal matrix with floor(n/2) leading ones and zeros elsewhere."""
    if n < 1:
        raise ValueError("n must be positive")
    diag = np.zeros(n, dtype=np.float64)
    diag[: n // 2] = 1.0
    return _adopt(np.diag(diag))


def random_symmetric(n: int, seed: int, dist: str) -> DenseMatrix:
    """Random symmetric matrix, i.i.d. upper triangle mirrored below.

    Entries are drawn row-major over i <= j; dist is "gaussian" (standard
    normal, two PRNG draws per entry) or "pm1" (uniform sign, one draw).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if dist not in ("gaussian", "pm1"):
        raise ValueError(f"unknown distribution {dist!r}")
    rng = Xoshiro256pp.from_seed(seed)
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            if dist == "gaussian":
                v = rng.next_gaussian()
            else:
                v = 1.0 if rng.next_u64() >> 63 == 0 else -1.0
            m[i, j] = v
            m[j, i] = v
    return _adopt(m)


def _format_entry(value: complex | float, is_complex: bool) -> str:
    if is_complex:
        return f"{value.real:.17g},{value.imag:.17g}"
    return f"{value:.17g}"


def save_matrix(m: DenseMatrix, path: str | os.PathLike) -> None:
    lines = [f"{m.rows} {m.cols} {m.field}"]
    for row in m.data:
        lines.append(" ".join(_format_entry(v, m.is_complex) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_entry(token: str, is_complex: bool, path: str, lineno: int) -> complex | float:
    try:
        if is_complex:
            parts = token.split(",")
            if len(parts) != 2:
                raise ValueError
            return complex(float(parts[0]), float(parts[1]))
        return float(token)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: unparsable entry {token!r}") from None


def load_matrix(path: str | os.PathLike) -> DenseMatrix:
    path_str = os.fspath(path)
    with open(path_str, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    header = None
    rows_read: list[list[complex | float]] = []
    rows = cols = 0
    is_complex = False
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(f"{path_str}: line {lineno}: header must be 'rows cols field'")
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path_str}: line {lineno}: non-integer dimensions") from None
            if rows < 1 or cols < 1:
                raise ValueError(f"{path_str}: line {lineno}: dimensions must be positive")
            if parts[2] not in ("real", "complex"):
                raise ValueError(f"{path_str}: line {lineno}: field must be 'real' or 'complex'")
            is_complex = parts[2] == "complex"
            header = parts
            continue
        if len(rows_read) == rows:
            raise ValueError(f"{path_str}: line {lineno}: more than {rows} data rows")
        tokens = stripped.split()
        if len(tokens) != cols:
            raise ValueError(
                f"{path_str}: line {lineno}: expected {cols} entries, found {len(tokens)}")
        rows_read.append([_parse_entry(t, is_complex, path_str, lineno) for t in tokens])
    if header is None:
        raise ValueError(f"{path_str}: line 1: missing header")
    if len(rows_read) != rows:
        raise ValueError(f"{path_str}: expected {rows} data rows, found {len(rows_read)}")
    dtype = np.complex128 if is_complex else np.float64
    return _adopt(np.array(rows_read, dtype=dtype))
