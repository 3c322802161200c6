"""Loop, dict and object encodings that the package replaced with arrays,
kept as the oracles the array paths are compared with.

`perm_rank`, `perm_unrank` and `PermIndex` address a permutation by its
lexicographic rank one digit at a time; `neighbor_table` and `subset_rows`
are the former `walk` tables built from them with Python loops and
tuple-keyed dicts.  `is_hermitian`, `require_hermitian` and
`exact_pointwise_tail` are the former one-matrix and one-point wrappers of
`linalg` and `oracle`.  `to_json` is the former one-call-per-value JSON
formatter of `cli`, and `tail_csv`, `distribution_csv`, `pair_csv`,
`ks_csv` and `cdf_csv` are the former one-line-at-a-time CSV writers of
`estimate`, `oracle`, `pair`, `ks` and `spectra.cdf_to_csv`.
`singular_values_stack` is the former batched Gram path of `linalg`, one
BLAS product per stack of matrices, and `row_block_singular_values` the
former singular-mode path of `sampling`, which gathered every row block and
handed it to that path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from subspec.linalg import (DenseMatrix, _hermitian_gaps, _require_hermitian_stack,
                            _rescale_factors, eigenvalues_hermitian_stack)
from subspec.oracle import DEFAULT_ENUMERATION_CAP, exact_pointwise_profile

MAX_PERM_N = 8


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
        if not 1 <= self.n <= MAX_PERM_N:
            raise ValueError(f"n must lie in [1, {MAX_PERM_N}]")
        if not 0 <= self.rank < math.factorial(self.n):
            raise ValueError("rank out of range")

    def permutation(self) -> tuple[int, ...]:
        return perm_unrank(self.n, self.rank)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "PermIndex":
        return cls(len(perm), perm_rank(perm))


def perm_table(n: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """Every permutation of 0..n-1 by rank, and the tuple -> rank dict."""
    perms = tuple(perm_unrank(n, r) for r in range(math.factorial(n)))
    return perms, {p: r for r, p in enumerate(perms)}


def neighbor_table(n: int) -> np.ndarray:
    """[r, t] is the rank of permutation r with the positions of
    transposition t swapped, one (state, transposition) pair at a time."""
    perms, rank_of = perm_table(n)
    taus = list(itertools.combinations(range(n), 2))
    table = np.empty((len(perms), len(taus)), dtype=np.intp)
    for r, perm in enumerate(perms):
        word = list(perm)
        for t, (i, j) in enumerate(taus):
            word[i], word[j] = word[j], word[i]
            table[r, t] = rank_of[tuple(word)]
            word[i], word[j] = word[j], word[i]
    return table


def subset_rows(n: int, k: int) -> np.ndarray:
    """[r] is the lexicographic row of the set of permutation r's first k
    entries among the k-subsets of {1..n}, found in a tuple-keyed dict."""
    row_of = {s: i for i, s in enumerate(itertools.combinations(range(1, n + 1), k))}
    perms, _ = perm_table(n)
    return np.array([row_of[tuple(sorted(p + 1 for p in perm[:k]))] for perm in perms],
                    dtype=np.intp)


def is_hermitian(m: DenseMatrix, tol: float) -> bool:
    """True iff max |M[i,j] - conj(M[j,i])| <= tol.  Raises on non-square input."""
    return float(_hermitian_gaps(m.data[None])[0]) <= tol


def require_hermitian(m: DenseMatrix) -> None:
    """Raise ValueError("not Hermitian") unless M is Hermitian to within
    1e-10 times its largest entry (or 1e-10 for the zero matrix)."""
    _require_hermitian_stack(m.data[None])


def singular_values_stack(stack: np.ndarray) -> np.ndarray:
    """Singular values of every matrix of a (B, r, c) stack: a (B, min(r, c))
    array with one ascending row per matrix, the square roots of the
    spectrum of the smaller Gram matrix, negatives counted as 0.

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
    vals = eigenvalues_hermitian_stack(g)
    scale = (amax / rescale)[:, None]
    if np.any(vals < -1e-9 * scale * scale):
        raise ValueError("Gram spectrum has a negative eigenvalue beyond tolerance")
    vals[vals < 0] = 0.0
    return np.sqrt(vals) * rescale[:, None]


def row_block_singular_values(m: DenseMatrix, idx: np.ndarray) -> np.ndarray:
    """The singular values of M's row blocks at the 0-based index rows of a
    (B, k) array: each k x cols block gathered and handed to
    `singular_values_stack`, which takes the Gram spectrum of its smaller
    side at the block's own scale."""
    return singular_values_stack(m.data[idx])


def exact_pointwise_tail(m: DenseMatrix, k: int, x: float, r: float,
                         mode: str = "eigen",
                         cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact probability that |F_A(x) - F(x)| >= r under a uniform subset."""
    return float(exact_pointwise_profile(m, k, [x], mode, cap).tails([r])[0, 0])


def to_json(obj, indent: int = 0) -> str:
    """The CLI's JSON text, one recursive call per value: two-space indent,
    one item per line, floats with 17 significant digits."""
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{child}{json.dumps(str(key))}: {to_json(value, indent + 1)}"
                for key, value in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{child}{to_json(value, indent + 1)}" for value in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def tail_csv(curve) -> str:
    """`estimate --format csv` of a `TailCurve`, one line per r point."""
    lines = ["r,empirical,bound,stderr"]
    for r, e, b, se in zip(curve.r_grid, curve.empirical, curve.bound, curve.stderr()):
        lines.append(f"{r:.17g},{e:.17g},{b:.17g},{se:.17g}")
    return "\n".join(lines) + "\n"


def distribution_csv(dist) -> str:
    """`oracle --format csv` of an `ExactDistribution`, one line per value."""
    lines = ["value,probability"]
    for v, p in zip(dist.values, dist.probs):
        lines.append(f"{v:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


def pair_csv(results) -> str:
    """`pair --format csv` of a list of `KsResult`, one line per pair."""
    lines = ["pair,D,lambda,p"]
    for i, r in enumerate(results):
        lines.append(f"{i},{float(r.statistic):.17g},{float(r.lam):.17g},"
                     f"{float(r.p_value):.17g}")
    return "\n".join(lines) + "\n"


def ks_csv(result) -> str:
    """`ks --format csv` of one `KsResult`."""
    return ("D,lambda,p\n"
            f"{float(result.statistic):.17g},{float(result.lam):.17g},"
            f"{float(result.p_value):.17g}\n")


def cdf_csv(f) -> str:
    """`spectra.cdf_to_csv` of a `StepCdf`, one line per jump."""
    lines = ["x,F"]
    for x, c in zip(f.jumps, f.cum):
        lines.append(f"{x:.17g},{c:.17g}")
    return "\n".join(lines) + "\n"
