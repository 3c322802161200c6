"""Step-CDF algebra: spectral distribution functions and their sup-norm geometry.

A StepCdf is right-continuous: its value at x is the cumulative weight of
all jumps at or below x.  Sup-norm distances between step functions are
exact, not grid-sampled, one per input shape: `sup_distance` of two
StepCdfs, `sup_distances` of each ascending row of a (R, k) table against
one reference, and `pair_distances` of the row pairs of two such tables,
whose rows may end in +inf padding.
Between two jumps of F, F is constant and G is monotone, so |F - G|, and
its rounded value too, is largest at either end of that stretch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum

_CUM_TOL = 1e-12


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step distribution function with finitely many jumps.

    `jumps` are the strictly increasing jump locations; `cum[i]` is the
    function value at and immediately after `jumps[i]`.  The value below
    the first jump is 0 and `cum[-1]` is 1 up to 1e-12.
    """

    jumps: np.ndarray
    cum: np.ndarray

    def __post_init__(self) -> None:
        jumps = np.array(self.jumps, dtype=np.float64)
        cum = np.array(self.cum, dtype=np.float64)
        if jumps.ndim != 1 or cum.ndim != 1 or jumps.size != cum.size or jumps.size == 0:
            raise ValueError("jumps and cum must be 1-D sequences of equal positive length")
        if not (np.all(np.isfinite(jumps)) and np.all(np.isfinite(cum))):
            raise ValueError("StepCdf entries must be finite")
        if np.any(np.diff(jumps) <= 0):
            raise ValueError("jump locations must be strictly increasing")
        if np.any(np.diff(cum) < 0):
            raise ValueError("cumulative values must be nondecreasing")
        if not cum[0] > 0:
            raise ValueError("first cumulative value must be positive")
        if abs(float(cum[-1]) - 1.0) > _CUM_TOL:
            raise ValueError("last cumulative value must be 1 within 1e-12")
        jumps.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "cum", cum)

    def eval(self, x: float) -> float:
        """Right-continuous value at x."""
        idx = int(np.searchsorted(self.jumps, x, side="right"))
        return float(self.cum[idx - 1]) if idx > 0 else 0.0

    def eval_left(self, x: float) -> float:
        """Left limit at x: the value just below x."""
        idx = int(np.searchsorted(self.jumps, x, side="left"))
        return float(self.cum[idx - 1]) if idx > 0 else 0.0

    def eval_many(self, xs: np.ndarray, left: bool = False) -> np.ndarray:
        idx = np.searchsorted(self.jumps, xs, side="left" if left else "right")
        out = np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)
        return out


@dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov-Smirnov outcome.

    `lam` is the statistic scaled by sqrt(a*b/(a+b)); the JSON field name
    is "lambda".
    """

    statistic: float
    lam: float
    p_value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.statistic <= 1.0):
            raise ValueError("statistic must lie in [0, 1]")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError("p-value must lie in [0, 1]")
        if self.statistic == 0.0 and self.p_value < 1.0 - 1e-12:
            raise ValueError("zero statistic must give p-value 1")

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "lambda": self.lam, "p_value": self.p_value}


def step_cdf(values: np.ndarray, weights: np.ndarray | None = None) -> StepCdf:
    """Step CDF putting mass proportional to its multiplicity on each value.

    `weights` are optional integer multiplicities, one per entry of
    `values`; without them every entry counts once.  Counts are exact
    integers and each cumulative value is one division by the exact total,
    so the result does not depend on the order of `values`.
    """
    if weights is None:
        uniq, counts = np.unique(values, return_counts=True)
        total = values.size
    else:
        uniq, inverse = np.unique(values, return_inverse=True)
        counts = np.bincount(inverse, weights=weights, minlength=uniq.size)
        total = int(np.sum(weights))
    cum = np.cumsum(counts) / total
    cum[-1] = 1.0
    return StepCdf(uniq, cum)


def esd(s: Spectrum) -> StepCdf:
    """Empirical spectral distribution: mass 1/count at each spectrum value."""
    return step_cdf(s.values)


def sup_distance(f: StepCdf, g: StepCdf) -> float:
    """Exact sup over the real line of |F - G| for two step CDFs.

    O(k log J) for k <= J jumps: the right values and left limits at the
    jumps of the function with fewer of them, plus the gap between the two
    final values.  Rounding is monotone, so every other point of the union
    of both jump sets gives a difference no larger than one of these: the
    result is the same float as the maximum over the whole union.
    """
    if f.jumps.size > g.jumps.size:
        f, g = g, f
    right = np.abs(f.cum - g.eval_many(f.jumps))
    before = np.concatenate(([0.0], f.cum[:-1]))
    left = np.abs(before - g.eval_many(f.jumps, left=True))
    return float(max(right.max(), left.max(), abs(f.cum[-1] - g.cum[-1])))


def sup_distances(table: np.ndarray, reference: StepCdf) -> np.ndarray:
    """`sup_distance(step_cdf(row), reference)` of every ascending row of a
    (R, k) table, as the same floats, in one array pass.  A row's ESD is
    (j+1)/k at the last copy of its j-th value and j/k just below the first
    copy; measured at either side's jumps, the maximum is the same float."""
    k = table.shape[1]
    ties = table[:, 1:] == table[:, :-1]
    right = np.abs(np.arange(1, k + 1) / k - reference.eval_many(table))
    right[:, :-1][ties] = 0.0
    left = np.abs(np.arange(k) / k - reference.eval_many(table, left=True))
    left[:, 1:][ties] = 0.0
    return np.maximum(np.maximum(right, left).max(axis=1), abs(1.0 - reference.cum[-1]))


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`sup_distance(step_cdf(a[i]), step_cdf(b[i]))` of every row pair of two
    ascending tables, as the same floats; a row may end in +inf padding, and
    its size is its count of finite entries.  One stable sort merges each
    pair, and both ESDs, count so far / size, are read at the last copy of
    every merged finite value, where each left limit is the one before's."""
    sizes_a, sizes_b = (np.count_nonzero(t < np.inf, axis=1)[:, None] for t in (a, b))
    merged = np.concatenate((a, b), axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    merged = np.take_along_axis(merged, order, axis=1)
    count_a = np.cumsum(order < a.shape[1], axis=1)
    gaps = np.abs(count_a / sizes_a - (np.arange(1, merged.shape[1] + 1) - count_a) / sizes_b)
    gaps[:, :-1][merged[:, 1:] == merged[:, :-1]] = 0.0
    gaps[merged == np.inf] = 0.0
    return gaps.max(axis=1)


def kolmogorov_q(lam: float) -> float:
    """Tail function 2*sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), with Q(0) = 1.

    The alternating series is truncated once a term drops below 1e-12.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    # the series needs about 3.8 / lam terms; below 0.1, 1 - Q(lam) <=
    # (sqrt(2 pi) / lam) exp(-pi^2 / (8 lam^2)) < 1e-50, so Q is 1.0
    if lam < 0.1:
        return 1.0
    total = 0.0
    sign = 1.0
    j = 1
    while True:
        term = 2.0 * math.exp(-2.0 * j * j * lam * lam)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
        j += 1
    return min(1.0, max(0.0, total))


def ks_result(statistic: float, a: int, b: int) -> KsResult:
    """Two-sample KS outcome of the sup distance of ESDs of sample sizes a and b."""
    if a < 1 or b < 1:
        raise ValueError("sample sizes must be at least 1")
    lam = math.sqrt(a * b / (a + b)) * statistic
    p = 1.0 if statistic == 0.0 else kolmogorov_q(lam)
    return KsResult(statistic=statistic, lam=lam, p_value=p)


def ks_two_sample(f: StepCdf, g: StepCdf, a: int, b: int) -> KsResult:
    """Two-sample KS test between empirical CDFs with sample sizes a and b."""
    return ks_result(sup_distance(f, g), a, b)


def to_csv(header: str, *columns) -> str:
    """CSV text, the one format of every CSV output: the header line, then
    one line per row of the equal-length columns, every number with 17
    significant digits."""
    lines = [header, *(",".join(f"{v:.17g}" for v in row) for row in zip(*columns))]
    return "\n".join(lines) + "\n"


def cdf_to_csv(f: StepCdf) -> str:
    return to_csv("x,F", f.jumps, f.cum)


def cdf_from_csv(text: str) -> StepCdf:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != "x,F":
        raise ValueError("CDF CSV must start with header 'x,F'")
    jumps = []
    cum = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x,F' pair, found {len(parts)} fields")
        try:
            jumps.append(float(parts[0]))
            cum.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: unparsable number") from exc
    return StepCdf(np.array(jumps), np.array(cum))
