"""Monte Carlo estimation of expected spectral distributions, mean sup-norm
deviations and tail probabilities, next to the closed-form bounds they are
checked against.

Determinism contract: every estimate is a pure function of (matrix, k,
mode, n_samples, master_seed).  Sample i draws its subset from its own
derived stream, every sample is solved as drawn (a subset drawn twice is
solved twice, to the same bits), and all reductions are exact counts or
run in sample-index order.

Samples are drawn `sampling.DRAW_LANES` at a time, each chunk as it is
solved.  Each stack of spectra is reduced to exact (value, count) pairs
and one sup-norm distance per sample, so neither all the draws nor all
the spectra are ever held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DenseMatrix, JACOBI_MAX_SWEEPS, JACOBI_TOL
from .oracle import DEFAULT_ENUMERATION_CAP, exact_F
from . import sampling
from .sampling import PRNG_NAME, derive_sample_seed, draw_subsets, solve_stacks
from .spectra import StepCdf, step_cdf, sup_distances

QUANTILE_PROBS = (0.5, 0.9, 0.99)


def supnorm_tail_bound(k: int, r: float) -> float:
    """Closed-form tail bound min(1, 12 sqrt(k) exp(-r sqrt(k/8))) for the
    probability that the sup-norm deviation exceeds 1/sqrt(k) + r."""
    if k < 1 or r < 0:
        raise ValueError("need k >= 1 and r >= 0")
    return min(1.0, 12.0 * math.sqrt(k) * math.exp(-r * math.sqrt(k / 8.0)))


def supnorm_mean_bound(k: int) -> float:
    """Closed-form bound (13 + sqrt(8) log k) / sqrt(k) on the mean sup-norm
    deviation; reported raw even when it exceeds 1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return (13.0 + math.sqrt(8.0) * math.log(k)) / math.sqrt(k)


def pointwise_tail_bound(k: int, r: float) -> float:
    """Closed-form one-point bound min(1, 6 exp(-r sqrt(k) / sqrt(8)))."""
    if k < 1 or r < 0:
        raise ValueError("need k >= 1 and r >= 0")
    return min(1.0, 6.0 * math.exp(-r * math.sqrt(k) / math.sqrt(8.0)))


@dataclass(frozen=True)
class TailCurve:
    """Empirical tail probabilities next to the closed-form bound on a grid."""

    r_grid: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        r = np.array(self.r_grid, dtype=np.float64)
        emp = np.array(self.empirical, dtype=np.float64)
        bnd = np.array(self.bound, dtype=np.float64)
        if not (r.size == emp.size == bnd.size) or r.size == 0:
            raise ValueError("grid and value sequences must share a positive length")
        if np.any(np.diff(r) <= 0) or r[0] < 0:
            raise ValueError("r grid must be increasing and nonnegative")
        for name, arr in (("empirical", emp), ("bound", bnd)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} values must lie in [0, 1]")
            if np.any(np.diff(arr) > 0):
                raise ValueError(f"{name} values must be nonincreasing in r")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        for name, arr in (("r_grid", r), ("empirical", emp), ("bound", bnd)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def stderr(self) -> np.ndarray:
        """Binomial standard error sqrt(p(1-p)/N) of each empirical point."""
        p = self.empirical
        return np.sqrt(p * (1.0 - p) / self.n_samples)

    def to_dict(self) -> dict:
        return {
            "r_grid": self.r_grid.tolist(),
            "empirical": self.empirical.tolist(),
            "bound": self.bound.tolist(),
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class EstimateReport:
    """Summary of one Monte Carlo run, keeping per-sample sup-norm values
    (not serialized) so tails can be computed afterwards."""

    mode: str
    n: int
    k: int
    n_samples: int
    master_seed: int
    f_hat: StepCdf
    mean_supnorm: float
    supnorm_quantiles: dict[float, float]
    metadata: str
    samples: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "k": self.k,
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "F_hat": {"jumps": self.f_hat.jumps.tolist(), "cum": self.f_hat.cum.tolist()},
            "mean_supnorm": self.mean_supnorm,
            "supnorm_quantiles": {str(p): v for p, v in self.supnorm_quantiles.items()},
            "metadata": self.metadata,
        }


def standard_metadata(extra: str = "") -> str:
    """PRNG and eigensolver identification embedded in every report."""
    base = (f"prng={PRNG_NAME};eigensolver=jacobi-cyclic;"
            f"jacobi_tol={JACOBI_TOL:g};jacobi_max_sweeps={JACOBI_MAX_SWEEPS}")
    return base + (";" + extra if extra else "")


def _sampled_spectra(m: DenseMatrix, k: int, mode: str, n_samples: int,
                     master_seed: int, stream_offset: int,
                     reference: StepCdf | None) -> tuple[StepCdf, np.ndarray | None]:
    """Equal-weight average of the per-sample ESDs and, given a reference,
    the per-sample sup-norm distances to it in sample order.  A stack of
    spectra leaves only its distinct values with their exact integer
    counts, so `step_cdf` of all the pairs gives the bytes of a count over
    every sample.  Past DRAW_LANES stacks their arrays are folded into one
    set, so memory stays flat even when each stack is one submatrix."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    lanes = sampling.DRAW_LANES
    chunks = (draw_subsets(m.rows, k, master_seed, stream_offset + start,
                           min(lanes, n_samples - start))
              for start in range(0, n_samples, lanes))
    stacks = []
    for spectra in solve_stacks(m, chunks, mode):
        distances = np.empty(0) if reference is None else sup_distances(spectra, reference)
        stacks.append((*np.unique(spectra, return_counts=True), distances))
        if len(stacks) > lanes:
            stacks = [tuple(np.concatenate(part) for part in zip(*stacks))]
    values, counts, distances = (np.concatenate(part) for part in zip(*stacks))
    return step_cdf(values, counts), None if reference is None else distances


def estimate_F(m: DenseMatrix, k: int, mode: str, n_samples: int,
               master_seed: int, stream_offset: int = 0) -> StepCdf:
    """Equal-weight average of the sampled submatrix ESDs.

    `stream_offset` shifts the per-sample stream indices, so a run of
    N1 + N2 samples splits exactly into runs over streams [0, N1) and
    [N1, N1 + N2).
    """
    return _sampled_spectra(m, k, mode, n_samples, master_seed, stream_offset, None)[0]


def estimate_supnorm(m: DenseMatrix, k: int, mode: str, n_samples: int,
                     master_seed: int, reference: StepCdf,
                     metadata_note: str = "") -> EstimateReport:
    """Monte Carlo law of the sup-norm distance between sampled ESDs and a
    caller-supplied reference CDF, plus the averaged F_hat."""
    f_hat, samples = _sampled_spectra(m, k, mode, n_samples, master_seed, 0, reference)
    mean = math.fsum(samples.tolist()) / n_samples
    ordered = np.sort(samples)
    quantiles = {p: float(ordered[max(0, math.ceil(p * n_samples) - 1)])
                 for p in QUANTILE_PROBS}
    samples.setflags(write=False)
    return EstimateReport(
        mode=mode, n=m.rows, k=k, n_samples=n_samples, master_seed=master_seed,
        f_hat=f_hat, mean_supnorm=mean, supnorm_quantiles=quantiles,
        metadata=standard_metadata(metadata_note), samples=samples)


def empirical_tail(report: EstimateReport, r_grid: np.ndarray) -> TailCurve:
    """Fraction of samples at or above 1/sqrt(k) + r, next to the closed-form
    bound, for every r in the grid."""
    r = np.array(r_grid, dtype=np.float64)
    thresholds = 1.0 / math.sqrt(report.k) + r
    empirical = np.array(
        [np.count_nonzero(report.samples >= t) / report.n_samples for t in thresholds])
    bound = np.array([supnorm_tail_bound(report.k, float(ri)) for ri in r])
    return TailCurve(r, empirical, bound, report.n_samples)


def compare_tail(curve: TailCurve) -> list[dict]:
    """Grid points where the empirical tail exceeds the bound by more than
    three binomial standard errors; an empty list is a pass."""
    stderr = curve.stderr()
    violations = []
    for i in range(curve.r_grid.size):
        if curve.empirical[i] > curve.bound[i] + 3.0 * stderr[i]:
            violations.append({
                "r": float(curve.r_grid[i]),
                "empirical": float(curve.empirical[i]),
                "bound": float(curve.bound[i]),
                "stderr": float(stderr[i]),
            })
    return violations


def choose_reference(m: DenseMatrix, k: int, mode: str, n_samples: int,
                     master_seed: int,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[StepCdf, str]:
    """Reference CDF for tail experiments: the exact expected CDF when full
    enumeration fits under the cap, otherwise an independent-seed estimate
    with ten times the samples.  Returns the CDF and a metadata note."""
    if math.comb(m.rows, k) <= cap:
        return exact_F(m, k, mode, cap), "reference=exact_F"
    independent_seed = derive_sample_seed(master_seed, 2**32)
    ref = estimate_F(m, k, mode, 10 * n_samples, independent_seed)
    return ref, f"reference=estimate_F(samples={10 * n_samples},seed={independent_seed})"
