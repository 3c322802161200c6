"""Uniform k-subset sampling, submatrix extraction, and reproducible seeding.

Randomness is bit-exact and platform independent: a splitmix64 finalizer
derives one 64-bit seed per sample index from the master seed, and each
sample runs its own xoshiro256++ stream seeded from four splitmix64
outputs.  Sample i therefore sees the same draws no matter how many
workers run or in which order samples are processed.

Bounded integers use the multiply-shift reduction (x * bound) >> 64.  It
consumes exactly one 64-bit draw per integer, which keeps the number of
draws per subset a pure function of (n, k); its bias, at most bound/2^64,
is far below anything the statistical tests can resolve.

`gather_submatrices` is the one submatrix extraction of the package: it
turns rows of 0-based indices into a (B, k, cols) stack with a single
`np.take`.  `solve_subsets` feeds its stacks to the batched solver, and
the one-matrix helpers (`principal_submatrix`, `row_submatrix`,
`subset_spectrum`) are batches of one over the same two functions.  The
walk's rank steps gather their permuted-order blocks with it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .linalg import DenseMatrix, Spectrum, eigenvalues_hermitian_stack, singular_values_stack

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

PRNG_NAME = "splitmix64+xoshiro256++"

# Byte budget of one stack of extracted submatrices (a stack holds at least
# one).  `solve_subsets` works one stack at a time, so beyond its output
# table it needs a few times this much memory, however many subsets it
# solves.
STACK_BYTES = 256 * 1024


def splitmix64_mix(z: int) -> int:
    """The splitmix64 finalizer: add the golden gamma, then xor-shift-multiply."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def derive_sample_seed(master_seed: int, i: int) -> int:
    """Per-sample 64-bit seed: mix(master XOR mix(i + 1))."""
    return splitmix64_mix((master_seed ^ splitmix64_mix((i + 1) & _MASK64)) & _MASK64)


class Xoshiro256pp:
    """xoshiro256++ stream, seeded from four successive splitmix64 outputs."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, s0: int, s1: int, s2: int, s3: int):
        if not (s0 or s1 or s2 or s3):
            s0 = _GOLDEN  # the all-zero state is invalid
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3

    @classmethod
    def from_seed(cls, seed: int) -> "Xoshiro256pp":
        return cls(*(splitmix64_mix((seed + i * _GOLDEN) & _MASK64) for i in range(4)))

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s0 + s3) & _MASK64
        result = (((x << 23) | (x >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3
        return result

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), one draw consumed."""
        return (self.next_u64() * bound) >> 64

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_gaussian(self) -> float:
        """Standard normal via Box-Muller (cosine branch, two draws)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1]
        u2 = self.next_unit()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class SeedPlan:
    """Master seed plus the stream-derivation rule for parallel sampling."""

    master_seed: int

    def seed_for(self, i: int) -> int:
        return derive_sample_seed(self.master_seed, i)

    def stream(self, i: int) -> Xoshiro256pp:
        return Xoshiro256pp.from_seed(self.seed_for(i))


@dataclass(frozen=True)
class SubsetSample:
    """Sorted k-subset of {1..n}, the randomization unit; indices are 1-based."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        k = len(self.indices)
        if not 1 <= k <= self.n:
            raise ValueError("subset size must satisfy 1 <= k <= n")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly increasing and distinct")
        if self.indices[0] < 1 or self.indices[-1] > self.n:
            raise ValueError("indices must lie in [1, n]")

    @property
    def k(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.intp) - 1


def random_k_subset(n: int, k: int, rng: Xoshiro256pp) -> SubsetSample:
    """Uniform k-subset of {1..n} via a partial Fisher-Yates shuffle.

    Consumes exactly k bounded draws for any outcome.
    """
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    pool = list(range(1, n + 1))
    for j in range(k):
        swap = j + rng.next_below(n - j)
        pool[j], pool[swap] = pool[swap], pool[j]
    return SubsetSample(tuple(sorted(pool[:k])), n)


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


def principal_submatrix(m: DenseMatrix, s: SubsetSample) -> DenseMatrix:
    """The submatrix keeping rows and columns s.indices, in order."""
    if not m.is_square() or m.rows != s.n:
        raise ValueError("matrix order does not match the sample's ambient order")
    return DenseMatrix(gather_submatrices(m, s.zero_based()[None], "eigen")[0])


def row_submatrix(m: DenseMatrix, s: SubsetSample) -> DenseMatrix:
    """The k x n submatrix keeping rows s.indices and all columns."""
    if m.rows != s.n:
        raise ValueError("matrix row count does not match the sample's ambient order")
    return DenseMatrix(gather_submatrices(m, s.zero_based()[None], "singular")[0])


def subset_spectrum(m: DenseMatrix, s: SubsetSample, mode: str) -> Spectrum:
    """Spectrum of the sampled submatrix: eigenvalues of the principal k x k
    block in eigen mode, singular values of the k x n row block otherwise."""
    if m.rows != s.n:
        raise ValueError("matrix order does not match the sample's ambient order")
    return Spectrum(solve_subsets(m, s.k, [s.indices], 1, mode)[0])


def solve_subsets(m: DenseMatrix, k: int, subsets: Iterable[Sequence[int]], count: int,
                  mode: str) -> np.ndarray:
    """Spectra of the submatrices of the first `count` k-subsets (sorted
    1-based indices), as a (count, width) table whose row i is the i-th
    subset's `subset_spectrum`, bit for bit.

    The submatrices are gathered into stacks of at most STACK_BYTES (at
    least one submatrix) and solved one stack at a time by the batched
    eigensolver.  width is k, or min(k, m.cols) in singular mode.
    """
    if mode == "eigen":
        if not m.is_square():
            raise ValueError("not square")
        cols, width, solve = k, k, eigenvalues_hermitian_stack
    elif mode == "singular":
        cols, width, solve = m.cols, min(k, m.cols), singular_values_stack
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'eigen' or 'singular'")
    chunk = max(1, STACK_BYTES // (k * cols * m.data.itemsize))
    table = np.empty((count, width), dtype=np.float64)
    pending = iter(subsets)
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        batch = list(islice(pending, size))
        if len(batch) < size:
            raise ValueError(f"fewer than count = {count} subsets")
        idx = np.array(batch, dtype=np.intp).reshape(size, k) - 1
        table[start:start + size] = solve(gather_submatrices(m, idx, mode))
    return table
