"""Uniform k-subset sampling, submatrix extraction, and reproducible seeding.

Randomness is bit-exact and platform independent: a splitmix64 finalizer
derives one 64-bit seed per sample index from the master seed
(`derive_sample_seed`), and each sample runs its own xoshiro256++ stream
seeded from four splitmix64 outputs of it (`Xoshiro256pp.from_seed`).
Sample i therefore sees the same draws whatever samples are drawn with it
and in whatever order.

Bounded integers use the multiply-shift reduction (x * bound) >> 64.  It
consumes exactly one 64-bit draw per integer, which keeps the number of
draws per subset a pure function of (n, k); its bias, at most bound/2^64,
is far below anything the statistical tests can resolve.

`draw_subsets` draws many samples at once: it runs their streams in
lockstep as numpy uint64 lanes (Blackman & Vigna, "Scrambled linear
pseudorandom number generators") and takes the high word of the
multiply-shift through 32-bit limbs, so each lane makes exactly the draws
of its scalar stream.  `Xoshiro256pp` and `random_k_subset` are that
scalar stream, one Python integer at a time; they are the reference the
lanes are tested against bit for bit.

`solve_stacks` cuts each subset array of an iterable (a chunk, which may
be drawn lazily) into stacks of index rows and hands their spectra out
in row order.  It asks `linalg` how M's blocks are solved once, before
it reads the first chunk: `principal_block_solver` in eigen mode (a
diagonal, symmetric or Hermitian path), `row_block_solver` in singular
mode.  A stack holds as many rows as fit in STACK_BYTES of what the path
reads: k x k entries per gathered principal block, k x cols per row
block, k entries per block of a real diagonal M.  `solve_subsets` solves
one chunk into one table.  The one-matrix helpers (`principal_submatrix`,
`row_submatrix`, `subset_spectrum`) are batches of one over the same
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .linalg import (DenseMatrix, Spectrum, gather_submatrices, principal_block_solver,
                     row_block_solver)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

PRNG_NAME = "splitmix64+xoshiro256++"

# Byte budget of what the block solver reads for one stack of subsets (a
# stack holds at least one).  `solve_subsets` works one stack at a time, so
# beyond its output table it needs a few times this much memory, however
# many subsets it solves.
STACK_BYTES = 256 * 1024

# Streams that `draw_subsets` runs in lockstep.  Its shuffle pool holds
# DRAW_LANES x n indices of `index_dtype(n)`, 2 MB at n = 1024.
DRAW_LANES = 1024

_LANE_GOLDEN = np.uint64(_GOLDEN)
_LANE_C1 = np.uint64(_MIX_C1)
_LANE_C2 = np.uint64(_MIX_C2)
_LOW32 = np.uint64(0xFFFFFFFF)


def splitmix64_mix(z: int) -> int:
    """The splitmix64 finalizer: add the golden gamma, then xor-shift-multiply."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def _mix_lanes(z: np.ndarray) -> np.ndarray:
    """`splitmix64_mix` of every uint64 lane; numpy wraps modulo 2^64."""
    z = z + _LANE_GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _LANE_C1
    z = (z ^ (z >> np.uint64(27))) * _LANE_C2
    return z ^ (z >> np.uint64(31))


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


def index_dtype(n: int) -> np.dtype:
    """The smallest unsigned integer type that holds 1..n."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError("n must be below 2^32")


def draw_subsets(n: int, k: int, master_seed: int, offset: int, count: int) -> np.ndarray:
    """The subsets of samples offset .. offset + count - 1, as a (count, k)
    array of sorted 1-based indices in `index_dtype(n)`: row i equals
    `random_k_subset(n, k, Xoshiro256pp.from_seed(derive_sample_seed(master_seed,
    offset + i))).indices`.

    Up to DRAW_LANES streams run in lockstep, one uint64 lane each, and
    their partial Fisher-Yates shuffles step together on one pool row per
    lane.
    """
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if count < 0:
        raise ValueError("count must be nonnegative")
    dtype = index_dtype(n)
    out = np.empty((count, k), dtype=dtype)
    master = np.uint64(master_seed & _MASK64)
    for start in range(0, count, DRAW_LANES):
        lanes = min(DRAW_LANES, count - start)
        # derive_sample_seed and Xoshiro256pp.from_seed, lane by lane
        index = np.arange(lanes, dtype=np.uint64) + np.uint64((offset + start + 1) & _MASK64)
        seed = _mix_lanes(master ^ _mix_lanes(index))
        s0, s1, s2, s3 = (_mix_lanes(seed + np.uint64(i * _GOLDEN & _MASK64))
                          for i in range(4))
        s0[(s0 | s1 | s2 | s3) == 0] = _LANE_GOLDEN  # the all-zero state is invalid
        pool = np.tile(np.arange(1, n + 1, dtype=dtype), (lanes, 1))
        flat = pool.reshape(-1)
        row_start = np.arange(lanes, dtype=np.intp) * n
        for j in range(k):
            # Xoshiro256pp.next_u64
            x = s0 + s3
            word = ((x << np.uint64(23)) | (x >> np.uint64(41))) + s0
            t = s1 << np.uint64(17)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
            # (word * bound) >> 64 with bound < 2^32: neither partial
            # product nor their sum reaches 2^64
            bound = np.uint64(n - j)
            high = ((word >> np.uint64(32)) * bound
                    + (((word & _LOW32) * bound) >> np.uint64(32))) >> np.uint64(32)
            swap = row_start + (high.astype(np.intp) + j)
            picked = flat[swap]
            flat[swap] = pool[:, j]
            pool[:, j] = picked
        out[start:start + lanes] = np.sort(pool[:, :k], axis=1)
    return out


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
    return Spectrum(solve_subsets(m, np.array([s.indices]), mode)[0])


def solve_stacks(m: DenseMatrix, chunks: Iterable[np.ndarray], mode: str
                 ) -> Iterator[np.ndarray]:
    """The spectra of the submatrices at the rows of each (count, k) array
    of sorted 1-based subsets in `chunks`, one (B, width) stack at a time:
    joined, the stacks are every chunk's rows in turn.  A stack never
    spans two chunks, and no chunk is read before the stacks ahead of it.

    Each stack holds as many rows as fit in STACK_BYTES of what the
    block solver reads for them (at least one).  width is k, or
    min(k, m.cols) in singular mode.  In eigen mode m must be square and
    Hermitian (`linalg.principal_block_solver`), checked before the first
    chunk.
    """
    if mode == "eigen":
        blocks = principal_block_solver(m)
    elif mode == "singular":
        blocks = row_block_solver(m)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'eigen' or 'singular'")
    for subsets in chunks:
        step = max(1, STACK_BYTES // blocks.row_bytes(subsets.shape[1]))
        for start in range(0, len(subsets), step):
            yield blocks.solve(subsets[start:start + step].astype(np.intp) - 1)


def solve_subsets(m: DenseMatrix, subsets: np.ndarray, mode: str) -> np.ndarray:
    """The (count, width) table of `solve_stacks` over the one chunk
    `subsets`: row i is the i-th subset's `subset_spectrum`, bit for bit."""
    width = min(subsets.shape[1], m.cols) if mode == "singular" else subsets.shape[1]
    table = np.empty((subsets.shape[0], width), dtype=np.float64)
    start = 0
    for spectra in solve_stacks(m, [subsets], mode):
        table[start:start + len(spectra)] = spectra
        start += len(spectra)
    return table
