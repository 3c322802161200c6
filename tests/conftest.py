import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from subspec.spectra import StepCdf, quantile_grid


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail any test that leaves a child process unreaped, such as an
    eigensolver worker that was never waited for."""
    yield
    if hasattr(os, "waitpid"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _average_cdfs(cdfs, weights):
    """Weighted mixture of step CDFs on the union of their jump sets, each
    value an exact `math.fsum` of the weighted inputs.  It shares no code
    with `spectra.step_cdf`, so it serves as an independent oracle for the
    package's count reductions."""
    xs = cdfs[0].jumps
    for f in cdfs[1:]:
        xs = np.union1d(xs, f.jumps)
    columns = np.array([f.eval_many(xs) for f in cdfs])
    w = np.array(weights, dtype=np.float64)
    return StepCdf(xs, np.array([math.fsum(w * columns[:, j]) for j in range(xs.size)]))


@pytest.fixture
def average_cdfs():
    return _average_cdfs


def _searchsorted_profile(table, xs):
    """The former per-row `oracle.pointwise_profile`: one `searchsorted`
    per table row, as (fa, f)."""
    xs = np.array(xs, dtype=np.float64)
    fa = np.empty((table.shape[0], xs.size), dtype=np.float64)
    for i, row in enumerate(table):
        fa[i] = np.searchsorted(row, xs, side="right") / row.size
    return fa, fa.sum(axis=0) / table.shape[0]


def _loop_tail(fa, f, x_index, r):
    """The former `PointwiseProfile.tail`: one comparison per (x, r)."""
    dev = np.abs(fa[:, x_index] - f[x_index])
    return float(np.count_nonzero(dev >= r)) / fa.shape[0]


def _chaining_bound(f, g, l):
    """Right-hand side 1/l + Delta + 1e-12 of the former one-level
    `oracle.chaining_check`, whose verdict is sup_distance(g, f) <= it."""
    ts = quantile_grid(f, l)
    delta_right = np.abs(g.eval_many(ts) - f.eval_many(ts))
    delta_left = np.abs(g.eval_many(ts, left=True) - f.eval_many(ts, left=True))
    delta = float(max(delta_right.max(), delta_left.max()))
    return 1.0 / l + delta + 1e-12


@pytest.fixture
def former_loops():
    """The per-row, per-(x, r) and per-level loops that the array passes of
    `oracle` replaced, kept as their bit-for-bit oracles."""
    return SimpleNamespace(profile=_searchsorted_profile, tail=_loop_tail,
                           chaining_bound=_chaining_bound)
