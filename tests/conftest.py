import math

import numpy as np
import pytest

from subspec.spectra import StepCdf


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
