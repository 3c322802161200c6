"""Span tracing around the calls into each subspec layer, from outside the package.

`install` replaces every module-level name through which the package calls
a traced function with a wrapper that records a span, so a function
imported by name into several modules is traced at each call site.  The
spans stay in memory until `Tracer.dump` writes them out.

A span is [name, start, end, parent, run_id, work]: `parent` is the index
of the enclosing span or -1, and `work` is an exact operation count for
the spans that have one (eigensolve order, bytes extracted, sup-distance
candidate points), else 0.  Counting work happens
inside a child span named "trace", so it is excluded from the self time
of every real layer.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from typing import Callable

import numpy as np

# span name -> (module, function names); names sharing a span are alternatives
# for the same job, e.g. the two submatrix extractions
TRACED = {
    "linalg.eig": ("linalg", ("eigenvalues_hermitian",)),
    "linalg.singular": ("linalg", ("singular_values",)),
    "linalg.rank": ("linalg", ("numerical_rank",)),
    "sampling.draw": ("sampling", ("random_k_subset",)),
    "sampling.extract": ("sampling", ("principal_submatrix", "row_submatrix")),
    "sampling.subset_spectrum": ("sampling", ("subset_spectrum",)),
    "spectra.sup_distance": ("spectra", ("sup_distance",)),
    "spectra.esd": ("spectra", ("esd",)),
    "montecarlo.reference": ("montecarlo", ("choose_reference",)),
    "montecarlo.estimate_F": ("montecarlo", ("estimate_F",)),
    "montecarlo.estimate_supnorm": ("montecarlo", ("estimate_supnorm",)),
    "oracle.exact_F": ("oracle", ("exact_F",)),
    "oracle.supnorm_dist": ("oracle", ("exact_supnorm_distribution",)),
    "oracle.profile": ("oracle", ("exact_pointwise_profile",)),
    "oracle.chaining": ("oracle", ("chaining_check",)),
    "walk.gap": ("walk", ("spectral_gap",)),
    "walk.kernel": ("walk", ("kernel_matrix",)),
    "walk.observable": ("walk", ("esd_observable", "esd_observable_grid")),
    "walk.triple_norm_bound": ("walk", ("verify_triple_norm_bound",)),
    "walk.gap_concentration": ("walk", ("verify_gap_concentration",)),
    "walk.rank_step": ("walk", ("rank_step_check",)),
    "ensembles.build": ("ensembles", ("make_matrix", "rw_covariance",
                                      "half_ones_diagonal", "random_symmetric")),
}


def _eig_order(result, m) -> int:
    return 2 * m.rows if m.is_complex else m.rows


def _extract_bytes(result, m, s) -> int:
    return int(result.data.nbytes)


def _candidate_points(result, f, g) -> int:
    """Size of the union of both jump sets, the candidate set sup_distance
    scans; both arrays are sorted and duplicate-free."""
    small, large = sorted((f.jumps, g.jumps), key=len)
    at = np.minimum(np.searchsorted(large, small), large.size - 1)
    common = int(np.count_nonzero(large[at] == small))
    return int(small.size + large.size - common)


WORK = {
    "linalg.eig": _eig_order,
    "sampling.extract": _extract_bytes,
    "spectra.sup_distance": _candidate_points,
}


class Tracer:
    """In-memory span recorder for one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        # distinct oracle problems seen: (matrix bytes, k, mode) -> C(n, k)
        self.oracle_problems: dict[tuple, int] = {}

    def span(self, name: str, fn: Callable, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.run_id, 0]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)
        is_oracle = name.startswith("oracle.") and name != "oracle.chaining"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_oracle:
                self._note_oracle_problem(args, kwargs)
            index = len(self.spans)
            result = self.span(name, fn, *args, **kwargs)
            if work is not None:
                self.spans[index][5] = self.span("trace", work, result, *args, **kwargs)
            return result

        return traced

    def _note_oracle_problem(self, args, kwargs) -> None:
        m, k = args[0], args[1]
        mode = next((a for a in args[2:] if isinstance(a, str)), kwargs.get("mode", "eigen"))
        key = (m.data.tobytes(), m.data.shape, k, mode)
        self.oracle_problems.setdefault(key, math.comb(m.rows, k))

    def dump(self, path: str, extra: dict) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans,
               "oracle_subsets": sum(self.oracle_problems.values()), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every subspec module-level name bound to it."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if (name == "subspec" or name.startswith("subspec.")) and mod is not None]
    for span_name, (module_name, functions) in TRACED.items():
        home = sys.modules[f"subspec.{module_name}"]
        for function_name in functions:
            original = getattr(home, function_name)
            wrapper = tracer.wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
