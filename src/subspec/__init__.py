"""Spectral distributions of random submatrices.

Sample principal (or rectangular) submatrices of a fixed matrix, estimate
how concentrated their empirical spectral distributions are around the
expected one, compute the same laws exactly at small scale, and verify the
closed-form concentration bounds, including the random-transpositions walk
they rest on.

Each public name is loaded from its module on first use (PEP 562): `import
subspec` loads no numpy and sets no environment variable (see `cli`).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports; drives both __all__ and __getattr__
_EXPORTS = {
    "linalg": ("DenseMatrix", "Spectrum", "eigenvalues_hermitian", "gram", "singular_values",
               "numerical_rank"),
    "spectra": ("StepCdf", "KsResult", "esd", "sup_distance", "ks_two_sample", "quantile_grid",
                "cdf_to_csv"),
    "ensembles": ("make_matrix", "rw_covariance", "half_ones_diagonal", "random_symmetric",
                  "load_matrix", "save_matrix"),
    "sampling": ("SubsetSample", "Xoshiro256pp", "derive_sample_seed", "random_k_subset",
                 "draw_subsets", "principal_submatrix", "row_submatrix", "subset_spectrum"),
    "montecarlo": ("EstimateReport", "TailCurve", "estimate_F", "estimate_supnorm",
                   "empirical_tail", "compare_tail", "supnorm_tail_bound", "supnorm_mean_bound",
                   "pointwise_tail_bound"),
    "oracle": ("ExactDistribution", "exact_F", "exact_supnorm_distribution", "halfones_exact_mean",
               "chaining_check", "subset_spectra"),
    "walk": ("FunctionOnSn", "kernel_matrix", "spectral_gap",
             "dirichlet_form", "variance_mu", "triple_norm", "esd_observable",
             "verify_triple_norm_bound", "verify_gap_concentration", "rank_step_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
