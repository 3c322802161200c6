"""Spectral distributions of random submatrices.

Sample principal (or rectangular) submatrices of a fixed matrix, estimate
how concentrated their empirical spectral distributions are around the
expected one, compute the same laws exactly at small scale, and verify the
closed-form concentration bounds, including the random-transpositions walk
they rest on.
"""

from .ensembles import (EnsembleSpec, half_ones_diagonal, load_matrix, random_symmetric,
                        rw_covariance, save_matrix)
from .linalg import (DenseMatrix, Spectrum, eigenvalues_hermitian, gram, numerical_rank,
                     singular_values)
from .montecarlo import (EstimateReport, TailCurve, compare_tail, empirical_tail,
                         estimate_F, estimate_supnorm, pointwise_tail_bound,
                         supnorm_mean_bound, supnorm_tail_bound)
from .oracle import (ExactDistribution, chaining_check, exact_F, exact_supnorm_distribution,
                     halfones_exact_mean, subset_spectra)
from .sampling import (SubsetSample, Xoshiro256pp, derive_sample_seed, draw_subsets,
                       principal_submatrix, random_k_subset, row_submatrix, subset_spectrum)
from .spectra import (KsResult, StepCdf, cdf_to_csv, esd, ks_two_sample, quantile_grid,
                      sup_distance)
from .walk import (FunctionOnSn, WalkReport, dirichlet_form, esd_observable, kernel_matrix,
                   rank_step_check, spectral_gap, triple_norm, variance_mu,
                   verify_gap_concentration, verify_kernel, verify_triple_norm_bound)

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix", "Spectrum", "eigenvalues_hermitian", "gram", "singular_values",
    "numerical_rank",
    "StepCdf", "KsResult", "esd", "sup_distance", "ks_two_sample",
    "quantile_grid", "cdf_to_csv",
    "EnsembleSpec", "rw_covariance", "half_ones_diagonal", "random_symmetric",
    "load_matrix", "save_matrix",
    "SubsetSample", "Xoshiro256pp", "derive_sample_seed",
    "random_k_subset", "draw_subsets", "principal_submatrix", "row_submatrix",
    "subset_spectrum",
    "EstimateReport", "TailCurve", "estimate_F", "estimate_supnorm", "empirical_tail",
    "compare_tail", "supnorm_tail_bound", "supnorm_mean_bound", "pointwise_tail_bound",
    "ExactDistribution", "exact_F", "exact_supnorm_distribution",
    "halfones_exact_mean", "chaining_check", "subset_spectra",
    "FunctionOnSn", "WalkReport", "kernel_matrix", "verify_kernel", "spectral_gap",
    "dirichlet_form", "variance_mu", "triple_norm", "esd_observable",
    "verify_triple_norm_bound", "verify_gap_concentration", "rank_step_check",
]
