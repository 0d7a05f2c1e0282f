"""Differentially private post-processing for statistical-parity fair
regression: private histogram estimates of per-group score distributions,
a KS-ball-relaxed Wasserstein-barycenter LP, and randomized optimal
transports applied as post-processing maps."""

__version__ = "0.1.0"

from .barycenter_lp import BarycenterSolution, LpInstance, build_lp, monotone_coupling, solve
from .data_io import (AffineTransform, DatasetSchema, GroupedSamples, load_csv,
                      split_train_test)
from .dp_estimation import (PrivateEstimate, empirical_joint, estimate_private_dists,
                            group_weights, privatize_joint, renormalize_cdf)
from .errors import ConfigError, DataError, SolverFailure, UnknownGroupError
from .grid import Grid, discretize_many, make_grid
from .metrics import mse, statistical_parity_gap
from .pipeline import FairPostprocessor, estimate, fit, load
from .sweep import SweepConfig, SweepRow, lower_envelope, run_sweep
from .transport import extract_kernels, row_bands, sample_bins

__all__ = [
    "__version__",
    "AffineTransform", "BarycenterSolution", "ConfigError", "DataError",
    "DatasetSchema", "FairPostprocessor", "Grid", "GroupedSamples", "LpInstance",
    "PrivateEstimate", "SolverFailure", "SweepConfig",
    "SweepRow", "UnknownGroupError",
    "build_lp", "discretize_many", "empirical_joint", "estimate", "estimate_private_dists",
    "extract_kernels", "fit", "group_weights", "load", "load_csv", "lower_envelope",
    "make_grid", "monotone_coupling", "mse", "privatize_joint", "renormalize_cdf",
    "row_bands", "run_sweep", "sample_bins", "solve", "split_train_test",
    "statistical_parity_gap",
]
