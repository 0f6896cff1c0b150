"""Numerical laboratory for the spectra of random r-uniform hypergraph
matrices: ensemble construction, limiting laws, distances, and reproducible
Monte-Carlo experiment suites."""

from . import combinatorics, experiments, gham, laws, metrics, spectra
from .combinatorics import (
    HypergraphSample,
    ModelParams,
    SamplingBudgetError,
    sample_hypergraph,
)
from .experiments import ExperimentConfig, ExperimentRecord, run_experiment
from .gham import (
    adjacency_from_hypergraph,
    covariance_params,
    gham_from_adjacency,
    laplacian,
    laplacian_tilde,
    sample_surrogate,
)
from .laws import (
    EmpiricalLaw,
    FreeConvolutionLaw,
    GaussianLaw,
    SemicircleLaw,
    free_additive_convolution,
)
from .metrics import bl_upper_bound, hausdorff_spectra, ks_distance, w1_distance
from .spectra import Scaling, symmetric_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "combinatorics",
    "experiments",
    "gham",
    "laws",
    "metrics",
    "spectra",
    "HypergraphSample",
    "ModelParams",
    "SamplingBudgetError",
    "sample_hypergraph",
    "ExperimentConfig",
    "ExperimentRecord",
    "run_experiment",
    "adjacency_from_hypergraph",
    "covariance_params",
    "gham_from_adjacency",
    "laplacian",
    "laplacian_tilde",
    "sample_surrogate",
    "EmpiricalLaw",
    "FreeConvolutionLaw",
    "GaussianLaw",
    "SemicircleLaw",
    "free_additive_convolution",
    "bl_upper_bound",
    "hausdorff_spectra",
    "ks_distance",
    "w1_distance",
    "Scaling",
    "symmetric_eigenvalues",
]
