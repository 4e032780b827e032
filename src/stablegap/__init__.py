"""Simulation and verification toolkit for the Wasserstein gap between
SDEs driven by alpha-stable noise and their Brownian counterparts."""

from .config import (
    DEFAULT_ALPHA_GRID,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from .errors import CapacityError, DomainError, IntegrationError, InvariantError
from .experiments import (
    RateFit,
    derive_stream,
    fit_rate,
    load_results,
    parallel_map,
    run_alpha_sweep,
    run_contraction,
    run_dim_sweep,
    run_gradient_check,
    run_selftest,
    run_transient,
    worker_count,
    write_csv,
)
from .ou import (
    OuLaw,
    gammalower_check,
    ou_stationary_sample,
    ou_w1_lower_exact,
)
from .rng import RngStream, as_generator
from .sampling import (
    StableModel,
    empirical_char_function,
    sample_stable_increment,
    sample_subordinator_increment,
)
from .sde import (
    DriftSpec,
    ergodic_sample,
    integrate_coupled_ensemble,
    integrate_ensemble,
)
from .specfun import (
    crate_bound_fit,
    log_gamma,
    mean_norm_prefactor,
    phi,
    ratio_minus_one,
    sphere_surface,
    stable_intensity_constant,
    stable_mean_norm,
    subordinator_neg_moment,
)
from .wasserstein import (
    ASSIGNMENT_CAP,
    EmpiricalMeasure,
    W1Estimate,
    bootstrap_stderr,
    w1_assignment,
    w1_estimate,
    w1_exact_1d,
    w1_mean_norm_lower,
    w1_sliced,
)

__version__ = "0.1.0"

__all__ = [
    "ASSIGNMENT_CAP",
    "CapacityError",
    "DEFAULT_ALPHA_GRID",
    "DomainError",
    "DriftSpec",
    "EmpiricalMeasure",
    "ExperimentConfig",
    "IntegrationError",
    "InvariantError",
    "OuLaw",
    "RateFit",
    "RngStream",
    "StableModel",
    "W1Estimate",
    "as_generator",
    "bootstrap_stderr",
    "crate_bound_fit",
    "derive_stream",
    "empirical_char_function",
    "ergodic_sample",
    "fit_rate",
    "gammalower_check",
    "integrate_coupled_ensemble",
    "integrate_ensemble",
    "load_config",
    "load_results",
    "log_gamma",
    "mean_norm_prefactor",
    "ou_stationary_sample",
    "ou_w1_lower_exact",
    "parallel_map",
    "parse_config_text",
    "phi",
    "ratio_minus_one",
    "run_alpha_sweep",
    "run_contraction",
    "run_dim_sweep",
    "run_gradient_check",
    "run_selftest",
    "run_transient",
    "sample_stable_increment",
    "sample_subordinator_increment",
    "sphere_surface",
    "stable_intensity_constant",
    "stable_mean_norm",
    "subordinator_neg_moment",
    "w1_assignment",
    "w1_estimate",
    "w1_exact_1d",
    "w1_mean_norm_lower",
    "w1_sliced",
    "worker_count",
    "write_csv",
]
