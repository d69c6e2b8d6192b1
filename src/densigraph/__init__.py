"""densigraph: simulation and connection-density inference for binary
interacting chains coupled through a random directed graph."""

from .estimators import MomentEstimates, estimate_all
from .forward import default_burnin, simulate, zero_state
from .inversion import (InversionResult, denominator, forward_map_values,
                        invert, invert_triple)
from .limits import TheoreticalLimits, fixed_points, limit_inversion, limits
from .model import (Environment, InputError, ModelParams, Partition,
                    Trajectory, build_partition, load_environment,
                    load_trajectory, sample_environment, save_environment,
                    save_trajectory, transition_probabilities)
from .oracles import (binomial_mixture_shat, coalescence_probability,
                      exact_stationary)
from .perfect import (DepthExceededError, SiteField, default_max_depth,
                      perfect_sample)

__version__ = "0.1.0"

__all__ = [
    "MomentEstimates", "estimate_all",
    "default_burnin", "simulate", "zero_state",
    "InversionResult", "denominator", "forward_map_values", "invert",
    "invert_triple",
    "TheoreticalLimits", "fixed_points", "limit_inversion", "limits",
    "Environment", "InputError", "ModelParams", "Partition", "Trajectory",
    "build_partition", "load_environment", "load_trajectory",
    "sample_environment", "save_environment", "save_trajectory",
    "transition_probabilities",
    "binomial_mixture_shat", "coalescence_probability", "exact_stationary",
    "DepthExceededError", "SiteField", "default_max_depth", "perfect_sample",
]
