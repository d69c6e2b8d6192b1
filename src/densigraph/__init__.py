"""densigraph: simulation and connection-density inference for binary
interacting chains coupled through a random directed graph."""

from .estimators import (MomentEstimates, estimate_all, spatial_variance,
                         spatio_temporal_mean, temporal_variance, w_delta)
from .forward import default_burnin, simulate, zero_state
from .inversion import (InversionResult, LimitTriple, NonInvertibleError,
                        denominator, forward_map, forward_map_values, invert,
                        invert_triple, inverse_map, kappa, phi1, root_d,
                        select_branch)
from .limits import (TheoreticalLimits, limit_inversion, limits, solve_c,
                     solve_m)
from .model import (Environment, InputError, ModelParams, Partition,
                    Trajectory, build_partition, load_environment,
                    load_trajectory, sample_environment, save_environment,
                    save_trajectory, transition_probabilities,
                    transition_probability)
from .oracles import (ExactDistribution, binomial_mixture_shat,
                      coalescence_probability_mc, covariance_mc,
                      exact_stationary, tv_distance)
from .perfect import (BackwardWalk, DepthExceededError, SiteDraw, SiteField,
                      backward_walk, default_max_depth, perfect_sample,
                      site_draw)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
