"""Formation control with noise-restrained gradient actions.

Agents hold a desired set of relative poses in R^3 x S^1 using noisy
relative pose measurements of their neighbors. The package provides the
control law as one array kernel over observed edges (plain gradient descent
and its noise-restrained variant), the relative-pose sensor model on arrays,
a seeded discrete-time simulator, the one-dimensional stochastic analysis
that predicts steady-state behavior in closed form, and rigidity based
stability audits.
"""

__version__ = "0.1.0"

from .control import ControllerConfig, agent_commands, edge_terms
from .core import AgentPose, std_normal_cdf, std_normal_quantile, wrap_angle
from .graphs import (ObservationGraph, count_passive_sinks, fiedler_value,
                     is_connected)
from .oned import (OneDConfig, expected_coherence_time,
                   kl_divergence_gaussianity, run_1d_ensemble,
                   sigma_ss_proportional, sigma_ss_restrained)
from .sensors import (SensorSpec, covariance_sigmas, perturb,
                      position_covariance)
from .sim import (RunRecord, Scenario, ScenarioError, builtin_scenarios,
                  formation_error, heading_loop_gain, run, sweep)

__all__ = [
    "AgentPose", "ControllerConfig", "ObservationGraph", "OneDConfig",
    "RunRecord", "Scenario", "ScenarioError", "SensorSpec", "agent_commands",
    "builtin_scenarios", "count_passive_sinks", "covariance_sigmas",
    "edge_terms", "expected_coherence_time", "fiedler_value",
    "formation_error", "heading_loop_gain", "is_connected",
    "kl_divergence_gaussianity", "perturb", "position_covariance", "run",
    "run_1d_ensemble", "sigma_ss_proportional", "sigma_ss_restrained",
    "std_normal_cdf", "std_normal_quantile", "sweep", "wrap_angle",
    "__version__",
]
