"""Continuous-time latent-state inference for event sequences.

An action-switched semi-Markov jump process is fit to timestamped
(observation, action) streams by alternating virtual-jump-time resampling
(uniformization) with discrete-chain EM. The package also ships the
two-box foraging world used to validate recovered states against a
planner with known beliefs, plus the correspondence/co-clustering and
operator-subgraph analyses of the fitted models.
"""

__version__ = "0.1.0"

from .core import (
    Alphabet,
    GeneratorMatrix,
    SmjpError,
    StochasticMatrix,
    derive_rng,
    matrix_exponential,
    validate_generator,
)
from .ctmc import (
    LatentTrajectory,
    TimeGrid,
    build_time_grid,
    default_omega,
    gillespie_sample,
    sample_virtual_times,
    uniformize,
)
from .events import EventSequence, parse_event_file, split_chronological, write_event_file
from .switching import (
    FitConfig,
    FitReport,
    ForwardBackwardResult,
    SwitchingSMJP,
    backward,
    fit,
    fit_best,
    forward,
    forward_backward,
    held_out_loglik,
    load_model,
    m_step,
    posterior_xi,
    save_model,
    select_num_states,
    update_generator,
)
from .foraging import (
    AgentTrace,
    BeliefMDP,
    ToyConfig,
    WorldConfig,
    belief_update,
    build_belief_mdp,
    generate_toy,
    simulate_agent,
    solve_belief_mdp,
    value_iteration,
)
from .analysis import (
    CoClustering,
    CorrespondenceMatrix,
    JointOperator,
    cocluster,
    extract_subgraphs,
    interval_stats,
    joint_operator,
    select_cocluster_sizes,
    state_correspondence,
)
from .quantize import quantize_locations

__all__ = [
    "Alphabet",
    "GeneratorMatrix",
    "StochasticMatrix",
    "SmjpError",
    "validate_generator",
    "matrix_exponential",
    "derive_rng",
    "LatentTrajectory",
    "TimeGrid",
    "gillespie_sample",
    "uniformize",
    "default_omega",
    "sample_virtual_times",
    "build_time_grid",
    "EventSequence",
    "parse_event_file",
    "write_event_file",
    "split_chronological",
    "SwitchingSMJP",
    "FitConfig",
    "FitReport",
    "ForwardBackwardResult",
    "forward",
    "backward",
    "posterior_xi",
    "forward_backward",
    "m_step",
    "update_generator",
    "fit",
    "fit_best",
    "held_out_loglik",
    "select_num_states",
    "save_model",
    "load_model",
    "WorldConfig",
    "BeliefMDP",
    "ToyConfig",
    "AgentTrace",
    "belief_update",
    "build_belief_mdp",
    "value_iteration",
    "solve_belief_mdp",
    "simulate_agent",
    "generate_toy",
    "CorrespondenceMatrix",
    "CoClustering",
    "JointOperator",
    "state_correspondence",
    "cocluster",
    "select_cocluster_sizes",
    "joint_operator",
    "extract_subgraphs",
    "interval_stats",
    "quantize_locations",
]
