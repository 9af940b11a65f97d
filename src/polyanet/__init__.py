"""Polya network contagion: simulation, exact oracles, and allocation policies."""

from .engine import UrnState, as_schedule, iter_draws
from .graph import (
    DisconnectedGraphError,
    GraphFormatError,
    Network,
    TargetSet,
    all_pairs_distances,
    closeness_centrality,
    generate_barabasi_albert,
    inner_nodes,
    load_network,
    outer_nodes,
    parse_network,
    save_network,
    target_set_dense,
    target_set_layered,
)
from .harness import (
    ComparisonResult,
    ExperimentConfig,
    SummarySeries,
    emit,
    run_arms,
    run_experiment,
    trial_generator,
)
from .optimize import (
    DescentConfig,
    FrankWolfeResult,
    GameSolution,
    frank_wolfe_simplex,
    nash_solve,
    optimize_cure_step,
    optimize_init,
)
from .oracle import (
    EnumerationCapError,
    ExposureObjective,
    PathProbability,
    average_infection_rate,
    expected_exposure,
    infection_rate_time1,
    iter_path_probabilities,
    joint_probability,
    partition_sanity,
)
from .policies import StrategySpec, cure_allocator, init_allocation

__version__ = "0.1.0"
