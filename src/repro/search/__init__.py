"""Neural dropout search: SPOS supernet + evolutionary optimization.

This package is the paper's core contribution: the layer-wise dropout
search space (Sec. 3.2), one-shot supernet training (Sec. 3.3), the
evolutionary algorithm with the scalarized aim of Eq. (2) (Sec. 3.4),
and Pareto / exhaustive analysis tooling (Sec. 4.1, Fig. 4).
"""

from repro.search.async_ea import (
    AsyncEAConfig,
    AsyncEvolutionarySearch,
    AsyncSearchResult,
    FidelityRung,
    RungStats,
)
from repro.search.evaluator import (
    BatchedEvaluator,
    CandidateEvaluator,
    CandidateResult,
)
from repro.search.evolution import (
    EvolutionConfig,
    EvolutionarySearch,
    GenerationStats,
    SearchResult,
    crossover_configs,
    initial_population,
    mutate_config,
    propose_novel,
    random_search,
)
from repro.search.exhaustive import (
    METRIC_DIRECTIONS,
    best_by_aim,
    evaluate_all,
    metric_matrix,
    pareto_results,
)
from repro.search.parallel import ParallelEvaluator
from repro.search.objective import (
    ACCURACY_OPTIMAL,
    AIM_PRESETS,
    APE_OPTIMAL,
    BALANCED,
    ECE_OPTIMAL,
    LATENCY_OPTIMAL,
    SearchAim,
    get_aim,
)
from repro.search.pareto import (
    MAXIMIZE,
    MINIMIZE,
    dominates,
    is_on_front,
    pareto_front,
    pareto_mask,
)
from repro.search.space import (
    DropoutConfig,
    SearchSpace,
    SlotSpec,
    config_from_string,
    config_to_string,
)
from repro.search.supernet import Supernet
from repro.search.trainer import (
    MemoryCheckpointer,
    TrainCheckpoint,
    TrainConfig,
    TrainLog,
    train_standalone,
    train_supernet,
)

__all__ = [
    "ACCURACY_OPTIMAL",
    "AIM_PRESETS",
    "APE_OPTIMAL",
    "BALANCED",
    "ECE_OPTIMAL",
    "LATENCY_OPTIMAL",
    "MAXIMIZE",
    "METRIC_DIRECTIONS",
    "MINIMIZE",
    "AsyncEAConfig",
    "AsyncEvolutionarySearch",
    "AsyncSearchResult",
    "BatchedEvaluator",
    "FidelityRung",
    "RungStats",
    "MemoryCheckpointer",
    "ParallelEvaluator",
    "CandidateEvaluator",
    "CandidateResult",
    "DropoutConfig",
    "EvolutionConfig",
    "EvolutionarySearch",
    "GenerationStats",
    "SearchAim",
    "SearchResult",
    "SearchSpace",
    "SlotSpec",
    "Supernet",
    "TrainCheckpoint",
    "TrainConfig",
    "TrainLog",
    "best_by_aim",
    "config_from_string",
    "config_to_string",
    "crossover_configs",
    "dominates",
    "evaluate_all",
    "get_aim",
    "initial_population",
    "is_on_front",
    "metric_matrix",
    "mutate_config",
    "pareto_front",
    "pareto_mask",
    "pareto_results",
    "propose_novel",
    "random_search",
    "train_standalone",
    "train_supernet",
]
