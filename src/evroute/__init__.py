"""Multi-day electric-vehicle routing with parallel charging.

A single vehicle visits time-fixed and time-flexible events across several
days, charging in parallel with events at preselected stations.  The
package provides the model types and validator, an exhaustive oracle and a
branch-and-bound exact solver, tabu search, adaptive large neighborhood
search and ant colony optimization, a seeded instance generator, a Big-M
linear-model emitter and a benchmark harness with a CLI.
"""

from .bench import (
    BenchConfig,
    SolverReport,
    hybrid_dispatch,
    quality,
    quality_shift,
    run_benchmark,
)
from .core import (
    ChargingOption,
    ConstraintId,
    EventNode,
    Instance,
    NodeKind,
    Schedule,
    StationMeta,
    Violation,
    Weights,
    evaluate_objective,
    normalize_weights,
    objective_lower_bound,
    objective_value,
    separator_ref,
    validate,
)
from .errors import (
    EvrouteError,
    GenerationFailedError,
    InstanceFormatError,
    InstanceTooLargeError,
    NoInitialSolutionError,
    NoSolutionFoundError,
    UnsupportedVersionError,
)
from .exact import (
    BnBConfig,
    ExactResult,
    LinearModel,
    SolveStatus,
    linearize,
    oracle,
    solve_completion,
    solve_exact,
)
from .gen import (
    GenConfig,
    StationCandidate,
    charging_score,
    generate,
    load,
    preselect_station,
    save,
)
from .meta import (
    AcoParams,
    AlnsParams,
    Move,
    SearchTrace,
    TsParams,
    aco,
    aco_select,
    alns,
    pheromone_update,
    tabu_search,
)
from .schedule import (
    anchored_sequence,
    assemble_schedule,
    bfd_initial,
    plan_charging,
    propagate_times,
    waiting_slack,
)

__version__ = "0.1.0"
