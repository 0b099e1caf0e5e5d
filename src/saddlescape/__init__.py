"""Momentum methods near strict saddle points of nonconvex quadratics.

Spectral analysis of the heavy-ball iteration map, per-iteration divergence
rates for the general accelerated framework, and deterministic escape-time
experiments.
"""

__version__ = "0.1.0"

from .problems import (
    QuadraticProblem,
    random_orthogonal,
    random_problem,
    sample_unit_ball,
    toy_problem,
)
from .schedules import (
    SCHEDULE_KINDS,
    AttouchSchedule,
    ConstantSchedule,
    MomentumSchedule,
    NesterovSchedule,
    PolyakSchedule,
    ScheduleError,
    TkPropertyReport,
    ToySchedule,
    nesterov_t,
    params_array,
    polyak_params,
    schedule_from_json_dict,
    verify_tk_properties,
)
from .optimizers import (
    DIVERGENCE_CUTOFF,
    BatchRun,
    EqualStart,
    IterationTrace,
    PerturbedStart,
    StartPolicy,
    escape_time,
    iterate,
    run_accelerated,
    run_gradient_descent,
    run_heavy_ball,
)
from .spectral import (
    ConditionError,
    EigenPair,
    ParamCheck,
    SpectrumClassification,
    apply_iteration_map,
    block_eigenvalues,
    blocks_csv,
    classify_saddle_map,
    invert_iteration_map,
    param_conditions,
    unstable_eigenvector,
)
from .rates import (
    RateLimit,
    RateSequence,
    escape_bounds,
    predicted_escape_iters,
    product_reconstruction,
    rate_limit,
    rate_sequence,
)
from .experiments import (
    NegspaceSeries,
    TableResult,
    TableRow,
    ToyFigure,
    TrialRecord,
    divergence_table,
    negspace_experiment,
    toy_figure,
)
from .seeding import rng_from
