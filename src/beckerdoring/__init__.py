"""Becker-Doring cluster kinetics at desk scale.

Rate families with detailed balance, subcritical equilibria, a
mass-conserving truncated integrator, tail-density transforms, a
tail-domination check, constructive dominating sequences, and an
experiment harness that certifies uniform-in-time moment bounds.
"""
from .coefficients import (
    AssumptionReport,
    CoefficientModel,
    Family,
    check_assumptions,
    detailed_balance,
    load_rate_table,
    make_custom_model,
    make_exponential_tail_model,
    make_power_law_model,
)
from .equilibrium import (
    CriticalValues,
    EquilibriumData,
    critical_values,
    equilibrium_profile,
    relative_free_energy,
    solve_monomer_activity,
)
from .errors import (
    BeckerDoringError,
    ConfigError,
    FreeEnergyDomainError,
    NoSwitchIndexError,
    NumericalError,
    ParameterError,
    PhiDecayError,
    StepSizeUnderflowError,
    SupercriticalError,
    TailNotDecayedError,
    UnboundedGrowthConstantError,
)
from .experiments import (
    ExperimentConfig,
    ShortTimeBound,
    UniformBoundReport,
    detect_threshold,
    emit_report,
    export_supersolution,
    read_supersolution,
    run_uniform_moment_experiment,
    short_time_constant,
)
from .maximum_principle import (
    DominationReport,
    check_domination,
)
from .solver import (
    IntegrateOptions,
    Trajectory,
    density,
    integrate,
)
from .supersolution import (
    Supersolution,
    SupersolutionParams,
    anchor_index,
    build_supersolution,
    make_params,
    verify_supersolution,
    weighted_sum_bound,
)
from .tails import (
    StretchedWeights,
    stretched_weights,
    tail_density,
)

__version__ = "0.1.0"
