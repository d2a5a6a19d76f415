"""Becker-Doring cluster kinetics at desk scale.

Rate families with detailed balance, subcritical equilibria, a
mass-conserving truncated integrator, tail-density transforms, a
Metzler-matrix sign-preservation checker, constructive dominating
sequences, and an experiment harness that certifies uniform-in-time
moment bounds.
"""
from .coefficients import (
    AssumptionReport,
    CoefficientModel,
    DetailedBalance,
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
    density_at_activity,
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
    UnboundedGrowthConstantError,
)
from .experiments import (
    ExperimentConfig,
    ShortTimeBound,
    UniformBoundReport,
    detect_threshold,
    emit_report,
    run_uniform_moment_experiment,
    short_time_constant,
)
from .maximum_principle import (
    DominationReport,
    MetzlerSystem,
    build_tail_comparison_matrix,
    check_domination,
    verify_sign_preservation,
)
from .solver import (
    ClusterState,
    IntegrateOptions,
    Trajectory,
    density,
    integrate,
    moment,
    net_rates,
    rhs,
    stretched_moment,
    weak_form_residual,
)
from .supersolution import (
    Supersolution,
    SupersolutionParams,
    build_supersolution,
    choose_lambda,
    make_params,
    verify_supersolution,
    weighted_sum_bound,
)
from .tails import (
    StretchedWeights,
    TailDensity,
    stretched_sandwich_check,
    stretched_weights,
    tail_density,
    tail_moment,
    tail_rhs,
)

__version__ = "0.1.0"
