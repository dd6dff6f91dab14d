"""
idsa-lab: two-component radiative transfer approximations on the
homogeneous-sphere benchmark, with the exact solution as ground truth.
"""

__version__ = "0.1.0"

from .grids import (
    DegenerateNormError,
    ProblemSpec,
    RadialField,
    RadialGrid,
    l2_relative_error,
    make_uniform_grid,
    pointwise_relative_error,
    shell_l2_norm,
)
from .idsa import (
    NegativityError,
    Regime,
    RunRecord,
    Schedule,
    SolverConfig,
    TwoComponentState,
    UnboundedError,
    run_instability_experiment,
    run_spurious_trapped_experiment,
    run_to_time,
)
from .quadrature import QuadratureError, integrate_batch
from .reformed import (
    NormalizationSingularityError,
    ReformedScheme,
    err0,
    new_idsa_stationary_closed_form,
    reconstruct_moments,
)
from .sphere import (
    FluxFactors,
    MomentTriple,
    NoNeutrinosphereError,
    SpecialValues,
    exact_distribution,
    exact_moments,
    flux_factors_infinite,
    free_streaming_closures,
    free_streaming_flux_ratio,
    limit_moments_infinite_kappa,
    moments_at,
    neutrinosphere_radius,
    special_values,
)
from .diagnostics import (
    ConvergenceRecord,
    FitResult,
    convergence_sweep,
    err0_curve,
    fit_power_law,
    oracle_moments_for,
    stationary_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
