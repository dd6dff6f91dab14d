"""
Error metrics against the exact sphere, opacity sweeps and power-law fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ProblemSpec, RadialGrid, l2_relative_error
from .reformed import ReformedScheme, err0, new_idsa_stationary_closed_form, reconstruct_moments
from .sphere import MomentTriple, exact_moments, free_streaming_closures


@dataclass(frozen=True)
class ConvergenceRecord:
    kappa: float
    errJ: float
    errH: float
    errK: float
    failure: str | None = None


@dataclass(frozen=True)
class FitResult:
    exponent: float
    intercept: float
    points_used: int


def fit_power_law(xs, ys) -> FitResult:
    """Least-squares slope of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two same-length 1D arrays with at least 2 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs positive data")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return FitResult(exponent=float(slope), intercept=float(intercept), points_used=xs.size)


def err0_curve(kappaR_list) -> list[tuple[float, float]]:
    """Tabulated closed-form center error of the "new" variant."""
    return [(float(x), err0(x)) for x in kappaR_list]


def oracle_moments_for(
    kappa_list, grid: RadialGrid, R: float, B: float, tol: float = 1e-10,
    stats: dict | None = None,
) -> dict[float, MomentTriple]:
    """Exact moments per opacity on a shared grid (reused across sweeps);
    ``stats``, if given, counts the quadrature's work over all of them."""
    return {
        float(k): exact_moments(grid, ProblemSpec(B=B, R=R, kappa=float(k)), tol, stats)
        for k in kappa_list
    }


def stationary_state(variant: str, spec: ProblemSpec, grid: RadialGrid):
    """
    Stationary state of a variant: the closed form for "new"; for "old" the
    direct solve of the scheme's stationary linear system, not a march, so
    no step or tolerance enters.
    """
    if variant == "new":
        return new_idsa_stationary_closed_form(grid, spec)
    return ReformedScheme(variant, spec, grid).stationary_direct()


def convergence_sweep(
    kappa_list,
    R: float,
    B: float,
    grid: RadialGrid,
    variant: str,
    oracle: dict[float, MomentTriple],
) -> list[ConvergenceRecord]:
    """
    Shell-weighted relative L2 errors of a variant's stationary J, H, K
    (``stationary_state``) against ``oracle``, the exact moments per opacity
    on ``grid`` (``oracle_moments_for``), one record per opacity.  Solver
    failures are recorded on the failing row instead of aborting the sweep;
    an opacity missing from ``oracle`` raises KeyError.
    """
    closures = free_streaming_closures(grid.r_centers, R)
    records = []
    for kap in kappa_list:
        kap = float(kap)
        spec = ProblemSpec(B=B, R=R, kappa=kap)
        moments = oracle[kap]  # a missing opacity is the caller's error, not a solver failure
        try:
            approx = reconstruct_moments(stationary_state(variant, spec, grid), closures)
            records.append(
                ConvergenceRecord(
                    kappa=kap,
                    errJ=l2_relative_error(approx.J, moments.J),
                    errH=l2_relative_error(approx.H, moments.H),
                    errK=l2_relative_error(approx.K, moments.K),
                )
            )
        except Exception as exc:  # noqa: BLE001 - annotate and continue the sweep
            records.append(
                ConvergenceRecord(kappa=kap, errJ=np.nan, errH=np.nan, errK=np.nan,
                                  failure=f"{type(exc).__name__}: {exc}")
            )
    return records
