import numpy as np
import pytest

from idsa_lab import (
    ProblemSpec,
    ReformedScheme,
    SolverConfig,
    err0,
    exact_moments,
    make_uniform_grid,
)
from idsa_lab.diagnostics import (
    convergence_sweep,
    err0_curve,
    fit_power_law,
    oracle_moments_for,
    stationary_state,
)
from idsa_lab.reformed import reconstruct_moments
from idsa_lab.sphere import free_streaming_closures

CFG = SolverConfig(dt=0.1, t_end=400.0, stationarity_tol=1e-10)


def test_fit_power_law_two_points():
    fit = fit_power_law([1.0, 100.0], [1.0, 0.1])
    assert fit.exponent == pytest.approx(-0.5, rel=1e-12)
    assert fit.points_used == 2

@pytest.mark.parametrize("variant", ["NEW", "Old", "new ", "closed"])
def test_stationary_state_takes_exactly_old_or_new(variant):
    # "NEW" returned the new scheme's direct solve, which ReformedScheme
    # lower-cased it to, in place of the closed form.
    spec, grid = ProblemSpec(B=1.0, R=6.0, kappa=5.0), make_uniform_grid(18.0, 90)
    with pytest.raises(ValueError, match=f"got {variant!r}"):
        stationary_state(variant, spec, grid)
    with pytest.raises(ValueError, match=f"got {variant!r}"):
        ReformedScheme(variant, spec, grid)



def test_fit_power_law_constant():
    fit = fit_power_law([1.0, 10.0], [3.0, 3.0])
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0], [1.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])


def test_err0_curve():
    pts = err0_curve([0.1, 6.0, 10.0, 50.0])
    assert pts[1][1] == pytest.approx(err0(6.0))
    assert 0.5 < abs(pts[0][1]) <= 1.0  # translucent sphere: order-one error
    assert abs(pts[3][1]) < abs(pts[2][1]) < abs(pts[1][1])


def test_old_stationary_state_is_the_direct_solve():
    # No march: a 1-step t_end or a loose tolerance would change a marched state.
    grid = make_uniform_grid(18.0, 300)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=2.0)
    state = stationary_state("old", spec, grid)
    for cfg in (CFG, SolverConfig(dt=0.1, t_end=0.1, stationarity_tol=0.5)):
        direct = ReformedScheme("old", spec, grid, cfg).stationary_direct()
        assert np.array_equal(state.Jt.values, direct.Jt.values)
        assert np.array_equal(state.Js.values, direct.Js.values)


def test_sweep_zero_for_injected_identical_fields():
    grid = make_uniform_grid(18.0, 300)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=2.0)
    state = stationary_state("new", spec, grid)
    fake_oracle = {2.0: reconstruct_moments(state, free_streaming_closures(grid.r_centers, 6.0))}
    rec = convergence_sweep([2.0], 6.0, 1.0, grid, "new", fake_oracle)[0]
    assert rec.errJ == 0.0 and rec.errH == 0.0 and rec.errK == 0.0
    assert rec.failure is None


def test_sweep_rejects_an_opacity_its_oracle_lacks():
    # A caller's error, not a solver failure: it used to become a row
    # reading "KeyError: 3.0".
    grid = make_uniform_grid(18.0, 300)
    oracle = oracle_moments_for([2.0], grid, 6.0, 1.0)
    with pytest.raises(KeyError):
        convergence_sweep([3.0, 2.0], 6.0, 1.0, grid, "new", oracle)


def test_sweep_errors_decrease_for_new_variant():
    grid = make_uniform_grid(18.0, 750)
    kappas = [1.0, 4.0, 16.0]
    oracle = oracle_moments_for(kappas, grid, 6.0, 1.0)
    recs = convergence_sweep(kappas, 6.0, 1.0, grid, "new", oracle)
    errs = [r.errJ for r in recs]
    assert errs[0] > errs[1] > errs[2]
    fit = fit_power_law(kappas, errs)
    assert -0.9 < fit.exponent < -0.3


def test_sweep_annotates_failures():
    # The old variant needs at least two cells inside the interface; the
    # sweep must annotate the failing opacity instead of aborting.
    grid = make_uniform_grid(18.0, 3)
    oracle = oracle_moments_for([1.0], grid, 6.0, 1.0)
    recs = convergence_sweep([1.0], 6.0, 1.0, grid, "old", oracle)
    assert recs[0].failure is not None
    assert np.isnan(recs[0].errJ)


def test_sweep_closed_form_agrees_with_marched():
    # Self-consistency: errors from the closed form and from the marched
    # stationary state agree to discretization accuracy.
    grid = make_uniform_grid(18.0, 750)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    oracle = oracle_moments_for([1.0], grid, 6.0, 1.0)
    closed = convergence_sweep([1.0], 6.0, 1.0, grid, "new", oracle)[0]

    from idsa_lab.reformed import ReformedScheme

    marched = ReformedScheme("new", spec, grid, CFG).run_to_stationarity().final
    from idsa_lab import l2_relative_error

    errJ = l2_relative_error(marched.total(), oracle[1.0].J)
    # The marched state differs from the closed form at O(dr^2), which
    # perturbs the error functional by ~4e-4 relative on this grid.
    assert errJ == pytest.approx(closed.errJ, rel=2e-3)


def test_l2_error_cross_checked_with_trapezoid_rule():
    # Independent integration rule for the same error functional.
    grid = make_uniform_grid(18.0, 750)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    m = exact_moments(grid, spec, tol=1e-10)
    state = stationary_state("new", spec, grid)
    from idsa_lab import l2_relative_error

    ours = l2_relative_error(state.total(), m.J)
    r = grid.r_centers
    diff2 = (state.total().values - m.J.values) ** 2 * r**2
    ref2 = m.J.values**2 * r**2
    trapz = np.sqrt(np.trapezoid(diff2, r) / np.trapezoid(ref2, r))
    assert ours == pytest.approx(trapz, rel=0.05)
