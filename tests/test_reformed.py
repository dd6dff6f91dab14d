"""
Domain-split variant tests.  Frozen constants from 40-digit mpmath
evaluation of the closed-form stationary state at kappa=1, R=6, B=1.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsa_lab import (
    NegativityError,
    NormalizationSingularityError,
    ProblemSpec,
    ReformedScheme,
    SolverConfig,
    err0,
    free_streaming_closures,
    l2_relative_error,
    make_uniform_grid,
    new_idsa_stationary_closed_form,
    reconstruct_moments,
    reformed,
)
from idsa_lab import _native

SPEC = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
CFG = SolverConfig(dt=0.1, t_end=400.0, stationarity_tol=1e-10)

# mpmath references (kappa=1, R=6, B=1)
JT0_NEW = 0.99936258654712926298
C_NEW = -0.29279304447539918586
JT3_NEW = 0.988924678224430037
JS3_NEW = 0.0045360736172809617587
JR = 0.45833358934218138868
ERR0_6 = -0.0018459142878545804711
ERR0_10 = -0.000044361090408479750467


def grid_div3(n):
    assert n % 3 == 0
    return make_uniform_grid(18.0, n)


def test_closed_form_frozen_values():
    grid = make_uniform_grid(18.0, 3)  # centers 3, 9, 15
    st = new_idsa_stationary_closed_form(grid, SPEC)
    assert st.Jt.values[0] == pytest.approx(JT3_NEW, rel=1e-13)
    assert st.Js.values[0] == pytest.approx(JS3_NEW, rel=1e-12)
    shape = 1.0 - np.sqrt(1.0 - (6.0 / 9.0) ** 2)
    assert st.Js.values[1] == pytest.approx(JR * shape, rel=1e-13)
    assert st.Jt.values[1] == 0.0 and st.Jt.values[2] == 0.0


def test_closed_form_center_and_edge():
    grid = grid_div3(6000)
    st = new_idsa_stationary_closed_form(grid, SPEC)
    assert st.Jt.values[0] == pytest.approx(JT0_NEW, abs=1e-9)
    assert st.Js.values[0] == pytest.approx(0.0, abs=1e-3)
    assert st.Js.values[0] > 0.0
    # Trapped vanishes at the interface: last inside value is O(slope * dr).
    m = 2000
    slope = (1.0 / 6.0) * abs(1.0 - np.sqrt(3.0) * 6.0 / np.tanh(np.sqrt(3.0) * 6.0))
    assert 0.0 < st.Jt.values[m - 1] < 3.0 * slope * grid.dr
    # Edge streaming value approaches the exact J(R).
    r_last = grid.r_centers[m - 1]
    assert st.Js.values[m - 1] == pytest.approx(JR, rel=5e-3)


def test_closed_form_monotone_and_bounded():
    for kappa in (0.2, 1.0, 5.0, 25.0, 400.0):
        grid = grid_div3(3000)
        st = new_idsa_stationary_closed_form(grid, ProblemSpec(B=1.0, R=6.0, kappa=kappa))
        inside = grid.r_centers < 6.0
        assert np.all(np.diff(st.Jt.values[inside]) <= 1e-12)
        assert np.all(st.Js.values >= -1e-15)
        total = st.Jt.values + st.Js.values
        assert total.max() <= 1.0 + 1e-12


def test_closed_form_small_x_series_branch():
    # First centers of a fine grid exercise the series path (x < 0.05).
    grid = grid_div3(30000)
    st = new_idsa_stationary_closed_form(grid, ProblemSpec(B=1.0, R=6.0, kappa=0.01))
    assert np.all(np.isfinite(st.Js.values))
    assert st.Js.values[0] > 0.0
    # Linear growth near the origin: Js ~ r.
    ratio = st.Js.values[1] / st.Js.values[0]
    assert ratio == pytest.approx(grid.r_centers[1] / grid.r_centers[0], rel=1e-3)


def _edge_constants_mpmath(kappa, R):
    """q and C of reformed._edge_constants at 450 digits, enough for the
    1 - X coth X of about -(kappa R)^2 that kappa R = 6e-150 gives."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(450):
        kR = mpmath.mpf(kappa) * R
        X = mpmath.sqrt(3) * kR
        q = 1 - (1 - mpmath.exp(-2 * kR)) / (2 * kR)
        return float(q), float(R * q / (2 * (1 - X * mpmath.coth(X))))


# X = sqrt3 kappa R just above and just below the series' threshold 0.05,
# and far below it.
@pytest.mark.parametrize("kappa", [1.0, 0.0501 / (6.0 * math.sqrt(3.0)),
                                   0.0499 / (6.0 * math.sqrt(3.0)), 1e-8, 1e-9, 1e-12, 1e-150])
def test_edge_constants_match_mpmath_on_both_sides_of_the_series_threshold(kappa):
    q, C = reformed._edge_constants(kappa, 6.0)
    q_ref, C_ref = _edge_constants_mpmath(kappa, 6.0)
    assert q == pytest.approx(q_ref, rel=1e-12, abs=0.0)
    assert C == pytest.approx(C_ref, rel=1e-12, abs=0.0)
    if kappa == 1.0:
        assert C == pytest.approx(C_NEW, rel=1e-13)


@pytest.mark.parametrize("kappa", [1e-8, 1e-9, 1e-12, 1e-150])
def test_closed_form_is_finite_at_a_small_kappa_R(kappa):
    # 1 - X coth X cancelled: 3% off at kappa = 1e-8, 0/0 (NaN, with a
    # RuntimeWarning) below kappa R of about 6e-9.
    grid = grid_div3(90)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = new_idsa_stationary_closed_form(grid, ProblemSpec(B=1.0, R=6.0, kappa=kappa))
    # Nearly transparent: Js = J(R) r / R inside, J(R) = B kappa R / 2 to first order.
    inside = grid.r_centers < 6.0
    assert st.Js.values[inside] == pytest.approx(0.5 * kappa * grid.r_centers[inside], rel=1e-6)


def test_closed_form_satisfies_discrete_operator_at_second_order():
    # Residual of the closed form in the discrete stationary operator drops
    # by ~4x per dr halving at fixed radii.  (At fixed cell INDEX near the
    # origin the 1/r^2 amplification makes the row residual dr-independent,
    # ~2.1e-4/(i+1/2)^2, so the window keeps clear of r = 0; the Dirichlet
    # row itself is first-order, which the solution error does not inherit.)
    res = []
    for n in (750, 1500, 3000):
        grid = grid_div3(n)
        scheme = ReformedScheme("new", SPEC, grid, CFG)
        st = new_idsa_stationary_closed_form(grid, SPEC)
        m = scheme.m
        lower, diag, upper = scheme._L
        Jt = st.Jt.values[:m]
        op = diag * Jt
        op[:-1] += upper[:-1] * Jt[1:]
        op[1:] += lower[1:] * Jt[:-1]
        r = op + scheme._q
        rc = grid.r_centers[:m]
        window = (rc > 0.5) & (rc < 5.5)
        res.append(np.max(np.abs(r[window])))
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.25)
    assert res[1] / res[2] == pytest.approx(4.0, rel=0.25)


def test_new_marched_matches_direct_stationary():
    grid = grid_div3(900)
    scheme = ReformedScheme("new", SPEC, grid, CFG)
    run = scheme.run_to_stationarity()
    direct = scheme.stationary_direct()
    assert run.steps < 400
    assert l2_relative_error(run.final.total(), direct.total()) < 1e-8


def test_old_marched_matches_direct_stationary():
    grid = grid_div3(900)
    scheme = ReformedScheme("old", SPEC, grid, CFG)
    marched = scheme.run_to_stationarity().final
    direct = scheme.stationary_direct()
    assert l2_relative_error(marched.total(), direct.total()) < 1e-8


@settings(max_examples=60, deadline=2000)
@given(kappa=st.floats(0.5, 50.0), R=st.floats(2.0, 10.0), extra=st.integers(0, 200))
def test_new_direct_stationary_converges_to_closed_form_at_second_order(kappa, R, extra):
    # r_max = 3R and n a multiple of 3 put R on a face; kappa * dr <= 0.1
    # keeps the edge layer resolved.  At most 31200 cells per solve.
    spec = ProblemSpec(B=1.0, R=R, kappa=kappa)
    j = math.ceil(10.0 * kappa * R) + extra
    gaps = []
    for n in (3 * j, 6 * j):
        grid = make_uniform_grid(3.0 * R, n)
        direct = ReformedScheme("new", spec, grid, CFG).stationary_direct()
        closed = new_idsa_stationary_closed_form(grid, spec)
        gaps.append(l2_relative_error(direct.total(), closed.total()))
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


@settings(max_examples=20, deadline=2000)
@given(kappa=st.floats(0.5, 50.0), j=st.integers(30, 300))
def test_old_direct_stationary_matches_marched(kappa, j):
    # The march stops at a per-step change of 1e-10 relative; the gap it
    # leaves measured at most 6.4e-10 over this range.
    scheme = ReformedScheme("old", ProblemSpec(B=1.0, R=6.0, kappa=kappa), grid_div3(3 * j), CFG)
    marched = scheme.run_to_stationarity().final
    assert l2_relative_error(marched.total(), scheme.stationary_direct().total()) < 1e-8


def test_old_edge_streaming_overestimates():
    # The old variant feeds the outside with -(2/(3 kappa)) dJt/dr at the
    # edge.  The stationary edge layer of its trapped equation has decay
    # rate kappa, so that value tends to 2B/3 at high opacity, well above
    # the exact B/2 (the upwind advection smears the thin layer at O(dr),
    # hence the moderate opacity and resolved grid here).
    grid = grid_div3(3000)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=10.0)
    scheme = ReformedScheme("old", spec, grid, CFG)
    st = scheme.run_to_stationarity().final
    first_out = np.argmax(grid.r_centers >= 6.0)
    edge = st.Js.values[first_out - 1]
    assert 0.60 < edge < 0.68
    # The new variant pins the exact edge value by construction (the last
    # center sits half a cell inside, hence the O(sqrt(3) kappa dr) slack).
    st_new = new_idsa_stationary_closed_form(grid, spec)
    sv_JR = 0.5 * (1.0 + np.expm1(-2.0 * 10.0 * 6.0) / (2.0 * 10.0 * 6.0))
    new_edge = st_new.Js.values[scheme.m - 1]
    assert new_edge == pytest.approx(sv_JR, rel=0.08)
    assert edge > 1.25 * new_edge and edge > 1.2 * sv_JR


def test_states_scale_linearly_with_equilibrium_level():
    grid = grid_div3(600)
    for variant in ("old", "new"):
        s1 = ReformedScheme(variant, SPEC, grid, CFG).run_to_stationarity().final
        spec2 = ProblemSpec(B=2.5, R=6.0, kappa=1.0)
        s2 = ReformedScheme(variant, spec2, grid, CFG).run_to_stationarity().final
        assert np.allclose(s2.total().values, 2.5 * s1.total().values, rtol=1e-9, atol=1e-12)


_POWER_OF_TWO = st.integers(-30, 30).map(lambda k: 2.0**k)


@settings(max_examples=40, deadline=2000)
@given(
    variant=st.sampled_from(["old", "new"]),
    kappa=st.floats(0.5, 20.0),
    j=st.integers(10, 100),
    factor=st.one_of(_POWER_OF_TWO, st.floats(1e-3, 1e3)),
)
def test_marched_states_are_linear_in_the_equilibrium_level(variant, kappa, j, factor):
    # Every solve and check of the march is homogeneous in B: scaling B
    # scales the snapshots and the final state, and the stop comes at the
    # same step.  A power of two scales every rounding too, so bit for bit.
    grid = grid_div3(3 * j)

    def march(B):
        scheme = ReformedScheme(variant, ProblemSpec(B=B, R=6.0, kappa=kappa), grid, CFG)
        run = scheme.run_to_stationarity([0.1, 0.7])
        return run.steps, [(s.Jt.values, s.Js.values) for s in [*run.snapshots, run.final]]

    steps, states = march(1.0)
    scaled_steps, scaled = march(factor)
    assert scaled_steps == steps
    exact = math.frexp(factor)[0] == 0.5
    for (Jt, Js), (Jt_c, Js_c) in zip(states, scaled, strict=True):
        for x, x_c in ((Jt, Jt_c), (Js, Js_c)):
            if exact:
                assert np.array_equal(x_c, factor * x)
            else:
                assert np.allclose(x_c, factor * x, rtol=1e-9, atol=1e-12 * factor)


@pytest.fixture(params=["native", "numpy"])
def march_path(request, monkeypatch):
    """The test's marches on the native kernel, then on the numpy reference."""
    if request.param == "numpy":
        monkeypatch.setattr(_native, "load", lambda: None)
    elif _native.load() is None:
        pytest.skip("the native kernels cannot be built here")
    return request.param


def test_overflowing_source_is_rejected(march_path):
    # kappa * B overflows to inf; the solve rejects it, as LAPACK's caller
    # did, instead of marching NaN.
    scheme = ReformedScheme("old", ProblemSpec(B=1e308, R=6.0, kappa=10.0), grid_div3(300), CFG)
    with pytest.raises(ValueError, match="^right-hand side has non-finite entries$"):
        scheme.run_to_stationarity()


def test_tridiagonal_solve_rejects_mismatched_shapes():
    # The native solve reads n - 1, n and n - 1 diagonal entries and n
    # right-hand-side entries; other shapes must not reach it.
    from idsa_lab.reformed import _Tridiagonal

    with pytest.raises(ValueError, match="diagonals of lengths"):
        _Tridiagonal(np.ones(1), np.ones(3), np.ones(2))
    matrix = _Tridiagonal(np.ones(2), np.full(3, 4.0), np.ones(2))
    with pytest.raises(ValueError, match="right-hand side of shape"):
        matrix.solve(np.ones(4))
    assert np.allclose(matrix.solve(np.array([5.0, 6.0, 5.0])), 1.0)


def test_direct_solve_factors_only_its_own_matrix(monkeypatch):
    # The direct stationary solve never steps, so it factors -L and not the
    # step matrix I - dt L; a march factors I - dt L once for all its steps.
    factored = []

    class Counting(reformed._Tridiagonal):
        def __init__(self, dl, d, du):
            factored.append(d.copy())
            super().__init__(dl, d, du)

    monkeypatch.setattr(reformed, "_Tridiagonal", Counting)
    scheme = ReformedScheme("old", SPEC, grid_div3(300), CFG)
    assert factored == []
    scheme.stationary_direct()
    assert len(factored) == 1 and np.array_equal(factored[0], -scheme._L[1])
    assert scheme.run_to_stationarity().steps > 100 and len(factored) == 2
    assert np.array_equal(factored[1], 1.0 - CFG.dt * scheme._L[1])


def test_streaming_extension_flux_constant():
    grid = grid_div3(900)
    from idsa_lab import free_streaming_flux_ratio

    for variant in ("old", "new"):
        st = ReformedScheme(variant, SPEC, grid, CFG).run_to_stationarity().final
        out = grid.r_centers >= 6.0
        r = grid.r_centers[out]
        q = r**2 * free_streaming_flux_ratio(r, 6.0) * st.Js.values[out]
        assert np.max(np.abs(q / q[0] - 1.0)) < 5e-15


def test_closures_and_reconstruction():
    grid = grid_div3(900)
    h_s, k_s = closures = free_streaming_closures(grid.r_centers, 6.0)
    inside = grid.r_centers < 6.0
    assert np.all(h_s[inside] == 0.5)
    assert np.all(k_s[inside] == pytest.approx(1.0 / 3.0))
    st = ReformedScheme("new", SPEC, grid, CFG).run_to_stationarity().final
    moments = reconstruct_moments(st, closures)
    ff = moments.flux_factors()
    assert np.array_equal(moments.J.values, st.total().values)
    # Outside the sphere Jt = 0, so the reconstructed flux ratio equals the
    # opaque-sphere geometric one.
    out = ~inside
    assert np.allclose(ff.h.values[out], h_s[out], rtol=1e-14)
    # Inside, the Eddington factor is exactly 1/3.
    assert np.allclose(ff.k.values[inside], 1.0 / 3.0, atol=1e-15)
    assert np.array_equal(moments.H.values, h_s * st.Js.values)


def test_old_inside_closure_is_gradient_flux():
    # Inside cells: H = -(1/(3 kappa)) dJt/dr by construction of Js.
    grid = grid_div3(900)
    scheme = ReformedScheme("old", SPEC, grid, CFG)
    st = scheme.run_to_stationarity().final
    H = reconstruct_moments(st, free_streaming_closures(grid.r_centers, 6.0)).H
    grad, _ = scheme._gradient(st.Jt.values[: scheme.m])
    assert np.allclose(H.values[: scheme.m], -grad / 3.0, rtol=1e-13, atol=1e-16)


def test_old_diffusion_closure_mismatch_identity():
    # H_idsa differs from -(1/(3k)) d(J_idsa)/dr by exactly (2/(9k^2)) d2Jt/dr2
    # when the same centered stencil is applied throughout (interior cells).
    grid = grid_div3(900)
    scheme = ReformedScheme("old", SPEC, grid, CFG)
    st = scheme.run_to_stationarity().final
    m, dr = scheme.m, grid.dr
    Jt = st.Jt.values[:m]
    J_tot = st.total().values[:m]

    def centered(v):
        out = np.full(v.size, np.nan)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dr)
        return out

    H_in = -centered(Jt) / 3.0
    lhs = H_in - (-centered(J_tot) / 3.0)
    rhs = -(2.0 / 9.0) * centered(centered(Jt))
    sel = slice(2, m - 2)
    assert np.allclose(lhs[sel], rhs[sel], rtol=1e-10, atol=1e-14)


def test_old_negative_streaming_raises():
    grid = grid_div3(300)
    scheme = ReformedScheme("old", SPEC, grid, CFG)
    rising = np.linspace(0.0, 1.0, scheme.m)  # increasing trapped profile
    with pytest.raises(NegativityError):
        scheme._streaming(rising, t=0.0)


def test_old_fine_grid_roundoff_is_not_negativity():
    # On 19998 cells the flat interior of the early "old" transient carries
    # gradient roundoff of about -1e-12 B in Js; at this kappa it crossed
    # the former fixed -1e-12 B threshold at t = 1.
    grid = make_uniform_grid(18.0, 19998)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=3.1667953321301963)
    scheme = ReformedScheme("old", spec, grid, SolverConfig(dt=0.1, t_end=1.2))
    run = scheme.run_to_stationarity()  # every step is checked
    assert run.steps == 12
    assert np.all(run.final.Js.values >= 0.0)


@pytest.mark.parametrize("variant", ["old", "new"])
def test_march_checks_trapped_negativity_every_step(variant, march_path):
    # A negative source drives the trapped field negative on the first step;
    # the march must stop there, not carry it on to stationarity.
    scheme = ReformedScheme(variant, SPEC, grid_div3(300), CFG)
    scheme._q = -scheme._q
    message = "^trapped component became negative at t = 0.1, cell "
    with pytest.raises(NegativityError, match=message) as info:
        scheme.run_to_stationarity()
    assert info.value.t == 0.1


def test_new_normalization_singularity():
    grid = grid_div3(300)
    scheme = ReformedScheme("new", SPEC, grid, CFG)
    with pytest.raises(NormalizationSingularityError):
        scheme._streaming(np.zeros(scheme.m), t=0.0)


def test_scheme_validation():
    grid = make_uniform_grid(18.0, 3)  # dr = 6: only one cell inside R
    with pytest.raises(ValueError):
        ReformedScheme("new", SPEC, grid, CFG)
    with pytest.raises(ValueError):
        ReformedScheme("other", SPEC, grid_div3(300), CFG)
    with pytest.raises(ValueError):
        ReformedScheme("new", ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_s=0.1),
                       grid_div3(300), CFG)


def test_err0_values():
    assert err0(6.0) == pytest.approx(ERR0_6, rel=1e-12)
    assert err0(10.0) == pytest.approx(ERR0_10, rel=1e-12)
    assert err0(1e6) == 0.0
    vals = err0(np.array([6.0, 10.0]))
    assert vals[0] == pytest.approx(ERR0_6, rel=1e-12)
    with pytest.raises(ValueError):
        err0(-1.0)


def _err0_error(kR):
    """err0(kR)'s relative error against mpmath, with digits to spare for
    the numerator's cancellation, which takes about -log10(kR) of them."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30 + 2 * max(0, -math.floor(math.log10(kR)))):
        x = mpmath.mpf(kR)
        X = mpmath.sqrt(3) * x
        exact = (X / mpmath.sinh(X) - mpmath.exp(-x)) / -mpmath.expm1(-x)
        return float(abs(err0(kR) / exact - 1))


def test_err0_matches_mpmath_down_to_the_smallest_kappa_R():
    # Below kR = 0.5 the numerator's series holds err0 within 4e-16, where
    # its closed form cancelled: 2.3e-8 off at kR = 1e-8, 8e-4 at 1e-14 and
    # 0 at 1e-16.  Above it, to kR = 2, the closed form is within 2e-15.
    series = [*np.geomspace(1e-300, 1e-4, 120).tolist(), 1e-16, 1e-14, 1e-12, 1e-8,
              *np.geomspace(1e-4, 0.4999, 60).tolist(), np.nextafter(0.5, 0.0)]
    closed = [0.5, *np.geomspace(0.5, 2.0, 40).tolist()[1:]]
    assert max(map(_err0_error, series)) <= 4e-16
    assert max(map(_err0_error, closed)) <= 2e-15
    assert err0(np.array(series + closed)).tolist() == [err0(x) for x in series + closed]


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_err0_names_a_kappa_R_outside_its_domain(bad):
    # inf and nan returned NaN with a RuntimeWarning.
    with pytest.raises(ValueError, match=f"got kappa_R = {bad:g}$"):
        err0(bad)
    with pytest.raises(ValueError, match=f"got kappa_R = {bad:g}$"):
        err0(np.array([6.0, bad]))

