import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from idsa_lab import (
    NegativityError,
    ProblemSpec,
    RadialField,
    Regime,
    SolverConfig,
    TwoComponentState,
    UnboundedError,
    exact_moments,
    l2_relative_error,
    make_uniform_grid,
    run_instability_experiment,
    run_spurious_trapped_experiment,
    run_to_time,
)
from idsa_lab import _native
from idsa_lab.idsa import _Kernel, _march

SPEC = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
GRID = make_uniform_grid(18.0, 50)
CFG = SolverConfig(dt=0.1, t_end=1000.0, stationarity_tol=1e-8)


def _state(grid, Jt, Js, t=0.0):
    return TwoComponentState(RadialField(grid, Jt), RadialField(grid, Js), t=t)


def _sigma(Jt, Js, spec):
    """The march's switched source and regime tags for one state on GRID."""
    S, tags = _Kernel([spec], GRID, CFG).sigma(Jt[None], Js[None], with_tags=True)
    return S[0], tags[0]


def _stream(S, spec, grid=GRID):
    """The march's stationary streaming field for one source."""
    return _Kernel([spec], grid, CFG).stream(S[None])[0]


def test_source_zero_where_no_absorption():
    # kappa_a = 0 outside caps the switch at zero there, whatever Js does.
    rng = np.random.default_rng(0)
    S, tags = _sigma(rng.random(50), rng.random(50), SPEC)
    outside = GRID.r_centers >= 6.0
    assert np.all(S[outside] == 0.0)


def test_source_flat_trapped_small_absorption():
    # Flat trapped profile with 0 < Js < B: the switch picks the middle
    # branch with value kappa_a * Js, never the free-streaming cap.
    spec = ProblemSpec(B=1.0, R=20.0, kappa=1e-3)  # every cell inside
    S, tags = _sigma(np.full(50, 0.7), np.full(50, 0.3), spec)
    assert np.all(S == 1e-3 * 0.3)
    assert np.all(tags == Regime.DIFFUSION)
    assert not np.any(tags == Regime.FREE_STREAMING)


def test_source_flat_trapped_no_streaming_is_reaction():
    spec = ProblemSpec(B=1.0, R=20.0, kappa=2.0)
    S, tags = _sigma(np.full(50, 0.4), np.zeros(50), spec)
    assert np.all(S == 0.0)
    assert np.all(tags == Regime.REACTION)


def test_source_diffusion_uses_the_true_opacity():
    # Jt = c (r_max^2 - r^2) with c = kappa^2 / 8 gives -D[Jt] = kappa B / 4
    # up to the conservative form's factor 1 + dr^2 / (12 r^2), which is
    # exact for a quadratic.  At kappa = 1e-6 this is far above the
    # opacity floor, and the middle branch shows the unclipped value.
    kappa = 1e-6
    spec = ProblemSpec(B=1.0, R=30.0, kappa=kappa)  # every cell inside
    r, dr = GRID.r_centers, GRID.dr
    S, tags = _sigma(kappa**2 / 8.0 * (18.0**2 - r**2), np.full(50, 0.3), spec)
    expect = kappa * 0.3 + kappa / 4.0 * (1.0 + dr**2 / (12.0 * r**2))
    inner = slice(1, -1)  # the end cells see the zero-flux boundaries
    assert np.all(tags[inner] == Regime.DIFFUSION)
    assert np.allclose(S[inner], expect[inner], rtol=1e-6, atol=0.0)


def test_source_bounds_and_tag_consistency():
    rng = np.random.default_rng(42)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=3.0, kappa_outside=1e-2)
    kaB = spec.absorption(GRID.r_centers) * spec.B
    for _ in range(20):
        Jt = np.abs(np.cumsum(rng.standard_normal(50))) * 0.05
        S, tags = _sigma(Jt, rng.random(50), spec)
        assert np.all(S >= 0.0) and np.all(S <= kaB + 1e-15)
        free = tags == Regime.FREE_STREAMING
        assert np.all(S[free] == kaB[free])
        assert np.all(S[tags == Regime.REACTION] == 0.0)
        mid = tags == Regime.DIFFUSION
        assert np.all((S[mid] > 0.0) & (S[mid] < kaB[mid]))


def test_trapped_step_from_zero():
    out = _Kernel([SPEC], GRID, CFG).trapped_step(np.zeros((1, 50)), np.zeros((1, 50)))[0]
    inside = GRID.r_centers < 6.0
    expect = 0.1 * 1.0 / (1.0 + 0.1)
    assert np.allclose(out[inside], expect, rtol=1e-14)
    assert np.all(out[~inside] == 0.0)  # kappa_a = 0 there: frozen


def test_trapped_step_decay_under_cap():
    # Sigma at the cap turns the update into pure decay by 1/(1 + dt kappa_a).
    spec = ProblemSpec(B=1.0, R=20.0, kappa=1.0)
    sigma = spec.absorption(GRID.r_centers) * spec.B
    out = _Kernel([spec], GRID, CFG).trapped_step(np.full((1, 50), 0.8), sigma[None])
    assert np.allclose(out, 0.8 / 1.1, rtol=1e-14)


def test_trapped_negativity_raises():
    kern = _Kernel([SPEC], GRID, CFG)
    Jt = kern.trapped_step(np.zeros((1, 50)), np.full((1, 50), 50.0))
    with pytest.raises(NegativityError, match="trapped component became negative at t = 0.1"):
        kern.check(Jt, Jt < kern.floor, "trapped component", CFG.dt)


def test_trapped_mass_accounting():
    # The pointwise implicit update satisfies its own balance identically,
    # so the shell-integrated change matches the integrated source terms.
    rng = np.random.default_rng(5)
    Jt = rng.random(50) * 0.5
    S, _ = _sigma(Jt, rng.random(50) * 0.3, SPEC)
    out = _Kernel([SPEC], GRID, CFG).trapped_step(Jt[None], S[None])[0]
    r, dr = GRID.r_centers, GRID.dr
    ka = SPEC.absorption(r)
    lhs = np.sum(r**2 * (out - Jt)) * dr
    rhs = CFG.dt * np.sum(r**2 * (ka * (SPEC.B - out) - S)) * dr
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_streaming_zero_source():
    assert np.all(_stream(np.zeros(50), SPEC) == 0.0)


def test_streaming_point_source_conserves_flux():
    # With absorption only in a tiny core, the flux variable r^2 g Js is
    # constant outside the source cell.
    spec = ProblemSpec(B=1.0, R=1e-9, kappa=1.0)  # every center is vacuum
    S = np.zeros(50)
    S[0] = 2.5
    Js = _stream(S, spec)
    r = GRID.r_centers
    from idsa_lab import free_streaming_flux_ratio

    phi = r**2 * free_streaming_flux_ratio(r, spec.R) * Js
    assert np.allclose(phi[1:], phi[1], rtol=1e-12)
    assert np.all(Js > 0.0)


def test_streaming_divergence_free_extension_from_edge_value():
    # Feed exactly Phi(R) = R^2 g(R) B/2 from inside a very opaque sphere:
    # outside the profile is (B/2)(1 - sqrt(1 - (R/r)^2)).
    n = 600
    grid = make_uniform_grid(18.0, n)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1e5)
    S = spec.absorption(grid.r_centers) * spec.B
    Js = _stream(S, spec, grid)
    out = grid.r_centers >= 6.0
    r = grid.r_centers[out]
    JsR = Js[np.argmax(out) - 1]  # saturated local equilibrium = B
    shape = 1.0 - np.sqrt(1.0 - (6.0 / r) ** 2)
    assert JsR == pytest.approx(1.0, rel=1e-3)
    assert np.allclose(Js[out], JsR / 2.0 * shape * 2.0, rtol=5e-3)


def test_streaming_sequential_fallback_saturates():
    # Huge opacity forces the sequential sweep, whose field saturates at B.
    spec_big = ProblemSpec(B=1.0, R=100.0, kappa=1e5)
    kern = _Kernel([spec_big], GRID, CFG)
    assert kern.n_scan == 0
    S = np.full(50, 1e5)
    Js = kern.stream(S[None])[0]
    assert np.all(Js <= 1.0 + 1e-9)
    assert Js[25] == pytest.approx(1.0, rel=1e-3)


def test_run_all_vacuum_stays_zero():
    spec = ProblemSpec(B=1.0, R=1e-9, kappa=1.0)  # absorption nowhere on the grid
    traj = run_to_time(spec, GRID, SolverConfig(dt=0.1, t_end=5.0, stationarity_tol=1e-30))
    assert np.all(traj.final.Jt.values == 0.0)
    assert np.all(traj.final.Js.values == 0.0)


def test_run_uniform_opaque_reaches_equilibrium():
    spec = ProblemSpec(B=1.0, R=100.0, kappa=1e4)
    traj = run_to_time(spec, GRID, SolverConfig(dt=0.1, t_end=50.0, stationarity_tol=1e-12))
    assert traj.stopped == "stationary"
    assert np.allclose(traj.final.Jt.values, 1.0, rtol=1e-10)
    assert np.all(traj.final.Js.values == 0.0)


def test_run_coarse_sphere_is_stable_and_close_to_exact():
    traj = run_to_time(SPEC, GRID, CFG, snapshot_times=(5.0,))
    m = exact_moments(GRID, SPEC, tol=1e-10)
    err = l2_relative_error(traj.final.total(), m.J)
    assert err < 0.25
    dJt = np.diff(traj.final.Jt.values)
    assert not np.any((dJt > 1e-10) & (GRID.r_centers[1:] < 6.0))
    assert len(traj.snapshots) == 1 and traj.snapshots[0].t == pytest.approx(5.0)


def test_run_marches_on_to_snapshots_after_the_final_state():
    # Stationary at step 133; the snapshots at t = 20 (after the stop) and
    # t = 40 (after t_end) are still taken, and the final state and its
    # tags stay those of the stop.
    cfg = SolverConfig(dt=0.1, t_end=30.0, stationarity_tol=1e-8)
    traj = run_to_time(SPEC, GRID, cfg, snapshot_times=(5.0, 20.0, 40.0))
    assert traj.stopped == "stationary"
    assert [s.t for s in traj.snapshots] == [5.0, 20.0, 40.0]
    assert traj.final.t == 133 * 0.1
    # A run that ends at that step's t_end, with a snapshot there: the same
    # final state, and the final tags are those of the step that produced it.
    ref_cfg = dataclasses.replace(cfg, t_end=13.3, stationarity_tol=1e-30)
    ref = run_to_time(SPEC, GRID, ref_cfg, snapshot_times=(13.3,))
    assert ref.stopped == "t_end" and ref.final.t == traj.final.t
    assert np.array_equal(ref.final.Jt.values, traj.final.Jt.values)
    assert np.array_equal(ref.final.Js.values, traj.final.Js.values)
    assert np.array_equal(ref.final.tags, traj.final.tags)
    assert np.array_equal(ref.snapshots[0].tags, traj.final.tags)


def test_run_shorter_than_half_a_step_ends_at_the_zero_state():
    # t_end rounds to step 0: the final state is the zero state, tagged as
    # the step-0 snapshot is; a later snapshot is still marched to.
    cfg = SolverConfig(dt=0.1, t_end=0.04)
    traj = run_to_time(SPEC, GRID, cfg, snapshot_times=(1.0,))
    assert traj.final.t == 0.0 and traj.stopped == "t_end"
    assert np.all(traj.final.Jt.values == 0.0) and np.all(traj.final.Js.values == 0.0)
    assert np.all(traj.final.tags == Regime.REACTION)
    assert [s.t for s in traj.snapshots] == [1.0]


def test_trapped_fraction_handles_empty_cells():
    state = _state(GRID, np.zeros(50), np.zeros(50))
    h_t, h_s = state.component_fractions()
    assert np.all(h_t == 0.0) and np.all(h_s == 0.0)
    Jt = np.full(50, 0.6)
    Js = np.full(50, 0.2)
    h_t, h_s = _state(GRID, Jt, Js).component_fractions()
    assert np.allclose(h_t, 0.75) and np.allclose(h_s, 0.25)


def test_spurious_experiment_times_scale():
    records = run_spurious_trapped_experiment([1e-1, 1e-2], SPEC, GRID, CFG)
    assert not records[0].censored and not records[1].censored
    assert records[1].time > 5.0 * records[0].time


def test_spurious_trapped_component_grows_outside():
    # The trapped component in the weakly absorbing region grows steadily on
    # the slow eps timescale (the switch shuffles cells between branches, so
    # only the aggregate growth is asserted, not the single-branch bound).
    eps = 1e-2
    spec = dataclasses.replace(SPEC, kappa_outside=eps)
    traj = run_to_time(
        spec, GRID, SolverConfig(dt=0.1, t_end=200.0, stationarity_tol=1e-30),
        snapshot_times=(50.0, 100.0, 200.0),
    )
    outside = GRID.r_centers >= 6.0
    mins = [s.Jt.values[outside].min() for s in traj.snapshots]
    assert mins[0] < mins[1] < mins[2]
    assert mins[2] > 0.3


def test_spurious_censoring():
    cfg = dataclasses.replace(CFG, t_end=1.0)
    records = run_spurious_trapped_experiment([1e-1], SPEC, GRID, cfg)
    assert records[0].censored and records[0].time is None


@pytest.mark.parametrize("eps_list", [[0.1, float("inf")], [0.1, 0.0], [0.1, float("nan")]])
def test_spurious_rejects_unbounded_input_up_front(eps_list):
    with pytest.raises(ValueError, match="positive and finite"):
        run_spurious_trapped_experiment(eps_list, SPEC, GRID, CFG)


@settings(max_examples=10, deadline=None)
@given(
    scan_eps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    sweep_eps=st.lists(st.floats(1e6, 1e8), min_size=1, max_size=2),
    t_end=st.floats(12.0, 60.0),
    order=st.randoms(use_true_random=False),
)
def test_spurious_batch_matches_one_row_at_a_time(scan_eps, sweep_eps, t_end, order):
    # A duplicate, a row censored at every t_end drawn (takeover near
    # t = 75 for eps = 0.01), and rows on both streaming paths: eps >= 1e6
    # puts more than 400 e-folds outside the sphere, forcing the sweep.
    eps_list = scan_eps + sweep_eps + [scan_eps[0], 0.01]
    order.shuffle(eps_list)
    specs = [dataclasses.replace(SPEC, kappa_outside=e) for e in eps_list]
    kern = _Kernel(specs, GRID, CFG)
    assert kern.n_scan == len(scan_eps) + 2
    cfg = dataclasses.replace(CFG, t_end=t_end)
    batch = run_spurious_trapped_experiment(eps_list, SPEC, GRID, cfg)
    single = [
        run_spurious_trapped_experiment([e], SPEC, GRID, cfg)[0]
        for e in eps_list
    ]
    assert batch == single
    assert any(r.censored for r in batch) and any(not r.censored for r in batch)


@settings(max_examples=60, deadline=None)
@given(
    kappas=st.lists(st.floats(-3.0, 1.5).map(lambda x: 10.0**x), min_size=1, max_size=3),
    kappa_outside=st.floats(0.0, 2.0),
    kappa_s=st.floats(0.0, 2.0),
    R=st.floats(1.0, 10.0),
    stretch=st.floats(1.05, 4.0),
    source=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=2, max_size=150),
)
@example(kappas=[1.0], kappa_outside=0.0, kappa_s=0.0, R=6.0, stretch=3.0,
         source=np.linspace(0.3, 0.0, 50).tolist())
def test_stream_scan_matches_sequential_sweep(kappas, kappa_outside, kappa_s, R, stretch, source):
    # The scan writes the flux as P_i * sum_{j <= i} d_j S_j (a_j / P_j), P the
    # running product of a and a_j / P_j rounded once, when the _Kernel is
    # built; the sweep as phi_i = (phi_{i-1} + d_i S_i) a_i.  Every term is
    # non-negative, so neither cancels: each carries about one rounding per
    # cell and operation, the quotient's included, at most (5 n + 6) eps
    # relative between the two on n cells to first order.  Hence rtol = 8 n
    # eps, and equality where S vanishes up to the cell.  The native kernel
    # runs the same two.
    specs = [ProblemSpec(B=1.0, R=R, kappa=k, kappa_outside=kappa_outside, kappa_s=kappa_s)
             for k in kappas]
    grid = make_uniform_grid(stretch * R, len(source))
    scan = _Kernel(specs, grid, CFG)
    assume(scan.n_scan == len(specs))  # the scan is admissible on every row
    sweep = copy.copy(scan)
    sweep.n_scan = 0
    rtol = 8 * grid.n_cells * np.finfo(float).eps
    S = np.tile(source, (len(specs), 1))
    slow = sweep.stream(S)
    assert np.all(slow >= 0.0)
    assert np.allclose(slow, scan.stream(S), rtol=rtol, atol=0.0)

    native = _native.load()
    if native is None:
        return
    # One native step from (Jt, Js) = (S, S): its switched source is >= 0 too.
    (_, Jt_scan, Js_scan, _, _), (_, Jt_sweep, Js_sweep, _, _) = (
        kern.advance(native, S, S, 1, False, None, None, 0) for kern in (scan, sweep)
    )
    assert np.array_equal(Jt_sweep, Jt_scan)
    assert np.allclose(Js_sweep, Js_scan, rtol=rtol, atol=0.0)


def test_batch_negativity_names_the_row(monkeypatch):
    kern = _Kernel([SPEC, SPEC], GRID, CFG, labels=["eps = 0.1", "eps = 0.01"])
    Jt = np.zeros((2, 50))
    Jt[1, 7] = -1.0
    with pytest.raises(NegativityError, match=r"\(eps = 0.01\) became negative at t = 3, cell 7"):
        kern.check(Jt, Jt < kern.floor, "trapped component", 3.0)

    # A march names the row, time, cell and value alike on the native and
    # the numpy path.
    def march(which):
        kern = _Kernel([SPEC, SPEC], GRID, CFG, labels=["eps = 0.1", "eps = 0.01"])
        getattr(kern, which)[1] *= -1.0  # row 1 turns negative
        with pytest.raises(NegativityError) as info:
            _march(kern, lambda k, t, Jt, Js, tags: (None, k + 1 if k < 20 else None))
        return str(info.value)

    for which, component in (("inv_den", "trapped"), ("inv_r2g", "streaming")):
        native = march(which)
        with monkeypatch.context() as m:
            m.setattr(_native, "load", lambda: None)
            reference = march(which)
        assert native == reference
        assert reference.startswith(f"{component} component (eps = 0.01) became negative at t = ")


def test_instability_coarse_grid_stays_monotone():
    result = run_instability_experiment(
        SPEC, GRID, CFG, snapshot_times=(10.0, 50.0), vb_threshold=0.9
    )
    assert result.first_nonmonotone_time is None
    assert result.sup_total <= 1.0 + 1e-6
    assert all(s.virtual_boundary < 6.0 for s in result.snapshots)


def test_instability_bound_violation_raises():
    with pytest.raises(UnboundedError):
        run_instability_experiment(
            SPEC, GRID, CFG, snapshot_times=(10.0,), bound_margin=-0.9
        )


@st.composite
def _coarse_scenario(draw):
    """
    A bare sphere on a coarse grid: kappa dr <= 1 and a diffusion number
    dt / (3 kappa dr^2) <= 1/2, at most 100 cells.  Finer grids (the edge
    instability), cells a mean free path or more wide, and a nonzero opacity
    outside R all let sup(Jt + Js) overshoot B by up to 20 %.
    """
    kappa = draw(st.floats(0.1, 20.0))
    R = draw(st.floats(1.0, 10.0))
    r_max = R * draw(st.floats(1.2, 4.0))
    dt = draw(st.floats(0.01, 1.0))
    n_lo = math.ceil(kappa * r_max)
    n_hi = math.floor(r_max / math.sqrt(2.0 * dt / (3.0 * kappa)))
    assume(max(n_lo, 10) <= min(n_hi, 100))
    n = draw(st.integers(max(n_lo, 10), min(n_hi, 100)))
    B = draw(st.floats(1e-2, 1e2))
    t_end = draw(st.floats(5.0, 100.0))
    return ProblemSpec(B=B, R=R, kappa=kappa), make_uniform_grid(r_max, n), dt, t_end


@settings(max_examples=60, deadline=2000)
@given(scenario=_coarse_scenario())
def test_coarse_switched_scheme_stays_below_equilibrium(scenario):
    # The instability run raises UnboundedError once sup(Jt + Js) passes
    # B (1 + bound_margin) on any step.
    spec, grid, dt, t_end = scenario
    result = run_instability_experiment(
        spec, grid, SolverConfig(dt=dt, t_end=t_end), snapshot_times=(), bound_margin=1e-6
    )
    assert result.sup_total <= spec.B * (1.0 + 1e-6)


@settings(max_examples=40, deadline=2000)
@given(
    scenario=_coarse_scenario(),
    k=st.integers(-30, 30),
    kappa_outside=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
)
def test_switched_states_are_linear_in_the_equilibrium_level(scenario, k, kappa_outside):
    # The min-max source, the trapped update and the streaming sweep are all
    # homogeneous in (Jt, Js, B), and so are the stop and domination tests:
    # scaling B by a power of two scales every state bit for bit, except
    # where a value is subnormal (the streaming field deep inside an opaque
    # sphere) and scaling it rounds.
    spec, grid, dt, t_end = scenario
    spec = dataclasses.replace(spec, kappa_outside=kappa_outside)
    cfg = SolverConfig(dt=dt, t_end=t_end, stationarity_tol=1e-8)
    factor = 2.0**k
    traj = run_to_time(spec, grid, cfg, (1.0, 3.0))
    scaled = run_to_time(dataclasses.replace(spec, B=factor * spec.B), grid, cfg, (1.0, 3.0))
    assert scaled.stopped == traj.stopped
    pairs = list(zip(traj.snapshots, scaled.snapshots, strict=True))
    tiny = 2.0**-990  # times 2^+-30 still normal
    for a, b in [*pairs, (traj.final, scaled.final)]:
        assert b.t == a.t
        for x, x_c in ((a.Jt.values, b.Jt.values), (a.Js.values, b.Js.values)):
            normal = np.abs(x) >= tiny
            assert np.array_equal(x_c[normal], factor * x[normal])
            assert np.all(np.abs(x_c[~normal]) <= tiny * max(factor, 1.0))
    assert np.array_equal(scaled.final.tags, traj.final.tags)
