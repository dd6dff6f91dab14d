"""
The physics gate of the switched scheme: where its marches settle and when
its spurious takeovers happen, pinned within stated tolerances rather than
bit for bit, so that a change to the switched step that moves rounding (a
reciprocal in place of a division, a reordered sum) passes only if the
physics it reproduces holds.

Stationary states.  Bare spheres, B = 1, R = 6, r_max = 18, each inside the
diffusion limit dt / (3 kappa dr^2) <= 1/2, marched by ``run_to_time`` with
stationarity_tol = 1e-10 and t_end = 2000.  Each must stop "stationary" at
its pinned step, +-1 step: near the stop the relative change falls by 1-15%
a step, so a change that moves it by a few ulp can cross the tolerance one
step earlier or later, never more.  The relative shell L2 distance of the
final Jt + Js, and of Jt alone, to ``stationary_state("old")`` (the domain
split's direct solve, which no march enters) must match its pinned value
to 1e-9 relative.  The values were measured on commit 1bf3ed6.  A switched
step that multiplies by reciprocals in place of its divisions, rounding
differently, kept every stop step and moved the distances by at most
2.3e-13 relative; one step more or less moves the fields by about 1e-10 B,
and a distance of 2-6% by up to a few 1e-9 relative.  So 1e-9 admits
rounding and little else.

The distances are a discretization error of first order in dr, not a
model difference between the switched source and the old domain split:
halving dr halves them, and dt does not move them.  Two tests pin these
orders in place of values, so that they hold for any change that keeps
the scheme's physics.  With kappa = 1 and 3, 90 -> 180 -> 360 cells (dt
inside the diffusion limit), each halving divides the gap of Jt + Js, and
of Jt alone, by 1.92-2.09 (measured on commit 4d5871e); the band is
[1.8, 2.2], which a first-order error meets on these grids and one of
order 1/2 (1.41) or 2 (4) does not.  At one grid, a dt 1.5 to 5 times
another gives the same gaps to 5.1e-7 relative (measured likewise): the
stop at stationarity_tol 1e-10 leaves an unconverged rest that depends on
dt, about 1e-9 B at most, which is that much of the smallest gap, Jt's at
360 cells (1.9e-3).  The bound is 1e-5 relative, where an error of first
order in dt would move the gap by about its own size.

Spurious takeovers.  The default spurious scenario (B = 1, R = 6, kappa = 1,
r_max = 18, 50 cells, dt = 0.1) over eps = logspace(-1, -2.5, 40): every
takeover is confirmed, at its pinned step +-2.  A takeover is the first
step at which the trapped component dominates every cell r >= R, and the
chattering switch at the interface makes that step sensitive to rounding:
on the code of commit 1bf3ed6 itself, B = 3, 0.1 and 1e-300 (whose
roundings differ from B = 1's, unlike a power of two) move 1, 2 and 5 of
the 40 steps by 2, and never by more; the reciprocals above moved 2 by 2.

Domain-split marches.  ``ReformedScheme.run_to_stationarity`` for both
variants on bare spheres (B = 1, R = 6, r_max = 18) at stationarity_tol =
1e-10 and t_end = 2000, over kappa = 0.3 to 10, 90 to 360 cells and dt =
0.05 to 0.5 (the scheme is implicit: no diffusion limit).  The values were
measured on commit 4d5871e.
- Each must stop "stationary" at its pinned step, +-1 step, as above.
- The march's fixed point is ``stationary_direct``'s solution, so the
  relative shell L2 distance of the final Jt + Js to it is the march's
  unconverged rest, 7e-12 to 5e-10, which shrinks by a factor 0.33-0.9 a
  step.  It is pinned at the pinned step and at one step either side; the
  run must match the value for the step it stopped at to 1e-12 absolute.
  Those three values are 1.1e-11 apart or more, so the bound tells the
  steps apart.  A back substitution that multiplies by the reciprocals of
  its pivots moved the states after 400 steps by at most 1.1e-14 relative
  (ROADMAP item 11's prototype), and a state moved by e relative moves
  this distance by at most e: 1e-12 admits that rounding with a margin
  of 90.
- For "new", the relative shell L2 distance of the final Jt + Js to
  ``new_idsa_stationary_closed_form`` is the scheme's discretization
  error, 3.7e-4 to 6.6e-3, and is pinned to 1e-9 absolute: the final state
  lies within 4.5e-10 of ``stationary_direct``'s at any of the three steps,
  so a stop one step off moves this distance by less than that.
- That distance is of second order in dr (acceptance criterion 4's "~4x",
  stated as an order).  With kappa = 1 and 3, dt = 0.1 and
  stationarity_tol = 1e-12, which leaves an unconverged rest of at most
  4e-12 relative, 90 -> 180 -> 360 -> 720 cells, each halving divides it by
  4.18-4.55 (measured on commit ffcd877); the band is [3.5, 5], which an
  error of order 1.81 to 2.32 meets and one of first (2) or third (8)
  order does not.
"""

import numpy as np
import pytest

from idsa_lab import (
    ProblemSpec,
    SolverConfig,
    l2_relative_error,
    make_uniform_grid,
    run_spurious_trapped_experiment,
    run_to_time,
)
from idsa_lab.diagnostics import stationary_state
from idsa_lab.idsa import diffusion_number
from idsa_lab.reformed import ReformedScheme, new_idsa_stationary_closed_form

# (kappa, n_cells, dt) -> (stop step, L2 gap of Jt + Js, L2 gap of Jt)
_STATIONARY = {
    (1.0, 90, 0.05): (267, 3.32804517686e-2, 7.01883081890e-3),
    (3.0, 90, 0.1): (141, 5.57957202519e-2, 2.95824165809e-3),
    (10.0, 180, 0.1): (160, 6.00026075132e-2, 2.44687645009e-3),
    (1.0, 180, 0.01): (1274, 1.65058387086e-2, 3.61113578482e-3),
    (0.3, 90, 0.01): (1945, 2.52264792487e-2, 1.41597415919e-2),
}

# (variant, kappa, n_cells, dt) -> (stop step, the L2 distance to
# stationary_direct one step before it, at it and one step after it, and for
# "new" the L2 distance to the closed form)
_SPLIT = {
    ("old", 1.0, 90, 0.1): (161, (1.684974e-10, 1.455423e-10, 1.257135e-10), None),
    ("new", 1.0, 90, 0.1): (207, (4.489633e-10, 4.047896e-10, 3.649622e-10), 2.40713652430e-3),
    ("old", 3.0, 180, 0.05): (149, (8.597141e-11, 7.294102e-11, 6.187716e-11), None),
    ("new", 3.0, 180, 0.05): (152, (4.411279e-10, 3.829774e-10, 3.324933e-10), 3.85502581762e-3),
    ("old", 10.0, 360, 0.2): (22, (6.082850e-11, 1.996084e-11, 6.549405e-12), None),
    ("new", 10.0, 360, 0.2): (22, (8.147772e-11, 2.710161e-11, 9.015050e-12), 6.58145112151e-3),
    ("old", 0.3, 90, 0.5): (60, (1.198966e-10, 8.141185e-11, 5.528000e-11), None),
    ("new", 0.3, 90, 0.5): (84, (2.327632e-10, 1.787368e-10, 1.372505e-10), 3.71892387251e-4),
}

# kappa -> (n_cells, dt) halving dr, each inside the diffusion limit
_HALVINGS = {1.0: [(90, 0.01), (180, 0.01), (360, 0.003)],
             3.0: [(90, 0.1), (180, 0.04), (360, 0.01)]}

# (kappa, n_cells) -> two dt at which the gaps must agree
_DT_PAIRS = {(1.0, 90): (0.05, 0.01), (1.0, 360): (0.003, 0.002), (3.0, 90): (0.1, 0.02),
             (3.0, 360): (0.01, 0.005)}

# The takeover steps of the default spurious scenario at each eps of
# logspace(-1, -2.5, 40), largest eps first.
_TAKEOVER_STEPS = [
    71, 81, 91, 99, 109, 121, 133, 147, 153, 175, 193, 207, 229, 251, 277, 294, 337, 369, 403,
    441, 483, 527, 576, 630, 689, 755, 825, 897, 983, 1075, 1177, 1285, 1406, 1534, 1680, 1836,
    2008, 2193, 2397, 2621,
]


@pytest.mark.parametrize("kappa, n_cells, dt", sorted(_STATIONARY))
def test_switched_scheme_settles_where_it_is_pinned(kappa, n_cells, dt):
    steps, gap_total, gap_trapped = _STATIONARY[kappa, n_cells, dt]
    spec = ProblemSpec(B=1.0, R=6.0, kappa=kappa)
    grid = make_uniform_grid(18.0, n_cells)
    cfg = SolverConfig(dt=dt, t_end=2000.0, stationarity_tol=1e-10)
    assert diffusion_number(spec, grid, cfg) <= 0.5
    run = run_to_time(spec, grid, cfg)
    ref = stationary_state("old", spec, grid)
    assert run.stopped == "stationary"
    assert abs(run.steps - steps) <= 1
    assert l2_relative_error(run.final.total(), ref.total()) == pytest.approx(gap_total, rel=1e-9)
    assert l2_relative_error(run.final.Jt, ref.Jt) == pytest.approx(gap_trapped, rel=1e-9)


def _switched_gaps(kappa, n_cells, dt):
    """The relative shell L2 gaps of the switched scheme's stationary Jt + Js,
    and of its Jt, to ``stationary_state("old")``."""
    spec = ProblemSpec(B=1.0, R=6.0, kappa=kappa)
    grid = make_uniform_grid(18.0, n_cells)
    cfg = SolverConfig(dt=dt, t_end=2000.0, stationarity_tol=1e-10)
    assert diffusion_number(spec, grid, cfg) <= 0.5
    run = run_to_time(spec, grid, cfg)
    assert run.stopped == "stationary"
    ref = stationary_state("old", spec, grid)
    return np.array([l2_relative_error(run.final.total(), ref.total()),
                     l2_relative_error(run.final.Jt, ref.Jt)])


@pytest.mark.parametrize("kappa", sorted(_HALVINGS))
def test_switched_gap_is_first_order_in_dr(kappa):
    gaps = [_switched_gaps(kappa, n_cells, dt) for n_cells, dt in _HALVINGS[kappa]]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert np.all((1.8 <= coarse / fine) & (coarse / fine <= 2.2))


@pytest.mark.parametrize("kappa, n_cells", sorted(_DT_PAIRS))
def test_switched_gap_does_not_depend_on_dt(kappa, n_cells):
    first, second = (_switched_gaps(kappa, n_cells, dt) for dt in _DT_PAIRS[kappa, n_cells])
    np.testing.assert_allclose(second, first, rtol=1e-5, atol=0)


def test_spurious_takeovers_happen_where_they_are_pinned():
    cfg = SolverConfig(dt=0.1, t_end=1e6)
    records = run_spurious_trapped_experiment(
        np.logspace(-1, -2.5, 40), ProblemSpec(B=1.0, R=6.0, kappa=1.0),
        make_uniform_grid(18.0, 50), cfg,
    )
    assert not any(record.censored for record in records)
    steps = np.array([round(record.time / cfg.dt) for record in records])
    assert np.max(np.abs(steps - _TAKEOVER_STEPS)) <= 2


# n_cells halving dr, at which the "new" march meets the closed form
_SPLIT_HALVINGS = (90, 180, 360, 720)


@pytest.mark.parametrize("variant, kappa, n_cells, dt", sorted(_SPLIT))
def test_domain_split_march_settles_where_it_is_pinned(variant, kappa, n_cells, dt):
    steps, gaps, gap_closed = _SPLIT[variant, kappa, n_cells, dt]
    spec = ProblemSpec(B=1.0, R=6.0, kappa=kappa)
    grid = make_uniform_grid(18.0, n_cells)
    scheme = ReformedScheme(variant, spec, grid,
                            SolverConfig(dt=dt, t_end=2000.0, stationarity_tol=1e-10))
    run = scheme.run_to_stationarity()
    assert run.stopped == "stationary"
    assert abs(run.steps - steps) <= 1
    gap = l2_relative_error(run.final.total(), scheme.stationary_direct().total())
    assert gap == pytest.approx(gaps[run.steps - steps + 1], rel=0, abs=1e-12)
    if variant == "new":
        closed = new_idsa_stationary_closed_form(grid, spec)
        assert l2_relative_error(run.final.total(), closed.total()) == pytest.approx(
            gap_closed, rel=0, abs=1e-9)


@pytest.mark.parametrize("kappa", [1.0, 3.0])
def test_split_march_meets_closed_form_at_second_order_in_dr(kappa):
    spec = ProblemSpec(B=1.0, R=6.0, kappa=kappa)
    gaps = []
    for n_cells in _SPLIT_HALVINGS:
        grid = make_uniform_grid(18.0, n_cells)
        scheme = ReformedScheme("new", spec, grid,
                                SolverConfig(dt=0.1, t_end=2000.0, stationarity_tol=1e-12))
        run = scheme.run_to_stationarity()
        assert run.stopped == "stationary"
        closed = new_idsa_stationary_closed_form(grid, spec)
        gaps.append(l2_relative_error(run.final.total(), closed.total()))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 5.0
