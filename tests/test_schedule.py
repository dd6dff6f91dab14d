"""
The step schedule shared by the switched and the domain-split marchers:
what a SolverConfig and snapshot times admit, and the stop and snapshot
policy of ``Schedule`` as the records of ``run_to_time`` and both
``ReformedScheme`` variants show it.
"""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsa_lab import (
    ProblemSpec,
    ReformedScheme,
    Schedule,
    SolverConfig,
    make_uniform_grid,
    run_instability_experiment,
    run_to_time,
)

SPEC = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
GRID = make_uniform_grid(18.0, 30)  # R = 6 lands on a face, as the domain split needs


def _switched(cfg, times=()):
    return run_to_time(SPEC, GRID, cfg, times)


def _instability(cfg, times=()):
    return run_instability_experiment(SPEC, GRID, cfg, times)


def _split(variant):
    return lambda cfg, times=(): ReformedScheme(variant, SPEC, GRID, cfg).run_to_stationarity(times)


_DRIVERS = {
    "run_to_time": _switched,
    "run_instability_experiment": _instability,
    "run_to_stationarity-old": _split("old"),
    "run_to_stationarity-new": _split("new"),
}


@pytest.mark.parametrize("driver", sorted(_DRIVERS))
@pytest.mark.parametrize("dt, t_end, match", [
    (0.1, -5.0, "t_end"), (0.1, math.nan, "t_end"), (0.1, math.inf, "t_end"),
    (1e-300, 1e300, "t_end"), (math.inf, 1.0, "dt"), (math.nan, 1.0, "dt"),
])
def test_no_driver_runs_a_step_count_that_is_not_finite(driver, dt, t_end, match):
    # SolverConfig rejects these itself, so no driver needs its own check
    # of the step count round(t_end / dt).
    with pytest.raises(ValueError, match=match):
        _DRIVERS[driver](SolverConfig(dt=dt, t_end=t_end))


@pytest.mark.parametrize("driver", sorted(_DRIVERS))
@pytest.mark.parametrize("dt, t_end, times, match", [
    (1e-300, 1.0, (), "t_end must be >= 0 and below 2\\^63 steps"),
    (0.1, 2.0, (1e300,), "snapshot_times .* must be below 2\\^63 steps"),
    (0.1, 2.0, (1.0, -1e300), "snapshot_times .* must be below 2\\^63 steps"),
])
def test_no_driver_runs_2_to_the_63_steps_or_more(driver, dt, t_end, times, match):
    # The kernels count steps in a signed 64-bit integer; a finite count that
    # does not fit raised OverflowError there, or ran toward 1e300 steps.
    with pytest.raises(ValueError, match=match):
        _DRIVERS[driver](SolverConfig(dt=dt, t_end=t_end), times)


def test_the_step_bound_is_2_to_the_63():
    # Only built, never run.
    below = float(2**63 - 1024)  # the double just below 2^63
    SolverConfig(dt=1.0, t_end=below)
    Schedule(SolverConfig(dt=1.0, t_end=1.0), (below,))
    with pytest.raises(ValueError, match="t_end"):
        SolverConfig(dt=1.0, t_end=2.0**63)
    with pytest.raises(ValueError, match="snapshot_times"):
        Schedule(SolverConfig(dt=1.0, t_end=1.0), (2.0**63,))


# (driver, snapshot times, the error): times the march would merge or never take.
_BAD_TIMES = [
    ("run_to_time", (-1.0, 0.0, 5.0), "name one step twice"),
    ("run_to_time", (5.0, 5.01, 10.0), "name one step twice"),
    ("run_instability_experiment", (-1.0, 0.0, 5.0, 5.01, 10.0), "name one step twice"),
    ("run_instability_experiment", (0.0, 5.0), "name step 0 or earlier"),
    ("run_instability_experiment", (-3.0, 5.0), "name step 0 or earlier"),
    ("run_to_stationarity-old", (0.0, -0.3, 0.5, 0.5), "name one step twice"),
    ("run_to_stationarity-new", (0.04, 1.0), "name step 0 or earlier"),
]


@pytest.mark.parametrize("driver, times, match", _BAD_TIMES)
def test_drivers_reject_snapshot_times_they_would_merge_or_drop(driver, times, match):
    with pytest.raises(ValueError, match=match):
        _DRIVERS[driver](SolverConfig(dt=0.1, t_end=2.0), times)


def test_run_to_time_keeps_the_zero_state_as_a_snapshot():
    run = _switched(SolverConfig(dt=0.1, t_end=2.0), (0.04, 1.0))
    assert [s.t for s in run.snapshots] == [0.0, 1.0]
    assert np.all(run.snapshots[0].Jt.values == 0.0)


@st.composite
def _schedules(draw, first):
    """A SolverConfig and snapshot times, each time within 0.4 dt of its step."""
    dt = draw(st.floats(0.05, 0.5))
    n_steps = draw(st.integers(1, 120))
    t_end = (n_steps + draw(st.floats(-0.4, 0.4))) * dt
    tol = 10.0 ** draw(st.floats(-9.0, -1.0))
    steps = draw(st.lists(st.integers(first, n_steps + 30), unique=True, max_size=4))
    times = [(j + draw(st.floats(-0.4, 0.4))) * dt for j in steps]
    return SolverConfig(dt=dt, t_end=t_end, stationarity_tol=tol), times


def _switched_change(a, b):
    """run_to_time's change from (Jt, Js) a to b: max(|dJt|, |dJs|) / max(max Jt, max Js)."""
    d = max(np.max(np.abs(b[0] - a[0])), np.max(np.abs(b[1] - a[1])))
    return d / max(b[0].max(), b[1].max(), 5e-324)


def _split_change(a, b):
    """The domain split's change, of Jt only: max |dJt| / max |Jt|."""
    return np.max(np.abs(b[0] - a[0])) / max(np.max(np.abs(b[0])), 5e-324)


def _check_record(march, change, cfg, times, first):
    sched = Schedule(cfg, times, first=first)
    assert sched.snap_steps == sorted(max(0, round(t / cfg.dt)) for t in times)
    run = march(cfg, times)
    # The fields of every step up to the last, from a run that snapshots each.
    every = march(cfg, [k * cfg.dt for k in range(first, sched.last + 1)]).snapshots
    zeros = np.zeros(GRID.n_cells)
    fields = {0: (zeros, zeros), **{round(s.t / cfg.dt): (s.Jt.values, s.Js.values) for s in every}}
    stationary = [k for k in range(1, sched.n_steps + 1)
                  if change(fields[k - 1], fields[k]) < cfg.stationarity_tol]
    steps = stationary[0] if stationary else sched.n_steps
    assert run.steps == steps
    assert run.stopped == ("stationary" if stationary else "t_end")
    assert run.final.t == steps * cfg.dt
    # The march went on past the final state to the last snapshot.
    assert [s.t for s in run.snapshots] == [k * cfg.dt for k in sched.snap_steps]
    for k, state in [*zip(sched.snap_steps, run.snapshots), (steps, run.final)]:
        assert np.array_equal(state.Jt.values, fields[k][0])
        assert np.array_equal(state.Js.values, fields[k][1])


@settings(max_examples=30, deadline=None)
@given(drawn=_schedules(first=0))
def test_run_to_time_follows_the_schedule(drawn):
    _check_record(_switched, _switched_change, *drawn, first=0)


@settings(max_examples=30, deadline=None)
@given(drawn=_schedules(first=1), variant=st.sampled_from(["old", "new"]))
def test_run_to_stationarity_follows_the_schedule(drawn, variant):
    _check_record(_split(variant), _split_change, *drawn, first=1)


@pytest.mark.parametrize("driver", ["run_to_time", "run_to_stationarity-old", "run_to_stationarity-new"])
def test_a_stationary_step_at_t_end_is_a_stationary_stop(driver):
    cfg = SolverConfig(dt=0.1, t_end=1000.0, stationarity_tol=1e-6)
    steps = _DRIVERS[driver](cfg).steps
    run = _DRIVERS[driver](SolverConfig(dt=0.1, t_end=steps * 0.1, stationarity_tol=1e-6))
    assert (run.steps, run.stopped) == (steps, "stationary")


def test_a_schedule_of_many_snapshots_is_walked_in_log_time_per_step():
    # upcoming scanned every snapshot step and see searched a list, so a march
    # past S snapshots took O(S^2) time: 1.5 s at S = 8,000 on a 2-vCPU x86-64
    # host, against 0.2 s for this walk past 200,000.  The alarm fails the
    # test instead of waiting.
    def expire(signum, frame):
        raise TimeoutError("the walk ran past its 10 s limit")

    n = 200_000
    sched = Schedule(SolverConfig(dt=1.0, t_end=n / 2), [float(k) for k in range(1, n + 1)])
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        for k in range(n + 1):  # run_to_stationarity's walk: see on every step
            assert sched.see(k, 1.0, lambda: k) == (k + 1 if k < n else None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert sched.snapshots == list(range(1, n + 1))
    assert (sched.final, sched.steps, sched.stopped) == (n // 2, n // 2, "t_end")
