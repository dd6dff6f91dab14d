"""
The native kernels against their references: the march against the numpy
march (fields, tags, stops and records), the tridiagonal solve against the
Python dgtsv and scipy, and the CSV formatter against Python's ``.17g``,
all bit for bit; both marches never writing to an array they have shown;
and the fallback when the module cannot be built.
"""

import contextlib
import itertools
import math
import signal
from decimal import Decimal
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idsa_lab
from idsa_lab import (
    NegativityError,
    ProblemSpec,
    SolverConfig,
    UnboundedError,
    make_uniform_grid,
    run_instability_experiment,
    run_spurious_trapped_experiment,
    run_to_time,
)
from idsa_lab import _native
from idsa_lab.cli import _block_text, _block_text_python, main
from idsa_lab.idsa import _Kernel, _Reductions, _first_step, _march, diffusion_number
from idsa_lab.reformed import ReformedScheme, _gtsv_factor, _gtsv_solve, _Tridiagonal

needs_native = pytest.mark.skipif(
    _native.load() is None, reason="the native march kernel cannot be built here"
)


@contextlib.contextmanager
def _numpy_march():
    """March with numpy inside the block, whatever this process could build."""
    load = _native.load
    _native.load = lambda: None
    try:
        yield
    finally:
        _native.load = load


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Fail the test, instead of hanging it, once the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _both(fn):
    """fn() on the native path, then on the numpy path."""
    native = fn()
    with _numpy_march():
        return native, fn()


def test_native_kernel_builds_here():
    if importlib.util.find_spec("cffi") is None or shutil.which("cc") is None:
        pytest.skip("no cffi or no C compiler: the numpy march is the only one")
    assert _native.load() is not None
    assert _native.backend() == "native"


def _march_log(specs, grid, cfg, steps, with_tags, stride, retire, n_sweep, watch):
    """
    March a batch and log what the observer was shown: step -> (rows, Jt,
    Js, tags, dominated), keeping the arrays themselves, not copies.  It
    asks for every stride-th step and for step ``retire``, where it
    retires the first row; the last ``n_sweep`` rows take the sweep.
    Returns the log and the NegativityError message, if one was raised.
    """
    kern = _Kernel(specs, grid, cfg)
    kern.n_scan = min(kern.n_scan, len(specs) - n_sweep)
    log = {}

    def observe(k, t, Jt, Js, tags):
        out = slice(watch, None)
        dominated = (Jt[:, out] > 0.5 * np.maximum(Jt[:, out] + Js[:, out], 1e-300)).all(axis=1)
        log[k] = (kern.rows.tolist(), Jt, Js, tags, dominated)
        done = None
        if k == retire and len(Jt) > 1:
            done = np.zeros(len(Jt), bool)
            done[0] = True
        return done, k + stride if k >= retire else min(k + stride, retire)

    try:
        _march(kern, observe, steps, first=min(stride, retire), with_tags=with_tags, watch=watch)
    except NegativityError as exc:
        return log, str(exc)
    return log, None


@needs_native
@settings(max_examples=40, deadline=None)
@given(
    n_cells=st.integers(2, 400),
    kappa=st.floats(-2.0, 5.0).map(lambda x: 10.0**x),
    kappa_outside=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    kappa_s=st.floats(0.0, 2.0),
    R=st.floats(0.5, 10.0),
    dt=st.floats(0.01, 1.0),
    steps=st.integers(1, 250),
    stride=st.integers(1, 60),
    retire=st.integers(1, 250),
    n_sweep=st.integers(0, 2),
    with_tags=st.booleans(),
)
def test_native_march_matches_numpy_bit_for_bit(
    n_cells, kappa, kappa_outside, kappa_s, R, dt, steps, stride, retire, n_sweep, with_tags
):
    grid = make_uniform_grid(3.0 * R, n_cells)
    specs = [ProblemSpec(B=1.0, R=R, kappa=kappa, kappa_outside=k, kappa_s=kappa_s)
             for k in kappa_outside]
    cfg = SolverConfig(dt=dt)
    watch = int(np.searchsorted(grid.r_centers, R))
    n_sweep = min(n_sweep, len(specs))
    (native, native_err), (reference, reference_err) = _both(
        lambda: _march_log(specs, grid, cfg, steps, with_tags, stride, retire, n_sweep, watch)
    )
    assert native_err == reference_err
    assert native and set(native) <= set(reference)
    assert max(native) == max(reference)
    for k, (rows, Jt, Js, tags, dominated) in native.items():
        ref_rows, ref_Jt, ref_Js, ref_tags, ref_dominated = reference[k]
        assert rows == ref_rows
        assert np.array_equal(Jt, ref_Jt) and np.array_equal(Js, ref_Js)
        assert np.array_equal(np.signbit(Jt), np.signbit(ref_Jt))
        assert np.array_equal(np.signbit(Js), np.signbit(ref_Js))
        assert (tags is None) == (not with_tags)
        assert tags is None or np.array_equal(tags, ref_tags)
        assert np.array_equal(dominated, ref_dominated)
    # The native march stops at every step where a row's domination of the
    # cells r >= R begins or ends.
    state = {}
    for k in sorted(reference):
        rows, dominated = reference[k][0], reference[k][4]
        changed = any(state.get(row, False) != bool(d) for row, d in zip(rows, dominated))
        assert not changed or k in native, f"domination changed at step {k} unseen"
        state.update(zip(rows, map(bool, dominated)))


def _reductions_log(specs, grid, cfg, steps, stride, retire, n_sweep, bound, stat_tol):
    """
    March a batch with ``_Reductions`` (the pairs inside R checked for
    monotonicity) and log them at each step the observer is shown, which
    asks for every stride-th step and for step ``retire``, where it retires
    the first row.  Returns the log and the NegativityError message, if one
    was raised.
    """
    kern = _Kernel(specs, grid, cfg)
    kern.n_scan = min(kern.n_scan, len(specs) - n_sweep)
    pairs = int(np.count_nonzero(grid.r_centers[1:] < specs[0].R))
    red = _Reductions(len(specs), bound=bound, stat_tol=stat_tol, mono_tol=1e-10, mono_pairs=pairs)
    log = {}

    def observe(k, t, Jt, Js, tags):
        log[k] = [kern.rows.tolist()] + [
            a.copy() for a in (red.sup, red.change, red.nonmono, red.first_nonmono)
        ]
        done = None
        if k == retire and len(Jt) > 1:
            done = np.arange(len(Jt)) == 0
        return done, k + stride if k >= retire else min(k + stride, retire)

    try:
        _march(kern, observe, steps, first=min(stride, retire), red=red)
    except NegativityError as exc:
        return log, str(exc)
    return log, None


@needs_native
@settings(max_examples=30, deadline=None)
@given(
    n_cells=st.integers(2, 300),
    kappa=st.floats(-1.0, 2.0).map(lambda x: 10.0**x),
    kappa_outside=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    R=st.floats(0.5, 10.0),
    dt=st.floats(0.01, 1.0),
    steps=st.integers(1, 200),
    stride=st.integers(1, 60),
    retire=st.integers(1, 200),
    n_sweep=st.integers(0, 2),
    bound=st.floats(0.9, 1.2),
    stat_tol=st.floats(-6.0, -1.0).map(lambda x: 10.0**x),
)
def test_native_reductions_match_numpy(
    n_cells, kappa, kappa_outside, R, dt, steps, stride, retire, n_sweep, bound, stat_tol
):
    # The kernel's sup, relative change and non-monotone steps are those of
    # _Reductions.update, and it stops at every step where a row's sup
    # passes the bound or its change falls below the tolerance.
    grid = make_uniform_grid(3.0 * R, n_cells)
    specs = [ProblemSpec(B=1.0, R=R, kappa=kappa, kappa_outside=k) for k in kappa_outside]
    cfg = SolverConfig(dt=dt)
    n_sweep = min(n_sweep, len(specs))
    (native, native_err), (reference, reference_err) = _both(
        lambda: _reductions_log(specs, grid, cfg, steps, stride, retire, n_sweep, bound, stat_tol)
    )
    assert native_err == reference_err
    assert native and set(native) <= set(reference)
    for k, (rows, *values) in native.items():
        assert rows == reference[k][0]
        for a, b in zip(values, reference[k][1:]):
            assert np.array_equal(a, b, equal_nan=True)
    for k, (_, sup, change, _, _) in reference.items():
        assert k in native or not (np.any(sup > bound) or np.any(change < stat_tol))


@settings(max_examples=300, deadline=None)
@given(
    dt=st.floats(1e-3, 10.0),
    k=st.integers(0, 10**6),
    x=st.floats(0.0, 1e7),
    past=st.booleans(),
)
def test_first_step_is_the_first_to_reach_the_time(dt, k, x, past):
    # The step the spurious observer asks for: a late one would retire a row
    # after its hold ends, an early one costs a call.
    reached = (lambda j: j * dt > x) if past else (lambda j: j * dt >= x)
    j = _first_step(dt, k, x, past)
    assert j > k and reached(j)
    assert j == k + 1 or not reached(j - 1)


@needs_native
def test_spurious_records_match_numpy():
    # Rows on both streaming paths (eps = 1e7 puts more than 400 e-folds
    # outside the sphere), a censored row and a repeated eps.
    grid = make_uniform_grid(18.0, 50)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    cfg = SolverConfig(dt=0.1)
    eps = [0.1, 1e7, 0.03, 0.01, 0.1]
    native, reference = _both(
        lambda: run_spurious_trapped_experiment(eps, spec, grid, cfg, horizon=80.0)
    )
    assert native == reference
    assert any(r.censored for r in native) and any(not r.censored for r in native)


@needs_native
def test_run_to_time_trajectory_matches_numpy():
    grid = make_uniform_grid(18.0, 50)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_outside=0.01)
    cfg = SolverConfig(dt=0.1, t_end=40.0, stationarity_tol=1e-30)
    native, reference = _both(lambda: run_to_time(spec, grid, cfg, (0.0, 5.0, 12.3)))
    _assert_same_trajectory(native, reference, n_snapshots=3)


@needs_native
def test_run_to_time_past_the_final_state_matches_numpy():
    # Past the stationary stop at step 133 the native march runs straight
    # to the next snapshot step; the numpy march shows every step.
    grid = make_uniform_grid(18.0, 50)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    cfg = SolverConfig(dt=0.1, t_end=30.0, stationarity_tol=1e-8)
    native, reference = _both(lambda: run_to_time(spec, grid, cfg, (5.0, 20.0, 40.0)))
    assert native.stopped == "stationary"
    _assert_same_trajectory(native, reference, n_snapshots=3)


def _assert_same_trajectory(native, reference, n_snapshots):
    assert native.stopped == reference.stopped
    assert len(native.snapshots) == len(reference.snapshots) == n_snapshots
    pairs = [(a.state, a.tags, b.state, b.tags) for a, b in zip(native.snapshots, reference.snapshots)]
    pairs.append((native.final, native.final_tags, reference.final, reference.final_tags))
    for a, a_tags, b, b_tags in pairs:
        assert a.t == b.t
        assert np.array_equal(a_tags, b_tags)
        assert np.array_equal(a.Jt.values, b.Jt.values)
        assert np.array_equal(a.Js.values, b.Js.values)


@pytest.mark.parametrize("path", [pytest.param("native", marks=needs_native), "numpy"])
def test_march_never_writes_to_an_array_it_has_shown(path):
    # An observer may keep the (Jt, Js, tags) it is shown, as run_to_time
    # keeps the previous step's fields: no later step may write into them.
    # A spurious batch with a row on the sequential sweep (eps = 1e7), two
    # rows retired on the way, several steps per native call.
    grid = make_uniform_grid(18.0, 50)
    specs = [ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_outside=eps)
             for eps in (0.1, 0.03, 0.01, 1e7)]
    kern = _Kernel(specs, grid, SolverConfig(dt=0.1))
    kept, retire = [], [20, 45]

    def observe(k, t, Jt, Js, tags):
        kept.extend((a, a.copy()) for a in (Jt, Js, tags))
        done = None
        if retire and k == retire[0]:
            retire.pop(0)
            done = np.arange(len(Jt)) == 0
        return done, min([k + 4, *retire[:1]])

    with contextlib.nullcontext() if path == "native" else _numpy_march():
        _march(kern, observe, 80, first=4, with_tags=True,
               watch=int(np.searchsorted(grid.r_centers, 6.0)))
    assert not retire and len(kern.rows) == 2
    assert len(kept) >= 3 * 20
    for shown, copy in kept:
        assert np.array_equal(shown, copy)


@needs_native
def test_instability_result_matches_numpy():
    # The native kernel reduces the sup and the first non-monotone step
    # itself, and returns only at the snapshots: at 80 cells the first
    # non-monotone step (t = 2.8) lies between two of them.
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    cfg = SolverConfig(dt=0.1, t_end=20.0)
    for n_cells, snapshot_times in [(600, (5.0, 20.0)), (80, (1.0, 5.0, 20.0))]:
        grid = make_uniform_grid(18.0, n_cells)
        native, reference = _both(
            lambda: run_instability_experiment(spec, grid, cfg, snapshot_times=snapshot_times)
        )
        assert native.snapshots == reference.snapshots
        assert native.first_nonmonotone_time == reference.first_nonmonotone_time
        assert native.sup_total == reference.sup_total
        assert np.array_equal(native.final.Jt.values, reference.final.Jt.values)
        assert np.array_equal(native.final.Js.values, reference.final.Js.values)
    assert 1.0 < native.first_nonmonotone_time < 5.0
    assert [s.nonmonotone for s in native.snapshots] == [False, True, True]


@needs_native
def test_instability_run_returns_from_the_kernel_only_at_snapshots(monkeypatch):
    # The default run: 10000 cells, 2000 steps, four snapshots.
    native = _native.load()
    steps = []

    def march(*args):
        taken = native.lib.march(*args)
        steps.append(taken)
        return taken

    counting = SimpleNamespace(ffi=native.ffi, lib=SimpleNamespace(march=march))
    monkeypatch.setattr(_native, "load", lambda: counting)
    snapshot_times = (10.0, 50.0, 100.0, 200.0)
    result = run_instability_experiment(
        ProblemSpec(B=1.0, R=6.0, kappa=1.0), make_uniform_grid(18.0, 10000),
        SolverConfig(dt=0.1, t_end=200.0), snapshot_times,
    )
    assert steps == [100, 400, 500, 1000]  # one call per snapshot, none before the first
    assert sum(steps) == 2000
    assert [s.t for s in result.snapshots] == list(snapshot_times)
    assert result.first_nonmonotone_time is not None


# sup(Jt + Js) <= B is not a property of the switched scheme outside the
# explicit diffusion limit dt / (3 kappa dr^2) <= 1/2: the default
# instability run (R = 6, r_max = 18, dt = 0.1, t_end = 200) overshoots at
# 92 cells and at kappa = 10 on 1000 cells, and holds at 80 and 400 cells,
# all above the limit.  Both marches stop at the same step with the same sup.
_BOUND_CASES = [
    (92, 1.0, "sup(Jt + Js) = 1.00288904 exceeds B(1 + 1e-06) at t = 1.8; "
              "diffusion number dt/(3 kappa dr^2) = 0.871"),
    (1000, 10.0, "sup(Jt + Js) = 1.01995967 exceeds B(1 + 1e-06) at t = 0.8; "
                 "diffusion number dt/(3 kappa dr^2) = 10.3"),
    (80, 1.0, None),
    (400, 1.0, None),
]


@pytest.mark.parametrize("path", [pytest.param("native", marks=needs_native), "numpy"])
@pytest.mark.parametrize("n_cells, kappa, message", _BOUND_CASES)
def test_sup_bound_outside_the_diffusion_limit(path, n_cells, kappa, message):
    spec = ProblemSpec(B=1.0, R=6.0, kappa=kappa)
    grid = make_uniform_grid(18.0, n_cells)
    cfg = SolverConfig(dt=0.1, t_end=200.0)
    assert diffusion_number(spec, grid, cfg) > 0.5

    def run():
        return run_instability_experiment(spec, grid, cfg, (10.0, 50.0, 100.0, 200.0))

    with contextlib.nullcontext() if path == "native" else _numpy_march():
        if message is None:
            assert run().sup_total <= 1.0 + 1e-6
        else:
            with pytest.raises(UnboundedError) as raised:
                run()
            assert str(raised.value) == message


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """``_native.load`` with an empty cache, forgotten again afterwards."""
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
    _native.load.cache_clear()
    yield
    _native.load.cache_clear()


_SPURIOUS = "experiment = spurious\neps_list = 0.1, 0.03\nexclude_largest = 0\n"


def _run_spurious(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(_SPURIOUS + f"output_dir = {tmp_path / name}\n")
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((tmp_path / name / "manifest.json").read_text())
    return (tmp_path / name / "spurious.csv").read_bytes(), manifest["march"]


@needs_native
def test_failed_build_falls_back_to_numpy(tmp_path, monkeypatch, fresh_load, capsys):
    native_csv, native_march = _run_spurious(tmp_path, "native")
    assert "compiled the native kernels in" in capsys.readouterr().err

    def broken(*args):
        raise _native.BuildError("no C compiler")

    monkeypatch.setattr(_native, "_build", broken)
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "empty")
    _native.load.cache_clear()
    numpy_csv, numpy_march = _run_spurious(tmp_path, "numpy")
    err = capsys.readouterr().err
    assert (native_march, numpy_march) == ("native", "numpy")
    assert numpy_csv == native_csv
    assert err.count("idsa-lab:") == 1 and "marching with numpy: no C compiler" in err


def test_import_neither_loads_cffi_nor_builds():
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import idsa_lab, idsa_lab.cli, sys\n"
        "assert not {'cffi', '_cffi_backend', 'idsa_lab._native'} & set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""



# ------------------------------------------------------------ CSV formatter

def _python_text(values) -> bytes:
    return "".join(format(x, ".17g") + "\n" for x in values.tolist()).encode()


def _random_bit_patterns(rng, n, exponents):
    """n doubles of random sign and mantissa, biased exponents drawn from range(*exponents)."""
    mantissa = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(*exponents, size=n, dtype=np.uint64) << np.uint64(52)
    return (sign | exponent | mantissa).view(np.float64)


@needs_native
def test_native_formatter_matches_python_on_random_bit_patterns():
    # 2M random 64-bit patterns: half drawn over every pattern (NaNs, infinities,
    # subnormals and wide exponents, which glibc formats), half with the
    # exponent of a normal value in (1e-6, 1e17), where the integer path runs.
    rng = np.random.default_rng(20261018)
    n = 1_000_000
    wide = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    narrow = _random_bit_patterns(rng, n, (1002, 1080))
    with _time_limit(60):
        for values in (wide, narrow):
            assert bytes(_block_text([values])) == _python_text(values)
    assert np.mean((np.abs(narrow) > 1e-6) & (np.abs(narrow) < 1e17)) > 0.9


@needs_native
def test_native_formatter_matches_python_below_1e_minus_6():
    # 500k random patterns with exponents from 2^-140 (about 7e-43) to 2^-20
    # (about 1e-6): the integer path's 192-bit products down to its bound
    # 1e-38, and glibc below it.
    values = _random_bit_patterns(np.random.default_rng(20261019), 500_000, (883, 1003))
    with _time_limit(30):
        assert bytes(_block_text([values])) == _python_text(values)
    assert 0.85 < np.mean(np.abs(values) > 1e-38) < 0.95


def _exact_ties():
    """
    Doubles k 2^-n whose exact decimal expansion has 18 significant digits
    ending in 5: the 17-digit text is a tie, rounded half to even.  The
    expansion of k 2^-n (k odd) has as many digits as k 5^n, so there are
    none below 2^-25.
    """
    ties = []
    for k, n in itertools.product(range(1, 2**12, 2), range(0, 60)):
        x = math.ldexp(k, -n)
        digits = format(Decimal(x), "f").replace(".", "").strip("0")
        if len(digits) == 18 and digits[-1] == "5" and x < 1e17:
            ties.append(x)
    return ties


def _near_ties(rng):
    """
    In each decade from 1e-38 to 1e16, the doubles nearest to ten random
    18-digit decimals ending in 5: each lies within half an ulp of a tie, so
    the bits below the 17th digit decide its rounding.
    """
    return [float(f"{rng.integers(10**16, 10**17)}5e{e - 17}")
            for e in range(-38, 17) for _ in range(10)]


def _ulp_neighbours(x, n):
    """x and the n doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


_FORMAT_EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    9.9999999999999999e16, 99999999999999984.0, 1e17, 1e16, 9999999999999998.0,
    1e-6, 1.0000000000000002e-06, 9.9999999999999995e-07,
    1e-5, 9.9999999999999991e-06, 1.0000000000000001e-05,
    1e-4, 9.9999999999999991e-05, 1.0000000000000002e-04,
    0.5, 1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 123456789012345678.0, 1234567890123456.25,
]
# 3 ulps either side of every power of ten from the integer path's lower
# bound, 1e-38, to 1e17; 1e-14 as a double is below 10^-14 and is written
# "1e-14".
_POWERS_OF_TEN = [y for e in range(-38, 18) for y in _ulp_neighbours(float(f"1e{e}"), 3)]


@needs_native
def test_native_formatter_matches_python_on_edge_values():
    ties = _exact_ties()
    assert len(ties) > 1000 and sum(x < 1e-6 for x in ties) == 9
    edges = _FORMAT_EDGES + _POWERS_OF_TEN + ties + _near_ties(np.random.default_rng(5))
    values = np.array(edges + [-x for x in edges])
    assert np.signbit(values[3]) and math.isnan(values[3])  # a NaN with the sign bit set
    with _time_limit(30):
        text = bytes(_block_text([values]))
    assert text == _python_text(values)
    assert text == _block_text_python([values])
    assert b"-nan" not in text


# A preloaded snprintf (and its fortified twin) that counts its calls.
_COUNTING_SNPRINTF = r"""
#include <stdarg.h>
#include <stdio.h>

static long calls;

long snprintf_calls(void) { return calls; }

int snprintf(char *s, size_t n, const char *format, ...)
{
    va_list ap;
    va_start(ap, format);
    const int r = vsnprintf(s, n, format, ap);
    va_end(ap);
    calls++;
    return r;
}

int __snprintf_chk(char *s, size_t n, int flag, size_t len, const char *format, ...)
{
    va_list ap;
    va_start(ap, format);
    const int r = vsnprintf(s, n, format, ap);
    va_end(ap);
    calls++;
    return r;
}
"""

_COUNT_CALLS = """
import ctypes, sys
import numpy as np
from idsa_lab import _native
from idsa_lab.cli import _block_text
_native.load()
calls = ctypes.CDLL(sys.argv[1]).snprintf_calls
calls.restype = ctypes.c_long
for path in sys.argv[2:]:
    before = calls()
    _block_text([np.load(path)])
    print(calls() - before)
"""


@needs_native
def test_native_formatter_calls_glibc_only_outside_its_range(tmp_path):
    # NaN, +-0 and every 1e-38 < |x| < 1e17 are written without snprintf;
    # subnormals, the rest of |x| <= 1e-38, |x| >= 1e17 and the infinities
    # with one call each.
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler to build the counting snprintf")
    (tmp_path / "count.c").write_text(_COUNTING_SNPRINTF)
    shim = tmp_path / "count.so"
    subprocess.run([cc, "-shared", "-fPIC", "-O2", "-o", str(shim), str(tmp_path / "count.c")],
                   check=True)
    rng = np.random.default_rng(3)
    inside = np.concatenate([
        [0.0, -0.0, math.nan, math.nextafter(1e-38, 1.0), 1e-14, 1e-6, 0.5,
         99999999999999984.0],
        rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-37.99, 16.99, 100_000),
    ])
    outside = np.array([1e-38, -1e-300, 5e-324, 2.2250738585072014e-308, 1e17, -3e20,
                        1.7976931348623157e308, math.inf, -math.inf])
    paths = [tmp_path / "inside.npy", tmp_path / "outside.npy"]
    for path, values in zip(paths, (inside, outside)):
        np.save(path, values)
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "LD_PRELOAD": str(shim),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _COUNT_CALLS, str(shim), *map(str, paths)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(outside.size)]


# ------------------------------------------------------------ tridiagonal solve

def _banded_matrices(n_cells, kappa, variant, dt):
    """The scheme's step matrix I - dt L and its stationary matrix -L as (dl, d, du)."""
    grid = make_uniform_grid(18.0, n_cells)
    scheme = ReformedScheme(variant, ProblemSpec(B=1.0, R=6.0, kappa=kappa), grid,
                            SolverConfig(dt=dt))
    lower, diag, upper = scheme._L
    return scheme, [(-dt * lower[1:], 1.0 - dt * diag, -dt * upper[:-1]),
                    (-lower[1:], -diag, -upper[:-1])]


@needs_native
def test_native_solve_matches_python_dgtsv_and_scipy():
    # The step and stationary matrices of both variants, against the Python
    # dgtsv and scipy's solve_banded (LAPACK dgtsv), bit for bit.
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    rng = np.random.default_rng(7)
    swapped, solves = set(), 0
    with _time_limit(120):
        for n_cells, kappa, variant, dt in itertools.product(
            (30, 600, 3999, 19998), (0.5, 1.0, 3.0, 10.0, 100.0), ("old", "new"), (0.01, 0.1, 1.0)
        ):
            scheme, matrices = _banded_matrices(n_cells, kappa, variant, dt)
            m = scheme.m
            for which, (dl, d, du) in enumerate(matrices):
                ab = np.zeros((3, m))
                ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
                factors = [dl.tolist(), d.tolist(), du.tolist()]
                fact, swap = _gtsv_factor(*factors)
                if which == 0 and any(swap):
                    swapped.add((n_cells, variant, dt, swap.index(True) - m))
                native = scheme._M if which == 0 else _Tridiagonal(dl, d, du)
                for b in [scheme._q, *(rng.random(m) * 10.0 ** rng.uniform(-3, 3) for _ in range(2))]:
                    expected = solve_banded((1, 1), ab, b)
                    reference = np.array(_gtsv_solve(*factors, fact, swap, b.tolist()))
                    assert reference.tobytes() == expected.tobytes()
                    assert native.solve(b).tobytes() == expected.tobytes()
                    solves += 1
            direct = scheme.stationary_direct().Jt.values[:m]
            assert direct.tobytes() == _Tridiagonal(*matrices[1]).solve(scheme._q).tobytes()
    # dgtsv interchanges rows where |d_i| < |dl_i|: at 19998 cells it does
    # so for each variant and dt, and only ever at row m - 2.
    assert {(v, dt, offset) for n, v, dt, offset in swapped if n == 19998} == {
        (v, dt, -2) for v in ("old", "new") for dt in (0.01, 0.1, 1.0)
    }
    assert solves == 4 * 5 * 2 * 3 * 2 * 3


@needs_native
def test_native_solve_matches_python_dgtsv_and_scipy_on_random_matrices():
    # General matrices interchange rows anywhere, so the second superdiagonal
    # that dgtsv fills in takes part in the back substitution.
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    rng = np.random.default_rng(11)
    interior_swaps = 0
    with _time_limit(60):
        for n in (1, 2, 3, 4, 7, 50, 1000):
            for _ in range(20):
                dl, d, du = (rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3, k)
                             for k in (n - 1, n, n - 1))
                ab = np.zeros((3, n))
                ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
                factors = [dl.tolist(), d.tolist(), du.tolist()]
                fact, swap = _gtsv_factor(*factors)
                interior_swaps += any(swap[: n - 2])
                matrix = _Tridiagonal(dl, d, du)
                for b in rng.standard_normal((3, n)):
                    expected = solve_banded((1, 1), ab, b)
                    reference = np.array(_gtsv_solve(*factors, fact, swap, b.tolist()))
                    assert reference.tobytes() == expected.tobytes()
                    assert matrix.solve(b).tobytes() == expected.tobytes()
    assert interior_swaps > 50


# ------------------------------------------------------------ fallback

@needs_native
@pytest.mark.parametrize("experiment", [
    "oracle", "solve-idsa", "solve-old", "solve-new", "spurious", "instability", "convergence",
    "err0",
])
def test_cli_without_native_module_writes_the_same_bytes(tmp_path, experiment):
    # Default configs: the numpy march, the Python solve and the Python
    # formatter write what the native module writes.
    bodies = {}
    with _time_limit(120):
        for name in ("native", "numpy"):
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"experiment = {experiment}\noutput_dir = {out}\n")
            with _numpy_march() if name == "numpy" else contextlib.nullcontext():
                assert main(["run", str(cfg)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest.get("march", name) == name
            bodies[name] = {
                f: b"".join(line for line in (out / f).read_bytes().splitlines(True)
                            if not line.startswith(b"#"))
                for f in manifest["outputs"]
            }
    assert bodies["numpy"] == bodies["native"]
