"""
The native march kernel against the numpy march: bit-identical fields,
tags, stops and records; the fallback when the kernel cannot be built.
"""

import contextlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idsa_lab
from idsa_lab import (
    NegativityError,
    ProblemSpec,
    SolverConfig,
    make_uniform_grid,
    run_instability_experiment,
    run_spurious_trapped_experiment,
    run_to_time,
)
from idsa_lab import _native
from idsa_lab.cli import main
from idsa_lab.idsa import _Kernel, _first_step, _march

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
        _march(kern, observe, steps, with_tags=with_tags, watch=watch)
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
    # The observer keeps the arrays it is shown (the previous step's fields),
    # so a kernel that reused its output buffers would change rel_change.
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
    for name in ("times", "rel_change", "sup_total", "regime_counts"):
        assert np.array_equal(getattr(native, name), getattr(reference, name)), name
    assert native.stopped == reference.stopped
    assert len(native.snapshots) == len(reference.snapshots) == n_snapshots
    pairs = [(a.state, a.tags, b.state, b.tags) for a, b in zip(native.snapshots, reference.snapshots)]
    pairs.append((native.final, native.final_tags, reference.final, reference.final_tags))
    for a, a_tags, b, b_tags in pairs:
        assert a.t == b.t
        assert np.array_equal(a_tags, b_tags)
        assert np.array_equal(a.Jt.values, b.Jt.values)
        assert np.array_equal(a.Js.values, b.Js.values)


@needs_native
def test_instability_result_matches_numpy():
    grid = make_uniform_grid(18.0, 600)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    cfg = SolverConfig(dt=0.1, t_end=20.0)
    native, reference = _both(
        lambda: run_instability_experiment(spec, grid, cfg, snapshot_times=(5.0, 20.0))
    )
    assert native.snapshots == reference.snapshots
    assert native.first_nonmonotone_time == reference.first_nonmonotone_time
    assert np.array_equal(native.final.Jt.values, reference.final.Jt.values)
    assert np.array_equal(native.final.Js.values, reference.final.Js.values)


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
    assert "compiled the native march kernel in" in capsys.readouterr().err

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

