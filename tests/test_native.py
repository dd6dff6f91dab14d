"""
The native kernels against their references: the march against the numpy
march (fields, tags, stops and records), the oracle's quadrature against
integrate_batch over its numpy integrands (values, failures and counts,
on any number of worker threads) and its exp against the numpy
transcription, the tridiagonal solve against the Python dgtsv and scipy,
and the CSV formatter against Python's ``.17g``, all bit for bit; the
oracle's exp within 1 ulp of mpmath; the march and the oracle built on
their own at each x86-64 level this CPU runs, against numpy; the march's
split rows on one thread, on two, on two sharing one CPU and with a helper
that cannot start, against numpy; the kernels built with AddressSanitizer
and with ThreadSanitizer, running clean; both marches never writing to
an array they have shown; the removal of stale builds; and the fallback
when the module cannot be built.
"""

import contextlib
import itertools
import math
import signal
import unittest.mock
from decimal import Decimal
import importlib.machinery
import importlib.util
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idsa_lab
from idsa_lab import (
    NegativityError,
    NormalizationSingularityError,
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
from idsa_lab.config import parse_config
from idsa_lab.idsa import (
    _CONFIRM, _MIN_HOLD, _Holds, _Kernel, _Reductions, _march, diffusion_number,
)
from idsa_lab import quadrature, sphere
from idsa_lab.quadrature import _WEIGHTS, QuadratureError
from idsa_lab.reformed import ReformedScheme, _gtsv_factor, _gtsv_solve, _Tridiagonal
from idsa_lab.sphere import moments_at

needs_native = pytest.mark.skipif(
    _native.load() is None, reason="the native march kernel cannot be built here"
)


@contextlib.contextmanager
def _numpy_march():
    """Run every kernel's reference inside the block (the numpy march and
    oracle, the Python solve and formatter), whatever this process could build."""
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


@needs_native
def test_every_kernel_call_fills_every_field_of_its_struct(monkeypatch):
    # Each struct of the cffi interface but the oracle's status, which only
    # the kernel writes, is built by _native.struct or structs on the way to
    # its kernel, with every field named: a field left out would stay 0 or
    # NULL, and the kernel would read through it.
    built, struct, structs = [], _native.struct, _native.structs

    def record_struct(ctype, **fields):
        built.append((ctype, sorted(fields)))
        return struct(ctype, **fields)

    def record_structs(ctype, rows):
        built.extend((ctype, sorted(row)) for row in rows)
        return structs(ctype, rows)

    monkeypatch.setattr(_native, "struct", record_struct)
    monkeypatch.setattr(_native, "structs", record_structs)
    spec, cfg = ProblemSpec(B=1.0, R=6.0, kappa=1.0), SolverConfig(dt=0.1, t_end=1.0)
    grid = make_uniform_grid(18.0, 30)
    run_spurious_trapped_experiment([0.05], spec, grid, cfg)
    run_instability_experiment(spec, grid, cfg, (0.5,))
    ReformedScheme("new", spec, grid, cfg).run_to_stationarity()
    moments_at(grid.r_centers, spec, 1e-8)
    _block_text([np.zeros(2), np.zeros(2, bool), ["a", "b"], 0.25])
    interface = _native._SOURCE.read_text().split(_native._BEGIN)[1].split(_native._END)[0]
    declared = set(re.findall(r"\}\s*(\w+);", interface)) - {"oracle_status"}
    assert {ctype for ctype, _ in built} == declared
    ffi = _native.load().ffi
    for ctype, names in built:
        assert names == sorted(name for name, _ in ffi.typeof(ctype).fields), ctype


@needs_native
def test_kernels_refuse_an_array_of_another_dtype_or_layout():
    # A kernel that reads doubles, handed a float32, an int8 or a
    # non-contiguous array, raises before it reads a byte, in an argument
    # and in a struct's field.
    lib = _native.load().lib
    out = np.full(4, 7.0)
    for bad in (np.ones(8, np.float32), np.ones(32, np.int8)):
        with pytest.raises(TypeError):
            lib.oracle_exp(4, _native.ptr(bad), _native.ptr(out))
        with pytest.raises(TypeError):
            _native.struct("oracle_integrand", inside=1, node=bad, weight=None, r=None,
                           rate=None, mu0_sq=None, R=6.0, kappa=1.0)
    with pytest.raises(ValueError, match="contiguous"):
        lib.oracle_exp(4, _native.ptr(np.ones((4, 2))[:, 0]), _native.ptr(out))
    assert out.tolist() == [7.0] * 4
    lib.oracle_exp(4, _native.ptr(np.zeros(4)), _native.ptr(out))
    assert out.tolist() == [1.0] * 4


@needs_native
def test_struct_names_a_missing_and_an_unknown_field():
    fields = dict(watch=3, confirm=2.0, min_hold=10.0, since=np.full(2, -1, np.int64))
    c, keep = _native.struct("march_holds", **fields)
    assert (c.watch, c.min_hold, c.since[1]) == (3, 10.0, -1)
    del fields["since"]
    with pytest.raises(ValueError, match=r"missing fields \['since'\], unknown fields \[\]"):
        _native.struct("march_holds", **fields)
    with pytest.raises(ValueError, match=r"missing fields \[\], unknown fields \['sice'\]"):
        _native.struct("march_holds", **fields, since=None, sice=None)


# The x86-64 levels of the march's clones, and the /proc/cpuinfo flags each
# needs beyond the baseline (lzcnt is "abm" there).
_V3_FLAGS = {"cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3", "avx", "avx2", "bmi1",
             "bmi2", "f16c", "fma", "abm", "movbe", "xsave"}
_LEVEL_FLAGS = {
    "x86-64": set(),
    "x86-64-v3": _V3_FLAGS,
    "x86-64-v4": _V3_FLAGS | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
}


def _host_levels() -> list[str]:
    """The levels of _LEVEL_FLAGS this CPU runs, baseline first; none off x86-64 Linux."""
    cpuinfo = Path("/proc/cpuinfo")
    if platform.machine() != "x86_64" or not cpuinfo.exists():
        return []
    line = next(line for line in cpuinfo.read_text().splitlines() if line.startswith("flags"))
    flags = set(line.split(":", 1)[1].split())
    return [level for level, need in _LEVEL_FLAGS.items() if need <= flags]


def _cc_clones_the_march() -> bool:
    """Whether cc builds the march's clones: gcc 12 or later, with glibc."""
    version = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout
    major = subprocess.run(["cc", "-dumpversion"], capture_output=True, text=True).stdout
    return ("Free Software Foundation" in version and int(major.split(".")[0]) >= 12
            and platform.libc_ver()[0] == "glibc")


def test_native_source_compiles_without_warnings():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the numpy march is the only one")
    # The flags the module is built with: the interpreter's, then _native's.
    flags = [*(sysconfig.get_config_var("CFLAGS") or "").split(), *_native._CFLAGS]
    proc = subprocess.run(
        ["cc", *flags, "-Wall", "-Wextra", "-Wmissing-prototypes", "-Wcast-qual",
         "-Wshadow", "-Werror", "-fsyntax-only", str(_native._SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if not (_host_levels() and _cc_clones_the_march()):
        return
    # The cached module holds three clones of the march's step over a range
    # of cells and of the oracle's pass, and names the widest this CPU runs.
    native = _native.load()
    module = Path(native.__file__).read_bytes()
    for kernel, level in itertools.product(
        ("step_range", "panel_estimates"), ("arch_x86_64_v4", "arch_x86_64_v3", "default")
    ):
        assert f"{kernel}.{level}".encode() + b"\0" in module
    assert _native.march_isa() == _host_levels()[-1]


def _march_log(specs, grid, cfg, steps, with_tags, stride, retire, n_sweep, watch,
               reductions=None, tweak=None, stats=None):
    """
    March a batch with ``_Holds`` on the cells from ``watch`` on (None: no
    holds) and log what the observer was shown: step -> (rows, Jt, Js,
    tags, since, ended), keeping the arrays themselves, not copies.  It
    asks for every stride-th step and for step ``retire``, where it retires
    the first row, up to step ``steps``; the last ``n_sweep`` rows take the
    sweep.  Given ``reductions``, the keywords of a ``_Reductions``, it
    marches with those too, and each entry goes on with copies of their
    sup, change, nonmono and first_nonmono.  ``tweak``, if given, is called
    with the ``_Kernel`` before the march, and ``stats`` is ``_march``'s.
    Returns the log and the NegativityError message, if one was raised.
    """
    kern = _Kernel(specs, grid, cfg)
    kern.n_scan = min(kern.n_scan, len(specs) - n_sweep)
    if tweak is not None:
        tweak(kern)
    hold = None if watch is None else _Holds(len(specs), watch, cfg.dt)
    red = None if reductions is None else _Reductions(len(specs), **reductions)
    log = {}

    def observe(k, t, Jt, Js, tags):
        log[k] = (kern.rows.tolist(), Jt, Js, tags,
                  *((None, None) if hold is None else (hold.since.copy(), hold.ended(k))))
        if red is not None:
            log[k] += tuple(a.copy() for a in (red.sup, red.change, red.nonmono, red.first_nonmono))
        done = None
        if k == retire and len(Jt) > 1:
            done = np.zeros(len(Jt), bool)
            done[0] = True
        upcoming = k + stride if k >= retire else min(k + stride, retire)
        return done, min(upcoming, steps) if k < steps else None

    try:
        _march(kern, observe, with_tags=with_tags, hold=hold, red=red, stats=stats)
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
    for k, (rows, Jt, Js, tags, since, ended) in native.items():
        ref_rows, ref_Jt, ref_Js, ref_tags, ref_since, ref_ended = reference[k]
        assert rows == ref_rows
        assert np.array_equal(Jt, ref_Jt) and np.array_equal(Js, ref_Js)
        assert np.array_equal(np.signbit(Jt), np.signbit(ref_Jt))
        assert np.array_equal(np.signbit(Js), np.signbit(ref_Js))
        assert (tags is None) == (not with_tags)
        assert tags is None or np.array_equal(tags, ref_tags)
        # The kernel's hold record is _Holds.update's.
        assert np.array_equal(since, ref_since) and np.array_equal(ended, ref_ended)
    # The native march stops at every step where a row's hold of the cells
    # r >= R ends; a domination that begins or ends is no stop.
    for k, (*_, ended) in reference.items():
        assert k in native or not ended.any(), f"a hold ended at step {k} unseen"


# Row lengths at and next to the powers of two up to 512, so that a row ends
# just before, at and just after a block edge for any power-of-two block of
# cells up to 512.
_BLOCK_EDGE_CELLS = (2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513)


@needs_native
@pytest.mark.parametrize("n_cells", _BLOCK_EDGE_CELLS)
def test_native_march_matches_numpy_at_block_edges(n_cells):
    # A scan row and a sweep row, with tags and without, holds that end on
    # the cells r >= R, and reductions with a positive stat_tol whose
    # non-monotone pairs end just before, at and just after a power of two;
    # the first row retires at step 45.  Every step shown is the numpy
    # step's, bit for bit: fields, tags, holds, sup, change and the first
    # non-monotone step.
    grid = make_uniform_grid(18.0, n_cells)
    specs = [ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_outside=k) for k in (0.01, 1e3)]
    cfg = SolverConfig(dt=0.5)
    watch = int(np.searchsorted(grid.r_centers, 6.0))
    edge = 1 << (n_cells - 1).bit_length() - 1  # the largest power of two below n_cells
    for with_tags, pairs in itertools.product((False, True), (edge - 1, edge, edge + 1)):
        reductions = dict(stat_tol=1e-3, mono_tol=1e-10, mono_pairs=min(pairs, n_cells - 1))
        (native, native_err), (reference, reference_err) = _both(lambda: _march_log(
            specs, grid, cfg, 60, with_tags, 7, 45, 1, watch, reductions=reductions))
        assert native_err is None and reference_err is None
        assert set(native) <= set(reference) and max(native) == max(reference) == 60
        for k, (rows, *values) in native.items():
            ref_rows, *ref_values = reference[k]
            assert rows == ref_rows
            assert (values[2] is None) == (ref_values[2] is None) == (not with_tags)
            for value, ref in zip(values, ref_values, strict=True):
                if value is not None:
                    assert value.shape == ref.shape and value.tobytes() == ref.tobytes(), k
        # The holds end and the change falls below stat_tol within the march.
        assert any(entry[5].any() for entry in native.values())
        assert any((entry[7] < 1e-3).any() for k, entry in native.items() if k)

    # A trapped value that turns negative in the row's first cell or in its
    # last stops both marches at the same step, named alike.
    def negative(cell):
        kern = _Kernel(specs, grid, cfg)
        kern.n_scan = 1
        kern.inv_den[1, cell] *= -1.0
        with pytest.raises(NegativityError) as info:
            _march(kern, lambda k, t, Jt, Js, tags: (None, k + 1 if k < 5 else None))
        return str(info.value)

    for cell in (0, n_cells - 1):
        native, reference = _both(lambda: negative(cell))
        assert native == reference and f", cell {cell} (" in native


# Marches of rows one cell longer than MARCH_SPLIT_MIN_CELLS (R = 6, r_max =
# 18), which the kernel splits at the block edge 1024 on two workers: each
# row's kappa_outside, dt, the steps, the stride of the steps asked for, the
# step at which the first row retires, tags or not, the keywords of the
# _Reductions (mono_pairs: the pairs inside R), holds on the cells r >= R
# or not, and a streaming term d or a 1 / den scaled at a cell of the last
# row.  Each stops where its name says inside a call of several steps.
_SPLIT_ROW_CASES = {
    # sup passes 0.95 near step 8, and stays above it
    "stop at bound": ((0.01, 0.03), 0.5, 40, 13, 20, False, dict(bound=0.95), False, None),
    # the change falls below 1e-2 for a few steps near step 10, then chatters
    "stop at stat_tol": ((1e3, 300.0), 0.5, 40, 25, 30, True, dict(stat_tol=1e-2), False, None),
    # a trapped value in the head, which stays in its cell (a negative
    # streaming one would reach the tail through the prefix), and a
    # streaming one in the tail
    "negative in the head": ((0.01, 0.01), 0.5, 20, 20, 20, False, dict(stat_tol=1e-300), False,
                             ("inv_den", 683, -1.0)),
    "negative in the tail": ((0.01, 0.01), 0.5, 20, 20, 20, True, None, False, ("d", 1100, -1e3)),
    "NaN in the tail": ((0.01, 0.01), 0.5, 20, 20, 20, False, dict(stat_tol=1e-300), False,
                        ("inv_den", 1500, np.nan)),
    # the first row's hold ends at step 21
    "hold ends": ((1e3, 0.01), 0.5, 60, 60, 40, False, None, True, None),
    # every call of 4 steps ends in the spare pair and tags, and is copied out
    "last step in the spare pair": ((0.01, 1e3), 0.5, 40, 4, 18, True, dict(stat_tol=1e-300),
                                    False, None),
}


def _split_log(case, n_cells, n_rows, stats=None):
    """``_march_log`` of ``_SPLIT_ROW_CASES[case]`` on the first ``n_rows``
    rows of n_cells cells, its arrays as bytes."""
    kappas, dt, steps, stride, retire, with_tags, reductions, holds, scaled = _SPLIT_ROW_CASES[case]
    grid = make_uniform_grid(18.0, n_cells)
    specs = [ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_outside=k) for k in kappas[:n_rows]]
    inside = int(np.searchsorted(grid.r_centers, 6.0))
    if reductions is not None:
        reductions = dict(reductions, mono_tol=1e-10, mono_pairs=inside - 1)

    def tweak(kern):
        if scaled is not None:
            name, cell, factor = scaled
            getattr(kern, name)[-1, cell] *= factor

    log, error = _march_log(specs, grid, SolverConfig(dt=dt), steps, with_tags, stride, retire, 0,
                            inside if holds else None, reductions, tweak, stats)
    return {k: tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in entry)
            for k, entry in log.items()}, error


@needs_native
@pytest.mark.parametrize("n_rows", [1, 2])
@pytest.mark.parametrize("case", _SPLIT_ROW_CASES)
def test_split_rows_match_one_thread_and_numpy_bit_for_bit(case, n_rows):
    # On two workers each row's head and tail run on two threads, the head
    # one step ahead; on one the rows run whole.  Both show the same steps,
    # with the fields, tags, holds, sup, change, nonmono and first_nonmono
    # of the numpy march at each, bit for bit, and stop with its error.
    n_cells = _native.load().lib.MARCH_SPLIT_MIN_CELLS + 1
    runs = []
    for workers in (1, 2):
        stats = {}
        with _workers(workers):
            runs.append(_split_log(case, n_cells, n_rows, stats))
        assert stats == {"march_workers": workers}
    with _numpy_march():
        reference, reference_error = _split_log(case, n_cells, n_rows)
    assert runs[0] == runs[1]
    log, error = runs[0]
    assert error == reference_error  # the same step, row and cell
    assert set(log) <= set(reference) and (error or max(log) == max(reference))
    for k, entry in log.items():
        assert entry == reference[k], k
    # Each case stops as its name says, within a call of several steps.
    asked = {k for k in log if k % _SPLIT_ROW_CASES[case][3] == 0}
    if case.startswith(("negative", "NaN")):
        where = re.search(r"became (\w+) at t = [0-9.]+, cell (\d+)", error).groups()
        assert where == ("NaN" if case.startswith("NaN") else "negative",
                         str(_SPLIT_ROW_CASES[case][8][1]))
        assert max(log) < _SPLIT_ROW_CASES[case][3]
    else:
        assert error is None and log.keys() - asked - {_SPLIT_ROW_CASES[case][4]}


# Both threads of every split row on one CPU: each handoff waits for the
# other thread to be scheduled, past the spin loop's pauses.
_SPLIT_ON_ONE_CPU = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from idsa_lab import _native
sys.path.insert(0, sys.argv[1])
from test_native import _SPLIT_ROW_CASES, _split_log, _workers
n_cells = _native.load().lib.MARCH_SPLIT_MIN_CELLS + 1
for case in _SPLIT_ROW_CASES:
    with _workers(1):
        expected = _split_log(case, n_cells, 2)
    stats = {}
    with _workers(2):
        assert _split_log(case, n_cells, 2, stats) == expected, case
    assert stats == {"march_workers": 2}, case
print("ok")
"""


@needs_native
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")
def test_split_rows_on_one_cpu_match_one_thread(tmp_path):
    # Given two workers in a process that may run on one CPU, the kernel
    # still splits the rows; its two threads take turns, and every case
    # gives the bits of one thread, within a bounded time.
    _native.load()  # built before the child imports it
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _SPLIT_ON_ONE_CPU, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr[-4000:]


def _holds_log(specs, grid, cfg, steps, retire, n_sweep):
    """
    March a batch with ``_Holds`` on the cells r >= R, retiring each row at
    the step its hold ends, as the spurious sweep does, and the first row at
    step ``retire``; the last ``n_sweep`` rows take the sweep.  Logs step ->
    (rows, since, ended) at each step the observer is shown, which asks for
    no step but ``retire`` and the last, ``steps``.  Returns the log and the
    NegativityError message, if one was raised.
    """
    kern = _Kernel(specs, grid, cfg)
    kern.n_scan = min(kern.n_scan, len(specs) - n_sweep)
    hold = _Holds(len(specs), int(np.searchsorted(grid.r_centers, specs[0].R)), cfg.dt)
    log = {}

    def observe(k, t, Jt, Js, tags):
        ended = hold.ended(k)
        log[k] = (kern.rows.tolist(), hold.since.copy(), ended)
        done = ended | ((np.arange(len(Jt)) == 0) & (k == retire))
        upcoming = retire if k < retire else steps
        return done, min(upcoming, steps) if k < steps else None

    try:
        _march(kern, observe, hold=hold)
    except NegativityError as exc:
        return log, str(exc)
    return log, None


@needs_native
@settings(max_examples=40, deadline=None)
@given(
    n_cells=st.integers(2, 120),
    kappa=st.floats(-1.0, 2.0).map(lambda x: 10.0**x),
    kappa_outside=st.lists(st.floats(-2.5, 0.5).map(lambda x: 10.0**x), min_size=1, max_size=4),
    R=st.floats(0.5, 10.0),
    dt=st.floats(0.02, 1.0),
    steps=st.integers(1, 400),
    retire=st.integers(1, 400),
    n_sweep=st.integers(0, 2),
)
def test_native_holds_match_numpy(n_cells, kappa, kappa_outside, R, dt, steps, retire, n_sweep):
    # The kernel's hold record is that of _Holds.update at every step it
    # shows, and it stops at every step where a hold ends, so both marches
    # retire the same rows at the same steps.
    grid = make_uniform_grid(3.0 * R, n_cells)
    specs = [ProblemSpec(B=1.0, R=R, kappa=kappa, kappa_outside=k) for k in kappa_outside]
    cfg = SolverConfig(dt=dt)
    n_sweep = min(n_sweep, len(specs))
    (native, native_err), (reference, reference_err) = _both(
        lambda: _holds_log(specs, grid, cfg, steps, retire, n_sweep)
    )
    assert native_err == reference_err
    assert native and set(native) <= set(reference)
    assert max(native) == max(reference)
    for k, (rows, since, ended) in native.items():
        ref_rows, ref_since, ref_ended = reference[k]
        assert rows == ref_rows
        assert np.array_equal(since, ref_since) and np.array_equal(ended, ref_ended)
    for k, (_, _, ended) in reference.items():
        assert k in native or not ended.any(), f"a hold ended at step {k} unseen"


def _reductions_log(specs, grid, cfg, steps, stride, retire, n_sweep, bound, stat_tol):
    """
    March a batch with ``_Reductions`` (the pairs inside R checked for
    monotonicity) and log them at each step the observer is shown, which
    asks for every stride-th step and for step ``retire``, where it retires
    the first row, up to step ``steps``.  Returns the log and the NegativityError message, if one
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
        upcoming = k + stride if k >= retire else min(k + stride, retire)
        return done, min(upcoming, steps) if k < steps else None

    try:
        _march(kern, observe, red=red)
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


@needs_native
@pytest.mark.parametrize("cell", [0, 127, 128, 200, 256])
def test_native_change_through_a_nan_matches_numpy(cell):
    # A NaN that enters one row's fields, in its first block, at a block
    # edge or in its last, stops the march at the step it appears, which
    # the kernel still reduces: it takes a block with a NaN by numpy's
    # running max, and the blocks without one by halving.  The change of
    # both rows keeps numpy's bits, NaN included, and both paths name the
    # NaN alike.
    grid = make_uniform_grid(18.0, 257)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)

    def march():
        kern = _Kernel([spec, spec], grid, SolverConfig(dt=0.1))
        kern.inv_den[1, cell] = np.nan
        red = _Reductions(2, stat_tol=1e-300)
        log = []

        def observe(k, t, Jt, Js, tags):
            log.append(red.change.tobytes())
            return None, k + 1 if k < 8 else None

        with pytest.raises(NegativityError) as info:
            _march(kern, observe, red=red)
        return log, red.change.tobytes(), str(info.value)

    native, reference = _both(march)
    assert native == reference
    log, last, message = native
    assert len(log) == 1  # step 0: the NaN appears at step 1
    assert message == f"trapped component became NaN at t = 0.1, cell {cell} (value nan)"
    last = np.frombuffer(last)
    assert np.isfinite(last[0]) and np.isnan(last[1])


@pytest.mark.parametrize("path", [pytest.param("native", marks=needs_native), "numpy"])
def test_spurious_horizon_is_taken_at_its_nearest_step(path):
    # A takeover confirmed at the step nearest t_end is recorded; a t_end
    # nearest the step before censors it.
    grid = make_uniform_grid(18.0, 50)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    dt = 0.1

    def sweep(t_end):
        cfg = SolverConfig(dt=dt, t_end=t_end)
        with contextlib.nullcontext() if path == "native" else _numpy_march():
            [record] = run_spurious_trapped_experiment([0.1], spec, grid, cfg)
        return record

    taken = sweep(1e3)
    t = taken.time
    # The hold from t ends at the first step whose time reaches its end.
    confirmed = next(k for k in itertools.count(round(t / dt))
                     if k * dt >= max(_CONFIRM * t, t + _MIN_HOLD))
    for t_end in (confirmed * dt, (confirmed - 0.4) * dt):
        assert sweep(t_end) == taken
    for t_end in ((confirmed - 1) * dt, (confirmed - 0.6) * dt):
        assert sweep(t_end).censored


@needs_native
def test_spurious_records_match_numpy():
    # Rows on both streaming paths (eps = 1e7 puts more than 400 e-folds
    # outside the sphere), a censored row and a repeated eps.
    grid = make_uniform_grid(18.0, 50)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    cfg = SolverConfig(dt=0.1, t_end=80.0)
    eps = [0.1, 1e7, 0.03, 0.01, 0.1]
    native, reference = _both(lambda: run_spurious_trapped_experiment(eps, spec, grid, cfg))
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
    pairs = [*zip(native.snapshots, reference.snapshots), (native.final, reference.final)]
    for a, b in pairs:
        assert a.t == b.t
        assert np.array_equal(a.tags, b.tags)
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
        return done, min([k + 4, *retire[:1], 80]) if k < 80 else None

    hold = _Holds(len(specs), int(np.searchsorted(grid.r_centers, 6.0)), 0.1)
    with contextlib.nullcontext() if path == "native" else _numpy_march():
        _march(kern, observe, with_tags=True, hold=hold)
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


@needs_native
def test_spurious_sweep_returns_from_the_kernel_only_at_retirements(monkeypatch):
    # The default sweep: 12 eps on 50 cells, dt = 0.1.  The kernel keeps
    # each row's hold itself, so it returns once per confirmed takeover (216
    # times when it returned at every step where a domination began or ended).
    native = _native.load()
    steps = []

    def march(*args):
        taken = native.lib.march(*args)
        steps.append(taken)
        return taken

    counting = SimpleNamespace(ffi=native.ffi, lib=SimpleNamespace(march=march))
    monkeypatch.setattr(_native, "load", lambda: counting)
    cfg = parse_config("experiment = spurious\n")
    records = run_spurious_trapped_experiment(
        cfg.eps_list, ProblemSpec(B=cfg.B, R=cfg.R, kappa=cfg.kappa),
        make_uniform_grid(cfg.r_max, cfg.n_cells), SolverConfig(dt=cfg.dt, t_end=cfg.horizon),
    )
    assert steps == [171, 123, 272, 516, 952, 1790, 3358, 6284, 11782, 22070, 41356, 77492]
    # Each call ends at the step that confirms the next takeover.
    confirmed = [round(max(2.0 * r.time, r.time + 10.0) / cfg.dt) for r in records]
    assert list(itertools.accumulate(steps)) == confirmed


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
    return (tmp_path / name / "spurious.csv").read_bytes(), manifest


@needs_native
def test_manifest_names_the_march_clone_only_on_the_native_path(tmp_path):
    _, native = _run_spurious(tmp_path, "native")
    with _numpy_march():
        _, reference = _run_spurious(tmp_path, "numpy")
    assert native["march"] == "native"
    assert native["march_isa"] == _native.march_isa()
    assert native["march_isa"] in ("x86-64-v4", "x86-64-v3", "x86-64", "default")
    assert reference["march"] == "numpy" and "march_isa" not in reference
    # Rows of 50 cells are below MARCH_SPLIT_MIN_CELLS: one thread on either path.
    assert native["march_workers"] == reference["march_workers"] == 1


@needs_native
def test_manifest_counts_the_threads_of_the_default_instability_march(tmp_path):
    # The default instability run marches one row of 10000 cells, which is
    # split on two threads wherever the process may use two CPUs.
    cfg = tmp_path / "instability.cfg"
    cfg.write_text(f"experiment = instability\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["march_workers"] == min(2, _native.cpus())


@needs_native
def test_build_removes_stale_builds(tmp_path, fresh_load):
    # Builds of another source for this interpreter go; other interpreters'
    # builds and other files stay, and one that cannot be removed is skipped.
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / f"_idsa_march_0123456789abcdef{suffix}"
    stale.write_bytes(b"")
    (cache / f"_idsa_march_fedcba9876543210{suffix}").mkdir()
    kept = ["_idsa_march_0123456789abcdef.abi3.so", "notes.txt"]
    for name in kept:
        (cache / name).write_bytes(b"")
    native = _native.load()
    assert native is not None
    built = Path(native.__file__)
    assert built.parent == cache
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [built.name, f"_idsa_march_fedcba9876543210{suffix}", *kept]
    )


@contextlib.contextmanager
def _workers(n):
    """Inside the block the native oracle and formatter run on up to n threads,
    and the native march splits its long rows given n of 2 or more."""
    with unittest.mock.patch.object(_native, "cpus", lambda: n):
        yield


def _oracle_bytes(radii, spec, tol):
    """J, H and K as bytes, or the QuadratureError's owner and message; and
    the quadrature's counts of its work (not the workers that did it)."""
    stats = {}
    try:
        result = np.stack(moments_at(radii, spec, tol, stats)).tobytes()
    except QuadratureError as exc:
        result = exc.owner, str(exc)
    stats.pop("workers", None)
    return result, stats


def _oracle_failures():
    """The oracle's three failures, each raised on the path that runs: a
    non-finite estimate (an infinite opacity makes inf * 0 at r = R, mu = 1),
    the depth cap and the live-panel cap, both lowered."""
    radii = _edge_radii(6.0, *make_uniform_grid(18.0, 60).r_centers)
    failures = []
    for what, patch in (("non-finite", {}), ("depth", {"_MAX_DEPTH": 2}),
                        ("live panels", {"_MAX_LIVE_PANELS": 16})):
        with contextlib.ExitStack() as stack:
            for name, value in patch.items():
                stack.enter_context(unittest.mock.patch.object(quadrature, name, value))
            try:
                if what == "non-finite":
                    with np.errstate(invalid="ignore"):
                        sphere._inside_integrals(np.array([1.0, 3.0, 6.0]), np.inf, 6.0, 1e-10)
                else:
                    moments_at(radii, ProblemSpec(B=1.0, R=6.0, kappa=97.0), 1e-13)
            except QuadratureError as exc:
                failures.append((exc.owner, str(exc)))
            else:
                failures.append(f"no {what} failure")
    return failures


def _bounds_case():
    """The oracle in blocks of 64 owners with the live-panel cap lowered to 16:
    level 0 evaluates 3 * 64 panels and queues 64, more than any later level
    may, and the bisection, 3 levels deep, stays within the cap.  As
    ``_oracle_bytes``."""
    radii = make_uniform_grid(18.0, 200).r_centers
    with unittest.mock.patch.object(quadrature, "_BLOCK", 64), \
            unittest.mock.patch.object(quadrature, "_MAX_LIVE_PANELS", 16):
        return _oracle_bytes(radii, ProblemSpec(B=1.0, R=6.0, kappa=97.0), 1e-12)


def _edge_radii(R, *more):
    """0, R, R one ulp either side, and ``more``."""
    return np.array([0.0, R, np.nextafter(R, 0.0), np.nextafter(R, np.inf), *more])


def _clone_cases(workers=(1, 2, 3)):
    """An instability row with its reductions, a spurious batch with a sweep
    row and confirmed holds, a run_to_time stationary stop, and the oracle
    at four opacities, its three failures and ``_bounds_case``, in blocks of
    64 owners on each number of workers."""
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    coarse = make_uniform_grid(18.0, 50)
    instability = run_instability_experiment(
        spec, make_uniform_grid(18.0, 2000), SolverConfig(dt=0.1, t_end=40.0), (10.0, 40.0)
    )
    spurious = run_spurious_trapped_experiment(
        [0.1, 1e7, 0.03, 0.01], spec, coarse, SolverConfig(dt=0.1, t_end=80.0)
    )
    stationary = run_to_time(
        spec, coarse, SolverConfig(dt=0.1, t_end=30.0, stationarity_tol=1e-8), (5.0, 20.0, 40.0)
    )
    radii = _edge_radii(6.0, *make_uniform_grid(18.0, 600).r_centers)
    oracle = []
    for n in workers:
        with _workers(n), unittest.mock.patch.object(quadrature, "_BLOCK", 64):
            oracle.append(([_oracle_bytes(radii, ProblemSpec(B=1.0, R=6.0, kappa=kappa), 1e-10)
                            for kappa in (0.01, 1.0, 97.0, 1000.0)], _oracle_failures(),
                           _bounds_case()))
    return instability, spurious, stationary, oracle


@pytest.fixture(scope="module")
def numpy_clone_cases():
    with _numpy_march():
        return _clone_cases(workers=(1,))


@pytest.mark.parametrize("level", list(_LEVEL_FLAGS))
def test_every_clone_level_matches_numpy_bit_for_bit(
    level, numpy_clone_cases, monkeypatch, tmp_path, fresh_load
):
    # The resolver runs one clone per host, so each level this CPU can run
    # is built on its own: the source without the clone attribute, compiled
    # with -march=<level>.
    if level not in _host_levels() or not (shutil.which("cc") and importlib.util.find_spec("cffi")):
        pytest.skip(f"this host cannot build or run {level}")
    source, clones = re.subn(
        r"__attribute__\(\(target_clones\([^)]*\)\)\)", "", _native._SOURCE.read_text()
    )
    assert clones == 1
    copy = tmp_path / "_march.c"
    copy.write_text(source)
    monkeypatch.setattr(_native, "_SOURCE", copy)
    monkeypatch.setattr(_native, "_CFLAGS", [*_native._CFLAGS, f"-march={level}"])
    native = _native.load()
    assert native is not None and Path(native.__file__).parent == tmp_path / "cache"
    assert b"step_range.arch_x86_64" not in Path(native.__file__).read_bytes()

    instability, spurious, stationary, oracle = _clone_cases()
    instability_ref, spurious_ref, stationary_ref, oracle_ref = numpy_clone_cases
    assert instability.snapshots == instability_ref.snapshots
    assert instability.first_nonmonotone_time == instability_ref.first_nonmonotone_time
    assert instability.first_nonmonotone_time is not None
    assert instability.sup_total == instability_ref.sup_total
    assert np.array_equal(instability.final.Jt.values, instability_ref.final.Jt.values)
    assert np.array_equal(instability.final.Js.values, instability_ref.final.Js.values)
    assert spurious == spurious_ref
    assert any(r.censored for r in spurious) and any(not r.censored for r in spurious)
    assert stationary.stopped == "stationary"
    _assert_same_trajectory(stationary, stationary_ref, n_snapshots=3)
    [oracle_ref] = oracle_ref
    assert all(isinstance(case, bytes) for case, _ in oracle_ref[0])
    kinds = ("entry 2 has a non-finite panel estimate (nan)", "within depth 2:", "cap of 16;")
    assert all(kind in message for kind, (_, message) in zip(kinds, oracle_ref[1]))
    assert oracle == [oracle_ref] * 3  # on 1, 2 and 3 workers
    # The exp of the oracle, at this level, against its numpy transcription.
    x = _exp_arguments(np.random.default_rng(5), 20000)
    assert _native_exp(x).tobytes() == sphere._exp(x, np.empty_like(x)).tobytes()


@needs_native
def test_failed_build_falls_back_to_numpy(tmp_path, monkeypatch, fresh_load, capsys):
    native_csv, native = _run_spurious(tmp_path, "native")
    assert "compiled the native kernels in" in capsys.readouterr().err

    def broken(*args):
        raise _native.BuildError("no C compiler")

    monkeypatch.setattr(_native, "_build", broken)
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "empty")
    _native.load.cache_clear()
    numpy_csv, reference = _run_spurious(tmp_path, "numpy")
    err = capsys.readouterr().err
    assert (native["march"], reference["march"]) == ("native", "numpy")
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



# ------------------------------------------------------------ oracle

@needs_native
@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
    R=st.floats(0.5, 10.0),
    tol=st.floats(-13.0, -8.0).map(lambda e: 10.0**e),
    fractions=st.lists(st.floats(0.0, 3.0), max_size=12),
)
def test_native_oracle_matches_numpy_bit_for_bit(kappa, R, tol, fractions):
    # The native quadrature runs integrate_batch's bisection over the numpy
    # integrands' operations in their order, exp included: the same J, H and
    # K, or the same failure, and the same counts; at the default block, and
    # in blocks of 2 owners on 1, 2 and 3 workers.
    radii = _edge_radii(R, *(f * R for f in fractions))
    spec = ProblemSpec(B=1.0, R=R, kappa=kappa)
    native, reference = _both(lambda: _oracle_bytes(radii, spec, tol))
    assert native == reference
    with unittest.mock.patch.object(quadrature, "_BLOCK", 2):
        with _numpy_march():
            reference = _oracle_bytes(radii, spec, tol)
        for n in (1, 2, 3):
            with _workers(n):
                assert _oracle_bytes(radii, spec, tol) == reference


@needs_native
def test_native_oracle_fills_the_memory_its_caps_size():
    # A worker's slice holds max(3 block, 2 cap) evaluated and max(block, cap)
    # queued panels.  Here level 0 fills the first of each, and the levels
    # past it stay within the cap: the same bits and counts as numpy on 1
    # and 2 workers.
    with _numpy_march():
        reference = _bounds_case()
    result, stats = reference
    assert isinstance(result, bytes)
    assert stats["max_depth"] >= 2 and 2 <= stats["max_live_panels"] <= 16
    for n in (1, 2):
        with _workers(n):
            assert _bounds_case() == reference


@needs_native
def test_native_oracle_that_cannot_allocate_raises_before_any_block():
    # A call allocates once, sized from the caps, before any block runs: a
    # cap past the address space fails there, and one past what a size could
    # count fails before its size overflows.  Nothing is integrated.
    radii = make_uniform_grid(18.0, 60).r_centers
    for cap in (2**44, 2**62):
        stats = {}
        with unittest.mock.patch.object(quadrature, "_MAX_LIVE_PANELS", cap), \
                pytest.raises(MemoryError, match="could not allocate its panel buffers"):
            moments_at(radii, ProblemSpec(B=1.0, R=6.0, kappa=1.0), 1e-10, stats)
        assert stats == {"panels": 0, "max_depth": 0, "max_live_panels": 0, "workers": 0}


@needs_native
@pytest.mark.skipif(not hasattr(os, "sysconf") or os.sysconf("SC_PAGE_SIZE") != 4096,
                    reason="the budget counts 4 kB pages")
def test_native_oracle_faults_in_few_pages_per_call():
    # Each call maps its memory afresh, so every page a level writes faults
    # in again: a level that restated its queue or lo and hi in copies would
    # write more of them.  One worker integrates the inside owners of 19998
    # cells (7 blocks, 4 levels deep), its inputs and output touched already,
    # in 56 faults a call.  The least of 5 calls, so that no fault of the
    # interpreter's counts.
    import resource

    native = _native.load()
    ffi, lib = native.ffi, native.lib
    r = make_uniform_grid(18.0, 19998).r_centers
    r_in = r[r < 6.0]
    g = ffi.new("oracle_integrand *")
    g.inside, g.R, g.kappa = 1, 6.0, 1.0
    keep = [ffi.from_buffer("double[]", a) for a in (quadrature._NODES, _WEIGHTS, r_in)]
    g.node, g.weight, g.r = keep
    # np.full writes every page; np.zeros may hand out pages not yet faulted in
    lo, hi, out = np.full(r_in.size, 0.0), np.full(r_in.size, 1.0), np.full((3, r_in.size), 0.0)
    status = ffi.new("oracle_status *")
    call = (g, r_in.size, ffi.from_buffer("double[]", lo), ffi.from_buffer("double[]", hi), 1e-10,
            quadrature._BLOCK, quadrature._MAX_DEPTH, quadrature._MAX_LIVE_PANELS, 1,
            ffi.from_buffer("double[]", out), status)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        lib.oracle_integrate(*call)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert status.kind == lib.ORACLE_OK and status.max_depth >= 2 and status.workers == 1
    assert min(faults) <= 70, faults


@needs_native
def test_native_oracle_fails_as_numpy():
    # The same owner and message for a non-finite estimate, the depth cap
    # and the live-panel cap.
    native, reference = _both(_oracle_failures)
    assert all(isinstance(failure, tuple) for failure in reference)
    assert native == reference


def _two_failing_blocks():
    """Two batches, each with two failing blocks: in blocks of 4 owners, a
    non-finite estimate in blocks 1 and 3 (an infinite opacity at r = R);
    and in blocks of 64, the depth cap, lowered to 3, in blocks 0 and 1 of
    the inside radii, whose last owner is R one ulp below, after all the
    block's other owners have been bisected.  The QuadratureError's owner
    and message, the workers and the counts of each."""
    cases = []
    stats = {}
    try:
        with unittest.mock.patch.object(quadrature, "_BLOCK", 4), np.errstate(invalid="ignore"):
            sphere._inside_integrals(np.array([1.0, 2.0, 3.0, 4.0, 1.0, 6.0, 2.0, 3.0,
                                               1.0, 2.0, 3.0, 4.0, 6.0, 5.0]),
                                     np.inf, 6.0, 1e-10, stats)
    except QuadratureError as exc:
        cases.append((exc.owner, str(exc), stats.pop("workers"), stats))
    stats = {}
    edge = np.nextafter(6.0, 0.0)
    radii = np.array([*np.linspace(0.1, 5.9, 63), edge, *np.linspace(0.2, 5.8, 63), edge, 1.0])
    try:
        with unittest.mock.patch.object(quadrature, "_BLOCK", 64), \
                unittest.mock.patch.object(quadrature, "_MAX_DEPTH", 3):
            moments_at(radii, ProblemSpec(B=1.0, R=6.0, kappa=97.0), 1e-13, stats)
    except QuadratureError as exc:
        cases.append((exc.owner, str(exc), stats.pop("workers"), stats))
    return cases


@needs_native
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_native_oracle_reports_the_lower_of_two_failing_blocks(workers):
    # Every worker count reports the failure of the lowest failing block, as
    # integrate_batch does, and counts the work of the blocks up to it.  Which
    # block fails first in time varies from run to run: five runs.
    with _numpy_march():
        reference = _two_failing_blocks()
    assert [owner for owner, *_ in reference] == [5, 63]
    assert "non-finite" in reference[0][1] and "within depth 3" in reference[1][1]
    assert [case[2] for case in reference] == [1, 1]
    for _ in range(5):
        with _workers(workers):
            native = _two_failing_blocks()
        assert [case[:2] + case[3:] for case in native] == [case[:2] + case[3:] for case in reference]
        assert [case[2] for case in native] == [min(workers, 4), min(workers, 3)]


@needs_native
def test_native_oracle_runs_on_the_workers_it_is_given():
    # Up to one worker per block; the numpy reference runs one.
    radii = make_uniform_grid(18.0, 600).r_centers  # 200 owners inside, 800 outside
    spec = ProblemSpec(B=1.0, R=6.0, kappa=10.0)
    for block, n, expected in ((1024, 3, 1), (64, 3, 3), (64, 1, 1), (64, 40, 13)):
        stats = {}
        with _workers(n), unittest.mock.patch.object(quadrature, "_BLOCK", block):
            moments_at(radii, spec, 1e-10, stats)
        assert stats["workers"] == expected
    with _numpy_march():
        stats = {}
        moments_at(radii, spec, 1e-10, stats)
    assert stats["workers"] == 1


@needs_native
def test_native_oracle_on_more_workers_than_cpus_loses_no_block():
    # Hundreds of blocks of 3 owners on 8 threads, again and again: a block
    # taken twice or never, or a slot merged out of order, moves the values
    # (out is not zeroed) or the counts.
    radii = make_uniform_grid(18.0, 600).r_centers
    spec = ProblemSpec(B=1.0, R=6.0, kappa=30.0)
    with unittest.mock.patch.object(quadrature, "_BLOCK", 3), _time_limit(60):
        with _workers(1):
            reference = _oracle_bytes(radii, spec, 1e-10)
        for _ in range(10):
            with _workers(8):
                assert _oracle_bytes(radii, spec, 1e-10) == reference


def _widest_block(n):
    """A block of n rows whose every cell is as wide as its column's widest
    case (24 bytes per float), so that its rows fill the formatter's buffer."""
    floats = np.where(np.arange(n) % 2, -2.2250738585072014e-308, -1.7976931348623157e308)
    return [floats, np.arange(n) % 3 == 0, ["a", "bc", ""] * (n // 3) + ["d"] * (n % 3), 0.25]


# Run under AddressSanitizer or ThreadSanitizer, with the instrumented
# module's name and file and this directory as arguments: the oracle's
# three failures, _bounds_case, and four opacities at the default block and
# cap and in blocks of 2 owners whose deeper levels fill a cap of 4, on 1
# and 2 workers; a march, a tridiagonal solve and two blocks of CSV rows,
# the second formatted in two ranges on 2 workers and filling its buffer to
# the last byte; each against its reference.  The march is a scan row and a
# sweep row of MARCH_SPLIT_MIN_CELLS + 1 = 16 * 128 + 1 cells, split on 2
# workers, with tags, holds and reductions, for 25 steps; the kernel takes
# runs of 4 steps and of 1, and stops within a run where the change falls
# below stat_tol and where a hold ends, so that some runs end in its spare
# pair of fields and tags and are copied out, and the batch shrinks at step
# 9.  The domain-split marches run both variants at m = 2, 3 and 100
# inside cells, each step reading all m of the scheme's reciprocals 1 / d,
# and every _SPLIT_FAILURES case.
_SANITIZED_RUN = """
import importlib.util, sys, unittest.mock
import numpy as np
from idsa_lab import _native

spec = importlib.util.spec_from_file_location(sys.argv[1], sys.argv[2])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
_native.load = lambda: module

sys.path.insert(0, sys.argv[3])
from test_native import (_SPLIT_FAILURES, _SPLIT_MARCHES, _block_text, _bounds_case, _march_log,
                         _numpy_march, _oracle_bytes, _oracle_failures, _split_failure,
                         _split_record, _widest_block, _workers, ProblemSpec, SolverConfig,
                         make_uniform_grid, quadrature)
from idsa_lab.reformed import _Tridiagonal


def run():
    radii = make_uniform_grid(18.0, 200).r_centers
    oracle = [_bounds_case(), _oracle_failures()]
    for block, cap in ((1024, 8192), (2, 4)):
        with unittest.mock.patch.object(quadrature, "_BLOCK", block), \\
                unittest.mock.patch.object(quadrature, "_MAX_LIVE_PANELS", cap):
            oracle += [_oracle_bytes(radii, ProblemSpec(B=1.0, R=6.0, kappa=kappa), 1e-12)
                       for kappa in (0.01, 1.0, 97.0, 1000.0)]
    specs = [ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_outside=k) for k in (0.01, 1e3)]
    grid = make_uniform_grid(18.0, module.lib.MARCH_SPLIT_MIN_CELLS + 1)
    log, error = _march_log(specs, grid, SolverConfig(dt=0.5), 25, True, 4, 9, 1, 683,
                            dict(stat_tol=1e-2, mono_tol=1e-10, mono_pairs=682))
    march = error, {k: tuple(v if isinstance(v, list) else v.tobytes() for v in entry)
                    for k, entry in log.items()}
    rng = np.random.default_rng(3)
    solve = _Tridiagonal(*(rng.standard_normal(k) for k in (49, 50, 49))).solve(rng.random(50))
    rows = [bytes(_block_text(block))
            for block in ([rng.random(40), rng.random(40) < 0.5, ["a", "bc"] * 20, 0.25],
                          _widest_block(2 * module.lib.FORMAT_MIN_ROWS + 1))]
    split = [_split_record(variant, *_SPLIT_MARCHES[march]) for variant in ("old", "new")
             for march in ("m = 2", "m = 3, past stationary", "stop at t_end")]
    split += [_split_failure(case) for case in _SPLIT_FAILURES]
    return oracle, march, solve.tobytes(), rows, split


with _numpy_march():
    reference = run()
assert reference[0][0][1]["max_live_panels"] <= 16
assert max(stats["max_live_panels"] for _, stats in reference[0][6:]) == 4
assert None not in reference[4]  # each failure case raised
for n in (1, 2):
    with _workers(n):
        oracle, (error, march), *rest = run()
        assert [oracle, *rest] == [reference[0], *reference[2:]]
        # The kernel shows the steps asked for, those from 10 to 12, where
        # the change is below stat_tol, and each from step 21 on, where the
        # hold of the cells r >= R ends.
        assert error is None and march.items() <= reference[1][1].items()
        assert set(march) == {0, 4, 8, 9, 10, 11, 12, 13, 17, *range(21, 26)}
print("ok")
"""


def _run_sanitized(tmp_path, monkeypatch, sanitizer, source, options):
    """_SANITIZED_RUN on the kernels built from ``source`` with
    -fsanitize=``sanitizer``, its runtime preloaded and ``options`` set."""
    runtime = {"address": "libasan.so", "thread": "libtsan.so"}[sanitizer]
    library = subprocess.run(["gcc", f"-print-file-name={runtime}"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(library):
        pytest.skip(f"gcc has no {runtime} here")
    monkeypatch.setattr(_native, "_CFLAGS",
                        [f"-fsanitize={sanitizer}", "-O1", "-g", "-ffp-contract=off", "-pthread"])
    name = f"_idsa_march_{sanitizer}"
    target = tmp_path / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    _native._build(name, source, target)
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "LD_PRELOAD": library, **options,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, name, str(target), str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr[-4000:]
    return proc.stderr


@pytest.mark.skipif(not (shutil.which("gcc") and importlib.util.find_spec("cffi")),
                    reason="no gcc or no cffi")
def test_native_kernels_run_clean_under_address_sanitizer(tmp_path, monkeypatch):
    # Every heap buffer the kernels write, the oracle's one allocation per
    # call among them, ends where AddressSanitizer poisons: a write or read
    # past one aborts the run.
    _run_sanitized(tmp_path, monkeypatch, "address", _native._SOURCE.read_text(),
                   {"ASAN_OPTIONS": "detect_leaks=0"})


@pytest.mark.skipif(not (shutil.which("gcc") and importlib.util.find_spec("cffi")),
                    reason="no gcc or no cffi")
def test_native_kernels_run_clean_under_thread_sanitizer(tmp_path, monkeypatch):
    # The threads of the split march, of the oracle on 2 workers and of the
    # formatter on 2 share no memory but through their handoffs: a read or
    # write that races another thread's aborts the run.  Built without the
    # clones, whose ifunc resolvers run while the loader relocates the
    # module, before the calls ThreadSanitizer adds to them can be bound.
    source = re.sub(r"__attribute__\(\(target_clones\([^)]*\)\)\)", "",
                    _native._SOURCE.read_text())
    stderr = _run_sanitized(tmp_path, monkeypatch, "thread", source,
                            {"TSAN_OPTIONS": "halt_on_error=1"})
    assert "ThreadSanitizer" not in stderr, stderr[-4000:]


def _exp_arguments(rng, n):
    """n arguments over [-746, 710], denser in the subnormal band and at the
    ends, and the edge cases: +-0, NaN, +-inf, the bounds, 0 and overflow."""
    ln_min_sub = math.log(2.0) * -1075.0  # below it exp rounds to 0
    ln_max = math.log(sys.float_info.max)
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, -746.0, 710.0, -745.0, 709.0, 1e-300,
             -1e-300, 5e-324, 1e300, -1e300, ln_max, math.log(sys.float_info.min)]
    for x in (ln_min_sub, ln_max):
        edges += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.concatenate([
        rng.uniform(-746.0, 710.0, n - n // 4),
        rng.uniform(-745.2, -708.3, n // 8),                          # subnormal results
        rng.uniform(-1.0, 1.0, n // 16) * 10.0 ** rng.uniform(-20, 0, n // 16),
        rng.uniform(709.0, 709.79, n - (n - n // 4) - n // 8 - n // 16),
        edges,
    ])


def _native_exp(x):
    native = _native.load()
    ffi = native.ffi
    x = np.ascontiguousarray(x)
    out = np.empty_like(x)
    native.lib.oracle_exp(x.size, ffi.from_buffer("double[]", x), ffi.from_buffer("double[]", out))
    return out


@needs_native
def test_exp_is_within_one_ulp_and_matches_its_numpy_transcription():
    # The oracle's exp, against exp of each argument from mpmath (100 bits)
    # rounded to double, on 10^5 arguments: at most 1 ulp off, 0 and
    # infinity where exp rounds to them, NaN for NaN; and sphere._exp gives
    # the same bits.  mpmath's low-level functions keep this to a second.
    libmp = pytest.importorskip("mpmath.libmp")
    x = _exp_arguments(np.random.default_rng(21), 100_000)
    y = _native_exp(x)
    assert y.tobytes() == sphere._exp(x, np.empty_like(x)).tobytes()
    assert np.isnan(y[np.isnan(x)]).all()
    x, y = x[~np.isnan(x)], y[~np.isnan(x)]
    # exp(x) = hi + rest, hi the double nearest to it and rest in units of
    # the ulp of exp(x): the ulp below hi where exp(x) is below a power of 2
    hi, ulp, rest = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        e = libmp.mpf_exp(libmp.from_float(xi), 100, libmp.round_nearest)
        hi[i] = libmp.to_float(e, rnd=libmp.round_nearest)
        if 0.0 < hi[i] < math.inf:
            d = libmp.mpf_sub(e, libmp.from_float(hi[i]), 100)
            below = libmp.mpf_sign(d) < 0 and math.frexp(hi[i])[0] == 0.5
            ulp[i] = math.ulp(hi[i]) / (2.0 if below and hi[i] > sys.float_info.min else 1.0)
            rest[i] = libmp.to_float(libmp.mpf_div(d, libmp.from_float(ulp[i]), 100))
    ends = (hi == 0.0) | np.isinf(hi)
    assert np.array_equal(y[ends], hi[ends])
    off = np.abs((y[~ends] - hi[~ends]) / ulp[~ends] - rest[~ends])
    assert off.max() <= 1.0
    assert off.max() > 0.5  # not correctly rounded: the bound is the claim


@needs_native
@pytest.mark.parametrize("experiment", ["oracle", "convergence"])
def test_manifest_names_the_oracle_path(tmp_path, experiment):
    bodies, manifests = {}, {}
    for name in ("native", "numpy"):
        cfg = tmp_path / f"{name}.cfg"
        sweep = "kappa_list = 1, 10\n" if experiment == "convergence" else ""
        cfg.write_text(f"experiment = {experiment}\nn_cells = 300\n{sweep}"
                       f"output_dir = {tmp_path / name}\n")
        with _numpy_march() if name == "numpy" else contextlib.nullcontext():
            assert main(["run", str(cfg)]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        bodies[name] = [(tmp_path / name / f).read_bytes() for f in manifests[name]["outputs"]]
    native, reference = manifests["native"], manifests["numpy"]
    assert native["oracle"] == "native" and native["march_isa"] == _native.march_isa()
    counts = ("panels", "max_depth", "max_live_panels")
    assert [native["quadrature"][key] for key in counts] == [
        reference["quadrature"][key] for key in counts
    ]
    assert native["quadrature"]["panels"] > 0
    assert reference["quadrature"]["workers"] == 1
    assert 1 <= native["quadrature"]["workers"] <= _native.cpus()
    assert reference["oracle"] == "numpy" and "march_isa" not in reference
    assert "march" not in native and "march" not in reference
    assert bodies["native"] == bodies["numpy"]


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


def _threaded_block(rng, n):
    """
    A block of n rows with a column of each kind: a float scalar, floats on
    both of format_double's paths (one in ten drawn over every bit pattern),
    bools, text of 0 to 4 bytes and a bool scalar.
    """
    wide = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    narrow = _random_bit_patterns(rng, n, (1002, 1080))
    text = ["ab"[: i % 3] * (i % 5 > 2) + "xy"[: i % 2] for i in range(n)]
    return [0.25, np.where(rng.random(n) < 0.1, wide, narrow), rng.random(n) < 0.5, text, True]


@needs_native
def test_native_formatter_writes_the_same_bytes_on_any_number_of_threads():
    # At, one below and one above each multiple of FORMAT_MIN_ROWS up to 7,
    # on 1, 2, 3 and 7 threads: a block of n rows runs on
    # min(threads, n // FORMAT_MIN_ROWS) of them, at least one, with the
    # bytes of the Python formatter.
    rows = _native.load().lib.FORMAT_MIN_ROWS
    rng = np.random.default_rng(31)
    with _time_limit(60):
        for n in sorted({k * rows + d for k in range(1, 8) for d in (-1, 0, 1)}):
            block = _threaded_block(rng, n)
            expected = _block_text_python(block)
            for threads in (1, 2, 3, 7):
                stats = {}
                with _workers(threads):
                    assert bytes(_block_text(block, stats)) == expected, (n, threads)
                assert stats == {"workers": max(1, min(threads, n // rows))}, (n, threads)


@needs_native
def test_native_formatter_buffer_is_its_own_bound():
    # The buffer is sized by rows_bound, which format_rows writes its ranges
    # by: a block whose every cell is as wide as its column's widest case
    # fills it to the last byte, on one range and on three, and a block of
    # no rows, with text cells too, gets an empty one.
    rows = _native.load().lib.FORMAT_MIN_ROWS
    for n, threads in ((5, 1), (3 * rows + 2, 3)):
        block = _widest_block(n)
        with _workers(threads):
            text = _block_text(block)
        assert text.nbytes == text.obj.nbytes
        assert bytes(text) == _block_text_python(block)
    empty = [np.zeros(0), np.zeros(0, bool), [], 0.25, True]
    assert bytes(_block_text(empty)) == _block_text_python(empty) == b""
    assert _block_text(empty).obj.nbytes == 0


# A preloaded pthread_create that refuses the next `refuse` calls, starts
# the rest and counts those it started.
_REFUSING_PTHREAD_CREATE = r"""
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <pthread.h>

static int refuse;
static long started;

void refuse_threads(int n) { refuse = n; }
long started_threads(void) { return started; }

int pthread_create(pthread_t *t, const pthread_attr_t *attr, void *(*f)(void *), void *arg)
{
    if (refuse > 0) {
        refuse--;
        return EAGAIN;
    }
    int (*create)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *) =
        (int (*)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *))dlsym(
            RTLD_NEXT, "pthread_create");
    const int error = create(t, attr, f, arg);
    started += error == 0;
    return error;
}
"""

_REFUSED_THREADS = """
import ctypes, sys
import numpy as np
from idsa_lab import _native
sys.path.insert(0, sys.argv[2])
from test_native import _block_text, _block_text_python, _threaded_block, _workers
refuse = ctypes.CDLL(sys.argv[1]).refuse_threads
rows = _native.load().lib.FORMAT_MIN_ROWS
block = _threaded_block(np.random.default_rng(4), 3 * rows + 1)
expected = _block_text_python(block)
for n in (2, 1, 0):
    stats = {}
    refuse(n)
    with _workers(3):
        assert bytes(_block_text(block, stats)) == expected
    print(stats["workers"])
"""


def _run_refusing_threads(tmp_path, script):
    """The output of ``script`` run with _REFUSING_PTHREAD_CREATE preloaded,
    given the shim's path and this directory as arguments."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler to build the refusing pthread_create")
    (tmp_path / "refuse.c").write_text(_REFUSING_PTHREAD_CREATE)
    shim = tmp_path / "refuse.so"
    subprocess.run([cc, "-shared", "-fPIC", "-O2", "-o", str(shim), str(tmp_path / "refuse.c"),
                    "-ldl"], check=True)
    _native.load()  # built before the shim is preloaded
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "LD_PRELOAD": str(shim),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(shim), str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_native
def test_formatter_that_cannot_start_a_thread_writes_its_range_itself(tmp_path):
    # A block of three ranges on 3 threads, with both helpers refused, the
    # first refused, and none: the calling thread writes each refused
    # range, with the same bytes, and the block ran on 1, 2 and 3 threads.
    assert _run_refusing_threads(tmp_path, _REFUSED_THREADS).split() == ["1", "2", "3"]


_REFUSED_ORACLE = """
import ctypes, sys, unittest.mock
import numpy as np
sys.path.insert(0, sys.argv[2])
from test_native import _workers, quadrature, sphere
shim = ctypes.CDLL(sys.argv[1])
r = np.linspace(0.01, 5.99, 40)


def inside():  # the values and counts of one oracle call, and its threads
    stats = {}
    values = np.stack(sphere._inside_integrals(r, 30.0, 6.0, 1e-10, stats)).tobytes()
    return (values, stats), stats.pop("workers")


with unittest.mock.patch.object(quadrature, "_BLOCK", 4):
    with _workers(1):
        expected, _ = inside()
    for n in (2, 1, 0):
        shim.refuse_threads(n)
        before = shim.started_threads()
        with _workers(3):
            result, workers = inside()
        assert result == expected
        assert workers == 1 + shim.started_threads() - before
        print(workers)
"""


@needs_native
def test_oracle_that_cannot_start_a_helper_loses_no_block(tmp_path):
    # Ten blocks on 3 workers, with the next 2, 1 and 0 helper starts
    # refused: the oracle starts no helper after a refused one, and the
    # threads that did start integrate every block, with the values and
    # counts of one.
    assert _run_refusing_threads(tmp_path, _REFUSED_ORACLE).split() == ["1", "1", "3"]


_REFUSED_HELPER = """
import ctypes, sys
from idsa_lab import _native
sys.path.insert(0, sys.argv[2])
from test_native import _split_log, _workers
refuse = ctypes.CDLL(sys.argv[1]).refuse_threads
n_cells = _native.load().lib.MARCH_SPLIT_MIN_CELLS + 1
with _workers(1):
    expected = _split_log("last step in the spare pair", n_cells, 2)
for n in (1000, 1, 0):
    stats = {}
    refuse(n)
    with _workers(2):
        assert _split_log("last step in the spare pair", n_cells, 2, stats) == expected
    print(stats["march_workers"])
"""


@needs_native
def test_split_march_whose_helper_cannot_start_runs_whole(tmp_path):
    # Split rows on 2 workers, in calls of 4 steps, with every helper
    # refused, the first refused, and none: a call whose helper is refused
    # steps its rows whole on the calling thread, with the same bits, so
    # the march ran on 1, 2 and 2 threads.
    assert _run_refusing_threads(tmp_path, _REFUSED_HELPER).split() == ["1", "2", "2"]


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
            source = np.full(m, scheme._q)
            for which, (dl, d, du) in enumerate(matrices):
                ab = np.zeros((3, m))
                ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
                factors = [dl.tolist(), d.tolist(), du.tolist()]
                fact, swap = _gtsv_factor(*factors)
                if which == 0 and any(swap):
                    swapped.add((n_cells, variant, dt, swap.index(True) - m))
                native = scheme._M if which == 0 else _Tridiagonal(dl, d, du)
                for b in [source, *(rng.random(m) * 10.0 ** rng.uniform(-3, 3) for _ in range(2))]:
                    expected = solve_banded((1, 1), ab, b)
                    reference = np.array(_gtsv_solve(*factors, fact, swap, b.tolist()))
                    assert reference.tobytes() == expected.tobytes()
                    assert native.solve(b).tobytes() == expected.tobytes()
                    solves += 1
            direct = scheme.stationary_direct().Jt.values[:m]
            assert direct.tobytes() == _Tridiagonal(*matrices[1]).solve(source).tobytes()
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


# ------------------------------------------------------------ domain-split march

# (n_cells, config, snapshot times), marched by both variants on R = 6,
# r_max = 18, at the kappa where, on 19998 cells, the roundoff of the
# "old" gradient passes -1e-12 B at t = 1, but not the scaled threshold
# (test_reformed.py::test_old_fine_grid_roundoff_is_not_negativity).
_SPLIT_KAPPA = 3.1667953321301963
_SPLIT_MARCHES = {
    # m = 6666: dgtsv interchanges row m - 2; one snapshot before the
    # stationary step, one after it
    "19998 cells": (19998, SolverConfig(dt=0.1, t_end=400.0, stationarity_tol=1e-10), (2.0, 40.0)),
    "m = 2": (6, SolverConfig(dt=0.1, t_end=400.0, stationarity_tol=1e-10), ()),
    "m = 3, past stationary": (9, SolverConfig(dt=0.1, t_end=400.0, stationarity_tol=1e-10),
                               (0.5, 100.0)),
    "stop at t_end": (300, SolverConfig(dt=0.1, t_end=2.0, stationarity_tol=1e-10), (1.0,)),
}


def _split_record(variant, n_cells, cfg, snapshot_times):
    """The run of one domain-split march as bytes: every state, the steps, the
    stop, and the rows (counted from m) that dgtsv interchanged."""
    grid = make_uniform_grid(18.0, n_cells)
    scheme = ReformedScheme(variant, ProblemSpec(B=1.0, R=6.0, kappa=_SPLIT_KAPPA), grid, cfg)
    run = scheme.run_to_stationarity(snapshot_times)
    states = [(s.Jt.values.tobytes(), s.Js.values.tobytes(), s.t)
              for s in [*run.snapshots, run.final]]
    swapped = (np.flatnonzero(scheme._M._factors[4]) - scheme.m).tolist()
    return states, run.steps, run.stopped, swapped


@needs_native
@pytest.mark.parametrize("march", _SPLIT_MARCHES)
@pytest.mark.parametrize("variant", ["old", "new"])
def test_native_split_march_matches_the_reference_bit_for_bit(variant, march):
    n_cells, cfg, times = _SPLIT_MARCHES[march]
    # no step fails a check, so none runs in Python
    with unittest.mock.patch.object(ReformedScheme, "_step", side_effect=AssertionError):
        native = _split_record(variant, n_cells, cfg, times)
    with _numpy_march():
        assert _split_record(variant, n_cells, cfg, times) == native
    steps, stopped, swapped = native[1:]
    last = max(round(t / cfg.dt) for t in times) if times else 0
    if march == "stop at t_end":
        assert stopped == "t_end" and steps == 20
    else:
        assert stopped == "stationary" and (last > steps or not times)
    assert swapped == ([-2] if n_cells == 19998 else [])


@needs_native
@pytest.mark.parametrize("kappa", [1.0, 3.0, 9.0])
@pytest.mark.parametrize("variant", ["old", "new"])
def test_split_march_stays_within_rounding_of_dgtsv(variant, kappa):
    # The march multiplies by the reciprocals of dgtsv's pivots where dgtsv
    # divides, so it no longer gives dgtsv's bits.  Each of the first 400
    # steps at 19998 cells differs from _M.solve (dgtsv) from the same state
    # by at most 64 ulps of max |Jt|: the rounding error of a row carries to
    # the rows below it by |du / d|, near 1 on this grid, so either solve is
    # tens of ulps off (measured up to 26.2).  After 400 steps, the march is
    # within 1e-13 relative of 400 dgtsv solves, which it gave bit for bit
    # while it divided (measured up to 9.9e-15).
    scheme = ReformedScheme(variant, ProblemSpec(B=1.0, R=6.0, kappa=kappa),
                            make_uniform_grid(18.0, 19998), SolverConfig(dt=0.1))
    dtq = scheme.cfg.dt * scheme._q
    march = dgtsv = np.zeros(scheme.m)
    for k in range(400):
        step = scheme._advance(march, k, 1, 0.0)[1]
        solved = scheme._M.solve(march + dtq)
        assert np.max(np.abs(step - solved)) <= 64 * np.finfo(float).eps * np.max(np.abs(solved))
        march, dgtsv = step, scheme._M.solve(dgtsv + dtq)
    assert np.max(np.abs(march - dgtsv)) <= 1e-13 * np.max(np.abs(dgtsv))


# Initial states no march from zero reaches, each with the error the step
# that rejects it raises: (variant, n_cells, scheme attributes set, Jt0 of
# the scheme, error, message, the 1-based step that fails), at kappa = 1
# and B = 1 (so _q = 1), dt = 0.1.  Several checks often fail at one step;
# where a label names a part of the back substitution (before, in or after
# its loop over the rows), only a check of that part fails.
_SPLIT_FAILURES = {
    "non-finite right-hand side": (
        "old", 300, {}, lambda s: np.where(np.arange(s.m) == 5, np.nan, 0.0),
        ValueError, "right-hand side has non-finite entries", 1),
    "streaming negativity, old": (
        "old", 300, {}, lambda s: np.linspace(0.0, 1.0, s.m),
        NegativityError, "streaming reconstruction became negative", 1),
    "streaming negativity at r = 0 (after the loop)": (
        "old", 6, {}, lambda s: np.array([0.0, 1.0]),
        NegativityError, "streaming reconstruction became negative at t = 0.1, cell 0 ", 1),
    "streaming negativity at cell m - 1 (before the loop)": (
        "new", 9, {}, lambda s: np.array([0.0, 5.0, 0.2]),
        NegativityError, "streaming reconstruction became negative at t = 0.1, cell 2 ", 1),
    "streaming negativity, new": (
        "new", 300, {}, lambda s: np.sin(np.pi * s.grid.r_centers[: s.m] / 6.0),
        NegativityError, "streaming reconstruction became negative", 1),
    # Jt0 = -dt q: the right-hand side, and so the step, is exactly zero
    "zero face gradient (before the loop)": (
        "new", 300, {}, lambda s: np.full(s.m, -s.cfg.dt * s._q),
        NormalizationSingularityError, "trapped gradient at the interface is zero at t = 0.1$", 1),
    # a negative source, and Js = 0: negative at cells 0 to 6 of 100 only
    "trapped negativity inside (in the loop)": (
        "old", 300, {"_q": -1.0, "_scale": 0.0}, lambda s: np.linspace(0.0, 1.0, s.m),
        NegativityError, "trapped component became negative at t = 0.1, cell 0 ", 1),
    # a negative source: a uniform Jt0 reaches -1e-12 B at steps 1, 2 and 3,
    # so the kernel returns the state from Jt0, its output and its spare
    **{f"trapped negativity at step {k}": (
        "old", 300, {"_q": -1.0}, lambda s, a=a: np.full(s.m, a),
        NegativityError, "trapped component became negative", k)
       for k, a in ((1, 0.05), (2, 0.1), (3, 0.4))},
}


def _failing_scheme(case):
    """The scheme of a _SPLIT_FAILURES case and its Jt0."""
    variant, n_cells, attributes, Jt0 = _SPLIT_FAILURES[case][:4]
    scheme = ReformedScheme(variant, ProblemSpec(B=1.0, R=6.0, kappa=1.0),
                            make_uniform_grid(18.0, n_cells), SolverConfig(dt=0.1))
    for name, value in attributes.items():
        setattr(scheme, name, value)
    return scheme, Jt0(scheme)


def _split_failure(case):
    """What the march of a _SPLIT_FAILURES case raises: type, message and t."""
    scheme, Jt0 = _failing_scheme(case)
    try:
        scheme._advance(Jt0, 0, 6, 0.0)
    except (ValueError, NegativityError, NormalizationSingularityError) as exc:
        return type(exc), str(exc), getattr(exc, "t", None)
    return None


@needs_native
@pytest.mark.parametrize("case", _SPLIT_FAILURES)
def test_native_split_march_stops_before_the_step_the_reference_rejects(case):
    # The kernel returns the state before the step that fails a check, and
    # only that step runs in Python, which raises what the numpy march
    # raises: the same type, message and t.
    error, message, failing = _SPLIT_FAILURES[case][4:]
    outcomes = {}
    for path in ("native", "numpy"):
        with _numpy_march() if path == "numpy" else contextlib.nullcontext():
            scheme, Jt0 = _failing_scheme(case)
            reference, stepped = scheme._step, []

            def step(Jt, t):
                stepped.append((Jt.tobytes(), t))
                return reference(Jt, t)

            scheme._step = step
            with pytest.raises(error, match=message) as info:
                scheme._advance(Jt0, 0, 6, 0.0)
            outcomes[path] = str(info.value), getattr(info.value, "t", None), stepped
    assert len(outcomes["numpy"][2]) == failing and len(outcomes["native"][2]) == 1
    assert outcomes["native"][:2] == outcomes["numpy"][:2]
    if error is not ValueError:  # a failed check names the step it failed at
        assert outcomes["numpy"][1] == failing * 0.1
    assert outcomes["native"][2][0] == outcomes["numpy"][2][-1]


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
