"""
CLI output bytes: the columnar CSV writer against value-at-a-time
formatting, checked-in digests of the domain-split snapshot files, of
small switched-scheme runs and of oracle and convergence outputs, the
oracle's digests again under narrower numpy dispatch and on one CPU, the
CSV writer's threads on one CPU and on several, and a solve-old run through
the CLI checked against the direct stationary solve.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idsa_lab
from idsa_lab import _native
from idsa_lab import (
    ProblemSpec,
    RadialField,
    ReformedScheme,
    SolverConfig,
    l2_relative_error,
    make_uniform_grid,
)
from idsa_lab.cli import _fmt, _write_csv, main


def _rowwise(meta, header, rows) -> str:
    """The CSV text formatted one value at a time through ``_fmt``."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [
    -0.0, 0.0, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
]
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8)


@st.composite
def _block(draw):
    n = draw(st.integers(0, 12))
    t = draw(_floats)
    x = draw(st.lists(_floats, min_size=n, max_size=n))
    flag = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    label = draw(st.lists(st.one_of(st.just(""), _text), min_size=n, max_size=n))
    columns = (t, np.array(x, dtype=float), np.array(flag, dtype=bool), label)
    rows = [(t, x[i], flag[i], label[i]) for i in range(n)]
    return columns, rows


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(_block(), max_size=4),
    meta=st.dictionaries(st.sampled_from(["kappa", "n_cells", "experiment", "flag"]),
                         st.one_of(_floats, st.integers(), _text, st.booleans())),
)
def test_columnar_writer_matches_rowwise_formatting(tmp_path_factory, blocks, meta):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    header = ["t", "x", "flag", "label"]
    _write_csv(path, meta, header, (columns for columns, _ in blocks))
    expected = _rowwise(meta, header, [row for _, rows in blocks for row in rows])
    assert path.read_bytes() == expected.encode()
    assert not path.with_name("out.csv.tmp").exists()
    # No runner writes an integer column, so neither formatter takes one.
    with pytest.raises(TypeError, match="int64"):
        _write_csv(path, meta, ["count"], [(np.arange(3, dtype=np.int64),)])


def test_failed_write_removes_its_tmp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("previous\n")

    def blocks():
        yield (np.ones(2),)
        raise ValueError("field values must be finite")

    with pytest.raises(ValueError, match="finite"):
        _write_csv(path, {}, ["x"], blocks())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# snapshots.csv of small solve-old / solve-new runs: (variant, kappa,
# snapshot_times, digest of the non-comment lines).  The values were written
# by the value-at-a-time writer at commit 06f6311 (kappa = 2) and by the
# separate snapshot and stationarity marches of commit b2ec511 (kappa = 10);
# the digests were re-pinned when snapshots came to be stamped t = k * dt
# instead of the running sum of dt, which changed only the t column.  At
# kappa = 10 stationarity comes at t = 3.4, so the march goes on past it to
# the snapshot at t = 50.  The digests pin the CSV text, so they also move if
# numpy or the tridiagonal solve round differently; the solve keeps LAPACK
# dgtsv's operations, so these digests held when it replaced scipy's.  They
# were re-pinned when the march's back substitution came to multiply by
# reciprocals of the pivots rounded once per scheme, where dgtsv divides:
# no value moved by more than 1.3e-15 (Js of "old" at kappa = 2, B = 1).
_REFORMED_RUNS = {
    "old": ("old", 2, "1, 2.5",
            "b4fd2b7a1df7970ae3d8b712247c1918902dff0f46e761c027bad3b29d8ac33e"),
    "new": ("new", 2, "0.5, 2, 3",
            "fecf97085d41e46684c1f9ea60707d42d77def87fba187a34c4125562e8e93f7"),
    "old-past-stationarity": ("old", 10, "1, 50",
                              "2c53e62f70d6d5f99d151c12fd1e522f1518285dd26181a5735866bcc4b0781b"),
    "new-past-stationarity": ("new", 10, "1, 50",
                              "d3c02271d22706eb9749541b58835d9512ceb54feaf114237d7bc2959a707396"),
}
_N_CELLS = 300  # a multiple of 3, so R = 6 lands on a face of [0, 18]

# Exact-oracle outputs at sizes where a BLAS product over a block's whole
# panels and halves together moved bits, since it rounds a row by the row
# count of its product.  (n_cells, kappa) -> digest of the non-comment lines
# of oracle.csv, and the digests of the whole convergence.csv and fit.txt of
# one sweep at 90 cells.  Re-pinned after commit 3b4ea9b, when the oracle's
# exp became the lab's own (_march.c's fixed_exp, numpy's _exp in
# sphere.py) and its outside K took (1 - (R/r)^2)^1.5 as a product with
# mu0 instead of numpy's power: both made the oracle's bytes independent of
# numpy's SIMD dispatch, which they were not (test_oracle_digests_do_not_
# depend_on_numpys_dispatch).  Re-pinned after commit 27a5b1d, when each
# panel came to be weighed in node order, which moved J, H and K by at most
# 3 ulp.  They move if numpy's basic operations stop rounding correctly.
_ORACLE_RUNS = {
    (33, 1): "f5a5fd1bc2f53f93ee3e7f6b52db8bc57385578e9d7abc1beb9e7df36c772d6e",
    (33, 20): "cd098a2334fae827562f62d1bc95d0473be816af58a101f56cd27edab4e65543",
    (90, 1): "16515eee5d9eb42757723adbf6655bf3d6acd560e8203971c685a6a95039ad53",
    (90, 20): "86003ec1a88b07655e8681f1119666ae4ae524401c60d387a96caa2dd8c84a1a",
}
_CONVERGENCE_KAPPAS = "1, 2, 5, 10, 20"
_CONVERGENCE_RUN = {
    "convergence.csv": "98c85581b45e6e0ef07ff199fbd8c277e8c3c186fb69f3b748b1f1dc985f9084",
    "fit.txt": "76cad4e5b020891ede9f1579e9a281878ee8e3e8afda6352c304adb048e7e1cf",
}


# Small runs of the switched scheme: name -> (config lines, {file: digest of
# its non-comment lines}).  Re-pinned once, when the step came to multiply
# by the reciprocals of its divisors, rounded once per march, in place of
# dividing: the fields moved by a few ulp and the eps = 0.03 takeover by 2
# steps (26.7 to 26.5).  tests/test_physics_gate.py, which bounds such moves,
# landed first and passed unchanged across the re-pin.  The solve-idsa run is
# stationary at t = 13.3 and marches on to the snapshot at t = 40; the
# spurious run fits three of its four eps.
_SWITCHED_RUNS = {
    "solve-idsa": (
        "experiment = solve-idsa\nn_cells = 50\nt_end = 30\nsnapshot_times = 0, 5, 20, 40\n",
        {"snapshots.csv": "d6977ad0949fa271ff3bfb8cee66d6c3595cde92c2ccdcda2b31c1496cee2b6a"},
    ),
    "instability": (
        "experiment = instability\nn_cells = 402\nt_end = 50\nsnapshot_times = 10, 25, 50\n",
        {"instability.csv": "884a17c9cdbc5eba18aa4885d6bbe9656caaeb35a1a24d370adc42b26cac911a"},
    ),
    "spurious": (
        "experiment = spurious\neps_list = 0.1, 0.05, 0.03, 0.02\nexclude_largest = 1\n",
        {"spurious.csv": "e4a9b726fd8573489e897c4909cdf2bd3892ec4bdf8d3ebe33ca8aa5ad0473f8",
         "fit.txt": "6455330ae0d4b494d9fa85440b14aaab4cf06caff882627c1247436189dee078"},
    ),
}


def _body_sha256(path) -> str:
    """sha256 of the file's lines that are not ``#`` comments."""
    lines = path.read_bytes().splitlines(keepends=True)
    body = b"".join(line for line in lines if not line.startswith(b"#"))
    return hashlib.sha256(body).hexdigest()


@pytest.fixture(scope="module")
def reformed_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reformed")
    out = {}
    for name, (variant, kappa, snaps, _) in _REFORMED_RUNS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(
            f"experiment = solve-{variant}\nn_cells = {_N_CELLS}\nkappa = {kappa}\n"
            f"snapshot_times = {snaps}\noutput_dir = {root / name}\n"
        )
        assert main(["run", str(cfg)]) == 0
        out[name] = root / name / "snapshots.csv"
    return out


@pytest.mark.parametrize("run", sorted(_REFORMED_RUNS))
def test_reformed_snapshots_match_checked_in_digest(reformed_runs, run):
    assert _body_sha256(reformed_runs[run]) == _REFORMED_RUNS[run][3]


@pytest.mark.parametrize("n_cells, kappa", sorted(_ORACLE_RUNS))
def test_oracle_matches_checked_in_digest(tmp_path, n_cells, kappa):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(
        f"experiment = oracle\nn_cells = {n_cells}\nkappa = {kappa}\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 0
    assert _body_sha256(tmp_path / "out" / "oracle.csv") == _ORACLE_RUNS[n_cells, kappa]


# numpy's dispatch as a host without AVX-512 (X86_V3, AVX2) and one without
# AVX2 as well (X86_V2) would see it.
_NUMPY_DISPATCH = {
    "no-x86-64-v4": "AVX512_SPR AVX512_ICL X86_V4",
    "no-x86-64-v3": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
}


@pytest.mark.parametrize("path", ["native", "numpy"])
@pytest.mark.parametrize("disabled", sorted(_NUMPY_DISPATCH))
def test_oracle_digests_do_not_depend_on_numpys_dispatch(tmp_path, disabled, path):
    # Each pinned oracle run again, in a process whose numpy dispatches
    # narrower loops: the oracle uses none of numpy's transcendentals, on the
    # native path or on the numpy one (the native module not loaded).
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _NUMPY_DISPATCH[disabled],
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = ["from idsa_lab import _native", "_native.load = lambda: None"] if path == "numpy" else []
    for n_cells, kappa in sorted(_ORACLE_RUNS):
        out = tmp_path / f"{n_cells}-{kappa}"
        cfg = tmp_path / f"{n_cells}-{kappa}.cfg"
        cfg.write_text(f"experiment = oracle\nn_cells = {n_cells}\nkappa = {kappa}\n"
                       f"output_dir = {out}\n")
        runs.append(f"assert main(['run', {str(cfg)!r}]) == 0")
    code = "\n".join(["from idsa_lab.cli import main", *runs])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for n_cells, kappa in sorted(_ORACLE_RUNS):
        out = tmp_path / f"{n_cells}-{kappa}"
        if path == "numpy":
            assert json.loads((out / "manifest.json").read_text())["oracle"] == "numpy"
        assert _body_sha256(out / "oracle.csv") == _ORACLE_RUNS[n_cells, kappa]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")
def test_oracle_digests_on_one_cpu(tmp_path):
    # Each pinned oracle run again, in a process that may run on one CPU and
    # integrates in blocks of 8 owners, so that each batch spans several
    # blocks: the oracle runs them on one worker, with the pinned bytes.
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ["import os", "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            "from idsa_lab import quadrature", "quadrature._BLOCK = 8",
            "from idsa_lab.cli import main"]
    for n_cells, kappa in sorted(_ORACLE_RUNS):
        cfg = tmp_path / f"{n_cells}-{kappa}.cfg"
        cfg.write_text(f"experiment = oracle\nn_cells = {n_cells}\nkappa = {kappa}\n"
                       f"output_dir = {tmp_path / f'{n_cells}-{kappa}'}\n")
        code.append(f"assert main(['run', {str(cfg)!r}]) == 0")
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    for n_cells, kappa in sorted(_ORACLE_RUNS):
        out = tmp_path / f"{n_cells}-{kappa}"
        assert json.loads((out / "manifest.json").read_text())["quadrature"]["workers"] == 1
        assert _body_sha256(out / "oracle.csv") == _ORACLE_RUNS[n_cells, kappa]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")
def test_csv_writer_workers_on_one_cpu(tmp_path):
    # A solve-old run whose two blocks hold 12288 rows, three times the
    # formatter's FORMAT_MIN_ROWS: in a process that may run on one CPU each
    # block is formatted on one thread; in this one on up to three (as many
    # as it may use CPUs), and by the Python formatter on one.  The manifest
    # says how many, and the bodies are the same bytes.
    def config(name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = solve-old\nn_cells = 12288\nt_end = 2\n"
                       f"snapshot_times = 1\noutput_dir = {tmp_path / name}\n")
        return str(cfg)

    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ["import os", "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            "from idsa_lab.cli import main", f"assert main(['run', {config('one-cpu')!r}]) == 0"]
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["run", config("here")]) == 0
    with unittest.mock.patch.object(_native, "load", lambda: None):
        assert main(["run", config("python")]) == 0
    workers = 1 if _native.load() is None else min(_native.cpus(), 3)
    for name, expected in (("one-cpu", 1), ("here", workers), ("python", 1)):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["csv"] == {"workers": expected}
        assert _body_sha256(tmp_path / name / "snapshots.csv") == _body_sha256(
            tmp_path / "here" / "snapshots.csv")


def test_convergence_matches_checked_in_digests(tmp_path):
    cfg = tmp_path / "convergence.cfg"
    cfg.write_text(
        f"experiment = convergence\nn_cells = 90\nkappa_list = {_CONVERGENCE_KAPPAS}\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(cfg)]) == 0
    for name, digest in _CONVERGENCE_RUN.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("run", sorted(_SWITCHED_RUNS))
def test_switched_runs_match_checked_in_digests(tmp_path, run):
    text, digests = _SWITCHED_RUNS[run]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{text}output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    for name, digest in digests.items():
        assert _body_sha256(tmp_path / "out" / name) == digest


def test_cli_solve_old_snapshots_and_stationary_state(reformed_runs):
    lines = reformed_runs["old"].read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "t,r,Jt,Js,H,K,h,k"
    data = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    assert data.shape == (_N_CELLS * 3, 8)

    t = data[:, 0].reshape(3, _N_CELLS)
    assert np.all(t == t[:, :1])
    assert t[:2, 0].tolist() == [1.0, 2.5]  # step k is stamped k * dt
    assert t[2, 0] > 2.5

    grid = make_uniform_grid(18.0, _N_CELLS)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=2.0)
    direct = ReformedScheme("old", spec, grid, SolverConfig(dt=0.1)).stationary_direct()
    final = data[2 * _N_CELLS :]
    total = RadialField(grid, final[:, 2] + final[:, 3])
    assert l2_relative_error(total, direct.total()) < 1e-8
