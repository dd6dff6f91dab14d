"""
Batch front end: one experiment per invocation, deterministic CSV out.

    idsa-lab run <config-file> [--set key=value ...]

Exit codes: 0 success, 2 configuration error, 3 solver failure (an error
record is still written to the output directory), 4 I/O error.  Numbers
are serialized with 17 significant digits so files round-trip doubles
exactly; identical configs produce byte-identical CSV bodies.  A run that
exits 0 or 3 lists its files in ``manifest.json`` and removes those the
previous run's manifest listed that it did not write again, so a rerun
into one output directory leaves no stale artifact beside its own.

Runners hand ``_write_csv`` arrays, not rows.  A file is written one
block (one snapshot) at a time: the native formatter (``_march.c``)
writes a block's rows from its columns into a byte buffer, with the same
``.17g`` text as formatting value by value, and the buffer goes to disk
as bytes, neither decoded nor re-encoded, before the next block is
formatted.  ``_block_text_python`` is its reference, and the fallback
when the native module cannot be built.  The snapshot time is formatted
once per block.

``solve-idsa``, ``solve-old`` and ``solve-new`` each march once and write
the snapshots, then the final state, of the ``RunRecord`` their marcher
returns; ``idsa.Schedule`` says which steps those are.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCENARIO, ConfigError, RunConfig, describe_keys, parse_config
from .diagnostics import convergence_sweep, err0_curve, fit_power_law, oracle_moments_for
from .grids import ProblemSpec, make_uniform_grid
from .idsa import (
    NegativityError,
    Regime,
    SolverConfig,
    UnboundedError,
    diffusion_number,
    run_instability_experiment,
    run_spurious_trapped_experiment,
    run_to_time,
)
from .quadrature import QuadratureError
from .reformed import NormalizationSingularityError, ReformedScheme, reconstruct_moments
from .sphere import exact_moments, free_streaming_closures

_SOLVER_FAILURES = (
    NegativityError,
    UnboundedError,
    NormalizationSingularityError,
    QuadratureError,
)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _atomic_write(path: Path, data) -> None:
    """
    Write data to a .tmp sibling, then move it over path: a str as text, or
    bytes-like chunks in turn as bytes.  Should writing or producing a chunk
    fail, the .tmp file is removed and path left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    text = isinstance(data, str)
    try:
        with open(tmp, "w" if text else "wb") as f:
            f.writelines([data] if text else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Cell format per dtype kind: what ``_fmt`` writes for a value of that kind.
_CELL = {"f": "{:.17g}", "b": "{:d}"}
# The dtype the native formatter reads a column of that kind as, and the
# widest cell it writes for it: "-2.2250738585072014e-308", "1".
_NATIVE = {"f": (np.float64, 24), "b": (np.bool_, 1)}


def _kind(a: np.ndarray) -> str:
    if a.dtype.kind not in _CELL:
        raise TypeError(f"cannot write a column of dtype {a.dtype}")
    return a.dtype.kind


def _block_text(columns):
    """
    The rows of one block as bytes, columns in header order, each cell
    written as ``_fmt`` writes it.  An array column is formatted by its
    dtype, a list is text written verbatim, and a scalar (the snapshot
    time) is formatted once.  At least one column must be an array or list.
    The rows are written by the native formatter, which returns a
    memoryview of its buffer, or by ``_block_text_python``, its reference,
    when the native module cannot be built.
    """
    from . import _native  # here: importing idsa_lab should not pay for it

    native = _native.load()
    if native is None:
        return _block_text_python(columns)
    ffi = native.ffi
    n_rows = min(len(col) for col in columns if isinstance(col, list) or np.ndim(col))
    cols = ffi.new("csv_column[]", len(columns))
    keep = []  # the buffers cols points into
    size = n_rows * len(columns)  # separators and newlines
    for c, col in zip(cols, columns):
        if isinstance(col, list):
            cells = [cell.encode() for cell in col[:n_rows]]
            ends = np.cumsum([len(cell) for cell in cells], dtype=np.int64)
            c.ends = ffi.from_buffer("long long[]", ends)
            keep.append(ends)
            text = b"".join(cells)
            size += len(text)
        elif np.ndim(col) == 0:
            a = np.asarray(col)
            text = _CELL[_kind(a)].format(a.item()).encode()
            size += n_rows * len(text)
        else:
            a = np.asarray(col)
            dtype, width = _NATIVE[_kind(a)]
            a = np.ascontiguousarray(a[:n_rows], dtype=dtype)
            c.kind, c.data = a.dtype.kind.encode(), ffi.from_buffer(a)
            keep.append(a)
            size += n_rows * width
            continue
        c.kind, c.data, c.len = b"t", ffi.from_buffer(text), len(text)
        keep.append(text)
    out = bytearray(size)
    n = native.lib.format_rows(n_rows, len(columns), cols, ffi.from_buffer(out))
    return memoryview(out)[:n]


def _block_text_python(columns) -> bytes:
    """``_block_text`` in Python, one row template formatted per row."""
    template, cells = [], []
    for col in columns:
        if isinstance(col, list):
            template.append("{}")
            cells.append(col)
            continue
        a = np.asarray(col)
        spec = _CELL[_kind(a)]
        if a.ndim:
            template.append(spec)
            cells.append(a.tolist())
        else:
            template.append(spec.format(a.item()))
    return "".join(map((",".join(template) + "\n").format, *cells)).encode()


def _write_csv(path: Path, meta: dict, header: list[str], blocks) -> None:
    """
    Write ``# key = value`` meta lines, the header and the rows of each block.
    Each block is formatted from its columns and written before the next is
    formatted, so only one block's bytes are held in memory.
    """
    head = "".join(f"# {k} = {_fmt(v)}\n" for k, v in meta.items()) + ",".join(header) + "\n"
    _atomic_write(path, itertools.chain([head.encode()], map(_block_text, blocks)))


def _scenario_meta(cfg: RunConfig) -> dict:
    """The experiment and the scenario keys the run reads, in ``SCENARIO`` order."""
    return {key: cfg.values[key] for key in ("experiment", *SCENARIO) if key in cfg.values}


def _spec(cfg: RunConfig) -> ProblemSpec:
    # An opacity the run does not read is 0: the config admits no other value.
    opacities = {key: cfg.values[key] for key in ("kappa_outside", "kappa_s") if key in cfg.values}
    return ProblemSpec(B=cfg.B, R=cfg.R, kappa=cfg.kappa, **opacities)


def _run_oracle(cfg: RunConfig, out: Path, manifest: dict) -> list[str]:
    grid = make_uniform_grid(cfg.r_max, cfg.n_cells)
    stats = manifest["quadrature"] = {}
    moments = exact_moments(grid, _spec(cfg), tol=cfg.oracle_tol, stats=stats)
    ff = moments.flux_factors()
    block = (grid.r_centers, moments.J.values, moments.H.values, moments.K.values,
             ff.h.values, ff.k.values)
    _write_csv(out / "oracle.csv", _scenario_meta(cfg), ["r", "J", "H", "K", "h", "k"], [block])
    return ["oracle.csv"]


def _run_solve(cfg: RunConfig, out: Path, manifest: dict) -> list[str]:
    grid = make_uniform_grid(cfg.r_max, cfg.n_cells)
    variant = cfg.experiment.removeprefix("solve-")
    solver = SolverConfig(cfg.dt, cfg.t_end, cfg.stationarity_tol)
    if variant == "idsa":
        run = run_to_time(_spec(cfg), grid, solver, cfg.snapshot_times)
        regime_names = [regime.name.lower() for regime in Regime]
        header = ["h_t", "h_s", "regime"]

        def columns(st):
            return (*st.component_fractions(), [regime_names[t] for t in st.tags.tolist()])
    else:
        scheme = ReformedScheme(variant, _spec(cfg), grid, solver)
        run = scheme.run_to_stationarity(cfg.snapshot_times)
        closures = free_streaming_closures(grid.r_centers, cfg.R)
        header = ["H", "K", "h", "k"]

        def columns(st):
            moments = reconstruct_moments(st, closures)
            ff = moments.flux_factors()
            return moments.H.values, moments.K.values, ff.h.values, ff.k.values

    blocks = ((st.t, grid.r_centers, st.Jt.values, st.Js.values, *columns(st))
              for st in [*run.snapshots, run.final])
    _write_csv(out / "snapshots.csv", _scenario_meta(cfg), ["t", "r", "Jt", "Js", *header], blocks)
    return ["snapshots.csv"]


def _run_spurious(cfg: RunConfig, out: Path, manifest: dict) -> list[str]:
    grid = make_uniform_grid(cfg.r_max, cfg.n_cells)
    records = run_spurious_trapped_experiment(
        cfg.eps_list, _spec(cfg), grid, SolverConfig(dt=cfg.dt, t_end=cfg.horizon)
    )
    block = (
        np.array([r.eps for r in records], dtype=float),
        np.array([r.time if r.time is not None else np.nan for r in records], dtype=float),
        np.array([r.censored for r in records], dtype=bool),
    )
    _write_csv(out / "spurious.csv", _scenario_meta(cfg), ["eps", "time", "censored"], [block])

    usable = sorted((r for r in records if not r.censored), key=lambda r: -r.eps)
    kept = usable[cfg.exclude_largest :]
    files = ["spurious.csv"]
    if len(kept) >= 2:
        fit = fit_power_law([r.eps for r in kept], [r.time for r in kept])
        _atomic_write(
            out / "fit.txt",
            "takeover time vs eps (log-log least squares)\n"
            f"exponent = {_fmt(fit.exponent)}\n"
            f"intercept = {_fmt(fit.intercept)}\n"
            f"points = {fit.points_used} (excluded {cfg.exclude_largest} largest eps; "
            f"{sum(r.censored for r in records)} censored)\n",
        )
        files.append("fit.txt")
    return files


def _run_instability(cfg: RunConfig, out: Path, manifest: dict) -> list[str]:
    grid = make_uniform_grid(cfg.r_max, cfg.n_cells)
    spec, solver = _spec(cfg), SolverConfig(dt=cfg.dt, t_end=cfg.t_end)
    # Above 1/2 the sup bound may not hold.
    manifest["diffusion_number"] = diffusion_number(spec, grid, solver)
    result = run_instability_experiment(
        spec, grid, solver, snapshot_times=tuple(cfg.snapshot_times),
        vb_threshold=cfg.vb_threshold, bound_margin=cfg.bound_margin,
    )
    snaps = result.snapshots
    block = (
        np.array([s.t for s in snaps], dtype=float),
        np.array([s.virtual_boundary for s in snaps], dtype=float),
        np.array([s.nonmonotone for s in snaps], dtype=bool),
        np.array([s.sup_total for s in snaps], dtype=float),
    )
    meta = _scenario_meta(cfg)
    meta["first_nonmonotone_time"] = (
        result.first_nonmonotone_time if result.first_nonmonotone_time is not None else np.nan
    )
    meta["vb_threshold"] = cfg.vb_threshold
    _write_csv(
        out / "instability.csv", meta,
        ["t", "virtual_boundary", "nonmonotone_flag", "sup_norm"], [block],
    )
    return ["instability.csv"]


def _run_convergence(cfg: RunConfig, out: Path, manifest: dict) -> list[str]:
    grid = make_uniform_grid(cfg.r_max, cfg.n_cells)
    stats = manifest["quadrature"] = {}
    oracle = oracle_moments_for(cfg.kappa_list, grid, cfg.R, cfg.B, tol=cfg.oracle_tol, stats=stats)
    records = convergence_sweep(cfg.kappa_list, cfg.R, cfg.B, grid, cfg.variant, oracle)
    block = [
        np.array([getattr(r, name) for r in records], dtype=float)
        for name in ("kappa", "errJ", "errH", "errK")
    ]
    block.append([r.failure or "" for r in records])
    _write_csv(
        out / "convergence.csv", _scenario_meta(cfg),
        ["kappa", "errJ", "errH", "errK", "failure"], [block],
    )
    ok = [r for r in records if r.failure is None]
    files = ["convergence.csv"]
    if len(ok) >= 2:
        lines = [f"relative L2 error vs kappa, variant = {cfg.variant}"]
        for name in ("errJ", "errH", "errK"):
            fit = fit_power_law([r.kappa for r in ok], [getattr(r, name) for r in ok])
            lines.append(
                f"{name}: exponent = {_fmt(fit.exponent)}, intercept = {_fmt(fit.intercept)},"
                f" points = {fit.points_used}"
            )
        _atomic_write(out / "fit.txt", "\n".join(lines) + "\n")
        files.append("fit.txt")
    return files


def _run_err0(cfg: RunConfig, out: Path, manifest: dict) -> list[str]:
    block = np.array(err0_curve(cfg.kappaR_list), dtype=float).reshape(-1, 2).T
    _write_csv(out / "err0.csv", _scenario_meta(cfg), ["kappaR", "err0"], [block])
    return ["err0.csv"]


_RUNNERS = {
    "oracle": _run_oracle,
    "solve-idsa": _run_solve,
    "solve-old": _run_solve,
    "solve-new": _run_solve,
    "spurious": _run_spurious,
    "instability": _run_instability,
    "convergence": _run_convergence,
    "err0": _run_err0,
}


def _numpy_dispatch() -> list[str]:
    """
    The AVX2 and AVX-512 targets numpy dispatches to in this process: the
    bytes of the closed forms (``reformed.py``) that feed convergence.csv
    and err0.csv depend on them through numpy's exp, expm1 and power.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return sorted(name for name, on in features.items()
                  if on and name.startswith(("AVX2", "AVX512")))


def _listed_outputs(out: Path) -> list[str]:
    """The files the manifest in ``out`` lists, if there is one to read."""
    try:
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return []
    # A manifest lists plain file names; anything else is not this tool's.
    return [name for name in outputs if isinstance(name, str) and name == Path(name).name
            and name not in ("", "..", "manifest.json")]


def _finish(out: Path, manifest: dict, previous: list[str]) -> None:
    """Write the manifest, then remove the files only the previous one listed."""
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for name in sorted(set(previous) - set(manifest["outputs"])):
        (out / name).unlink(missing_ok=True)


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    for key in cfg.unread:
        print(f"note: {cfg.experiment} does not read {key}; it is ignored and not recorded",
              file=sys.stderr)
    out = Path(cfg.output_dir)
    # Directories this run creates, deepest first; a run rejected as a
    # configuration error removes them again.
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    previous = _listed_outputs(out)

    manifest = {
        "tool": "idsa-lab",
        "version": __version__,
        "parameters": cfg.resolved(),
        "outputs": [],
        "numpy_dispatch": _numpy_dispatch(),
    }
    # The runs that read dt march a scheme, and those that read oracle_tol
    # integrate the exact sphere; the manifest says which kernels did
    # ("native" or "numpy") and, if native, which clone ran ("march_isa").
    kernels = [name for key, name in (("dt", "march"), ("oracle_tol", "oracle"))
               if key in cfg.values]
    if kernels:
        from . import _native

        manifest.update(dict.fromkeys(kernels, _native.backend()))
        if _native.backend() == "native":
            manifest["march_isa"] = _native.march_isa()
    try:
        files = _RUNNERS[cfg.experiment](cfg, out, manifest)
    except (ValueError, MemoryError) as exc:
        # Bad scenario/grid combinations surface as ValueError from the
        # domain types, and arrays too large to allocate as MemoryError;
        # they are configuration problems, not solver crashes.
        what = "cannot allocate the run's arrays: " if isinstance(exc, MemoryError) else ""
        print(f"configuration error: {what}{exc}", file=sys.stderr)
        for d in created:
            try:
                d.rmdir()
            except OSError:  # not empty: keep it and its parents
                break
        return 2
    except _SOLVER_FAILURES as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        _atomic_write(out / "error.json", json.dumps(record, indent=2, sort_keys=True) + "\n")
        manifest["outputs"] = ["error.json"]
        _finish(out, manifest, previous)
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4

    manifest["outputs"] = files
    try:
        _finish(out, manifest, previous)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idsa-lab",
        description="Two-component radiative transfer experiments on the homogeneous sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser(
        "run",
        help="run one experiment from a config file",
        epilog=describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_parser.add_argument("config", help="path to a key = value config file")
    run_parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"I/O error: cannot read config: {exc}", file=sys.stderr)
        return 4
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"configuration error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, value = (part.strip() for part in item.split("=", 1))
        if key in overrides:
            print(f"configuration error: {key!r} is set twice by --set", file=sys.stderr)
            return 2
        overrides[key] = value
    try:
        cfg = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
