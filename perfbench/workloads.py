"""
Workload generators and artifact checks for the idsa-lab benchmark.

A workload turns a seeded random generator into *samples*.  A sample is
the list of experiment invocations (CLI configs) that one fresh
interpreter runs back to back; its wall time is the workload's unit of
measurement.  Every value the program sees is drawn here and written into
the config text, so the program receives nothing but config values.

Each invocation has a check that reads only its artifacts (CSV files,
``fit.txt``, ``manifest.json``) and returns a list of failure messages.
Checks also derive the step counts the trace reports, so those counts come
from the artifacts, not from instrumenting the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

B, R, R_MAX, DT = 1.0, 6.0, 18.0, 0.1

# Domain-split acceptance tolerances (relative shell-weighted L2 of Jt + Js).
# "new" vs its closed form: the README's stated 1e-4.  "old" vs the direct
# stationary solve: measured at 19998 cells, dt 0.1, stationarity_tol 1e-10
# the largest gap over kappa in [1, 10] is 1.3e-10 (at kappa = 1, the slowest
# relaxation), so 1e-8 leaves a factor of about 75.
NEW_VS_CLOSED_FORM_TOL = 1e-4
OLD_VS_DIRECT_TOL = 1e-8

# Per-workload sizes.  "full" is the benchmark; "tiny" keeps every check
# meaningful at a fraction of the cost, for the self-test.  The spurious eps
# start at 2e-3, not 3e-4: on a 2-vCPU Xeon VM a three-sweep sample then takes
# about 2.5 s instead of 13 s, so one run holds several samples and its median
# is steady.
SIZES = {
    "spurious-sweep": {
        "full": dict(n_cells=50, n_eps=8, eps_lo=2e-3, eps_hi=1e-1, cycle=3, exclude_largest=4),
        "tiny": dict(n_cells=50, n_eps=4, eps_lo=3e-3, eps_hi=1e-1, cycle=1, exclude_largest=2),
    },
    "edge-instability": {
        "full": dict(n_cells=10000, t_end=200.0, t_first=5.0, n_snap=4),
        "tiny": dict(n_cells=2000, t_end=40.0, t_first=5.0, n_snap=3),
    },
    "opacity-convergence": {
        "full": dict(n_cells=19998, n_kappa=7),
        "tiny": dict(n_cells=1998, n_kappa=3),
    },
    "domain-split": {
        "full": dict(n_cells=19998, t_snap=20.0),
        "tiny": dict(n_cells=3999, t_snap=5.0),
    },
}
WORKLOADS = tuple(SIZES)


@dataclass
class Invocation:
    """One experiment invocation: its config values and its output directory."""

    values: dict
    output_dir: Path

    def config_text(self) -> str:
        lines = [f"{k} = {v}" for k, v in self.values.items()]
        lines.append(f"output_dir = {self.output_dir}")
        return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return f"{float(x):.17g}"


def _list(xs) -> str:
    return ",".join(_num(x) for x in xs)


def _stratified_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [0, 1)."""
    return (np.arange(n) + rng.random(n)) / n


def _snapshot_steps(rng, n: int, first_step: int, last_step: int) -> list[int]:
    """n distinct step indices, one per equal stratum of [first_step, last_step]."""
    edges = np.linspace(first_step, last_step + 1, n + 1).astype(int)
    return [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def _steps_to_times(steps) -> str:
    return ",".join(f"{k * DT:.10g}" for k in steps)


# ---------------------------------------------------------------- generators

def _spurious(rng, size, outdir: Path) -> list[Invocation]:
    # The sweep's cost is dominated by its smallest eps (takeover time ~ 1/eps),
    # so a sample runs `cycle` sweeps whose eps form a Latin hypercube: each
    # stratum of each sweep is split into `cycle` sub-strata, dealt to the
    # sweeps by a random permutation.  Every sweep stays stratified
    # log-uniform; the sample as a whole covers each stratum evenly, which
    # keeps its total work nearly independent of the seed.
    n, k = size["n_eps"], size["cycle"]
    lo, hi = math.log10(size["eps_lo"]), math.log10(size["eps_hi"])
    eps = np.empty((k, n))
    for i in range(n):
        sub = (rng.permutation(k) + rng.random(k)) / k
        eps[:, i] = 10.0 ** (lo + (i + sub) * (hi - lo) / n)
    return [
        Invocation(
            {
                "experiment": "spurious", "B": _num(B), "R": _num(R), "kappa": "1",
                "r_max": _num(R_MAX), "n_cells": size["n_cells"], "dt": _num(DT),
                "eps_list": _list(sorted(row, reverse=True)),
                "exclude_largest": size["exclude_largest"], "horizon": "20000",
            },
            outdir / f"sweep{j}",
        )
        for j, row in enumerate(eps)
    ]


def _instability(rng, size, outdir: Path) -> list[Invocation]:
    last = int(round(size["t_end"] / DT))
    steps = _snapshot_steps(rng, size["n_snap"], int(round(size["t_first"] / DT)), last)
    return [
        Invocation(
            {
                "experiment": "instability", "B": _num(B), "R": _num(R), "kappa": "1",
                "r_max": _num(R_MAX), "n_cells": size["n_cells"], "dt": _num(DT),
                "t_end": _num(size["t_end"]), "snapshot_times": _steps_to_times(steps),
                "bound_margin": "1e-6",
            },
            outdir / "instability",
        )
    ]


def _convergence(rng, size, outdir: Path) -> list[Invocation]:
    kappas = 10.0 ** (2.0 * _stratified_unit(rng, size["n_kappa"]))
    return [
        Invocation(
            {
                "experiment": "convergence", "B": _num(B), "R": _num(R),
                "r_max": _num(R_MAX), "n_cells": size["n_cells"], "variant": "new",
                "dt": _num(DT), "t_end": "400", "stationarity_tol": "1e-10",
                "kappa_list": _list(kappas),
            },
            outdir / "convergence",
        )
    ]


def _domain_split(rng, size, outdir: Path) -> list[Invocation]:
    # "old" always gets two snapshots and "new" three, so every sample writes
    # the same rows in the same order and peak memory does not depend on the seed.
    kappa = 10.0 ** rng.random()
    last = int(round(size["t_snap"] / DT))
    invs = []
    for variant, n_snap in (("old", 2), ("new", 3)):
        steps = _snapshot_steps(rng, n_snap, 1, last)
        invs.append(
            Invocation(
                {
                    "experiment": f"solve-{variant}", "B": _num(B), "R": _num(R),
                    "kappa": _num(kappa), "r_max": _num(R_MAX), "n_cells": size["n_cells"],
                    "dt": _num(DT), "t_end": "400", "stationarity_tol": "1e-10",
                    "snapshot_times": _steps_to_times(steps),
                },
                outdir / f"solve-{variant}",
            )
        )
    return invs


_GENERATORS = {
    "spurious-sweep": _spurious,
    "edge-instability": _instability,
    "opacity-convergence": _convergence,
    "domain-split": _domain_split,
}


def make_sample(workload: str, size_name: str, rng, outdir: Path) -> list[Invocation]:
    return _GENERATORS[workload](rng, SIZES[workload][size_name], outdir)


# ------------------------------------------------------------------- artifacts

def read_csv(path: Path):
    """(meta, header, data lines) of one CLI CSV file."""
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    return meta, body[0].split(","), body[1:]


def _numeric(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, 0))


def csv_bodies(outdir: Path) -> dict[str, bytes]:
    """Non-comment lines of every CSV file, for the determinism comparison."""
    out = {}
    for path in sorted(outdir.glob("*.csv")):
        lines = path.read_bytes().splitlines(keepends=True)
        out[path.name] = b"".join(line for line in lines if not line.startswith(b"#"))
    return out


def artifact_counts(outdir: Path) -> dict:
    rows = 0
    for path in outdir.glob("*.csv"):
        rows += sum(1 for line in path.read_bytes().splitlines() if not line.startswith(b"#")) - 1
    size = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return {"cli.rows_written": rows, "cli.bytes_written": size}


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _fit_exponent(path: Path, prefix: str) -> float:
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            return float(line.split("exponent =")[1].split(",")[0])
    raise ValueError(f"no '{prefix}' line in {path.name}")


def _confirm_steps(t_first: float, dt: float, confirm: float = 2.0, min_hold: float = 10.0):
    """Steps the spurious loop takes for one eps: (first takeover step, last step).

    Mirrors the loop's float arithmetic (t = k * dt; stop once
    t >= max(confirm * t_first, t_first + min_hold)) so the count is exact.
    """
    k_first = int(round(t_first / dt))
    k = k_first + 1
    while k * dt < max(confirm * t_first, t_first + min_hold):
        k += 1
    return k_first, k


def _check_spurious(inv: Invocation, res: CheckResult) -> None:
    _, _, lines = read_csv(inv.output_dir / "spurious.csv")
    rows = _numeric(lines)
    want = _floats(inv.values["eps_list"])
    if rows.shape[0] != len(want) or not np.array_equal(rows[:, 0], want):
        res.failures.append(f"spurious.csv lists eps {rows[:, 0].tolist()}, expected {want}")
        return
    if np.any(rows[:, 2] != 0):
        res.failures.append(f"censored eps: {rows[rows[:, 2] != 0, 0].tolist()}")
        return
    kept = rows[int(inv.values["exclude_largest"]):]
    slope = float(np.polyfit(np.log(kept[:, 0]), np.log(kept[:, 1]), 1)[0])
    reported = _fit_exponent(inv.output_dir / "fit.txt", "exponent")
    if abs(slope - reported) > 1e-9:
        res.failures.append(f"fit.txt exponent {reported} disagrees with the CSV fit {slope}")
    if abs(slope + 0.9) > 0.2:
        res.failures.append(f"takeover slope {slope:.4f} outside -0.9 +/- 0.2")
    steps = confirm = 0
    for t_first in rows[:, 1]:
        k_first, k_last = _confirm_steps(float(t_first), DT)
        steps += k_last
        confirm += k_last - k_first
    res.counts["idsa.steps"] = steps
    res.counts["idsa.confirm_steps"] = confirm
    res.counts["idsa.cell_steps"] = steps * int(inv.values["n_cells"])


def _check_instability(inv: Invocation, res: CheckResult) -> None:
    meta, _, lines = read_csv(inv.output_dir / "instability.csv")
    rows = _numeric(lines)
    want = _floats(inv.values["snapshot_times"])
    if rows.shape[0] != len(want) or not np.allclose(rows[:, 0], want, rtol=0, atol=1e-9):
        res.failures.append(f"instability.csv snapshots at {rows[:, 0].tolist()}, expected {want}")
        return
    vbs, sup = rows[:, 1], rows[:, 3]
    if math.isnan(float(meta["first_nonmonotone_time"])):
        res.failures.append("no non-monotone trapped profile was flagged")
    if not (np.all(vbs < R) and np.all(np.diff(vbs) < 0)):
        res.failures.append(f"virtual boundary does not move strictly inward: {vbs.tolist()}")
    if not vbs[-1] < R - 0.5:
        res.failures.append(f"virtual boundary ends at {vbs[-1]}, not below R - 0.5")
    if not np.all(sup <= B * (1 + 1e-6)):
        res.failures.append(f"sup(Jt+Js) = {sup.max()!r} exceeds B(1 + 1e-6)")
    params = json.loads((inv.output_dir / "manifest.json").read_text())["parameters"]
    t_stop = max(params["t_end"], max(params["snapshot_times"], default=0.0))
    steps = int(round(t_stop / params["dt"]))
    res.counts["idsa.steps"] = steps
    res.counts["idsa.cell_steps"] = steps * params["n_cells"]


def _check_convergence(inv: Invocation, res: CheckResult) -> None:
    _, header, lines = read_csv(inv.output_dir / "convergence.csv")
    body = [line.split(",") for line in lines]
    want = _floats(inv.values["kappa_list"])
    kappas = [float(r[0]) for r in body]
    if kappas != want:
        res.failures.append(f"convergence.csv lists kappa {kappas}, expected {want}")
        return
    failed = [r[0] for r in body if r[header.index("failure")]]
    if failed:
        res.failures.append(f"solver failures at kappa {failed}")
        return
    errJ = np.array([float(r[header.index("errJ")]) for r in body])
    if not np.all(np.diff(errJ) <= 0):
        res.failures.append(f"errJ not nonincreasing in kappa: {errJ.tolist()}")
    slope = float(np.polyfit(np.log(kappas), np.log(errJ), 1)[0])
    reported = _fit_exponent(inv.output_dir / "fit.txt", "errJ")
    if abs(slope - reported) > 1e-9:
        res.failures.append(f"fit.txt errJ exponent {reported} disagrees with the CSV fit {slope}")
    if abs(slope + 0.5) > 0.15:
        res.failures.append(f"errJ exponent {slope:.4f} outside -0.5 +/- 0.15")


def _check_solve(inv: Invocation, res: CheckResult) -> None:
    # Imported here: only this check needs the library, and it runs outside
    # the timed region.
    from idsa_lab import ProblemSpec, RadialField, ReformedScheme, SolverConfig
    from idsa_lab import l2_relative_error, make_uniform_grid, new_idsa_stationary_closed_form

    _, header, lines = read_csv(inv.output_dir / "snapshots.csv")
    rows = _numeric(lines)
    v = inv.values
    n = int(v["n_cells"])
    want = _floats(v["snapshot_times"])
    if rows.shape[0] != n * (len(want) + 1):
        res.failures.append(f"snapshots.csv has {rows.shape[0]} rows, expected {n * (len(want) + 1)}")
        return
    times = rows[::n, 0]
    if not np.allclose(times[:-1], want, rtol=0, atol=1e-9):
        res.failures.append(f"snapshot times {times[:-1].tolist()}, expected {want}")
    grid = make_uniform_grid(float(v["r_max"]), n)
    spec = ProblemSpec(B=float(v["B"]), R=float(v["R"]), kappa=float(v["kappa"]))
    final = rows[-n:]
    total = RadialField(grid, final[:, header.index("Jt")] + final[:, header.index("Js")])
    variant = v["experiment"].removeprefix("solve-")
    if variant == "new":
        ref, tol = new_idsa_stationary_closed_form(grid, spec), NEW_VS_CLOSED_FORM_TOL
    else:
        cfg = SolverConfig(dt=float(v["dt"]), t_end=400.0, stationarity_tol=1e-10)
        ref, tol = ReformedScheme("old", spec, grid, cfg).stationary_direct(), OLD_VS_DIRECT_TOL
    err = l2_relative_error(total, ref.total())
    if not err <= tol:
        res.failures.append(f"marched {variant} state differs from its reference by {err:.3e} (tol {tol:g})")
    res.counts["reformed.snapshot_steps"] = int(round(max(want, default=0.0) / float(v["dt"])))


_CHECKS = {
    "spurious": _check_spurious,
    "instability": _check_instability,
    "convergence": _check_convergence,
    "solve-old": _check_solve,
    "solve-new": _check_solve,
}


def check_invocation(inv: Invocation) -> CheckResult:
    """Check one invocation's artifacts; unreadable artifacts are failures too."""
    res = CheckResult()
    try:
        _CHECKS[inv.values["experiment"]](inv, res)
        res.counts.update(artifact_counts(inv.output_dir))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        res.failures.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return res
