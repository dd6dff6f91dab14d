"""
Flat key = value run configuration, and the keys each experiment reads.

A config file is plain text: one ``key = value`` per line, set once; ``#``
starts a comment.  A run resolves the keys ``EXPERIMENTS`` says it reads
(the manifest records all of them), so two runs with the same config are
bit-identical.  Any other key set is checked, then named in ``unread``.

Each key's domain is stated once, by the library type that reads it, and
``parse_config`` builds that type from every resolved key, read or not:
``grids.ProblemSpec`` (the scenario keys, and each kappa_list entry as a
kappa), ``grids.cell_width`` (r_max, n_cells), ``idsa.SolverConfig`` (dt,
t_end, stationarity_tol, and horizon, the spurious sweep's t_end) and, for
the runs that take snapshots, ``idsa.Schedule`` (snapshot_times).  Here
stay the finiteness of every value, the keys only a run function reads,
and the policies across keys.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field

import numpy as np

from .grids import ProblemSpec, cell_width
from .idsa import Schedule, SolverConfig


class ConfigError(ValueError):
    """Unknown key, missing key, unparsable or invalid value."""


@dataclass(frozen=True)
class Experiment:
    """The keys an experiment reads besides experiment and output_dir, its own
    defaults, and the first step its snapshots may name (None: it takes none)."""

    reads: tuple[str, ...]
    defaults: dict = field(default_factory=dict)
    first_snapshot_step: int | None = None


# The scenario: the keys of it a run reads are echoed above each CSV header.
SCENARIO = ("B", "R", "kappa", "kappa_outside", "kappa_s", "r_max", "n_cells")
_BARE_SCENARIO = ("B", "R", "kappa", "r_max", "n_cells")
_MARCH = ("dt", "t_end", "stationarity_tol", "snapshot_times")
# The domain-split schemes exist only on the bare sphere.
_DOMAIN_SPLIT = Experiment((*_BARE_SCENARIO, *_MARCH),
                           {"n_cells": 19998, "t_end": 400.0, "stationarity_tol": 1e-10}, 1)

EXPERIMENTS: dict[str, Experiment] = {
    "oracle": Experiment((*_BARE_SCENARIO, "oracle_tol")),
    "solve-idsa": Experiment((*SCENARIO, *_MARCH),
                             {"n_cells": 50, "snapshot_times": (5.0, 500.0, 1000.0)}, 0),
    "solve-old": _DOMAIN_SPLIT,
    "solve-new": _DOMAIN_SPLIT,
    # Each row runs at kappa_outside = its eps.
    "spurious": Experiment(("B", "R", "kappa", "kappa_s", "r_max", "n_cells", "dt",
                            "eps_list", "exclude_largest", "horizon"), {"n_cells": 50}),
    "instability": Experiment(
        (*SCENARIO, "dt", "t_end", "snapshot_times", "vb_threshold", "bound_margin"),
        {"n_cells": 10000, "t_end": 200.0, "snapshot_times": (10.0, 50.0, 100.0, 200.0)}, 1),
    # Both variants take the exact stationary state, so no march settings;
    # its opacities are those of kappa_list.
    "convergence": Experiment(("B", "R", "r_max", "n_cells", "variant", "kappa_list",
                               "oracle_tol"), {"n_cells": 19998}),
    "err0": Experiment(("kappaR_list",)),
}


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(float(p) for p in items)


_DEFAULT_EPS = tuple(float(f"{e:.6g}") for e in np.logspace(-1, -4, 12))

# key -> (parser, global default, help line)
KEYS: dict[str, tuple] = {
    "experiment": (str, None, "one of: " + ", ".join(EXPERIMENTS)),
    "B": (float, 1.0, "equilibrium level"),
    "R": (float, 6.0, "sphere radius"),
    "kappa": (float, 1.0, "absorption opacity inside the sphere"),
    "kappa_outside": (float, 0.0, "absorption opacity at r >= R"),
    "kappa_s": (float, 0.0, "scattering opacity (constant)"),
    "r_max": (float, None, "outer domain edge (default 3*R)"),
    "n_cells": (int, 2000, "number of grid cells"),
    "dt": (float, 0.1, "time step"),
    "t_end": (float, 1000.0, "final time"),
    "stationarity_tol": (float, 1e-8, "stop when the per-step relative change drops below this"),
    "variant": (str, "new", "domain-split variant for convergence: old or new"),
    "kappa_list": (_parse_float_list, (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
                   "opacities for the convergence sweep (comma separated)"),
    "eps_list": (_parse_float_list, _DEFAULT_EPS,
                 "outside opacities for the spurious-trapped sweep"),
    "exclude_largest": (int, 5, "number of largest eps excluded from the growth-law fit"),
    "kappaR_list": (_parse_float_list,
                    (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0),
                    "kappa*R values for the center-error curve"),
    "oracle_tol": (float, 1e-10, "quadrature tolerance for the exact moments"),
    "snapshot_times": (_parse_float_list, (), "times to snapshot (comma separated)"),
    "output_dir": (str, "idsa-lab-out", "directory for CSV artifacts and the manifest"),
    "vb_threshold": (float, 0.9, "trapped level (times B) defining the virtual boundary"),
    "bound_margin": (float, 1e-6, "instability hard-failure margin: sup(Jt+Js) <= B(1+margin)"),
    "horizon": (float, 1e6, "censoring horizon for the spurious-trapped sweep"),
}


@dataclass
class RunConfig:
    """The resolved keys a run reads, and the keys set that it does not."""

    values: dict = field(default_factory=dict)
    unread: tuple[str, ...] = ()

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def resolved(self) -> dict:
        """The parameters the run reads, JSON-friendly, for the manifest."""
        out = {}
        for key in sorted(self.values):
            v = self.values[key]
            out[key] = list(v) if isinstance(v, tuple) else v
        return out


def _resolve(raw: dict[str, str]) -> RunConfig:
    for key in raw:
        if key not in KEYS:
            raise ConfigError(f"unknown key: {key!r}")
    if "experiment" not in raw:
        raise ConfigError("missing required key: 'experiment'")
    if raw["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"invalid value for 'experiment': {raw['experiment']!r}")
    spec = EXPERIMENTS[raw["experiment"]]

    # Every key resolves, so a key the run does not read is checked as well.
    values: dict = {}
    for key, (parser, default, _help) in KEYS.items():
        if key in raw:
            try:
                values[key] = parser(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid value for {key!r}: {raw[key]!r} ({exc})") from exc
        else:
            values[key] = spec.defaults.get(key, default)

    # Dependent defaults.
    if values["r_max"] is None:
        values["r_max"] = 3.0 * values["R"]

    _validate(values, spec, set(raw))
    kept = {"experiment", "output_dir", *spec.reads}
    return RunConfig({key: v for key, v in values.items() if key in kept},
                     unread=tuple(key for key in KEYS if key in raw and key not in kept))


def _oracle_tol_floor(kappa_R: float) -> float:
    """
    The smallest oracle_tol the quadrature meets at opacity times radius
    kappa_R: 1e-15 * max(1, kappa_R / 6), to three digits.  Near r = R the
    exponents of the oracle's integrands cancel to about eps * kappa_R, and
    below that roundoff no panel meets its budget; the quadrature bisects
    until its live-panel cap stops it.  Measured over kappa_R from 0.1 to
    1e5 and 256 radii within 1e-16 to 1e-2 R of R, spaced 1e-8 R to 1e-2 R
    apart: the whole scan passed at half this floor, and the failures start
    at 0.2 to 0.5 eps * kappa_R.
    """
    return float(f"{1e-15 * max(1.0, kappa_R / 6.0):.3g}")


def _build(make, *args, name: str = ""):
    """``make(*args)``: a ValueError, which names the input outside its
    domain, becomes a ConfigError, prefixed by ``name``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{name}{exc}") from exc


def _validate(v: dict, spec: Experiment, set_keys: set[str]) -> None:
    """Check every key, read by the run or not, then the keys the run reads
    against each other (the module docstring says where each check lives)."""

    def need(cond, msg):
        if not cond:
            raise ConfigError(msg)

    need(v["bound_margin"] > 0, f"bound_margin must be positive, got {v['bound_margin']}")
    need(v["exclude_largest"] >= 0, f"exclude_largest must be >= 0, got {v['exclude_largest']}")
    # Below roundoff no panel meets its budget and the quadrature can only
    # bisect until its live-panel cap stops it.
    need(v["oracle_tol"] >= 1e-15, f"oracle_tol must be >= 1e-15, got {v['oracle_tol']}")
    need(v["variant"] in ("old", "new"), f"variant must be old or new, got {v['variant']!r}")
    need(all(x > 0 for x in v["kappaR_list"]), "kappaR_list entries must be positive")
    need(all(0 < e < np.inf for e in v["eps_list"]),
         "eps_list entries must be positive and finite")
    # inf passes a plain sign check; an infinite opacity sends NaN into the
    # oracle's quadrature and an infinite time into the step counts.
    for key, value in v.items():
        items = value if isinstance(value, tuple) else (value,)
        need(all(np.isfinite(x) for x in items if isinstance(x, float)),
             f"{key} must be finite, got {value}")

    exp, reads = v["experiment"], set(spec.reads)
    _build(ProblemSpec, v["B"], v["R"], v["kappa"], v["kappa_outside"], v["kappa_s"])
    for kappa in v["kappa_list"]:
        _build(ProblemSpec, v["B"], v["R"], kappa, name="kappa_list: ")
    _build(cell_width, v["r_max"], v["n_cells"])
    _build(SolverConfig, v["dt"], 0.0, v["stationarity_tol"])
    # horizon is the spurious sweep's t_end.  An end is checked against dt
    # where the run reads it or the config sets it, the one the run reads first.
    for key in sorted({"t_end", "horizon"} & (reads | set_keys), key=lambda k: (k not in reads, k)):
        try:
            SolverConfig(v["dt"], v[key])
        except ValueError as exc:
            raise ConfigError(str(exc).replace("t_end", key)) from exc

    # A run that does not read an opacity runs it at 0.
    for key in ("kappa_outside", "kappa_s"):
        need(key in reads or v[key] == 0,
             f"{exp} does not read {key}: {key} must be 0, as on the bare sphere")
    # The checks across keys, each where the run reads every key it involves.
    if {"R", "r_max"} <= reads:
        need(v["r_max"] > v["R"], f"r_max = {v['r_max']} must exceed R = {v['R']}")
    if "oracle_tol" in reads:
        kappa = v["kappa"] if "kappa" in reads else max(v["kappa_list"], default=0.0)
        floor = _oracle_tol_floor(kappa * v["R"])
        need(v["oracle_tol"] >= floor,
             f"oracle_tol = {v['oracle_tol']:g} is below roundoff at kappa*R = {kappa * v['R']:g}:"
             f" the smallest admissible oracle_tol there is {floor:g}")
    if spec.first_snapshot_step is not None:
        # Snapshot times the run would merge or never reach are rejected.
        sched = _build(Schedule, SolverConfig(v["dt"], v["t_end"]), v["snapshot_times"],
                       spec.first_snapshot_step, exp)
        # The domain-split schemes need a state past zero data: at step 0 the
        # interface gradient and J vanish.
        need(sched.n_steps >= 1 or exp not in ("solve-old", "solve-new"),
             f"t_end = {v['t_end']:g} is step 0 at dt = {v['dt']:g}: {exp} needs"
             " at least one step")


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """
    Parse ``key = value`` configuration text into a resolved RunConfig.

    ``overrides`` (from --set flags) replace file values before resolution.
    Raises ConfigError naming the offending key for anything malformed, and
    for a key the text sets twice.
    """
    raw: dict[str, str] = {}
    where: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in where:
            raise ConfigError(f"{key!r} is set twice, on lines {where[key]} and {lineno}")
        where[key] = lineno
        raw[key] = value
    if overrides:
        raw.update({k.strip(): str(v).strip() for k, v in overrides.items()})
    return _resolve(raw)


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{x:g}" for x in value) or "none"
    return f"{value}"


def describe_keys() -> str:
    """Help text: every key and its global default, then the keys each experiment reads."""
    lines = ["configuration keys (key = value per line, # comments):"]
    for key, (_parser, default, help_line) in KEYS.items():
        shown = "derived" if key == "r_max" else "required" if default is None else _text(default)
        lines.append(f"  {key:18s} {help_line} [default: {shown}]")
    lines.append("keys each experiment reads besides experiment and output_dir, with its own"
                 " defaults;\nany other key is ignored with a note, and kappa_outside and kappa_s"
                 " must then be 0:")
    for exp, spec in EXPERIMENTS.items():
        reads = [f"{key}={_text(spec.defaults[key])}" if key in spec.defaults else key
                 for key in spec.reads]
        lines.append(textwrap.fill(" ".join(reads), 79, initial_indent=f"  {exp:12s} ",
                                   subsequent_indent=" " * 15))
    return "\n".join(lines)
