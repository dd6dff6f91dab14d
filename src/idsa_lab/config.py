"""
Flat key = value run configuration with per-experiment defaults.

A config file is plain text: one ``key = value`` per line, ``#`` starts a
comment.  Every run resolves to a complete parameter set (the manifest
records all of it), so two runs with the same config are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .idsa import Schedule, SolverConfig


class ConfigError(ValueError):
    """Unknown key, missing key, unparsable or invalid value."""


EXPERIMENTS = (
    "oracle",
    "solve-idsa",
    "solve-old",
    "solve-new",
    "spurious",
    "instability",
    "convergence",
    "err0",
)


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

# experiment -> key -> default overriding the global one
EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "oracle": {},
    "solve-idsa": {"n_cells": 50, "snapshot_times": (5.0, 500.0, 1000.0)},
    "solve-old": {"n_cells": 19998, "t_end": 400.0, "stationarity_tol": 1e-10},
    "solve-new": {"n_cells": 19998, "t_end": 400.0, "stationarity_tol": 1e-10},
    "spurious": {"n_cells": 50},
    "instability": {"n_cells": 10000, "t_end": 200.0,
                    "snapshot_times": (10.0, 50.0, 100.0, 200.0)},
    # Both variants take the exact stationary state, so no march settings.
    "convergence": {"n_cells": 19998},
    "err0": {},
}

_REQUIRED = ("experiment",)
# Experiments whose scenario must be the bare step profile: the exact oracle
# and the domain-split schemes exist only there, and the convergence sweep
# compares the two.
_BARE_SPHERE = ("oracle", "solve-old", "solve-new", "convergence")
# Experiments that integrate the exact moments at oracle_tol.
_ORACLE = ("oracle", "convergence")
# Experiments that take snapshots -> the first step they write (idsa.Schedule).
_FIRST_SNAPSHOT_STEP = {"solve-idsa": 0, "solve-old": 1, "solve-new": 1, "instability": 1}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def resolved(self) -> dict:
        """Full parameter set, JSON-friendly, for the manifest."""
        out = {}
        for key in sorted(self.values):
            v = self.values[key]
            out[key] = list(v) if isinstance(v, tuple) else v
        return out


def _resolve(raw: dict[str, str]) -> RunConfig:
    for key in raw:
        if key not in KEYS:
            raise ConfigError(f"unknown key: {key!r}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key: {key!r}")

    values: dict = {}
    exp = raw["experiment"].strip()
    if exp not in EXPERIMENTS:
        raise ConfigError(f"invalid value for 'experiment': {exp!r}")
    values["experiment"] = exp
    overrides = EXPERIMENT_DEFAULTS[exp]

    for key, (parser, default, _help) in KEYS.items():
        if key == "experiment":
            continue
        if key in raw:
            try:
                values[key] = parser(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid value for {key!r}: {raw[key]!r} ({exc})") from exc
        elif key in overrides:
            values[key] = overrides[key]
        else:
            values[key] = default

    # Dependent defaults.
    if values["r_max"] is None:
        values["r_max"] = 3.0 * values["R"]

    _validate(values)
    return RunConfig(values)


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


def _validate(v: dict) -> None:
    def need(cond, msg):
        if not cond:
            raise ConfigError(msg)

    need(v["B"] > 0, f"B must be positive, got {v['B']}")
    need(v["R"] > 0, f"R must be positive, got {v['R']}")
    need(v["kappa"] > 0, f"kappa must be positive, got {v['kappa']}")
    need(v["kappa_outside"] >= 0, f"kappa_outside must be >= 0, got {v['kappa_outside']}")
    need(v["kappa_s"] >= 0, f"kappa_s must be >= 0, got {v['kappa_s']}")
    need(v["r_max"] > v["R"] or v["experiment"] == "err0",
         f"r_max = {v['r_max']} must exceed R = {v['R']}")
    need(v["n_cells"] >= 2, f"n_cells must be >= 2, got {v['n_cells']}")
    need(v["dt"] > 0, f"dt must be positive, got {v['dt']}")
    need(v["t_end"] > 0, f"t_end must be positive, got {v['t_end']}")
    need(v["stationarity_tol"] > 0, "stationarity_tol must be positive")
    # Below roundoff no panel meets its budget and the quadrature can only
    # bisect until its live-panel cap stops it.
    need(v["oracle_tol"] >= 1e-15, f"oracle_tol must be >= 1e-15, got {v['oracle_tol']}")
    need(v["variant"] in ("old", "new"), f"variant must be old or new, got {v['variant']!r}")
    need(all(k > 0 for k in v["kappa_list"]), "kappa_list entries must be positive")
    need(all(0 < e < np.inf for e in v["eps_list"]),
         "eps_list entries must be positive and finite")
    need(all(x > 0 for x in v["kappaR_list"]), "kappaR_list entries must be positive")
    need(v["exclude_largest"] >= 0, "exclude_largest must be >= 0")
    need(0 < v["horizon"] < np.inf, "horizon must be positive and finite")
    need(v["bound_margin"] > 0, "bound_margin must be positive")
    # inf passes a plain sign check; an infinite opacity sends NaN into the
    # oracle's quadrature and an infinite time into the step counts.
    for key, value in v.items():
        items = value if isinstance(value, tuple) else (value,)
        need(all(np.isfinite(x) for x in items if isinstance(x, float)),
             f"{key} must be finite, got {value}")
    if v["experiment"] in _ORACLE:
        kappa = v["kappa"] if v["experiment"] == "oracle" else max(v["kappa_list"], default=0.0)
        floor = _oracle_tol_floor(kappa * v["R"])
        need(v["oracle_tol"] >= floor,
             f"oracle_tol = {v['oracle_tol']:g} is below roundoff at kappa*R = {kappa * v['R']:g}:"
             f" the smallest admissible oracle_tol there is {floor:g}")
    need(v["experiment"] not in _BARE_SPHERE or (v["kappa_outside"] == 0 and v["kappa_s"] == 0),
         f"{v['experiment']} needs the bare sphere: kappa_outside = kappa_s = 0")
    need(v["experiment"] != "spurious" or v["kappa_outside"] == 0,
         "spurious sets kappa_outside to each eps of eps_list: kappa_outside must be 0")
    if v["experiment"] in _FIRST_SNAPSHOT_STEP:
        # Snapshot times the run would merge or never reach are rejected.
        try:
            sched = Schedule(SolverConfig(v["dt"], v["t_end"], v["stationarity_tol"]),
                             v["snapshot_times"], first=_FIRST_SNAPSHOT_STEP[v["experiment"]],
                             name=v["experiment"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # The domain-split schemes need a state past zero data: at step 0 the
        # interface gradient and J vanish.
        need(sched.n_steps >= 1 or v["experiment"] not in ("solve-old", "solve-new"),
             f"t_end = {v['t_end']:g} is step 0 at dt = {v['dt']:g}: {v['experiment']} needs"
             " at least one step")


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """
    Parse ``key = value`` configuration text into a resolved RunConfig.

    ``overrides`` (from --set flags) replace file values before resolution.
    Raises ConfigError naming the offending key for anything malformed.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    if overrides:
        raw.update({k.strip(): str(v).strip() for k, v in overrides.items()})
    return _resolve(raw)


def describe_keys() -> str:
    """Help text: every key, its global default, and experiment overrides."""
    lines = ["configuration keys (key = value per line, # comments):"]
    for key, (_parser, default, help_line) in KEYS.items():
        if default is None:
            default_text = "required" if key in _REQUIRED else "derived"
        elif isinstance(default, tuple):
            default_text = ",".join(f"{x:g}" for x in default) or "none"
        else:
            default_text = f"{default}"
        lines.append(f"  {key:18s} {help_line} [default: {default_text}]")
    lines.append("per-experiment defaults:")
    for exp, over in EXPERIMENT_DEFAULTS.items():
        if not over:
            continue
        parts = []
        for k, v in over.items():
            parts.append(f"{k}={','.join(f'{x:g}' for x in v) if isinstance(v, tuple) else v}")
        lines.append(f"  {exp:12s} " + "  ".join(parts))
    return "\n".join(lines)
