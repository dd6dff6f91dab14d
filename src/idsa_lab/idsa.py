"""
Original two-component scheme with the min-max switched diffusion source.

Per time step, the coupling source

    Sigma = min( max( -D[Jt] + kappa_a * Js, 0 ), kappa_a * B )

is evaluated from the previous step's fields (lagged), the trapped
component takes one pointwise backward-Euler step,

    Jt_new = (Jt + dt * (kappa_a * B - Sigma)) / (1 + dt * kappa_a),

and the streaming component is re-solved in its stationary limit by an
outward first-order sweep of the flux variable Phi = r^2 g Js, with the
absorption term treated implicitly cell by cell.  D is the conservative
face-flux form of the spherical diffusion operator with the total opacity
averaged arithmetically to faces (floored to keep the coefficient finite
in vacuum cells), zero flux at r = 0 and zero gradient at r_max.

One marcher advances a batch of scenarios on one grid as (n_rows, n_cells)
arrays, each row exactly as it would run alone; single runs are one-row
batches.  The spurious-trapped sweep marches all its eps as one batch
(n_eps x n_cells memory per array), retiring each row once its takeover
is confirmed, so the smallest eps sets the cost of the sweep.

The steps run in a native kernel (``_march.c``, built by ``_native`` with
cffi on first use into ``_native_cache/`` beside this file) that evaluates
the numpy expressions of ``_Kernel`` in the same order and rounding, so
both paths give the same bits.  The kernel also runs, on every step, the
negativity checks, the spurious domination test and the reductions of
``_Reductions`` (the running sup of Jt + Js, the first non-monotone step,
the relative change), so it hands control back only at

- a step an observer asked for (a snapshot, t_end);
- a negative value;
- a domination that begins or ends (the spurious sweep);
- a sup above the bound (the instability run);
- a relative change below the tolerance (the stationary stop of
  ``run_to_time``).

When the kernel cannot be built or loaded, ``_native.load`` says so on
stderr, and the numpy step of ``_Kernel`` and ``_Reductions.update`` run
instead; the CLI manifest records which ran under the key ``march``
("native" or "numpy").

Negativity is an error here, never clamped: the failure modes this module
exists to expose must not be masked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .grids import ProblemSpec, RadialField, RadialGrid
from .sphere import free_streaming_flux_ratio


class Regime(IntEnum):
    REACTION = 0
    DIFFUSION = 1
    FREE_STREAMING = 2


class NegativityError(RuntimeError):
    """A component went negative: the modeling broke down."""

    def __init__(self, which: str, t: float, cell: int, value: float):
        self.which = which
        self.t = t
        self.cell = cell
        self.value = value
        super().__init__(
            f"{which} became negative at t = {t:g}, cell {cell} (value {value:.3e})"
        )


class UnboundedError(RuntimeError):
    """sup(Jt + Js) exceeded the admissible bound."""


# Floor for the total opacity in the diffusion coefficient, so it stays
# finite in vacuum cells.
_KAPPA_FLOOR = 1e-30


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 0.1
    t_end: float = 1000.0
    stationarity_tol: float = 1e-8

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.stationarity_tol > 0):
            raise ValueError(f"stationarity_tol must be positive, got {self.stationarity_tol}")


@dataclass(eq=False)
class TwoComponentState:
    """Trapped and streaming zeroth moments at one time level."""

    Jt: RadialField
    Js: RadialField
    t: float = 0.0

    def total(self) -> RadialField:
        return RadialField(self.Jt.grid, self.Jt.values + self.Js.values)

    def component_fractions(self) -> tuple[np.ndarray, np.ndarray]:
        """Jt / (Jt + Js) and Js / (Jt + Js) per cell; 0 where both components vanish."""
        tot = self.Jt.values + self.Js.values
        filled = tot > 0.0
        safe = np.where(filled, tot, 1.0)
        return (np.where(filled, self.Jt.values / safe, 0.0),
                np.where(filled, self.Js.values / safe, 0.0))


# The per-row arrays the native kernel reads: march_rows fields in _march.c.
_C_FIELDS = ("ka", "kaB", "den", "r2dr", "a", "P", "d", "r2g", "floor", "kf3", "rf2")


class _Kernel:
    """
    Arrays for stepping a batch of specs on one grid, stacked per row (grid
    arrays too: same-shape operands beat broadcasting on small grids).  Rows
    on the cumprod scan come first; ``rows`` maps them to indices in ``specs``.
    Each row evaluates the single-spec expressions, so it does not depend on
    the rest of the batch.
    """

    def __init__(self, specs, grid: RadialGrid, cfg: SolverConfig, labels=None):
        r = grid.r_centers
        self.dt = cfg.dt
        self.n_cells = grid.n_cells
        self.labels = labels
        # Outward sweep: integration steps follow the centers, first step from r = 0.
        h = np.diff(np.concatenate(([0.0], r)))
        ka = np.stack([spec.absorption(r) for spec in specs])
        B = np.array([[spec.B] for spec in specs])
        ktot = np.maximum(np.stack([spec.total_opacity(r) for spec in specs]), _KAPPA_FLOOR)
        kf = np.maximum(0.5 * (ktot[:, :-1] + ktot[:, 1:]), _KAPPA_FLOOR)
        g = np.stack([free_streaming_flux_ratio(r, spec.R) for spec in specs])
        c = h * ka / g
        a = 1.0 / (1.0 + c)
        # The cumulative-product scan underflows once the total absorption depth
        # is large; such rows take a sequential sweep beyond ~400 e-folds.
        scan = np.array([float(np.sum(np.log1p(row))) < 400.0 for row in c])
        self.n_scan = int(np.count_nonzero(scan))
        self.rows = np.argsort(~scan, kind="stable")
        per_row = {
            "ka": ka, "kaB": ka * B, "den": 1.0 + cfg.dt * ka, "kf3": 3.0 * kf * grid.dr,
            "a": a, "P": np.cumprod(a, axis=1), "r2g": r * r * g,
            "floor": np.broadcast_to(-1e-12 * B, ka.shape),
            "rf2": grid.r_edges[1:-1] ** 2, "r2dr": r * r * grid.dr, "d": h * (r * r),
        }
        self._per_row = ("rows", *per_row)
        for name, value in per_row.items():
            setattr(self, name, np.broadcast_to(value, (len(specs), value.shape[-1]))[self.rows])
        self._c_rows = None

    def compact(self, keep: np.ndarray) -> None:
        """Drop the rows where ``keep`` is False."""
        self.n_scan = int(np.count_nonzero(keep[: self.n_scan]))
        for name in self._per_row:
            setattr(self, name, getattr(self, name)[keep])
        self._c_rows = None

    def advance(self, native, Jt, Js, steps: int, with_tags: bool, watch, dom, red, k: int):
        """
        Up to ``steps`` steps of the native kernel from (Jt, Js) at step
        ``k``, written to fresh arrays, so arrays handed out before are
        never overwritten.  ``dom`` (int8 per row) is the domination state
        of the cells from ``watch`` on; the kernel updates it and stops at a
        step that changes it.  ``red`` (a ``_Reductions``, or None) is
        updated as its numpy reference would be, and the kernel stops where
        it asks.  Returns the steps taken, Jt, Js, the last step's tags
        (None unless ``with_tags``) and whether that step left a negative
        value.
        """
        ffi = native.ffi
        if self._c_rows is None:  # the C view of the rows, once per compaction
            c = ffi.new("march_rows *")
            c.n_rows, c.n_cells, c.n_scan, c.dt = len(self.rows), self.n_cells, self.n_scan, self.dt
            scratch = np.empty((3, self.n_cells + 1))  # the kernel's scratch rows
            arrays = [(name, np.ascontiguousarray(getattr(self, name), float)) for name in _C_FIELDS]
            buffers = [ffi.from_buffer("signed char[]", np.empty(self.n_cells, np.int8))]
            c.tags = buffers[0]
            for name, array in [*arrays, *zip(("flux", "trapped", "terms"), scratch)]:
                buf = ffi.from_buffer("double[]", array)
                setattr(c, name, buf)
                buffers.append(buf)  # keeps each array alive while c points into it
            self._c_rows = c, buffers
        c_red = ffi.NULL if red is None else red.c_view(ffi, k)
        Jt_new, Js_new = np.empty_like(Jt), np.empty_like(Js)
        tags = np.empty(Jt.shape, np.int8) if with_tags else None
        negative = ffi.new("int *")
        taken = native.lib.march(
            self._c_rows[0], c_red,
            ffi.from_buffer("double[]", Jt), ffi.from_buffer("double[]", Js),
            ffi.from_buffer("double[]", Jt_new), ffi.from_buffer("double[]", Js_new),
            ffi.NULL if tags is None else ffi.from_buffer("signed char[]", tags),
            ffi.from_buffer("signed char[]", dom), steps, -1 if watch is None else watch, negative,
        )
        return taken, Jt_new, Js_new, tags, bool(negative[0])

    def sigma(self, Jt: np.ndarray, Js: np.ndarray, with_tags: bool = False):
        """Switched source per row, and the regime tags when asked for."""
        # D[Jt] from face fluxes, zero at r = 0 and at r_max.
        F = np.zeros((len(Jt), self.n_cells + 1))
        F[:, 1:-1] = self.rf2 * (Jt[:, 1:] - Jt[:, :-1]) / self.kf3
        # ka Js - D equals -D + ka Js exactly (IEEE a - b is a + (-b)).
        inner = self.ka * Js - (F[:, 1:] - F[:, :-1]) / self.r2dr
        S = np.minimum(np.maximum(inner, 0.0), self.kaB)
        if not with_tags:
            return S, None
        tags = np.where(
            inner <= 0.0, Regime.REACTION,
            np.where(inner >= self.kaB, Regime.FREE_STREAMING, Regime.DIFFUSION),
        ).astype(np.int8)
        return S, tags

    def trapped_step(self, Jt: np.ndarray, S: np.ndarray) -> np.ndarray:
        return (Jt + self.dt * (self.kaB - S)) / self.den

    def stream(self, S: np.ndarray) -> np.ndarray:
        n = self.n_scan
        Phi = self.P[:n] * np.cumsum(self.d[:n] * S[:n] * self.a[:n] / self.P[:n], axis=1)
        if n < len(S):  # the other rows sweep sequentially, one at a time
            sweep = []
            for row in zip(self.a[n:].tolist(), self.d[n:].tolist(), S[n:].tolist()):
                phi = 0.0  # running flux, updated by the comprehension
                sweep.append([phi := (phi + di * si) * ai for ai, di, si in zip(*row)])
            Phi = np.concatenate((Phi, sweep))
        return Phi / self.r2g

    def check(self, values: np.ndarray, bad: np.ndarray, which: str, t: float) -> None:
        """Raise NegativityError at the first row with a ``bad`` cell."""
        if np.count_nonzero(bad):
            row = int(np.argmax(bad.any(axis=1)))
            i = int(np.argmin(values[row]))
            if self.labels is not None:
                which = f"{which} ({self.labels[self.rows[row]]})"
            raise NegativityError(which, t, i, float(values[row, i]))


class _Reductions:
    """
    What an observer of single runs reduces from each step's fields, per
    row: the running sup of Jt + Js; whether the step has a non-monotone
    pair among the first ``mono_pairs`` (Jt[i + 1] - Jt[i] > ``mono_tol``),
    and the first step that had one (-1 if none); and, while ``stat_tol``
    is positive, the relative change max(|dJt|, |dJs|) / max(max Jt, max
    Js, 1e-300).  ``update`` is the numpy reference; the native kernel
    reduces the same values itself and returns at a step whose sup exceeds
    ``bound`` or whose change falls below ``stat_tol``.
    """

    def __init__(self, n_rows: int, bound=math.inf, stat_tol=0.0, mono_tol=0.0, mono_pairs=0):
        self.bound, self.stat_tol = bound, stat_tol
        self.mono_tol, self.mono_pairs = mono_tol, mono_pairs
        self.sup = np.zeros(n_rows)
        self.change = np.full(n_rows, np.nan)
        self.nonmono = np.zeros(n_rows, np.int8)
        self.first_nonmono = np.full(n_rows, -1, np.int64)

    def update(self, k: int, Jt_old, Js_old, Jt, Js) -> None:
        """Reduce step ``k``, which took (Jt_old, Js_old) to (Jt, Js)."""
        tot = np.max(Jt + Js, axis=1)
        self.sup = _py_max(self.sup, tot)
        pairs = np.diff(Jt[:, : self.mono_pairs + 1], axis=1)
        self.nonmono = np.any(pairs > self.mono_tol, axis=1).astype(np.int8)
        self.first_nonmono[(self.nonmono == 1) & (self.first_nonmono < 0)] = k
        if self.stat_tol > 0.0:
            dJt = np.max(np.abs(Jt - Jt_old), axis=1)
            dJs = np.max(np.abs(Js - Js_old), axis=1)
            scale = _py_max(Jt.max(axis=1, initial=0.0), Js.max(axis=1, initial=0.0))
            self.change = _py_max(dJt, dJs) / _py_max(scale, 1e-300)

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows where ``rows`` is False."""
        for name in ("sup", "change", "nonmono", "first_nonmono"):
            setattr(self, name, getattr(self, name)[rows])

    def c_view(self, ffi, k: int):
        """The march_reductions the native kernel updates in place, at step ``k``."""
        c = ffi.new("march_reductions *")
        c.bound, c.stat_tol, c.mono_tol = self.bound, self.stat_tol, self.mono_tol
        c.mono_pairs, c.step = self.mono_pairs, k
        c.sup, c.change = ffi.from_buffer("double[]", self.sup), ffi.from_buffer("double[]", self.change)
        c.nonmono = ffi.from_buffer("signed char[]", self.nonmono)
        c.first_nonmono = ffi.from_buffer("long long[]", self.first_nonmono)
        return c


def _py_max(a, b):
    """Python's max(a, b) per element: a unless b > a."""
    return np.where(b > a, b, a)


def _march(kern: _Kernel, observe, max_steps=math.inf, *, first, with_tags: bool = False,
           watch=None, red: _Reductions | None = None):
    """
    March every row of ``kern`` from zero data for up to ``max_steps`` steps.

    After step k, ``observe(k, t, Jt, Js, tags)`` sees the (n_rows, n_cells)
    fields (tags only ``with_tags``) and returns ``(done, upcoming)``: None
    or a mask of rows to retire, and the next step it must see; ``first``
    is the first step it must see.  ``red``, if given, holds the step's
    reductions when the observer sees it.  The numpy path shows every step.
    The native kernel shows step ``first``, then each ``upcoming`` step, any
    step where a row's domination of the cells from index ``watch`` on
    (Jt > (Jt + Js) / 2 on each) begins or ends, any step where ``red``
    asks to stop, and the last step; so an observer must have nothing to do
    at the steps in between.  Both paths compute the same bits, and never
    write to an array already shown.  Returns the fields once every row has
    retired or time is up.
    """
    from . import _native  # here: importing idsa_lab should not pay for it

    native = _native.load()
    Jt = np.zeros((len(kern.rows), kern.n_cells))
    Js = np.zeros_like(Jt)
    dom = np.zeros(len(kern.rows), np.int8)  # native path: watched cells dominated, per row
    k, upcoming = 0, first
    while k < max_steps:
        if native is None:
            # One full step: source, trapped update, streaming re-solve.
            S, tags = kern.sigma(Jt, Js, with_tags)
            Jt_old, Js_old = Jt, Js
            Jt, Js = kern.trapped_step(Jt, S), kern.stream(S)
            k, negative = k + 1, True
            if red is not None:
                red.update(k, Jt_old, Js_old, Jt, Js)
        else:
            stop = int(min(max(upcoming, k + 1), max_steps))
            taken, Jt, Js, tags, negative = kern.advance(
                native, Jt, Js, stop - k, with_tags, watch, dom, red, k
            )
            k += taken
        t = k * kern.dt
        if negative:  # name the first row, and its cell, that went negative
            kern.check(Jt, Jt < kern.floor, "trapped component", t)
            kern.check(Js, Js < 0.0, "streaming component", t)
        done, upcoming = observe(k, t, Jt, Js, tags)
        if done is not None and np.count_nonzero(done):
            if done.all():
                break
            kern.compact(~done)
            Jt, Js, dom = Jt[~done], Js[~done], dom[~done]
            if red is not None:
                red.keep(~done)
    return Jt, Js


def _first_step(dt: float, k: int, x: float, past: bool = False):
    """The first step j > k whose time j * dt reaches x (passes it, if ``past``)."""
    if x / dt == math.inf:
        return math.inf
    j = max(k + 1, math.floor(x / dt) - 1)
    while not (j * dt > x if past else j * dt >= x):
        j += 1
    return j


@dataclass(eq=False)
class Snapshot:
    state: TwoComponentState
    tags: np.ndarray


@dataclass(eq=False)
class Trajectory:
    snapshots: list = field(default_factory=list)
    final: TwoComponentState | None = None
    final_tags: np.ndarray | None = None
    stopped: str = "t_end"


def run_to_time(
    spec: ProblemSpec,
    grid: RadialGrid,
    cfg: SolverConfig,
    snapshot_times: tuple = (),
) -> Trajectory:
    """
    March the coupled system from zero initial data.

    The final state is the one at cfg.t_end, or at the first step where the
    per-step relative change max(|dJt|, |dJs|) / max(|Jt|, |Js|) falls below
    cfg.stationarity_tol; ``stopped`` says which ("t_end" or "stationary").
    The march goes on past it to the last requested snapshot.  Snapshots
    are taken at the steps nearest the requested times.  A snapshot and the
    final state carry the regime tags of the source that produced them
    (REACTION everywhere at t = 0).
    """
    snap_steps = sorted({max(0, int(round(ts / cfg.dt))) for ts in snapshot_times})
    n_steps = int(round(cfg.t_end / cfg.dt))
    zeros = np.zeros(grid.n_cells)
    start = Snapshot(_make_state(grid, zeros, zeros, 0.0), np.zeros(grid.n_cells, np.int8))
    traj = Trajectory(snapshots=[start] if 0 in snap_steps else [])
    if n_steps == 0:
        traj.final, traj.final_tags = start.state, start.tags

    # Until the final state the observer needs the snapshot steps, the
    # stationary stop (the kernel's change below the tolerance) and t_end.
    red = _Reductions(1, stat_tol=cfg.stationarity_tol if traj.final is None else 0.0)

    def upcoming(k):
        """The next step to see after step k: a snapshot or t_end, then only snapshots."""
        later = [j for j in snap_steps if j > k]
        if traj.final is None:
            return min([*later, n_steps])
        return later[0] if later else None

    def observe(k, t, Jt, Js, tags):
        (Jt, Js), tags = (Jt[0], Js[0]), tags[0]
        if k in snap_steps:
            traj.snapshots.append(Snapshot(_make_state(grid, Jt, Js, t), tags.copy()))
        if traj.final is None:
            if red.change[0] < cfg.stationarity_tol:
                traj.stopped = "stationary"
            elif k < n_steps:
                return None, upcoming(k)
            traj.final, traj.final_tags = _make_state(grid, Jt, Js, t), tags.copy()
            red.stat_tol = 0.0
        j = upcoming(k)
        return (None, j) if j is not None else (np.array([True]), None)

    _march(_Kernel([spec], grid, cfg), observe, max([n_steps, *snap_steps]), with_tags=True,
           red=red, first=upcoming(0))
    return traj


def _make_state(grid, Jt, Js, t):
    return TwoComponentState(RadialField(grid, Jt.copy()), RadialField(grid, Js.copy()), t=t)


# A takeover first seen at t is confirmed once it holds until
# max(_CONFIRM * t, t + _MIN_HOLD).
_CONFIRM = 2.0
_MIN_HOLD = 10.0


@dataclass(frozen=True)
class TakeoverRecord:
    eps: float
    time: float | None
    censored: bool


def run_spurious_trapped_experiment(
    eps_list,
    spec_base: ProblemSpec,
    grid: RadialGrid,
    cfg: SolverConfig,
    horizon: float = 1e6,
) -> list[TakeoverRecord]:
    """
    Time for spurious trapped particles to take over the streaming region.

    For each eps the absorption outside the sphere is set to eps and the
    system is marched from zero data.  The takeover time is the first t at
    which the trapped fraction Jt/(Jt+Js) exceeds 1/2 on every cell r >= R,
    confirmed by holding until max(2 t, t + 10).

    The switch chatters forever at the interface cells (per-step relative
    change plateaus at ~0.05 * eps, never below any fixed tolerance), so
    sustained domination stands in for literal step-stationarity here.
    Runs that never take over within ``horizon`` are reported censored.
    All eps march as one batch, a row retiring once its record is known.
    """
    eps_all = [float(eps) for eps in eps_list]
    # horizon / dt bounds the step count; it must be finite for the march to end.
    checked = (("horizon", horizon), ("horizon / dt", horizon / cfg.dt),
               *(("eps", eps) for eps in eps_all))
    for name, value in checked:
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not eps_all:
        return []
    specs = [replace(spec_base, kappa_outside=eps) for eps in eps_all]
    kern = _Kernel(specs, grid, cfg, labels=[f"eps = {eps:g}" for eps in eps_all])
    # Centers increase, so the cells r >= R are a suffix of the grid.
    outside = slice(int(np.searchsorted(grid.r_centers, spec_base.R)), None)
    records = [None] * len(eps_all)
    # Per row: outside dominated since `first` (NaN if not), to be held until `until`.
    first = np.full(len(eps_all), np.nan)
    until = np.full(len(eps_all), np.inf)

    def upcoming(k):
        """The first step after k that ends a hold or passes the horizon."""
        return min(_first_step(cfg.dt, k, float(until.min(initial=math.inf))),
                   _first_step(cfg.dt, k, horizon, past=True))

    def observe(k, t, Jt, Js, tags):
        nonlocal first, until
        tot = Jt[:, outside] + Js[:, outside]
        dominated = (Jt[:, outside] > 0.5 * np.maximum(tot, 1e-300)).all(axis=1)
        done = dominated & (t >= until)
        if np.count_nonzero(dominated == np.isnan(first)):  # a domination began or ended
            first = np.where(dominated, np.fmin(first, t), np.nan)
            until = np.where(dominated, np.maximum(_CONFIRM * first, first + _MIN_HOLD), np.inf)
        for row in np.flatnonzero(done):
            i = kern.rows[row]
            records[i] = TakeoverRecord(eps_all[i], float(first[row]), censored=False)
        if t > horizon:
            return np.ones_like(done), None  # the rows left are censored
        if np.count_nonzero(done):
            first, until = first[~done], until[~done]
        # Until a hold ends or the horizon passes, only a domination that
        # begins or ends needs this observer, and the march stops there.
        return done, upcoming(k)

    _march(kern, observe, watch=outside.start, first=upcoming(0))
    return [rec or TakeoverRecord(eps, None, censored=True) for rec, eps in zip(records, eps_all)]


def diffusion_number(spec: ProblemSpec, grid: RadialGrid, cfg: SolverConfig) -> float:
    """
    dt / (3 kappa dr^2), kappa the total opacity inside the sphere.  The
    lagged source makes each step's diffusion explicit, and explicit
    diffusion is stable only while this is at most 1/2.
    """
    return cfg.dt / (3.0 * (spec.kappa + spec.kappa_s) * grid.dr**2)


@dataclass(frozen=True)
class InstabilitySnapshot:
    t: float
    virtual_boundary: float
    nonmonotone: bool
    sup_total: float


@dataclass(eq=False)
class InstabilityResult:
    snapshots: list
    first_nonmonotone_time: float | None
    sup_total: float
    vb_threshold: float
    final: TwoComponentState


def run_instability_experiment(
    spec: ProblemSpec,
    grid: RadialGrid,
    cfg: SolverConfig,
    snapshot_times: tuple = (10.0, 50.0, 100.0, 200.0),
    vb_threshold: float = 0.9,
    bound_margin: float = 1e-6,
) -> InstabilityResult:
    """
    Track the coupling instability at the sphere edge.

    Per snapshot: the virtual-boundary radius (largest r whose trapped value
    still exceeds vb_threshold * B, i.e. the edge of the intact plateau),
    whether the trapped profile is non-monotone inside the sphere (some
    discrete forward difference positive with both centers < R), and the
    running sup of Jt + Js.  The run fails hard with UnboundedError if that
    sup ever exceeds B * (1 + bound_margin); the instability is a modeling
    artifact and must stay bounded.  The bound is expected to hold only
    while ``diffusion_number`` is at most 1/2, so the error gives it.
    """
    r = grid.r_centers
    t_stop = max(cfg.t_end, max(snapshot_times, default=0.0))
    n_steps = int(round(t_stop / cfg.dt))
    snap_steps = {int(round(ts / cfg.dt)): ts for ts in snapshot_times}
    # Centers increase, so the pairs with both centers inside R are a prefix.
    red = _Reductions(1, bound=spec.B * (1.0 + bound_margin), mono_tol=1e-10 * spec.B,
                      mono_pairs=int(np.count_nonzero(r[1:] < spec.R)))
    snaps = []

    def upcoming(k):
        return min([j for j in snap_steps if j > k], default=n_steps)

    def observe(k, t, Jt, Js, tags):
        sup = float(red.sup[0])
        if sup > red.bound:
            raise UnboundedError(
                f"sup(Jt + Js) = {sup:.9g} exceeds B(1 + {bound_margin:g}) at t = {t:g}; "
                f"diffusion number dt/(3 kappa dr^2) = {diffusion_number(spec, grid, cfg):.3g}"
            )
        if k in snap_steps:
            above = np.nonzero(Jt[0] > vb_threshold * spec.B)[0]
            vb = float(r[above[-1]]) if above.size else 0.0
            snaps.append(InstabilitySnapshot(t, vb, bool(red.nonmono[0]), sup))
        # The bound and the first non-monotone step are the kernel's to watch.
        return None, upcoming(k)

    Jt, Js = _march(_Kernel([spec], grid, cfg), observe, n_steps, red=red, first=upcoming(0))
    first_bad = int(red.first_nonmono[0])
    return InstabilityResult(
        snapshots=snaps,
        first_nonmonotone_time=first_bad * cfg.dt if first_bad >= 0 else None,
        sup_total=float(red.sup[0]),
        vb_threshold=vb_threshold,
        final=_make_state(grid, Jt[0], Js[0], n_steps * cfg.dt),
    )
