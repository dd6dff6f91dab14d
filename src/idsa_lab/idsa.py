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
both paths give the same bits; it steps a long row on two threads, its
head and tail one step apart, with the same bits.  The kernel also runs,
on every step, the negativity checks, the takeover holds of ``_Holds``
(the step at which each row's domination of the cells outside the sphere
began) and the reductions of ``_Reductions`` (the running sup of Jt + Js,
the first non-monotone step, the relative change), so it hands control
back only at

- a step an observer asked for (a snapshot, t_end);
- a negative or NaN value;
- a confirmed takeover, where a row's hold ends (the spurious sweep);
- a sup above the bound (the instability run);
- a relative change below the tolerance (the stationary stop of
  ``run_to_time``).

When the kernel cannot be built or loaded, ``_native.load`` says so on
stderr, and the numpy step of ``_Kernel``, ``_Holds.update`` and
``_Reductions.update`` run instead; the CLI manifest records which ran
under the key ``march`` ("native" or "numpy").

Negativity, and a NaN, is an error here, never clamped: the failure modes
this module exists to expose must not be masked.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .grids import ProblemSpec, RadialField, RadialGrid
from .sphere import free_streaming_flux_ratio


class Regime(IntEnum):
    REACTION = 0
    DIFFUSION = 1
    FREE_STREAMING = 2


class NegativityError(RuntimeError):
    """A component went negative or NaN: the modeling broke down."""

    def __init__(self, which: str, t: float, cell: int, value: float):
        self.which = which
        self.t = t
        self.cell = cell
        self.value = value
        state = "NaN" if math.isnan(value) else "negative"
        super().__init__(f"{which} became {state} at t = {t:g}, cell {cell} (value {value:.3e})")


class UnboundedError(RuntimeError):
    """sup(Jt + Js) exceeded the admissible bound."""


# Floor for the total opacity in the diffusion coefficient, so it stays
# finite in vacuum cells.
_KAPPA_FLOOR = 1e-30


# Step counts must stay below 2^63: the kernels count them in a signed 64-bit
# integer.
_MAX_STEPS = 2.0**63


@dataclass(frozen=True)
class SolverConfig:
    """A march's time step, end time and stationarity tolerance, in the
    domains ``__post_init__`` states (else ValueError naming the value)."""

    dt: float = 0.1
    t_end: float = 1000.0
    stationarity_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got dt = {self.dt:g}")
        if not 0.0 <= self.t_end / self.dt < _MAX_STEPS:
            raise ValueError(f"t_end must be >= 0 and below 2^63 steps of dt, got t_end ="
                             f" {self.t_end:g} at dt = {self.dt:g}")
        if not self.stationarity_tol > 0:
            raise ValueError("stationarity_tol must be positive, got stationarity_tol ="
                             f" {self.stationarity_tol:g}")


@dataclass(eq=False)
class TwoComponentState:
    """Trapped and streaming zeroth moments at one time level; ``tags`` are the
    regime tags of the switched source that produced them, if one did."""

    Jt: RadialField
    Js: RadialField
    t: float = 0.0
    tags: np.ndarray | None = None

    def total(self) -> RadialField:
        return RadialField(self.Jt.grid, self.Jt.values + self.Js.values)

    def component_fractions(self) -> tuple[np.ndarray, np.ndarray]:
        """Jt / (Jt + Js) and Js / (Jt + Js) per cell; 0 where both components vanish."""
        tot = self.Jt.values + self.Js.values
        filled = tot > 0.0
        safe = np.where(filled, tot, 1.0)
        return (np.where(filled, self.Jt.values / safe, 0.0),
                np.where(filled, self.Js.values / safe, 0.0))


class RunRecord(NamedTuple):
    """What a marcher returns: the final state, its step, the snapshot states
    in step order, and why it stopped, "stationary" or "t_end" (``Schedule``)."""

    final: TwoComponentState
    steps: int
    snapshots: list
    stopped: str


class Schedule:
    """
    The steps a march from zero data looks at, from a ``SolverConfig`` and
    snapshot times: the stop and snapshot policy of ``run_to_time``,
    ``ReformedScheme.run_to_stationarity`` and ``run_instability_experiment``.

    - A time t is taken at its nearest step, round(t / dt), or at step 0
      if earlier; the state of step k is stamped k * dt.
    - The final state is that of the first step whose relative change (each
      scheme has its own measure) falls below stationarity_tol, or of step
      ``n_steps`` = round(t_end / dt), whichever comes first; step 0 only
      when n_steps is 0.
    - The march goes on to the last snapshot step: it ends at ``last``.

    Snapshot times 2^63 steps or more ahead, on one step twice or before ``first``
    (the march's first written step; ``name`` names the march) raise ValueError.
    ``see`` follows one march, and ``record`` returns what it kept.  ``see``
    and ``upcoming`` take O(log S) time for S snapshot steps.
    """

    def __init__(self, cfg: SolverConfig, snapshot_times=(), first: int = 1,
                 name: str = "this march"):
        self.dt, self.tol = cfg.dt, cfg.stationarity_tol
        self.n_steps = self.step(cfg.t_end)
        times = list(snapshot_times)
        for t in times:
            if not abs(t / cfg.dt) < _MAX_STEPS:
                raise ValueError("snapshot_times entries must be below 2^63 steps of dt, got"
                                 f" snapshot_times = {t:g} at dt = {cfg.dt:g}")
        steps = [max(0, self.step(t)) for t in times]
        self.snap_set = frozenset(steps)
        if len(self.snap_set) < len(steps):
            raise ValueError(f"snapshot_times {times} name one step twice (dt = {cfg.dt})")
        if min(steps, default=first) < first:
            raise ValueError(f"snapshot_times {times} name step 0 or earlier, which {name} "
                             f"does not write (dt = {cfg.dt})")
        self.snap_steps = sorted(steps)
        self.last = max([self.n_steps, *steps])
        self.final = self.steps = self.stopped = None
        self.snapshots = []

    def step(self, t: float) -> int:
        """The step nearest time t."""
        return int(round(t / self.dt))

    def upcoming(self, k: int) -> int | None:
        """The next step after k to look at: a snapshot, or n_steps until the final state."""
        i = bisect.bisect_right(self.snap_steps, k)
        later = self.snap_steps[i : i + 1]
        if self.final is None and self.n_steps > k:
            later.append(self.n_steps)
        return min(later, default=None)

    def see(self, k: int, change: float, state) -> int | None:
        """Step k, of relative change ``change``: keep ``state()`` (built at most
        once) as a snapshot and the final state as due.  Returns ``upcoming(k)``."""
        stop = None
        if self.final is None:
            stop = "stationary" if change < self.tol else "t_end" if k >= self.n_steps else None
        if stop or k in self.snap_set:
            kept = state()
            if k in self.snap_set:
                self.snapshots.append(kept)
            if stop:
                self.final, self.steps, self.stopped = kept, k, stop
        return self.upcoming(k)

    def record(self) -> RunRecord:
        return RunRecord(self.final, self.steps, self.snapshots, self.stopped)


# Rows of at least a page of doubles are marched in arrays that start on
# cache lines; on shorter ones a step costs too little to repay the copies.
_ALIGNED_MIN_CELLS = 512


def _line_aligned(shape, dtype=np.float64) -> np.ndarray:
    """
    An uninitialized array whose data begins on a 64-byte cache line, for
    the native kernel: a vector load of a block of cells then splits no
    line, and a row split between two threads at a block edge shares none
    of the lines they write.  numpy aligns an array's data to 16 bytes.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


# The per-row arrays the native kernel reads: march_rows fields in _march.c.
_C_FIELDS = ("ka", "kaB", "inv_den", "inv_r2dr", "a", "P", "aP", "d", "inv_r2g", "floor",
             "inv_kf3", "rf2")


class _Kernel:
    """
    Arrays for stepping a batch of specs on one grid, stacked per row (grid
    arrays too: same-shape operands beat broadcasting on small grids).  Rows
    on the cumprod scan come first; ``rows`` maps them to indices in ``specs``.
    Each row evaluates the single-spec expressions, so it does not depend on
    the rest of the batch.  Every divisor of a step is constant over the
    march, so the step multiplies by its reciprocal, rounded once here:
    ``inv_den``, ``inv_kf3``, ``inv_r2dr``, ``inv_r2g``, and ``aP`` = a / P
    on the scan rows (0 on the others, whose P may underflow to 0).
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
        P = np.cumprod(a, axis=1)
        per_row = {
            "ka": ka, "kaB": ka * B, "inv_den": 1.0 / (1.0 + cfg.dt * ka),
            "inv_kf3": 1.0 / (3.0 * kf * grid.dr), "a": a, "P": P,
            "aP": np.divide(a, P, out=np.zeros_like(a), where=scan[:, None]),
            "inv_r2g": 1.0 / (r * r * g), "floor": np.broadcast_to(-1e-12 * B, ka.shape),
            "rf2": grid.r_edges[1:-1] ** 2, "inv_r2dr": 1.0 / (r * r * grid.dr),
            "d": h * (r * r),
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

    def advance(self, native, Jt, Js, steps: int, with_tags: bool, hold, red, k: int,
                stats: dict | None = None):
        """
        Up to ``steps`` steps of the native kernel from (Jt, Js) at step
        ``k``, written to fresh arrays, so arrays handed out before are
        never overwritten.  The kernel steps each row in blocks of 128
        cells, and each step writes its fields and tags into the other of
        two sets: the fresh arrays and a spare set, allocated here with the
        C view of the rows, once per compaction.  So no step copies its
        fields, and one copy at the end brings them out of the spare set if
        the last step wrote there; every value is computed by the
        operations of the numpy step, in its order.  On rows of at least
        ``_ALIGNED_MIN_CELLS`` cells, those arrays and the per-row ones,
        copied once per compaction, start on cache lines.  The kernel is given
        ``_native.cpus()`` workers: with two or more, and more than one
        step, a row of at least ``MARCH_SPLIT_MIN_CELLS`` cells is stepped
        on two threads, its head on this one and its tail on a helper one
        step behind, with the same bits.  ``hold`` (a ``_Holds``) and
        ``red`` (a ``_Reductions``), each optional, are updated as their
        numpy references would be, and the kernel stops where they ask: at
        a step that ends a hold, or whose sup or change crosses its limit.
        ``stats``, if given, keeps under ``march_workers`` the most threads
        one call ran on.  Returns the steps taken, Jt, Js, the last step's
        tags (None unless ``with_tags``) and whether that step left a
        negative or NaN value.
        """
        from . import _native  # here: importing idsa_lab should not pay for it

        ffi = native.ffi
        empty = _line_aligned if self.n_cells >= _ALIGNED_MIN_CELLS else np.empty
        if self._c_rows is None:  # the C view of the rows, once per compaction
            c = ffi.new("march_rows *")
            c.n_rows, c.n_cells, c.n_scan, c.dt = len(self.rows), self.n_cells, self.n_scan, self.dt
            if empty is _line_aligned:
                for name in _C_FIELDS:
                    rows = empty(getattr(self, name).shape)
                    rows[...] = getattr(self, name)
                    setattr(self, name, rows)
            arrays = [(name, "double[]", np.ascontiguousarray(getattr(self, name), float))
                      for name in _C_FIELDS]
            # The spare fields and tags, which the kernel writes every other step.
            arrays += [(name, "double[]", empty(Jt.shape)) for name in ("Jt_spare", "Js_spare")]
            arrays.append(("tags_spare", "signed char[]", empty(Jt.shape, np.int8)))
            buffers = []
            for name, ctype, array in arrays:
                buf = ffi.from_buffer(ctype, array)
                setattr(c, name, buf)
                buffers.append(buf)  # keeps each array alive while c points into it
            self._c_rows = c, buffers
        Jt_new, Js_new = empty(Jt.shape), empty(Js.shape)
        tags = empty(Jt.shape, np.int8) if with_tags else None
        negative, used = ffi.new("int *"), ffi.new("int *")
        taken = native.lib.march(
            self._c_rows[0], ffi.NULL if red is None else red.c_view(ffi),
            ffi.NULL if hold is None else hold.c_view(ffi),
            ffi.from_buffer("double[]", Jt), ffi.from_buffer("double[]", Js),
            ffi.from_buffer("double[]", Jt_new), ffi.from_buffer("double[]", Js_new),
            ffi.NULL if tags is None else ffi.from_buffer("signed char[]", tags),
            k, steps, _native.cpus(), negative, used,
        )
        if stats is not None:
            stats["march_workers"] = max(stats.get("march_workers", 1), used[0])
        return taken, Jt_new, Js_new, tags, bool(negative[0])

    def sigma(self, Jt: np.ndarray, Js: np.ndarray, with_tags: bool = False):
        """Switched source per row, and the regime tags when asked for."""
        # D[Jt] from face fluxes, zero at r = 0 and at r_max.
        F = np.zeros((len(Jt), self.n_cells + 1))
        F[:, 1:-1] = self.rf2 * (Jt[:, 1:] - Jt[:, :-1]) * self.inv_kf3
        # ka Js - D equals -D + ka Js exactly (IEEE a - b is a + (-b)).
        inner = self.ka * Js - (F[:, 1:] - F[:, :-1]) * self.inv_r2dr
        S = np.minimum(np.maximum(inner, 0.0), self.kaB)
        if not with_tags:
            return S, None
        tags = np.where(
            inner <= 0.0, Regime.REACTION,
            np.where(inner >= self.kaB, Regime.FREE_STREAMING, Regime.DIFFUSION),
        ).astype(np.int8)
        return S, tags

    def trapped_step(self, Jt: np.ndarray, S: np.ndarray) -> np.ndarray:
        return (Jt + self.dt * (self.kaB - S)) * self.inv_den

    def stream(self, S: np.ndarray) -> np.ndarray:
        n = self.n_scan
        Phi = self.P[:n] * np.cumsum(self.d[:n] * S[:n] * self.aP[:n], axis=1)
        if n < len(S):  # the other rows sweep sequentially, one at a time
            sweep = []
            for row in zip(self.a[n:].tolist(), self.d[n:].tolist(), S[n:].tolist()):
                phi = 0.0  # running flux, updated by the comprehension
                sweep.append([phi := (phi + di * si) * ai for ai, di, si in zip(*row)])
            Phi = np.concatenate((Phi, sweep))
        return Phi * self.inv_r2g

    def check(self, values: np.ndarray, bad: np.ndarray, which: str, t: float) -> None:
        """Raise NegativityError at the first row with a ``bad`` cell, naming
        its first NaN, or else its least value."""
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
    Js, 5e-324), whose floor, the smallest double, guards only all-zero
    fields, so that the change does not depend on B's scale.  ``update`` is
    the numpy reference; the native kernel reduces the same values itself
    and returns at a step whose sup exceeds ``bound`` or whose change falls
    below ``stat_tol``.
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
            self.change = _py_max(dJt, dJs) / _py_max(scale, 5e-324)

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows where ``rows`` is False."""
        for name in ("sup", "change", "nonmono", "first_nonmono"):
            setattr(self, name, getattr(self, name)[rows])

    def c_view(self, ffi):
        """The march_reductions the native kernel updates in place."""
        c = ffi.new("march_reductions *")
        c.bound, c.stat_tol, c.mono_tol = self.bound, self.stat_tol, self.mono_tol
        c.mono_pairs = self.mono_pairs
        c.sup, c.change = ffi.from_buffer("double[]", self.sup), ffi.from_buffer("double[]", self.change)
        c.nonmono = ffi.from_buffer("signed char[]", self.nonmono)
        c.first_nonmono = ffi.from_buffer("long long[]", self.first_nonmono)
        return c


# A takeover first seen at t is confirmed once it holds until
# max(_CONFIRM * t, t + _MIN_HOLD).
_CONFIRM = 2.0
_MIN_HOLD = 10.0


class _Holds:
    """
    The spurious sweep's takeover holds, per row: ``since``, the step at
    which the current domination of the cells from ``watch`` on (Jt >
    (Jt + Js) / 2 on each) began, or -1.  A hold from t = since * dt ends,
    confirming the takeover, at the first step k still dominated whose time
    k * dt reaches max(_CONFIRM t, t + _MIN_HOLD).  ``update`` is the numpy
    reference; the native kernel keeps ``since`` itself and returns after
    every step at which a hold ends.
    """

    def __init__(self, n_rows: int, watch: int, dt: float):
        self.watch, self.dt = watch, dt
        self.since = np.full(n_rows, -1, np.int64)

    def update(self, k: int, Jt, Js) -> None:
        """Update the holds after step ``k``, which left (Jt, Js)."""
        out = slice(self.watch, None)
        dominated = (Jt[:, out] > 0.5 * (Jt[:, out] + Js[:, out])).all(axis=1)
        self.since = np.where(dominated, np.where(self.since < 0, k, self.since), -1)

    def ended(self, k: int) -> np.ndarray:
        """The rows whose hold ends at step ``k``, the last one updated."""
        t = self.since * self.dt
        return (self.since >= 0) & (k * self.dt >= np.maximum(_CONFIRM * t, t + _MIN_HOLD))

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows where ``rows`` is False."""
        self.since = self.since[rows]

    def c_view(self, ffi):
        """The march_holds the native kernel updates in place."""
        c = ffi.new("march_holds *")
        c.watch, c.confirm, c.min_hold = self.watch, _CONFIRM, _MIN_HOLD
        c.since = ffi.from_buffer("long long[]", self.since)
        return c


def _py_max(a, b):
    """Python's max(a, b) per element: a unless b > a."""
    return np.where(b > a, b, a)


def _march(kern: _Kernel, observe, *, with_tags: bool = False,
           hold: _Holds | None = None, red: _Reductions | None = None, stats: dict | None = None):
    """
    March every row of ``kern`` from zero data while its observer has steps to see.

    ``observe(k, t, Jt, Js, tags)`` sees the (n_rows, n_cells) fields (tags
    only ``with_tags``) of step 0, zero with REACTION tags, then of later
    steps, and returns ``(done, upcoming)``: None or a mask of rows to
    retire, and the next step it must see, or None once it has none.  ``hold`` and ``red``,
    if given, hold the step's takeover holds and reductions when the
    observer sees it.  The numpy path shows every step.  The native kernel
    shows each ``upcoming`` step, any step at which a row's hold ends and
    any step where ``red`` asks to stop; so an observer must have nothing to
    do at the steps in between.  Both paths compute the same bits, and never
    write to an array already shown.  A step that leaves a value below its
    floor (the trapped component's, or zero for the streaming one) or NaN
    raises NegativityError.  ``stats``, if given, keeps under
    ``march_workers`` the most threads one native call ran on (1 on numpy,
    ``_Kernel.advance``).  Returns the fields once the observer names no
    upcoming step or every row has retired.
    """
    from . import _native  # here: importing idsa_lab should not pay for it

    native = _native.load()
    if stats is not None:
        stats.setdefault("march_workers", 1)
    Jt = np.zeros((len(kern.rows), kern.n_cells))
    Js = np.zeros_like(Jt)
    tags = np.full(Jt.shape, Regime.REACTION, np.int8) if with_tags else None
    k, negative = 0, False
    while True:
        t = k * kern.dt
        if negative:  # name the first row, and its cell, that went negative or NaN
            kern.check(Jt, ~(Jt >= kern.floor), "trapped component", t)
            kern.check(Js, ~(Js >= 0.0), "streaming component", t)
        done, upcoming = observe(k, t, Jt, Js, tags)
        if done is not None and np.count_nonzero(done):
            if done.all():
                break
            kern.compact(~done)
            Jt, Js = Jt[~done], Js[~done]
            for kept in (hold, red):
                if kept is not None:
                    kept.keep(~done)
        if upcoming is None:
            break
        if native is None:
            # One full step: source, trapped update, streaming re-solve.
            S, tags = kern.sigma(Jt, Js, with_tags)
            Jt_old, Js_old = Jt, Js
            Jt, Js = kern.trapped_step(Jt, S), kern.stream(S)
            k, negative = k + 1, True
            if hold is not None:
                hold.update(k, Jt, Js)
            if red is not None:
                red.update(k, Jt_old, Js_old, Jt, Js)
        else:
            taken, Jt, Js, tags, negative = kern.advance(
                native, Jt, Js, max(upcoming - k, 1), with_tags, hold, red, k, stats
            )
            k += taken
    return Jt, Js


def run_to_time(
    spec: ProblemSpec,
    grid: RadialGrid,
    cfg: SolverConfig,
    snapshot_times: tuple = (),
    stats: dict | None = None,
) -> RunRecord:
    """
    March the coupled system from zero initial data and take the snapshots
    and the final state as ``Schedule`` says, with the per-step relative
    change max(|dJt|, |dJs|) / max(|Jt|, |Js|); the march ends at the last
    step the schedule still names.  Each state carries the regime tags of
    the source that produced it (REACTION everywhere at t = 0).  ``stats``
    is ``_march``'s.
    """
    sched = Schedule(cfg, snapshot_times, first=0)
    red = _Reductions(1, stat_tol=cfg.stationarity_tol)

    def observe(k, t, Jt, Js, tags):
        upcoming = sched.see(k, red.change[0], lambda: _make_state(grid, Jt, Js, t, tags))
        if sched.final is not None:  # the kernel returns at a stationary step only until then
            red.stat_tol = 0.0
        return None, upcoming

    _march(_Kernel([spec], grid, cfg), observe, with_tags=True, red=red, stats=stats)
    return sched.record()


def _make_state(grid, Jt, Js, t, tags=None):
    """The state of row 0 of the (n_rows, n_cells) fields, copied."""
    return TwoComponentState(RadialField(grid, Jt[0].copy()), RadialField(grid, Js[0].copy()), t=t,
                             tags=None if tags is None else tags[0].copy())


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
    stats: dict | None = None,
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
    A run whose takeover is not confirmed by step ``Schedule(cfg).n_steps``,
    the step nearest ``cfg.t_end``, is reported censored.
    All eps march as one batch, a row retiring once its record is known.
    ``stats`` is ``_march``'s.
    """
    eps_all = [float(eps) for eps in eps_list]
    for eps in eps_all:
        if not (0.0 < eps < math.inf):
            raise ValueError(f"eps must be positive and finite, got {eps}")
    if not eps_all:
        return []
    specs = [replace(spec_base, kappa_outside=eps) for eps in eps_all]
    kern = _Kernel(specs, grid, cfg, labels=[f"eps = {eps:g}" for eps in eps_all])
    # Centers increase, so the cells r >= R are a suffix of the grid.
    hold = _Holds(len(eps_all), int(np.searchsorted(grid.r_centers, spec_base.R)), cfg.dt)
    records = [None] * len(eps_all)
    last = Schedule(cfg).n_steps  # the one step besides the holds' ends this observer needs

    def observe(k, t, Jt, Js, tags):
        done = hold.ended(k)
        for row in np.flatnonzero(done):
            i = kern.rows[row]
            records[i] = TakeoverRecord(eps_all[i], float(hold.since[row] * cfg.dt), censored=False)
        return done, last if k < last else None  # the rows left at t_end are censored

    _march(kern, observe, hold=hold, stats=stats)
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
    final: TwoComponentState


def run_instability_experiment(
    spec: ProblemSpec,
    grid: RadialGrid,
    cfg: SolverConfig,
    snapshot_times: tuple = (10.0, 50.0, 100.0, 200.0),
    vb_threshold: float = 0.9,
    bound_margin: float = 1e-6,
    stats: dict | None = None,
) -> InstabilityResult:
    """
    Track the coupling instability at the sphere edge.

    Snapshots are taken as ``Schedule`` says; ``final`` is the state of its
    ``last`` step.  Per snapshot: the virtual-boundary radius (largest r
    whose trapped value still exceeds vb_threshold * B, i.e. the edge of the
    intact plateau), whether the trapped profile is non-monotone inside the
    sphere (some discrete forward difference positive with both centers <
    R), and the running sup of Jt + Js.  The run fails hard with UnboundedError if that
    sup ever exceeds B * (1 + bound_margin); the instability is a modeling
    artifact and must stay bounded.  The bound is expected to hold only
    while ``diffusion_number`` is at most 1/2, so the error gives it.
    ``stats`` is ``_march``'s.
    """
    r = grid.r_centers
    sched = Schedule(cfg, snapshot_times)
    # Centers increase, so the pairs with both centers inside R are a prefix.
    red = _Reductions(1, bound=spec.B * (1.0 + bound_margin), mono_tol=1e-10 * spec.B,
                      mono_pairs=int(np.count_nonzero(r[1:] < spec.R)))
    snaps = []

    def observe(k, t, Jt, Js, tags):
        sup = float(red.sup[0])
        if sup > red.bound:
            raise UnboundedError(
                f"sup(Jt + Js) = {sup:.9g} exceeds B(1 + {bound_margin:g}) at t = {t:g}; "
                f"diffusion number dt/(3 kappa dr^2) = {diffusion_number(spec, grid, cfg):.3g}"
            )
        if k in sched.snap_set:
            above = np.nonzero(Jt[0] > vb_threshold * spec.B)[0]
            vb = float(r[above[-1]]) if above.size else 0.0
            snaps.append(InstabilitySnapshot(t, vb, bool(red.nonmono[0]), sup))
        # The bound and the first non-monotone step are the kernel's to watch.
        return None, sched.upcoming(k)

    Jt, Js = _march(_Kernel([spec], grid, cfg), observe, red=red, stats=stats)
    first_bad = int(red.first_nonmono[0])
    return InstabilityResult(
        snapshots=snaps,
        first_nonmonotone_time=first_bad * cfg.dt if first_bad >= 0 else None,
        sup_total=float(red.sup[0]),
        final=_make_state(grid, Jt, Js, sched.last * cfg.dt),
    )
