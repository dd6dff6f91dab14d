"""
Domain-split variants: the switch is replaced by an explicit interface.

Both variants evolve only the trapped component, on r < R, with an
implicit (backward Euler) tridiagonal solve, impose Jt = 0 from R outward,
reconstruct the streaming component from the trapped gradient inside, and
extend it outward divergence-free: r^2 g(r) Js constant past R.

* "old": trapped equation keeps the inward advection term (2/3) dJt/dr on
  top of diffusion + reaction; Js = -(2/(3 kappa)) dJt/dr inside, and the
  edge value -(2/(3 kappa)) dJt/dr|_R feeds the outside, uncorrected.
* "new": trapped equation is the plain diffusion limit; Js = C dJt/dr with
  C normalized so the edge value equals the exact J(R) of the
  homogeneous-sphere solution.  The stationary state of this variant has
  the closed form evaluated by ``new_idsa_stationary_closed_form``.

``reconstruct_moments`` turns a state into J, H, K: the trapped component
is isotropic (h = 0, k = 1/3) and the streaming component carries the
opaque-sphere closures of ``sphere.free_streaming_closures``, which a
caller computes once per grid and reuses for every state on it.

Boundary handling: zero flux at r = 0; the Dirichlet face sits at R
snapped to the nearest grid face (choose n_cells so R lands on a face to
avoid O(dr) interface smearing), and both the boundary flux and the edge
gradient use a one-sided second-order stencil through the zero face value.

The tridiagonal systems are solved as LAPACK's dgtsv solves them: the
matrix is factored once (``_Tridiagonal``), with dgtsv's row interchanges,
and each step repeats only dgtsv's right-hand-side work, in the native
module when it can be built and in Python otherwise, with the same bits.
The step matrix I - dt L is factored on the first step of a march, so a
direct stationary solve factors only its own matrix.

A march (``run_to_stationarity``) steps with numpy (``_step``), or with the
native ``reformed_march``, one call from each stop of ``idsa.Schedule`` to
the next.  The kernel does the rest of a step (the right-hand side, the
checks of ``_step`` and the relative change) inside dgtsv's two passes, with
the same operations, so the bits do not change.  It stops before a step that
fails a check, and ``_step`` takes that step again and raises, so both paths
raise the same errors.  The source kappa B is one number, since the kernel
reads no other.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import ProblemSpec, RadialField, RadialGrid
from .idsa import NegativityError, RunRecord, Schedule, SolverConfig, TwoComponentState
from .sphere import (
    MomentTriple,
    _edge_fraction,
    _opaque_geometry,
    _require_bare_sphere,
    free_streaming_flux_ratio,
    special_values,
)


class NormalizationSingularityError(RuntimeError):
    """The trapped edge gradient vanished at time t; the streaming scale is undefined."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"trapped gradient at the interface is zero at t = {t:g}")


def reconstruct_moments(state: TwoComponentState, closures) -> MomentTriple:
    """
    J, H, K of a two-component state: the trapped part isotropic (h = 0,
    k = 1/3), the streaming part closed by ``closures``, the pair (h_s, k_s)
    of ``free_streaming_closures`` at the state's cell centers.
    """
    Jt, Js = state.Jt.values, state.Js.values
    h_s, k_s = closures
    grid = state.Jt.grid
    # (1/3) * Jt, not Jt / 3: the two round differently, and the CSV bytes
    # of solve-old / solve-new are those of the product.
    return MomentTriple(
        J=RadialField(grid, Jt + Js),
        H=RadialField(grid, h_s * Js),
        K=RadialField(grid, (1.0 / 3.0) * Jt + k_s * Js),
    )


def _gtsv_factor(dl: list, d: list, du: list):
    """
    dgtsv's factor pass, in place on the sub-, main and superdiagonal lists;
    returns (fact, swap): each elimination's multiplier and whether it
    interchanged rows.  The reference for ``gtsv_factor`` in ``_march.c``.
    """
    n = len(d)
    fact, swap = [0.0] * (n - 1), [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError(f"singular tridiagonal matrix: zero pivot in row {i + 1}")
            fact[i] = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact[i] * du[i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            f, temp = d[i] / dl[i], d[i + 1]
            fact[i], swap[i] = f, True
            d[i] = dl[i]
            d[i + 1] = du[i] - f * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -f * dl[i]
            du[i] = temp
    if d[n - 1] == 0.0:
        raise ValueError(f"singular tridiagonal matrix: zero pivot in row {n}")
    return fact, swap


def _gtsv_solve(dl, d, du, fact, swap, b: list) -> list:
    """dgtsv's right-hand-side pass, in place on b; the reference for ``gtsv_solve``."""
    n = len(b)
    for i in range(n - 1):
        if swap[i]:
            b[i], b[i + 1] = b[i + 1], b[i] - fact[i] * b[i + 1]
        else:
            b[i + 1] = b[i + 1] - fact[i] * b[i]
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _Tridiagonal:
    """
    The tridiagonal matrix with sub-, main and superdiagonals ``dl`` (n - 1),
    ``d`` (n) and ``du`` (n - 1), factored once as LAPACK's dgtsv factors it
    (what scipy's ``solve_banded((1, 1), ...)`` calls), so that ``solve``
    gives dgtsv's bits with only its right-hand-side work.
    """

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        from . import _native  # here: importing idsa_lab should not pay for it

        n = d.size
        if n == 0 or d.shape != (n,) or not dl.shape == du.shape == (n - 1,):
            raise ValueError(f"diagonals of lengths {dl.shape}, {d.shape}, {du.shape}")
        if not (np.isfinite(dl).all() and np.isfinite(d).all() and np.isfinite(du).all()):
            raise ValueError("tridiagonal matrix has non-finite entries")
        self.n = n
        self._native = _native.load()
        if self._native is None:
            self._factors = [dl.tolist(), d.tolist(), du.tolist()]
            self._factors += _gtsv_factor(*self._factors)
            return
        ffi, lib = self._native.ffi, self._native.lib
        self._factors = [np.array(dl, dtype=float), np.array(d, dtype=float),
                         np.array(du, dtype=float), np.empty(n - 1), np.empty(n - 1, np.int8)]
        self._ptrs = [ffi.from_buffer(t + "[]", a) for t, a in
                      zip(["double"] * 4 + ["signed char"], self._factors)]
        info = lib.gtsv_factor(n, *self._ptrs)
        if info:
            raise ValueError(f"singular tridiagonal matrix: zero pivot in row {info}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution x of A x = b, as a new array."""
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side of shape {b.shape} for {self.n} unknowns")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side has non-finite entries")
        if self._native is None:
            return np.array(_gtsv_solve(*self._factors, b.tolist()))
        x = np.array(b, dtype=float)
        self._native.lib.gtsv_solve(
            x.size, *self._ptrs, self._native.ffi.from_buffer("double[]", x)
        )
        return x


class ReformedScheme:
    """One domain-split variant bound to a scenario, grid and time step."""

    def __init__(self, variant: str, spec: ProblemSpec, grid: RadialGrid,
                 cfg: SolverConfig = SolverConfig()):
        if variant not in ("old", "new"):
            raise ValueError(f"variant must be 'old' or 'new', got {variant!r}")
        _require_bare_sphere(spec, "the domain-split schemes")
        self.variant = variant
        self.spec = spec
        self.grid = grid
        self.cfg = cfg

        dr = grid.dr
        m = int(round(spec.R / dr))
        if m < 2 or m > grid.n_cells:
            raise ValueError(
                f"interface face index {m} out of range; need at least two cells inside R"
            )
        self.m = m
        self.snapped_R = m * dr
        self.kappa_tot = spec.kappa + spec.kappa_s
        self.edge_value = special_values(spec).JR if variant == "new" else None
        # "old" scales the trapped gradient to Js by a constant; "new" by edge_value / grad_face
        self._scale = -2.0 / (3.0 * self.kappa_tot) if variant == "old" else None
        # Outside R the streaming field is the edge value carried outward by
        # the free-streaming closure; its geometry is fixed per grid.
        r_out = grid.r_centers[m:]
        self._stream_denom = 2.0 * r_out**2 * free_streaming_flux_ratio(r_out, spec.R)

        r_in = grid.r_centers[:m]
        faces = grid.r_edges[: m + 1]
        k3 = 3.0 * self.kappa_tot
        a = faces[1:m] ** 2 / (k3 * dr**2 * r_in[: m - 1] ** 2)   # flux to right neighbor
        b = faces[1:m] ** 2 / (k3 * dr**2 * r_in[1:m] ** 2)       # flux from left neighbor
        cR = self.snapped_R**2 / (3.0 * k3 * dr**2 * r_in[-1] ** 2)

        lower = np.zeros(m)
        diag = np.zeros(m)
        upper = np.zeros(m)
        diag[0] -= a[0]
        upper[0] += a[0]
        if m > 2:
            lower[1 : m - 1] += b[: m - 2]
            diag[1 : m - 1] -= a[1:] + b[: m - 2]
            upper[1 : m - 1] += a[1:]
        lower[m - 1] += b[m - 2] + cR
        diag[m - 1] -= b[m - 2] + 9.0 * cR

        if variant == "old":
            w = 2.0 / (3.0 * dr)
            diag[: m - 1] -= w
            upper[: m - 1] += w
            diag[m - 1] -= 2.0 * w
        diag -= spec.kappa

        self._L = (lower, diag, upper)
        # kappa B on every inside cell: one number, since the native march reads one
        self._q = spec.kappa * spec.B

    @functools.cached_property
    def _M(self) -> _Tridiagonal:
        """The step matrix I - dt L, factored when a march first needs it."""
        lower, diag, upper = self._L
        dt = self.cfg.dt
        return _Tridiagonal(-dt * lower[1:], 1.0 - dt * diag, -dt * upper[:-1])

    def _gradient(self, Jt_in: np.ndarray):
        """Second-order trapped gradient at centers, plus the face-R value."""
        m, dr = self.m, self.grid.dr
        g = np.empty(m)
        g[0] = (Jt_in[1] - Jt_in[0]) / (2.0 * dr)
        if m > 2:
            g[1 : m - 1] = (Jt_in[2:] - Jt_in[: m - 2]) / (2.0 * dr)
        g[m - 1] = -(3.0 * Jt_in[m - 1] + Jt_in[m - 2]) / (3.0 * dr)
        g_face = (Jt_in[m - 2] - 9.0 * Jt_in[m - 1]) / (3.0 * dr)
        return g, g_face

    def _streaming(self, Jt_in: np.ndarray, t: float):
        """Js on the inside cells and its edge value; raises on negativity."""
        grad, grad_face = self._gradient(Jt_in)
        B = self.spec.B
        if self.variant == "old":
            scale = self._scale
            edge = scale * grad_face
        else:
            if grad_face == 0.0:
                raise NormalizationSingularityError(t)
            scale = self.edge_value / grad_face
            edge = self.edge_value
        Js_in = scale * grad
        # A 1e-12 B wobble between neighbouring Jt values reaches Js amplified
        # by |scale| / dr; on fine grids that dust alone passes -1e-12 B.
        if np.any(Js_in < -1e-12 * B * max(1.0, abs(scale) / self.grid.dr)):
            i = int(np.argmin(Js_in))
            raise NegativityError("streaming reconstruction", t, i, float(Js_in[i]))
        # Snap roundoff dust only; real negativity was raised above.
        return np.maximum(Js_in, 0.0), edge

    def _assemble_state(self, Jt_in: np.ndarray, t: float) -> TwoComponentState:
        n = self.grid.n_cells
        Jt = np.zeros(n)
        Jt[: self.m] = Jt_in
        Js = np.empty(n)
        Js[: self.m], edge = self._streaming(Jt_in, t)
        Js[self.m :] = edge * self.snapped_R**2 / self._stream_denom
        return TwoComponentState(
            RadialField(self.grid, Jt), RadialField(self.grid, Js), t=t
        )

    @functools.cached_property
    def _native_step(self):
        """
        The native march's view of a step (``reformed_step``) and the buffers
        it points into, or None where the solve runs in Python.
        """
        M = self._M
        if M._native is None:
            return None
        ffi = M._native.ffi
        c = ffi.new("reformed_step *")
        c.m, c.dr = self.m, self.grid.dr
        c.dtq, c.floor = self.cfg.dt * self._q, -1e-12 * self.spec.B
        c.dl, c.d, c.du, c.fact, c.swap = M._ptrs
        if self.variant == "old":
            c.scale = self._scale
        else:
            c.normalize, c.edge = 1, self.edge_value
        c.spare = spare = ffi.from_buffer("double[]", np.empty(self.m))
        return c, spare  # spare keeps its array alive while c points into it

    def _step(self, Jt: np.ndarray, t: float) -> np.ndarray:
        """
        One step from Jt, to time t, in numpy: the trapped update, raising
        if it or its streaming reconstruction is negative.  The reference for
        ``reformed_march`` in ``_march.c``.
        """
        Jt_new = self._M.solve(Jt + self.cfg.dt * self._q)
        if np.any(Jt_new < -1e-12 * self.spec.B):
            i = int(np.argmin(Jt_new))
            raise NegativityError("trapped component", t, i, float(Jt_new[i]))
        self._streaming(Jt_new, t)
        return Jt_new

    def _advance(self, Jt: np.ndarray, k: int, steps: int, stat_tol: float):
        """
        Up to ``steps`` steps from Jt at step k, stopping after a step whose
        relative change max |dJt| / max |Jt| is below ``stat_tol``; returns the
        step reached, its state (a fresh array) and its change (inf where none
        was computed).  Raises at a step that ``_step`` rejects.

        The native kernel takes the steps in one call.  It stops before a step
        that fails a check and returns the state that step started from; the
        step is then taken again by ``_step``, which raises what the check
        found, so both paths raise the same errors.
        """
        change = math.inf
        if self._native_step is not None:
            native, c = self._M._native, self._native_step[0]
            ffi = native.ffi
            out = np.empty(self.m)
            last, failed = ffi.new("double *", change), ffi.new("int *")
            taken = native.lib.reformed_march(
                c, ffi.from_buffer("double[]", Jt), ffi.from_buffer("double[]", out), steps,
                stat_tol, last, failed,
            )
            k, Jt, change = k + taken, out, last[0]
            if not failed[0]:
                return k, Jt, change
            steps = 1
        for _ in range(steps):
            Jt_new = self._step(Jt, (k + 1) * self.cfg.dt)
            if stat_tol > 0.0:  # no change falls below a stat_tol <= 0: none is read
                change = np.max(np.abs(Jt_new - Jt)) / max(np.max(np.abs(Jt_new)), 5e-324)
            k, Jt = k + 1, Jt_new
            if change < stat_tol:
                break
        return k, Jt, change

    def run_to_stationarity(self, snapshot_times=()) -> RunRecord:
        """
        March the m inside cells from zero, checking every step for a negative
        trapped component or streaming reconstruction, and build full states
        only for the snapshots and the final state ``idsa.Schedule`` names,
        with the trapped update's relative change max |dJt| / max |Jt|.  The
        native kernel marches from each stop of the schedule to the next in
        one call.
        """
        dt = self.cfg.dt
        sched = Schedule(self.cfg, snapshot_times)
        Jt = np.zeros(self.m)
        k, upcoming = 0, sched.see(0, math.inf, lambda: self._assemble_state(Jt, 0.0))
        while upcoming is not None:
            # no change is read after the final state, so none stops the march
            stat_tol = self.cfg.stationarity_tol if sched.final is None else 0.0
            k, Jt, change = self._advance(Jt, k, upcoming - k, stat_tol)
            upcoming = sched.see(k, change, lambda: self._assemble_state(Jt, k * dt))
        return sched.record()

    def stationary_direct(self) -> TwoComponentState:
        """The exact stationary state: one direct solve of L Jt = -q, no march."""
        lower, diag, upper = self._L
        Jt = _Tridiagonal(-lower[1:], -diag, -upper[:-1]).solve(np.full(self.m, self._q))
        return self._assemble_state(Jt, np.inf)


def _sinh_ratio(x: np.ndarray, X: float) -> np.ndarray:
    """(X/x) * sinh(x)/sinh(X), evaluated without large exponentials."""
    num = -np.expm1(-2.0 * x)
    den = -np.expm1(-2.0 * X)
    return (X / x) * np.exp(x - X) * num / den


def _edge_bracket(x: np.ndarray, X: float) -> np.ndarray:
    """(sinh(x) - x cosh(x)) / (x^2 sinh(X)), stable for small and large x."""
    small = x < 0.05
    xs = np.where(small, 1.0, x)  # placeholder to keep the general branch finite
    general = (
        np.exp(xs - X)
        * ((-np.expm1(-2.0 * xs)) - xs * (1.0 + np.exp(-2.0 * xs)))
        / (xs**2 * -np.expm1(-2.0 * X))
    )
    inv_sinh_X = 2.0 * np.exp(-X) / -np.expm1(-2.0 * X)
    series = -(x / 3.0) * (1.0 + x**2 / 10.0 + x**4 / 280.0) * inv_sinh_X
    return np.where(small, series, general)


def _edge_constants(kap: float, R: float) -> tuple[float, float]:
    """
    q of the edge value J(R) = B q / 2 (``sphere._edge_fraction``), and
    C = R q / (2 (1 - X coth X)), X = sqrt3 kR, which scales the inside Js to
    meet it.  Below X = 0.05 the difference cancels, so its Taylor series is
    summed: 1 - X coth X = -(X^2/3) (1 - X^2/15 + 2 X^4/315 - X^6/1575 +
    2 X^8/31185).
    """
    q = _edge_fraction(kap, R)
    X = np.sqrt(3.0) * kap * R
    if X >= 0.05:
        X_over_tanh = X * (1.0 + np.exp(-2.0 * X)) / -np.expm1(-2.0 * X)
        return q, 0.5 * R * q / (1.0 - X_over_tanh)
    s = X * X
    series = 1.0 - s / 15.0 + 2.0 * s**2 / 315.0 - s**3 / 1575.0 + 2.0 * s**4 / 31185.0
    return q, 0.5 * R * q / (-(s / 3.0) * series)


def new_idsa_stationary_closed_form(grid: RadialGrid, spec: ProblemSpec) -> TwoComponentState:
    """
    Closed-form stationary state of the "new" variant.

    Inside: Jt = B (1 - (R/r) sinh(sqrt3 k r)/sinh(sqrt3 k R)) and
    Js = C dJt/dr with the normalization constant chosen so Js(R) equals the
    exact edge value; outside: Jt = 0 and the divergence-free extension.
    All hyperbolics are evaluated in decaying-exponential form so extreme
    kappa*R cannot overflow.
    """
    _require_bare_sphere(spec, "the closed-form stationary state")
    B, R, kap = spec.B, spec.R, spec.kappa
    X = np.sqrt(3.0) * kap * R
    q, C = _edge_constants(kap, R)
    edge = 0.5 * B * q

    r = grid.r_centers
    out, _, s0 = _opaque_geometry(r, R)
    inside = ~out
    Jt = np.zeros(grid.n_cells)
    Js = np.empty(grid.n_cells)

    x = np.sqrt(3.0) * kap * r[inside]
    Jt[inside] = B * (1.0 - _sinh_ratio(x, X))
    Js[inside] = C * 3.0 * kap**2 * B * R * _edge_bracket(x, X)
    Js[out] = edge * (1.0 - s0[out])
    return TwoComponentState(RadialField(grid, Jt), RadialField(grid, Js), t=np.inf)


def err0(kappa_R):
    """
    Closed-form relative error of the "new" stationary state at r = 0,
    (X / sinh(X) - exp(-kR)) / (1 - exp(-kR)), X = sqrt3 kR.
    Vanishes for large kappa*R; order one when the sphere is translucent,
    and 1 - kR/2 + O(kR^2) as kR -> 0.  Below kR = 0.5 the numerator
    cancels, so X / sinh(X) is written 1 / (1 + u), u = sinh(X)/X - 1 =
    sum_k>=1 X^2k / (2k+1)!, its Taylor series summed, and
    err0 = 1 - u / ((1 + u) (1 - exp(-kR))).
    """
    x = np.asarray(kappa_R, dtype=float)
    bad = x[~((0 < x) & (x < np.inf))]
    if bad.size:
        raise ValueError(f"kappa_R must be positive and finite, got kappa_R = {bad[0]:g}")
    X = np.sqrt(3.0) * x
    ratio = 2.0 * X * np.exp(-X) / -np.expm1(-2.0 * X)
    small = x < 0.5
    X2 = np.where(small, X * X, 0.0)
    u = sum(X2**k / math.factorial(2 * k + 1) for k in range(10, 0, -1))
    out = np.where(small, 1.0 - u / ((1.0 + u) * -np.expm1(-x)),
                   (ratio - np.exp(-x)) / -np.expm1(-x))
    return out if out.ndim else float(out)
