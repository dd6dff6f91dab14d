"""
Exact solution of the stationary homogeneous-sphere transport problem.

A sphere of radius R with constant absorption opacity kappa and constant
equilibrium level B, vacuum outside, admits a closed-form distribution

    f(r, mu) = B * (1 - exp(-kappa * s(r, mu)))

where s is the chord length of the backward ray inside the sphere.  Its
first three angular moments J, H, K follow by one-dimensional integrals
over mu, which this module evaluates with adaptive quadrature.  One
vector-valued integrand per radius yields all three, so the geometry
factor and the exponentials are computed once per node, and a radius
retires only when all three meet the tolerance.  These profiles are the
ground truth every solver in the package is tested against, together
with their infinite-opacity limits and the geometric flux factors they
induce.

Overflow control: the inside-sphere integrands combine cosh/sinh with the
exponential as (exp(k*(r*mu - R*G)) +/- exp(-k*(r*mu + R*G))) / 2.  The
first exponent is negative for r < R (r*mu < R*G there) and the second is
always negative, so nothing overflows even at kappa*R of several hundred.

Each integrand is written here once in numpy, one ufunc per operation, and
once in C (``panel_estimates`` in ``_march.c``) with the same operations in
the same order.  exp is the lab's own on both paths: ``_exp`` here and
``fixed_exp`` there evaluate the same reduction and polynomial, and every
operation, the panel sums' too, is correctly rounded, so the oracle's bits
do not depend on numpy's SIMD dispatch.  ``_native.load`` runs the whole
quadrature in C (``oracle_integrate``) whenever the module can be built,
its blocks on every CPU the process may use, and ``integrate_batch`` over
the numpy integrands otherwise, with the same bits, failures and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ProblemSpec, RadialField, RadialGrid
from . import quadrature
from .quadrature import (
    _NODES, _WEIGHTS, QuadratureError, _count, _non_finite, _too_deep, _too_many, integrate_batch,
)


@dataclass(eq=False)
class MomentTriple:
    """Zeroth/first/second angular moments (energy density, flux, pressure)."""

    J: RadialField
    H: RadialField
    K: RadialField

    def flux_factors(self) -> "FluxFactors":
        """Flux ratio h = H/J and variable Eddington factor k = K/J."""
        J = self.J.values
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(J != 0.0, self.H.values / J, np.nan)
            k = np.where(J != 0.0, self.K.values / J, np.nan)
        grid = self.J.grid
        return FluxFactors(RadialField(grid, h), RadialField(grid, k))


@dataclass(eq=False)
class FluxFactors:
    h: RadialField
    k: RadialField


@dataclass(frozen=True)
class SpecialValues:
    """Closed-form boundary values of the exact moments."""

    J0: float
    JR: float
    H0: float
    HR: float


class NoNeutrinosphereError(ValueError):
    """Optical depth never reaches 2/3, so no neutrinosphere radius exists."""


def _require_bare_sphere(spec: ProblemSpec, what: str) -> None:
    if not spec.is_bare_sphere:
        raise ValueError(
            f"{what} exists only for the bare step profile "
            "(kappa_outside = 0 and kappa_s = 0)"
        )


def _opaque_geometry(r, R: float):
    """
    The opaque-sphere geometry at radii r: the mask r >= R, ratio2 = (R/r)^2
    and s0 = sqrt(1 - ratio2) there, with ratio2 = 0 and s0 = 1 inside.
    The divisor is guarded, so r = 0 neither warns nor yields inf.
    """
    r = np.asarray(r, dtype=float)
    out = r >= R
    ratio2 = np.where(out, (R / np.where(out, r, R)) ** 2, 0.0)
    return out, ratio2, np.sqrt(1.0 - ratio2)


def exact_distribution(r, mu, spec: ProblemSpec):
    """
    Stationary distribution f(r, mu) = B (1 - exp(-kappa s)); zero outside
    the admissible cone for r >= R (no backward ray through the sphere).
    """
    _require_bare_sphere(spec, "the exact distribution")
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    r_b, mu_b = np.broadcast_arrays(r, mu)
    R, kap, B = spec.R, spec.kappa, spec.B

    with np.errstate(invalid="ignore"):
        rad = 1.0 - (r_b / R) ** 2 * (1.0 - mu_b**2)
    hits = rad > 0.0
    G = np.sqrt(np.where(hits, rad, 0.0))
    s = np.where(r_b < R, r_b * mu_b + R * G, 2.0 * R * G)
    f = np.where(hits | (r_b < R), B * -np.expm1(-kap * s), 0.0)
    return f if f.ndim else float(f)


# fixed_exp's constants (_march.c): ln2 split so that k ln2_hi is exact,
# and q's coefficients, highest degree first.
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_LN2_HI = float.fromhex("0x1.62e42feep-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_EXP_SHIFT = float.fromhex("0x1.8p52")
_EXP_SHIFT_BITS = int(np.float64(_EXP_SHIFT).view(np.uint64))
_EXP_Q = tuple(float.fromhex(h) for h in (
    "0x1.1f72fc730fcb1p-29", "0x1.af4ddd849007ep-26", "0x1.27e4db67b42e0p-22",
    "0x1.71de023756530p-19", "0x1.a01a01a6d7808p-16", "0x1.a01a01abe62ddp-13",
    "0x1.6c16c16c162d6p-10", "0x1.11111111100dfp-7", "0x1.5555555555556p-5",
    "0x1.5555555555557p-3", "0x1p-1",
))


# Elements of x per chunk of _exp, whose six buffers then take 3 MB at most.
# A level-0 block of the oracle, 3 * 1024 panels of 15 nodes, is one chunk:
# each chunk costs some 40 ufunc calls, and at 16384 elements the numpy
# oracle took 0.052 s per kappa at 19998 cells against 0.036 s at 65536.
_EXP_CHUNK = 65536


def _exp(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """
    exp(x) into ``out`` (which may be x), as ``fixed_exp`` in ``_march.c``
    computes it, one ufunc per operation in its order: each is correctly
    rounded, so the bits are C's, under any SIMD dispatch.  At most 0.87 ulp
    from exp, measured.  x is taken in chunks of rows (its first axis), each
    through the same six buffers, so that none of its some 40 passes
    allocates.
    """
    step = max(1, _EXP_CHUNK // max(1, int(np.prod(x.shape[1:]))))
    buf = np.empty((6, min(step, len(x)), *x.shape[1:]))
    below = np.empty(buf.shape[1:], bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(x), step):
            n = min(step, len(x) - i)
            xc, t, k, r_hi, r, q = buf[:, :n]
            np.clip(x[i : i + n], -746.0, 710.0, out=xc)
            np.multiply(xc, _INV_LN2, out=t)  # k = rint(x / ln2), by the shift
            t += _EXP_SHIFT
            np.subtract(t, _EXP_SHIFT, out=k)
            np.multiply(k, _LN2_HI, out=r_hi)
            np.subtract(xc, r_hi, out=r_hi)
            r_lo = np.multiply(k, _LN2_LO, out=xc)
            np.subtract(r_hi, r_lo, out=r)
            np.multiply(r, _EXP_Q[0], out=q)  # q = ((c0 r + c1) r + ...) r + c10
            for c in _EXP_Q[1:-1]:
                q += c
                q *= r
            q += _EXP_Q[-1]
            # y = 1 + (r_hi - (r_lo - r^2 q))
            y = np.multiply(r, r, out=r)
            y *= q
            np.subtract(r_lo, y, out=y)
            np.subtract(r_hi, y, out=y)
            y += 1.0
            # times 2^a 2^b, a = floor(k / 2), b = k - a, from t's bits:
            # u = k + 2048, h = a + 1024
            u = t.view(np.uint64)
            u -= _EXP_SHIFT_BITS - 2048
            h = np.right_shift(u, 1, out=r_hi.view(np.uint64))
            b = np.subtract(u, h, out=u)
            b -= 1
            b <<= 52
            h -= 1
            h <<= 52
            np.multiply(y, h.view(np.float64), out=y)
            scale_b = b.view(np.float64)
            np.copyto(scale_b, 0.0, where=np.less(k, -1075.0, out=below[:n]))  # exp rounds to 0
            np.multiply(y, scale_b, out=out[i : i + n])
    return out


def _integrals(f, lo, hi, tol: float, stats, inside: bool, R: float = 0.0, kappa: float = 0.0,
               r=None, rate=None, mu0_sq=None):
    """
    ``integrate_batch(f, lo, hi, tol, stats)``, shape (3, n), run whole by
    the native ``oracle_integrate`` where the module can be built, its
    blocks on up to ``_native.cpus()`` threads (the bits do not depend on how
    many).  The integrand's arrays are indexed by owner: ``r`` inside,
    ``rate`` and ``mu0_sq`` outside.
    """
    from . import _native  # here: importing idsa_lab should not pay for it

    native = _native.load()
    if native is None:
        return integrate_batch(f, lo, hi, tol=tol, stats=stats)
    lib, ptr = native.lib, _native.ptr
    g = _native.struct("oracle_integrand", inside=inside, node=_NODES, weight=_WEIGHTS, r=r,
                       rate=rate, mu0_sq=mu0_sq, R=R, kappa=kappa)
    out = np.empty((3, lo.size))
    st = native.ffi.new("oracle_status *")
    lib.oracle_integrate(
        g[0], lo.size, ptr(lo), ptr(hi), tol, quadrature._BLOCK, quadrature._MAX_DEPTH,
        quadrature._MAX_LIVE_PANELS, _native.cpus(), ptr(out), st,
    )
    _count(stats, st.panels, st.max_depth, st.max_live, st.workers)
    if st.kind == lib.ORACLE_NON_FINITE:
        raise _non_finite(st.owner, st.value)
    if st.kind == lib.ORACLE_TOO_DEEP:
        raise _too_deep(st.owner, st.value)
    if st.kind == lib.ORACLE_TOO_MANY:
        raise _too_many(st.owner, st.live, st.depth, st.held, tol)
    if st.kind == lib.ORACLE_NO_MEMORY:
        raise MemoryError("the native oracle could not allocate its panel buffers")
    return out


def _inside_integrals(r_in: np.ndarray, kap: float, R: float, tol: float, stats=None):
    """
    The three mu-integrals of the inside-sphere moment formulas, as one
    vector-valued integrand: G and both exponentials are computed once per
    node and shared by the three moments.
    """

    def f(idx, mu):
        r = r_in[idx]
        # One ufunc per operation of the closed form, in place in out and in
        # its order: a reordered operation moves the oracle's bits.
        out = np.empty((3,) + mu.shape)
        ep, em, RG = out
        # R * G with G = sqrt(max(0, 1 - (r/R)^2 * (1 - mu^2)))
        np.square(mu, out=RG)
        np.subtract(1.0, RG, out=RG)
        np.multiply((r / R) ** 2, RG, out=RG)
        np.subtract(1.0, RG, out=RG)
        np.clip(RG, 0.0, None, out=RG)
        np.sqrt(RG, out=RG)
        np.multiply(R, RG, out=RG)
        # ep = exp(kap * (r*mu - R*G)), em = exp(-kap * (r*mu + R*G))
        rmu = r * mu
        np.subtract(rmu, RG, out=ep)
        np.multiply(kap, ep, out=ep)
        _exp(ep, out=ep)
        np.add(rmu, RG, out=em)
        np.multiply(-kap, em, out=em)
        _exp(em, out=em)
        # even = (ep + em) / 2, then the integrands even, mu * (ep - em) / 2
        # and mu^2 * even
        odd = np.subtract(ep, em, out=rmu)
        np.multiply(0.5, odd, out=odd)
        even = np.add(ep, em, out=out[0])
        np.multiply(0.5, even, out=even)
        np.multiply(mu, odd, out=out[1])
        np.square(mu, out=out[2])
        np.multiply(out[2], even, out=out[2])
        return out

    return _integrals(f, np.zeros(r_in.size), np.ones(r_in.size), tol, stats, True, R, kap, r=r_in)


def _outside_integrals(r_out: np.ndarray, mu0: np.ndarray, kap: float, R: float, tol: float,
                       stats=None):
    """
    Exponential-weight integrals over the admissible cone mu > mu0 of each
    radius, computed in the substituted variable v = sqrt(mu^2 - mu0^2),
    i.e. G = (r/R) v.  The substitution removes the sqrt behavior of G at
    the cone edge and turns the large-kappa boundary layer into a plain
    exponential at v = 0, which is additionally seeded with its own panel
    so no spike goes unsampled.
    The pieces [0, w] and [w, vmax] of every radius form one batch of 2n
    owners, and the three moments one vector-valued integrand.
    """
    n = r_out.size
    vmax = R / r_out
    w = np.minimum(8.0 / (kap * r_out), 0.5 * vmax)
    rate2 = -2.0 * kap * np.tile(r_out, 2)
    mu0_sq2 = np.tile(mu0**2, 2)

    def f(idx, v):
        # e = exp(-2 kap r v), mu = sqrt(mu0^2 + v^2); integrands v e / mu,
        # v e and mu v e, in place in out
        out = np.empty((3,) + v.shape)
        e, ve, mu = out
        np.multiply(rate2[idx], v, out=e)
        _exp(e, out=e)
        np.multiply(v, v, out=mu)
        np.add(mu0_sq2[idx], mu, out=mu)
        np.sqrt(mu, out=mu)
        np.multiply(v, e, out=ve)
        np.divide(ve, mu, out=out[0])
        np.multiply(mu, ve, out=out[2])
        return out

    parts = _integrals(f, np.concatenate([np.zeros(n), w]), np.concatenate([w, vmax]), tol, stats,
                       False, rate=rate2, mu0_sq=mu0_sq2)
    return parts[:, :n] + parts[:, n:]


def moments_at(radii: np.ndarray, spec: ProblemSpec, tol: float = 1e-10,
               stats: dict | None = None):
    """
    Exact J, H, K at arbitrary radii by adaptive quadrature.

    Returns three arrays aligned with ``radii``.  Radii equal to R are
    classified with the r >= R branch (both branches agree there).  A
    ``tol`` near double-precision roundoff may be unattainable for radii
    close to R at large kappa*R; the quadrature then raises
    QuadratureError at its live-panel cap, naming the radius by its index
    in ``radii``.  A radius that is negative or not finite raises
    ValueError naming its index.  ``stats``, if given, counts the
    quadrature's work (``quadrature._count``).
    """
    _require_bare_sphere(spec, "the exact moments")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got tol = {tol:g}")
    radii = np.asarray(radii, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii >= 0.0)))
    if bad.size:
        raise ValueError(
            f"radii[{bad[0]}] = {float(radii.flat[bad[0]])!r}: a radius must be finite and non-negative"
        )
    R, kap, B = spec.R, spec.kappa, spec.B
    J = np.empty(radii.size)
    H = np.empty(radii.size)
    K = np.empty(radii.size)

    inside = radii < R
    batch = inside  # the radii of the batch being integrated
    try:
        if np.any(inside):
            r_in = radii[inside]
            i0, i1, i2 = _inside_integrals(r_in, kap, R, tol, stats)
            J[inside] = B * (1.0 - i0)
            H[inside] = B * i1
            K[inside] = B * (1.0 / 3.0 - i2)
        batch = ~inside
        if np.any(batch):
            r_out = radii[batch]
            _, ratio2, mu0 = _opaque_geometry(r_out, R)
            e0, e1, e2 = _outside_integrals(r_out, mu0, kap, R, tol, stats)
            J[batch] = 0.5 * B * (1.0 - mu0 - e0)
            H[batch] = 0.5 * B * (0.5 * ratio2 - e1)
            # (1 - ratio2)^1.5 as (1 - ratio2) mu0: numpy's power rounds by its dispatch
            K[batch] = B / 6.0 * (1.0 - (1.0 - ratio2) * mu0 - 3.0 * e2)
    except QuadratureError as exc:
        # A batch holds one owner per radius of its n, or, outside, two pieces
        # per radius, owners j and n + j: name the radius by its index in radii.
        i = int(np.flatnonzero(batch)[exc.owner % np.count_nonzero(batch)])
        named = f"radius radii[{i}] = {float(radii.flat[i])!r}"
        raise QuadratureError(i, str(exc).replace(f"batch entry {exc.owner}", named)) from exc
    return J, H, K


def exact_moments(grid: RadialGrid, spec: ProblemSpec, tol: float = 1e-10,
                  stats: dict | None = None) -> MomentTriple:
    """Exact moments sampled at every cell center of ``grid``."""
    J, H, K = moments_at(grid.r_centers, spec, tol, stats)
    return MomentTriple(
        J=RadialField(grid, J), H=RadialField(grid, H), K=RadialField(grid, K)
    )


def _edge_fraction(kap: float, R: float) -> float:
    """q = 1 - (1 - exp(-x)) / x, x = 2 kappa R, so that J(R) = B q / 2; below
    x = 0.05, where that cancels, q = sum_n>=1 (-1)^(n+1) x^n / (n+1)!."""
    x = 2.0 * kap * R
    if x >= 0.05:
        return 1.0 + np.expm1(-x) / x
    return sum((-1) ** (n + 1) * x**n / math.factorial(n + 1) for n in range(10, 0, -1))


def special_values(spec: ProblemSpec) -> SpecialValues:
    """
    Closed-form J(0), J(R), H(0), H(R) of the exact solution.  Below x = 2 kappa R
    = 0.05 H(R) = (B/2) sum_n>=1 (-1)^(n+1) (n+1) x^n / (n+2)!, since its closed
    form cancels (to about 3e-12 relative just above).
    """
    _require_bare_sphere(spec, "the closed-form boundary values")
    B, kap, R = spec.B, spec.kappa, spec.R
    x = 2.0 * kap * R
    if x >= 0.05:
        HR = 0.5 * B * (0.5 + np.exp(-x) * (1.0 / x + 1.0 / x**2) - 1.0 / x**2)
    else:
        HR = 0.5 * B * sum((-1) ** (n + 1) * (n + 1) * x**n / math.factorial(n + 2)
                           for n in range(10, 0, -1))
    return SpecialValues(J0=float(B * -np.expm1(-kap * R)),
                         JR=float(0.5 * B * _edge_fraction(kap, R)), H0=0.0, HR=float(HR))


def limit_moments_infinite_kappa(grid: RadialGrid, R: float, B: float) -> MomentTriple:
    """Piecewise moments of the infinitely opaque sphere (kappa -> infinity)."""
    out, ratio2, s0 = _opaque_geometry(grid.r_centers, R)
    J = np.where(out, 0.5 * B * (1.0 - s0), B)
    H = np.where(out, 0.25 * B * ratio2, 0.0)
    K = np.where(out, B / 6.0 * (1.0 - (1.0 - ratio2) ** 1.5), B / 3.0)
    return MomentTriple(
        J=RadialField(grid, J), H=RadialField(grid, H), K=RadialField(grid, K)
    )


def free_streaming_closures(r, R: float):
    """
    The closures of a sphere-fed streaming field at radii r: the flux ratio
    h_s = (1 + s0)/2 and Eddington factor k_s = (2 - (R/r)^2 + s0)/3, with
    s0 = sqrt(1 - (R/r)^2), of the infinitely opaque sphere outside R;
    1/2 and 1/3 inside.  h_s tends to 1 and k_s to 1 far away.
    """
    out, ratio2, s0 = _opaque_geometry(r, R)
    h = np.where(out, 0.5 * (1.0 + s0), 0.5)
    k = np.where(out, (2.0 - ratio2 + s0) / 3.0, 1.0 / 3.0)
    return h, k


def flux_factors_infinite(grid: RadialGrid, R: float) -> FluxFactors:
    """Flux ratio and Eddington factor of the infinitely opaque sphere."""
    r = grid.r_centers
    h, k = free_streaming_closures(r, R)
    return FluxFactors(h=RadialField(grid, np.where(r >= R, h, 0.0)), k=RadialField(grid, k))


def free_streaming_flux_ratio(r, R: float):
    """The flux ratio h_s of ``free_streaming_closures``, a float for a scalar r."""
    g = free_streaming_closures(r, R)[0]
    return g if g.ndim else float(g)


def neutrinosphere_radius(spec: ProblemSpec) -> float:
    """
    Radius where the outward optical depth of the step profile reaches 2/3:
    R - 2/(3 kappa).  Defined only when kappa * R > 2/3.
    """
    _require_bare_sphere(spec, "the neutrinosphere radius")
    if spec.kappa * spec.R <= 2.0 / 3.0:
        raise NoNeutrinosphereError(
            f"optical depth kappa*R = {spec.kappa * spec.R:g} never reaches 2/3"
        )
    return spec.R - 2.0 / (3.0 * spec.kappa)
