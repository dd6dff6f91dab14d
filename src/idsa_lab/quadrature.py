"""
Adaptive panel-bisection quadrature, vectorized over a batch of integrals.

Many radii need the same family of angular integrals, so the driver keeps
one work queue of panels for the whole batch and evaluates every active
panel in a single vectorized call.  Each panel carries a fixed-order
Gauss-Legendre estimate; the error indicator is the difference between a
panel's estimate and the sum of its two halves, and panels are bisected
until the per-owner error budget is met.  The integrands here develop
boundary layers of width O(1/(kappa*R)) near mu = 1, which bisection
resolves without any opacity-specific tuning.
"""

from __future__ import annotations

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


class QuadratureError(RuntimeError):
    """
    A batch entry cannot be integrated: a panel misses its tolerance within
    the depth cap, or the integrand gives a non-finite panel estimate.
    """

    def __init__(self, owner: int, message: str):
        self.owner = owner
        super().__init__(message)


def _panel_estimates(f, owners, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = f(owners[:, None], x)
    est = half * (vals @ _WEIGHTS)
    finite = np.isfinite(est)
    if not finite.all():
        # NaN errors never meet a budget, so bisection would double the queue
        # at every level until memory runs out; stop at the first one instead.
        i = int(np.argmin(finite))
        raise QuadratureError(
            int(owners[i]),
            f"quadrature: batch entry {owners[i]} has a non-finite panel estimate ({est[i]})",
        )
    return est


def integrate_batch(f, lo, hi, tol: float = 1e-10, max_depth: int = 40) -> np.ndarray:
    """
    Integrate f over [lo_i, hi_i] for a batch of owners i = 0..n-1.

    Parameters
    ----------
    f : callable
        Vectorized integrand ``f(owner_index, x)``; both arguments are
        arrays of the same shape (owner index broadcast along the nodes).
    lo, hi : array_like
        Integration limits per owner.  hi >= lo required.
    tol : float
        Absolute and relative tolerance: the accepted error per owner is
        max(tol, tol * |integral|), split across panels by width.
    max_depth : int
        Bisection depth cap; exceeding it raises QuadratureError naming
        the worst owner.  A non-finite panel estimate raises it at once.

    Returns
    -------
    np.ndarray of per-owner integral values.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lo and hi must be 1D arrays of equal length")
    if np.any(hi < lo):
        raise ValueError("hi must be >= lo")
    n = lo.size
    span = np.maximum(hi - lo, np.finfo(float).tiny)

    owners = np.arange(n)
    a, b = lo.copy(), hi.copy()
    est = _panel_estimates(f, owners, a, b)
    depth = np.zeros(n, dtype=np.int64)
    accepted = np.zeros(n)

    while owners.size:
        mid = 0.5 * (a + b)
        two_owners = np.concatenate([owners, owners])
        halves = _panel_estimates(
            f, two_owners, np.concatenate([a, mid]), np.concatenate([mid, b])
        )
        refined = halves[: owners.size] + halves[owners.size :]
        err = np.abs(est - refined)

        # Owner-level acceptance: an owner retires once the sum of its panel
        # errors fits the budget.  Clearly-converged panels retire early on a
        # width-proportional budget so the queue stays small; integrands with a
        # sqrt-like endpoint (the grazing-ray edge outside the sphere) shrink
        # their total error geometrically and retire by the sum criterion.
        totals = accepted.copy()
        np.add.at(totals, owners, refined)
        err_sum = np.zeros(n)
        np.add.at(err_sum, owners, err)
        budget = np.maximum(tol, tol * np.abs(totals))
        done = (err_sum[owners] <= budget[owners]) | (
            err <= 0.25 * budget[owners] * (b - a) / span[owners]
        )
        np.add.at(accepted, owners[done], refined[done])

        keep = ~done
        if np.any(depth[keep] + 1 > max_depth):
            worst = np.argmax(np.where(keep, err, -np.inf))
            raise QuadratureError(
                int(owners[worst]),
                f"quadrature did not converge within depth {max_depth}: "
                f"worst batch entry {owners[worst]} has panel error {err[worst]:.3e}",
            )

        owners = np.concatenate([owners[keep], owners[keep]])
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        est = np.concatenate([halves[: keep.size][keep], halves[keep.size :][keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])

    return accepted
