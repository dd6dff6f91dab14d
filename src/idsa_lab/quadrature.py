"""
Adaptive panel-bisection quadrature, vectorized over a batch of integrals.

Many radii need the same family of angular integrals, so the driver keeps
one work queue of panels per block of owners and evaluates every active
panel of the block in a single vectorized call.  Each panel carries a
fixed-order Gauss-Legendre estimate; the error indicator is the difference
between a panel's estimate and the sum of its two halves, and panels are
bisected until the per-owner error budget is met.  Level 0 is one call per
block, holding every owner's whole panel and both its halves; most owners
retire there, and each deeper level adds one call for the halves of the
panels still live.  The integrands here develop boundary layers of width
O(1/(kappa*R)) near mu = 1, which bisection resolves without any
opacity-specific tuning.  Level 0 can accept a layer narrower than a half
panel's nodes, since the whole panel and both halves then miss it alike,
which is a limit for other integrands and not for the oracle's: its
outside integrals give their edge layer a panel of its own, and its inside
ones bisect into theirs just inside R (``test_sphere.py`` checks both
against mpmath).

Owners are independent, so the batch is worked through in blocks of
``_BLOCK`` owners: every per-panel temporary then stays cache-sized.  An
integrand may be vector-valued, giving several integrals of one owner
(e.g. the J, H and K moments of one radius) from shared per-node work; an
owner then retires only once every component meets its own budget.  A
block whose queue outgrows ``_MAX_LIVE_PANELS`` raises QuadratureError
instead of doubling until memory runs out, which is what a tolerance below
roundoff does.

An owner's value does not depend on its batch or on ``_BLOCK``.  A panel
estimate weighs the panel's nodes row by row in node order, one correctly
rounded product and one add per node, then scales by the half-width: no
BLAS product (which rounds a row by the row count of its call) and no
reduction in an order of numpy's own.  An owner's panels, their bisection
and its running sums follow from its own values alone.  So for an
integrand that computes each node from its owner and x alone, an owner
gets the same bits by itself, in any batch and at any offset.

The exact sphere's oracle runs this algorithm whole in C
(``oracle_integrate`` in ``_march.c``; ``sphere`` says how), with this
module's results, failures and counts (``_count``) for the same
integrands; the messages of its failures are built here.
"""

from __future__ import annotations

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# Owners integrated together.  Level 0 holds 3 * _BLOCK panels: a
# (3 * _BLOCK, 15) array of doubles is 369 kB, and the oracle's three
# components of them 1.1 MB, within a 2 MB-per-core L2.  Larger blocks mean
# fewer calls, each with its fixed Python cost.  The native oracle runs one
# block per worker thread at a time, each in its own slice of the call's
# memory, so what a block holds is held once per worker.
_BLOCK = 1024
# Ceiling on the panels one block may queue for bisection, 4x the largest
# queue of any oracle run that converges (2048 panels, over kappa 0.01 to 1000
# at R = 6, tol 1e-10 to 1e-15, 2000 and 19998 cells, in blocks of 1024).  The
# runs that do not converge are owners just inside R bisecting every panel at
# every level, at a tolerance below roundoff; they are the same runs in blocks
# of 256 and of 1024.  With _BLOCK it sizes the native oracle's memory, which
# a call allocates once: per worker, max(3 * _BLOCK, 2 * _MAX_LIVE_PANELS)
# panels evaluated and max(_BLOCK, _MAX_LIVE_PANELS) queued, about 1.9 MB
# (touched only as far as a level reaches), and a call holds up to one
# worker's worth per CPU.
_MAX_LIVE_PANELS = 8192
# Bisection depth cap: an owner still live past it raises QuadratureError.
_MAX_DEPTH = 40
_TINY = np.finfo(float).tiny


class QuadratureError(RuntimeError):
    """
    A batch entry cannot be integrated: a panel misses its tolerance within
    ``_MAX_DEPTH`` bisections, the integrand gives a non-finite estimate, or
    the entry's block queues more than ``_MAX_LIVE_PANELS`` panels.
    ``owner`` is the entry's index in the whole batch.
    """

    def __init__(self, owner: int, message: str):
        self.owner = owner
        super().__init__(message)


def _count(stats: dict | None, panels: int, depth: int, live: int, workers: int = 1) -> None:
    """
    Add work to ``stats``, the counts of the ``integrate_batch`` calls it
    is handed to (None: count nothing): ``panels``, the panel estimates
    computed; ``max_depth``, the deepest level of bisection reached;
    ``max_live_panels``, the most panels one block queued past level 0
    (what ``_MAX_LIVE_PANELS`` bounds), 0 where every owner retires at
    level 0, as ``max_depth`` is; and ``workers``, the most threads one
    call integrated its blocks on (1 here; the native oracle may run more,
    with the same three counts).
    """
    if stats is not None:
        stats["panels"] = stats.get("panels", 0) + panels
        stats["max_depth"] = max(stats.get("max_depth", 0), depth)
        stats["max_live_panels"] = max(stats.get("max_live_panels", 0), live)
        stats["workers"] = max(stats.get("workers", 0), workers)


# The failures, as both integrate_batch and the native oracle report them.
def _non_finite(owner: int, value: float) -> QuadratureError:
    return QuadratureError(
        owner, f"quadrature: batch entry {owner} has a non-finite panel estimate ({value})"
    )


def _too_deep(owner: int, err: float) -> QuadratureError:
    return QuadratureError(
        owner,
        f"quadrature did not converge within depth {_MAX_DEPTH}: "
        f"worst batch entry {owner} has panel error {err:.3e}",
    )


def _too_many(owner: int, live: int, depth: int, held: int, tol: float) -> QuadratureError:
    return QuadratureError(
        owner,
        f"quadrature: {live} live panels at depth {depth} exceed the cap of "
        f"{_MAX_LIVE_PANELS}; batch entry {owner} holds {held} "
        f"of them (is the tolerance {tol:g} below roundoff?)",
    )


def _panel_estimates(f, owners, a, b):
    """
    Gauss-Legendre estimates of f, shape (n_panels,) or (n_components,
    n_panels).  Each row is weighed alone, in node order, so its bits do
    not depend on the other rows.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = f(owners[:, None], x)
    est = vals[..., 0] * _WEIGHTS[0]
    for j in range(1, _NODES.size):
        est += vals[..., j] * _WEIGHTS[j]
    est *= half
    finite = np.isfinite(est)
    if not finite.all():
        # NaN errors never meet a budget, so bisection would double the queue
        # at every level until memory runs out; stop at the first one instead.
        finite = np.atleast_2d(finite)
        i = int(np.argmin(finite.all(axis=0)))
        raise _non_finite(int(owners[i]), np.atleast_2d(est)[:, i][~finite[:, i]][0])
    return est


def _retired(err, err_sum, totals, width, span, tol: float) -> np.ndarray:
    """
    Which live panels retire, given each panel's error and width and its
    owner's error sum, integral and span.  An owner retires once the
    sum of its panel errors fits the budget.  Clearly-converged panels
    retire early on a width-proportional budget so the queue stays small;
    integrands with a sqrt-like endpoint (the grazing-ray edge outside the
    sphere) shrink their total error geometrically and retire by the sum
    criterion.  Each component is judged on its own budget; a panel retires
    once every component passes.
    """
    budget = np.maximum(tol, tol * np.abs(totals))
    return ((err_sum <= budget) | (err <= 0.25 * budget * width / span)).all(axis=0)


def _integrate_block(f, lo, hi, base: int, tol: float, stats: dict | None) -> np.ndarray:
    """Owners base .. base + lo.size - 1, in integrate_batch's result shape."""
    nb = lo.size
    span = np.maximum(hi - lo, _TINY)

    # Level 0 is one integrand call: every owner's whole panel, then both its
    # halves.  Each owner holds one panel there, so the owner sums are the
    # panel values and need no scatter (0.0 + turns -0.0 into 0.0, as adding
    # into zeroed sums does).
    own = np.arange(nb)  # block-local owner of each live panel; f sees base + own
    a, b = lo, hi
    mid = 0.5 * (a + b)
    ids = base + own
    first = _panel_estimates(
        f, np.concatenate([ids, ids, ids]), np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
    )
    _count(stats, 3 * nb, 0, 0)
    level = np.atleast_2d(first)
    est, left, right = level[:, :nb], level[:, nb : 2 * nb], level[:, 2 * nb :]
    refined = left + right
    err = np.abs(est - refined)
    totals = 0.0 + refined
    done = _retired(err, err, totals, b - a, span, tol)
    accepted = np.where(done, totals, 0.0)

    # Every live panel is bisected once per pass, so all share one depth.
    comps = slice(None)
    depth = 0
    while not done.all():
        keep = ~done
        if depth + 1 > _MAX_DEPTH:
            worst = np.argmax(np.where(keep, err.max(axis=0), -np.inf))
            raise _too_deep(int(base + own[worst]), err[:, worst].max())
        live = 2 * int(keep.sum())
        if live > _MAX_LIVE_PANELS:
            counts = np.bincount(own[keep], minlength=nb)
            top = int(np.argmax(counts))
            raise _too_many(base + top, live, depth + 1, 2 * int(counts[top]), tol)

        own = np.concatenate([own[keep], own[keep]])
        a, b = np.concatenate([a[keep], mid[keep]]), np.concatenate([mid[keep], b[keep]])
        est = np.concatenate([left[:, keep], right[:, keep]], axis=1)
        depth += 1

        p = own.size
        mid = 0.5 * (a + b)
        halves = np.atleast_2d(_panel_estimates(
            f, base + np.concatenate([own, own]), np.concatenate([a, mid]), np.concatenate([mid, b])
        ))
        _count(stats, 2 * p, depth, p)
        left, right = halves[:, :p], halves[:, p:]
        refined = left + right
        err = np.abs(est - refined)
        totals = accepted.copy()
        np.add.at(totals, (comps, own), refined)
        err_sum = np.zeros_like(accepted)
        np.add.at(err_sum, (comps, own), err)
        done = _retired(err, err_sum[:, own], totals[:, own], b - a, span[own], tol)
        np.add.at(accepted, (comps, own[done]), refined[:, done])

    return accepted if first.ndim == 2 else accepted[0]


def integrate_batch(
    f, lo, hi, tol: float = 1e-10, stats: dict | None = None
) -> np.ndarray:
    """
    Integrate f over [lo_i, hi_i] for a batch of owners i = 0..n-1.

    Parameters
    ----------
    f : callable
        Vectorized integrand ``f(owner_index, x)``.  ``owner_index`` has
        shape (p, 1) and holds indices into the whole batch; ``x`` has
        shape (p, m) (the nodes of p panels).  Returns shape (p, m) for a
        scalar integrand, or (c, p, m) for c components integrated
        together.
    lo, hi : array_like
        Integration limits per owner.  hi >= lo required.
    tol : float
        Absolute and relative tolerance: the accepted error per owner and
        component is max(tol, tol * |integral|), split across panels by
        width.  Bisecting past ``_MAX_DEPTH`` raises QuadratureError naming
        the worst owner.  A non-finite panel estimate raises it at once,
        and so does a block queueing more than ``_MAX_LIVE_PANELS`` panels.
    stats : dict, optional
        Counts the call's work, added to what it holds (``_count``).

    Returns
    -------
    np.ndarray of per-owner integral values, shape (n,) for a scalar
    integrand and (c, n) for a vector-valued one.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lo and hi must be 1D arrays of equal length")
    if np.any(hi < lo):
        raise ValueError("hi must be >= lo")
    n = lo.size
    # An empty batch still runs one (empty) block, so its result takes the
    # integrand's shape.
    blocks = [
        _integrate_block(f, lo[s : s + _BLOCK], hi[s : s + _BLOCK], s, tol, stats)
        for s in range(0, max(n, 1), _BLOCK)
    ]
    return np.concatenate(blocks, axis=-1)
