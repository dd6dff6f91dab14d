import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from idsa_lab import quadrature
from idsa_lab.quadrature import (
    _BLOCK,
    _MAX_LIVE_PANELS,
    _NODES,
    _WEIGHTS,
    QuadratureError,
    integrate_batch,
)


def test_polynomials_exact():
    def f(idx, x):
        return x ** idx

    lo = np.zeros(5)
    hi = np.ones(5)
    vals = integrate_batch(f, lo, hi, tol=1e-12)
    assert np.allclose(vals, 1.0 / np.arange(1, 6), rtol=1e-13)


def test_mixed_intervals_against_scipy():
    los = np.array([0.0, -1.0, 2.0])
    his = np.array([3.0, 1.5, 2.0 + np.pi])

    def f(idx, x):
        return np.where(idx == 0, np.sin(x), np.where(idx == 1, np.exp(x), 1.0 / (1.0 + x * x)))

    vals = integrate_batch(f, los, his, tol=1e-12)
    for i, (a, b, g) in enumerate(
        [(los[0], his[0], np.sin), (los[1], his[1], np.exp), (los[2], his[2], lambda x: 1 / (1 + x * x))]
    ):
        ref, _ = quad(g, a, b, epsabs=1e-13, epsrel=1e-13)
        assert vals[i] == pytest.approx(ref, rel=1e-11, abs=1e-12)


def test_boundary_layer():
    def f(idx, x):
        return np.exp(-1000.0 * x)

    val = integrate_batch(f, np.zeros(1), np.ones(1), tol=1e-12)[0]
    assert val == pytest.approx((1 - np.exp(-1000.0)) / 1000.0, rel=1e-11)


def test_sqrt_endpoint():
    def f(idx, x):
        return np.sqrt(x)

    val = integrate_batch(f, np.zeros(1), np.ones(1), tol=1e-10)[0]
    assert val == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_depth_cap_raises(monkeypatch):
    # A discontinuity never converges under bisection with a tiny depth cap.
    def f(idx, x):
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
    with pytest.raises(QuadratureError) as ei:
        integrate_batch(f, np.zeros(3), np.ones(3), tol=1e-14)
    assert 0 <= ei.value.owner < 3


def test_non_finite_integrand_raises_at_once(monkeypatch):
    # A NaN estimate never meets its budget; without the check every panel
    # would be bisected to the depth cap, doubling memory at every level.
    calls = []

    def f(idx, x):
        calls.append(x.shape[0])
        return np.where(idx == 2, np.nan, x)

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    with pytest.raises(QuadratureError, match="non-finite") as ei:
        integrate_batch(f, np.zeros(3), np.ones(3))
    assert ei.value.owner == 2
    # One call: the whole panel and both halves of each of the 3 owners.
    assert calls == [9]

    def g(idx, x):
        return np.where(x > 0.9, np.inf, x)

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_batch(g, np.zeros(2), np.ones(2))


def test_level_zero_is_one_call_per_block():
    # 2.5 blocks of smooth integrands that all retire at level 0: one call per
    # block, holding each owner's whole panel and both halves.
    n = 2 * _BLOCK + _BLOCK // 2
    w = np.linspace(0.1, 1.0, n)
    calls = []

    def f(idx, x):
        calls.append(x.shape[0])
        return np.cos(w[idx] * x)

    vals = integrate_batch(f, np.zeros(n), np.ones(n), tol=1e-10)
    assert calls == [3 * _BLOCK, 3 * _BLOCK, 3 * (_BLOCK // 2)]
    assert np.allclose(vals, np.sin(w) / w, rtol=1e-13)

    # Owners that need deeper levels add one call per level: each later call
    # of a block holds the halves of the next level's panels, all one width.
    k = np.zeros(n)
    k[[3, _BLOCK + 5]] = [3e3, 1e3]
    calls.clear()
    widths = []

    def g(idx, x):
        calls.append(x.shape[0])
        widths.append((x[:, -1] - x[:, 0]) / (_NODES[-1] - _NODES[0]) * 2.0)
        return np.exp(-k[idx] * x) + np.cos(w[idx] * x)

    integrate_batch(g, np.zeros(n), np.ones(n), tol=1e-12)
    starts = [i for i, c in enumerate(calls) if c > 4]
    assert [calls[i] for i in starts] == [3 * _BLOCK, 3 * _BLOCK, 3 * (_BLOCK // 2)]
    assert starts[0] == 0 and starts[2] == len(calls) - 1
    for first, end in zip(starts, starts[1:]):
        assert end - first - 1 >= 3  # the boundary layer takes several levels
        for level, i in enumerate(range(first + 1, end), start=1):
            assert calls[i] == 4  # one owner: two live panels, two halves each
            assert np.allclose(widths[i], 0.5 ** (level + 1), rtol=1e-12)


def test_empty_batch_keeps_the_integrand_shape():
    calls = []

    def scalar(idx, x):
        calls.append(x.shape)
        return x

    assert integrate_batch(scalar, np.zeros(0), np.zeros(0)).shape == (0,)
    assert calls == [(0, 15)]

    def vector(idx, x):
        return np.stack([x, x, x, x])

    assert integrate_batch(vector, np.zeros(0), np.zeros(0)).shape == (4, 0)


def test_blocks_match_singleton_calls():
    # About 2.5 blocks; every third owner has a boundary layer of width
    # 1e-4..1e-2 that takes several bisection levels, the rest retire at once.
    n = 2 * _BLOCK + _BLOCK // 2
    rng = np.random.default_rng(7)
    k = np.where(np.arange(n) % 3 == 0, 10.0 ** rng.uniform(2.0, 4.0, n), rng.uniform(0.1, 2.0, n))
    w = rng.uniform(0.5, 5.0, n)
    hi = rng.uniform(0.5, 2.0, n)

    def g(k, w, x):
        return np.exp(-k * x) + np.cos(w * x)

    batch = integrate_batch(lambda idx, x: g(k[idx], w[idx], x), np.zeros(n), hi, tol=1e-12)
    for i in range(n):
        one = integrate_batch(lambda idx, x: g(k[i], w[i], x), np.zeros(1), hi[i : i + 1], tol=1e-12)
        assert batch[i] == one[0]


def _random_bit_patterns(rng, n, exponents):
    """n doubles of random sign and mantissa, biased exponents drawn from range(*exponents)."""
    mantissa = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(*exponents, size=n, dtype=np.uint64) << np.uint64(52)
    return (sign | exponent | mantissa).view(np.float64)


def test_panel_estimates_weigh_the_nodes_in_order():
    # A panel's estimate is ((v_0 w_0 + v_1 w_1) + ... + v_14 w_14) * half,
    # each product and sum rounded once, as Python's floats do: no order of
    # numpy's own.  Rows of cancelling sums, wide exponents, subnormals,
    # signed zeros and random bit patterns, at a random half-width.
    rng = np.random.default_rng(19)
    n = 3000
    zeros = np.where(rng.random((n, 15)) < 0.5, 0.0, -0.0)
    rows = np.concatenate([
        rng.standard_normal((n, 15)),                                    # cancelling sums
        rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-20, 20, (n, 15)),
        rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(299, 301, (n, 1)),
        rng.standard_normal((n, 15)) * 1e-310,                           # subnormal
        np.where(rng.random((n, 15)) < 0.7, zeros, rng.standard_normal((n, 15))),
        zeros,
        -np.zeros((1, 15)),
        _random_bit_patterns(rng, n * 15, (0, 2040)).reshape(n, 15),
    ])
    half = rng.uniform(0.25, 1.0, len(rows))

    def weighed(rows):
        out = []
        for row, h in zip(rows.tolist(), half.tolist()):
            total = row[0] * _WEIGHTS[0].item()
            for j in range(1, 15):
                total = total + row[j] * _WEIGHTS[j].item()
            out.append(total * h)
        return np.array(out)

    expected = weighed(rows)
    assert np.isfinite(expected).all()
    owners = np.arange(len(rows))
    est = quadrature._panel_estimates(lambda idx, x: rows[idx[:, 0]], owners, -half, half)
    assert est.tobytes() == expected.tobytes()
    # Each component of a vector-valued integrand is weighed alike.
    stacked = np.stack([rows, rows[::-1]])
    est = quadrature._panel_estimates(lambda idx, x: stacked[:, idx[:, 0]], owners, -half, half)
    assert est.tobytes() == np.stack([expected, weighed(rows[::-1])]).tobytes()


def _scatter_reference(f, lo, hi, tol):
    """
    The bisection of one block with level 0 as two integrand calls and a
    scatter-add at every level, without the error checks: the arithmetic
    whose bits integrate_batch keeps.
    """
    nb = lo.size
    span = np.maximum(hi - lo, np.finfo(float).tiny)

    def estimates(owners, a, b):
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
        vals = f(owners[:, None], x)
        weighed = vals[..., 0] * _WEIGHTS[0]
        for j in range(1, _NODES.size):
            weighed = weighed + vals[..., j] * _WEIGHTS[j]
        return half * weighed

    own, a, b = np.arange(nb), lo, hi
    first = estimates(own, a, b)
    est = np.atleast_2d(first)
    accepted = np.zeros((est.shape[0], nb))
    comps = slice(None)
    while own.size:
        p = own.size
        mid = 0.5 * (a + b)
        halves = np.atleast_2d(estimates(
            np.concatenate([own, own]), np.concatenate([a, mid]), np.concatenate([mid, b])
        ))
        refined = halves[:, :p] + halves[:, p:]
        err = np.abs(est - refined)
        totals = accepted.copy()
        np.add.at(totals, (comps, own), refined)
        err_sum = np.zeros_like(accepted)
        np.add.at(err_sum, (comps, own), err)
        budget = np.maximum(tol, tol * np.abs(totals))[:, own]
        done = (
            (err_sum[:, own] <= budget) | (err <= 0.25 * budget * (b - a) / span[own])
        ).all(axis=0)
        np.add.at(accepted, (comps, own[done]), refined[:, done])
        keep = ~done
        own = np.concatenate([own[keep], own[keep]])
        a, b = np.concatenate([a[keep], mid[keep]]), np.concatenate([mid[keep], b[keep]])
        est = np.concatenate([halves[:, :p][:, keep], halves[:, p:][:, keep]], axis=1)
    return accepted if first.ndim == 2 else accepted[0]


def _layers(params, vector):
    """
    An integrand with a boundary layer at lo of width 10^-log_k per owner
    (log_k, w, lo, width): scalar, or with two more components.  Returns
    it, lo and hi.
    """
    log_k, w, lo, width = (np.array(c) for c in zip(*params))
    k = 10.0 ** log_k

    def f(idx, x):
        layer = np.exp(-k[idx] * (x - lo[idx]))
        if vector:
            return np.stack([layer, np.cos(w[idx] * x), np.sqrt(np.abs(x))])
        return layer + np.cos(w[idx] * x)

    return f, lo, lo + width


_layer_params = st.tuples(st.floats(-1.0, 4.0), st.floats(0.0, 20.0), st.floats(-1.0, 1.0),
                          st.floats(0.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    params=st.lists(_layer_params, min_size=1, max_size=40),
    vector=st.booleans(),
    tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
)
# Batches where a BLAS product over the whole panels and the halves together
# moved bits.
@example(params=[(0.9, 13.4, 0.9, 1.5)], vector=True, tol=1e-10)
@example(params=[(1.3, 18.8, 0.9, 2.8), (1.1, 2.4, -0.9, 1.0)], vector=False, tol=1e-10)
def test_level_zero_keeps_the_scatter_reference_bits(params, vector, tol):
    f, lo, hi = _layers(params, vector)
    got = integrate_batch(f, lo, hi, tol=tol)
    assert got.tobytes() == _scatter_reference(f, lo, hi, tol).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    params=st.lists(_layer_params, min_size=1, max_size=10),
    vector=st.booleans(),
    tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
    order=st.randoms(use_true_random=False),
    cut=st.integers(0, 9),
)
def test_an_owners_value_does_not_depend_on_its_batch(params, vector, tol, order, cut):
    # Each owner's value alone, then in a shuffled batch of the others, then
    # in that batch behind filler owners of its own kind, placed so that the
    # drawn owners straddle the first block boundary (a single one ends the
    # first block).
    alone = [integrate_batch(*_layers([p], vector), tol=tol) for p in params]
    shuffled = list(range(len(params)))
    order.shuffle(shuffled)
    before = _BLOCK - 1 - cut % max(len(params) - 1, 1)
    filler = [(log_k, 3.0, -0.5, 1.5) for log_k in np.linspace(-1.0, 4.0, before)]
    for batch in ([params[i] for i in shuffled], filler + [params[i] for i in shuffled]):
        got = integrate_batch(*_layers(batch, vector), tol=tol)
        for pos, i in enumerate(shuffled, start=len(batch) - len(params)):
            assert got[..., pos].tobytes() == alone[i][..., 0].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    params=st.lists(
        st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 3.0), st.floats(0.0, 20.0)),
        min_size=1, max_size=8,
    ),
    width=st.floats(0.1, 3.0),
    tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
)
def test_vector_integrand_matches_components(params, width, tol):
    k, p, w = (np.array(c) for c in zip(*params))
    n = k.size
    lo = np.zeros(n)
    hi = np.full(n, width)
    parts = (
        lambda idx, x: np.exp(-k[idx] * x),
        lambda idx, x: x ** p[idx],
        lambda idx, x: np.cos(w[idx] * x),
    )
    fused = integrate_batch(lambda idx, x: np.stack([g(idx, x) for g in parts]), lo, hi, tol=tol)
    assert fused.shape == (3, n)
    for c, g in enumerate(parts):
        alone = integrate_batch(g, lo, hi, tol=tol)
        # Each result is within its own budget of the integral.
        budget = np.maximum(tol, tol * np.abs(alone))
        assert np.all(np.abs(fused[c] - alone) <= 2.0 * budget)


def test_errors_name_the_global_owner_across_blocks(monkeypatch):
    n = 2 * _BLOCK + 37
    bad = 2 * _BLOCK + 20
    seen = []

    def step(idx, x):
        seen.append(int(idx.max()))
        return np.where((idx == bad) & (x < 1.0 / 3.0), 0.0, 1.0)

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
    with pytest.raises(QuadratureError, match=f"entry {bad} ") as ei:
        integrate_batch(step, np.zeros(n), np.ones(n), tol=1e-14)
    assert ei.value.owner == bad
    assert max(seen) >= bad  # the integrand sees batch indices, not block ones

    def nan_at_bad(idx, x):
        return np.where(idx == bad, np.nan, x)

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    with pytest.raises(QuadratureError, match=f"entry {bad} has a non-finite") as ei:
        integrate_batch(nan_at_bad, np.zeros(n), np.ones(n))
    assert ei.value.owner == bad

    def vector_nan(idx, x):
        return np.stack([x, np.where(idx == bad, np.inf, x)])

    with pytest.raises(QuadratureError, match=f"entry {bad} has a non-finite .*inf") as ei:
        integrate_batch(vector_nan, np.zeros(n), np.ones(n))
    assert ei.value.owner == bad


def test_vector_depth_cap_reports_worst_component(monkeypatch):
    def f(idx, x):
        return np.stack([x, 1e6 * np.where(x < 1.0 / 3.0, 0.0, 1.0)])

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
    with pytest.raises(QuadratureError, match="depth 3") as ei:
        integrate_batch(f, np.zeros(2), np.ones(2), tol=1e-14)
    reported = float(str(ei.value).rsplit(" ", 1)[1])
    assert reported > 1.0  # the step's error, not the smooth component's roundoff


def test_live_panel_cap_stops_unattainable_tolerance():
    # Below roundoff no panel meets its budget, so the queue doubles every
    # level; the default depth cap of 40 would be far out of memory's reach.
    # The cap bounds this test, and the integrand stops it should the cap fail.
    def f(idx, x):
        if x.shape[0] > 2 * _MAX_LIVE_PANELS:
            pytest.fail(f"{x.shape[0]} panels in one call: the live-panel cap did not hold")
        return np.sin(37.0 * x) + np.sqrt(x)

    with pytest.raises(QuadratureError, match="live panels") as ei:
        integrate_batch(f, np.zeros(4), np.ones(4), tol=1e-300)
    assert 0 <= ei.value.owner < 4


def test_input_validation():
    def f(idx, x):
        return x

    with pytest.raises(ValueError):
        integrate_batch(f, np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        integrate_batch(f, np.ones(1), np.zeros(1))
