import numpy as np
import pytest
from scipy.integrate import quad

from idsa_lab.quadrature import QuadratureError, integrate_batch


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


def test_depth_cap_raises():
    # A discontinuity never converges under bisection with a tiny depth cap.
    def f(idx, x):
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    with pytest.raises(QuadratureError) as ei:
        integrate_batch(f, np.zeros(3), np.ones(3), tol=1e-14, max_depth=3)
    assert 0 <= ei.value.owner < 3


def test_non_finite_integrand_raises_at_once():
    # A NaN estimate never meets its budget; without the check every panel
    # would be bisected to the depth cap, doubling memory at every level.
    calls = []

    def f(idx, x):
        calls.append(x.shape[0])
        return np.where(idx == 2, np.nan, x)

    with pytest.raises(QuadratureError, match="non-finite") as ei:
        integrate_batch(f, np.zeros(3), np.ones(3), max_depth=4)
    assert ei.value.owner == 2
    assert calls == [3]

    def g(idx, x):
        return np.where(x > 0.9, np.inf, x)

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_batch(g, np.zeros(2), np.ones(2), max_depth=4)


def test_input_validation():
    def f(idx, x):
        return x

    with pytest.raises(ValueError):
        integrate_batch(f, np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        integrate_batch(f, np.ones(1), np.zeros(1))
