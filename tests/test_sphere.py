"""
Oracle tests.  The frozen reference values were produced by an independent
40-digit mpmath evaluation of the closed-form distribution and its moment
integrals (direct mp.quad of the defining integrals, plus the regularized
substitution v = sqrt(mu^2 - mu0^2) outside the sphere).
"""

import numpy as np
import pytest

from idsa_lab import (
    NoNeutrinosphereError,
    ProblemSpec,
    exact_distribution,
    exact_moments,
    flux_factors_infinite,
    free_streaming_closures,
    free_streaming_flux_ratio,
    limit_moments_infinite_kappa,
    make_uniform_grid,
    moments_at,
    neutrinosphere_radius,
    special_values,
)
from idsa_lab import sphere
from idsa_lab.quadrature import QuadratureError, integrate_batch

SPEC = ProblemSpec(B=1.0, R=6.0, kappa=1.0)

# mpmath (40 digits), kappa=1, R=6, B=1
J0 = 0.99752124782333364158
JR = 0.45833358934218138868
HR = 0.24652805512069650459
J3, H3, K3 = 0.98788276387651842743, 0.0072968595549512355097, 0.32755674624374222335
J9, H9, K9 = 0.12528374763185573455, 0.10956802449808733529, 0.096483421589434196687
# mpmath with the regularized substitution, kappa=100
J_OUT_100 = 0.462990621967583759  # r = 6.0165


def test_distribution_values():
    assert exact_distribution(0.0, 0.5, SPEC) == pytest.approx(J0, rel=1e-14)
    assert exact_distribution(12.0, 0.0, SPEC) == 0.0
    # Deep inside a very opaque sphere the distribution saturates at B.
    opaque = ProblemSpec(B=1.0, R=6.0, kappa=1e5)
    assert exact_distribution(3.0, -0.4, opaque) == pytest.approx(1.0, rel=1e-12)


def test_distribution_chord_lengths():
    # f = B (1 - exp(-kappa s)): s = R from the center and 2R along a
    # diameter, from the surface or from outside; the inside and outside
    # chord formulas meet at r = R (one ulp inside R the radicand, about
    # mu^2, carries a roundoff of about 1e-16 / mu^2 relative).
    for r, mu, s in ((0.0, 0.4, 6.0), (6.0, 1.0, 12.0), (12.0, 1.0, 12.0)):
        assert exact_distribution(r, mu, SPEC) == pytest.approx(-np.expm1(-s), rel=1e-14)
    mu = np.random.default_rng(3).uniform(1e-3, 1.0, size=50)
    inside = exact_distribution(np.nextafter(6.0, 0.0), mu, SPEC)
    assert np.allclose(inside, exact_distribution(6.0, mu, SPEC), rtol=1e-9, atol=0.0)
    assert np.allclose(inside, -np.expm1(-12.0 * mu), rtol=1e-9, atol=0.0)


def test_distribution_monotone_in_kappa():
    rng = np.random.default_rng(11)
    for _ in range(40):
        r = rng.uniform(0.0, 18.0)
        mu = rng.uniform(-1.0, 1.0)
        k1, k2 = sorted(rng.uniform(0.05, 50.0, size=2))
        f1 = exact_distribution(r, mu, ProblemSpec(B=1.0, R=6.0, kappa=k1))
        f2 = exact_distribution(r, mu, ProblemSpec(B=1.0, R=6.0, kappa=k2))
        assert f2 >= f1 - 1e-15


def test_distribution_requires_bare_sphere():
    with pytest.raises(ValueError):
        exact_distribution(1.0, 0.5, ProblemSpec(B=1.0, R=6.0, kappa=1.0, kappa_s=0.1))


def test_moments_match_mpmath():
    J, H, K = moments_at(np.array([3.0, 9.0]), SPEC, tol=1e-12)
    assert J[0] == pytest.approx(J3, rel=2e-12)
    assert H[0] == pytest.approx(H3, rel=2e-11)
    assert K[0] == pytest.approx(K3, rel=2e-12)
    assert J[1] == pytest.approx(J9, rel=2e-11)
    assert H[1] == pytest.approx(H9, rel=2e-11)
    assert K[1] == pytest.approx(K9, rel=2e-11)


def test_moments_match_mpmath_high_opacity():
    spec = ProblemSpec(B=1.0, R=6.0, kappa=100.0)
    J, _, _ = moments_at(np.array([6.0165]), spec, tol=1e-11)
    assert J[0] == pytest.approx(J_OUT_100, rel=1e-9)


# mpmath (45 digits, both the cosh/sinh form and the defining integral over
# mu in [-1, 1], split at sqrt((R - r)/R) and kappa (R - r) times 0.1 to 30):
# J, H, K just inside R = 6, at r = 6 - d as a double.
_INSIDE_EDGE = {
    (1000.0, 1e-4): ("0.6386867760608859814046756612631162", "0.2081491946658889568967106827565386",
                     "0.1894647021862716866523882248239349"),
    (1000.0, 1e-5): ("0.5251230831654654287508772174741595", "0.2451386871851056185256601874828219",
                     "0.1691421405675570388912255635777528"),
    (3000.0, 1e-4): ("0.7654301434174094174492850728234198", "0.1500234133112527742112904046605564",
                     "0.2248649642540326897945893312929843"),
    (3000.0, 1e-5): ("0.5591501682877986404919812480535648", "0.2359992365455105408154581326086511",
                     "0.1739523684333908640535014361909010"),
}


@pytest.mark.parametrize("kappa, d", list(_INSIDE_EDGE))
def test_inside_moments_just_inside_R_match_mpmath(kappa, d):
    # Just inside R the inside integrands exp(kappa (r mu - R G)) rise from
    # about e^-30 to e^-1 over mu from kappa d / 30 to kappa d, a layer at
    # mu = 0 that level 0 does not accept: the quadrature bisects 3 to 6
    # levels into it.  What is left, at most 1.43e-12 (J at kappa = 3000,
    # d = 1e-5), is the cancellation of the exponents to about
    # eps * kappa*R that sets the oracle_tol floor.
    J, H, K = moments_at(np.array([6.0 - d]), ProblemSpec(B=1.0, R=6.0, kappa=kappa))
    for value, ref in zip((J[0], H[0], K[0]), _INSIDE_EDGE[kappa, d]):
        assert value == pytest.approx(float(ref), rel=2e-12)


def _moments_one_at_a_time(radii, spec, tol):
    """Reference: every moment integral on its own, each outside piece apart."""
    R, kap, B = spec.R, spec.kappa, spec.B
    inside = radii < R
    r_in, r_out = radii[inside], radii[~inside]
    J, H, K = (np.empty(radii.size) for _ in range(3))

    def inner(idx, mu, power, sign):
        r = r_in[idx]
        G = np.sqrt(np.clip(1.0 - (r / R) ** 2 * (1.0 - mu**2), 0.0, None))
        core = 0.5 * (np.exp(kap * (r * mu - R * G)) + sign * np.exp(-kap * (r * mu + R * G)))
        return mu**power * core

    ones = np.ones(r_in.size)
    i0, i1, i2 = (
        integrate_batch(lambda i, m: inner(i, m, p, s), 0 * ones, ones, tol=tol)
        for p, s in ((0, 1.0), (1, -1.0), (2, 1.0))
    )
    J[inside], H[inside], K[inside] = B * (1.0 - i0), B * i1, B * (1.0 / 3.0 - i2)

    mu0 = np.sqrt(np.clip(1.0 - (R / r_out) ** 2, 0.0, None))
    vmax = R / r_out
    w = np.minimum(8.0 / (kap * r_out), 0.5 * vmax)

    def outer(idx, v, p):
        e = np.exp(-2.0 * kap * r_out[idx] * v)
        mu = np.sqrt(mu0[idx] ** 2 + v * v)
        return (v / mu * e, v * e, mu * v * e)[p]

    e0, e1, e2 = (
        integrate_batch(lambda i, v: outer(i, v, p), 0 * w, w, tol=tol)
        + integrate_batch(lambda i, v: outer(i, v, p), w, vmax, tol=tol)
        for p in range(3)
    )
    ratio2 = (R / r_out) ** 2
    J[~inside] = 0.5 * B * (1.0 - mu0 - e0)
    H[~inside] = 0.5 * B * (0.5 * ratio2 - e1)
    K[~inside] = B / 6.0 * (1.0 - (1.0 - ratio2) ** 1.5 - 3.0 * e2)
    return J, H, K


@pytest.mark.parametrize("kappa", [0.5, 3.0, 500.0])
def test_fused_moments_match_one_at_a_time(kappa):
    # Includes r = R, r just above R, and enough radii for several blocks.
    # (Within 1e-9 below R at kappa = 500 the lone H integral misses the
    # near-kink of G at mu = 0 and is off by 1e-8; the fused one is not.)
    spec = ProblemSpec(B=1.0, R=6.0, kappa=kappa)
    radii = np.concatenate([np.linspace(0.0, 18.0, 1201), [6.0, 6.0 * (1 + 1e-12), 6.0 + 1e-6]])
    got = moments_at(radii, spec, tol=1e-10)
    ref = _moments_one_at_a_time(radii, spec, 1e-10)
    for a, b in zip(got, ref):
        assert np.allclose(a, b, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_moments_reject_a_radius_that_is_negative_or_not_finite(bad, recwarn):
    # Named by its index in radii, before any quadrature (which used to warn,
    # then name the radius's index in the outside sub-batch).
    with pytest.raises(ValueError, match=rf"radii\[1\] = {bad!r}: a radius must be finite"):
        moments_at([7.0, bad, 1.0], SPEC)
    assert not recwarn.list
    J, H, K = moments_at([7.0, -0.0, 1.0], SPEC)  # -0 is the center
    assert J[1] == moments_at([0.0], SPEC)[0][0]


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_moments_reject_a_tolerance_outside_its_domain(tol):
    # A NaN tolerance bisected every panel to the live-panel cap, then raised
    # QuadratureError.
    with pytest.raises(ValueError, match=f"^tol must be positive and finite, got tol = {tol:g}$"):
        moments_at([3.0, 9.0], SPEC, tol=tol)


def test_quadrature_error_names_the_failing_radius_by_its_index_in_radii():
    # At a tolerance below roundoff R(1 - 1e-12) fails: entry 1 of the inside
    # sub-batch, radii[2] of the whole (radii[1] is R).
    R = 6.0
    radii = np.array([0.0, R, R * (1 - 1e-12), R * (1 + 1e-12),
                      *make_uniform_grid(3 * R, 1999).r_centers])
    with pytest.raises(QuadratureError, match=r"; radius radii\[2\] = 5\.999999999994 holds") as ei:
        moments_at(radii, ProblemSpec(B=1.0, R=R, kappa=1000.0), tol=1e-13)
    assert ei.value.owner == 2


def test_an_outside_piece_names_its_radius(monkeypatch):
    # The outside batch holds two pieces per radius, [0, w] of each, then
    # [w, vmax] of each: entry n + j is radius j of the n outside radii.
    radii = np.array([1.0, 7.0, 8.0, 2.0, 9.0])  # outside: radii[1], radii[2], radii[4]
    integrals = sphere._integrals  # both the native and the numpy quadrature

    def failing(f, lo, hi, *args, **kw):
        if lo.size == 6:  # the outside batch
            raise QuadratureError(4, "quadrature: batch entry 4 has a non-finite panel estimate")
        return integrals(f, lo, hi, *args, **kw)

    monkeypatch.setattr(sphere, "_integrals", failing)
    with pytest.raises(QuadratureError) as ei:
        moments_at(radii, SPEC)
    assert ei.value.owner == 2
    assert str(ei.value) == "quadrature: radius radii[2] = 8.0 has a non-finite panel estimate"


def test_special_values():
    sv = special_values(SPEC)
    assert sv.J0 == pytest.approx(J0, rel=1e-14)
    assert sv.JR == pytest.approx(JR, rel=1e-14)
    assert sv.H0 == 0.0
    assert sv.HR == pytest.approx(HR, rel=1e-13)
    # Opaque limits of the closed forms.
    opaque = special_values(ProblemSpec(B=1.0, R=6.0, kappa=1e4))
    assert opaque.J0 == pytest.approx(1.0, rel=1e-14)
    assert opaque.JR == pytest.approx(0.5, rel=1e-4)


@pytest.mark.parametrize("kappa", [1.0, 10.0])
def test_moment_bounds(kappa):
    # Note the Eddington factor genuinely dips slightly BELOW 1/3 inside the
    # sphere at finite opacity: the deficit from isotropy is carried by
    # radially ingoing directions (shortest chords), which are weighted by
    # mu^2.  mpmath confirms K(3) = 0.327557 < J(3)/3 = 0.329294 at kappa=1.
    # Outside the sphere the field is outward-peaked and k >= 1/3 holds.
    grid = make_uniform_grid(18.0, 400)
    m = exact_moments(grid, ProblemSpec(B=1.0, R=6.0, kappa=kappa), tol=1e-10)
    J, H, K = m.J.values, m.H.values, m.K.values
    assert np.all(J > 0.0) and np.all(J <= 1.0 + 1e-12)
    assert np.all(H >= -1e-12) and np.all(H <= J + 1e-12)
    assert np.all(K <= J + 1e-12)
    ff = m.flux_factors()
    assert np.all(ff.h.values >= -1e-12) and np.all(ff.h.values <= 1.0 + 1e-12)
    outside = grid.r_centers >= 6.0
    assert np.all(ff.k.values[outside] >= 1.0 / 3.0 - 1e-12)
    # The dip is confined to the edge layer and stays below 0.04 here.
    assert np.all(ff.k.values >= 1.0 / 3.0 - 0.05)
    assert np.all(ff.k.values <= 1.0 + 1e-12)


def test_eddington_dip_inside_matches_mpmath():
    # The inside dip below 1/3 is real, not quadrature noise.
    assert K3 < J3 / 3.0
    spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    J, _, K = moments_at(np.array([3.0]), spec, tol=1e-12)
    assert K[0] / J[0] == pytest.approx(K3 / J3, rel=1e-11)
    assert K[0] / J[0] < 1.0 / 3.0


def test_moment_equation_residual():
    # Stationary balance (1/r^2) d(r^2 H)/dr = kappa_a (B - J) holds at
    # O(dr^2) pointwise at fixed radii away from the origin and the edge.
    grid = make_uniform_grid(18.0, 2000)
    m = exact_moments(grid, SPEC, tol=1e-10)
    r, dr = grid.r_centers, grid.dr
    f = r**2 * m.H.values
    lhs = np.full(r.size, np.nan)
    lhs[1:-1] = (f[2:] - f[:-2]) / (2.0 * dr) / r[1:-1] ** 2
    rhs = SPEC.absorption(r) * (SPEC.B - m.J.values)
    sel = ((r > 1.0) & (r < 5.0)) | ((r > 7.0) & (r < 17.0))
    rel = np.abs(lhs - rhs)[sel] / np.max(np.abs(rhs))
    assert rel.max() < 1e-4


def test_quadrature_approaches_infinite_opacity_limit():
    # Sampled away from the boundary layer (nearest center 0.06 from the
    # edge) the kappa=100 moments sit within the edge-deficit bound of the
    # infinitely opaque profile.
    grid = make_uniform_grid(18.0, 150)
    m = exact_moments(grid, ProblemSpec(B=1.0, R=6.0, kappa=100.0), tol=1e-10)
    lim = limit_moments_infinite_kappa(grid, 6.0, 1.0)
    bound = 2.0 * (1.0 - np.exp(-1200.0)) / (4.0 * 600.0)
    assert np.max(np.abs(m.J.values - lim.J.values)) <= bound


def test_limit_moments():
    grid = make_uniform_grid(24.0, 2)  # centers at 6 (edge -> outside branch) and 18
    m = limit_moments_infinite_kappa(grid, 6.0, 1.0)
    assert m.J.values[0] == pytest.approx(0.5)
    grid = make_uniform_grid(12.0, 4)  # centers 1.5, 4.5, 7.5, 10.5
    m = limit_moments_infinite_kappa(grid, 6.0, 1.0)
    assert np.allclose(m.J.values[:2], 1.0)
    assert np.allclose(m.H.values[:2], 0.0)
    assert np.allclose(m.K.values[:2], 1.0 / 3.0)
    # H at r = 2R equals B/16.
    grid = make_uniform_grid(24.0, 2)  # centers 6, 18
    m = limit_moments_infinite_kappa(grid, 6.0, 1.0)
    grid12 = make_uniform_grid(16.0, 2)  # centers 4, 12
    m12 = limit_moments_infinite_kappa(grid12, 6.0, 1.0)
    assert m12.H.values[1] == pytest.approx(1.0 / 16.0, rel=1e-14)
    # Far away k -> 1.
    far = make_uniform_grid(1200.0, 2)  # centers 300, 900
    ff = limit_moments_infinite_kappa(far, 6.0, 1.0).flux_factors()
    assert ff.k.values[1] > 0.999


def test_flux_factors_infinite():
    grid = make_uniform_grid(16.0, 2)  # centers 4, 12 = 2R
    ff = flux_factors_infinite(grid, 6.0)
    assert ff.h.values[0] == 0.0 and ff.k.values[0] == pytest.approx(1.0 / 3.0)
    assert ff.h.values[1] == pytest.approx(0.93301270189221932338, rel=1e-14)
    assert ff.k.values[1] == pytest.approx(0.87200846792814621559, rel=1e-14)
    # Continuity at the edge: h jumps to exactly 1/2, k stays at 1/3.
    edge = make_uniform_grid(12.0, 2)  # centers 3, 9
    just_out = 6.0 * (1.0 + 1e-12)
    assert free_streaming_flux_ratio(just_out, 6.0) == pytest.approx(0.5, abs=2e-6)


def test_free_streaming_closures_give_the_infinite_opacity_factors():
    # Inside R the streaming closures are 1/2 and 1/3; outside they are the
    # infinite-opacity flux factors, whose h is 0 inside instead.
    for n in (300, 600, 19998):
        grid = make_uniform_grid(18.0, n)
        r = grid.r_centers
        h_s, k_s = free_streaming_closures(r, 6.0)
        ff = flux_factors_infinite(grid, 6.0)
        assert np.array_equal(h_s, free_streaming_flux_ratio(r, 6.0))
        assert np.array_equal(k_s, ff.k.values)
        assert np.array_equal(h_s[r >= 6.0], ff.h.values[r >= 6.0])
        assert np.all(h_s[r < 6.0] == 0.5) and np.all(ff.h.values[r < 6.0] == 0.0)
        assert np.all(k_s[r < 6.0] == 1.0 / 3.0)


def test_free_streaming_flux_ratio():
    assert free_streaming_flux_ratio(3.0, 6.0) == 0.5
    assert free_streaming_flux_ratio(12.0, 6.0) == pytest.approx(0.93301270189221932338, rel=1e-14)
    assert free_streaming_flux_ratio(6.0e9, 6.0) == pytest.approx(1.0, abs=1e-9)
    r = np.array([0.5, 6.0, 12.0])
    g = free_streaming_flux_ratio(r, 6.0)
    assert g[0] == 0.5 and g[1] == 0.5


def test_neutrinosphere_radius():
    assert neutrinosphere_radius(SPEC) == pytest.approx(6.0 - 2.0 / 3.0, rel=1e-14)
    assert neutrinosphere_radius(ProblemSpec(B=1.0, R=6.0, kappa=1e12)) == pytest.approx(6.0)
    with pytest.raises(NoNeutrinosphereError):
        neutrinosphere_radius(ProblemSpec(B=1.0, R=6.0, kappa=0.1))
