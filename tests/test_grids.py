import re

import numpy as np
import pytest

from idsa_lab import (
    DegenerateNormError,
    ProblemSpec,
    RadialField,
    l2_relative_error,
    make_uniform_grid,
    pointwise_relative_error,
)
from idsa_lab.grids import cell_width


def test_uniform_grid_small():
    g = make_uniform_grid(12.0, 4)
    assert np.allclose(g.r_centers, [1.5, 4.5, 7.5, 10.5])
    assert g.r_edges[0] == 0.0 and g.r_edges[-1] == 12.0
    assert g.dr == 3.0


def test_uniform_grid_rejects_single_cell():
    with pytest.raises(ValueError):
        make_uniform_grid(12.0, 1)
    with pytest.raises(ValueError):
        make_uniform_grid(-1.0, 10)
    with pytest.raises(ValueError):
        make_uniform_grid(12.0, 7.5)


def test_uniform_grid_fine():
    g = make_uniform_grid(12.0, 10**4)
    assert g.dr == pytest.approx(1.2e-3, rel=1e-14)
    assert g.r_centers[0] == pytest.approx(6e-4, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 100])
def test_grid_invariants(n):
    g = make_uniform_grid(7.3, n)
    assert np.all(np.diff(g.r_edges) > 0)
    assert np.allclose(g.r_centers, 0.5 * (g.r_edges[:-1] + g.r_edges[1:]))
    assert np.all(g.r_centers > 0)
    assert len(g.r_centers) == n and len(g.r_edges) == n + 1


def test_field_validation():
    g = make_uniform_grid(1.0, 4)
    with pytest.raises(ValueError):
        RadialField(g, np.zeros(5))
    with pytest.raises(ValueError):
        RadialField(g, np.array([0.0, 1.0, np.inf, 2.0]))


def test_l2_identity_and_offset():
    g = make_uniform_grid(10.0, 64)
    ones = RadialField(g, np.ones(64))
    assert l2_relative_error(ones, ones) == 0.0
    off = RadialField(g, np.full(64, 1.1))
    assert l2_relative_error(off, ones) == pytest.approx(0.1, rel=1e-12)


def test_l2_degenerate_norm():
    g = make_uniform_grid(10.0, 8)
    zero = RadialField(g, np.zeros(8))
    one = RadialField(g, np.ones(8))
    with pytest.raises(DegenerateNormError):
        l2_relative_error(one, zero)


def test_l2_requires_same_grid():
    a = RadialField(make_uniform_grid(10.0, 8), np.ones(8))
    b = RadialField(make_uniform_grid(10.0, 9), np.ones(9))
    with pytest.raises(ValueError):
        l2_relative_error(a, b)


def test_l2_homogeneity():
    rng = np.random.default_rng(7)
    g = make_uniform_grid(5.0, 40)
    exact = RadialField(g, 1.0 + rng.random(40))
    delta = rng.standard_normal(40)
    base = l2_relative_error(RadialField(g, exact.values + delta), exact)
    for c in (0.5, 3.0, -2.0):
        scaled = l2_relative_error(RadialField(g, exact.values + c * delta), exact)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def test_l2_stable_under_refinement():
    # Sampling a smooth profile pair on finer grids changes the error at O(dr^2).
    def fields(n):
        g = make_uniform_grid(10.0, n)
        e = RadialField(g, 2.0 + np.sin(g.r_centers))
        a = RadialField(g, (2.0 + np.sin(g.r_centers)) * 1.03)
        return a, e

    errs = [l2_relative_error(*fields(n)) for n in (200, 400, 800)]
    assert errs[0] == pytest.approx(0.03, rel=1e-10)
    assert abs(errs[2] - errs[1]) < 1e-10


def test_pointwise_relative_error():
    g = make_uniform_grid(10.0, 16)
    e = RadialField(g, 1.0 + np.arange(16.0))
    assert np.all(pointwise_relative_error(e, e).values == 0.0)
    twice = RadialField(g, 2.0 * e.values)
    assert np.allclose(pointwise_relative_error(twice, e).values, 1.0)
    withzero = RadialField(g, np.r_[0.0, np.ones(15)])
    with pytest.raises(ZeroDivisionError):
        pointwise_relative_error(e, withzero)


def test_problem_spec_validation():
    ProblemSpec(B=1.0, R=6.0, kappa=1.0)
    for bad in (
        dict(B=0.0, R=6.0, kappa=1.0),
        dict(B=1.0, R=-6.0, kappa=1.0),
        dict(B=1.0, R=6.0, kappa=0.0),
        dict(B=1.0, R=6.0, kappa=1.0, kappa_outside=-1e-3),
        dict(B=1.0, R=6.0, kappa=1.0, kappa_s=-0.5),
        dict(B=1.0, R=6.0, kappa=np.inf),
        dict(B=1.0, R=6.0, kappa=1.0, kappa_outside=np.inf),
        dict(B=1.0, R=6.0, kappa=1.0, kappa_s=np.inf),
        dict(B=np.inf, R=6.0, kappa=1.0),
        dict(B=1.0, R=np.inf, kappa=1.0),
    ):
        with pytest.raises(ValueError):
            ProblemSpec(**bad)


def test_absorption_profile_is_step():
    spec = ProblemSpec(B=1.0, R=6.0, kappa=2.0, kappa_outside=1e-3, kappa_s=0.25)
    r = np.array([0.1, 5.999, 6.0, 17.0])
    assert np.allclose(spec.absorption(r), [2.0, 2.0, 1e-3, 1e-3])
    assert np.allclose(spec.total_opacity(r), [2.25, 2.25, 0.25 + 1e-3, 0.25 + 1e-3])
    assert not spec.is_bare_sphere
    assert ProblemSpec(B=1.0, R=6.0, kappa=2.0).is_bare_sphere


# dr^2 overflowed (OverflowError in diffusion_number) or underflowed to 0
# (ZeroDivisionError there): the cell width is rejected up front instead.
@pytest.mark.parametrize("r_max, n_cells", [(1e300, 2), (1e300, 10000), (3e-300, 10000)])
def test_grid_rejects_a_cell_width_whose_square_is_not_a_normal_double(r_max, n_cells):
    message = re.escape(f"r_max = {r_max:g} over n_cells = {n_cells} gives the cell width")
    with pytest.raises(ValueError, match=message):
        make_uniform_grid(r_max, n_cells)
    with pytest.raises(ValueError, match=message):
        cell_width(r_max, n_cells)


def test_cell_width_is_the_grids():
    for r_max, n_cells in [(18.0, 2000), (18.0, 19998), (7.3, 3), (1e150, 2)]:
        assert cell_width(r_max, n_cells) == make_uniform_grid(r_max, n_cells).dr


@pytest.mark.parametrize("r_max, n_cells, key", [
    (0.0, 10, "r_max"), (np.nan, 10, "r_max"), (np.inf, 10, "r_max"),
    (1.0, np.nan, "n_cells"), (1.0, np.inf, "n_cells"), (1.0, 1, "n_cells"),
    (1.0, 2**31, "n_cells"), (1.0, 1e13, "n_cells"),
])
def test_grid_names_the_input_outside_its_domain(r_max, n_cells, key):
    with pytest.raises(ValueError, match=f"^{key} must be .*, got {key} = "):
        cell_width(r_max, n_cells)


# (2 kappa R)^2 underflowed to 0 (ZeroDivisionError in special_values) or
# overflowed (OverflowError there).
@pytest.mark.parametrize("R, kappa", [(1e-300, 1.0), (6.0, 1e-300), (6.0, 1e200)])
def test_spec_rejects_a_kappa_R_whose_square_is_not_a_normal_double(R, kappa):
    with pytest.raises(ValueError, match=re.escape(f"kappa = {kappa:g} and R = {R:g} give")):
        ProblemSpec(B=1.0, R=R, kappa=kappa)


@pytest.mark.parametrize("key, value", [
    ("B", 0.0), ("R", -1.0), ("kappa", np.inf), ("kappa_outside", -0.5), ("kappa_s", np.nan),
])
def test_spec_names_the_input_outside_its_domain(key, value):
    fields = {"B": 1.0, "R": 6.0, "kappa": 1.0, key: value}
    with pytest.raises(ValueError, match=f"^{key} must be .*, got {key} = {value:g}$"):
        ProblemSpec(**fields)
