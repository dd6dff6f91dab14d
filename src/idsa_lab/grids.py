"""
Radial meshes, fields on them, and the norms shared by every solver.

Conventions
-----------
* Grids are uniform and cell-centered on [0, r_max]: edges at i*dr for
  i = 0..n_cells, centers midway between consecutive edges.  No center sits
  at r = 0, so the 1/r and 1/r**2 factors of the spherical operators never
  hit the coordinate singularity.
* "Relative L2 error" always means the shell-weighted norm implemented
  here: the integrand carries the r**2 spherical volume weight.
* A scenario is a step absorption profile: level ``kappa`` inside the
  sphere of radius R, ``kappa_outside`` at r >= R, a constant scattering
  opacity ``kappa_s`` and a constant equilibrium level B.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform cell-centered radial mesh on [0, r_max]."""

    r_max: float
    n_cells: int
    r_edges: np.ndarray
    r_centers: np.ndarray
    dr: float

    def __eq__(self, other):
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.n_cells == other.n_cells and self.r_max == other.r_max

    def __hash__(self):
        return hash((self.r_max, self.n_cells))


def cell_width(r_max: float, n_cells: int) -> float:
    """
    The cell width of ``make_uniform_grid(r_max, n_cells)``, without building
    the grid: r_max positive and finite, n_cells an integer >= 2, and the
    width's square (the diffusion operators divide by it) a normal double.
    """
    if not 0 < r_max < np.inf:
        raise ValueError(f"r_max must be positive and finite, got r_max = {r_max:g}")
    if not (2 <= n_cells < np.inf and int(n_cells) == n_cells):
        raise ValueError(f"n_cells must be an integer >= 2, got n_cells = {n_cells}")
    dr = float(r_max) / int(n_cells)
    if not sys.float_info.min <= dr * dr < np.inf:
        raise ValueError(f"r_max = {r_max:g} over n_cells = {n_cells} gives the cell width"
                         f" {dr:g}, whose square is not a normal double")
    return dr


def make_uniform_grid(r_max: float, n_cells: int) -> RadialGrid:
    """A uniform cell-centered grid on [0, r_max], its domain that of ``cell_width``."""
    dr = cell_width(r_max, n_cells)
    edges = np.linspace(0.0, float(r_max), int(n_cells) + 1)
    return RadialGrid(r_max=float(r_max), n_cells=int(n_cells), r_edges=edges,
                      r_centers=0.5 * (edges[:-1] + edges[1:]), dr=dr)


@dataclass(eq=False)
class RadialField:
    """A real scalar profile sampled at the cell centers of a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field has {self.values.shape} values for a grid of "
                f"{self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def r(self) -> np.ndarray:
        return self.grid.r_centers

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy())


@dataclass(frozen=True)
class ProblemSpec:
    """
    Physical scenario: step absorption profile plus constant equilibrium.

    The absorption opacity is ``kappa`` for r < R and ``kappa_outside`` for
    r >= R; the scattering opacity ``kappa_s`` is constant everywhere.
    """

    B: float
    R: float
    kappa: float
    kappa_outside: float = 0.0
    kappa_s: float = 0.0

    def __post_init__(self):
        for key in ("B", "R", "kappa", "kappa_outside", "kappa_s"):
            x, may_vanish = getattr(self, key), key.startswith("kappa_")
            if not (0 < x < np.inf or may_vanish and x == 0):
                domain = ">= 0" if may_vanish else "positive"
                raise ValueError(f"{key} must be {domain} and finite, got {key} = {x:g}")
        # The closed-form boundary values divide by (2 kappa R)^2.
        x = 2.0 * self.kappa * self.R
        if not sys.float_info.min <= x * x < np.inf:
            raise ValueError(f"kappa = {self.kappa:g} and R = {self.R:g} give kappa*R = {x / 2:g},"
                             " whose (2 kappa R)^2 is not a normal double")

    def absorption(self, r: np.ndarray) -> np.ndarray:
        """Absorption opacity profile kappa_a(r) at the given radii."""
        return np.where(np.asarray(r, dtype=float) < self.R, self.kappa, self.kappa_outside)

    def total_opacity(self, r: np.ndarray) -> np.ndarray:
        """Total opacity kappa_a(r) + kappa_s."""
        return self.absorption(r) + self.kappa_s

    @property
    def is_bare_sphere(self) -> bool:
        """True when the profile is the pure step: no absorption outside, no scattering."""
        return self.kappa_outside == 0.0 and self.kappa_s == 0.0


class DegenerateNormError(ValueError):
    """The reference field has zero shell-weighted norm."""


def _require_same_grid(a: RadialField, b: RadialField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def shell_l2_norm(field: RadialField) -> float:
    """sqrt( sum_i r_i^2 f_i^2 dr ) — the volume-weighted L2 norm."""
    r = field.grid.r_centers
    return float(np.sqrt(np.sum(r * r * field.values**2) * field.grid.dr))


def l2_relative_error(approx: RadialField, exact: RadialField) -> float:
    """
    Shell-weighted relative L2 error of ``approx`` against ``exact``.

    Returns sqrt(sum r^2 (a-e)^2 dr) / sqrt(sum r^2 e^2 dr).  Raises
    DegenerateNormError when the reference norm vanishes.
    """
    _require_same_grid(approx, exact)
    den = shell_l2_norm(exact)
    if den == 0.0:
        raise DegenerateNormError("reference field is identically zero")
    num = shell_l2_norm(RadialField(exact.grid, approx.values - exact.values))
    return num / den


def pointwise_relative_error(approx: RadialField, exact: RadialField) -> RadialField:
    """Per-cell |a - e| / |e|.  Raises ZeroDivisionError if exact vanishes anywhere."""
    _require_same_grid(approx, exact)
    if np.any(exact.values == 0.0):
        i = int(np.argmin(np.abs(exact.values)))
        raise ZeroDivisionError(
            f"exact field vanishes at cell {i} (r = {exact.grid.r_centers[i]:g})"
        )
    return RadialField(exact.grid, np.abs(approx.values - exact.values) / np.abs(exact.values))
