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


def make_uniform_grid(r_max: float, n_cells: int) -> RadialGrid:
    """
    Build a uniform cell-centered grid on [0, r_max].

    Parameters
    ----------
    r_max : float
        Outer edge of the domain.  Must be positive.
    n_cells : int
        Number of cells.  Must be at least 2.
    """
    if not np.isfinite(r_max) or r_max <= 0:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if int(n_cells) != n_cells or n_cells < 2:
        raise ValueError(f"n_cells must be an integer >= 2, got {n_cells}")
    n_cells = int(n_cells)
    edges = np.linspace(0.0, float(r_max), n_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return RadialGrid(
        r_max=float(r_max),
        n_cells=n_cells,
        r_edges=edges,
        r_centers=centers,
        dr=float(r_max) / n_cells,
    )


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
        if not (0 < self.B < np.inf):
            raise ValueError(f"B must be positive and finite, got {self.B}")
        if not (0 < self.R < np.inf):
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if not (0 < self.kappa < np.inf):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not (0 <= self.kappa_outside < np.inf):
            raise ValueError(f"kappa_outside must be >= 0 and finite, got {self.kappa_outside}")
        if not (0 <= self.kappa_s < np.inf):
            raise ValueError(f"kappa_s must be >= 0 and finite, got {self.kappa_s}")

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
