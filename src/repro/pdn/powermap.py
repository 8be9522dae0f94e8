"""Die power (current-demand) maps.

The paper's per-VR current-sharing observations (16–27 A across the
A1 periphery VRs, 10–93 A across the A2 under-die VRs) imply a
non-uniform die demand profile.  The paper does not publish its map;
we model demand as a mixture of a uniform floor and a central Gaussian
hotspot — the standard first-order shape for a compute die whose core
cluster sits mid-die (DESIGN.md substitution #5).

A :class:`PowerMap` is a density over the unit square, scaled to a
total current.  ``cell_currents`` integrates it over a grid for the
PDN solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError, require_count, require_finite

DensityFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _cell_centers(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint coordinates of an ``ny x nx`` grid of cells over the
    unit square, as two ``(ny, nx)`` arrays."""
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    return np.meshgrid(xs, ys)


def _check_gaussian(sigma: float, floor: float) -> None:
    """Reject a non-finite or out-of-range hotspot radius or floor."""
    require_finite(sigma, "sigma")
    require_finite(floor, "floor")
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    if floor < 0:
        raise ConfigError("floor must be non-negative")


def _check_total(total_current_a: float) -> None:
    """Reject a non-finite or non-positive total current."""
    require_finite(total_current_a, "total_current_a")
    if total_current_a <= 0:
        raise ConfigError("total current must be positive")


def _gaussian_density(x, y, cx, cy, sigma: float, floor: float):
    """A unit-integral Gaussian at ``(cx, cy)`` over a uniform floor;
    the centers broadcast, so one call can evaluate many of them."""
    norm = 1.0 / (2.0 * math.pi * sigma**2)
    r2 = (x - cx) ** 2 + (y - cy) ** 2
    return floor + norm * np.exp(-r2 / (2.0 * sigma**2))


@dataclass(frozen=True)
class PowerMap:
    """A normalized current-demand density over the unit square.

    Attributes:
        name: label for reports.
        density: vectorized callable ``f(x, y)`` over [0,1]² returning
            non-negative relative density (need not integrate to 1;
            the map is renormalized when sampled).
    """

    name: str
    density: DensityFn

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def uniform() -> "PowerMap":
        """Uniform demand across the die."""
        return PowerMap("uniform", lambda x, y: np.ones_like(x))

    @staticmethod
    def gaussian(
        center: tuple[float, float] = (0.5, 0.5),
        sigma: float = 0.15,
        floor: float = 0.0,
    ) -> "PowerMap":
        """A Gaussian hotspot plus a uniform floor.

        Args:
            center: hotspot center in unit-square coordinates.
            sigma: hotspot radius (standard deviation, unit-square).
            floor: relative uniform floor added under the Gaussian
                (0 = pure hotspot; 1 = floor integrates to the same
                total as the Gaussian).
        """
        require_finite(center, "center")
        _check_gaussian(sigma, floor)
        cx, cy = center

        def density(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return _gaussian_density(x, y, cx, cy, sigma, floor)

        return PowerMap(f"gaussian(s={sigma},floor={floor})", density)

    @staticmethod
    def hotspot_mixture(
        uniform_fraction: float = 0.30, sigma: float = 0.10
    ) -> "PowerMap":
        """The default "compute die" map: ``uniform_fraction`` of the
        current drawn uniformly, the rest in a central Gaussian.

        The default parameters are calibrated so that the A1/A2 per-VR
        current spreads land near the paper's reported ranges.
        """
        require_finite(uniform_fraction, "uniform_fraction")
        require_finite(sigma, "sigma")
        if not 0.0 <= uniform_fraction <= 1.0:
            raise ConfigError("uniform fraction must be in [0, 1]")
        if sigma <= 0:
            raise ConfigError("sigma must be positive")
        norm = 1.0 / (2.0 * math.pi * sigma**2)

        def density(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
            hotspot = norm * np.exp(-r2 / (2.0 * sigma**2))
            return uniform_fraction + (1.0 - uniform_fraction) * hotspot

        return PowerMap(
            f"hotspot_mixture(u={uniform_fraction},s={sigma})", density
        )

    @staticmethod
    def multi_hotspot(
        centers: list[tuple[float, float]],
        sigma: float = 0.08,
        uniform_fraction: float = 0.4,
    ) -> "PowerMap":
        """Several equal hotspots over a uniform floor (chiplet-style)."""
        if not centers:
            raise ConfigError("at least one hotspot center required")
        require_finite(centers, "centers")
        require_finite(sigma, "sigma")
        require_finite(uniform_fraction, "uniform_fraction")
        if sigma <= 0:
            raise ConfigError("sigma must be positive")
        if not 0.0 <= uniform_fraction <= 1.0:
            raise ConfigError("uniform fraction must be in [0, 1]")
        norm = 1.0 / (2.0 * math.pi * sigma**2 * len(centers))

        def density(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            total = np.full_like(x, float(uniform_fraction))
            for cx, cy in centers:
                r2 = (x - cx) ** 2 + (y - cy) ** 2
                total = total + (1.0 - uniform_fraction) * norm * np.exp(
                    -r2 / (2.0 * sigma**2)
                )
            return total

        return PowerMap(f"multi_hotspot(n={len(centers)})", density)

    @staticmethod
    def from_array(values: np.ndarray) -> "PowerMap":
        """Build a map from a 2-D array of relative cell densities
        (nearest-cell sampling; array indexed [row=y][col=x])."""
        grid = np.asarray(values, dtype=float)
        if grid.ndim != 2 or grid.size == 0:
            raise ConfigError("expected a non-empty 2-D array")
        require_finite(grid, "values")
        if np.any(grid < 0):
            raise ConfigError("densities must be non-negative")
        if not np.any(grid > 0):
            raise ConfigError("at least one density must be positive")
        ny, nx = grid.shape

        def density(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            ix = np.clip((x * nx).astype(int), 0, nx - 1)
            iy = np.clip((y * ny).astype(int), 0, ny - 1)
            return grid[iy, ix]

        return PowerMap(f"from_array({ny}x{nx})", density)

    # -- sampling --------------------------------------------------------------

    def cell_currents(
        self, nx: int, ny: int, total_current_a: float
    ) -> np.ndarray:
        """Integrate the map onto an ``ny x nx`` grid of cells.

        Returns an array of per-cell sink currents summing exactly to
        ``total_current_a`` (midpoint rule + renormalization).
        """
        nx = require_count(nx, "nx", 1)
        ny = require_count(ny, "ny", 1)
        _check_total(total_current_a)
        grid_x, grid_y = _cell_centers(nx, ny)
        raw = np.asarray(self.density(grid_x, grid_y), dtype=float)
        if raw.shape != (ny, nx):
            raise ConfigError("density function returned the wrong shape")
        require_finite(raw, "density")
        if np.any(raw < 0):
            raise ConfigError("density produced negative values")
        total = raw.sum()
        if total <= 0:
            raise ConfigError("density integrates to zero")
        return raw * (total_current_a / total)

    def peak_to_mean(self, samples: int = 128) -> float:
        """Ratio of peak to mean density (hotspot severity metric)."""
        cells = self.cell_currents(samples, samples, 1.0)
        return float(cells.max() / cells.mean())


def hotspot_trajectory(
    waypoints: list[tuple[float, float]],
    steps: int,
    nx: int,
    ny: int,
    total_current_a: float,
    sigma: float = 0.10,
    floor: float = 0.30,
) -> np.ndarray:
    """A moving hotspot as a time-varying sink array, (steps, ny, nx).

    The hotspot center glides along the piecewise-linear path through
    ``waypoints`` (unit-square coordinates), one Gaussian-plus-floor
    map per sample, each integrating to ``total_current_a`` — the
    migrating-workload drive signal for
    :meth:`~repro.pdn.grid_transient.GridTransientPDN.simulate`
    (every row is a valid ``set_sink_array`` input).  Frame ``k`` equals
    ``PowerMap.gaussian(center_k, sigma, floor).cell_currents(nx, ny,
    total_current_a)``; all frames are evaluated as one array.
    """
    steps = require_count(steps, "steps", 2)
    nx = require_count(nx, "nx", 1)
    ny = require_count(ny, "ny", 1)
    if len(waypoints) < 2:
        raise ConfigError("a trajectory needs at least two waypoints")
    points = np.asarray(waypoints, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ConfigError("waypoints must be (x, y) pairs")
    require_finite(points, "waypoints")
    _check_gaussian(sigma, floor)
    _check_total(total_current_a)
    if np.any(points < 0.0) or np.any(points > 1.0):
        raise ConfigError("waypoints must lie inside the unit square")
    # Arc-length parameterization so the hotspot moves at constant
    # speed regardless of waypoint spacing.
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] == 0.0:
        centers = np.repeat(points[:1], steps, axis=0)
    else:
        at = np.linspace(0.0, arc[-1], steps)
        centers = np.column_stack(
            [np.interp(at, arc, points[:, 0]), np.interp(at, arc, points[:, 1])]
        )
    grid_x, grid_y = _cell_centers(nx, ny)
    raw = _gaussian_density(
        grid_x,
        grid_y,
        centers[:, 0, None, None],
        centers[:, 1, None, None],
        sigma,
        floor,
    )
    # Each frame is normalized by its own sum.  A frame is one
    # contiguous row here, reduced in the same order as the one-map
    # ``raw.sum()`` of cell_currents, so the frames match it bit for bit.
    totals = raw.reshape(steps, -1).sum(axis=1)
    if not np.all(totals > 0):
        raise ConfigError("density integrates to zero")
    return raw * (total_current_a / totals)[:, None, None]
