"""PowerMap tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pdn.powermap import PowerMap, hotspot_trajectory


class TestUniformMap:
    def test_cells_sum_to_total(self):
        cells = PowerMap.uniform().cell_currents(8, 8, 1000.0)
        assert cells.sum() == pytest.approx(1000.0)

    def test_cells_equal(self):
        cells = PowerMap.uniform().cell_currents(8, 8, 640.0)
        assert np.allclose(cells, 10.0)

    def test_peak_to_mean_is_one(self):
        assert PowerMap.uniform().peak_to_mean() == pytest.approx(1.0)

    def test_shape(self):
        cells = PowerMap.uniform().cell_currents(4, 6, 1.0)
        assert cells.shape == (6, 4)


class TestGaussianMap:
    def test_cells_sum_to_total(self):
        pmap = PowerMap.gaussian(sigma=0.2)
        cells = pmap.cell_currents(16, 16, 500.0)
        assert cells.sum() == pytest.approx(500.0)

    def test_center_is_peak(self):
        pmap = PowerMap.gaussian(sigma=0.15)
        cells = pmap.cell_currents(17, 17, 1.0)
        peak_index = np.unravel_index(np.argmax(cells), cells.shape)
        assert peak_index == (8, 8)

    def test_off_center(self):
        pmap = PowerMap.gaussian(center=(0.25, 0.75), sigma=0.1)
        cells = pmap.cell_currents(16, 16, 1.0)
        iy, ix = np.unravel_index(np.argmax(cells), cells.shape)
        assert ix < 8 and iy > 8

    def test_smaller_sigma_sharper(self):
        broad = PowerMap.gaussian(sigma=0.3).peak_to_mean()
        sharp = PowerMap.gaussian(sigma=0.1).peak_to_mean()
        assert sharp > broad

    def test_floor_softens(self):
        no_floor = PowerMap.gaussian(sigma=0.1).peak_to_mean()
        floored = PowerMap.gaussian(sigma=0.1, floor=1.0).peak_to_mean()
        assert floored < no_floor

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            PowerMap.gaussian(sigma=0.0)

    def test_rejects_negative_floor(self):
        with pytest.raises(ConfigError):
            PowerMap.gaussian(floor=-0.1)


class TestHotspotMixture:
    def test_default_calibration_severity(self):
        # The calibrated default must be a strong center hotspot
        # (peak-to-mean well above 4) to reproduce the paper's
        # 10-93 A under-die sharing spread.
        ratio = PowerMap.hotspot_mixture().peak_to_mean()
        assert 4.0 < ratio < 12.0

    def test_uniform_fraction_one_is_flat(self):
        ratio = PowerMap.hotspot_mixture(uniform_fraction=1.0).peak_to_mean()
        assert ratio == pytest.approx(1.0)

    def test_sum_preserved(self):
        cells = PowerMap.hotspot_mixture().cell_currents(24, 24, 1000.0)
        assert cells.sum() == pytest.approx(1000.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            PowerMap.hotspot_mixture(uniform_fraction=1.5)


class TestMultiHotspot:
    def test_peaks_at_centers(self):
        pmap = PowerMap.multi_hotspot(
            [(0.25, 0.25), (0.75, 0.75)], sigma=0.06, uniform_fraction=0.2
        )
        cells = pmap.cell_currents(32, 32, 1.0)
        # The two hotspot quadrants must hold far more current than
        # the two empty quadrants, and roughly equal shares.
        q_hot1 = cells[:16, :16].sum()
        q_hot2 = cells[16:, 16:].sum()
        q_cold = cells[:16, 16:].sum() + cells[16:, :16].sum()
        assert q_hot1 == pytest.approx(q_hot2, rel=0.05)
        assert q_hot1 > 2 * q_cold

    def test_rejects_empty_centers(self):
        with pytest.raises(ConfigError):
            PowerMap.multi_hotspot([])


class TestFromArray:
    def test_reproduces_blocks(self):
        grid = np.array([[1.0, 0.0], [0.0, 1.0]])
        pmap = PowerMap.from_array(grid)
        cells = pmap.cell_currents(2, 2, 100.0)
        assert cells[0, 0] == pytest.approx(50.0)
        assert cells[0, 1] == pytest.approx(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            PowerMap.from_array(np.array([[1.0, -1.0]]))

    def test_rejects_all_zero(self):
        with pytest.raises(ConfigError):
            PowerMap.from_array(np.zeros((2, 2)))

    def test_rejects_1d(self):
        with pytest.raises(ConfigError):
            PowerMap.from_array(np.ones(4))


class TestValidation:
    def test_rejects_zero_total(self):
        with pytest.raises(ConfigError):
            PowerMap.uniform().cell_currents(4, 4, 0.0)

    def test_rejects_zero_grid(self):
        with pytest.raises(ConfigError):
            PowerMap.uniform().cell_currents(0, 4, 1.0)


class TestHotspotTrajectory:
    @pytest.mark.parametrize(
        "waypoints, nx, ny, sigma, floor",
        [
            ([(0.1, 0.2), (0.9, 0.7)], 16, 16, 0.1, 0.3),
            ([(0.3, 0.3), (0.7, 0.2), (0.5, 0.9)], 24, 17, 0.17, 0.0),
            ([(0.4, 0.6), (0.4, 0.6)], 9, 12, 0.05, 1.0),
        ],
    )
    def test_frames_equal_the_per_frame_maps(
        self, waypoints, nx, ny, sigma, floor
    ):
        # The reference builds one Gaussian map per sample along the
        # same arc-length parameterization; the array pass must match
        # it bit for bit.
        steps, total = 41, 123.4
        points = np.asarray(waypoints)
        arc = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))]
        )
        at = np.linspace(0.0, arc[-1], steps)
        if arc[-1] == 0.0:
            centers = np.repeat(points[:1], steps, axis=0)
        else:
            centers = np.column_stack(
                [np.interp(at, arc, points[:, 0]), np.interp(at, arc, points[:, 1])]
            )
        expected = np.stack(
            [
                PowerMap.gaussian(
                    (float(cx), float(cy)), sigma=sigma, floor=floor
                ).cell_currents(nx, ny, total)
                for cx, cy in centers
            ]
        )
        frames = hotspot_trajectory(
            waypoints, steps, nx, ny, total, sigma=sigma, floor=floor
        )
        np.testing.assert_array_equal(frames, expected)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(waypoints=[(0.2, 0.2), (np.nan, 0.5)]), "waypoints"),
            (dict(sigma=np.nan), "sigma"),
            (dict(floor=np.nan), "floor"),
            (dict(total_current_a=np.nan), "total_current_a"),
            (dict(total_current_a=np.inf), "total_current_a"),
            (dict(steps=2.5), "steps"),
            (dict(nx=2.5), "nx"),
            (dict(ny=np.nan), "ny"),
        ],
    )
    def test_bad_inputs_fail_by_name(self, kwargs, name):
        args = dict(
            waypoints=[(0.2, 0.2), (0.8, 0.5)],
            steps=10,
            nx=4,
            ny=4,
            total_current_a=1.0,
        ) | kwargs
        with pytest.raises(ConfigError, match=name):
            hotspot_trajectory(**args)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: PowerMap.gaussian(center=(np.nan, 0.5)), "center"),
            (lambda: PowerMap.gaussian(sigma=np.nan), "sigma"),
            (lambda: PowerMap.gaussian(floor=np.inf), "floor"),
            (lambda: PowerMap.hotspot_mixture(sigma=np.nan), "sigma"),
            (
                lambda: PowerMap.hotspot_mixture(uniform_fraction=np.nan),
                "uniform_fraction",
            ),
            (
                lambda: PowerMap.multi_hotspot([(0.2, 0.2), (0.5, np.nan)]),
                "centers",
            ),
            (lambda: PowerMap.multi_hotspot([(0.5, 0.5)], sigma=np.nan), "sigma"),
            (
                lambda: PowerMap.multi_hotspot(
                    [(0.5, 0.5)], uniform_fraction=np.nan
                ),
                "uniform_fraction",
            ),
            (lambda: PowerMap.from_array(np.array([[1.0, np.nan]])), "values"),
        ],
    )
    def test_constructors_name_the_argument(self, build, name):
        with pytest.raises(ConfigError, match=name):
            build()

    @pytest.mark.parametrize(
        "args, name",
        [
            ((4, 4, np.nan), "total_current_a"),
            ((4, 4, np.inf), "total_current_a"),
            ((2.5, 4, 1.0), "nx"),
            ((4, 2.5, 1.0), "ny"),
        ],
    )
    def test_cell_currents_name_the_argument(self, args, name):
        with pytest.raises(ConfigError, match=name):
            PowerMap.uniform().cell_currents(*args)

    def test_non_finite_density_raises(self):
        pmap = PowerMap("broken", lambda x, y: np.where(x < 0.5, 1.0, np.nan))
        with pytest.raises(ConfigError, match="density"):
            pmap.cell_currents(4, 4, 1.0)
