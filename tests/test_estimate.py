"""Summary-statistic estimators checked against exact Poisson theory and
against the exact model intensity/pcf of a hard-core thinned process."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from matern_thinning import (EstimatorConfig, ModelSpec, PointPattern,
                             SimConfig, Window, ball_volume, make_interaction,
                             simulate_model)
from matern_thinning.analytic import pcf
from matern_thinning.estimate import (estimate_F, estimate_G, estimate_K,
                                      estimate_L, estimate_pcf,
                                      expected_pcf_estimate, resolve_bandwidth,
                                      resolve_r_grid)
from matern_thinning.simulate import sample_poisson

WIN = Window.box(2, 10.0)
LAM = 5.0
N_REPS = 150
CFG = EstimatorConfig(n_points=32, r_max=2.0, intensity=LAM)


@pytest.fixture(scope="module")
def poisson_reps():
    return [sample_poisson(WIN, LAM, cfg=SimConfig(seed=100, replicate_index=i))
            for i in range(N_REPS)]


def mean_and_se(curves):
    arr = np.asarray(curves)
    return arr.mean(axis=0), arr.std(axis=0, ddof=1) / math.sqrt(len(arr))


class TestPoissonCalibration:
    def test_k_function_unbiased(self, poisson_reps):
        mean, se = mean_and_se([estimate_K(p, CFG).values for p in poisson_reps])
        expected = math.pi * resolve_r_grid(WIN, CFG) ** 2
        z = (mean - expected) / se
        assert np.max(np.abs(z)) < 4.5

    def test_l_function_close_to_identity(self, poisson_reps):
        # L inherits a small-sample sqrt bias at the smallest radii, so
        # skip the first few bins
        mean, se = mean_and_se([estimate_L(p, CFG).values for p in poisson_reps])
        r = resolve_r_grid(WIN, CFG)
        z = (mean - r)[4:] / se[4:]
        assert np.max(np.abs(z)) < 4.5

    def test_pcf_matches_smoothed_flat_curve(self, poisson_reps):
        tables = [estimate_pcf(p, CFG) for p in poisson_reps]
        mean, se = mean_and_se([t.values for t in tables])
        r = tables[0].r
        h = resolve_bandwidth(poisson_reps[0], CFG)
        expected = expected_pcf_estimate(lambda t: 1.0, r, h, 2)
        mask = tables[0].defined()
        z = (mean - expected)[mask] / se[mask]
        assert np.max(np.abs(z)) < 4.5

    def test_empty_space_function_law(self, poisson_reps):
        mean, se = mean_and_se([estimate_F(p, CFG).values for p in poisson_reps])
        r = resolve_r_grid(WIN, CFG)
        expected = 1.0 - np.exp(-LAM * math.pi * r ** 2)
        z = (mean - expected) / np.maximum(se, 1e-12)
        assert np.max(np.abs(z[expected < 0.9999])) < 4.5

    def test_g_equals_f_for_poisson(self, poisson_reps):
        g_mean, g_se = mean_and_se([estimate_G(p, CFG).values for p in poisson_reps])
        f_mean, f_se = mean_and_se([estimate_F(p, CFG).values for p in poisson_reps])
        se = np.sqrt(g_se ** 2 + f_se ** 2)
        z = (g_mean - f_mean) / np.maximum(se, 1e-12)
        assert np.max(np.abs(z[np.maximum(g_mean, f_mean) < 0.9999])) < 4.5

    def test_cdf_estimates_are_honest(self, poisson_reps):
        for p in poisson_reps[:20]:
            for est in (estimate_G, estimate_F):
                v = est(p, CFG).values
                assert np.all(v >= 0.0) and np.all(v <= 1.0)
                assert np.all(np.diff(v) >= -1e-15)


HARDCORE_SPEC = ModelSpec("mat1", 0.3, 1.0,
                          make_interaction("hardcore", R=1.0), 2)
HARDCORE_WIN = Window.box(2, 20.0)


@pytest.fixture(scope="module")
def reps():
    return [simulate_model(HARDCORE_SPEC, HARDCORE_WIN,
                           SimConfig(seed=200, replicate_index=i))
            for i in range(120)]


class TestHardCoreModel:
    SPEC = HARDCORE_SPEC
    WIN = HARDCORE_WIN

    def test_pcf_vanishes_inside_the_core(self, reps):
        lam_th = 0.3 * math.exp(-0.3 * math.pi)
        cfg = EstimatorConfig(n_points=40, r_max=2.5, bandwidth=0.12,
                              intensity=lam_th)
        mean, _ = mean_and_se([estimate_pcf(p, cfg).values for p in reps])
        r = resolve_r_grid(self.WIN, cfg)
        inside = (r > 0.12) & (r < 1.0 - 0.12)
        assert np.nanmax(mean[inside]) < 0.05

    def test_pcf_matches_analytic_curve(self, reps):
        lam_th = 0.3 * math.exp(-0.3 * math.pi)
        cfg = EstimatorConfig(n_points=40, r_max=2.5, bandwidth=0.12,
                              intensity=lam_th)
        tables = [estimate_pcf(p, cfg) for p in reps]
        mean, se = mean_and_se([t.values for t in tables])
        r = tables[0].r
        fine = np.linspace(1e-4, 3.2, 800)
        spline = CubicSpline(np.concatenate([[0.0], fine]),
                             np.concatenate([[0.0], pcf(self.SPEC, fine)]))
        expected = expected_pcf_estimate(
            lambda t: max(float(spline(t)), 0.0) if t >= 1.0 else 0.0,
            r, 0.12, 2, breakpoints=(1.0,))
        mask = tables[0].defined()
        z = (mean - expected)[mask] / np.maximum(se[mask], 1e-12)
        assert np.max(np.abs(z)) < 4.5

    def test_nearest_neighbor_cdf_zero_below_core(self, reps):
        cfg = EstimatorConfig(n_points=40, r_max=2.5)
        r = resolve_r_grid(self.WIN, cfg)
        for p in reps[:30]:
            if len(p) >= 2:
                g = estimate_G(p, cfg).values
                assert np.all(g[r < 1.0] == 0.0)


class TestInvariances:
    def test_translation_invariance(self):
        p = sample_poisson(WIN, 2.0, cfg=SimConfig(seed=33))
        q = p.translate(np.array([13.0, -4.5]))
        cfg = EstimatorConfig(n_points=16, r_max=2.0)
        for est in (estimate_pcf, estimate_K, estimate_G, estimate_F):
            a, b = est(p, cfg).values, est(q, cfg).values
            assert np.allclose(a, b, equal_nan=True, rtol=1e-12, atol=1e-12)

    def test_pcf_equals_dense_kernel_sum(self):
        # the estimator sums the kernel over blocks of pairs; here over all
        # ordered pairs at once, from the full distance matrix
        for win, lam in ((WIN, 5.0), (WIN, 0.5), (Window.box(3, 6.0), 2.0)):
            p = sample_poisson(win, lam, cfg=SimConfig(seed=35))
            cfg = EstimatorConfig(n_points=24, r_max=2.0)
            d, h = win.dim, resolve_bandwidth(p, cfg)
            r = resolve_r_grid(win, cfg)
            delta = p.points[:, None, :] - p.points[None, :, :]
            dist = np.linalg.norm(delta, axis=-1)
            w = np.prod(win.sides - np.abs(delta), axis=-1)
            off = ~np.eye(len(p), dtype=bool)
            u = (r[:, None] - dist[off][None, :]) / h
            kern = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u) / h, 0.0)
            dense = (kern / w[off]).sum(axis=1) / (
                d * ball_volume(d) * p.intensity() ** 2 * r ** (d - 1))
            dense[r <= h] = np.nan
            assert np.allclose(estimate_pcf(p, cfg).values, dense,
                               rtol=1e-12, atol=0.0, equal_nan=True)

    def test_point_order_invariance(self):
        p = sample_poisson(WIN, 2.0, cfg=SimConfig(seed=34))
        perm = np.random.default_rng(0).permutation(len(p))
        q = PointPattern(p.window, p.points[perm])
        cfg = EstimatorConfig(n_points=16, r_max=2.0)
        for est in (estimate_pcf, estimate_K, estimate_G):
            assert np.allclose(est(p, cfg).values, est(q, cfg).values,
                               equal_nan=True, rtol=1e-12, atol=1e-12)


class TestConfigAndEdgeCases:
    def test_r_max_capped_by_window(self):
        with pytest.raises(ValueError, match="half the shortest"):
            resolve_r_grid(WIN, EstimatorConfig(r_max=5.0))
        r = resolve_r_grid(WIN, EstimatorConfig(n_points=10))
        assert r[-1] == pytest.approx(2.5) and len(r) == 10 and r[0] > 0

    def test_bandwidth_rules(self):
        p = sample_poisson(WIN, 4.0, cfg=SimConfig(seed=1))
        assert resolve_bandwidth(p, EstimatorConfig(bandwidth=0.3)) == 0.3
        auto = resolve_bandwidth(p, EstimatorConfig(intensity=4.0))
        assert auto == pytest.approx(0.15 / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(bandwidth=-1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(n_points=1)
        with pytest.raises(ValueError):
            EstimatorConfig(intensity=0.0)

    def test_small_patterns(self):
        one = PointPattern(WIN, np.array([[5.0, 5.0]]))
        cfg = EstimatorConfig(n_points=8, r_max=1.0)
        assert np.all(estimate_G(one, cfg).values == 0.0)
        assert np.all(estimate_K(one, cfg).values == 0.0)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_pcf(one, cfg)
        empty = PointPattern(WIN, np.empty((0, 2)))
        assert np.all(estimate_F(empty, cfg).values == 0.0)
        with pytest.raises(ValueError, match="nonempty"):
            estimate_G(empty, cfg)

    def test_erosion_can_exhaust_reference_points(self):
        pts = np.array([[0.5, 0.5], [9.5, 9.5], [0.5, 9.5]])
        p = PointPattern(WIN, pts)
        cfg = EstimatorConfig(n_points=8, r_max=4.9)
        with pytest.raises(ValueError, match="erosion"):
            estimate_G(p, cfg)
