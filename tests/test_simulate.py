"""Seeded simulation: determinism, invariants, analytic cross-checks."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from matern_thinning import (MarkDistribution, ModelSpec, PointPattern,
                             SimConfig, WeightDistribution, Window,
                             make_interaction, simulate_model)
from matern_thinning.analytic import intensity
from matern_thinning.simulate import (pair_uniform, resolve_halo,
                                      sample_poisson, thin_mat1, thin_mat2)

WIN = Window.box(2, 10.0)


def hardcore_spec(lam=0.3, R=1.0, p0=1.0, d=2):
    return ModelSpec("mat1", lam, p0, make_interaction("hardcore", R=R), d)


def marked_spec(lam=1.0, p0=1.0):
    mu = MarkDistribution.uniform(0.0, 0.25, quadrature_nodes=16)
    return ModelSpec("mat1-marked", lam, p0,
                     make_interaction("marksum_hardcore"), 2, mu=mu)


def mat2_spec(lam=1.0, p0=1.0):
    mu = MarkDistribution.uniform(0.0, 0.25, quadrature_nodes=16)
    return ModelSpec("mat2", lam, p0, make_interaction("marksum_hardcore"), 2,
                     mu=mu, nu=WeightDistribution.uniform())


class TestCounterUniforms:
    def test_range_and_direction_asymmetry(self):
        key = np.uint64(12345)
        i = np.arange(1000, dtype=np.uint64)
        j = i + np.uint64(1)
        u_ij = pair_uniform(key, i, j)
        u_ji = pair_uniform(key, j, i)
        assert np.all((u_ij >= 0) & (u_ij < 1))
        assert not np.array_equal(u_ij, u_ji)
        # roughly uniform
        assert abs(u_ij.mean() - 0.5) < 0.05

    def test_reproducible(self):
        key = np.uint64(7)
        a = pair_uniform(key, np.uint64(3), np.uint64(9))
        b = pair_uniform(key, np.uint64(3), np.uint64(9))
        assert a == b


class TestPoissonSampling:
    def test_deterministic_per_seed_and_replicate(self):
        a = sample_poisson(WIN, 2.0, cfg=SimConfig(seed=42))
        b = sample_poisson(WIN, 2.0, cfg=SimConfig(seed=42))
        c = sample_poisson(WIN, 2.0, cfg=SimConfig(seed=42, replicate_index=1))
        d = sample_poisson(WIN, 2.0, cfg=SimConfig(seed=43))
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert len(d) != len(a) or not np.array_equal(a.points, d.points)

    def test_count_distribution(self):
        counts = [len(sample_poisson(WIN, 1.0, cfg=SimConfig(seed=1, replicate_index=i)))
                  for i in range(400)]
        mean = np.mean(counts)
        se = np.std(counts) / math.sqrt(len(counts))
        assert abs(mean - 100.0) < 4 * se + 1e-9

    def test_marks_and_weights_attached(self):
        mu = MarkDistribution.uniform(0.1, 0.2)
        nu = WeightDistribution.uniform()
        p = sample_poisson(WIN, 1.0, mu=mu, nu=nu, cfg=SimConfig(seed=3))
        assert p.marks is not None and np.all((p.marks >= 0.1) & (p.marks <= 0.2))
        assert p.weights is not None and np.all((p.weights >= 0) & (p.weights <= 1))


class TestThinningInvariants:
    def test_mutual_deletion_hard_core_distance(self):
        for i in range(20):
            p = simulate_model(hardcore_spec(), WIN, SimConfig(seed=5, replicate_index=i))
            if len(p) >= 2:
                dmin = cKDTree(p.points).query(p.points, k=2)[0][:, 1].min()
                assert dmin > 1.0

    def test_marked_hard_core_respects_mark_sums(self):
        for i in range(10):
            p = simulate_model(marked_spec(), WIN, SimConfig(seed=6, replicate_index=i))
            if len(p) >= 2:
                dist = np.linalg.norm(p.points[:, None] - p.points[None, :], axis=-1)
                sums = p.marks[:, None] + p.marks[None, :]
                np.fill_diagonal(dist, np.inf)
                assert np.all(dist > sums - 1e-12)

    def test_weighted_hard_core_respects_mark_sums(self):
        for i in range(10):
            p = simulate_model(mat2_spec(), WIN, SimConfig(seed=7, replicate_index=i))
            if len(p) >= 2:
                dist = np.linalg.norm(p.points[:, None] - p.points[None, :], axis=-1)
                sums = p.marks[:, None] + p.marks[None, :]
                np.fill_diagonal(dist, np.inf)
                assert np.all(dist > sums - 1e-12)

    def test_mat2_retains_superset_of_marked_mat1(self):
        # identical base pattern and uniforms: the competition rule can
        # only delete a subset of what mutual deletion removes
        mu = MarkDistribution.uniform(0.0, 0.25, quadrature_nodes=16)
        f = make_interaction("marksum_hardcore")
        for i in range(10):
            cfg = SimConfig(seed=8, replicate_index=i)
            base = sample_poisson(WIN.dilate(0.5), 1.0, mu=mu,
                                  nu=WeightDistribution.uniform(), cfg=cfg)
            kept1 = thin_mat1(base, f, 1.0, cfg, target_window=WIN)
            kept2 = thin_mat2(base, f, 1.0, cfg, target_window=WIN)
            set1 = {tuple(x) for x in kept1.points}
            set2 = {tuple(x) for x in kept2.points}
            assert set1 <= set2

    def test_mat2_at_risk_is_the_larger_or_tied_weight(self):
        # two points closer than their mark sum: f = 1 for the pair
        pts = np.array([[5.0, 5.0], [5.1, 5.0]])
        marks = np.array([0.1, 0.1])
        f = make_interaction("marksum_hardcore")
        cfg = SimConfig(seed=0)

        def base(weights):
            return PointPattern(WIN, pts, marks, np.array(weights))

        kept = thin_mat2(base([0.2, 0.8]), f, 1.0, cfg)
        assert np.array_equal(kept.weights, [0.2])
        assert len(thin_mat2(base([0.5, 0.5]), f, 1.0, cfg)) == 0
        assert len(thin_mat1(base([0.2, 0.8]), f, 1.0, cfg)) == 0

    def test_brute_force_equals_grid_enumeration(self):
        for spec, win in ((hardcore_spec(), WIN), (mat2_spec(), WIN)):
            a = simulate_model(spec, win, SimConfig(seed=9))
            b = simulate_model(spec, win, SimConfig(seed=9, brute_force_pairs=True))
            assert np.array_equal(a.points, b.points)

    def test_p0_thinning_halves_intensity(self):
        counts = {p0: 0 for p0 in (1.0, 0.5)}
        for p0 in counts:
            for i in range(200):
                p = simulate_model(hardcore_spec(p0=p0), WIN,
                                   SimConfig(seed=10, replicate_index=i))
                counts[p0] += len(p)
        ratio = counts[0.5] / counts[1.0]
        assert abs(ratio - 0.5) < 0.05

    def test_determinism_end_to_end(self):
        a = simulate_model(mat2_spec(), WIN, SimConfig(seed=11))
        b = simulate_model(mat2_spec(), WIN, SimConfig(seed=11))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.marks, b.marks)
        assert np.array_equal(a.weights, b.weights)


class TestHalo:
    def test_auto_halo_is_interaction_range(self):
        assert resolve_halo(SimConfig(seed=0), hardcore_spec(R=1.3)) == 1.3
        assert resolve_halo(SimConfig(seed=0, halo=2.0), hardcore_spec()) == 2.0

    def test_non_integrable_interaction_needs_explicit_halo(self):
        spec = ModelSpec("mat1", 0.5, 1.0, make_interaction("constant", p=0.5), 2)
        with pytest.raises(ValueError, match="halo"):
            resolve_halo(SimConfig(seed=0), spec)

    def test_doubling_halo_leaves_intensity_unchanged(self):
        # compact support: the halo already covers every possible killer,
        # so a larger halo only changes the Monte-Carlo noise
        spec = hardcore_spec()
        n = 600
        a = [len(simulate_model(spec, WIN, SimConfig(seed=12, replicate_index=i)))
             for i in range(n)]
        b = [len(simulate_model(spec, WIN,
                                SimConfig(seed=13, replicate_index=i, halo=2.0)))
             for i in range(n)]
        se_diff = math.sqrt(np.var(a) / n + np.var(b) / n)
        assert abs(np.mean(a) - np.mean(b)) < 3 * se_diff + 1e-9


class TestAgainstAnalyticIntensity:
    @pytest.mark.parametrize("spec,win,n", [
        (hardcore_spec(), WIN, 500),
        (marked_spec(), WIN, 300),
        (mat2_spec(), WIN, 300),
    ])
    def test_within_monte_carlo_error(self, spec, win, n):
        counts = np.array([
            len(simulate_model(spec, win, SimConfig(seed=14, replicate_index=i)))
            for i in range(n)])
        expected = intensity(spec) * win.volume()
        se = counts.std() / math.sqrt(n)
        assert abs(counts.mean() - expected) < 4 * se


class TestValidation:
    def test_sim_config(self):
        with pytest.raises(ValueError):
            SimConfig(seed=0, replicate_index=-1)
        with pytest.raises(ValueError):
            SimConfig(seed=0, halo=-1.0)

    def test_thin_mat2_requires_weights(self):
        base = sample_poisson(WIN, 0.5, mu=MarkDistribution.uniform(0.0, 0.2),
                              cfg=SimConfig(seed=1))
        with pytest.raises(ValueError, match="weighted"):
            thin_mat2(base, make_interaction("marksum_hardcore"), 1.0,
                      SimConfig(seed=1))
