"""Constraint solving, minimum-contrast fitting, Monte-Carlo deviation
tests, and the retained-mark density."""

import math

import numpy as np
import pytest

from matern_thinning import (DeviationTestSpec, FitProblem, FreeParameter,
                             InteractionFunction, MarkDistribution, ModelSpec,
                             PointPattern, SimConfig, WeightDistribution, Window,
                             deviation_test, fit_min_contrast,
                             make_interaction, simulate_model,
                             solve_lambda_constraint)
from matern_thinning.analytic import intensity, pcf
from matern_thinning.infer import radius_pdf_after_thinning
from matern_thinning.simulate import sample_poisson

B3 = 4.0 * math.pi / 3.0


def hardcore3d(params):
    return ModelSpec("mat1", params["lam"], 1.0,
                     make_interaction("hardcore", R=0.0607), 3)


class TestLambdaConstraint:
    TARGET = 39.17

    def test_two_roots_and_residual_identity(self):
        roots = solve_lambda_constraint(self.TARGET, hardcore3d)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(40.69202474991781, rel=1e-9)
        assert roots[1] == pytest.approx(5222.895079853061, rel=1e-9)
        for lam in roots:
            thinned = lam * math.exp(-lam * B3 * 0.0607 ** 3)
            assert thinned == pytest.approx(self.TARGET, rel=1e-12)

    def test_identity_when_thinning_negligible(self):
        def build(params):
            return ModelSpec("mat1", params["lam"], 1.0,
                             make_interaction("hardcore", R=1e-9), 2)
        roots = solve_lambda_constraint(2.5, build)
        assert roots[0] == pytest.approx(2.5, rel=1e-10)

    def test_no_root_above_supremum(self):
        assert solve_lambda_constraint(400.0, hardcore3d) == []

    def test_divergent_interaction_has_no_roots(self):
        def build(params):
            return ModelSpec("mat1", params["lam"], 1.0,
                             make_interaction("constant", p=0.5), 2)
        assert solve_lambda_constraint(1.0, build) == []

    def test_target_validation(self):
        with pytest.raises(ValueError):
            solve_lambda_constraint(0.0, hardcore3d)


class TestFreeParameter:
    def test_roundtrip_both_scales(self):
        for fp, v in ((FreeParameter("a", 0.1, 10.0, "log"), 0.73),
                      (FreeParameter("p0", 0.2, 1.0, "linear"), 0.9)):
            assert fp.from_internal(fp.to_internal(v)) == pytest.approx(v,
                                                                        rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FreeParameter("a", 1.0, 1.0)
        with pytest.raises(ValueError):
            FreeParameter("a", 0.0, 1.0, "log")
        with pytest.raises(ValueError):
            FreeParameter("a", 0.0, 1.0, "cubic")
        with pytest.raises(ValueError):
            FreeParameter("a", -math.inf, 1.0, "linear")


class TestFitProblemValidation:
    def test_lam_and_constraint_interplay(self):
        with pytest.raises(ValueError, match="'lam'"):
            FitProblem(hardcore3d, free=(), constraint="none",
                       pcf_reference=lambda r: r, intensity_target=1.0,
                       contrast_domain=(0.1, 1.0))
        with pytest.raises(ValueError, match="eliminated"):
            FitProblem(hardcore3d,
                       free=(FreeParameter("lam", 0.1, 10.0),),
                       pcf_reference=lambda r: r, intensity_target=1.0,
                       contrast_domain=(0.1, 1.0))

    def test_dataless_problem_needs_all_references(self):
        with pytest.raises(ValueError, match="without data"):
            FitProblem(hardcore3d, free=())

    def test_duplicate_free_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FitProblem(hardcore3d,
                       free=(FreeParameter("a", 0.1, 1.0),
                             FreeParameter("a", 0.1, 2.0)),
                       pcf_reference=lambda r: r, intensity_target=1.0,
                       contrast_domain=(0.1, 1.0))


class TestMinContrastFit:
    def test_constraint_alone_recovers_base_intensity(self):
        truth = ModelSpec("mat1", 0.3, 1.0, make_interaction("hardcore", R=1.0), 2)
        problem = FitProblem(
            build=lambda p: ModelSpec("mat1", p["lam"], 1.0,
                                      make_interaction("hardcore", R=1.0), 2),
            free=(),
            pcf_reference=lambda r: np.atleast_1d(pcf(truth, r)),
            intensity_target=intensity(truth),
            contrast_domain=(0.2, 3.0), grid=64)
        res = fit_min_contrast(problem)
        assert res.converged
        assert res.params["lam"] == pytest.approx(0.3, rel=1e-8)
        assert res.contrast < 1e-12
        assert res.constraint_residual < 1e-10

    def test_recovers_interaction_parameter_from_exact_curve(self):
        truth = ModelSpec("mat1", 0.3, 1.0,
                          make_interaction("example1", a=0.5, R=1.0), 2)
        problem = FitProblem(
            build=lambda p: ModelSpec(
                "mat1", p["lam"], 1.0,
                make_interaction("example1", a=p["a"], R=1.0), 2),
            free=(FreeParameter("a", 0.01, 0.99, "linear"),),
            pcf_reference=lambda r: np.atleast_1d(pcf(truth, r)),
            intensity_target=intensity(truth),
            contrast_domain=(0.2, 2.5), grid=48)
        res = fit_min_contrast(problem, seed=1, restarts=2, xatol=1e-8)
        assert res.converged
        assert res.params["a"] == pytest.approx(0.5, abs=1e-4)
        assert res.constraint_residual < 1e-8

    def test_errors_of_the_model_propagate(self):
        # 1e9 marks parameters that `build` rejects; an interaction that
        # raises is broken, and its error must not read as a bad fit
        def broken(r):
            raise ValueError("broken interaction")

        f = InteractionFunction("broken", {}, False, broken, lambda m, n: 1.0,
                                lambda m, n: ())

        def build(p):
            if p["p0"] > 0.9:
                raise ValueError("p0 outside the family's domain")
            return ModelSpec("mat1", p["lam"], p["p0"], f, 2)

        problem = FitProblem(build=build,
                             free=(FreeParameter("p0", 0.2, 1.0, "linear"),),
                             pcf_reference=np.ones_like, intensity_target=1.0,
                             contrast_domain=(0.1, 1.0), grid=16)
        with pytest.raises(ValueError, match="broken interaction"):
            fit_min_contrast(problem, restarts=1, maxiter=5)

    def test_fit_from_simulated_data_runs(self):
        spec = ModelSpec("mat1", 0.5, 1.0, make_interaction("hardcore", R=0.6), 2)
        data = simulate_model(spec, Window.box(2, 16.0), SimConfig(seed=77))
        problem = FitProblem(
            build=lambda p: ModelSpec(
                "mat1", p["lam"], 1.0,
                make_interaction("hardcore", R=p["R"]), 2),
            free=(FreeParameter("R", 0.1, 2.0, "log"),),
            data=data, contrast_domain=(0.35, 2.0), grid=32)
        res = fit_min_contrast(problem, seed=2, restarts=2, xatol=1e-4)
        assert res.converged
        assert 0.3 < res.params["R"] < 1.2
        assert res.spec.lam > 0


MODEL = ModelSpec("mat1", 5.0, 1.0, make_interaction("hardcore", R=0.2), 2)
DEV_WIN = Window.box(2, 4.0)


class TestDeviationTest:
    def test_deterministic_and_valid_p(self):
        data = simulate_model(MODEL, DEV_WIN, SimConfig(seed=9))
        ts = DeviationTestSpec(statistic="L", r_max=0.8, k=19, seed=3,
                               n_grid=32)
        a = deviation_test(data, MODEL, ts)
        b = deviation_test(data, MODEL, ts)
        assert a.p_value == b.p_value
        assert np.array_equal(a.deltas, b.deltas)
        assert a.p_value in {i / 20 for i in range(1, 21)}
        assert a.reference == "analytic"

    def test_well_specified_model_not_rejected(self):
        data = simulate_model(MODEL, DEV_WIN, SimConfig(seed=10))
        ts = DeviationTestSpec(statistic="L", r_max=0.8, k=39, seed=4,
                               n_grid=32)
        res = deviation_test(data, MODEL, ts)
        assert res.p_value > 0.05

    def test_poisson_data_rejects_hard_core_model(self):
        # nearest-neighbor cdf: Poisson data shows many sub-core pairs
        # that the model forbids, so the rank test pins the minimal p
        win = Window.box(2, 6.0)
        data = sample_poisson(win, intensity(MODEL), cfg=SimConfig(seed=11))
        ts = DeviationTestSpec(statistic="G", r_max=0.6, k=39, seed=5,
                               n_grid=32)
        res = deviation_test(data, MODEL, ts)
        assert res.p_value <= 0.05

    def test_simulated_reference_statistics_run(self):
        data = simulate_model(MODEL, DEV_WIN, SimConfig(seed=12))
        for stat in ("G", "F"):
            ts = DeviationTestSpec(statistic=stat, r_max=0.6, k=19, seed=6,
                                   n_grid=24, f_test_points=16)
            res = deviation_test(data, MODEL, ts)
            assert res.reference == "simulated"
            assert 0 < res.p_value <= 1

    def test_radius_pdf_statistic(self):
        mu = MarkDistribution.uniform(0.0, 0.2, quadrature_nodes=12)
        model = ModelSpec("mat2", 2.0, 1.0, make_interaction("marksum_hardcore"),
                          2, mu=mu, nu=WeightDistribution.uniform())
        data = simulate_model(model, Window.box(2, 6.0), SimConfig(seed=13))
        ts = DeviationTestSpec(statistic="radius-pdf", r_max=0.4, k=19,
                               seed=7, n_grid=16, reference="simulated")
        res = deviation_test(data, model, ts)
        assert 0 < res.p_value <= 1

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            DeviationTestSpec(statistic="L", r_max=1.0, k=5)
        with pytest.raises(ValueError, match="statistic"):
            DeviationTestSpec(statistic="J", r_max=1.0)
        data = simulate_model(MODEL, DEV_WIN, SimConfig(seed=14))
        with pytest.raises(ValueError, match="marked"):
            deviation_test(data, MODEL,
                           DeviationTestSpec(statistic="radius-pdf", r_max=0.5))


class TestRetainedMarkDensity:
    def test_point_mass_gives_degenerate_atom(self):
        model = ModelSpec("mat2", 1.0, 1.0, make_interaction("marksum_hardcore"),
                          3, mu=MarkDistribution.point_mass(0.125),
                          nu=WeightDistribution.uniform())
        t = radius_pdf_after_thinning(model)
        assert t.r.tolist() == [0.125]
        assert t.values.tolist() == [1.0]

    def test_negligible_thinning_recovers_prior(self):
        mu = MarkDistribution.uniform(1e-4, 2e-4, quadrature_nodes=12)
        model = ModelSpec("mat1-marked", 0.5, 1.0,
                          make_interaction("marksum_hardcore"), 2, mu=mu)
        grid = np.linspace(1e-4, 2e-4, 41)
        t = radius_pdf_after_thinning(model, grid)
        assert np.allclose(t.values, mu.pdf(grid), rtol=1e-6)

    def test_competition_shifts_density_to_small_marks(self):
        mu = MarkDistribution.gamma(2.0, 0.05, quadrature_nodes=24)
        model = ModelSpec("mat2", 5.0, 1.0, make_interaction("marksum_hardcore"),
                          2, mu=mu, nu=WeightDistribution.uniform())
        grid = np.linspace(1e-5, mu.support()[1], 400)
        t = radius_pdf_after_thinning(model, grid)
        assert np.trapezoid(t.values, grid) == pytest.approx(1.0, abs=1e-6)
        retained_mean = np.trapezoid(grid * t.values, grid)
        assert retained_mean < mu.mean()

    def test_requires_marked_model(self):
        model = ModelSpec("mat1", 1.0, 1.0, make_interaction("hardcore", R=1.0), 2)
        with pytest.raises(ValueError, match="marked"):
            radius_pdf_after_thinning(model)
