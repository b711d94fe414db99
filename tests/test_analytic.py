"""Exact characteristics: quadrature oracles and structural identities."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from matern_thinning import InteractionFunction, MarkDistribution, ModelSpec, \
    WeightDistribution, analytic, ball_volume, make_interaction
from matern_thinning.analytic import (DivergentModelError, ModelKernel,
                                      ball_intersection, competition_integral,
                                      intensity, intensity_mat2,
                                      intensity_profile, intensity_report,
                                      k_function, l_function, pcf,
                                      radial_self_convolution,
                                      retained_mark_density, space_integral,
                                      tail_integral)


def lens_area(R, r):
    """Area of the intersection of two disks of radius R at distance r."""
    if r >= 2 * R:
        return 0.0
    return 2 * R * R * math.acos(r / (2 * R)) - 0.5 * r * math.sqrt(
        4 * R * R - r * r)


def sphere_overlap(R, r):
    """Volume of the intersection of two balls of radius R at distance r."""
    if r >= 2 * R:
        return 0.0
    return math.pi / 12.0 * (4 * R + r) * (2 * R - r) ** 2


def two_atom_spec(quadrature_nodes=64):
    """Marks 0.1 and 0.25 with probability 1/2 each, mark-indexed weights
    nu_m = U(0, 1 + 4m), mark-sum hard core, lam = 1, d = 2."""
    nu = WeightDistribution(dist=None, quadrature_nodes=quadrature_nodes,
                            per_mark=lambda m: stats.uniform(0.0, 1.0 + 4.0 * m))
    return ModelSpec("mat2", 1.0, 1.0, make_interaction("marksum_hardcore"), 2,
                     mu=MarkDistribution.finite_discrete([0.1, 0.25], [0.5, 0.5]),
                     nu=nu)


class TestRadialSelfConvolution:
    def test_indicator_d2_equals_lens_area(self):
        hc = make_interaction("hardcore", R=1.0).slice()
        for r in (0.0, 0.3, 1.0, 1.7, 2.5):
            assert radial_self_convolution(hc, hc, 2, r) == pytest.approx(
                lens_area(1.0, r), rel=1e-8, abs=1e-10)

    def test_indicator_d3_equals_sphere_overlap(self):
        hc = make_interaction("hardcore", R=0.7).slice()
        for r in (0.0, 0.2, 0.7, 1.1, 1.5):
            assert radial_self_convolution(hc, hc, 3, r) == pytest.approx(
                sphere_overlap(0.7, r), abs=1e-11)

    def test_indicator_d1_equals_interval_overlap(self):
        hc = make_interaction("hardcore", R=1.0).slice()
        for r in (0.0, 0.5, 1.3, 2.1):
            assert radial_self_convolution(hc, hc, 1, r) == pytest.approx(
                max(0.0, 2.0 - r), abs=1e-12)

    # values frozen from an independent Cartesian double quadrature
    SMOOTH_ORACLE = {
        (0.5, 0.0): 1.19814023473414, (0.5, 0.7): 0.986245273052248,
        (0.5, 2.0): 0.270551681321642,
        (2.0, 0.0): 0.785398163397449, (2.0, 0.7): 0.633184432206387,
        (2.0, 2.0): 0.318876248690727,
    }

    def test_smooth_d2_against_frozen_double_quadrature(self):
        for (a, r), val in self.SMOOTH_ORACLE.items():
            sl = make_interaction("example2", a=a).slice()
            assert radial_self_convolution(sl, sl, 2, r) == pytest.approx(
                val, rel=1e-8)

    # example2 with a = 8 peaks sharply over the sphere; frozen from a
    # nested adaptive quadrature (scipy quad, epsrel 1e-12) in (s, phi)
    PEAKED_ORACLE = {(2, 2.7734): 0.12544854547004622,
                     (3, 2.7734): 0.5620211279258424}

    def test_peaked_smooth_against_frozen_nested_quadrature(self):
        sl = make_interaction("example2", a=8.0).slice()
        for (d, r), val in self.PEAKED_ORACLE.items():
            assert radial_self_convolution(sl, sl, d, r) == pytest.approx(
                val, rel=1e-7)

    # mixed smooth x indicator, frozen from an independent polar quadrature
    MIXED_ORACLE = {0.0: 1.84343926643655, 0.5: 1.44555390097396,
                    1.3: 0.419268615206808}

    def test_mixed_kernels_and_symmetry_of_roles(self):
        s1 = make_interaction("example1", a=0.6, R=1.0).slice()
        s2 = make_interaction("hardcore", R=0.8).slice()
        for r, val in self.MIXED_ORACLE.items():
            assert radial_self_convolution(s1, s2, 2, r) == pytest.approx(
                val, rel=1e-8)
            assert radial_self_convolution(s2, s1, 2, r) == pytest.approx(
                val, rel=1e-8)

    def test_finite_near_zero_and_tangency(self):
        # r -> 0 and r within 1e-9 of a sum of breakpoints: each value is
        # finite and within 1e-8 relative of the value at the limit r0,
        # plus a relative slope of at most 10 per unit r (the softshell
        # value falls by 4e-8 relative from r = 0 to r = 1e-7)
        soft = make_interaction("softshell", R=0.3, a=2.0, b=0.05).slice()
        ex2 = make_interaction("example2", a=1.0).slice()
        ex1 = make_interaction("example1", a=0.6, R=1.0).slice()
        hc = make_interaction("hardcore", R=0.25).slice()
        cases = ((soft, soft, 0.0, (1e-11, 1e-9, 1e-7)),
                 (soft, soft, 0.6, (0.6 - 1e-9, 0.6 + 1e-9)),
                 (ex2, ex2, 0.0, (1e-11,)),
                 (ex1, hc, 0.85, (0.85 - 1e-9, 0.85 + 1e-9)))
        for s1, s2, r0, radii in cases:
            limit = radial_self_convolution(s1, s2, 2, r0)
            for r in radii:
                val = radial_self_convolution(s1, s2, 2, r)
                assert math.isfinite(val)
                assert val == pytest.approx(limit, rel=1e-8 + 10.0 * abs(r - r0))

    def test_vanishes_beyond_joint_support(self):
        hc = make_interaction("hardcore", R=1.0).slice()
        assert radial_self_convolution(hc, hc, 2, 2.0) == 0.0
        assert radial_self_convolution(hc, hc, 2, 5.0) == 0.0

    def test_non_integrable_raises(self):
        c = make_interaction("constant", p=0.5).slice()
        with pytest.raises(DivergentModelError):
            radial_self_convolution(c, c, 2, 1.0)


def ball_intersection_mp(a, b, r, d):
    """Intersection volume of two d-balls at 40 digits, from the float
    inputs taken exactly."""
    with mpmath.workdps(40):
        a, b, r = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(r)
        if r >= a + b:
            return 0.0
        lo = min(a, b)
        if r <= abs(a - b):
            return float({1: 2 * lo, 2: mpmath.pi * lo ** 2,
                          3: 4 * mpmath.pi / 3 * lo ** 3}[d])
        if d == 1:
            return float(a + b - r)
        if d == 3:
            return float(mpmath.pi * (a + b - r) ** 2
                         * (r * r + 2 * r * (a + b) - 3 * (a - b) ** 2)
                         / (12 * r))
        alpha = mpmath.acos((r * r + a * a - b * b) / (2 * r * a))
        beta = mpmath.acos((r * r + b * b - a * a) / (2 * r * b))
        heron = mpmath.sqrt((a + b - r) * (r + a - b) * (r - a + b)
                            * (r + a + b))
        return float(a * a * alpha + b * b * beta - heron / 2)


class TestBallIntersection:
    RADII = ((0.5, 0.5), (0.3, 0.8), (1.0, 0.25))

    @classmethod
    def cases(cls, tangent):
        """(a, b, r): r = 0, nested, partly overlapping and disjoint, or
        within 1e-9 of either tangency."""
        for a, b in cls.RADII:
            s, t = a + b, abs(a - b)
            rs = ([t - 1e-9, t + 1e-9, s - 1e-9, s + 1e-9] if tangent else
                  [0.0, 0.5 * t, t, 0.5 * (s + t), 0.2 * t + 0.8 * s, s, 2 * s])
            yield from ((a, b, r) for r in rs if r >= 0.0)

    @staticmethod
    def tolerance(a, b, d, rel, vol=1e-14):
        # near outer tangency the volume is a small difference: its
        # absolute error is a rounding error of the ball volume
        return dict(rel=rel, abs=vol * ball_volume(d) * max(a, b) ** d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_quadrature(self, d):
        rel = 1e-13 if d == 2 else 1e-14
        small = [(a, b, r) for a, b in self.RADII for r in (1e-11, 1e-7, 1e-5)]
        for tangent, cases in ((False, [*self.cases(False), *small]),
                               (True, self.cases(True))):
            for a, b, r in cases:
                s1 = make_interaction("hardcore", R=a).slice()
                s2 = make_interaction("hardcore", R=b).slice()
                quad = radial_self_convolution(s1, s2, d, r)
                tol = (self.tolerance(a, b, d, rel, rel) if tangent
                       else dict(rel=rel, abs=0.0))
                assert ball_intersection(a, b, r, d) == pytest.approx(quad, **tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_mpmath(self, d):
        for tangent in (False, True):
            for a, b, r in self.cases(tangent):
                assert ball_intersection(a, b, r, d) == pytest.approx(
                    ball_intersection_mp(a, b, r, d),
                    **self.tolerance(a, b, d, 1e-12))

    def test_broadcasts_over_arrays(self):
        a = np.array([0.5, 0.3, 1.0])[:, None]
        r = np.linspace(0.0, 1.5, 7)
        vol = ball_intersection(a, 0.8, r, 2)
        assert vol.shape == (3, 7)
        assert vol == pytest.approx(np.array(
            [[ball_intersection_mp(ai, 0.8, ri, 2) for ri in r]
             for ai in a[:, 0]]), rel=1e-12, abs=1e-15)

    def test_strauss_scales_by_both_heights(self):
        s1 = make_interaction("strauss", f0=0.3, R=0.5)
        s2 = make_interaction("strauss", f0=0.6, R=0.8)
        r = np.array([0.0, 0.2, 0.9, 1.2])
        for d in (1, 2, 3):
            rel = 1e-13 if d == 2 else 1e-14
            for ri in r:
                assert radial_self_convolution(s1, s2, d, ri) == pytest.approx(
                    0.18 * ball_intersection(0.5, 0.8, ri, d), rel=rel)
            # the kernel's closed form carries the same c1 c2 = f0^2
            conv = ModelKernel(ModelSpec("mat1", 1.0, 1.0, s1, d))._conv_tensor(r)
            assert conv[:, 0, 0, 0] == pytest.approx(
                0.09 * ball_intersection(0.5, 0.5, r, d), rel=1e-15, abs=0.0)


class TestIndicatorRouting:
    """Kernels of indicator interactions build the conv tensor in closed
    form and never reach the scalar quadrature."""

    @staticmethod
    def no_quadrature(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar radial convolution called")
        monkeypatch.setattr(analytic, "radial_self_convolution", refuse)

    @staticmethod
    def forced_quadrature(monkeypatch):
        # no interaction declares itself an indicator
        monkeypatch.setattr(InteractionFunction, "indicator",
                            lambda self, m=None, n=None: None)

    @staticmethod
    def marksum(variant, nodes):
        mu = MarkDistribution.uniform(0.0, 0.25, quadrature_nodes=nodes)
        return ModelSpec(variant, 1.0, 1.0, make_interaction("marksum_hardcore"),
                         2, mu=mu, nu=WeightDistribution.uniform())

    def both_paths(self, monkeypatch, evaluate):
        with monkeypatch.context() as patch:
            self.no_quadrature(patch)
            closed = evaluate()
        calls = []
        with monkeypatch.context() as patch:
            self.forced_quadrature(patch)
            scalar = analytic.radial_self_convolution
            patch.setattr(analytic, "radial_self_convolution",
                          lambda *args: calls.append(args) or scalar(*args))
            quad = evaluate()
        assert len(calls) > 0       # the second path ran the scalar quadrature
        return closed, quad

    def test_hardcore_L(self, monkeypatch):
        spec = ModelSpec("mat1", 10.0, 1.0, make_interaction("hardcore", R=0.2), 2)
        r = np.linspace(0.025, 0.8, 32)
        closed, quad = self.both_paths(monkeypatch, lambda: l_function(spec, r))
        assert closed == pytest.approx(quad, rel=1e-8)

    @pytest.mark.parametrize("variant, method", [
        ("mat1-marked", "auto"), ("mat2", "closed"), ("mat2", "direct")])
    def test_marksum_pcf(self, monkeypatch, variant, method):
        spec = two_atom_spec() if method == "direct" else self.marksum(variant, 8)
        r = np.linspace(0.05, 0.75, 8)
        closed, quad = self.both_paths(monkeypatch,
                                       lambda: pcf(spec, r, method=method))
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_default_mark_nodes_bounded_memory(self, monkeypatch):
        self.no_quadrature(monkeypatch)
        spec = self.marksum("mat2", 64)
        assert len(spec.mu.quadrature()[0]) == 64
        tracemalloc.start()
        try:
            g = pcf(spec, np.linspace(0.005, 0.75, 128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(g)) and g[-1] == pytest.approx(1.0, abs=1e-3)
        assert peak < 100 * 2 ** 20


class TestIntensity:
    def test_hardcore_closed_form(self):
        for lam, R, d in ((0.3, 1.0, 2), (1.0, 0.25, 3), (0.5, 0.7, 1)):
            spec = ModelSpec("mat1", lam, 1.0, make_interaction("hardcore", R=R), d)
            from matern_thinning import ball_volume
            expected = lam * math.exp(-lam * ball_volume(d) * R ** d)
            assert intensity(spec) == pytest.approx(expected, rel=1e-12)

    def test_p0_scales_intensity(self):
        f = make_interaction("hardcore", R=1.0)
        full = intensity(ModelSpec("mat1", 0.3, 1.0, f, 2))
        half = intensity(ModelSpec("mat1", 0.3, 0.5, f, 2))
        assert half == pytest.approx(0.5 * full, rel=1e-14)

    def test_divergent_interaction_reports_zero(self):
        spec = ModelSpec("mat1", 0.5, 1.0, make_interaction("constant", p=0.5), 2)
        report = intensity_report(spec)
        assert report.value == 0.0 and report.divergent
        assert "non-integrable" in report.message
        assert math.isinf(space_integral(spec.f, 2))
        assert math.isinf(tail_integral(spec.f, 2))

    def test_profile_matches_direct_evaluation(self):
        mu = MarkDistribution.uniform(0.1, 0.3, quadrature_nodes=12)
        point = MarkDistribution.point_mass(0.2)
        specs = [
            ModelSpec("mat1", 1.0, 0.8, make_interaction("hardcore", R=0.5), 2),
            ModelSpec("mat1-marked", 1.0, 0.7,
                      make_interaction("marksum_hardcore"), 2, mu=mu),
            ModelSpec("mat2", 1.0, 0.9, make_interaction("fc", c=10.0), 2,
                      mu=mu, nu=WeightDistribution.uniform()),
            ModelSpec("mat2", 1.0, 1.0, make_interaction("marksum_hardcore"),
                      2, mu=point, nu=WeightDistribution.mark_indexed(
                          lambda m: stats.uniform(0.0, 1.0 + 4.0 * m))),
            two_atom_spec(),
        ]
        r = np.array([0.3, 0.7, 1.2])
        for spec in specs:
            profile = intensity_profile(spec)
            kernel = ModelKernel(spec)
            for lam in (0.2, 1.0, 4.0):
                rebuilt = ModelSpec(spec.variant, lam, spec.p0, spec.f,
                                    spec.dim, mu=spec.mu, nu=spec.nu)
                assert profile(lam) == pytest.approx(intensity(rebuilt),
                                                     rel=1e-12)
                # one kernel serves every lam, as in the fitter
                assert kernel.pcf(lam, r) == pytest.approx(pcf(rebuilt, r),
                                                           rel=1e-12)

    def test_mat2_reduction_and_direct_paths_agree(self):
        mu = MarkDistribution.truncated_gamma(2.0, 0.05, quadrature_nodes=16)
        spec = ModelSpec("mat2", 0.5, 1.0, make_interaction("fc", c=20.0), 2,
                         mu=mu, nu=WeightDistribution.uniform())
        red = intensity_mat2(spec, method="reduction")
        direct = intensity_mat2(spec, method="direct")
        assert direct == pytest.approx(red, rel=1e-7)

    def test_mat2_exceeds_marked_mat1(self):
        mu = MarkDistribution.uniform(0.1, 0.4, quadrature_nodes=12)
        f = make_interaction("marksum_hardcore")
        m1 = intensity(ModelSpec("mat1-marked", 0.8, 1.0, f, 2, mu=mu))
        m2 = intensity(ModelSpec("mat2", 0.8, 1.0, f, 2, mu=mu,
                                 nu=WeightDistribution.uniform()))
        assert m2 > m1


class TestCompetitionIntegral:
    @staticmethod
    def _oracle(a, b, c):
        """int_0^1 int_0^1 e^(as+bt+c min(s,t)) by high-precision quadrature.

        Split at the s = t diagonal; independent of any closed form and
        immune to the removable singularities.
        """
        import mpmath
        with mpmath.workdps(40):
            aa, bb, cc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)

            def lower(s):   # t in [0, s], min = t
                return mpmath.quad(
                    lambda t: mpmath.e ** (aa * s + (bb + cc) * t), [0, s])

            def upper(s):   # t in [s, 1], min = s
                return mpmath.quad(
                    lambda t: mpmath.e ** ((aa + cc) * s + bb * t), [s, 1])

            val = mpmath.quad(lambda s: lower(s) + upper(s), [0, 1])
            return float(val)

    def test_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b, c = rng.uniform(-3, 0, 2).tolist() + [rng.uniform(0, 3)]
            assert competition_integral(a, b, c) == pytest.approx(
                self._oracle(a, b, c), rel=1e-10)

    def test_near_singular(self):
        cases = [(-1e-9, -1e-9, 1e-9), (-1e-7, -0.5, 1e-7),
                 (-1e-12, -2.0, 1e-12), (-0.5, -0.5, 0.5),
                 (-50.0, -50.0, 40.0)]
        for a, b, c in cases:
            assert competition_integral(a, b, c) == pytest.approx(
                self._oracle(a, b, c), rel=1e-9)

    def test_zero_limit_is_one(self):
        assert competition_integral(0.0, 0.0, 0.0) == pytest.approx(1.0)


class TestPairCorrelation:
    def test_hardcore_structure(self):
        spec = ModelSpec("mat1", 0.3, 1.0, make_interaction("hardcore", R=1.0), 2)
        inside = pcf(spec, np.linspace(0.0, 0.999, 20))
        assert np.all(inside == 0.0)
        outside = pcf(spec, np.linspace(2.0, 5.0, 20))
        assert np.max(np.abs(outside - 1.0)) < 1e-12
        between = pcf(spec, 1.5)
        assert between == pytest.approx(
            math.exp(0.3 * lens_area(1.0, 1.5)), rel=1e-10)

    def test_tail_approaches_one(self):
        x2 = ModelSpec("mat1", 0.25, 1.0, make_interaction("example2", a=2.0), 2)
        r_far = 5.0 * x2.f.cutoff()
        assert abs(pcf(x2, r_far) - 1.0) < 1e-6

    def test_marked_collapses_to_unmarked(self):
        # point-mass marks R' under the mark-sum rule = hard core of 2R'
        mu = MarkDistribution.point_mass(0.4)
        marked = ModelSpec("mat1-marked", 0.5, 1.0,
                           make_interaction("marksum_hardcore"), 2, mu=mu)
        plain = ModelSpec("mat1", 0.5, 1.0, make_interaction("hardcore", R=0.8), 2)
        r = np.linspace(0.1, 2.5, 15)
        assert np.allclose(pcf(marked, r), pcf(plain, r),
                           rtol=1e-10, atol=1e-12)
        assert intensity(marked) == pytest.approx(intensity(plain), rel=1e-12)

    def test_p0_invariance(self):
        mu = MarkDistribution.uniform(0.1, 0.3, quadrature_nodes=10)
        r = np.linspace(0.1, 1.5, 8)
        for variant, nu in (("mat1-marked", None),
                            ("mat2", WeightDistribution.uniform())):
            f = make_interaction("marksum_hardcore")
            lo = pcf(ModelSpec(variant, 0.6, 0.3, f, 2, mu=mu, nu=nu), r)
            hi = pcf(ModelSpec(variant, 0.6, 1.0, f, 2, mu=mu, nu=nu), r)
            assert np.max(np.abs(lo - hi)) < 1e-10

    def test_mat2_closed_and_direct_paths_agree(self):
        mu = MarkDistribution.uniform(0.1, 0.3, quadrature_nodes=8)
        spec = ModelSpec("mat2", 0.5, 1.0, make_interaction("marksum_hardcore"),
                         2, mu=mu, nu=WeightDistribution.uniform())
        r = np.array([0.5])
        closed = pcf(spec, r, method="closed")
        direct = pcf(spec, r, method="direct")
        assert np.allclose(direct, closed, rtol=1e-6)

    def test_mat2_mark_indexed_weights_against_nested_quadrature(self):
        # the weights' cdfs F_l(w) = min(w / b_l, 1) have kinks at the
        # support ends b_l of the other marks, which the oracle splits at,
        # as it splits at the w = t diagonal of min(w, t)
        spec = two_atom_spec()
        f, lam = spec.f, spec.lam
        marks, mu = (0.1, 0.25), (0.5, 0.5)
        b = [1.0 + 4.0 * m for m in marks]
        space = [[space_integral(f, 2, m, l) for l in marks] for m in marks]

        def F(w):
            return [min(w / bl, 1.0) for bl in b]

        def q(i, w):
            return math.exp(-lam * sum(ml * Fl * s for ml, Fl, s in
                                       zip(mu, F(w), space[i])))

        def quad(h, hi, cuts):
            points = sorted({c for c in cuts if 0.0 < c < hi})
            return integrate.quad(h, 0.0, hi, points=points or None,
                                  limit=200, epsabs=0.0, epsrel=1e-13)[0]

        retention = [quad(lambda w: q(i, w) / b[i], b[i], b) for i in (0, 1)]
        expected = lam * sum(m * p for m, p in zip(mu, retention))
        assert intensity_mat2(spec, method="direct") == pytest.approx(
            expected, rel=1e-10)

        for r in (0.3, 0.45):
            g = 0.0
            for i in (0, 1):
                for j in (0, 1):
                    conv = [radial_self_convolution(f.slice(marks[i], l),
                                                    f.slice(marks[j], l), 2, r)
                            for l in marks]

                    def q_pair(w, t):
                        return math.exp(lam * sum(ml * Fl * c for ml, Fl, c in
                                                  zip(mu, F(min(w, t)), conv)))

                    def inner(w):
                        return quad(lambda t: q(j, t) * q_pair(w, t) / b[j],
                                    b[j], [w, *b])

                    pair = quad(lambda w: q(i, w) * inner(w) / b[i], b[i], b)
                    g += (mu[i] * mu[j] * (1.0 - f(r, marks[i], marks[j]))
                          * pair)
            g /= sum(m * p for m, p in zip(mu, retention)) ** 2
            assert pcf(spec, r, method="direct") == pytest.approx(
                g, rel=1e-10)

    def test_mat2_weight_quadrature_converges(self):
        r = np.array([0.3, 0.45, 1.5])
        coarse, fine = two_atom_spec(16), two_atom_spec(64)
        assert intensity_mat2(coarse, "direct") == pytest.approx(
            intensity_mat2(fine, "direct"), rel=1e-12)
        assert np.allclose(pcf(coarse, r, "direct"),
                           pcf(fine, r, "direct"), rtol=1e-12, atol=0.0)

    def test_mat2_requires_positive_r(self):
        mu = MarkDistribution.point_mass(0.2)
        spec = ModelSpec("mat2", 0.5, 1.0, make_interaction("marksum_hardcore"),
                         2, mu=mu, nu=WeightDistribution.uniform())
        with pytest.raises(ValueError):
            pcf(spec, 0.0)


class TestDerivedCurves:
    def test_nearly_poisson_L_is_identity(self):
        spec = ModelSpec("mat1", 0.5, 1.0,
                         make_interaction("strauss", f0=1e-12, R=0.5), 2)
        r = np.linspace(0.1, 2.0, 10)
        assert np.allclose(l_function(spec, r), r, rtol=1e-6)

    def test_K_matches_pcf_integral_for_hardcore(self):
        spec = ModelSpec("mat1", 0.3, 1.0, make_interaction("hardcore", R=1.0), 2)
        K = k_function(spec, np.array([0.5, 0.999]))
        assert np.allclose(K, 0.0, atol=1e-10)   # no pairs inside the core

        # beyond the core, K(r) = int_1^r exp(0.3 lens(s)) 2 pi s ds: the
        # jump of g at R = 1 must not leak into the quadrature
        def lens_integral(r):
            val, _ = integrate.quad(
                lambda s: math.exp(0.3 * lens_area(1.0, s)) * 2 * math.pi * s,
                1.0, min(r, 2.0), epsabs=1e-13, epsrel=1e-12)
            return val + math.pi * max(r * r - 4.0, 0.0)

        r = np.array([1.2, 2.0, 3.0])
        K = k_function(spec, np.array([0.5, 0.999, *r]))
        assert np.allclose(K[2:], [lens_integral(x) for x in r],
                           rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("variant", ["mat1-marked", "mat2"])
    def test_marked_K_against_quadrature(self, variant):
        # g jumps at every mark sum 0.2, 0.35 and 0.5, off the output grid
        spec = ModelSpec(variant, 1.0, 1.0, make_interaction("marksum_hardcore"),
                         2, mu=MarkDistribution.finite_discrete([0.1, 0.25],
                                                                [0.5, 0.5]),
                         nu=WeightDistribution.uniform())
        grid = np.linspace(0.0, 1.0, 21)[1:]
        K = k_function(spec, grid)
        for r in (0.25, 0.4, 0.6, 1.0):
            edges = [0.0, *(b for b in (0.2, 0.35, 0.5) if b < r), r]
            ref = sum(integrate.quad(
                lambda s: pcf(spec, s) * 2 * math.pi * s, lo, hi,
                epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
            assert K[np.argmin(np.abs(grid - r))] == pytest.approx(ref, rel=1e-7)

    def test_retained_mark_density_normalized_and_shifted(self):
        mu = MarkDistribution.truncated_gamma(2.0, 0.05, quadrature_nodes=16)
        spec = ModelSpec("mat2", 30.0, 1.0, make_interaction("marksum_hardcore"),
                         2, mu=mu, nu=WeightDistribution.uniform())
        grid = np.linspace(1e-6, mu.support()[1], 300)
        dens = retained_mark_density(spec, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)
        # larger marks attract more deletion: retained mean < base mean
        retained_mean = np.trapezoid(grid * dens, grid)
        assert retained_mean < mu.mean()

    def test_retained_mark_density_trivial_interaction(self):
        # interaction range ~ 2e-4: thinning is negligible and the
        # retained-mark density reduces to the base mark density
        mu = MarkDistribution.uniform(1e-4, 2e-4, quadrature_nodes=16)
        spec = ModelSpec("mat2", 1.0, 1.0,
                         make_interaction("marksum_hardcore"), 2,
                         mu=mu, nu=WeightDistribution.uniform())
        grid = np.linspace(1e-4, 2e-4, 50)
        dens = retained_mark_density(spec, grid)
        assert np.allclose(dens, mu.pdf(grid), rtol=1e-6)
