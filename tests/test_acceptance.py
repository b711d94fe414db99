"""End-to-end acceptance battery.

Eleven independent checks covering closed-form intensities, the
Monte-Carlo-versus-analytic master oracle, structural pair-correlation
properties, the weighted-competition integral against a high-precision
quadrature oracle, parameter recovery by minimum contrast, deviation-test
calibration and power, and divergence handling.  The Monte-Carlo checks
use frozen seeds so every run is deterministic.
"""

import json
import math

import numpy as np
import pytest

from matern_thinning import (DeviationTestSpec, FitProblem, FreeParameter,
                             MarkDistribution, ModelSpec, SimConfig,
                             WeightDistribution, Window, ball_volume,
                             deviation_test, fit_min_contrast,
                             make_interaction, simulate_model)
from matern_thinning import analytic
from matern_thinning.analytic import competition_integral
from matern_thinning.cli import main
from matern_thinning.estimate import _close_pairs
from matern_thinning.simulate import sample_poisson


# ---------------------------------------------------------------------------
# 1-3: closed-form intensities
# ---------------------------------------------------------------------------

def test_criterion_01_soft_hard_blend_intensity_independent_of_inner_radius():
    lam, R = 0.5, 1.0
    expected = lam * math.exp(-math.pi * lam * R * R)
    values = [analytic.intensity(
        ModelSpec("mat1", lam, 1.0, make_interaction("example1", a=a, R=R), 2))
        for a in (0.0, 0.5, 0.75, 1.0)]
    for v in values:
        assert v == pytest.approx(expected, rel=1e-9)
    assert max(values) - min(values) <= 1e-9 * expected


def test_criterion_02_aggregative_intensity_closed_form():
    lam = 2.0
    expected = lam * math.exp(-math.pi * lam)
    for a in (0.5, 2.0, 8.0):
        v = analytic.intensity(
            ModelSpec("mat1", lam, 1.0, make_interaction("example2", a=a), 2))
        assert v == pytest.approx(expected, rel=1e-7)


def test_criterion_03_weighted_competition_classic_intensity():
    for d in (2, 3):
        for lam, R in ((1.0, 0.25), (5.0, 0.1), (0.5, 0.8)):
            spec = ModelSpec("mat2", lam, 1.0,
                             make_interaction("marksum_hardcore"), d,
                             mu=MarkDistribution.point_mass(R / 2),
                             nu=WeightDistribution.uniform())
            vol = ball_volume(d) * R ** d
            expected = (1.0 - math.exp(-lam * vol)) / vol
            assert analytic.intensity_mat2(spec) == pytest.approx(expected,
                                                                  rel=1e-7)


# ---------------------------------------------------------------------------
# 4: Monte-Carlo versus analytic master oracle
# ---------------------------------------------------------------------------

N_MASTER_REPS = 10_000
MASTER_SEED = 1000


def _master_specs():
    yield ("hard core",
           ModelSpec("mat1", 0.3, 1.0, make_interaction("hardcore", R=1.0), 2),
           Window.box(2, 20.0),
           np.array([0.45, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0,
                     2.25, 2.5, 2.75, 3.0]))
    yield ("soft/hard blend",
           ModelSpec("mat1", 0.3, 1.0,
                     make_interaction("example1", a=0.9, R=1.0), 2),
           Window.box(2, 20.0),
           np.array([0.45, 0.6, 0.75, 0.9, 1.0, 1.2, 1.4, 1.6, 1.8, 1.9,
                     2.0, 2.3, 2.6, 3.0]))
    f = make_interaction("example2", a=0.2)
    yield ("aggregative",
           ModelSpec("mat1", 0.25, 1.0, f, 2),
           Window.box(2, math.ceil(20 * f.cutoff())),
           np.linspace(0.45, 3 * f.cutoff(), 15))
    yield ("marked mutual deletion",
           ModelSpec("mat1-marked", 1.0, 1.0,
                     make_interaction("marksum_hardcore"), 2,
                     mu=MarkDistribution.uniform(0.0, 0.25,
                                                 quadrature_nodes=12)),
           Window.box(2, 10.0),
           np.linspace(0.2, 1.5, 14))
    yield ("classic weighted competition",
           ModelSpec("mat2", 1.0, 1.0, make_interaction("marksum_hardcore"), 3,
                     mu=MarkDistribution.point_mass(0.125),
                     nu=WeightDistribution.uniform()),
           Window.box(3, 5.0),
           np.arange(0.10, 0.751, 0.05))
    spec6 = ModelSpec("mat2", 0.3, 1.0, make_interaction("fc", c=20.0), 2,
                      mu=MarkDistribution.truncated_gamma(
                          2.0, 0.05, quadrature_nodes=10),
                      nu=WeightDistribution.uniform())
    yield ("gamma marks, exponential taper",
           spec6,
           Window.box(2, math.ceil(20 * spec6.interaction_range())),
           np.linspace(0.4, 3 * spec6.interaction_range(), 12))


def _binned_pcf_replicates(spec, window, edges, n_reps, seed):
    """Per-replicate counts and translation-corrected binned pcf values."""
    lam_th = analytic.intensity(spec)
    d = spec.dim
    shell = ball_volume(d) * np.diff(edges ** d)
    counts = np.empty(n_reps)
    hists = np.zeros((n_reps, len(shell)))
    for i in range(n_reps):
        p = simulate_model(spec, window,
                           SimConfig(seed=seed, replicate_index=i))
        counts[i] = len(p)
        dist, w = _close_pairs(p, edges[-1])
        if len(dist):
            idx = np.searchsorted(edges, dist, side="right") - 1
            ok = (dist >= edges[0]) & (idx < len(shell))
            hists[i] = np.bincount(idx[ok], weights=2.0 / w[ok],
                                   minlength=len(shell))
    return counts, hists / (lam_th ** 2 * shell)


def _bin_averaged_pcf(spec, edges, gauss_nodes=4):
    """Exact expectation of the binned estimator: the t^(d-1)-weighted
    average of the analytic pcf over each bin."""
    d = spec.dim
    nodes, wts = np.polynomial.legendre.leggauss(gauss_nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    tt = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    gg = np.atleast_1d(analytic.pcf(spec, tt)).reshape(len(mid), gauss_nodes)
    wgt = (tt.reshape(len(mid), gauss_nodes) ** (d - 1)) * wts[None, :]
    return (gg * wgt).sum(axis=1) / wgt.sum(axis=1)


@pytest.mark.parametrize("name,spec,window,edges",
                         list(_master_specs()),
                         ids=[s[0] for s in _master_specs()])
def test_criterion_04_simulation_matches_analytic_curves(name, spec, window,
                                                         edges):
    counts, ghat = _binned_pcf_replicates(spec, window, edges,
                                          N_MASTER_REPS, MASTER_SEED)
    vol = window.volume()
    lam_th = analytic.intensity(spec)
    lam_se = counts.std(ddof=1) / math.sqrt(N_MASTER_REPS) / vol
    assert abs(counts.mean() / vol - lam_th) <= 3.0 * lam_se

    ref = _bin_averaged_pcf(spec, edges)
    mean = ghat.mean(axis=0)
    se = ghat.std(axis=0, ddof=1) / math.sqrt(N_MASTER_REPS)
    for m, s, rf in zip(mean, se, ref):
        if s > 0:
            assert abs(m - rf) <= 3.0 * s
        else:
            # empty bins (inside a hard core): the reference must agree
            assert abs(m - rf) < 1e-9


# ---------------------------------------------------------------------------
# 5-6: structural pair-correlation properties
# ---------------------------------------------------------------------------

def test_criterion_05_pcf_structure():
    hc = ModelSpec("mat1", 0.4, 1.0, make_interaction("hardcore", R=1.0), 2)
    inside = np.linspace(0.01, 0.999, 50)
    assert np.all(np.atleast_1d(analytic.pcf(hc, inside)) == 0.0)
    beyond = np.linspace(2.0001, 6.0, 50)
    assert np.max(np.abs(np.atleast_1d(analytic.pcf(hc, beyond)) - 1.0)) <= 1e-12

    agg = ModelSpec("mat1", 0.5, 1.0, make_interaction("example2", a=1.0), 2)
    r = np.linspace(0.0, 4.0, 81)
    g = np.atleast_1d(analytic.pcf(agg, r))
    assert np.argmax(g) == 0
    assert g[0] > 1.0


def test_criterion_06_pcf_does_not_depend_on_retention_probability():
    mu = MarkDistribution.uniform(0.0, 0.3, quadrature_nodes=12)
    r = np.linspace(0.05, 2.0, 20)
    for variant, nu in (("mat1-marked", None),
                        ("mat2", WeightDistribution.uniform())):
        curves = [np.atleast_1d(analytic.pcf(
            ModelSpec(variant, 0.8, p0, make_interaction("marksum_hardcore"),
                      2, mu=mu, nu=nu), r))
            for p0 in (0.3, 1.0)]
        assert np.max(np.abs(curves[0] - curves[1])) <= 1e-10


# ---------------------------------------------------------------------------
# 7: competition integral against a high-precision quadrature oracle
# ---------------------------------------------------------------------------

def _competition_oracle(a, b, c):
    """int_0^1 int_0^1 exp(a s + b t + c min(s, t)) ds dt by high-precision
    quadrature split at the s = t diagonal; independent of any closed form."""
    import mpmath
    with mpmath.workdps(40):
        aa, bb, cc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)

        def lower(s):
            return mpmath.quad(
                lambda t: mpmath.e ** (aa * s + (bb + cc) * t), [0, s])

        def upper(s):
            return mpmath.quad(
                lambda t: mpmath.e ** ((aa + cc) * s + bb * t), [s, 1])

        return float(mpmath.quad(lambda s: lower(s) + upper(s), [0, 1]))


def test_criterion_07_competition_integral_against_quadrature_oracle():
    rng = np.random.default_rng(77)
    triples = []
    for _ in range(85):
        a, b = rng.uniform(-3.0, 0.0, 2)
        triples.append((a, b, rng.uniform(0.0, 3.0)))
    triples += [
        (-1e-9, -1e-9, 1e-9), (-1e-7, -0.5, 1e-7), (-1e-12, -2.0, 1e-12),
        (-0.5, -0.5, 0.5), (-50.0, -50.0, 40.0), (-2.0, -2.0, 4.0),
        (-1e-14, -1e-14, 0.0), (-3.0, -1e-10, 3.0), (-1e-10, -3.0, 3.0),
        (-0.25, -0.25, 0.25), (-1.0, -1.0, 2.0), (-1e-6, -1e-6, 2e-6),
        (-2.5, -0.5, 3.0), (-0.5, -2.5, 3.0), (-1e-3, -1e-3, 1e-3)]
    assert len(triples) == 100
    for a, b, c in triples:
        assert competition_integral(a, b, c) == pytest.approx(
            _competition_oracle(a, b, c), rel=1e-7)


# ---------------------------------------------------------------------------
# 8: competition retains more than mutual deletion
# ---------------------------------------------------------------------------

def test_criterion_08_competition_intensity_exceeds_mutual_deletion():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        lam = rng.uniform(0.2, 2.0)
        p0 = rng.uniform(0.3, 1.0)
        lo = rng.uniform(0.0, 0.1)
        hi = lo + rng.uniform(0.05, 0.4)
        mu = MarkDistribution.uniform(lo, hi, quadrature_nodes=10)
        f = (make_interaction("marksum_hardcore") if rng.random() < 0.5
             else make_interaction("fc", c=rng.uniform(5.0, 40.0)))
        dim = int(rng.integers(1, 4))
        m1 = analytic.intensity(
            ModelSpec("mat1-marked", lam, p0, f, dim, mu=mu))
        m2 = analytic.intensity_mat2(
            ModelSpec("mat2", lam, p0, f, dim, mu=mu,
                      nu=WeightDistribution.uniform()))
        assert m2 > m1


# ---------------------------------------------------------------------------
# 9: minimum-contrast parameter recovery from simulated data
# ---------------------------------------------------------------------------

FIT_TRUTH = dict(lam=1.0, p0=0.85, R=0.607, a=2.0, b=0.25)
FIT_WIN = Window.box(3, 12.0)
FIT_REPS = 240
FIT_EDGES = 0.607 + 0.0655 * np.arange(-5, 27)


def _fit_build(params):
    return ModelSpec("mat1", params["lam"], params["p0"],
                     make_interaction("softshell", R=FIT_TRUTH["R"],
                                      a=params["a"], b=params["b"]), 3)


def _fit_trial(seed):
    spec = _fit_build(FIT_TRUTH)
    mids = 0.5 * (FIT_EDGES[:-1] + FIT_EDGES[1:])
    shell = ball_volume(3) * np.diff(FIT_EDGES ** 3)
    total_n, hist = 0, np.zeros(len(shell))
    for i in range(FIT_REPS):
        # a 2.5-unit halo keeps the boundary bias far below the noise:
        # the taper is ~2e-8 of its peak there
        p = simulate_model(spec, FIT_WIN,
                           SimConfig(seed=seed, replicate_index=i, halo=2.5))
        total_n += len(p)
        dist, w = _close_pairs(p, FIT_EDGES[-1])
        if len(dist):
            idx = np.searchsorted(FIT_EDGES, dist, side="right") - 1
            ok = (dist >= FIT_EDGES[0]) & (idx < len(shell))
            hist += np.bincount(idx[ok], weights=2.0 / w[ok],
                                minlength=len(shell))
    lam_hat = total_n / (FIT_REPS * FIT_WIN.volume())
    ghat = hist / (FIT_REPS * lam_hat ** 2 * shell)
    problem = FitProblem(
        build=_fit_build,
        free=(FreeParameter("p0", 0.5, 1.0, "linear"),
              FreeParameter("a", 1.2, 20.0, "log"),
              FreeParameter("b", 0.05, 2.0, "log")),
        # the contrast grid coincides with the histogram bin centers, so
        # the step interpolation is exact and no bin straddles the jump
        # of the pair correlation at the known core radius
        pcf_reference=lambda r: np.interp(r, mids, ghat),
        intensity_target=lam_hat,
        contrast_domain=(float(mids[0]), float(mids[-1])), grid=len(mids))
    res = fit_min_contrast(problem, seed=seed, restarts=3, maxiter=300,
                           xatol=1e-4, fatol=1e-10)
    return total_n, {k: res.params[k] for k in ("p0", "a", "b")}


def test_criterion_09_fit_recovers_parameters_within_20_percent():
    wins = 0
    pooled = []
    for trial in range(10):
        n, est = _fit_trial(7000 + trial)
        pooled.append(n)
        ok = all(abs(est[k] / FIT_TRUTH[k] - 1.0) <= 0.20
                 for k in ("p0", "a", "b"))
        wins += ok
    assert min(pooled) >= 2000          # desk-scale data per trial
    assert wins >= 8


# ---------------------------------------------------------------------------
# 10: deviation-test calibration and power
# ---------------------------------------------------------------------------

CAL_MODEL = ModelSpec("mat1", 10.0, 1.0, make_interaction("hardcore", R=0.2), 2)
CAL_WIN = Window.box(2, 6.0)


def test_criterion_10a_deviation_test_calibrated_under_the_true_model():
    n_trials = 500
    rejections = 0
    for t in range(n_trials):
        data = simulate_model(CAL_MODEL, CAL_WIN, SimConfig(seed=10000 + t))
        res = deviation_test(data, CAL_MODEL,
                             DeviationTestSpec(statistic="L", r_max=0.8,
                                               k=99, seed=500000 + t,
                                               n_grid=32))
        rejections += res.p_value <= 0.05
    assert 0.03 <= rejections / n_trials <= 0.07


def test_criterion_10b_deviation_test_rejects_a_wrong_model():
    lam_th = analytic.intensity(CAL_MODEL)
    n_trials = 100
    rejections = 0
    for t in range(n_trials):
        data = sample_poisson(CAL_WIN, lam_th, cfg=SimConfig(seed=20000 + t))
        res = deviation_test(data, CAL_MODEL,
                             DeviationTestSpec(statistic="L", r_max=0.8,
                                               k=99, seed=700000 + t,
                                               n_grid=32))
        rejections += res.p_value <= 0.05
    assert rejections / n_trials >= 0.95


# ---------------------------------------------------------------------------
# 11: divergence handling
# ---------------------------------------------------------------------------

def test_criterion_11_non_integrable_interaction_diagnosed(tmp_path, capsys):
    spec = ModelSpec("mat1", 1.0, 1.0, make_interaction("constant", p=0.5), 2)
    report = analytic.intensity_report(spec)
    assert report.divergent and report.value == 0.0
    assert report.message

    model = tmp_path / "divergent.json"
    model.write_text(json.dumps(
        {"variant": "mat1", "lambda": 1.0, "p0": 1.0, "dim": 2,
         "f": {"id": "constant", "params": {"p": 0.5}}}))
    code = main(["--json-errors", "analytic", "--model", str(model),
                 "--stat", "intensity", "--out", str(tmp_path / "out.csv")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["divergent"] is True and err["intensity"] == 0.0
    assert err["diagnostic"]
