"""Tests of the benchmark itself: every output check can fail, the
independent references agree with the library where they should, and
tracing does not change what the library returns.

    python3 -m pytest bench/test_bench.py

The repository's own test run collects ``tests/`` only, so these are not
part of it.
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from matern_thinning import (MarkDistribution, ModelSpec,  # noqa: E402
                             SimConfig, WeightDistribution, Window,
                             analytic, make_interaction, simulate)
from matern_thinning.analytic import competition_integral  # noqa: E402


# ---------------------------------------------------------------------------
# references agree with the library, and the checks catch a small error
# ---------------------------------------------------------------------------

def test_lens_area_limits():
    assert checks.lens_area(0.0, 1.0, 0.5) == pytest.approx(math.pi * 0.25)
    assert checks.lens_area(1.5, 1.0, 0.5) == 0.0
    # equal discs: 2 R^2 acos(d / 2R) - (d / 2) sqrt(4 R^2 - d^2)
    d, R = 0.3, 0.2
    exact = 2 * R * R * math.acos(d / (2 * R)) - d / 2 * math.sqrt(4 * R * R - d * d)
    assert checks.lens_area(d, R, R) == pytest.approx(exact, rel=1e-14)


def test_competition_quadrature_matches_closed_form():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-3, 0, (2, 50))
    c = rng.uniform(0, 3, 50)
    np.testing.assert_allclose(checks.competition_quadrature(a, b, c),
                               competition_integral(a, b, c), rtol=1e-12)


def test_close_pairs_equals_brute_force():
    pts = np.random.default_rng(4).random((300, 2)) * 10
    i, j, d = checks.close_pairs(pts, 0.7)
    found = {tuple(sorted(p)) for p in zip(i, j)}
    full = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    ii, jj = np.nonzero(np.triu(full <= 0.7, k=1))
    assert found == set(zip(ii, jj))
    np.testing.assert_allclose(d, full[i, j], rtol=1e-15)


@pytest.mark.parametrize("variant", ["mat1-marked", "mat2"])
def test_marksum_table_check_accepts_library_and_rejects_1e6(variant):
    lam, nodes = 1.1, 8
    spec = ModelSpec(variant, lam, 1.0, make_interaction("marksum_hardcore"),
                     2, mu=MarkDistribution.uniform(0.0, 0.25, nodes),
                     nu=WeightDistribution.uniform() if variant == "mat2"
                     else None)
    r = np.linspace(0.0, 1.5, 7)[1:]
    g_lib = np.atleast_1d(analytic.pcf(spec, r))
    marks, weights = checks.uniform_mark_quadrature(0.0, 0.25, nodes)
    g_ref = checks.marksum_pcf(variant, lam, marks, weights, r)
    assert checks.check_table(r, g_lib, r, g_ref, "lib") == []
    assert checks.check_table(r, g_lib * (1 + 1e-6), r, g_ref, "bad")
    assert checks.check_table(r[:-1], g_lib[:-1], r, g_ref, "short")


def test_hardcore_L_check_accepts_library_and_rejects_1e2():
    model = ModelSpec("mat1", 10.0, 1.0, make_interaction("hardcore", R=0.2), 2)
    r = np.linspace(0.0, 0.8, 33)[1:]
    L = analytic.l_function(model, r)
    assert checks.check_hardcore_L(r, [L], 10.0, 0.2) == []
    assert checks.check_hardcore_L(r, [L, L + 1e-2], 10.0, 0.2)


def test_hard_core_check_catches_one_pair_inside_R():
    model = ModelSpec("mat1", 10.0, 1.0, make_interaction("hardcore", R=0.2), 2)
    p = simulate.simulate_model(model, Window.box(2, 6.0), SimConfig(seed=5))
    assert checks.check_hard_core(p.points, 0.2, "ok") == []
    pts = p.points.copy()
    pts[1] = pts[0] + [0.19, 0.0]
    assert checks.check_hard_core(pts, 0.2, "moved")


def _run_ops(workload, n):
    outs = []
    for i in range(n):
        workload.prepare(i)
        outs.append(workload.op(i))
    return outs


def test_marked_check_reads_every_round(tmp_path):
    wl = workloads.MarkedPcfCli()
    wl.MODELS = {k: (v[0], v[1], 8, 3) for k, v in wl.MODELS.items()}
    wl.setup(seed=2, workdir=str(tmp_path))
    outputs = _run_ops(wl, 2)
    assert wl.check(outputs) == []
    # the reference is built once per model; a later round is still checked
    path = dict(outputs[1])["marksum-mat2"]
    r, g = workloads.read_table(path)
    g[1] *= 1 + 1e-6
    with open(path, "w") as fh:
        fh.write("r,value\n")
        fh.writelines(f"{a:.17g},{b:.17g}\n" for a, b in zip(r, g))
    assert wl.check(outputs)


def test_fc_table_check():
    r = np.linspace(0.5, 7.0, 6)
    g = np.ones(6)
    assert checks.check_fc_table(r, g, 2.3, "ok") == []
    bad = g.copy()
    bad[-1] = 1 + 1e-6
    assert checks.check_fc_table(r, bad, 2.3, "far")
    bad = g.copy()
    bad[0] = -1e-12
    assert checks.check_fc_table(r, bad, 2.3, "negative")


def test_intensity_check():
    assert checks.intensity_within(1000, 1000.0, 1.0, "ok") == []
    assert checks.intensity_within(1200, 1000.0, 1.0, "high")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_traced_and_untraced_outputs_are_identical(tmp_path):
    devtest = workloads.DevtestHardcore()
    devtest.setup(seed=3, workdir="")
    marked = workloads.MarkedPcfCli()
    marked.MODELS = {k: (v[0], v[1], 8, 3) for k, v in marked.MODELS.items()}
    marked.setup(seed=3, workdir=str(tmp_path))

    def snapshot():
        d = [(o.p_value, o.deltas.tobytes(), o.reference_curve.tobytes())
             for o in _run_ops(devtest, 4)]
        m = [open(path, "rb").read() for round_ in _run_ops(marked, 1)
             for _, path in round_]
        return d, m

    plain = snapshot()
    tracer = tracing.Tracer("matern_thinning")
    tracer.install()
    try:
        with tracer.recording():
            traced = snapshot()
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.metrics(cpu_s=1.0, n_ops=5)
    assert set(metrics) == set(tracing.METRICS)
    for name in ("simulate.calls", "estimate.pairs", "cli.main.s",
                 "analytic.radial_self_convolution.calls",
                 "infer.deviation_test.s", "analytic.pcf.radii"):
        assert metrics[name]["value"] > 0, name
    assert tracer.absent == []
    assert simulate.simulate_model.__module__ == "matern_thinning.simulate"
    assert not hasattr(simulate.simulate_model, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer("matern_thinning")
    tracer.spans = [["outer", 0.0, 10.0, None], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    total, calls = tracer.self_times()
    assert total["outer"] == 6.0 and total["inner"] == 3.0
    assert calls["inner"] == 2


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(simulate, "thin_mat2")
    tracer = tracing.Tracer("matern_thinning")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["simulate.thin_mat2"]


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "devtest-hardcore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
