"""The two benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
untimed warm-up operation there.  The timed loop then calls
``prepare(i)`` untimed and ``op(i)`` timed, for i = 0, 1, ... until the
run's time is up, and ``check(outputs)`` runs after it.  Operation i
uses the same inputs in every run with the same seed.  The library is
always called through module attributes (``infer.deviation_test``, not a
name imported from it), so the traced run sees the calls.

All operations of a workload do the same work, so the fastest of them is
the workload's cost at the host's full speed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks

from matern_thinning import analytic, cli, infer, io, simulate
from matern_thinning.core import Window
from matern_thinning.interactions import make_interaction
from matern_thinning.models import ModelSpec

WARMUP = 2 ** 31 - 1     # operation index of the warm-up; no run reaches it


def _seed(seed: int, tag: int, i: int) -> int:
    """A 31-bit seed derived from (seed, tag, i)."""
    state = np.random.SeedSequence([seed, tag, i]).generate_state(1)
    return int(state[0]) >> 1


# ---------------------------------------------------------------------------
# 1. Monte-Carlo deviation test of a hard-core pattern (acceptance 10a)
# ---------------------------------------------------------------------------

class DevtestHardcore:
    """One operation is one k = 99 deviation test on the L statistic."""

    LAM, R, SIDE = 10.0, 0.2, 6.0
    R_MAX, K, GRID = 0.8, 99, 32

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.model = ModelSpec("mat1", self.LAM, 1.0,
                               make_interaction("hardcore", R=self.R), 2)
        self.window = Window.box(2, self.SIDE)
        self.data = {}
        self.prepare(WARMUP)
        self.op(WARMUP)
        del self.data[WARMUP]

    def prepare(self, i: int) -> None:
        """Simulate the data pattern of operation i."""
        self.data[i] = simulate.simulate_model(
            self.model, self.window,
            simulate.SimConfig(seed=_seed(self.seed, 1, i)))

    def op(self, i: int):
        spec = infer.DeviationTestSpec(statistic="L", r_max=self.R_MAX,
                                       k=self.K, seed=_seed(self.seed, 2, i),
                                       n_grid=self.GRID)
        return infer.deviation_test(self.data[i], self.model, spec)

    def check(self, outputs) -> list:
        errors = checks.check_hardcore_L(
            outputs[0].r, [o.reference_curve for o in outputs],
            self.LAM, self.R)
        patterns = [self.data[i] for i in range(len(outputs))]
        for i, pattern in enumerate(patterns):
            errors += checks.check_hard_core(pattern.points, self.R,
                                             f"data pattern {i}")
        errors += [f"devtest {i}: p-value {o.p_value} outside (0, 1]"
                   for i, o in enumerate(outputs) if not 0 < o.p_value <= 1]
        expected = self.LAM * math.exp(-self.LAM * math.pi * self.R ** 2)
        count = sum(len(p) for p in patterns)
        errors += checks.intensity_within(
            count, len(patterns) * self.SIDE ** 2, expected, "pooled data")
        return errors


# ---------------------------------------------------------------------------
# 2. marked pair correlation through the command line
# ---------------------------------------------------------------------------

MARK_UPPER = 0.25
FC = dict(c=20.0, shape=2.0, scale=0.05)


class MarkedPcfCli:
    """One operation is one round of three
    ``cli.main(["analytic", "--stat", "pcf", ...])`` calls, one per model
    file, so every operation does the same work."""

    # stem -> (variant, interaction, mark nodes, radii on the default grid
    # up to three times the interaction range)
    MODELS = {"marksum-mat1": ("mat1-marked", "marksum_hardcore", 8, 6),
              "marksum-mat2": ("mat2", "marksum_hardcore", 8, 6),
              "fc-mat2": ("mat2", "fc", 8, 5)}
    P0_CHECK = 0.5

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(_seed(seed, 3, 0))
        self.docs = {}
        for stem, (variant, f_id, nodes, _) in self.MODELS.items():
            if f_id == "fc":
                lam = rng.uniform(0.25, 0.35)
                f = {"id": "fc", "params": {"c": FC["c"]}}
                mu = {"kind": "truncated-gamma", "shape": FC["shape"],
                      "scale": FC["scale"], "quadrature_nodes": nodes}
            else:
                lam = rng.uniform(0.8, 1.2)
                f = {"id": f_id, "params": {}}
                mu = {"kind": "uniform", "a": 0.0, "b": MARK_UPPER,
                      "quadrature_nodes": nodes}
            doc = {"variant": variant, "lambda": float(lam), "p0": 1.0,
                   "dim": 2, "f": f, "mu": mu}
            if variant == "mat2":
                doc["nu"] = {"kind": "uniform", "a": 0.0, "b": 1.0}
            self.docs[stem] = doc
            with open(self._model_path(stem), "w") as fh:
                json.dump(doc, fh)
        # warm-up: each model on two radii inside its interaction range
        for stem, (_, f_id, _, _) in self.MODELS.items():
            reach = checks.fc_range(**FC) if f_id == "fc" else 2 * MARK_UPPER
            self._call(stem, ["--rmax", repr(reach), "--grid", "2"],
                       os.path.join(workdir, f"warmup-{stem}.csv"))

    def _model_path(self, stem):
        return os.path.join(self.workdir, f"{stem}.json")

    def _call(self, stem, extra, out):
        code = cli.main(["--seed", str(self.seed), "analytic",
                         "--model", self._model_path(stem), "--stat", "pcf",
                         *extra, "--out", out])
        if code != 0:
            raise RuntimeError(f"analytic --stat pcf on {stem} exited {code}")
        return out

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        return [(stem, self._call(
            stem, ["--grid", str(grid)],
            os.path.join(self.workdir, f"op{i}-{stem}.csv")))
            for stem, (_, _, _, grid) in self.MODELS.items()]

    def check(self, outputs) -> list:
        errors = []
        tables = [(i, stem, read_table(path))
                  for i, round_ in enumerate(outputs) for stem, path in round_]
        expected = {}
        for i, stem, (r, g) in tables:
            what = f"op {i} ({stem})"
            variant, f_id, nodes, grid = self.MODELS[stem]
            if f_id == "fc":
                errors += checks.check_fc_table(r, g, checks.fc_range(**FC),
                                                what)
                continue
            if stem not in expected:
                # the CLI's default r_max is three times the interaction
                # range; every round reads the same model file
                r_expected = np.linspace(0.0, 3 * 2 * MARK_UPPER,
                                         grid + 1)[1:]
                marks, weights = checks.uniform_mark_quadrature(
                    0.0, MARK_UPPER, nodes)
                expected[stem] = r_expected, checks.marksum_pcf(
                    variant, self.docs[stem]["lambda"], marks, weights,
                    r_expected)
            errors += checks.check_table(r, g, *expected[stem], what)
        fc = [(r, g) for _, stem, (r, g) in tables if stem == "fc-mat2"]
        return errors + self._check_fc_p0(*fc[0])

    def _check_fc_p0(self, r, g) -> list:
        """The fc pcf does not depend on p0: the p0 = 1 table against the
        library's pcf at p0 = 0.5, at the two smallest radii."""
        pick = [0, 1]
        spec = io.model_spec_from_dict(dict(self.docs["fc-mat2"],
                                            p0=self.P0_CHECK))
        other = np.atleast_1d(analytic.pcf(spec, r[pick]))
        if not np.allclose(g[pick], other, rtol=1e-10, atol=0.0):
            return [f"fc pcf at p0=1 {g[pick]} differs from p0="
                    f"{self.P0_CHECK} {other}"]
        return []


def read_table(path: str):
    """(r, value) columns of a summary-table CSV, parsed independently."""
    rs, vs = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "r,value":
                continue
            r_str, v_str = line.split(",")
            rs.append(float(r_str))
            vs.append(float(v_str) if v_str else math.nan)
    return np.asarray(rs), np.asarray(vs)


WORKLOADS = {
    "devtest-hardcore": DevtestHardcore,
    "marked-pcf-cli": MarkedPcfCli,
}
