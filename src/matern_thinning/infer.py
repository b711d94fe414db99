"""Parameter inference and Monte-Carlo goodness-of-fit testing.

Three ingredients:

* ``solve_lambda_constraint`` inverts the base intensity from the
  observed intensity: all roots of lam_th(lam; fixed params) = target
  on a log grid with bracketed root polishing.  The map
  lam -> lam p0 E[exp(-lam C)] is typically unimodal, so 0, 1 or 2
  roots occur; an empty list is a valid outcome (target above the
  supremum).
* ``fit_min_contrast`` minimizes the integrated squared discrepancy
  between an empirical and the model pair correlation function over the
  named free parameters, with the base intensity eliminated through the
  constraint (both roots explored, the branch with the lower contrast
  kept).  Derivative-free Nelder-Mead restarts from Latin-hypercube
  starting points; parameters are internally mapped to an unconstrained
  scale (log-spaced or linear within their finite bounds).
* ``deviation_test`` is a Monte-Carlo rank test: the global deviation
  Delta = int (S_hat - S_ref)^2 dr of the data is ranked among the same
  deviation computed for k model simulations;
  p = (1 + #{Delta_i >= Delta_obs}) / (k + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize
from scipy.special import expit, logit
from scipy.stats import qmc

from . import analytic
from .analytic import DivergentModelError, ModelKernel
from .analytic import radial_self_convolution  # noqa: F401  (wrapped by bench/tracing.py)
from .core import PointPattern, SummaryTable
from .estimate import (EstimatorConfig, estimate_F, estimate_G, estimate_L,
                       estimate_pcf, resolve_bandwidth, resolve_r_grid)
from .models import ModelSpec
from .simulate import SimConfig, simulate_model

__all__ = ["FreeParameter", "FitProblem", "FitResult",
           "DeviationTestSpec", "DeviationTestResult",
           "solve_lambda_constraint", "fit_min_contrast", "deviation_test",
           "radius_pdf_after_thinning", "empirical_mark_density"]


# ---------------------------------------------------------------------------
# intensity-constraint root solve
# ---------------------------------------------------------------------------

def _profile_roots(profile: Callable[[float], float],
                   target: float) -> Tuple[list, float]:
    """All roots of profile(lam) = target, plus the observed supremum.

    Dense log-grid bracketing followed by brentq polishing; the upper
    search bound doubles until the profile has fallen below the target
    on its decaying branch (or a hard cap is reached).
    """
    if target <= 0:
        raise ValueError("target intensity must be > 0")
    lo = target * 1e-3
    hi = target * 1e4
    for _ in range(40):
        grid = np.geomspace(lo, hi, 400)
        vals = np.asarray(profile(grid), dtype=float)
        if vals[-1] < target or vals[-1] < vals.max():
            break
        hi *= 100.0
    h = vals - target
    roots = []
    for i in np.flatnonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0):
        roots.append(optimize.brentq(lambda x: profile(x) - target,
                                     grid[i], grid[i + 1],
                                     xtol=1e-15, rtol=1e-14))
    for i in np.flatnonzero(h == 0.0):
        roots.append(float(grid[i]))
    roots = sorted(roots)
    dedup = [r for i, r in enumerate(roots)
             if i == 0 or r > roots[i - 1] * (1 + 1e-9)]
    return dedup, float(vals.max())


def solve_lambda_constraint(target: float, build: Callable[[Mapping], ModelSpec],
                            fixed_params: Mapping = None) -> list:
    """Base intensities lam solving lam_th(lam; fixed_params) = target.

    `build` maps a parameter dict (including key "lam") to a ModelSpec.
    Returns all roots sorted ascending; an empty list means the target
    exceeds the supremum of the retention map (diagnosed, not an error).
    A divergent (non-integrable) interaction also yields no roots.
    """
    kernel = ModelKernel(build({**(fixed_params or {}), "lam": 1.0}))
    try:
        roots, _ = _profile_roots(kernel.intensity, target)
    except DivergentModelError:
        return []
    return roots


# ---------------------------------------------------------------------------
# minimum-contrast fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeParameter:
    """A named free parameter with finite bounds.

    scale "log" explores the interval geometrically (positive scales),
    "linear" arithmetically (e.g. the retention probability p0).
    """

    name: str
    lower: float
    upper: float
    scale: str = "log"

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("free-parameter bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError("lower < upper required")
        if self.scale not in ("log", "linear"):
            raise ValueError("scale must be 'log' or 'linear'")
        if self.scale == "log" and self.lower <= 0:
            raise ValueError("log scale requires lower > 0")

    def to_internal(self, value: float) -> float:
        lo, hi = self.lower, self.upper
        if self.scale == "log":
            frac = (math.log(value) - math.log(lo)) / (math.log(hi) - math.log(lo))
        else:
            frac = (value - lo) / (hi - lo)
        return float(logit(np.clip(frac, 1e-12, 1.0 - 1e-12)))

    def from_internal(self, x: float) -> float:
        frac = float(expit(x))
        if self.scale == "log":
            return math.exp(math.log(self.lower)
                            + frac * (math.log(self.upper) - math.log(self.lower)))
        return self.lower + frac * (self.upper - self.lower)


@dataclass(frozen=True)
class FitProblem:
    """Minimum-contrast fit setup.

    `build` maps a full parameter dict (the free parameters plus "lam")
    to a ModelSpec; `free` names the parameters the optimizer moves.
    With constraint "intensity-match" (the default), "lam" is eliminated
    by solving lam_th = observed intensity at every trial point; with
    "none", "lam" must itself be listed free.  `pcf_reference` overrides
    the empirical pair correlation with a known curve (callable of r) —
    the infinite-data path used for self-consistency checks.
    """

    build: Callable[[Mapping], ModelSpec]
    free: Tuple[FreeParameter, ...]
    data: Optional[PointPattern] = None
    contrast_domain: Optional[Tuple[float, float]] = None
    grid: int = 256
    constraint: str = "intensity-match"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    pcf_reference: Optional[Callable] = None
    intensity_target: Optional[float] = None

    def __post_init__(self):
        if self.constraint not in ("intensity-match", "none"):
            raise ValueError("constraint must be 'intensity-match' or 'none'")
        if self.grid < 8:
            raise ValueError("grid must be >= 8")
        names = [fp.name for fp in self.free]
        if len(set(names)) != len(names):
            raise ValueError("duplicate free-parameter names")
        if self.constraint == "none" and "lam" not in names:
            raise ValueError("constraint 'none' requires 'lam' among the "
                             "free parameters")
        if self.constraint == "intensity-match" and "lam" in names:
            raise ValueError("'lam' is eliminated by the intensity "
                             "constraint and cannot be free")
        if self.data is None and (self.pcf_reference is None
                                  or self.intensity_target is None
                                  or self.contrast_domain is None):
            raise ValueError("without data, pcf_reference, intensity_target "
                             "and contrast_domain are all required")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a minimum-contrast fit."""

    params: dict                 # free parameters plus the resolved "lam"
    spec: ModelSpec
    contrast: float
    constraint_residual: float
    converged: bool
    n_evaluations: int
    message: str = ""


def fit_min_contrast(problem: FitProblem, seed: int = 0, restarts: int = 5,
                     maxiter: int = 400, xatol: float = 1e-6,
                     fatol: float = 1e-12) -> FitResult:
    """Minimize the integrated squared pcf discrepancy over the free
    parameters, with the base intensity eliminated by the constraint.

    The contrast integral is a trapezoid rule on a uniform grid over the
    contrast domain.  Nelder-Mead runs from `restarts` Latin-hypercube
    starting points; the best final point wins.  Non-convergence within
    the restart budget is reported in the result, with the best point so
    far returned.  A point scores 1e9 when `build` rejects it (ValueError)
    or the model diverges; any other error propagates.
    """
    if problem.intensity_target is not None:
        lam_hat = problem.intensity_target
    elif problem.estimator.intensity is not None:
        lam_hat = problem.estimator.intensity
    else:
        lam_hat = problem.data.intensity()

    if problem.contrast_domain is not None:
        r_min, r_max = problem.contrast_domain
    else:
        win_r = resolve_r_grid(problem.data.window, problem.estimator)
        r_min = resolve_bandwidth(problem.data, problem.estimator)
        r_max = win_r[-1]
    if not 0 < r_min < r_max:
        raise ValueError("contrast domain must satisfy 0 < r_min < r_max")
    r = np.linspace(r_min, r_max, problem.grid)

    if problem.pcf_reference is not None:
        g_hat = np.atleast_1d(np.asarray(problem.pcf_reference(r), dtype=float))
    else:
        h = resolve_bandwidth(problem.data, problem.estimator)
        if r_min < h:
            raise ValueError(f"contrast r_min={r_min:g} must be >= the "
                             f"estimator bandwidth {h:g}")
        cfg = EstimatorConfig(bandwidth=problem.estimator.bandwidth,
                              r_max=r_max, n_points=max(problem.grid, 128),
                              intensity=problem.estimator.intensity)
        table = estimate_pcf(problem.data, cfg)
        ok = table.defined()
        g_hat = np.interp(r, table.r[ok], table.values[ok])

    free = problem.free
    n_eval = 0
    best_lam_for = {}

    def objective(x: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        params = {fp.name: fp.from_internal(xi) for fp, xi in zip(free, x)}
        roots = [params.pop("lam", 1.0)]    # lam is free only without matching
        try:
            spec = problem.build({**params, "lam": roots[0]})
        except ValueError:      # the parameters leave the family's domain
            return 1e9
        try:
            # one kernel serves the root solve and the pcf at every root
            kernel = ModelKernel(spec)
            if problem.constraint == "intensity-match":
                roots, sup = _profile_roots(kernel.intensity, lam_hat)
                if not roots:
                    return 1e6 * (1.0 + max(0.0, (lam_hat - sup) / lam_hat))
            best = math.inf
            for lam in roots:
                g = kernel.pcf(lam, r)
                with np.errstate(over="ignore", invalid="ignore"):
                    delta = float(np.trapezoid((g_hat - g) ** 2, r))
                if not math.isfinite(delta):
                    continue
                if delta < best:
                    best = delta
                    best_lam_for[tuple(x)] = lam
            return best if math.isfinite(best) else 1e9
        except DivergentModelError:
            return 1e9

    if not free:
        x_best = np.empty(0)
        f_best = objective(x_best)
        converged = True
        message = "no free parameters; constraint determines the model"
    else:
        sampler = qmc.LatinHypercube(d=len(free), seed=seed)
        fracs = 0.06 + 0.88 * sampler.random(n=max(restarts, 1))
        starts = np.array([[float(logit(f)) for f in row] for row in fracs])
        x_best, f_best, converged, message = None, math.inf, False, ""
        for x0 in starts:
            res = optimize.minimize(
                objective, x0, method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
            if res.fun < f_best:
                x_best, f_best = np.atleast_1d(res.x), float(res.fun)
                converged, message = bool(res.success), res.message
        if not converged:
            message = ("optimizer did not converge within the restart "
                       f"budget; best point returned ({message})")

    params = {fp.name: fp.from_internal(xi) for fp, xi in zip(free, x_best)}
    if problem.constraint == "intensity-match":
        lam = best_lam_for.get(tuple(x_best))
        if lam is None:
            # re-derive the winning branch for the final point
            objective(x_best)
            lam = best_lam_for.get(tuple(x_best))
        if lam is None:
            raise DivergentModelError(
                "no feasible base intensity at the optimum: the observed "
                "intensity exceeds the retention map's supremum")
        lam_free = dict(params)
    else:
        lam = params["lam"]
        lam_free = {k: v for k, v in params.items() if k != "lam"}
    spec = problem.build({**lam_free, "lam": lam})
    achieved = analytic.intensity(spec)
    residual = abs(achieved - lam_hat) / lam_hat
    if problem.constraint == "none":
        residual = float("nan")
    return FitResult(params={**lam_free, "lam": lam}, spec=spec,
                     contrast=f_best, constraint_residual=residual,
                     converged=converged, n_evaluations=n_eval,
                     message=message)


# ---------------------------------------------------------------------------
# Monte-Carlo deviation tests
# ---------------------------------------------------------------------------

_STATISTICS = ("L", "pcf", "G", "F", "radius-pdf")


@dataclass(frozen=True)
class DeviationTestSpec:
    """Configuration of a Monte-Carlo deviation (rank) test.

    k >= 19 simulations so the minimal attainable p-value
    1/(k+1) is at most 0.05.  reference "analytic" centers the deviation
    on the model's exact curve (available for L, pcf and — for weighted
    models with continuous marks — the retained-mark density);
    "simulated" uses the mean over the k simulations; "auto" picks
    analytic for L and pcf, simulated otherwise.
    """

    statistic: str
    r_max: float
    k: int = 99
    seed: int = 0
    n_grid: int = 64
    reference: str = "auto"
    bandwidth: object = "auto"
    f_test_points: int = 32

    def __post_init__(self):
        if self.statistic not in _STATISTICS:
            raise ValueError(f"statistic must be one of {_STATISTICS}")
        if self.k < 19:
            raise ValueError("k must be >= 19 (minimal p-value <= 0.05)")
        if self.r_max <= 0:
            raise ValueError("r_max must be > 0")
        if self.reference not in ("auto", "analytic", "simulated"):
            raise ValueError("reference must be auto, analytic or simulated")


@dataclass(frozen=True)
class DeviationTestResult:
    """p-value with the full deviation record."""

    p_value: float
    delta_obs: float
    deltas: np.ndarray          # the k simulated deviations
    statistic: str
    reference: str              # reference actually used
    r: np.ndarray
    reference_curve: np.ndarray


def _statistic_curve(pattern: PointPattern, statistic: str,
                     cfg: EstimatorConfig, mark_edges=None) -> np.ndarray:
    if statistic == "radius-pdf":
        if pattern.marks is None:
            raise ValueError("radius-pdf requires a marked pattern")
        return empirical_mark_density(pattern.marks, mark_edges)
    if statistic == "L":
        return estimate_L(pattern, cfg).values
    if statistic in ("pcf", "G") and len(pattern) < 2:
        return np.zeros(cfg.n_points)      # both estimators raise here
    if statistic == "pcf":
        return estimate_pcf(pattern, cfg).values
    if statistic == "G":
        return estimate_G(pattern, cfg).values
    return estimate_F(pattern, cfg).values


def empirical_mark_density(marks: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram density of marks on fixed bin edges."""
    hist, _ = np.histogram(np.asarray(marks, dtype=float), bins=edges,
                           density=False)
    total = max(len(marks), 1)
    return hist / (total * np.diff(edges))


def deviation_test(data: PointPattern, model: ModelSpec,
                   spec: DeviationTestSpec) -> DeviationTestResult:
    """Monte-Carlo rank test of `model` against `data`.

    Delta_obs = int (S_data - S_ref)^2 dr, with the identical deviation
    computed for each of the k model simulations on the data's window;
    p = (1 + #{Delta_i >= Delta_obs}) / (k + 1).  Deterministic given
    (data, model, spec).
    """
    if spec.statistic == "radius-pdf" and data.marks is None:
        raise ValueError("radius-pdf requires marked data")
    cfg = EstimatorConfig(bandwidth=spec.bandwidth, r_max=spec.r_max,
                          n_points=spec.n_grid,
                          f_test_points=spec.f_test_points)
    mark_edges = None
    if spec.statistic == "radius-pdf":
        hi = model.mark_upper()
        if hi is None or not math.isfinite(hi):
            hi = float(np.max(data.marks)) * 1.5
        mark_edges = np.linspace(0.0, hi, spec.n_grid + 1)
        r = 0.5 * (mark_edges[:-1] + mark_edges[1:])
    else:
        r = resolve_r_grid(data.window, cfg)
    if spec.statistic == "pcf" and cfg.bandwidth == "auto":
        # freeze one common bandwidth so all curves are comparable
        cfg = replace(cfg, bandwidth=resolve_bandwidth(data, cfg))

    s_obs = _statistic_curve(data, spec.statistic, cfg, mark_edges)
    sims = np.empty((spec.k, len(r)))
    for i in range(spec.k):
        sim = simulate_model(model, data.window,
                             SimConfig(seed=spec.seed, replicate_index=i + 1))
        sims[i] = _statistic_curve(sim, spec.statistic, cfg, mark_edges)

    reference = spec.reference
    if reference == "auto":
        reference = "analytic" if spec.statistic in ("L", "pcf") else "simulated"
    if reference == "analytic":
        if spec.statistic == "L":
            ref = analytic.l_function(model, r)
        elif spec.statistic == "pcf":
            ref = np.atleast_1d(analytic.pcf(model, r))
        elif spec.statistic == "radius-pdf":
            ref = radius_pdf_after_thinning(model, r).values
        else:
            raise ValueError(f"no analytic reference for {spec.statistic!r}")
    else:
        ref = sims.mean(axis=0)

    defined = np.isfinite(s_obs) & np.all(np.isfinite(sims), axis=0)
    defined &= np.isfinite(ref)
    if not np.any(defined):
        raise ValueError("statistic undefined on the whole grid")
    rr, ss = r[defined], ref[defined]
    delta_obs = float(np.trapezoid((s_obs[defined] - ss) ** 2, rr))
    deltas = np.array([float(np.trapezoid((row[defined] - ss) ** 2, rr))
                       for row in sims])
    p = (1 + int(np.sum(deltas >= delta_obs))) / (spec.k + 1)
    return DeviationTestResult(p_value=p, delta_obs=delta_obs, deltas=deltas,
                               statistic=spec.statistic, reference=reference,
                               r=r, reference_curve=ref)


# ---------------------------------------------------------------------------
# retained-mark density
# ---------------------------------------------------------------------------

def radius_pdf_after_thinning(model: ModelSpec,
                              mark_grid: np.ndarray = None) -> SummaryTable:
    """Density (or atom masses) of the mark of a typical retained point.

    Continuous mark distributions give a normalized density on
    `mark_grid` (default: 200 points across the mark support); discrete
    ones give the retained probability masses at the atoms (a point-mass
    mark yields the degenerate unit mass).
    """
    if not model.marked:
        raise ValueError("radius_pdf_after_thinning requires a marked model")
    if model.mu.is_discrete:
        ker = ModelKernel(model)
        masses = ker.retention(model.lam) * ker.weights
        masses /= masses.sum()
        order = np.argsort(ker.nodes)
        return SummaryTable("mark-density", ker.nodes[order], masses[order],
                            provenance="analytic")
    lo, hi = model.mu.support()
    if mark_grid is None:
        mark_grid = np.linspace(lo, hi, 200)
    mark_grid = np.asarray(mark_grid, dtype=float)
    return SummaryTable("mark-density", mark_grid,
                        analytic.retained_mark_density(model, mark_grid),
                        provenance="analytic")
