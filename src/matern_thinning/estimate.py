"""Nonparametric summary statistics from observed point patterns.

Intensity, kernel pair-correlation function, Ripley K / L functions,
nearest-neighbor distance distribution G and empty-space function F,
with edge corrections appropriate for box windows:

* translation correction for pair statistics (pcf, K, L) — exact for
  axis-aligned boxes in any dimension;
* minus-sampling (border method) for the cdf statistics G and F: the
  reference points are restricted to the window eroded by the largest
  evaluation radius, so each estimate is an honest empirical cdf —
  nondecreasing, in [0, 1], and unbiased at every radius of the grid.

The kernel estimator of the pair correlation function is

    g_hat(r) = sum_{x != y} k_h(r - |x - y|) / (d b_d r^(d-1) lam^2 w(x,y))

with the Epanechnikov kernel k_h and translation weight
w(x, y) = prod_i (L_i - |x_i - y_i|).  Values at r <= h are flagged NaN
rather than extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy import integrate
from scipy.spatial import cKDTree

from .core import PointPattern, SummaryTable, Window, ball_volume

__all__ = ["EstimatorConfig", "resolve_bandwidth", "resolve_r_grid",
           "estimate_pcf", "estimate_K", "estimate_L",
           "estimate_G", "estimate_F", "expected_pcf_estimate"]

# scale-equivariant rule-of-thumb bandwidth constants, h = C_d / lam^(1/d)
_BANDWIDTH_COEF = {1: 0.10, 2: 0.15, 3: 0.26}
# pairs per block of the pcf kernel sum: bounds its grid x pairs temporaries
_PAIR_CHUNK = 4096


@dataclass(frozen=True)
class EstimatorConfig:
    """Grid and bandwidth settings for the estimators.

    Parameters
    ----------
    bandwidth : "auto" or float
        Kernel bandwidth for the pair correlation function.  "auto"
        resolves to ``C_d / intensity**(1/d)`` with C_d = 0.10, 0.15,
        0.26 for d = 1, 2, 3.
    r_max : float, optional
        Upper end of the evaluation grid.  Defaults to a quarter of the
        shortest window side.  Must stay below half the shortest side
        (translation-correction validity) and below half of it for the
        border method as well.
    n_points : int
        Number of grid points; the grid is uniform on (0, r_max].
    f_test_points : int
        Per-axis density of the regular test-point lattice used by the
        empty-space function.
    intensity : float, optional
        Known intensity overriding the naive estimate n / |W| (useful
        when pooling replicates from a known model).
    """

    bandwidth: Union[str, float] = "auto"
    r_max: Optional[float] = None
    n_points: int = 128
    f_test_points: int = 32
    intensity: Optional[float] = None

    def __post_init__(self):
        if self.bandwidth != "auto" and float(self.bandwidth) <= 0:
            raise ValueError("bandwidth must be 'auto' or > 0")
        if self.r_max is not None and self.r_max <= 0:
            raise ValueError("r_max must be > 0")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if self.f_test_points < 2:
            raise ValueError("f_test_points must be >= 2")
        if self.intensity is not None and self.intensity <= 0:
            raise ValueError("intensity override must be > 0")


def _intensity_of(pattern: PointPattern, cfg: EstimatorConfig) -> float:
    if cfg.intensity is not None:
        return float(cfg.intensity)
    return pattern.intensity()


def resolve_bandwidth(pattern: PointPattern, cfg: EstimatorConfig) -> float:
    """Kernel bandwidth after resolving the "auto" rule of thumb."""
    if cfg.bandwidth != "auto":
        return float(cfg.bandwidth)
    lam = _intensity_of(pattern, cfg)
    if lam <= 0:
        raise ValueError("cannot resolve an automatic bandwidth for an "
                         "empty pattern; give one explicitly")
    d = pattern.dim
    return _BANDWIDTH_COEF[d] / lam ** (1.0 / d)


def resolve_r_grid(window: Window, cfg: EstimatorConfig) -> np.ndarray:
    """Uniform evaluation grid on (0, r_max], r_max capped by the window."""
    shortest = float(window.sides.min())
    r_max = cfg.r_max if cfg.r_max is not None else 0.25 * shortest
    if r_max >= 0.5 * shortest:
        raise ValueError(
            f"r_max={r_max:g} must be below half the shortest window side "
            f"({0.5 * shortest:g}) for the edge corrections to be valid")
    return np.linspace(0.0, r_max, cfg.n_points + 1)[1:]


# ---------------------------------------------------------------------------
# pair statistics (translation correction)
# ---------------------------------------------------------------------------

def _close_pairs(pattern: PointPattern, r_max: float):
    """Distances and translation weights of unordered pairs within r_max."""
    pts = pattern.points
    if len(pts) < 2:
        return np.empty(0), np.empty(0)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r_max, output_type="ndarray")
    if len(pairs) == 0:
        return np.empty(0), np.empty(0)
    delta = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    dist = np.linalg.norm(delta, axis=1)
    w = np.prod(pattern.window.sides - np.abs(delta), axis=1)
    return dist, w


def estimate_pcf(pattern: PointPattern,
                 cfg: EstimatorConfig = EstimatorConfig()) -> SummaryTable:
    """Kernel pair-correlation estimate with translation edge correction.

    Epanechnikov kernel; values at r <= bandwidth are NaN-flagged rather
    than extrapolated.  Requires at least two points.
    """
    if len(pattern) < 2:
        raise ValueError("estimate_pcf needs at least 2 points")
    d = pattern.dim
    lam = _intensity_of(pattern, cfg)
    h = resolve_bandwidth(pattern, cfg)
    r = resolve_r_grid(pattern.window, cfg)
    dist, w = _close_pairs(pattern, r[-1] + h)
    total = np.zeros_like(r)
    for s in range(0, len(dist), _PAIR_CHUNK):
        u = (r[:, None] - dist[None, s:s + _PAIR_CHUNK]) / h
        kern = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u) / h, 0.0)
        total += (kern / w[None, s:s + _PAIR_CHUNK]).sum(axis=1)
    # ordered pairs: each unordered pair contributes twice
    values = 2.0 / (d * ball_volume(d) * lam * lam) * total / r ** (d - 1)
    values = np.where(r <= h, np.nan, values)
    return SummaryTable("pcf", r, values, provenance="empirical")


def estimate_K(pattern: PointPattern,
               cfg: EstimatorConfig = EstimatorConfig()) -> SummaryTable:
    """Ripley K function, translation edge correction."""
    lam = _intensity_of(pattern, cfg)
    r = resolve_r_grid(pattern.window, cfg)
    if len(pattern) < 2 or lam <= 0:
        return SummaryTable("K", r, np.zeros_like(r), provenance="empirical")
    dist, w = _close_pairs(pattern, r[-1])
    order = np.argsort(dist)
    dist, w = dist[order], w[order]
    cum = np.concatenate([[0.0], np.cumsum(2.0 / w)])  # ordered pairs
    counts = cum[np.searchsorted(dist, r, side="right")]
    return SummaryTable("K", r, counts / (lam * lam), provenance="empirical")


def estimate_L(pattern: PointPattern,
               cfg: EstimatorConfig = EstimatorConfig()) -> SummaryTable:
    """L function, L(r) = (K(r) / b_d)^(1/d); equals r under CSR."""
    k = estimate_K(pattern, cfg)
    d = pattern.dim
    vals = (np.maximum(k.values, 0.0) / ball_volume(d)) ** (1.0 / d)
    return SummaryTable("L", k.r, vals, provenance="empirical")


# ---------------------------------------------------------------------------
# cdf statistics (border method / minus-sampling)
# ---------------------------------------------------------------------------

def _border_cdf(ref_points: np.ndarray, data_points: np.ndarray,
                window: Window, r: np.ndarray, exclude_self: bool) -> np.ndarray:
    """Empirical cdf of nearest-data distances from eroded reference points.

    Only reference points at boundary distance >= r[-1] enter, so every
    indicator 1{dist <= r} is observed without censoring; the result is
    a genuine (sub-)cdf: nondecreasing and in [0, 1].
    """
    keep = window.boundary_distance(ref_points) >= r[-1]
    ref = np.atleast_2d(ref_points)[keep]
    if len(ref) == 0:
        raise ValueError(
            f"no reference points survive erosion by r_max={r[-1]:g}; "
            "reduce r_max or enlarge the window")
    if len(data_points) == 0:
        return np.zeros_like(r)
    tree = cKDTree(data_points)
    k = 2 if exclude_self else 1
    dist = tree.query(ref, k=k)[0]
    dist = dist[:, -1] if k > 1 else dist
    dist = np.sort(dist)
    return np.searchsorted(dist, r, side="right") / len(ref)


def estimate_G(pattern: PointPattern,
               cfg: EstimatorConfig = EstimatorConfig()) -> SummaryTable:
    """Nearest-neighbor distance distribution, border corrected."""
    if len(pattern) == 0:
        raise ValueError("estimate_G needs a nonempty pattern")
    r = resolve_r_grid(pattern.window, cfg)
    if len(pattern) == 1:
        return SummaryTable("G", r, np.zeros_like(r), provenance="empirical")
    vals = _border_cdf(pattern.points, pattern.points, pattern.window, r,
                       exclude_self=True)
    return SummaryTable("G", r, vals, provenance="empirical")


def estimate_F(pattern: PointPattern,
               cfg: EstimatorConfig = EstimatorConfig()) -> SummaryTable:
    """Empty-space function from a regular test-point lattice, border
    corrected."""
    r = resolve_r_grid(pattern.window, cfg)
    win = pattern.window
    axes = [np.linspace(win.lower[i], win.upper[i], cfg.f_test_points + 2)[1:-1]
            for i in range(win.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.column_stack([m.ravel() for m in mesh])
    vals = _border_cdf(lattice, pattern.points, win, r, exclude_self=False)
    return SummaryTable("F", r, vals, provenance="empirical")


# ---------------------------------------------------------------------------
# exact expectation of the kernel pcf estimator (testing aid)
# ---------------------------------------------------------------------------

def expected_pcf_estimate(g, r: np.ndarray, bandwidth: float, dim: int,
                          breakpoints=()) -> np.ndarray:
    """Expected value of the kernel pcf estimator under a known pcf g.

    The translation-corrected estimator with known intensity is unbiased
    for the kernel-smoothed quantity

        int k_h(r - t) g(t) (t / r)^(d-1) dt,

    not for g itself; comparing a Monte-Carlo estimate against this
    smoothed curve removes the smoothing bias from the comparison.
    `breakpoints` lists radii where g jumps (e.g. hard-core edges).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    h = float(bandwidth)
    for idx, ri in enumerate(r):
        lo, hi = max(0.0, ri - h), ri + h
        pts = sorted({b for b in breakpoints if lo < b < hi})

        def integrand(t, ri=ri):
            u = (ri - t) / h
            return 0.75 * (1.0 - u * u) / h * g(t) * (t / ri) ** (dim - 1)

        val, _ = integrate.quad(integrand, lo, hi, points=pts or None,
                                limit=200, epsabs=1e-12, epsrel=1e-10)
        out[idx] = val
    return out
