"""Seeded Monte-Carlo simulation: Poisson sampling and the thinning rules.

All thinning decisions are simultaneous: every Bernoulli pair-draw
references the complete base pattern, never a partially thinned one.
Per-pair and per-point uniforms come from a counter-based hash keyed by
(seed, replicate, point indices, direction), so results are independent
of pair enumeration order and identical between the grid-accelerated and
brute-force pair enumerations.  Replicates derive independent streams
from (seed, replicate_index) and are embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.spatial import cKDTree

from .core import PointPattern, Window
from .interactions import InteractionFunction
from .models import ModelSpec

__all__ = ["SimConfig", "sample_poisson", "thin_mat1", "thin_mat2",
           "simulate_model", "resolve_halo"]


@dataclass(frozen=True)
class SimConfig:
    """Seeding and halo configuration for one simulation run."""

    seed: int
    replicate_index: int = 0
    halo: Union[str, float] = "auto"
    brute_force_pairs: bool = False   # O(n^2) enumeration, testing oracle

    def __post_init__(self):
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be >= 0")
        if self.halo != "auto" and float(self.halo) < 0:
            raise ValueError("halo must be 'auto' or a radius >= 0")


def resolve_halo(cfg: SimConfig, spec: ModelSpec) -> float:
    """Halo radius: the interaction cutoff (maximized over mark support)."""
    if cfg.halo != "auto":
        return float(cfg.halo)
    halo = spec.interaction_range()
    if not math.isfinite(halo):
        raise ValueError("cannot resolve an automatic halo for a "
                         "non-integrable interaction; give one explicitly")
    return halo


# ---------------------------------------------------------------------------
# counter-based uniforms (SplitMix64 finalizer, applied twice)
# ---------------------------------------------------------------------------

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    # uint64 arithmetic wraps modulo 2^64 by design
    with np.errstate(over="ignore"):
        z = np.uint64(z) if np.isscalar(z) else z.astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, replicate: int, tag: int) -> np.uint64:
    with np.errstate(over="ignore"):
        k = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * np.uint64(tag))
        return _mix(k ^ _mix(np.uint64(replicate) + _GOLDEN))


def _uniform_from(h: np.ndarray) -> np.ndarray:
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def pair_uniform(key: np.uint64, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Uniform in [0,1) for the ordered pair (i, j); asymmetric in (i, j)."""
    with np.errstate(over="ignore"):
        hi = _mix(np.asarray(i, dtype=np.uint64) * _GOLDEN + np.uint64(1))
        hj = _mix(np.asarray(j, dtype=np.uint64) * _GOLDEN + np.uint64(2))
        return _uniform_from(_mix(key ^ hi ^ (hj * _M1)))


def point_uniform(key: np.uint64, i: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = _mix(key ^ _mix(np.asarray(i, dtype=np.uint64) + _GOLDEN))
    return _uniform_from(h)


# ---------------------------------------------------------------------------
# Poisson sampling
# ---------------------------------------------------------------------------

def sample_poisson(window: Window, lam: float,
                   mu=None, nu=None, cfg: SimConfig = None) -> PointPattern:
    """Homogeneous (independently marked) Poisson sample on `window`.

    Count ~ Poisson(lam |W|), locations i.i.d. uniform, marks i.i.d. mu,
    weights drawn from nu given each mark.  Fully determined by
    (cfg.seed, cfg.replicate_index).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if cfg is None:
        cfg = SimConfig(seed=0)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(cfg.seed) & (2 ** 64 - 1),
                               spawn_key=(0x706F6973, cfg.replicate_index)))
    n = rng.poisson(lam * window.volume())
    pts = window.lower + rng.random((n, window.dim)) * window.sides
    marks = mu.sample(rng, n) if mu is not None else None
    weights = nu.sample(rng, marks) if nu is not None else None
    return PointPattern(window, pts, marks, weights, validate=False)


# ---------------------------------------------------------------------------
# pair enumeration
# ---------------------------------------------------------------------------

def _candidate_pairs(points: np.ndarray, r_max: float,
                     brute_force: bool) -> np.ndarray:
    """Index pairs (i < j) within distance r_max; shape (npairs, 2)."""
    n = len(points)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    if brute_force:
        ii, jj = np.triu_indices(n, k=1)
        d = np.linalg.norm(points[ii] - points[jj], axis=1)
        keep = d <= r_max
        return np.column_stack([ii[keep], jj[keep]]).astype(np.int64)
    tree = cKDTree(points)
    pairs = tree.query_pairs(r_max, output_type="ndarray")
    return pairs.astype(np.int64)


def _pair_distances(points, pairs):
    return np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)


def _pair_probs(f: InteractionFunction, base: PointPattern,
                pairs: np.ndarray, dists: np.ndarray) -> np.ndarray:
    if f.marked:
        if base.marks is None:
            raise ValueError(f"interaction {f.id!r} needs a marked pattern")
        return np.asarray(f(dists, base.marks[pairs[:, 0]],
                            base.marks[pairs[:, 1]]), dtype=float)
    return np.asarray(f(dists), dtype=float)


def _interaction_range(f: InteractionFunction, base: PointPattern) -> float:
    if not f.marked:
        return f.cutoff()
    if base.marks is None or len(base.marks) == 0:
        return 0.0
    hi = float(base.marks.max())
    return f.max_cutoff(hi)


def _finish(base: PointPattern, deleted: np.ndarray, p0: float,
            key_p0: np.uint64, target_window: Optional[Window]) -> PointPattern:
    survivors = ~deleted
    if p0 < 1.0:
        idx = np.arange(len(base), dtype=np.uint64)
        survivors &= point_uniform(key_p0, idx) < p0
    out = base.subset(survivors)
    if target_window is not None:
        out = out.clip(target_window)
    return out


# ---------------------------------------------------------------------------
# thinning rules
# ---------------------------------------------------------------------------

def _thin(base: PointPattern, f: InteractionFunction, p0: float,
          cfg: SimConfig, target_window: Optional[Window],
          weights: Optional[np.ndarray] = None) -> PointPattern:
    """Each point of an interacting pair deletes the other with probability
    f(distance[, marks]); with `weights`, only a point whose weight is
    greater than or equal to the other's is at risk.  The survivors are
    independently p0-thinned and clipped to target_window.
    """
    if not (0.0 < p0 <= 1.0):
        raise ValueError("p0 must be in (0, 1]")
    key_pairs = _stream_key(cfg.seed, cfg.replicate_index, 0x7061)
    key_p0 = _stream_key(cfg.seed, cfg.replicate_index, 0x7030)
    deleted = np.zeros(len(base), dtype=bool)
    r_max = _interaction_range(f, base)
    if r_max > 0 and len(base) > 1:
        pairs = _candidate_pairs(base.points, r_max, cfg.brute_force_pairs)
        if len(pairs):
            probs = _pair_probs(f, base, pairs, _pair_distances(base.points, pairs))
            i, j = pairs[:, 0], pairs[:, 1]
            # u keyed (victim, killer): j deletes i with probability f
            kill_i = pair_uniform(key_pairs, i, j) < probs
            kill_j = pair_uniform(key_pairs, j, i) < probs
            if weights is not None:
                kill_i &= weights[i] >= weights[j]
                kill_j &= weights[j] >= weights[i]
            deleted[i[kill_i]] = True
            deleted[j[kill_j]] = True
    return _finish(base, deleted, p0, key_p0, target_window)


def thin_mat1(base: PointPattern, f: InteractionFunction, p0: float,
              cfg: SimConfig,
              target_window: Optional[Window] = None) -> PointPattern:
    """Mutual probabilistic deletion: each of an interacting pair deletes
    the other independently with probability f(distance[, marks]); the
    survivors are independently p0-thinned and clipped to target_window.
    """
    return _thin(base, f, p0, cfg, target_window)


def thin_mat2(base: PointPattern, f: InteractionFunction, p0: float,
              cfg: SimConfig,
              target_window: Optional[Window] = None) -> PointPattern:
    """Weighted competition: in an interacting pair only the point whose
    weight is greater than or equal to the other's can be deleted, with
    probability f(distance, marks).  Ties (probability ~0 for continuous
    weights) put both points at risk, following the rule verbatim.
    """
    if base.weights is None:
        raise ValueError("thin_mat2 requires a weighted base pattern")
    if not f.marked:
        raise ValueError("thin_mat2 requires a marked interaction")
    return _thin(base, f, p0, cfg, target_window, base.weights)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def simulate_model(spec: ModelSpec, window: Window,
                   cfg: SimConfig) -> PointPattern:
    """Sample the base process on the halo-dilated window, thin, clip."""
    halo = resolve_halo(cfg, spec)
    base_window = window.dilate(halo)
    mu = spec.mu if spec.marked else None
    nu = spec.nu if spec.variant == "mat2" else None
    base = sample_poisson(base_window, spec.lam, mu, nu, cfg)
    if spec.variant == "mat2":
        return thin_mat2(base, spec.f, spec.p0, cfg, target_window=window)
    return thin_mat1(base, spec.f, spec.p0, cfg, target_window=window)
