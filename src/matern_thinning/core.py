"""Core geometric types: observation windows, point patterns, summary tables.

All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["Window", "PointPattern", "SummaryTable", "ball_volume"]


def ball_volume(d: int) -> float:
    """Volume b_d of the unit ball in R^d (single source of truth)."""
    from scipy.special import gamma

    return float(np.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0))


@dataclass(frozen=True)
class Window:
    """Axis-aligned box in R^d, d in {1, 2, 3}."""

    dim: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError("lower/upper must be d-vectors")
        if not np.all(upper > lower):
            raise ValueError("upper[i] > lower[i] required for all i")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def box(cls, dim: int, side: float, origin: float = 0.0) -> "Window":
        """Cube [origin, origin+side]^dim."""
        return cls(dim, np.full(dim, origin), np.full(dim, origin + side))

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    def volume(self) -> float:
        return float(np.prod(self.sides))

    def diameter(self) -> float:
        return float(np.sqrt(np.sum(self.sides ** 2)))

    def dilate(self, r: float) -> "Window":
        if r < 0:
            raise ValueError("dilation radius must be >= 0")
        return Window(self.dim, self.lower - r, self.upper + r)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points (n, d) lying inside the closed box."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance of each point to the window boundary."""
        pts = np.atleast_2d(points)
        return np.minimum(pts - self.lower, self.upper - pts).min(axis=1)


@dataclass(frozen=True)
class PointPattern:
    """Finite point pattern with optional real marks and weights."""

    window: Window
    points: np.ndarray
    marks: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.window.dim)
        if pts.ndim != 2 or pts.shape[1] != self.window.dim:
            raise ValueError(
                f"points must have shape (n, {self.window.dim}), got {pts.shape}"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        for name in ("marks", "weights"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float).copy()
                if arr.shape != (len(pts),):
                    raise ValueError(f"{name} must have length {len(pts)}")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.validate:
            self._check_invariants()

    def _check_invariants(self):
        if len(self.points) and not np.all(self.window.contains(self.points)):
            raise ValueError("all points must lie inside the window")
        if len(self.points) >= 2:
            tol = 1e-12 * self.window.diameter()
            tree = cKDTree(self.points)
            if tree.query_pairs(tol, output_type="ndarray").size:
                raise ValueError("points must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.window.dim

    def intensity(self) -> float:
        """Naive intensity estimate n / |W|."""
        return len(self) / self.window.volume()

    def subset(self, mask: np.ndarray, window: Optional[Window] = None) -> "PointPattern":
        """Pattern restricted to `mask`, optionally re-windowed."""
        return PointPattern(
            window or self.window,
            self.points[mask],
            None if self.marks is None else self.marks[mask],
            None if self.weights is None else self.weights[mask],
            validate=False,
        )

    def clip(self, window: Window) -> "PointPattern":
        return self.subset(window.contains(self.points), window)

    def translate(self, shift: np.ndarray) -> "PointPattern":
        shift = np.asarray(shift, dtype=float)
        win = Window(self.dim, self.window.lower + shift, self.window.upper + shift)
        return PointPattern(win, self.points + shift, self.marks, self.weights,
                            validate=False)


@dataclass(frozen=True)
class SummaryTable:
    """Tabulated summary function r -> value on a strictly increasing grid.

    NaN values flag bins where an estimator is undefined (e.g. a kernel
    pcf at r <= bandwidth).
    """

    statistic: str
    r: np.ndarray
    values: np.ndarray
    provenance: str = "analytic"

    _STATISTICS = ("pcf", "K", "L", "G", "F", "intensity", "mark-density")
    _PROVENANCES = ("analytic", "empirical")

    def __post_init__(self):
        if self.statistic not in self._STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.provenance not in self._PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        r = np.asarray(self.r, dtype=float).copy()
        v = np.asarray(self.values, dtype=float).copy()
        if r.ndim != 1 or r.shape != v.shape:
            raise ValueError("r and values must be 1-D arrays of equal length")
        if len(r) > 1 and not np.all(np.diff(r) > 0):
            raise ValueError("r grid must be strictly increasing")
        if np.any(np.isinf(v)):
            raise ValueError("values must be finite (NaN allowed for undefined bins)")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)

    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)
