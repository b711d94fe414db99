"""Registry of deletion-probability functions f(r) and f(r, m, n).

Every interaction is symmetric in its marks, takes values in [0, 1] and
declares an effective cutoff beyond which its contribution is negligible
(below 1e-10); compact-support families use the exact support endpoint.
Registered ids:

==================  ======================================================
hardcore            1_[0,R](r)
strauss             f0 * 1_[0,R](r)
example1            soft/hard-core blend: 1 on [0,a], exp tail up to ~R
example2            aggregative r^a exp(-r^2) / Gamma(1 + a/2)
softshell           1 on [0,R], (1/a) exp(-(r-R)^2 / b) outside
marksum_hardcore    marked 1_[0, m+n](r)
fc                  marked 1 on [0, m+n], exp(-c (r-m-n)) outside
constant            f = p everywhere (non-integrable; divergence testing)
==================  ======================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as _gamma_fn

__all__ = ["InteractionFunction", "RadialSlice", "make_interaction",
           "registry_ids"]

CUTOFF_THRESHOLD = 1e-10


@dataclass(frozen=True)
class RadialSlice:
    """A 1-D radial function with its cutoff and jump/kink locations."""

    func: Callable[[np.ndarray], np.ndarray]
    cutoff: float
    breakpoints: tuple = ()

    def __call__(self, r):
        return self.func(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class InteractionFunction:
    """Symmetric deletion-probability function from the registry."""

    id: str
    params: dict
    marked: bool
    _func: Callable = field(repr=False)
    _cutoff: Callable = field(repr=False)          # (m, n) -> float, may be inf
    _breakpoints: Callable = field(repr=False)     # (m, n) -> tuple
    _closed_tail: Optional[Callable] = field(default=None, repr=False)
    _indicator: Optional[Callable] = field(default=None, repr=False)

    def __call__(self, r, m=None, n=None):
        r = np.asarray(r, dtype=float)
        if self.marked:
            if m is None or n is None:
                raise ValueError(f"interaction {self.id!r} requires marks")
            return self._func(r, np.asarray(m, float), np.asarray(n, float))
        return self._func(r)

    def cutoff(self, m=None, n=None) -> float:
        return self._cutoff(m, n)

    def max_cutoff(self, mark_upper: float = None) -> float:
        """Cutoff maximized over the mark support (halo radius)."""
        if not self.marked:
            return self._cutoff(None, None)
        if mark_upper is None:
            raise ValueError("marked interaction needs a mark support bound")
        return self._cutoff(mark_upper, mark_upper)

    def breakpoints(self, m=None, n=None) -> tuple:
        return self._breakpoints(m, n)

    def closed_tail_integral(self, d: int, m=None, n=None) -> Optional[float]:
        """Analytic value of int_0^inf f(r) r^(d-1) dr, when known."""
        if self._indicator is not None:
            c, rho = self._indicator(m, n)
            return c * rho ** d / d
        return self._closed_tail and self._closed_tail(d, m, n)

    def indicator(self, m=None, n=None) -> Optional[tuple]:
        """(c, rho) with f = c 1_[0, rho(m, n)]; marks may be arrays."""
        return self._indicator and self._indicator(m, n)

    def slice(self, m=None, n=None) -> RadialSlice:
        """The radial function r -> f(r, m, n) with marks frozen."""
        if self.marked:
            if m is None or n is None:
                raise ValueError(f"interaction {self.id!r} requires marks")
            mm, nn = float(m), float(n)
            return RadialSlice(lambda r: self._func(np.asarray(r, float), mm, nn),
                               self._cutoff(mm, nn), self._breakpoints(mm, nn))
        return RadialSlice(self._func, self._cutoff(None, None),
                           self._breakpoints(None, None))


def _find_cutoff(func, threshold=CUTOFF_THRESHOLD, r_max=2.0 ** 34):
    """Smallest r with func(r) < threshold, by doubling search then bisection.

    Returns inf when no such r exists below r_max (non-integrable tail).
    """
    r = 1.0
    if func(r) >= threshold:
        while func(r) >= threshold:
            r *= 2.0
            if r > r_max:
                return math.inf
        lo, hi = r / 2.0, r
    else:
        while r > 1e-12 and func(r / 2.0) < threshold:
            r /= 2.0
        lo, hi = r / 2.0, r
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if func(mid) < threshold:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


# -- family factories ------------------------------------------------------

def _make_hardcore(R):
    if R <= 0:
        raise ValueError("hardcore requires R > 0")
    return InteractionFunction(
        "hardcore", {"R": R}, False,
        lambda r: (r <= R).astype(float),
        lambda m, n: R,
        lambda m, n: (R,),
        _indicator=lambda m, n: (1.0, R),
    )


def _make_strauss(f0, R):
    if not (0.0 < f0 < 1.0):
        raise ValueError("strauss requires f0 in (0, 1)")
    if R <= 0:
        raise ValueError("strauss requires R > 0")
    return InteractionFunction(
        "strauss", {"f0": f0, "R": R}, False,
        lambda r: f0 * (r <= R),
        lambda m, n: R,
        lambda m, n: (R,),
        _indicator=lambda m, n: (f0, R),
    )


def _make_example1(a, R):
    if R <= 0:
        raise ValueError("example1 requires R > 0")
    if not (0.0 <= a <= R):
        raise ValueError(f"example1 requires a in [0, R], got a={a}, R={R}")
    if a == R:  # indicator limit
        hc = _make_hardcore(R)
        return InteractionFunction("example1", {"a": a, "R": R}, False,
                                   hc._func, hc._cutoff, hc._breakpoints,
                                   _indicator=hc._indicator)
    s2 = R ** 2 - a ** 2

    def f(r):
        return np.where(r <= a, 1.0, np.exp(-(r ** 2 - a ** 2) / s2))

    cutoff = math.sqrt(a ** 2 + s2 * math.log(1.0 / CUTOFF_THRESHOLD))
    return InteractionFunction(
        "example1", {"a": a, "R": R}, False,
        f,
        lambda m, n: cutoff,
        lambda m, n: (a,) if a > 0 else (),
        # d=2: a^2/2 + int_a^inf exp(-(r^2-a^2)/s2) r dr = R^2/2 exactly
        lambda d, m, n: R ** 2 / 2.0 if d == 2 else None,
    )


def _make_example2(a):
    if a < 0:
        raise ValueError("example2 requires a >= 0")
    norm = float(_gamma_fn(1.0 + a / 2.0))

    def f(r):
        with np.errstate(invalid="ignore"):
            out = np.where(r > 0, r, 1.0) ** a * np.exp(-np.square(r)) / norm
        if a > 0:
            out = np.where(np.asarray(r) == 0.0, 0.0, out)
        return out

    # sup over r of h_a must stay <= 1 or the family leaves [0, 1]
    r_peak = math.sqrt(a / 2.0) if a > 0 else 0.0
    grid = np.linspace(0.0, max(2.0 * r_peak, 4.0), 2001)
    if float(f(grid).max()) > 1.0 + 1e-12:
        raise ValueError(f"example2 parameter a={a} gives sup h_a > 1")

    cutoff = _find_cutoff(lambda r: float(f(np.array([r]))[0]))
    return InteractionFunction(
        "example2", {"a": a}, False,
        f,
        lambda m, n: cutoff,
        lambda m, n: (),
    )


def _make_softshell(R, a, b):
    if R < 0 or b <= 0 or a < 1.0:
        raise ValueError("softshell requires R >= 0, a >= 1, b > 0")

    def f(r):
        return np.where(r <= R, 1.0, np.exp(-np.square(r - R) / b) / a)

    cutoff = R + math.sqrt(b * math.log(1.0 / (a * CUTOFF_THRESHOLD)))
    return InteractionFunction(
        "softshell", {"R": R, "a": a, "b": b}, False,
        f,
        lambda m, n: cutoff,
        lambda m, n: (R,) if R > 0 else (),
    )


def _make_marksum_hardcore():
    return InteractionFunction(
        "marksum_hardcore", {}, True,
        lambda r, m, n: (r <= m + n).astype(float),
        lambda m, n: float(m) + float(n),
        lambda m, n: (float(m) + float(n),),
        _indicator=lambda m, n: (1.0, m + n),
    )


def _make_fc(c):
    if c <= 0:
        raise ValueError("fc requires c > 0")
    tail = math.log(1.0 / CUTOFF_THRESHOLD) / c

    def f(r, m, n):
        s = m + n
        return np.where(r <= s, 1.0, np.exp(-c * np.maximum(r - s, 0.0)))

    return InteractionFunction(
        "fc", {"c": c}, True,
        f,
        lambda m, n: float(m) + float(n) + tail,
        lambda m, n: (float(m) + float(n),),
    )


def _make_constant(p):
    if not (0.0 < p <= 1.0):
        raise ValueError("constant requires p in (0, 1]")
    return InteractionFunction(
        "constant", {"p": p}, False,
        lambda r: np.full_like(np.asarray(r, float), p),
        lambda m, n: math.inf,
        lambda m, n: (),
    )


_REGISTRY = {
    "hardcore": _make_hardcore,
    "strauss": _make_strauss,
    "example1": _make_example1,
    "example2": _make_example2,
    "softshell": _make_softshell,
    "marksum_hardcore": _make_marksum_hardcore,
    "fc": _make_fc,
    "constant": _make_constant,
}


def registry_ids():
    return sorted(_REGISTRY)


def make_interaction(id: str, **params) -> InteractionFunction:
    """Build a registered interaction, validating its parameter domain."""
    try:
        factory = _REGISTRY[id]
    except KeyError:
        raise ValueError(f"unknown interaction id {id!r}; "
                         f"known: {', '.join(registry_ids())}") from None
    return factory(**params)
