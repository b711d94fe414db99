"""Output checks, computed apart from the library.

Every reference here is built from closed forms, from scipy quadrature
or from a pair search of the benchmark's own; none calls
``matern_thinning``.  Each ``check_*`` function returns a list of
messages, empty when the outputs are correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, stats

# Tolerance on the analytic L reference of the hard-core model.  The
# library integrates g by a uniform trapezoid that ignores the jump of g
# at R, which leaves an error of up to 1e-3 in L; the tolerance admits it.
L_ATOL = 2e-3
# Marked pcf tables against the closed-form lens-area pcf.  The two agree
# to about 1e-10 relative, so a 1e-6 error is caught.
PCF_RTOL = 1e-8
PCF_ATOL = 1e-12
# Intensity checks, in standard errors.
N_SE = 4.0


# ---------------------------------------------------------------------------
# geometry and quadrature
# ---------------------------------------------------------------------------

def lens_area(d, r1, r2):
    """Area of the intersection of two discs of radii r1, r2 at distance d."""
    d, r1, r2 = np.broadcast_arrays(np.asarray(d, float), np.asarray(r1, float),
                                    np.asarray(r2, float))
    out = np.zeros(d.shape)
    small, big = np.minimum(r1, r2), np.maximum(r1, r2)
    inside = d <= big - small
    out[inside] = np.pi * small[inside] ** 2
    part = (~inside) & (d < r1 + r2)
    dd, a, b = d[part], r1[part], r2[part]
    ca = np.clip((dd ** 2 + a ** 2 - b ** 2) / (2 * dd * a), -1.0, 1.0)
    cb = np.clip((dd ** 2 + b ** 2 - a ** 2) / (2 * dd * b), -1.0, 1.0)
    kite = 0.5 * np.sqrt(np.maximum(
        (-dd + a + b) * (dd + a - b) * (dd - a + b) * (dd + a + b), 0.0))
    out[part] = a ** 2 * np.arccos(ca) + b ** 2 * np.arccos(cb) - kite
    return out


def hardcore_L(lam: float, R: float, r: np.ndarray) -> np.ndarray:
    """L(r) of the 2-D Matern-I hard core, from K(r) = int 2 pi t g(t) dt.

    g(t) = 0 below R and exp(lam * lens(t; R, R)) above it; the integral
    is adaptive quadrature split at R and 2R.
    """
    def integrand(t):
        return 2.0 * math.pi * t * math.exp(lam * float(lens_area(t, R, R)))

    out = np.empty(len(r))
    for idx, ri in enumerate(np.asarray(r, float)):
        if ri <= R:
            out[idx] = 0.0
            continue
        K = integrate.quad(integrand, R, min(ri, 2 * R),
                           epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        if ri > 2 * R:
            K += math.pi * (ri ** 2 - 4 * R ** 2)
        out[idx] = math.sqrt(K / math.pi)
    return out


def uniform_mark_quadrature(a: float, b: float, m: int):
    """Gauss-Legendre nodes on [a, b] with weights normalized to sum 1."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (a + b), w / w.sum()


_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W


def competition_quadrature(a, b, c):
    """int_0^1 int_0^1 exp(a s + b t + c min(s, t)) ds dt, elementwise.

    Tensor Gauss-Legendre on the two triangles either side of the
    diagonal, where the integrand is smooth; t = s * u maps each triangle
    onto the unit square.
    """
    a, b, c = (np.asarray(v, float)[..., None, None] for v in (a, b, c))
    s = _GL_X[:, None]
    t = s * _GL_X[None, :]
    w = (_GL_W[:, None] * _GL_W[None, :]) * s
    below = np.exp(a * s + (b + c) * t)      # t < s, min = t
    above = np.exp((a + c) * t + b * s)      # s < t (roles swapped)
    return np.sum((below + above) * w, axis=(-2, -1))


def marksum_pcf(variant: str, lam: float, nodes: np.ndarray,
                weights: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pair correlation of the 2-D mark-sum hard core on a mark quadrature.

    f(r, m, n) = 1[r <= m + n].  Mark survival is
    log q_m = -lam sum_k w_k pi (m + l_k)^2 and the pair term is
    log q_mn(r) = lam sum_k w_k lens(r; m + l_k, n + l_k).  Mutual
    deletion ("mat1-marked") multiplies q_m q_n q_mn; weighted
    competition ("mat2", uniform weights) integrates
    exp(s log q_m + t log q_n + min(s, t) log q_mn) over the two weights.
    """
    m = nodes
    log_q = -lam * (np.pi * (m[:, None] + m[None, :]) ** 2) @ weights
    out = np.empty(len(r))
    for idx, ri in enumerate(r):
        radii = m[:, None] + m[None, :]                     # (i, k)
        lens = lens_area(ri, radii[:, None, :], radii[None, :, :])
        log_qmn = lam * lens @ weights                      # (i, j)
        keep = (ri > m[:, None] + m[None, :]).astype(float)
        if variant == "mat1-marked":
            term = keep * np.exp(log_q[:, None] + log_q[None, :] + log_qmn)
            denom = float(weights @ np.exp(log_q)) ** 2
        else:
            term = keep * competition_quadrature(log_q[:, None],
                                                 log_q[None, :], log_qmn)
            denom = float(weights @ (np.expm1(log_q) / log_q)) ** 2
        out[idx] = float(weights @ term @ weights) / denom
    return out


# ---------------------------------------------------------------------------
# pair search
# ---------------------------------------------------------------------------

def close_pairs(points: np.ndarray, r: float):
    """Index pairs (i, j) and distances of points at distance <= r.

    A cell grid of side r: every pair within r lies in one cell or in two
    neighbouring cells, so each point is compared with the points of its
    own cell and of the neighbour cells in one half of the offsets.
    """
    pts = np.asarray(points, float)
    n, dim = pts.shape
    cell = np.floor((pts - pts.min(axis=0)) / r).astype(np.int64)
    dims = cell.max(axis=0) + 1
    key = np.ravel_multi_index(cell.T, dims)
    order = np.argsort(key, kind="stable")
    all_keys = np.arange(int(np.prod(dims)))
    start = np.searchsorted(key[order], all_keys, side="left")
    count = np.searchsorted(key[order], all_keys, side="right") - start
    zero = (0,) * dim
    ii, jj = [], []
    for off in itertools.product((-1, 0, 1), repeat=dim):
        if off < zero:
            continue                   # the mirror offset finds these pairs
        nb = cell + np.asarray(off)
        src = np.flatnonzero(np.all((nb >= 0) & (nb < dims), axis=1))
        nkey = np.ravel_multi_index(nb[src].T, dims)
        cnt = count[nkey]
        first = np.repeat(start[nkey] - (np.cumsum(cnt) - cnt), cnt)
        i = np.repeat(src, cnt)
        j = order[first + np.arange(int(cnt.sum()))]
        if off == zero:
            keep = i < j
            i, j = i[keep], j[keep]
        ii.append(i)
        jj.append(j)
    i, j = np.concatenate(ii), np.concatenate(jj)
    d = np.sqrt(np.sum((pts[i] - pts[j]) ** 2, axis=1))
    hit = d <= r
    return i[hit], j[hit], d[hit]


def intensity_within(count: int, area: float, expected: float,
                     what: str) -> list:
    """Pooled count against an expected intensity, within N_SE errors.

    The standard error is the Poisson one, sqrt(expected * area) / area,
    which bounds that of the under-dispersed hard-core patterns.
    """
    se = math.sqrt(expected * area) / area
    got = count / area
    if abs(got - expected) > N_SE * se:
        return [f"{what}: intensity {got:.6g} is not within {N_SE:g} "
                f"standard errors ({se:.3g}) of {expected:.6g}"]
    return []


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_hardcore_L(r, curves, lam, R) -> list:
    """Each analytic reference curve against the quadrature of K."""
    expected = hardcore_L(lam, R, np.asarray(r, float))
    errors = []
    for i, curve in enumerate(curves):
        err = float(np.max(np.abs(np.asarray(curve) - expected)))
        if not err <= L_ATOL:
            errors.append(f"devtest {i}: reference L is off by {err:.3g} "
                          f"(tolerance {L_ATOL:g})")
    return errors


def check_hard_core(points: np.ndarray, R: float, what: str) -> list:
    """No two points at distance <= R."""
    if len(close_pairs(points, R)[2]):
        return [f"{what}: a pair lies within the hard-core distance {R:g}"]
    return []


def check_table(r_read, g_read, r_expected, g_expected, what: str) -> list:
    """A pcf table read back against its reference curve."""
    if len(r_read) != len(r_expected) or not np.allclose(
            r_read, r_expected, rtol=1e-15, atol=0.0):
        return [f"{what}: radii differ from the requested grid"]
    bad = ~np.isclose(g_read, g_expected, rtol=PCF_RTOL, atol=PCF_ATOL)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"{what}: pcf({r_read[i]:.6g}) = {g_read[i]!r}, reference "
                f"{g_expected[i]!r}"]
    return []


def fc_range(c: float, shape: float, scale: float) -> float:
    """Interaction range of fc with truncated-gamma marks: twice the mark
    cap (the 0.9999 gamma quantile) plus the taper to 1e-10."""
    cap = float(stats.gamma.ppf(0.9999, shape, scale=scale))
    return 2.0 * cap + math.log(1e10) / c


def check_fc_table(r, g, reach: float, what: str) -> list:
    """g >= 0 everywhere and g = 1 beyond twice the interaction range."""
    errors = []
    if not np.all(g >= 0.0):
        errors.append(f"{what}: negative pcf values")
    far = r > 2.0 * reach
    if not np.any(far):
        errors.append(f"{what}: no radius beyond twice the range")
    elif np.max(np.abs(g[far] - 1.0)) > 1e-9:
        errors.append(f"{what}: pcf differs from 1 beyond twice the range")
    return errors
