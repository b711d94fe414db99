"""Exact first- and second-order characteristics of the thinned models.

Closed forms are used where the registry provides them; everything else is
adaptive (Gauss-Kronrod) quadrature for radial tail integrals and
Gauss-Legendre panels split at the interaction's declared jump/kink radii.
A kernel convolves indicators c 1_[0,rho] in closed form
(``ball_intersection``); other interactions go through
``radial_self_convolution``: a radial rule times a rule over the half
angle between the directions of the two points, in which the distance has
no cancellation and no weight is singular, so on indicators it equals the
closed form to about 1e-14 relative in d = 1, 2 and 3.  The weight
integrals of the mat2 variant split at the support ends of every weight
distribution of the model, where the weight cdfs have kinks.  K and L
integrate the pair correlation on panels that end at every output radius
and at every jump of g.

Every characteristic is lam times a lam-free integral of f in the
exponent of a retention factor, so one ``ModelKernel`` per model holds
those integrals, computed on first use, and serves the intensity, pair
correlation and mark retention of all three variants at any lam.

The module functions are pure functions of immutable inputs and are
thread-safe; a kernel shared between threads may compute a cached
integral twice, with the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate

from .core import ball_volume
from .interactions import InteractionFunction, RadialSlice
from .models import ModelSpec

__all__ = [
    "tail_integral", "space_integral", "radial_self_convolution",
    "intensity", "intensity_report", "intensity_mat2", "pcf",
    "competition_integral", "l_function", "k_function", "ball_intersection",
    "retained_mark_density", "intensity_profile", "ModelKernel",
    "IntensityResult", "DivergentModelError",
]


class DivergentModelError(ValueError):
    """The thinning is so strong that the model contains no points a.s."""


@dataclass(frozen=True)
class IntensityResult:
    """Intensity value plus a structured divergence diagnostic."""

    value: float
    divergent: bool = False
    message: str = ""


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

_GL_NODES = 24
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_NODES)
# sin-mapped Gauss-Legendre: node positions in (-1, 1) and du-weights.
_sin_x = np.sin(0.5 * np.pi * _gl_x)
_sin_w = 0.5 * np.pi * np.cos(0.5 * np.pi * _gl_x) * _gl_w


@lru_cache
def _gl_tail(K: int) -> np.ndarray:
    """T with sum_k T[m, k] w_k h(x_k) = int_{x_m}^1 h for the K-node
    Gauss-Legendre rule (x, w) and any polynomial h of degree < K, from
    int_x^1 P_n = (P_{n-1}(x) - P_{n+1}(x)) / (2n + 1) for n >= 1."""
    x, _ = np.polynomial.legendre.leggauss(K)
    V = np.polynomial.legendre.legvander(x, K)
    return 0.5 * ((1.0 - x)[:, None] + (V[:, :K - 1] - V[:, 2:]) @ V[:, 1:K].T)


def _refine(bounds: np.ndarray, splits: int) -> np.ndarray:
    """Subdivide each panel of the 1-D bounds into `splits` pieces."""
    fine = bounds[:-1, None] + np.diff(bounds)[:, None] * np.arange(splits) / splits
    return np.append(fine, bounds[-1])


def _panelize(bounds: np.ndarray):
    """Sin-mapped GL nodes/weights for consecutive panels.

    bounds has shape (..., P+1), nondecreasing along the last axis;
    zero-length panels get zero weight.  Returns nodes and weights of
    shape (..., P, K).
    """
    lo = bounds[..., :-1]
    hi = bounds[..., 1:]
    mid = 0.5 * (lo + hi)[..., None]
    half = 0.5 * (hi - lo)[..., None]
    return mid + half * _sin_x, half * _sin_w


def _square_panelize(bounds: np.ndarray):
    """Gauss-Legendre in y on [0, 1] with x = lo + (hi - lo) y^2 on each
    panel of bounds (..., P+1); shapes as for _panelize.  The nodes cluster
    at the lower end only, where a sqrt(x - lo) behavior becomes smooth
    in y."""
    lo = bounds[..., :-1, None]
    span = np.diff(bounds)[..., None]
    y = 0.5 * (1.0 + _gl_x)
    return lo + span * y * y, span * y * _gl_w


def _as_slice(f, m=None, n=None) -> RadialSlice:
    if isinstance(f, RadialSlice):
        return f
    if isinstance(f, InteractionFunction):
        return f.slice(m, n)
    raise TypeError("expected an InteractionFunction or RadialSlice")


def tail_integral(f, d: int, m=None, n=None, method: str = "auto") -> float:
    """int_0^inf f(r[, m, n]) r^(d-1) dr; inf when the tail is non-integrable.

    method "auto" uses a registry closed form when one exists; "quad"
    forces the adaptive quadrature path.
    """
    if method == "auto" and isinstance(f, InteractionFunction):
        closed = f.closed_tail_integral(d, m, n)
        if closed is not None:
            return closed
    sl = _as_slice(f, m, n)
    if not math.isfinite(sl.cutoff):
        return math.inf
    points = [b for b in sl.breakpoints if 0.0 < b < sl.cutoff]

    def integrand(r):
        return float(sl(np.array([r]))[0]) * r ** (d - 1)

    val, _ = integrate.quad(integrand, 0.0, sl.cutoff, points=points or None,
                            limit=200, epsabs=1e-14, epsrel=1e-10)
    return val


def space_integral(f, d: int, m=None, n=None, method: str = "auto") -> float:
    """int_{R^d} f(||x||[, m, n]) dx = d * b_d * tail_integral."""
    t = tail_integral(f, d, m, n, method)
    return d * ball_volume(d) * t if math.isfinite(t) else math.inf


def ball_intersection(a, b, r, d: int):
    """Volume of the intersection of two d-balls (d = 1, 2, 3) of radii a
    and b whose centres are r apart; broadcasts over a, b and r."""
    a, b, r = (np.asarray(x, dtype=float) for x in (a, b, r))
    u, diff = a + b - r, (a - b) * (a + b)
    part = u  # d = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 2:  # lens a^2 alpha + b^2 beta - K/2, K/4 = Heron's area
            K = np.sqrt(u * (r + a - b) * (r - a + b) * (r + a + b))
            part = (a * a * np.arctan2(K, r * r + diff)
                    + b * b * np.arctan2(K, r * r - diff) - 0.5 * K)
        elif d == 3:
            part = (np.pi * u * u * (r * r + 2.0 * r * (a + b)
                                     - 3.0 * (a - b) ** 2) / (12.0 * r))
    nested = ball_volume(d) * np.minimum(a, b) ** d
    return np.where(u <= 0.0, 0.0, np.where(r <= np.abs(a - b), nested, part))


def radial_self_convolution(f1, f2, d: int, r: float,
                            m=None, n=None) -> float:
    """d-dimensional radial convolution [f1 (*) f2](r).

    f1 and f2 are unmarked InteractionFunctions or RadialSlices (use
    ``f.slice(m, l)`` for marked interactions).  Returns 0 for
    r > cutoff(f1) + cutoff(f2).

    With |y| = r and x = s e on the sphere of radius s, phi half the angle
    between e and y and v = sin(phi), |y - x|^2 = (r - s)^2 + 4 r s v^2,
    which has no cancellation at small r or near tangency.  The outer
    rule in s has sin-mapped panels at the breakpoints of f1, at r and at
    |r +- t| for each breakpoint t and the cutoff of f2.  The sphere's
    measure is the points v = 0 and v = 1 in d = 1, 4 dphi on [0, pi/2] in
    d = 2 and 8 pi v dv on [0, 1] in d = 3, restricted to v up to the cut
    v_t^2 = (t^2 - (r - s)^2) / (4 r s) of the cutoff of f2.  In d = 2
    and 3 it is split at the cuts of the breakpoints of f2, in phi and in
    v, into panels whose nodes cluster at v = 0, where x meets y when
    s = r.
    """
    s1 = _as_slice(f1, m, n)
    s2 = _as_slice(f2, m, n)
    c1, c2 = s1.cutoff, s2.cutoff
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise DivergentModelError("radial convolution of a non-integrable "
                                  "interaction diverges")
    r = float(r)
    if r < 0:
        raise ValueError("r must be >= 0")
    s_lo = max(0.0, r - c2)
    s_hi = min(c1, r + c2)
    if s_hi <= s_lo:
        return 0.0
    t = np.array(sorted(b for b in s2.breakpoints if 0.0 < b < c2) + [c2])
    sbreaks = {*s1.breakpoints, r, *np.abs(r - t), *(r + t)}
    bounds = _refine(np.array(sorted({s_lo, s_hi,
                                      *(b for b in sbreaks if s_lo < b < s_hi)})), 3)
    s, s_w = (x.ravel() for x in _panelize(bounds))
    gap, q = np.abs(r - s)[:, None], 4.0 * r * s[:, None]
    with np.errstate(divide="ignore"):          # r s = 0: a cut is 0 or 1
        cuts = np.sqrt(np.clip((t - gap) * (t + gap) / q, 0.0, 1.0))
    if d == 1:
        v = np.array([[0.0, 1.0]])
        w = (v <= cuts[:, -1:]).astype(float)
    else:
        cuts = np.concatenate([np.zeros_like(gap), cuts], axis=1)
        if d == 2:
            phi, dphi = _square_panelize(np.arcsin(cuts))
            v, w = np.sin(phi), 4.0 * dphi
        else:
            v, dv = _square_panelize(cuts)
            w = 8.0 * np.pi * v * dv
        v, w = v.reshape(len(s), -1), w.reshape(len(s), -1)
    inner = np.sum(s2(np.sqrt(gap * gap + q * v * v)) * w, axis=1)
    return float(np.sum(s_w * s ** (d - 1) * s1(s) * inner))


# ---------------------------------------------------------------------------
# stable building blocks for the closed forms
# ---------------------------------------------------------------------------

def _phi(x):
    """(exp(x) - 1) / x, with phi(0) = 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x / 2.0, np.expm1(safe) / safe)


def _phi_prime(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    safe = np.where(small, 1.0, x)
    series = 0.5 + x / 3.0 + x ** 2 / 8.0 + x ** 3 / 30.0 + x ** 4 / 144.0
    exact = (np.exp(safe) * (safe - 1.0) + 1.0) / safe ** 2
    return np.where(small, series, exact)


def _half_competition(a, b, c):
    # int_0^1 int_0^s exp(a t + b s + c t) dt ds = [phi(a+b+c) - phi(b)]/(a+c)
    u = np.asarray(a + c, dtype=float)
    small = np.abs(u) < 1e-6
    safe = np.where(small, 1.0, u)
    exact = (_phi(b + u) - _phi(b)) / safe
    return np.where(small, _phi_prime(b + u / 2.0), exact)


def competition_integral(a, b, c):
    """int_0^1 int_0^1 e^(a s) e^(b t) e^(c min(s,t)) ds dt.

    Equals the closed form J(a,b,c) + J(b,a,c) of the weighted-thinning
    pair correlation, rewritten so the removable singularities at b -> 0,
    a+c -> 0 and a+b+c -> 0 are evaluated by 2nd-order expansions.
    Here a = log q_m, b = log q_n, c = log q_{m,n}(r).
    """
    return _half_competition(a, b, c) + _half_competition(b, a, c)


# ---------------------------------------------------------------------------
# the lam-free model kernel
# ---------------------------------------------------------------------------

_DIVERGENT = ("non-integrable interaction: the thinning removes all points "
              "almost surely")


class ModelKernel:
    """The lam-free integrals of f behind every characteristic of a model.

    In each characteristic log q is lam times a lam-free integral of f:
    log q_m = -lam C_m, log q_{m,n}(r) = lam [f (*) f](r) . mu and
    log q_m(w) = -lam sum_l mu_l F_{nu_l}(w) C(m, l).  The kernel is built
    from a spec whose lam it ignores; each integral is computed the first
    time a method needs it and reused for every later lam.  The unmarked
    variant is the case of one mark node of weight 1, whose interaction
    ignores the mark.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.d = spec.dim
        if spec.marked:
            self.nodes, self.weights = spec.mu.quadrature()
        else:
            self.nodes, self.weights = np.zeros(1), np.ones(1)
        self._convs = {}         # radius-array bytes -> _conv result

    # -- lam-free pieces, each computed on first use -----------------------

    def _tail(self, m, l) -> float:
        t = tail_integral(self.spec.f, self.d, m, l)
        if not math.isfinite(t):
            raise DivergentModelError(_DIVERGENT)
        return t

    @cached_property
    def space(self) -> np.ndarray:
        """space[i, k] = int f(||x||, m_i, l_k) dx at the mark nodes."""
        M = len(self.nodes)
        T = np.empty((M, M))
        for i in range(M):
            for k in range(i, M):
                T[i, k] = T[k, i] = self._tail(self.nodes[i], self.nodes[k])
        return self.d * ball_volume(self.d) * T

    def _space_at(self, marks) -> np.ndarray:
        """The rows of `space` for arbitrary marks m."""
        T = np.array([[self._tail(m, l) for l in self.nodes] for m in marks])
        return self.d * ball_volume(self.d) * T

    @cached_property
    def C(self) -> np.ndarray:
        """C_m = int int f(||x||, m, l) dx mu(dl) at the mark nodes."""
        return self.space @ self.weights

    @cached_property
    def _slices(self):
        return [[self.spec.f.slice(m, l) for l in self.nodes]
                for m in self.nodes]

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """The jump/kink radii of f over all mark-node pairs, sorted."""
        return np.unique([b for row in self._slices for sl in row
                          for b in sl.breakpoints])

    def _conv_tensor(self, r) -> np.ndarray:
        """conv[..., i, j, k] = [f(., m_i, l_k) (*) f(., m_j, l_k)](r) for r of
        shape (...): closed form for an indicator f, else entry by entry."""
        r, M = np.asarray(r, dtype=float), len(self.nodes)
        ind = self.spec.f.indicator(self.nodes[:, None], self.nodes)
        if ind is not None:
            c, rho = (np.broadcast_to(x, (M, M)) for x in ind)
            return c[:, None] * c * ball_intersection(
                rho[:, None], rho, r[..., None, None, None], self.d)
        sl = self._slices
        out = np.empty(r.shape + (M, M, M))
        for i in range(M):
            for j in range(i, M):
                for k in range(M):
                    out[..., i, j, k] = out[..., j, i, k] = np.reshape(
                        [radial_self_convolution(sl[i][k], sl[j][k], self.d, x)
                         for x in r.flat], r.shape)
        return out

    def _conv(self, r: np.ndarray) -> np.ndarray:
        """log q_{m_i, m_j}(r) / lam per radius, (R, M, M), in ~2^18 blocks."""
        key = r.tobytes()
        if key not in self._convs:
            step = max(1, 2 ** 18 // len(self.nodes) ** 3)
            self._convs[key] = np.concatenate([
                self._conv_tensor(r[i:i + step]) @ self.weights
                for i in range(0, len(r), step)])
        return self._convs[key]

    @cached_property
    def _weight_ends(self) -> np.ndarray:
        """The support ends of nu at the mark nodes: the kinks of F_{nu_l}."""
        return np.unique([self.spec.nu.support(l) for l in self.nodes])

    def weight_kernel(self, F, rows) -> np.ndarray:
        """sum_l mu_l F_{nu_l}(w) rows[..., l], given F[l] = F_{nu_l}(w).

        With rows = space[m] this is -log q_m(w) / lam, for a point of
        mark m and weight w; with rows = conv[i, j] at r it is
        log q_{m_i, m_j}(r) / lam when the smaller weight of the pair is w.
        """
        return np.tensordot(rows * self.weights, F, axes=1)

    def _weight_rule(self, marks, space):
        """Gauss-Legendre rules of nu.quadrature_nodes nodes per panel for
        each nu_m, on panels between the support ends of nu at `marks` and
        at the mark nodes, where the F_{nu_l} have kinks.  Returns the
        weights W of each nu_m (0 off its support), -log q_m / lam and the
        F_{nu_l}, all at the nodes: shapes (n, P, K), (n, P, K), (M, P, K).
        """
        nu = self.spec.nu
        ends = np.array([nu.support(m) for m in marks])
        cuts = np.union1d(self._weight_ends, ends)
        cuts = cuts[(cuts >= ends.min()) & (cuts <= ends.max())]
        x, w = np.polynomial.legendre.leggauss(nu.quadrature_nodes)
        lo, hi = cuts[:-1, None], cuts[1:, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        inside = ((lo >= ends[:, None, :1]) & (hi <= ends[:, None, 1:]))
        W = np.array([np.where(ins, 0.5 * (hi - lo) * w * nu.pdf(t, m), 0.0)
                      for m, ins in zip(marks, inside)])
        W /= W.sum(axis=(1, 2), keepdims=True)
        F = np.array([nu.cdf(t, l) for l in self.nodes])
        return W, self.weight_kernel(F, space), F

    @cached_property
    def _node_rule(self):
        return self._weight_rule(self.nodes, self.space)

    def _f(self, r: np.ndarray) -> np.ndarray:
        """f(r, m_i, m_j) for each radius, shape (R, M, M)."""
        m = self.nodes
        return self.spec.f(r[:, None, None], m[:, None], m[None, :])

    def _mat2_method(self, method: str) -> str:
        independent = self.spec.nu.mark_independent
        if method == "auto":
            return "closed" if independent else "direct"
        if method not in ("closed", "direct"):
            raise ValueError(f"unknown method {method!r}")
        if method == "closed" and not independent:
            raise ValueError("the closed form requires a mark-independent "
                             "weight distribution")
        return method

    # -- characteristics at a given lam ------------------------------------

    def retention(self, lam, marks=None, method: str = "auto") -> np.ndarray:
        """Probability that a base point of mark m survives the pairwise
        thinning, at the mark nodes or at `marks`.

        exp(-lam C_m) for the mutual-deletion variants.  For mat2, method
        "closed" gives phi(-lam C_m) (mark-independent weights only) and
        "direct" E_nu_m[q_m(w)] by weight quadrature; "auto" picks closed
        when the weights are mark-independent.  An array lam adds a
        leading axis.
        """
        lam = np.asarray(lam, dtype=float)[..., None]
        if marks is None:
            space, C = self.space, self.C
        else:
            space = self._space_at(marks)
            C = space @ self.weights
        if self.spec.variant != "mat2":
            return np.exp(-lam * C)
        if self._mat2_method(method) == "closed":
            return _phi(-lam * C)
        rules = ([self._node_rule] if marks is None else
                 [self._weight_rule([m], row[None]) for m, row in zip(marks, space)])
        return np.concatenate([
            np.sum(W * np.exp(-lam[..., None, None] * k), axis=(-2, -1))
            for W, k, _ in rules], axis=-1)

    def intensity(self, lam, method: str = "auto"):
        """lam * p0 * E_mu[retention]; lam may be an array."""
        return lam * self.spec.p0 * (self.retention(lam, method=method)
                                     @ self.weights)

    def pcf(self, lam: float, r, method: str = "auto"):
        """Pair correlation at r; independent of p0.

        For mat2, method "closed" uses J(a,b,c) + J(b,a,c) for the double
        weight integral I_r(m, n) (mark-independent weights only);
        "direct" splits it at the w = t diagonal and evaluates both halves
        on the weight quadrature of the direct retention.  "auto" picks
        closed when it applies.
        """
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        W = self.weights
        variant = self.spec.variant
        if variant == "mat2":
            method = self._mat2_method(method)
            if np.any(r_arr <= 0):
                raise ValueError("the mat2 pcf requires r > 0")
        keep = 1.0 - self._f(r_arr)
        if variant == "mat1":
            # q_m cancels against the intensity: the space integral is
            # not needed
            with np.errstate(over="ignore", invalid="ignore"):
                g = keep[:, 0, 0] ** 2 * np.exp(lam * self._conv(r_arr)[:, 0, 0])
            return g if np.ndim(r) else float(g[0])
        q = self.retention(lam, method=method)
        denom = float(W @ q) ** 2
        if denom == 0.0:
            raise DivergentModelError("pair correlation undefined: intensity is 0")
        if variant == "mat1-marked":
            integrand = (keep ** 2 * q[:, None] * q[None, :]
                         * np.exp(lam * self._conv(r_arr)))
        elif method == "closed":
            a = -lam * self.C
            integrand = keep * competition_integral(
                a[:, None], a[None, :], lam * self._conv(r_arr))
        else:
            integrand = keep * self._competition_direct(lam, r_arr)
        g = W @ integrand @ W / denom
        return g if np.ndim(r) else float(g[0])

    def _competition_direct(self, lam: float, r: np.ndarray) -> np.ndarray:
        """I_r(m_i, m_j) = H[i, j] + H[j, i], split at the w = t diagonal:
        H[i, j] = int nu_i(dw) q_i(w) q_ij(w) S_j(w), S_j(w) = int_{t > w}
        nu_j(dt) q_j(t).  S_j at a node is its later panels' sum plus the
        integral of nu_j q_j's interpolant over the rest of its panel."""
        W, k, F = self._node_rule
        g = W * np.exp(-lam * k)                        # nu_i(dw) q_i(w)
        panels = g.sum(axis=-1)
        later = np.cumsum(panels[:, ::-1], axis=1)[:, ::-1] - panels
        S = later[..., None] + g @ _gl_tail(g.shape[-1]).T
        out = []
        for ri in r:
            q_ij = self.weight_kernel(F, self._conv_tensor(ri))
            q_ij *= lam
            np.exp(q_ij, out=q_ij)
            H = np.einsum("ipk,ijpk,jpk->ij", g, q_ij, S)
            out.append(H + H.T)
        return np.array(out)


# ---------------------------------------------------------------------------
# exact thinned intensities
# ---------------------------------------------------------------------------

def intensity_report(spec: ModelSpec) -> IntensityResult:
    """Intensity with a structured divergence diagnostic instead of raising."""
    return _intensity_report(spec, "auto")


def _intensity_report(spec: ModelSpec, method: str) -> IntensityResult:
    try:
        return IntensityResult(float(ModelKernel(spec).intensity(spec.lam,
                                                                 method)))
    except DivergentModelError:
        return IntensityResult(0.0, True, _DIVERGENT)


def intensity(spec: ModelSpec) -> float:
    """Analytic intensity of any model variant."""
    return intensity_report(spec).value


def intensity_mat2(spec: ModelSpec, method: str = "auto") -> float:
    """Intensity of the weighted (competition) model.

    method "reduction" uses the mark-independent change-of-variables
    closed form p0 * E[(1 - exp(-lam C_m)) / C_m]; "direct" integrates
    q_m(w) over the weight distribution numerically; "auto" picks the
    reduction when the weight family is mark-independent.
    """
    if spec.variant != "mat2":
        raise ValueError("intensity_mat2 requires a mat2 spec")
    if method not in ("auto", "reduction", "direct"):
        raise ValueError(f"unknown method {method!r}")
    return _intensity_report(
        spec, "closed" if method == "reduction" else method).value


def intensity_profile(spec: ModelSpec):
    """Callable lam -> intensity with the lam-independent kernels cached.

    All three variants have intensity of the form
    lam * p0 * E[exp(-lam * C)] (or its phi-transform) where the random
    kernel C does not depend on lam; the profile is the bound method
    ``ModelKernel(spec).intensity``, which also takes an array of lam.
    Its first call raises DivergentModelError for non-integrable
    interactions.
    """
    return ModelKernel(spec).intensity


# ---------------------------------------------------------------------------
# exact pair correlation functions
# ---------------------------------------------------------------------------

def pcf(spec: ModelSpec, r, method: str = "auto") -> np.ndarray:
    """Analytic pair correlation of any model variant; independent of p0.

    mat1: (1 - f(r))^2 exp(lam [f (*) f](r)).  mat1-marked: its mark
    average; the p0 factors cancel against the intensity.  mat2: for a
    mark-independent weight distribution the double weight integral
    I_r(m, n) collapses to the closed form J(a,b,c) + J(b,a,c); otherwise
    (no closed form exists for mark-dependent weight families) it is split
    at the w = t diagonal and evaluated on the weight quadrature of the
    direct retention.  `method` is that of ``ModelKernel.pcf``.
    """
    return ModelKernel(spec).pcf(spec.lam, r, method)


# ---------------------------------------------------------------------------
# derived summary curves
# ---------------------------------------------------------------------------

# GL nodes per K panel: 6 hold the hard-core K to 2e-6 relative (4: 1.4e-5)
_K_NODES = 6
_k_x, _k_w = np.polynomial.legendre.leggauss(_K_NODES)


def k_function(spec: ModelSpec, r_grid: np.ndarray) -> np.ndarray:
    """K(r) = int_0^r g(s) d b_d s^(d-1) ds on r_grid.

    Panels end at 0, at every grid radius and at every jump/kink radius of
    f over the mark-node pairs, which hold all the jumps of g.  Each panel
    gets a _K_NODES-node Gauss-Legendre rule; K is their cumulative sum.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    kernel = ModelKernel(spec)
    b = kernel.breakpoints
    edges = np.unique(np.concatenate([[0.0], r_grid, b[b < r_grid.max()]]))
    half = 0.5 * np.diff(edges)[:, None]
    s = edges[:-1, None] + half * (1.0 + _k_x)
    d = spec.dim
    g = kernel.pcf(spec.lam, s.ravel()).reshape(s.shape)
    panels = (g * s ** (d - 1) * half) @ _k_w
    K = d * ball_volume(d) * np.concatenate([[0.0], np.cumsum(panels)])
    return K[np.searchsorted(edges, r_grid)]


def l_function(spec: ModelSpec, r_grid: np.ndarray) -> np.ndarray:
    """L(r) = (K(r) / b_d)^(1/d), K from ``k_function``; r under CSR."""
    K = k_function(spec, r_grid)
    return (K / ball_volume(spec.dim)) ** (1.0 / spec.dim)


def retained_mark_density(spec: ModelSpec, mark_grid: np.ndarray) -> np.ndarray:
    """Density of the mark of a typical retained point of a marked model.

    Proportional to the retention of mark m (exp(-lam C_m) for
    mat1-marked, E_nu_m[q_m(w)] for mat2) times the mark density,
    normalized on the grid by trapezoid.
    """
    if not spec.marked:
        raise ValueError("retained_mark_density requires a marked model")
    if spec.mu.is_discrete:
        raise ValueError("retained mark density needs a continuous mark "
                         "distribution")
    mark_grid = np.asarray(mark_grid, dtype=float)
    dens = ModelKernel(spec).retention(spec.lam, mark_grid) * spec.mu.pdf(mark_grid)
    return dens / np.trapezoid(dens, mark_grid)
