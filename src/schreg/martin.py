"""Martin (comb) data of a finite-gap set E = [b0, inf) minus open gaps.

Everything is driven by the closed-form derivative

    i Theta'(z) = (1/2) prod_j (c_j - z)
                  / ( sqrt(b0 - z) * prod_j sqrt(a_j - z) sqrt(b_j - z) ),

principal square roots throughout, which is analytic off [b0, inf) and
positive on (-inf, b0).  It is formed as a running product of one bounded
ratio (c_j - z) / (sqrt(a_j - z) sqrt(b_j - z)) per gap, so it neither
overflows nor underflows however many gaps there are.  The numerator
roots c_j (one per gap (a_j, b_j)) are the critical points; they are
correct exactly when the integral of Theta' over every gap vanishes.
These conditions are linear in the partial-fraction coefficients of the
monic numerator over the gap midpoints, so one linear solve gives it, and
a batched 32-way sectioning finds its one root in each gap.  A solve is
accepted when each gap's residual is within what one ulp of c_j can move.

The Martin function M = Im Theta is anchored at Theta(b0) = 0.  On the
real axis M is the integral of M' from the nearer finite gap end (b0
below the spectrum), M = 0 on the bands, and Re Theta is pi times the
spectral cumulative function.  Off the axis, Theta(x + iy) is Theta(x + i0)
plus the integral of i Theta' up the vertical segment, taken in t = y s**2
so that it stays smooth when x is a band edge: the path is as short as
|Im z|, so no z off the axis is too close to the spectrum.

Every real-axis integral uses one rule: on an interval [a, b] whose
density blows up like an inverse square root at both ends, the part below
the midpoint is taken in t = a + s**2 and the part above it in
t = b - s**2, with the edge's factor 1/sqrt|t - e| = 1/s cancelled
exactly against the Jacobian.  Re Theta on an increasing energy grid is a
cumulative sum over the band pieces between consecutive grid points.
Integrals go to `quadrature.quad` in batches: all band pieces of a grid,
all gaps, all boundary values and all vertical segments, each in one call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# imported under the name `si`, and called only as `si.quad`, so that a
# span tracer can wrap every quadrature call through this one module global
from . import quadrature as si
from .errors import FitIllConditioned, NoConvergence
from .propagation import MeasureCDF

__all__ = [
    "GapSet",
    "CriticalPoints",
    "MartinEvaluation",
    "solve_critical_points",
    "martin_function",
    "a_constant",
    "fit_a_from_martin",
    "martin_measure_cdf",
    "distance_to_set",
]


@dataclass(frozen=True)
class GapSet:
    """[b0, inf) with finitely many open gaps (a_j, b_j) removed.

    Ordering b0 < a_1 < b_1 < a_2 < ... is enforced; bands() lists the
    closed bands, the last one unbounded (returned with math.inf).
    """

    b0: float
    gaps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "b0", float(self.b0))
        gaps = tuple((float(a), float(b)) for a, b in self.gaps)
        object.__setattr__(self, "gaps", gaps)
        if not math.isfinite(self.b0):
            raise ValueError("b0 must be finite")
        if not all(math.isfinite(e) for gap in gaps for e in gap):
            raise ValueError("gap edges must be finite")
        prev = self.b0
        for a, b in gaps:
            if not prev < a < b:
                raise ValueError("gaps must be ordered and disjoint above b0")
            prev = b

    def bands(self):
        edges = [self.b0]
        for a, b in self.gaps:
            edges.extend((a, b))
        edges.append(math.inf)
        return [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]

    @property
    def diameter(self):
        return (self.gaps[-1][1] - self.b0) if self.gaps else 1.0

    def to_json(self):
        return {"b0": self.b0, "gaps": [list(g) for g in self.gaps]}

    @classmethod
    def from_json(cls, obj):
        return cls(b0=obj["b0"], gaps=tuple(tuple(g) for g in obj.get("gaps", ())))


@dataclass(frozen=True)
class CriticalPoints:
    """Solved numerator roots, one per gap, with verified gap residuals.

    residuals[j] is the gap-j integral of Theta' normalized by the integral
    of its absolute value, recomputed with an adaptive quadrature
    independent of the fixed rule the linear solve uses.
    """

    c: tuple
    residuals: tuple


@dataclass(frozen=True)
class MartinEvaluation:
    """Martin function value and the real comb coordinate at one point
    (or arrays of them, one entry per point)."""

    z: complex
    value: float
    theta_real: float


def distance_to_set(E, z):
    """Euclidean distance from z to the set E."""
    z = complex(z)
    x, y = z.real, abs(z.imag)
    if x <= E.b0:
        return abs(z - E.b0)
    for a, b in E.gaps:
        if a < x < b:
            return min(abs(z - a), abs(z - b))
    return y


# ---------------------------------------------------------------------------
# real-axis quadrature (one batched adaptive call per rule)

def _edge_quad(f, lo, hi, a, b):
    """Integrals of f over each [lo[i], hi[i]], inside [a[i], b[i]] where f
    has inverse-sqrt singularities at a and b (either may be infinite).

    The part below the midpoint of [a, b] is taken in t = a + s**2, the
    part above it in t = b - s**2.  f(x, i, e) gets points, the index i of
    the piece each belongs to and the end e (a or b) its substitution
    starts from, and returns sqrt|x - e| times the integrand: smooth at e,
    and with the Jacobian 2 s = 2 sqrt|x - e| it gives the exact s-space
    integrand, with no rounded x - e near e.  All parts of all pieces go
    to one quadrature call.
    """
    lo, hi, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                         for v in (lo, hi, a, b)))
    mid = 0.5 * (a + b)
    il = np.flatnonzero(lo < np.minimum(hi, mid))
    ir = np.flatnonzero(np.maximum(lo, mid) < hi)
    owner = np.concatenate([il, ir])
    if not owner.size:
        return np.zeros(lo.shape)
    origin = np.concatenate([a[il], b[ir]])
    sign = np.concatenate([np.ones(il.size), -np.ones(ir.size)])
    s0 = np.concatenate([np.sqrt(lo[il] - a[il]), np.sqrt(b[ir] - hi[ir])])
    s1 = np.concatenate([np.sqrt(np.minimum(hi, mid)[il] - a[il]),
                         np.sqrt(b[ir] - np.maximum(lo, mid)[ir])])
    parts = si.quad(
        lambda s, k: 2.0 * f(origin[k] + sign[k] * (s * s), owner[k], origin[k]),
        s0, s1, rtol=1e-11, atol=1e-12)
    return np.bincount(owner, parts, lo.size)


# ---------------------------------------------------------------------------
# the product form and its boundary values

def _check_c(E, c):
    c = tuple(float(v) for v in c)
    if len(c) != len(E.gaps):
        raise ValueError(f"need one critical point per gap, got {len(c)}")
    for (a, b), cj in zip(E.gaps, c):
        if not a <= cj <= b:
            raise ValueError(f"critical point {cj} outside its gap ({a}, {b})")
    return c


def _ratio_product(E, n, x, root):
    """(1/2) prod_l (n_l - x) / (root(b0) prod_l root(a_l) root(b_l)), as a
    running product of one bounded ratio per gap, so that no product over
    all gaps is ever formed: with n = c and root(e) = sqrt(e - x) it is
    i Theta'(x)."""
    v = 0.5 / root(E.b0)
    for (a, b), nl in zip(E.gaps, n):
        v = v * ((nl - x) / (root(a) * root(b)))
    return v


def _edge_root(x, edge):
    """root(e) at real points x, each with its own edge (b0 or a gap edge):
    1 at that edge, sqrt|x - e| at every other."""
    return lambda e: np.where(edge == e, 1.0, np.sqrt(np.abs(x - e)))


def _itheta_prime_raw(E, c, z):
    """i Theta'(z) for complex z (vectorized); principal branches."""
    z = np.asarray(z, dtype=complex)
    return _ratio_product(E, c, z, lambda e: np.sqrt(e - z))


def _m_density(E, c, j, x, edge):
    """sqrt|x - edge| M'(x) at x[i] in gap j[i]: M' is positive up to c_j,
    negative after.  Gap 0 is (-inf, b0), with c_0 = -inf; j = N + 1 gives
    the band density sqrt|x - edge| Theta'(x + i0) (c = +inf), which is
    positive and integrates to pi * cdf."""
    sign = np.sign(np.array([-math.inf, *c, math.inf])[j] - x)
    return sign * np.abs(_ratio_product(E, c, x, _edge_root(x, edge)))


# ---------------------------------------------------------------------------
# critical points

_RESIDUAL_TOL = 1e-10   # normalized gap residual a solve may always leave


_SECTIONS = 32   # sub-brackets a bracket is cut into per round of _section


def _section(f, out, inn, tol):
    """Roots of f bracketed by pairs of ends, f(out) > 0 >= f(inn), each
    pair in either order, until each pair is within the absolute tolerance
    tol.  Each round calls f once, with the _SECTIONS - 1 inner points of
    every live pair as an array of shape (pairs, _SECTIONS - 1) and the
    indices k of those pairs, and keeps the sub-bracket at the first inner
    point with f <= 0: a sign change, whether or not f is monotone."""
    out, inn = np.array(out, dtype=float), np.array(inn, dtype=float)
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    for _ in range(200):
        k = np.flatnonzero(np.abs(inn - out) > tol)
        if not k.size:
            break
        pts = np.column_stack([out[k], out[k, None] + (inn - out)[k, None] * frac,
                               inn[k]])
        stop = np.column_stack([f(pts[:, 1:-1], k) <= 0.0, np.ones(k.size, bool)])
        first = stop.argmax(axis=1)[:, None]
        out[k], inn[k] = np.take_along_axis(pts, first + [0, 1], axis=1).T
    return 0.5 * (out + inn)


@functools.cache
def _panel_rule():   # 24 Gauss points on each of 16 panels of (0, 1), built once
    x, w = np.polynomial.legendre.leggauss(24)
    return (np.arange(16)[:, None] + 0.5 + 0.5 * x).ravel() / 16, np.tile(w, 16)


def _gap_rules(E, m):
    """Nodes t[j] and weights w[j], one row per gap, of a fixed Gauss rule
    (_panel_rule on each half gap) for integrals over gap j against
    prod_l (m_l - t) dt / (sqrt|t - b0| prod sqrt|t - e|) over the gap
    edges e, up to a constant factor.  The gap's own edge factors are
    absorbed by the s**2 substitutions from each end."""
    s, w = _panel_rule()
    a, b = (np.array(E.gaps)[:, i, None] for i in (0, 1))
    h = np.sqrt(0.5 * (b - a)) * s   # s scaled to each half gap
    t = np.concatenate([a + h * h, b - h * h], axis=1)
    edge = np.concatenate([np.broadcast_to(e, h.shape) for e in (a, b)], axis=1)
    weight = np.tile(np.sqrt(b - a) * w, 2)
    return t, weight * _ratio_product(E, m, t, _edge_root(t, edge))


def _gap_residuals(E, c):
    """Adaptive recomputation of every gap's Theta' integral, normalized by
    the integral of its absolute value; one quadrature call for all gaps.
    The absolute value is integrated over (a_j, c_j) and (c_j, b_j), on
    each of which it is smooth."""
    N = len(E.gaps)
    a, b = np.array(E.gaps, dtype=float).reshape(N, 2).T
    j = np.arange(3 * N) % N + 1

    def f(x, i, edge):   # pieces 0..N-1 are signed, N..3N-1 absolute
        m = _m_density(E, c, j[i], x, edge)
        return np.where(i < N, m, np.abs(m))

    v = _edge_quad(f, np.concatenate([a, a, c]), np.concatenate([b, c, b]),
                   np.tile(a, 3), np.tile(b, 3))
    signed, mass = v[:N], v[N:2 * N] + v[2 * N:]
    return np.divide(signed, mass, out=np.zeros(N), where=mass > 0)


def solve_critical_points(E):
    """Critical points of the finite-gap set, one per gap.

    The numerator omega(t) = prod_l (t - c_l) is monic of degree N; in
    partial fractions over the gap midpoints m_l it is prod_l (t - m_l)
    (1 + sum_k p_k / (t - m_k)).  The N gap conditions, integral over gap j
    of omega against the gap weight = 0, are linear in p: with prod_l
    (m_l - t) in the fixed rule's weights (one bounded ratio per gap), one
    N x N solve on the moments of [1, 1/(t - m_k)] gives p.  On gap j,
    omega / prod_{l != j} (t - m_l) = (t - m_j)(1 + sum_{l != j} p_l /
    (t - m_l)) + p_j has no pole, is positive at b_j and has omega's one
    root in the gap; one batched sectioning from the gap ends finds them
    all.  The residuals r_j are recomputed adaptively and normalized by
    each gap's absolute mass.  Near the root r_j ~ pi (c_j - root) /
    (b_j - a_j), so NoConvergence means some |r_j| is above
    max(_RESIDUAL_TOL, 4 pi ulp(c_j) / (b_j - a_j)).
    """
    N = len(E.gaps)
    if N == 0:
        return CriticalPoints(c=(), residuals=())
    a, b = np.array(E.gaps).T
    m = 0.5 * (a + b)
    t, w = _gap_rules(E, m)
    p = np.linalg.solve(np.stack([(w / (t - mk)).sum(1) for mk in m], axis=1),
                        -w.sum(1))

    def section(x, k):   # omega / prod_{l != k} (x - m_l) on gap k
        own = np.arange(N) == k[:, None, None]
        d = x[..., None] - m
        s = np.divide(p, d, out=np.zeros(d.shape), where=~own).sum(-1)
        return (x - m[k, None]) * (1.0 + s) + p[k, None]

    c = _section(section, b, a, 4e-16 * np.maximum(np.abs(a), np.abs(b)))
    r = _gap_residuals(E, tuple(c))
    bound = np.maximum(_RESIDUAL_TOL, 4.0 * math.pi * np.spacing(np.abs(c)) / (b - a))
    bad = np.flatnonzero(np.abs(r) > bound)
    if bad.size:
        raise NoConvergence(f"residuals {r[bad].tolist()} of gaps {bad.tolist()} above "
                            f"max({_RESIDUAL_TOL}, 4 pi ulp(c_j) / (b_j - a_j)) "
                            f"= {bound[bad].tolist()}")
    return CriticalPoints(c=tuple(c.tolist()), residuals=tuple(r.tolist()))


def a_constant(E, c):
    """b0 + sum_j (a_j + b_j - 2 c_j): the comb's asymptotic constant."""
    c = _check_c(E, c)
    return E.b0 + sum(a + b - 2.0 * cj for (a, b), cj in zip(E.gaps, c))


# ---------------------------------------------------------------------------
# Theta and M

def martin_function(E, c, z):
    """Martin function M(z) = Im Theta(z) with Theta anchored at Theta(b0)=0.

    Returns a MartinEvaluation carrying M and Re Theta; for an array of z
    its fields are arrays shaped like z.  M is symmetric under
    conjugation; Re Theta is reported for the upper-half-plane
    representative.  Theta(z) = Theta(x + i0) plus the integral of
    i Theta'(x + it) over 0 <= t <= y, for x = Re z and y = |Im z|.  At x,
    M is the integral of M' from the nearer finite gap end (0 on the
    bands) and Re Theta the running sum of the finite band masses below x
    plus the part of x's band below it.  The boundary values take one
    batched quadrature call, the vertical integrals another; every value
    equals the one a scalar call gives.
    """
    c = _check_c(E, c)
    zs = np.asarray(z, dtype=complex)
    x, y = zs.real.ravel(), np.abs(zs.imag.ravel())
    N = len(E.gaps)
    gaps = np.array([(-math.inf, E.b0), *E.gaps])
    lo, hi = np.array(E.bands()).T
    i, j = np.nonzero((gaps[:, 0] < x[:, None]) & (x[:, None] < gaps[:, 1]))
    a, b = gaps[j, 0], gaps[j, 1]
    near = x[i] - a <= b - x[i]
    q = np.searchsorted(hi[:N], x, side="right")   # x is in band q or the gap below
    piece = np.concatenate([j, np.full(N + x.size, N + 1)])   # bands: sign +1
    ends = np.concatenate([   # rows lo, hi, a, b of the pieces:
        [np.where(near, a, x[i]), np.where(near, x[i], b), a, b],   # M in gaps
        [lo[:N], hi[:N], lo[:N], hi[:N]],                      # whole bands
        [lo[q], np.maximum(x, lo[q]), lo[q], hi[q]]], axis=1)   # x's band to x
    v = _edge_quad(lambda t, p, e: _m_density(E, c, piece[p], t, e), *ends)
    m = np.zeros(x.size)
    m[i] = np.where(near, v[:i.size], -v[:i.size])
    mass = np.concatenate([[0.0], np.cumsum(v[i.size:i.size + N])])
    theta_real = mass[q] + v[i.size + N:]
    off = np.flatnonzero(y > 0)
    if off.size:
        xo, yo = x[off], y[off]

        def vertical(s, k):   # t = y s**2 keeps it smooth on a band edge
            w = xo[k] + 1j * (yo[k] * (s * s))
            return 2.0 * s * yo[k] * _itheta_prime_raw(E, c, w)

        theta = si.quad(vertical, 0.0, np.ones(off.size), rtol=1e-12, atol=1e-13)
        m[off] += theta.imag
        theta_real[off] += theta.real
    if zs.ndim == 0:
        return MartinEvaluation(z=complex(zs), value=float(m[0]),
                                theta_real=float(theta_real[0]))
    return MartinEvaluation(z=zs, value=m.reshape(zs.shape),
                            theta_real=theta_real.reshape(zs.shape))


def martin_measure_cdf(E, c, lambda_grid):
    """Cumulative Martin (spectral) measure Re Theta / pi on a real grid."""
    c = _check_c(E, c)
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.ndim != 1 or len(lams) == 0:
        raise ValueError("lambda_grid must be a nonempty 1-d sequence")
    if not np.all(np.diff(lams) > 0):
        raise ValueError("lambda_grid must be strictly increasing")
    scale = max(1.0, abs(E.b0), E.diameter)
    if lams[0] < E.b0 - 1e-12 * scale:
        raise ValueError("grid must start at or above b0")
    # the band pieces between consecutive grid points, in one call
    bands = np.array(E.bands())
    L = np.maximum(np.concatenate([[E.b0], lams[:-1]])[:, None], bands[:, 0])
    H = np.minimum(lams[:, None], bands[:, 1])
    i, j = np.nonzero(L < H)
    parts = _edge_quad(lambda x, _, e: _m_density(E, c, len(E.gaps) + 1, x, e),
                       L[i, j], H[i, j], bands[j, 0], bands[j, 1])
    steps = np.bincount(i, parts, lams.size)
    return MeasureCDF(lam=lams, cdf=np.cumsum(steps) / math.pi)


def fit_a_from_martin(E, c, k_grid):
    """Fit the asymptotic constant from 2k (M(-k**2) - k) ~ a + beta/k.

    Returns the fitted constant.  The design must be well conditioned:
    at least two distinct positive k with -k**2 below b0, condition
    number below 1e8.

    M(-k**2) - k is not M minus k, whose rounding 2k would amplify, but
    sqrt(b0 + k**2) - k plus the integral of M' less the free M',
    1/(2 sqrt(b0 - t)), over (-k**2, b0).  sqrt(b0 - t) times that
    integrand is (r - 1)/2 with r**2 = prod (c - t)**2 / ((a - t)(b - t))
    = prod (1 + d), d = ((c - t)(p + q) - p q) / ((a - t)(b - t)) for
    p = c - a, q = c - b; so r - 1 = expm1(sum log1p(d) / 2).
    """
    c = _check_c(E, c)
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or len(ks) < 2 or not np.all(ks > 0):
        raise FitIllConditioned("k_grid must hold at least two positive values")
    if not np.all(-ks * ks < E.b0):
        raise FitIllConditioned("k_grid must put every -k**2 below b0")

    def excess(t, i, e):
        d = np.zeros_like(t)
        for (a, b), cj in zip(E.gaps, c):
            p, q = cj - a, cj - b
            d = d + np.log1p(((cj - t) * (p + q) - p * q)
                             / ((a - t) * (b - t)))
        return 0.5 * np.expm1(0.5 * d)

    free = E.b0 / (np.sqrt(E.b0 + ks * ks) + ks)
    y = 2.0 * ks * (_edge_quad(excess, -ks * ks, E.b0, -math.inf, E.b0) + free)
    A = np.column_stack([np.ones_like(ks), 1.0 / ks])
    if np.linalg.cond(A) > 1e8:
        raise FitIllConditioned("k grid gives a near-singular design matrix")
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])
