"""Martin (comb) data of a finite-gap set E = [b0, inf) minus open gaps.

Everything is driven by the closed-form derivative

    i Theta'(z) = (1/2) prod_j (c_j - z)
                  / ( sqrt(b0 - z) * prod_j sqrt(a_j - z) sqrt(b_j - z) ),

principal square roots throughout, which is analytic off [b0, inf) and
positive on (-inf, b0).  The numerator roots c_j (one per gap (a_j, b_j))
are the critical points; they are correct exactly when the integral of
Theta' over every gap vanishes.  These conditions are linear in the
coefficients of the monic numerator, so one linear solve gives it, and a
batched 32-way sectioning finds its one root in each gap.

The Martin function M = Im Theta is evaluated by integrating Theta' from
the anchor Theta(b0) = 0: along the real axis below b0, from the nearer
gap edge inside a gap, and along the straight segment
w(s) = b0 + (z - b0) s**2 for complex z (the substitution absorbs the
inverse-square-root singularity at the anchor).  On the bands M = 0 and
the real part of Theta is pi times the spectral cumulative function.

Every real-axis integral uses one rule: on an interval [a, b] whose
density blows up like an inverse square root at both ends, the part below
the midpoint is taken in t = a + s**2 and the part above it in
t = b - s**2, with the edge's factor 1/sqrt|t - e| = 1/s cancelled
exactly against the Jacobian.  Re Theta on an increasing energy grid is a
cumulative sum over the band pieces between consecutive grid points.
Integrals go to `quadrature.quad` in batches: all band pieces of a grid,
all gaps, all complex z, all real z off the bands, each in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# imported under the name `si`, and called only as `si.quad`, so that a
# span tracer can wrap every quadrature call through this one module global
from . import quadrature as si
from .errors import (
    FitIllConditioned,
    NoConvergence,
    OnSpectrum,
    PathTooCloseToSpectrum,
)
from .propagation import MeasureCDF

__all__ = [
    "GapSet",
    "CriticalPoints",
    "MartinEvaluation",
    "solve_critical_points",
    "theta_prime",
    "martin_function",
    "a_constant",
    "fit_a_from_martin",
    "martin_measure_cdf",
    "gap_flatness",
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


def _itheta_prime_raw(E, c, z):
    """i Theta'(z) for complex z (vectorized); principal branches."""
    z = np.asarray(z, dtype=complex)
    num = np.full(z.shape, 0.5, dtype=complex)
    den = np.sqrt(E.b0 - z)
    for (a, b), cj in zip(E.gaps, c):
        num = num * (cj - z)
        den = den * (np.sqrt(a - z) * np.sqrt(b - z))
    return num / den


def theta_prime(E, c, z):
    """i Theta'(z) off the spectrum; raises OnSpectrum too close to E."""
    c = _check_c(E, c)
    z = complex(z)
    scale = max(1.0, abs(E.b0), E.diameter)
    if distance_to_set(E, z) < 1e-12 * scale:
        raise OnSpectrum(f"z={z} is on (or numerically on) the spectrum")
    return complex(_itheta_prime_raw(E, c, z))


def _band_theta_density(E, c, x, edge):
    """sqrt|x - edge| Theta'(x + i0) on band interiors, edge being b0 or a
    gap edge per point: Theta' is positive and integrates to pi * cdf."""
    x = np.asarray(x, dtype=float)
    num = np.full(x.shape, 0.5)
    for cj in c:
        num = num * np.abs(x - cj)
    den = np.ones(x.shape)
    for e in (E.b0, *(e for gap in E.gaps for e in gap)):
        den = den * np.where(edge == e, 1.0, np.sqrt(np.abs(x - e)))
    return num / den


def _m_density(E, c, j, x, edge):
    """sqrt|x - edge| M'(x) at x[i] in gap j[i]: M' is positive up to c_j,
    negative after.  Gap 0 is (-inf, b0), with c_0 = -inf."""
    sign = np.sign(np.array([-math.inf, *c])[j] - x)
    return sign * _band_theta_density(E, c, x, edge)


# ---------------------------------------------------------------------------
# critical points

_RESIDUAL_TOL = 1e-10   # largest normalized gap residual a solve may leave


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


def _gap_rules(E):
    """Nodes t[j] and weights w[j], one row per gap, of a fixed Gauss rule
    (24 points on each of 16 panels per half gap) for integrals over gap j
    against its positive weight, dt / (sqrt|t - b0| prod sqrt|t - e|) over
    the gap edges e, up to a constant factor.  The gap's own edge factors
    are absorbed by the s**2 substitutions from each end."""
    x, w = np.polynomial.legendre.leggauss(24)
    s = (np.arange(16)[:, None] + 0.5 + 0.5 * x).ravel() / 16   # in (0, 1)
    a, b = (np.array(E.gaps)[:, i, None] for i in (0, 1))
    h = np.sqrt(0.5 * (b - a)) * s   # s scaled to each half gap
    t = np.concatenate([a + h * h, b - h * h], axis=1)
    edge = np.concatenate([np.broadcast_to(e, h.shape) for e in (a, b)], axis=1)
    weight = np.tile(np.sqrt(b - a) * np.tile(w, 16), 2)
    return t, weight * _band_theta_density(E, (), t, edge)


def _omega_basis(t, m):
    """prod_l (t - m_l), then prod_{l != k} (t - m_l) for every k, along a
    new last axis; the latter as exclusive prefix times suffix products."""
    d = t[..., None] - m
    one = np.ones(d.shape[:-1] + (1,))
    pre = np.cumprod(np.concatenate([one, d[..., :-1]], axis=-1), axis=-1)
    suf = np.cumprod(np.concatenate([one, d[..., :0:-1]], axis=-1), axis=-1)
    return np.concatenate([d.prod(-1)[..., None], pre * suf[..., ::-1]], axis=-1)


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

    The numerator omega(t) = prod_l (t - c_l) is monic of degree N, so the
    N gap conditions, integral over gap j of omega against the gap weight
    = 0, are linear in its lower coefficients.  Written as
    omega = prod_l (t - m_l) + sum_k p_k prod_{l != k} (t - m_l) with m_l
    the gap midpoints, one N x N solve on the fixed rule's moments gives p.
    Each condition makes omega change sign inside its gap, so omega has one
    root per gap; one batched sectioning from the gap ends finds them all.
    The residuals are recomputed adaptively and normalized by each gap's
    absolute mass; NoConvergence means one is above _RESIDUAL_TOL.
    """
    N = len(E.gaps)
    if N == 0:
        return CriticalPoints(c=(), residuals=())
    a, b = np.array(E.gaps).T
    m = 0.5 * (a + b)
    t, w = _gap_rules(E)
    moments = np.einsum("jn,jnk->jk", w, _omega_basis(t, m))
    coef = np.concatenate([[1.0], np.linalg.solve(moments[:, 1:], -moments[:, 0])])
    sign = (-1.0) ** np.arange(N - 1, -1, -1)   # of omega at each b_j
    c = _section(lambda x, k: sign[k, None] * (_omega_basis(x, m) @ coef), b, a,
                 4e-16 * np.maximum(np.abs(a), np.abs(b)))
    residuals = tuple(float(r) for r in _gap_residuals(E, tuple(c)))
    if max(abs(r) for r in residuals) > _RESIDUAL_TOL:
        raise NoConvergence(
            f"gap residuals {residuals} above {_RESIDUAL_TOL}")
    return CriticalPoints(c=tuple(float(v) for v in c), residuals=residuals)


def a_constant(E, c):
    """b0 + sum_j (a_j + b_j - 2 c_j): the comb's asymptotic constant."""
    c = _check_c(E, c)
    return E.b0 + sum(a + b - 2.0 * cj for (a, b), cj in zip(E.gaps, c))


def gap_flatness(E, c):
    """Per gap: |integral of M'| normalized by the integral of |M'|.

    Zero for exact critical points; this is the slit-closure defect of the
    comb map, computed independently of the linear solve.
    """
    c = _check_c(E, c)
    return np.abs(_gap_residuals(E, c))


# ---------------------------------------------------------------------------
# Theta and M

def _band_mass(E, c, lo, hi):
    """Integral of the band density over [lo[i], hi[i]] within E, per i.

    Every band piece of every interval goes to one quadrature call.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bands = np.array(E.bands())
    L = np.maximum(lo[:, None], bands[:, 0])
    H = np.minimum(hi[:, None], bands[:, 1])
    i, j = np.nonzero(L < H)
    parts = _edge_quad(lambda x, _, e: _band_theta_density(E, c, x, e),
                       L[i, j], H[i, j], bands[j, 0], bands[j, 1])
    return np.bincount(i, parts, lo.size)


def martin_function(E, c, z):
    """Martin function M(z) = Im Theta(z) with Theta anchored at Theta(b0)=0.

    Returns a MartinEvaluation carrying M and Re Theta; for an array of z
    its fields are arrays shaped like z.  M is symmetric under
    conjugation; Re Theta is reported for the upper-half-plane
    representative.  Real z below b0 and in gaps use real-axis integrals
    of the boundary density; z on the bands returns M = 0 with Re Theta =
    pi times the cumulative spectral measure.  M at all complex z, M at
    all real z off the bands and Re Theta at all real z take one batched
    quadrature call each; every value equals the one a scalar call gives.
    """
    c = _check_c(E, c)
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    m, theta_real = np.zeros(flat.size), np.zeros(flat.size)
    scale = max(1.0, abs(E.b0), E.diameter)
    off = np.flatnonzero(flat.imag != 0.0)
    if off.size:
        zz = np.where(flat[off].imag > 0, flat[off], flat[off].conj())
        for zi, w in zip(flat[off], zz):
            if distance_to_set(E, w) < 1e-9 * scale:
                raise PathTooCloseToSpectrum(
                    f"z={complex(zi)} is within 1e-9*scale of the spectrum")
        dz = zz - E.b0

        def path_integrand(s, k):
            w = E.b0 + dz[k] * (s * s)
            return -1j * _itheta_prime_raw(E, c, w) * 2.0 * s * dz[k]

        theta = si.quad(path_integrand, 0.0, np.ones(off.size),
                        rtol=1e-12, atol=1e-13)
        m[off], theta_real[off] = theta.imag, theta.real
    real = np.flatnonzero(flat.imag == 0.0)
    lam = flat.real[real]
    gaps = np.array([(-math.inf, E.b0), *E.gaps])
    inside = (gaps[:, 0] < lam[:, None]) & (lam[:, None] < gaps[:, 1])
    i, j = np.nonzero(inside)   # integrate M' from the nearer (finite) end
    x, a, b = lam[i], gaps[j, 0], gaps[j, 1]
    near = x - a <= b - x
    v = _edge_quad(lambda t, p, e: _m_density(E, c, j[p], t, e),
                   np.where(near, a, x), np.where(near, x, b), a, b)
    m[real[i]] = np.where(near, v, -v)
    theta_real[real] = _band_mass(E, c, np.full(lam.size, E.b0), lam)
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
    steps = _band_mass(E, c, np.concatenate([[E.b0], lams[:-1]]), lams)
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
