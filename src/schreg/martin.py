"""Martin (comb) data of a finite-gap set E = [b0, inf) minus open gaps.

Everything is driven by the closed-form derivative

    i Theta'(z) = (1/2) prod_j (c_j - z)
                  / ( sqrt(b0 - z) * prod_j sqrt(a_j - z) sqrt(b_j - z) ),

principal square roots throughout, which is analytic off [b0, inf) and
positive on (-inf, b0).  The numerator roots c_j (one per gap (a_j, b_j))
are the critical points; they are correct exactly when the integral of
Theta' over every gap vanishes, which pins them via a damped Newton
iteration with a per-coordinate bisection fallback (the gap integral is
strictly monotone in its own c_j).

The Martin function M = Im Theta is evaluated by integrating Theta' from
the anchor Theta(b0) = 0: along the real axis below b0, from the nearer
gap edge inside a gap, and along the straight segment
w(s) = b0 + (z - b0) s**2 for complex z (the substitution absorbs the
inverse-square-root singularity at the anchor).  On the bands M = 0 and
the real part of Theta is pi times the spectral cumulative function.

Every real-axis integral uses one rule: on an interval [a, b] whose
density blows up like an inverse square root at both ends, the part below
the midpoint is taken in t = a + s**2 and the part above it in
t = b - s**2.  Re Theta on an increasing energy grid is one cumulative
pass: the band pieces between consecutive grid points are integrated once
each and summed, so a grid costs about one quadrature per point.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.integrate as si

from .errors import (
    FitIllConditioned,
    NoConvergence,
    OnSpectrum,
    PathTooCloseToSpectrum,
    QuadratureFailure,
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
    independent of the Newton iteration's fixed rule.
    """

    c: tuple
    residuals: tuple


@dataclass(frozen=True)
class MartinEvaluation:
    """Martin function value and the real comb coordinate at one point."""

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
# quadrature helpers (scipy QUADPACK behind thin wrappers)

def _quad(f, a, b, rtol=1e-11, atol=1e-12, complex_func=False):
    if a == b:
        return 0.0j if complex_func else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", si.IntegrationWarning)
        try:
            val, _ = si.quad(f, a, b, epsabs=atol, epsrel=rtol, limit=400,
                             complex_func=complex_func)
        except si.IntegrationWarning as exc:
            raise QuadratureFailure(f"quadrature on [{a}, {b}]: {exc}") from None
    return val


def _edge_quad(f, lo, hi, a, b=math.inf):
    """Integral of f over [lo, hi], inside [a, b] where f has inverse-sqrt
    singularities at a and b (either may be infinite).

    The part below the midpoint of [a, b] is taken in t = a + s**2, the
    part above it in t = b - s**2, which absorbs both singularities.
    """
    mid = 0.5 * (a + b)
    total = 0.0
    if lo < min(hi, mid):
        total += _quad(lambda s: 2.0 * s * f(a + s * s),
                       math.sqrt(lo - a), math.sqrt(min(hi, mid) - a))
    if max(lo, mid) < hi:
        total += _quad(lambda s: 2.0 * s * f(b - s * s),
                       math.sqrt(b - hi), math.sqrt(b - max(lo, mid)))
    return total


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


def _band_theta_density(E, c, x):
    """Theta'(x + i0) on band interiors: positive, integrates to pi * cdf."""
    x = np.asarray(x, dtype=float)
    num = np.full(x.shape, 0.5)
    den = np.sqrt(np.abs(x - E.b0))
    for (a, b), cj in zip(E.gaps, c):
        num = num * np.abs(x - cj)
        den = den * np.sqrt(np.abs(x - a) * np.abs(x - b))
    return num / den


def _gap_m_density(E, c, j, x):
    """M'(x) on gap j: positive up to c_j, negative after."""
    x = np.asarray(x, dtype=float)
    sign = np.sign(c[j] - x)
    return sign * _band_theta_density(E, c, x)


# ---------------------------------------------------------------------------
# critical points

@lru_cache(maxsize=128)
def _gap_rules(E, panels, nodes):
    """Per gap: quadrature nodes/weights absorbing dt and the gap's own
    edge factors 1/sqrt|t-a_j|, 1/sqrt|t-b_j| via the s**2 substitutions."""
    glx, glw = np.polynomial.legendre.leggauss(nodes)
    rules = []
    for a, b in E.gaps:
        mid = 0.5 * (a + b)
        ts, ws = [], []
        for left in (True, False):
            smax = math.sqrt(mid - a) if left else math.sqrt(b - mid)
            edges = np.linspace(0.0, smax, panels + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                s = 0.5 * (hi - lo) * glx + 0.5 * (hi + lo)
                w = 0.5 * (hi - lo) * glw
                t = a + s * s if left else b - s * s
                other = np.sqrt(np.abs(t - b)) if left else np.sqrt(np.abs(t - a))
                ts.append(t)
                ws.append(2.0 * w / other)
        t = np.concatenate(ts)
        w = np.concatenate(ws)
        den = np.sqrt(t - E.b0)
        for aa, bb in E.gaps:
            if (aa, bb) != (a, b):
                den = den * np.sqrt(np.abs(t - aa) * np.abs(t - bb))
        rules.append((t, w / den))
    return rules


def _gap_integrals(E, c, rules):
    """F_j = integral over gap j of prod_l (t - c_l) d(rule_j), the Jacobian
    dF_j/dc_l = -integral of prod_{m != l} (t - c_m), and the absolute
    masses integral of prod_l |t - c_l| used to normalize residuals."""
    N = len(c)
    F = np.empty(N)
    J = np.empty((N, N))
    mass = np.empty(N)
    for j, (t, w) in enumerate(rules):
        diffs = t[None, :] - np.asarray(c)[:, None]   # (N, nodes)
        prod = np.prod(diffs, axis=0)
        F[j] = float(np.dot(w, prod))
        mass[j] = float(np.dot(w, np.prod(np.abs(diffs), axis=0)))
        for l in range(N):
            mask = np.ones(N, dtype=bool)
            mask[l] = False
            partial = np.prod(diffs[mask], axis=0) if N > 1 else np.ones_like(t)
            J[j, l] = -float(np.dot(w, partial))
    return F, J, mass


def _gap_residual(E, c, j):
    """Adaptive recomputation of gap j's Theta' integral, normalized."""
    a, b = E.gaps[j]
    signed = _edge_quad(lambda x: float(_gap_m_density(E, c, j, x)), a, b, a, b)
    mass = _edge_quad(lambda x: float(_band_theta_density(E, c, x)), a, b, a, b)
    return signed / mass if mass > 0 else 0.0


def _bisect_gap(E, c, j, rules, tol):
    """Solve F_j = 0 in c_j by bisection; F_j is monotone in c_j."""
    a, b = E.gaps[j]
    pad = 1e-14 * (b - a)
    lo, hi = a + pad, b - pad

    def fj(cj):
        cc = list(c)
        cc[j] = cj
        t, w = rules[j]
        diffs = t[None, :] - np.asarray(cc)[:, None]
        return float(np.dot(w, np.prod(diffs, axis=0)))

    f_lo, f_hi = fj(lo), fj(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        # numerator sign can't vanish in this gap for the current partners;
        # pick the end that minimizes |F| and let the outer sweep move on
        return lo if abs(f_lo) < abs(f_hi) else hi
    s = 1.0 if f_lo > 0 else -1.0
    for _ in range(200):
        if hi - lo <= tol * (b - a):
            break
        mid = 0.5 * (lo + hi)
        if s * fj(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_critical_points(E, tol=1e-10, max_iter=50):
    """Critical points of the finite-gap set, one per gap.

    Damped Newton on the vector of gap integrals of Theta' (closed-form
    Jacobian, step halving, iterates clipped into their gaps).  If Newton
    stalls, falls back to per-coordinate bisection sweeps.  Residuals in
    the returned CriticalPoints are recomputed adaptively and normalized
    by each gap's absolute mass; NoConvergence means even the fallback
    could not push them below tol.
    """
    N = len(E.gaps)
    if N == 0:
        return CriticalPoints(c=(), residuals=())
    for panels in (16, 64):
        rules = _gap_rules(E, panels, 24)
        c = np.array([0.5 * (a + b) for a, b in E.gaps])
        F, J, mass = _gap_integrals(E, c, rules)
        best = float(np.max(np.abs(F) / mass))
        converged = best <= tol
        for _ in range(max_iter):
            if converged:
                break
            try:
                delta = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            stepped = False
            for damp in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
                cand = c + damp * delta
                for idx, (a, b) in enumerate(E.gaps):
                    pad = 1e-14 * (b - a)
                    cand[idx] = min(max(cand[idx], a + pad), b - pad)
                Fc, Jc, mc = _gap_integrals(E, cand, rules)
                r = float(np.max(np.abs(Fc) / mc))
                if r < best:
                    c, F, J, mass, best = cand, Fc, Jc, mc, r
                    stepped = True
                    break
            if not stepped:
                break
            converged = best <= tol
        if not converged:
            # Gauss-Seidel bisection sweeps; each F_j is monotone in c_j
            for _ in range(200):
                for j in range(N):
                    c[j] = _bisect_gap(E, c, j, rules, 1e-15)
                F, _, mass = _gap_integrals(E, c, rules)
                best = float(np.max(np.abs(F) / mass))
                if best <= tol:
                    converged = True
                    break
        residuals = tuple(_gap_residual(E, tuple(c), j) for j in range(N))
        if max(abs(r) for r in residuals) <= tol:
            return CriticalPoints(c=tuple(float(v) for v in c),
                                  residuals=residuals)
    raise NoConvergence(
        f"gap residuals {residuals} above tol={tol} even on the refined rule")


def a_constant(E, c):
    """b0 + sum_j (a_j + b_j - 2 c_j): the comb's asymptotic constant."""
    c = _check_c(E, c)
    return E.b0 + sum(a + b - 2.0 * cj for (a, b), cj in zip(E.gaps, c))


def gap_flatness(E, c):
    """Per gap: |integral of M'| normalized by the integral of |M'|.

    Zero for exact critical points; this is the slit-closure defect of the
    comb map, computed independently of the Newton solve.
    """
    c = _check_c(E, c)
    return np.array([abs(_gap_residual(E, c, j)) for j in range(len(E.gaps))])


# ---------------------------------------------------------------------------
# Theta and M

def _theta_real(E, c, lams):
    """Re Theta = pi * cdf at each point of an increasing grid, in one pass.

    Re Theta is 0 up to b0 and constant across gaps; each band piece
    between consecutive points is integrated once and accumulated.
    """
    f = lambda x: float(_band_theta_density(E, c, x))
    bands = E.bands()
    out = np.empty(len(lams))
    total, prev = 0.0, E.b0
    for i, lam in enumerate(lams):
        for lo, hi in bands:
            total += _edge_quad(f, max(prev, lo), min(lam, hi), lo, hi)
        out[i], prev = total, lam
    return out


def martin_function(E, c, z):
    """Martin function M(z) = Im Theta(z) with Theta anchored at Theta(b0)=0.

    Returns a MartinEvaluation carrying M and Re Theta.  M is symmetric
    under conjugation; Re Theta is reported for the upper-half-plane
    representative.  Real z below b0 and in gaps use real-axis integrals
    of the boundary density; z on the bands returns M = 0 with Re Theta =
    pi times the cumulative spectral measure.
    """
    c = _check_c(E, c)
    z = complex(z)
    scale = max(1.0, abs(E.b0), E.diameter)
    if z.imag != 0.0:
        zz = z if z.imag > 0 else z.conjugate()
        if distance_to_set(E, zz) < 1e-9 * scale:
            raise PathTooCloseToSpectrum(
                f"z={z} is within 1e-9*scale of the spectrum")
        dz = zz - E.b0

        def path_integrand(s):
            w = E.b0 + dz * (s * s)
            return -1j * complex(_itheta_prime_raw(E, c, w)) * 2.0 * s * dz

        theta = _quad(path_integrand, 0.0, 1.0, rtol=1e-12, atol=1e-13,
                      complex_func=True)
        return MartinEvaluation(z=z, value=float(theta.imag),
                                theta_real=float(theta.real))
    lam, m = z.real, 0.0
    if lam < E.b0:
        f = lambda x: float(_band_theta_density(E, c, x))
        m = _edge_quad(f, lam, E.b0, -math.inf, E.b0)
    for j, (a, b) in enumerate(E.gaps):
        if a < lam < b:   # integrate M' from the nearer edge
            g = lambda x: float(_gap_m_density(E, c, j, x))
            m = (_edge_quad(g, a, lam, a, b) if lam - a <= b - lam
                 else -_edge_quad(g, lam, b, a, b))
    return MartinEvaluation(z=z, value=m,
                            theta_real=float(_theta_real(E, c, [lam])[0]))


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
    return MeasureCDF(lam=lams, cdf=_theta_real(E, c, lams) / math.pi)


def fit_a_from_martin(E, c, k_grid):
    """Fit the asymptotic constant from 2k (M(-k**2) - k) ~ a + beta/k.

    Returns the fitted constant.  The design must be well conditioned:
    at least two distinct positive k, condition number below 1e8.
    """
    c = _check_c(E, c)
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or len(ks) < 2 or not np.all(ks > 0):
        raise FitIllConditioned("k_grid must hold at least two positive values")
    y = np.array([2.0 * k * (martin_function(E, c, -k * k).value - k) for k in ks])
    A = np.column_stack([np.ones_like(ks), 1.0 / ks])
    if np.linalg.cond(A) > 1e8:
        raise FitIllConditioned("k grid gives a near-singular design matrix")
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])
