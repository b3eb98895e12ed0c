"""Martin (comb) data of a finite-gap set E = [b0, inf) minus open gaps.

The free set (no gaps) is closed form: Theta(z) = sqrt(z - b0) at x + i|y|,
whose imaginary part is +0 on the axis, so the principal branch holds; the
measure's CDF is sqrt(lambda - b0) / pi.  With gaps, all rests on

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
the 32-way `spectrum._section` finds its one root in each gap.  A solve is
accepted when each gap's residual is within what one ulp of c_j can move.

M = Im Theta is anchored at Theta(b0) = 0.  On the real axis M is the
integral of M' from the nearer finite gap end (b0 below the spectrum), 0
on the bands, and Re Theta is pi times the spectral CDF.  Off the axis,
Theta(x + iy) is Theta(x + i0) plus the integral of i Theta' up the
vertical segment in t = y s**2, smooth when x is a band edge; the path is
as short as |Im z|, so no z off the axis is too close to the spectrum.

Every real-axis integral uses one rule: on [a, b], with an inverse-sqrt
density at both ends, the part below the midpoint is taken in t = a + s**2
and the part above it in t = b - s**2, the edge factor 1/sqrt|t - e| = 1/s
cancelling exactly against the Jacobian.  Re Theta on an increasing grid
is a cumulative sum over the band pieces between grid points.  Each
quantity is a step of `_one_pass`, whose pieces name their density, and
`_report` puts a command's steps in one pass: their real-axis integrals in
one `quadrature.quad` call, with one `_m_density` call a round, the
vertical segments in another.  A closed form (the free set's) integrates
nothing, and a pass with nothing to integrate makes no call.  Steps fail
in order, so a command raises what its separate calls would raise in turn.
"""
from __future__ import annotations

import math

import numpy as np

# imported under the name `si`, and called only as `si.quad`, so that a
# span tracer can wrap every quadrature call through this one module global
from . import quadrature as si
from .errors import FitIllConditioned, NoConvergence, QuadratureFailure
from .record import Record
# GapSet, check_z_grid and distance_to_set are re-exported for callers of `martin.X`
from .spectrum import GapSet, MeasureCDF, _section, check_window, check_z_grid, distance_to_set

__all__ = [
    "CriticalPoints",
    "MartinEvaluation",
    "solve_critical_points",
    "martin_function",
    "a_constant",
    "fit_a_from_martin",
    "martin_measure_cdf",
]


class CriticalPoints(Record):
    """Solved numerator roots, one per gap, with verified gap residuals.

    residuals[j] is the gap-j integral of Theta' normalized by the integral
    of its absolute value, recomputed with an adaptive quadrature
    independent of the fixed rule the linear solve uses.
    """

    c: tuple
    residuals: tuple


class MartinEvaluation(Record):
    """Martin function value and the real comb coordinate at one point
    (or arrays of them, one entry per point)."""

    z: complex
    value: float
    theta_real: float


# ---------------------------------------------------------------------------
# real-axis quadrature (one batched adaptive call per pass)

def _one_pass(E, c, *steps):
    """The values of steps, generators that each yield one set of pieces
    (j, lo, hi, a, b), get back the integrals over each [lo[i], hi[i]]
    inside [a[i], b[i]] of piece i's density, _m_density(E, c, j[i], ...),
    which has inverse-sqrt singularities at a and b (either may be
    infinite), and return.  A step may return without yielding (a closed
    form); if none yields, the pass makes no quadrature call.

    The part below the midpoint of [a, b] is taken in t = a + s**2, the
    part above it in t = b - s**2.  The density gets points, each with its
    piece's index j and the end e (a or b) its substitution starts from,
    and returns sqrt|x - e| times the integrand: smooth at e, and with the
    Jacobian 2 s = 2 sqrt|x - e| it gives the exact s-space integrand, with
    no rounded x - e near e.  The parts of all steps go to one quadrature
    call, one density call a round.  The density is elementwise and quad
    keeps each interval's panels to itself, so a step's value is bitwise
    that of a pass of its own, and so is its failure: steps finish in
    order, up to the first with a piece quad failed.
    """
    values, sets = [None] * len(steps), {}
    for n, step in enumerate(steps):
        try:
            sets[n] = next(step)
        except StopIteration as done:   # a closed form: nothing to integrate
            values[n] = done.value
    if not sets:
        return values
    ends = [np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in s)) for s in sets.values()]
    j, lo, hi, a, b = (np.concatenate([e[r].ravel() for e in ends]) for r in range(5))
    mid = 0.5 * (a + b)
    inner = np.column_stack([np.minimum(hi, mid), np.maximum(lo, mid)])   # the halves' ends at mid
    # the parts piece by piece, its lower half (side 0) before its upper one
    owner, side = np.nonzero(np.column_stack([lo < inner[:, 0], inner[:, 1] < hi]))
    origin, sign = np.column_stack([a, b])[owner, side], 1.0 - 2.0 * side
    s0, s1 = (np.sqrt(np.abs(v[owner, side] - origin)) for v in (np.column_stack([lo, hi]), inner))
    j = j.astype(int)[owner]   # each part's density index

    def f(s, k):
        e = origin[k]
        return 2.0 * _m_density(E, c, j[k], e + sign[k] * (s * s), e)

    try:
        v, failure = si.quad(f, s0, s1, rtol=1e-11, atol=1e-12), None
    except QuadratureFailure as e:
        if e.values is None:   # raised by an integrand, not by quad
            raise
        v, failure = e.values, e
    v = np.bincount(owner, v, lo.size)
    start = np.cumsum([0] + [e[0].size for e in ends])
    for n, i, k in zip(sets, start, start[1:]):
        if failure and np.isnan(v[i:k]).any():   # the first step with a failed piece
            raise failure
        try:
            steps[n].send(v[i:k])
        except StopIteration as done:
            values[n] = done.value
    return values


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
    positive and integrates to pi * cdf; j = -1 gives the fit's _excess."""
    sign = np.sign(np.array([-math.inf, *c, math.inf])[j] - x)   # j = -1 reads +inf
    v = sign * np.abs(_ratio_product(E, c, x, _edge_root(x, edge)))
    v[j < 0] = _excess(E, c, x[j < 0])
    return v


def _excess(E, c, t):
    """sqrt(b0 - t) (M' - the free M') at t < b0: fit_a_from_martin's (r - 1)/2."""
    d = np.zeros_like(t)
    for (a, b), cj in zip(E.gaps, c):
        p, q = cj - a, cj - b
        d = d + np.log1p(((cj - t) * (p + q) - p * q) / ((a - t) * (b - t)))
    return 0.5 * np.expm1(0.5 * d)


# ---------------------------------------------------------------------------
# critical points

_RESIDUAL_TOL = 1e-10   # normalized gap residual a solve may always leave


def _gap_rules(E, m):
    """Nodes t[j] and weights w[j], one row per gap, of a fixed Gauss rule
    (24 points on each of 16 panels of each half gap) for integrals over
    gap j against prod_l (m_l - t) dt / (sqrt|t - b0| prod sqrt|t - e|)
    over the gap edges e, up to a constant factor.  The gap's own edge
    factors are absorbed by the s**2 substitutions from each end."""
    x, w = si.gauss(24)
    s, w = (np.arange(16)[:, None] + 0.5 + 0.5 * x).ravel() / 16, np.tile(w, 16)
    a, b = (np.array(E.gaps)[:, i, None] for i in (0, 1))
    h = np.sqrt(0.5 * (b - a)) * s   # s scaled to each half gap
    t = np.concatenate([a + h * h, b - h * h], axis=1)
    edge = np.concatenate([np.broadcast_to(e, h.shape) for e in (a, b)], axis=1)
    weight = np.tile(np.sqrt(b - a) * w, 2)
    return t, weight * _ratio_product(E, m, t, _edge_root(t, edge))


def _gap_residuals(E, c):
    """Step of _one_pass: adaptive recomputation of every gap's Theta'
    integral, normalized by the integral of its absolute value, which is
    integrated over (a_j, c_j) and (c_j, b_j), on each of which it is smooth."""
    N = len(E.gaps)
    a, b = np.array(E.gaps, dtype=float).reshape(N, 2).T
    # pieces 0..N-1 are signed; N..3N-1 take the bands' sign +1, so |M'|
    j = np.concatenate([np.arange(1, N + 1), np.full(2 * N, N + 1)])
    v = yield j, np.concatenate([a, a, c]), np.concatenate([b, c, b]), np.tile(a, 3), np.tile(b, 3)
    signed, mass = v[:N], v[N:2 * N] + v[2 * N:]
    return np.divide(signed, mass, out=np.zeros(N), where=mass > 0)


def _eliminate(A, b):
    """x with A x = b, by Gaussian elimination with partial pivoting in
    numpy row updates; NoConvergence on a zero pivot or a non-finite row."""
    n = len(b)
    R = np.column_stack([A, b])
    for k in range(n):
        i = k + np.abs(R[k:, k]).argmax()
        R[[k, i]] = R[[i, k]]
        if R[k, k] == 0.0 or not np.all(np.isfinite(R[k])):
            raise NoConvergence(f"moment matrix singular or not finite at pivot {k}")
        R[k + 1:] -= (R[k + 1:, k] / R[k, k])[:, None] * R[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (R[k, n] - (R[k, k + 1:n] * x[k + 1:]).sum()) / R[k, k]
    return x


def solve_critical_points(E):
    """Critical points of the finite-gap set, one per gap.

    The numerator omega(t) = prod_l (t - c_l) is monic of degree N; in
    partial fractions over the gap midpoints m_l it is prod_l (t - m_l)
    (1 + sum_k p_k / (t - m_k)).  The N gap conditions, integral over gap j
    of omega against the gap weight = 0, are linear in p: with prod_l
    (m_l - t) in the fixed rule's weights (one bounded ratio per gap), one
    N x N solve on the moments of [1, 1/(t - m_k)] gives p: Gaussian
    elimination with partial pivoting in numpy row updates, which raises
    NoConvergence on a zero pivot or a non-finite row.  On gap j,
    omega / prod_{l != j} (t - m_l) = (t - m_j)(1 + sum_{l != j} p_l /
    (t - m_l)) + p_j has no pole, is positive at b_j and has omega's one
    root in the gap; one batched sectioning from the gap ends finds them
    all.  The residuals r_j are recomputed adaptively and normalized by
    each gap's absolute mass.  Near the root r_j ~ pi (c_j - root) /
    (b_j - a_j), so NoConvergence means some |r_j| is above
    max(_RESIDUAL_TOL, 4 pi ulp(c_j) / (b_j - a_j)).
    """
    return _report(E)[0]


def _roots(E):
    """The sectioned c_j of solve_critical_points, not yet checked."""
    N = len(E.gaps)
    if not N:
        return np.zeros(0)
    a, b = np.array(E.gaps).T
    m = 0.5 * (a + b)
    t, w = _gap_rules(E, m)
    p = _eliminate(np.stack([(w / (t - mk)).sum(1) for mk in m], axis=1), -w.sum(1))

    def section(x, k):   # omega / prod_{l != k} (x - m_l) on gap k
        own = np.arange(N) == k[:, None, None]
        d = x[..., None] - m
        s = np.divide(p, d, out=np.zeros(d.shape), where=~own).sum(-1)
        return (x - m[k, None]) * (1.0 + s) + p[k, None]

    return _section(section, b, a, section(np.column_stack([b, a]), np.arange(N)).T)


def _accepted(E, c):
    """Step of _one_pass: CriticalPoints(c, r) with c's gap residuals r, or
    NoConvergence if a residual r_j is too large; the free set's at once."""
    if not E.gaps:
        return CriticalPoints(c=(), residuals=())
    r = yield from _gap_residuals(E, tuple(c))
    a, b = np.array(E.gaps).T
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

def _theta_gapped(E, c, x, y):
    """Step of _one_pass: Theta at x + iy, y >= 0, for a set with gaps, the
    vertical integrals in a quadrature call of their own."""
    N = len(E.gaps)
    gaps = np.array([(-math.inf, E.b0), *E.gaps])
    lo, hi = np.array(E.bands()).T
    i, j = np.nonzero((gaps[:, 0] < x[:, None]) & (x[:, None] < gaps[:, 1]))
    a, b = gaps[j, 0], gaps[j, 1]
    near = x[i] - a <= b - x[i]
    q = np.searchsorted(hi[:N], x, side="right")   # x is in band q or the gap below
    band = np.full(N + x.size, N + 1)   # the bands' density index
    v = yield np.concatenate([   # rows j, lo, hi, a, b of the pieces:
        [j, np.where(near, a, x[i]), np.where(near, x[i], b), a, b],   # M in gaps
        [band[:N], lo[:N], hi[:N], lo[:N], hi[:N]],                     # whole bands
        [band[N:], lo[q], np.maximum(x, lo[q]), lo[q], hi[q]]], axis=1)   # x's band to x
    theta = np.zeros(x.size, dtype=complex)
    theta.imag[i] = np.where(near, v[:i.size], -v[:i.size])
    mass = np.concatenate([[0.0], np.cumsum(v[i.size:i.size + N])])
    theta.real = mass[q] + v[i.size + N:]
    off = np.flatnonzero(y > 0)
    if off.size:
        xo, yo = x[off], y[off]

        def vertical(s, k):   # t = y s**2 keeps it smooth on a band edge
            w = xo[k] + 1j * (yo[k] * (s * s))
            return 2.0 * s * yo[k] * _itheta_prime_raw(E, c, w)

        theta[off] += si.quad(vertical, 0.0, np.ones(off.size), rtol=1e-12, atol=1e-13)
    return theta


def martin_function(E, c, z):
    """Martin function M(z) = Im Theta(z), Theta(b0) = 0, and Re Theta at
    x + i|y| in a MartinEvaluation; for an array of z, arrays shaped like z,
    each equal to a scalar call's.  M is symmetric under conjugation."""
    c = _check_c(E, c)
    return _one_pass(E, c, _martin(E, c, z))[0]


def _martin(E, c, z):
    """martin_function as a step of _one_pass (ValueError unless z is finite);
    the free set's Theta is sqrt(z - b0), whose Im is +0 on the axis here."""
    zs = np.asarray(z, dtype=complex)
    if not np.isfinite(zs).all():
        raise ValueError("z must be finite")
    x, y = zs.real.ravel(), np.abs(zs.imag.ravel())
    theta = (yield from _theta_gapped(E, c, x, y)) if E.gaps else np.sqrt(x - E.b0 + 1j * y)
    if zs.ndim == 0:
        return MartinEvaluation(z=complex(zs), value=float(theta.imag[0]),
                                theta_real=float(theta.real[0]))
    return MartinEvaluation(z=zs, value=theta.imag.reshape(zs.shape),
                            theta_real=theta.real.reshape(zs.shape))


def _report(E, z=None, lams=None, k_grid=None):
    """solve_critical_points(E) and, at its c, martin_function(E, c, z),
    martin_measure_cdf(E, c, lams) and fit_a_from_martin(E, c, k_grid) (None
    for an argument left None), bitwise the calls alone, from one _one_pass
    whose steps fail in that order; only argument errors raise before it integrates."""
    c = _roots(E)
    asked = [(_martin, z), (_cdf, lams), (_fit, k_grid)]
    steps = [step(E, tuple(c), arg) for step, arg in asked if arg is not None]
    values = iter(_one_pass(E, tuple(c), _accepted(E, c), *steps))
    return (next(values), *(None if arg is None else next(values) for _, arg in asked))


def martin_measure_cdf(E, c, lambda_grid):
    """Cumulative Martin (spectral) measure Re Theta / pi on a real grid."""
    c = _check_c(E, c)
    return _one_pass(E, c, _cdf(E, c, lambda_grid))[0]


def _cdf(E, c, lambda_grid):
    """martin_measure_cdf as a step of _one_pass: sqrt(lambda - b0) / pi (0
    below b0) for the free set, else the band pieces between grid points."""
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.ndim != 1 or len(lams) == 0:
        raise ValueError("lambda_grid must be a nonempty 1-d sequence")
    if not (np.isfinite(lams).all() and np.all(np.diff(lams) > 0)):
        raise ValueError("lambda_grid must be finite and strictly increasing")
    check_window((lams[0], math.inf), E)
    if not E.gaps:
        return MeasureCDF(lam=lams, cdf=np.sqrt(np.maximum(lams - E.b0, 0.0)) / math.pi)
    bands = np.array(E.bands())
    L = np.maximum(np.concatenate([[E.b0], lams[:-1]])[:, None], bands[:, 0])
    H = np.minimum(lams[:, None], bands[:, 1])
    i, j = np.nonzero(L < H)
    parts = yield len(E.gaps) + 1, L[i, j], H[i, j], bands[j, 0], bands[j, 1]
    return MeasureCDF(lam=lams, cdf=np.cumsum(np.bincount(i, parts, lams.size)) / math.pi)


def fit_a_from_martin(E, c, k_grid):
    """Fit a from 2k (M(-k**2) - k) ~ a + beta/k**2: the expansion
    M(-k**2) = k + a/(2k) + O(k**-3) leaves no 1/k term.

    Returns the fitted constant: least squares on [1, u], u = 1/k**2, in
    closed form after centering, beta = sum du (y - mean y) / sum du**2
    for du = u - mean u and a = mean y - beta mean u.  The design must be
    well conditioned: at least two distinct finite positive k with -k**2
    below b0, and lam / sqrt(det) below 1e8, from its Gram matrix's det =
    n sum du**2, tr = n + sum u**2 and larger eigenvalue lam = (tr +
    sqrt(tr**2 - 4 det)) / 2.

    M(-k**2) - k is not M minus k, whose rounding 2k would amplify, but
    sqrt(b0 + k**2) - k plus the integral of M' less the free M',
    1/(2 sqrt(b0 - t)), over (-k**2, b0).  sqrt(b0 - t) times that
    integrand is (r - 1)/2 with r**2 = prod (c - t)**2 / ((a - t)(b - t))
    = prod (1 + d), d = ((c - t)(p + q) - p q) / ((a - t)(b - t)) for
    p = c - a, q = c - b; so r - 1 = expm1(sum log1p(d) / 2).
    """
    c = _check_c(E, c)
    return _one_pass(E, c, _fit(E, c, k_grid))[0]


def _fit(E, c, k_grid):
    """fit_a_from_martin as a step of _one_pass; the free set's excess is 0."""
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or len(ks) < 2 or not np.all((ks > 0) & (ks < math.inf)):
        raise FitIllConditioned("k_grid must hold at least two positive finite values")
    if not np.all(-ks * ks < E.b0):
        raise FitIllConditioned("k_grid must put every -k**2 below b0")
    free = E.b0 / (np.sqrt(E.b0 + ks * ks) + ks)
    v = (yield -1, -ks * ks, E.b0, -math.inf, E.b0) if E.gaps else 0.0
    return _intercept(1.0 / (ks * ks), 2.0 * ks * (v + free))


def _intercept(u, y):
    """a of y ~ a + beta u, fit and checked as fit_a_from_martin says."""
    du = u - u.mean()
    ss = (du * du).sum()
    det, tr = len(u) * ss, len(u) + (u * u).sum()
    if det == 0.0 or (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0 > 1e8 * math.sqrt(det):
        raise FitIllConditioned("k grid gives a near-singular design matrix")
    beta = (du * (y - y.mean())).sum() / ss
    return float(y.mean() - beta * u.mean())
