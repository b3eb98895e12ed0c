"""Propagation of -u'' + V u = z u along the half line.

The state vector is (u', u).  Over a cell where V averages vbar the exact
flow is

    [[cosh(w),        kappa**2 * S],
     [S,              cosh(w)    ]],   w = kappa*h,  S = sinh(w)/kappa,

with kappa**2 = vbar - z.

One kernel serves products, zero counts and repeats.  Its element stands
for a stretch of cells: a mantissa m at unit scale and a log scale s, the
stretch's transfer matrix being e**s * m, so products over 1e6 cells or
long repeats never overflow.  Every cell flow has determinant 1, so
det m = e**(-2 s).  At real energies the element also carries the lifted
Pruefer angle a of the Dirichlet solution (u = r sin(theta), u' = r
cos(theta), theta(0) = 0) as a = k*pi + t: t in [0, pi) is the angle of m's
first column, and the integer k is the number of zeros of u in the stretch.

Applying B after A lifts the angle by the rule

    a_BA = a_B + pi*floor(a_A/pi) + atan2(det B * sin(t_A), <B v_0, B v_t>),

v_t = (cos t_A, sin t_A) in (u', u) order: the last term is the turn from
B v_0 to B v_t, in [0, pi] because det B > 0.  The kernel evaluates the
rule exactly, without atan2.  Mantissas at real energies are signed so
that their first column lies in the upper half plane (angle in [0, pi));
then t_B plus the turn reaches pi exactly when the first column of
m_B m_A leaves it, so k_BA = k_A + k_B + (1 if it left, else 0).  No
determinant is evaluated, so none can round to the wrong sign when m_B is
nearly rank one.

The rule is associative, so stretches are reduced through doubling
tables batched over blocks and energies: level j holds the products of
aligned runs of 2**j cells (a tree), or the powers P**(2**j) of a
RepeatBlock's pattern P (squaring).  A stretch is applied to the running
state as a left fold of the longest usable runs.  The conditioning guard:
a left operand is used only while it is well conditioned, |det m| >= 1e-8,
so the image of a unit vector that decides a carry keeps its accuracy.
Squaring stops at the largest safe power and the rest of the block is
folded in that power at a time; a single cell is used as it is.  Products
alone (no angle) need no guard.  The counts are integers free of step
error for step potentials.  Work is batched in chunks of at most _CHUNK
cell-energies, a repeat's squares counting as cells (one block at least),
which bounds memory.

The Volterra route builds the iterated-kernel partial sum on a composite
quadrature grid aligned with the potential's discontinuities.  It shares no
code with the transfer route, which is the point: the two must agree to
high accuracy wherever both are defined.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .errors import (
    DegenerateDisk,
    HorizonExceeded,
    InvalidStep,
    QuadratureFailure,
    ZeroSolution,
)

__all__ = [
    "SpectralPoint",
    "spectral_point",
    "ScaledTransferMatrix",
    "SolutionSample",
    "WeylDisk",
    "MeasureCDF",
    "transfer_matrix",
    "dirichlet_solution",
    "dirichlet_profile",
    "log_growth",
    "log_growth_profile",
    "lyapunov_estimate",
    "eigenvalue_count",
    "zero_counting_cdf",
    "weyl_m_estimate",
    "volterra_solution",
    "volterra_terms",
]

_CHUNK = 1 << 13
# An element is safe as a left operand when |det m| = exp(-2 s) >= 1e-8.
_SAFE_S = 0.5 * math.log(1e8)


@dataclass(frozen=True)
class SpectralPoint:
    """Energy z together with the branch k = sqrt(-z), Re k >= 0.

    On the positive real axis the branch is the limit from the upper half
    plane, k = -i*sqrt(lambda), so free solutions read sinh(kx)/k = sin(sqrt(
    lambda) x)/sqrt(lambda) there.
    """

    z: complex
    k: complex


def spectral_point(z):
    z = complex(z)
    if z.imag == 0.0:
        lam = z.real
        if lam > 0.0:
            k = complex(0.0, -math.sqrt(lam))
        else:
            k = complex(math.sqrt(-lam), 0.0)
    else:
        k = cmath.sqrt(-z)
        if k.real < 0.0:
            k = -k
    return SpectralPoint(z, k)


@dataclass(frozen=True, eq=False)
class ScaledTransferMatrix:
    """Transfer matrix e**log_scale * m with the mantissa m at unit norm."""

    m: np.ndarray
    log_scale: float

    def matrix(self):
        """The literal matrix; may overflow for long propagations."""
        return math.exp(self.log_scale) * self.m

    def det_log_defect(self):
        """log det(e**log_scale * m); zero for an exact transfer matrix."""
        d = self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0]
        return cmath.log(d) + 2.0 * self.log_scale


@dataclass(frozen=True)
class SolutionSample:
    """Scaled solution data: actual u = u * e**log_scale, same for du."""

    u: complex
    du: complex
    log_scale: float

    def log_growth(self, x):
        """h = log|u| / x for the actual u; fields and x may be arrays."""
        if np.any(self.u == 0):
            raise ZeroSolution(f"u vanished at x={x}; log-growth undefined")
        return (self.log_scale + np.log(np.abs(self.u))) / x


@dataclass(frozen=True)
class WeylDisk:
    """Truncation estimate of the Weyl m function: a disk center and radius."""

    value: complex
    radius: float


@dataclass(frozen=True, eq=False)
class MeasureCDF:
    """A cumulative distribution sampled on an increasing energy grid."""

    lam: np.ndarray
    cdf: np.ndarray


def _check_step(step):
    if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0):
        raise InvalidStep(f"step must be a positive finite number, got {step!r}")


# ---------------------------------------------------------------------------
# the kernel: elements, their composition, doubling tables, the guarded fold


@dataclass(frozen=True, eq=False)
class _Elements:
    """A batch of elements: m[i, j] is an array over the batch, as are s
    and k; k (the integer part of a / pi) is None off the real axis."""

    m: np.ndarray
    s: np.ndarray
    k: np.ndarray | None

    def take(self, idx):
        """The elements at batch index idx (a tuple)."""
        return _Elements(self.m[(slice(None), slice(None)) + idx], self.s[idx],
                         None if self.k is None else self.k[idx])

    def reshape(self, shape):
        return _Elements(self.m.reshape(2, 2, *shape), self.s.reshape(shape),
                         None if self.k is None else self.k.reshape(shape))


def _select(mask, new, old):
    return _Elements(np.where(mask, new.m, old.m), np.where(mask, new.s, old.s),
                     None if new.k is None else np.where(mask, new.k, old.k))


def _concat(parts):
    return _Elements(np.concatenate([e.m for e in parts], axis=2),
                     np.concatenate([e.s for e in parts]),
                     None if parts[0].k is None
                     else np.concatenate([e.k for e in parts]))


def _cells(widths, values, z):
    """Cell elements, with widths and values broadcast against the energies z.

    At real (float) energies a cell with kappa**2 < 0 oscillates: cos and
    sin of w = |kappa| h take the place of cosh and sinh, and k counts the
    whole half-turns of w.  The mantissa is then signed so that its first
    column lies in the upper half plane (see `_compose`).
    """
    h = np.asarray(widths, dtype=float)
    kap2 = values - z
    if z.dtype.kind == "c":
        w = np.sqrt(kap2) * h
        rho = np.abs(w.real)
        ep = np.exp(w - rho)
        em = np.exp(-w - rho)
        C, Sh = 0.5 * (ep + em), 0.5 * (ep - em)
    else:
        osc = kap2 < 0.0
        w = np.sqrt(np.abs(kap2)) * h
        rho = np.where(osc, 0.0, w)
        em = np.exp(-2.0 * rho)
        C = np.where(osc, np.cos(w), 0.5 * (1.0 + em))
        Sh = np.where(osc, np.sin(w), 0.5 * (1.0 - em))
    w2 = kap2 * h * h
    small = np.abs(w2) < 1e-8
    # sinh(w)/w = 1 + w^2/6 + w^4/120 + ... guards the kappa -> 0 cancellation
    series = h * (1.0 + w2 / 6.0 * (1.0 + w2 / 20.0)) * np.exp(-rho)
    S = np.where(small, series, Sh * h / np.where(small, 1.0, w))
    m = np.array([[C, kap2 * S], [S, C]])
    if z.dtype.kind == "c":
        return _Elements(m, rho, None)
    return _Elements(m * _turn(m), rho,
                     np.where(osc, np.floor(w / np.pi), 0.0).astype(np.int64))


def _turn(m):
    """+1 where the first column's angle atan2(u, u') lies in [0, pi), else -1."""
    u, du = m[1, 0], m[0, 0]
    return np.where((u > 0.0) | ((u == 0.0) & (du > 0.0)), 1, -1)


def _compose(b, a):
    """Elements of applying a, then b."""
    m = b.m[:, :1] * a.m[None, 0] + b.m[:, 1:] * a.m[None, 1]
    scale = np.abs(m).max(axis=(0, 1))
    s = b.s + a.s + np.log(scale)
    if a.k is None:
        return _Elements(m / scale, s, None)
    # the first columns of a and b lie in the upper half plane; the
    # product's leaves it exactly when the angle passed a multiple of pi
    turn = _turn(m)
    return _Elements(m * (turn / scale), s, a.k + b.k + (turn < 0))


def _safe(el):
    """Where el may be a left operand: |det m| >= 1e-8 where angles are
    tracked; products alone need no guard."""
    return el.s <= _SAFE_S if el.k is not None else np.ones(el.s.shape, bool)


def _levels(el, n, square=False):
    """Doubling table for `_fold` over axis 0 of el.

    Row r of level j is the product of units [r 2**j, (r+1) 2**j).  The
    default pairs neighbours (a tree over n units; an unpaired last row is
    carried up, so the last row of a level ends at n), `square` squares the
    one unit of each column (el has one row) for repeat counts n.  A
    product is kept only where its left operand was usable, and is usable
    itself where it is `_safe` too; levels are built while some column has
    a usable product.  Returns the list of levels and of their flags.
    """
    levels, ok = [el], [_safe(el)]
    while (1 << len(levels)) <= np.max(n) if square else len(ok[-1]) > 1:
        top, top_ok = levels[-1], ok[-1]
        if square:
            nxt, valid = _compose(top, top), top_ok
        else:
            k = len(top_ok) // 2 * 2
            nxt = _compose(top.take((slice(1, k, 2),)), top.take((slice(0, k, 2),)))
            valid = top_ok[1:k:2] & top_ok[0:k:2]
            if k < len(top_ok):
                nxt = _concat([nxt, top.take((slice(k, None),))])
                valid = np.concatenate([valid, top_ok[k:]])
        valid = valid & _safe(nxt)
        if not valid.any():
            break
        levels.append(nxt)
        ok.append(valid)
    return levels, ok


def _fold(levels, ok, n, state=None, square=False):
    """Apply the first n units of a `_levels` table to state, per column.

    A left fold: each step applies the longest aligned run that is usable
    (and, for powers, fits in n), else a single unit as it is.  State None
    is the identity.
    """
    sizes = np.array([len(v) for v in ok])
    offsets = np.cumsum(sizes) - sizes
    table, ok = _concat(levels), np.concatenate(ok)
    cols = np.arange(table.s.shape[1])
    lev = np.arange(len(offsets))[:, None]
    run = 1 << lev
    pos = np.zeros(len(cols), dtype=np.int64)
    while True:
        live = pos < n
        if not live.any():
            return state
        rows = offsets[:, None] + np.minimum(pos >> lev, sizes[:, None] - 1)
        end = pos + run if square else np.minimum(pos + run, n)
        fits = ((pos & (run - 1)) == 0) & (end <= n) & ok[rows, cols]
        fits[0] = True
        j = len(offsets) - 1 - np.argmax(fits[::-1], axis=0)
        step = table.take((rows[j, cols], cols))
        state = step if state is None else _select(live, _compose(step, state), state)
        pos = np.where(live, end[j, cols], pos)


def _apply(el, state=None):
    """Fold the units along axis 0 of el into state, first unit first."""
    n = el.s.shape[0]
    if n == 1:
        step = el.take((0,))
    else:
        levels, ok = _levels(el, n)
        if len(ok[-1]) > 1 or not ok[-1].all():
            return _fold(levels, ok, n, state)
        step = levels[-1].take((0,))     # the one top row covers all n units
    return step if state is None else _compose(step, state)


def _fold_repeats(blocks, z, state):
    """Fold RepeatBlocks whose patterns have one length into state: the
    blocks' patterns, then their powers, then the blocks in order, each
    batched over blocks and energies.  A chunk of blocks holds at most
    _CHUNK cell-energies, its squares counting as cells (one block at
    least)."""
    widths = np.array([b.widths for b in blocks])
    values = np.array([b.values for b in blocks])
    counts = np.array([b.count for b in blocks])
    n_cells = widths.shape[1]
    depth = int(counts.max()).bit_length()
    size = max(1, _CHUNK // (len(z) * (n_cells + depth)))
    for lo in range(0, len(blocks), size):
        w, v = widths[lo:lo + size].T, values[lo:lo + size].T
        reps = np.repeat(counts[lo:lo + size], len(z))
        cells = _cells(w[:, :, None], v[:, :, None], z)
        power = _apply(cells.reshape((n_cells, -1)))
        if reps.max() > 1:
            power = _fold(*_levels(power.reshape((1, -1)), reps, square=True),
                          reps, square=True)
        state = _apply(power.reshape((w.shape[1], len(z))), state)
    return state


def _walk(p, x0, x1, z, step, state=None):
    """Fold the cells of [x0, x1) at the energies z into state."""
    run = []
    for block in (*potentials.segments(p, x0, x1, step), None):
        repeat = isinstance(block, potentials.RepeatBlock)
        if run and not (repeat and len(block.widths) == len(run[0].widths)):
            state = _fold_repeats(run, z, state)
            run = []
        if repeat:
            run.append(block)
        elif block is not None:
            size = max(1, _CHUNK // len(z))
            for lo in range(0, len(block.widths), size):
                state = _apply(_cells(block.widths[lo:lo + size, None],
                                      block.values[lo:lo + size, None], z), state)
    return state


# ---------------------------------------------------------------------------
# products


def _spectral_norm(m):
    """Largest singular value of each 2x2 matrix m[:, :, k], in closed form."""
    f = (np.abs(m) ** 2).sum(axis=(0, 1))
    det = np.abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return np.sqrt(0.5 * (f + np.sqrt(np.maximum(f * f - 4.0 * det * det, 0.0))))


def transfer_matrix(p, x, z, step=1e-3):
    """Scaled transfer matrix of [0, x] at spectral parameter z.

    Columns propagate (u', u) initial data; the first column is the
    Dirichlet solution (u(0)=0, u'(0)=1), the second has u(0)=1, u'(0)=0.
    The mantissa is normalized to unit spectral norm.  An array of energies
    shares one pass: m is then indexed [i, j, *z.shape] and log_scale is an
    array of z's shape (the matrix methods take one energy).
    """
    _check_step(step)
    x = float(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    zs = np.asarray(z, dtype=complex)
    if x == 0.0:
        m = np.multiply.outer(np.eye(2), np.ones(zs.shape, complex))
        s = np.zeros(zs.shape)
    else:
        el = _walk(p, 0.0, x, zs.reshape(-1), step)
        nrm = _spectral_norm(el.m)
        m = (el.m / nrm).reshape(2, 2, *zs.shape)
        s = (el.s + np.log(nrm)).reshape(zs.shape)
    return ScaledTransferMatrix(m, float(s) if zs.ndim == 0 else s)


def dirichlet_solution(p, x, z, step=1e-3):
    """Scaled (u, u') at x for the solution with u(0)=0, u'(0)=1."""
    t = transfer_matrix(p, x, z, step)
    return SolutionSample(u=complex(t.m[1, 0]), du=complex(t.m[0, 0]),
                          log_scale=t.log_scale)


def log_growth(p, x, z, step=1e-3):
    """h(x, z) = log|u(x, z)| / x for the Dirichlet solution."""
    if not x > 0:
        raise ValueError("x must be positive")
    return float(dirichlet_solution(p, x, z, step).log_growth(x))


def dirichlet_profile(p, x_list, z_list, step=1e-3):
    """Dirichlet data at every (z, x) in one pass over the checkpoints.

    x_list must be positive and increasing.  Returns a SolutionSample whose
    fields are arrays indexed [z, x]; all energies share the pass.
    """
    _check_step(step)
    xs = np.asarray(x_list, dtype=float)
    if not (np.all(xs > 0) and np.all(np.diff(xs) > 0)):
        raise ValueError("checkpoints must be positive and increasing")
    zs = np.asarray(z_list, dtype=complex)
    u = np.empty((len(zs), len(xs)), dtype=complex)
    du = np.empty_like(u)
    log_scale = np.empty(u.shape)
    state, x_prev = None, 0.0
    for i, x in enumerate(xs):
        state = _walk(p, x_prev, float(x), zs, step, state)
        u[:, i], du[:, i], log_scale[:, i] = state.m[1, 0], state.m[0, 0], state.s
        x_prev = float(x)
    return SolutionSample(u, du, log_scale)


def log_growth_profile(p, x_list, z, step=1e-3):
    """h(x, z) along an increasing list of checkpoints, in one propagation."""
    xs = np.asarray(x_list, dtype=float)
    return dirichlet_profile(p, xs, [z], step).log_growth(xs)[0]


def lyapunov_estimate(p, x, z, step=1e-3):
    """Finite-x Lyapunov proxy: log of the transfer-matrix norm over x."""
    if not x > 0:
        raise ValueError("x must be positive")
    return transfer_matrix(p, x, z, step).log_scale / x


# ---------------------------------------------------------------------------
# Pruefer zero counting


def _counts(p, x, lams, step):
    """Dirichlet zero counts on (0, x], a chunk of energies at a time."""
    return np.concatenate([
        _walk(p, 0.0, x, lams[lo:lo + _CHUNK], step).k
        for lo in range(0, len(lams), _CHUNK)])


def eigenvalue_count(p, x, lam, step=1e-3):
    """Number of Dirichlet eigenvalues below lam of the operator on [0, x].

    Equals the number of zeros of the Dirichlet solution at energy lam in
    (0, x], by Sturm oscillation.
    """
    _check_step(step)
    if not x > 0:
        raise ValueError("x must be positive")
    return int(_counts(p, x, np.array([float(lam)]), step)[0])


def zero_counting_cdf(p, x, lambda_grid, step=1e-3):
    """Normalized eigenvalue-counting measure: counts(lam)/x on a grid."""
    _check_step(step)
    if not x > 0:
        raise ValueError("x must be positive")
    lams = np.asarray(lambda_grid, dtype=float)
    if not (lams.size and np.all(np.diff(lams) > 0)):
        raise ValueError("lambda_grid must be nonempty and strictly increasing")
    return MeasureCDF(lam=lams, cdf=_counts(p, x, lams, step) / x)


# ---------------------------------------------------------------------------
# Weyl disk

def weyl_m_estimate(p, z, x_cut, step=1e-3):
    """Weyl m-function disk from truncation at x_cut, for Im z > 0.

    The center estimate is -v(x)/u(x) (v the Neumann-type solution); the
    radius is 1/(2 Im z * integral_0^x |u|^2), where the integral comes from
    the exact identity Im(conj(u') u)(x) = Im z * integral_0^x |u|^2 rather
    than quadrature.
    """
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("weyl_m_estimate needs Im z > 0")
    t = transfer_matrix(p, x_cut, z, step)
    u, du, v = t.m[1, 0], t.m[0, 0], t.m[1, 1]
    if u == 0:
        raise DegenerateDisk("Dirichlet solution vanished at the cut point")
    value = -v / u
    growth = (np.conj(du) * u).imag
    if not growth > 0:
        raise DegenerateDisk("truncation disk has no positive radius")
    try:
        radius = math.exp(-2.0 * t.log_scale) / (2.0 * growth)
    except OverflowError as exc:
        raise DegenerateDisk("disk radius overflowed") from exc
    return WeylDisk(value=complex(value), radius=float(radius))


# ---------------------------------------------------------------------------
# Volterra series

def _volterra_grid(p, x, h_target):
    """Piecewise-uniform grid on [0, x] aligned with V's discontinuities.

    Returns (nodes, cells) where cells are (i0, i1, h, vals): node index
    span, panel width, and the potential values to use at the cell's own
    nodes (right-continuous inside the cell, so the shared boundary node
    carries a different value for the two cells it belongs to).
    """
    breaks = [b for b in potentials.discontinuities(p, 0.0, x)]
    edges = [0.0, *breaks, x]
    nodes = [0.0]
    cells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = max(4, math.ceil((hi - lo) / h_target))
        panels += panels & 1
        h = (hi - lo) / panels
        i0 = len(nodes) - 1
        local = lo + np.arange(1, panels + 1) * h
        local[-1] = hi
        nodes.extend(local.tolist())
        pts = np.concatenate([[lo], local])
        pts[-1] = hi - 1e-6 * h  # left limit at the cell's right edge
        vals = np.array([potentials.evaluate(p, t) for t in pts])
        cells.append((i0, len(nodes) - 1, h, vals))
    return np.array(nodes), cells


def _partial_weights(n, h):
    """Row q holds weights integrating the first q of n uniform panels.

    Even q: composite Simpson.  Odd q >= 3: Simpson up to q-3 plus a 3/8
    block.  q == 1: the third-order four-point edge rule
    h*(9 f0 + 19 f1 - 5 f2 + f3)/24 (exact on cubics), which needs n >= 3.
    """
    P = np.zeros((n + 1, n + 1))
    for q in range(2, n + 1, 2):
        c = np.ones(q + 1)
        c[1:q:2] = 4.0
        c[2:q - 1:2] = 2.0
        P[q, :q + 1] = c * (h / 3.0)
    for q in range(3, n + 1, 2):
        P[q, :q - 2] = P[q - 3, :q - 2]
        P[q, q - 3:q + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    P[1, :4] = np.array([9.0, 19.0, -5.0, 1.0]) * (h / 24.0)
    return P


def _volterra_weight_matrix(p, x, h_target):
    nodes, cells = _volterra_grid(p, x, h_target)
    n_nodes = len(nodes)
    W = np.zeros((n_nodes, n_nodes))
    full_rows = np.zeros(n_nodes)  # weights*V accumulated over complete cells
    for i0, i1, h, vals in cells:
        n = i1 - i0
        P = _partial_weights(n, h)
        wf = P[n] * vals
        for q in range(1, n + 1):
            W[i0 + q, :] = full_rows
            W[i0 + q, i0:i1 + 1] += P[q] * vals
        full_rows = full_rows.copy()
        full_rows[i0:i1 + 1] += wf
    return nodes, W


def _kernel_s(diffs, k):
    if abs(k) < 1e-12:
        return diffs.astype(complex)
    return np.sinh(k * diffs) / k


def volterra_terms(p, x, z, n_terms=12, horizon=2.0, h_target=1.0 / 512.0):
    """Values at x of the first n_terms iterated-kernel terms.

    term_0 is the free solution sinh(kx)/k; term_{n+1}(y) integrates
    s(y-t) V(t) term_n(t) over [0, y].  Independent of the transfer-matrix
    route by construction.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    x = float(x)
    if not 0 < x <= horizon:
        if x > horizon:
            raise HorizonExceeded(f"x={x} beyond Volterra horizon {horizon}")
        raise ValueError("x must be positive")
    k = spectral_point(z).k
    nodes, W = _volterra_weight_matrix(p, x, h_target)
    S = _kernel_s(nodes[:, None] - nodes[None, :], k)
    K = W * S
    term = _kernel_s(nodes, k)
    out = [term[-1]]
    for _ in range(n_terms - 1):
        term = K @ term
        if not np.all(np.isfinite(term.view(float))):
            raise QuadratureFailure("Volterra iteration produced non-finite values")
        out.append(term[-1])
    return np.array(out)


def volterra_solution(p, x, z, n_terms=12, horizon=2.0, h_target=1.0 / 512.0):
    """Partial sum of the Volterra series for the Dirichlet solution at x."""
    return complex(np.sum(volterra_terms(p, x, z, n_terms, horizon, h_target)))
