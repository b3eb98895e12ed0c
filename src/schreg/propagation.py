"""Propagation of -u'' + V u = z u along the half line.

The state vector is (u', u).  Over a cell where V averages vbar the exact
flow is

    [[cosh(w),        kappa**2 * S],
     [S,              cosh(w)    ]],   w = kappa*h,  S = sinh(w)/kappa,

with kappa**2 = vbar - z.  At a real z a cell with kappa**2 < 0 oscillates,
cos and sin of w = |kappa| h taking the place of cosh and sinh; each cell
evaluates only its own branch, the sinh(w)/w series only if some w is tiny.

One kernel serves products, zero counts and repeats.  Its element stands
for a stretch of cells: a mantissa m at unit scale and a log scale s, the
stretch's transfer matrix being e**s * m, so products over 1e6 cells or
long repeats never overflow.  Every cell flow has determinant 1, so
det m = e**(-2 s).  At real energies the element also carries the lifted
Pruefer angle a of the Dirichlet solution (u = r sin(theta), u' = r
cos(theta), theta(0) = 0) as a = k*pi + t: t in [0, pi) is the angle of m's
first column, and the integer k is the number of zeros of u in the stretch.
A walk reads the zero count at a real energy and the log scale at a
complex one, so a batch of elements is one array of five rows along axis
0: m00, m01, m10 and m11, then k at real energies (integer-valued float64,
exact below 2**53) and s at complex ones (imaginary part 0).

Applying B after A lifts the angle by the rule

    a_BA = a_B + pi*floor(a_A/pi) + atan2(det B * sin(t_A), <B v_0, B v_t>),

v_t = (cos t_A, sin t_A) in (u', u) order: the last term is the turn from
B v_0 to B v_t, in [0, pi] because det B > 0.  The kernel evaluates the
rule exactly, without atan2.  A mantissa at a real energy is negated
when its first column leaves the upper half plane (angle in [0, pi));
then t_B plus the turn reaches pi exactly when the first column of
m_B m_A leaves it, so k_BA = k_A + k_B + (1 if it left, else 0).  No
determinant is evaluated, so none can round to the wrong sign when m_B is
nearly rank one.

The rule is associative, so a stretch is reduced as a tree: neighbouring
cells are paired level by level, batched over energies, until one element
covers the stretch, which is then applied to the running state.  Only
associativity is used, no conditioning of the operands, and the counts are
integers free of step error for step potentials.  Each pattern P of a
RepeatBlock run costs O(1) at every energy, whatever its count n: P**n and
its zero count are in closed form (see floquet) from P's offsets, folded
by _offsets as a period's are for its band scan.  Work is batched in
chunks of at most _CHUNK cell-energies (one cell at least), which bounds
memory.
"""
from __future__ import annotations

import math

import numpy as np

from . import potentials
from .floquet import _fold, _negative, _power, _turn
from .errors import InvalidStep, ZeroSolution
from .record import Record
from .spectrum import MeasureCDF

__all__ = [
    "ScaledTransferMatrix",
    "SolutionSample",
    "transfer_matrix",
    "dirichlet_solution",
    "dirichlet_profile",
    "log_growth",
    "eigenvalue_count",
    "zero_counting_cdf",
]

_CHUNK = 1 << 13


class ScaledTransferMatrix(Record, eq=False):
    """Transfer matrix e**log_scale * m with the mantissa m at unit spectral
    norm, so log_scale is the log of the matrix norm (x times the finite-x
    Lyapunov exponent)."""

    m: np.ndarray
    log_scale: float


class SolutionSample(Record):
    """Scaled solution data: actual u = u * e**log_scale, same for du."""

    u: complex
    du: complex
    log_scale: float

    def log_growth(self, x):
        """h = log|u| / x for the actual u; fields and x may be arrays."""
        if np.any(self.u == 0):
            raise ZeroSolution(f"u vanished at x={x}; log-growth undefined")
        return (self.log_scale + np.log(np.abs(self.u))) / x


def _check_step(step):
    if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0):
        raise InvalidStep(f"step must be a positive finite number, got {step!r}")


# ---------------------------------------------------------------------------
# the kernel: elements, their composition, the pairing tree, repeats


def _cells(widths, values, z, offset=False):
    """Cell elements, five rows (m, then k at a real z, s at a complex one), widths
    and values broadcast against the energies z; with offset, the cells' offsets
    instead, eight rows or six (see floquet).  At a real z one half-turn rule gives
    sign and k: S = sin(w)/|kappa| is 0 only at w = 0, so with neg = S < 0 the first
    column (the offset's sigma) is negated where neg, and k = 2 floor((w - pi neg) /
    (2 pi) + 1/4) + neg, the integer of neg's parity in (w/pi - 3/2, w/pi + 1/2], on
    an oscillating cell, else 0 (nan z too)."""
    h = np.asarray(widths, dtype=float)
    kap2 = values - z
    real = z.dtype.kind != "c"
    w = np.sqrt(np.abs(kap2) if real else kap2) * h
    e = np.empty((5 + offset * (1 + 2 * real),) + w.shape, w.dtype)
    m = e[:4].reshape(2, 2, *w.shape)
    C, S = m[0, 0], m[1, 0]
    if real:
        osc = kap2 < 0.0
        hyp = ~osc
        rho = np.where(osc, 0.0, w)
        if offset:
            # e**-w (cosh(w) - 1) = expm1(-w)**2 / 2
            C[...], Sh = _turn(w)
            e1 = np.expm1(-w, out=np.zeros_like(w), where=hyp)
            np.multiply(0.5, e1 * e1, out=C, where=hyp)
            np.multiply(-0.5, e1 * (2.0 + e1), out=Sh, where=hyp)
            t = np.exp(-rho)
        else:
            np.cos(w, out=C, where=osc)
            Sh = np.sin(w, out=None, where=osc)
            em = np.exp(-2.0 * w, out=np.zeros_like(w), where=hyp)
            np.multiply(0.5, 1.0 + em, out=C, where=hyp)
            np.multiply(0.5, 1.0 - em, out=Sh, where=hyp)
    else:
        rho = np.abs(w.real)
        if offset:
            # e**-rho (cosh(w) - 1) = e**(i Im w) expm1(-w)**2 / 2, rho = Re w
            c, sn = _turn(w.imag)
            E, t = np.expm1(-rho), np.exp(-rho)
            ep = (1.0 + c) + 1j * sn
            e1 = (E + c + E * c) - 1j * (t * sn)
            np.multiply(0.5 * ep, e1 * e1, out=C)
            Sh = -0.5 * ep * e1 * (2.0 + e1)
        else:
            ep, em = np.exp(w - rho), np.exp(-w - rho)
            np.multiply(0.5, ep + em, out=C)
            Sh = 0.5 * (ep - em)
    np.multiply(Sh, h, out=S)
    w2 = kap2 * h * h
    small = np.abs(w2) < 1e-8
    if small.any():
        # sinh(w)/w = 1 + w^2/6 + w^4/120 + ... guards the kappa -> 0 cancellation
        np.copyto(S, h * (1.0 + w2 / 6.0 * (1.0 + w2 / 20.0)) * np.exp(-rho), where=small)
        np.divide(S, w, out=S, where=~small)
    else:
        S /= w
    if real:
        neg = S < 0.0
        sign = np.where(neg, -1.0, 1.0)
        k = np.multiply(w, 0.5 / np.pi, out=e[-1])   # in place: temporaries cost 1.7x
        k += 0.25 * sign   # + 1/4 - neg/2
        np.floor(k, out=k)
        k *= 2.0
        k += neg
        np.copyto(k, 0.0, where=hyp)
    if offset:
        e[5] = t
        if real:
            e[6] = sign
    elif real:
        m[:, 0] *= sign
    np.multiply(kap2, S, out=m[0, 1])
    m[1, 1] = C
    if offset or not real:
        e[4] = rho
    return e


def _compose(b, a):
    """Elements of applying a, then b."""
    e = np.empty_like(a)
    m = e[:4].reshape(2, 2, *e.shape[1:])
    # m[i, j] = b[i, 0] a[0, j] + b[i, 1] a[1, j], read off the rows m00, m01, m10, m11
    np.multiply(b[0:4:2, None], a[None, 0:2], out=m)
    m += b[1:4:2, None] * a[None, 2:4]
    scale = np.abs(m).max(axis=(0, 1))
    if e.dtype.kind == "c":
        np.add(b[4] + a[4], np.log(scale), out=e[4])
        np.divide(m, scale, out=m)
        return e
    # the first columns of a and b lie in the upper half plane; the
    # product's leaves it exactly when the angle passed a multiple of pi,
    # and is then negated back into it
    neg = _negative(m[1, 0], m[0, 0])
    m *= np.where(neg, -1.0, 1.0) / scale
    np.add(a[4] + b[4], neg, out=e[4])
    return e


def _apply(e, state=None, compose=_compose):
    """Fold the units along axis 1 of e into state, first unit first.

    Neighbours are paired level by level (an unpaired last unit is carried
    up) until one element covers all of them; state None is the identity.
    """
    while e.shape[1] > 1:
        n = e.shape[1] // 2 * 2
        pairs = compose(e[:, 1:n:2], e[:, 0:n:2])
        e = pairs if n == e.shape[1] else np.concatenate([pairs, e[:, n:]], axis=1)
    return e[:, 0] if state is None else compose(e[:, 0], state)


def _offsets(widths, values, z, state=None):
    """Fold the offsets of the cells along axis 0 of widths and values into the
    offsets state, indexed [row, *widths.shape[1:], energy], a chunk at a time."""
    if not len(z):
        raise ValueError("energies must be nonempty")
    size = max(1, _CHUNK // (len(z) * math.prod(widths.shape[1:])))
    for lo in range(0, len(widths), size):
        chunk = (slice(lo, lo + size), ..., None)
        state = _apply(_cells(widths[chunk], values[chunk], z, offset=True), state, _fold)
    return state


def _walk(p, x0, x1, z, step, state=None):
    """Fold the cells of [x0, x1) at the energies z into state, a chunk at a time."""
    if not len(z):
        raise ValueError("energies must be nonempty")
    for block in potentials.segments(p, x0, x1, step):
        w, v = block.widths, block.values
        if isinstance(block, potentials.RepeatBlock):
            n, size = block.counts, max(1, _CHUNK // (len(z) * len(w)))
            for lo in range(0, len(n), size):
                chunk = slice(lo, lo + size)
                state = _apply(_power(_offsets(w[:, chunk], v[:, chunk], z), n[chunk, None]), state)
            continue
        size = max(1, _CHUNK // len(z))
        for lo in range(0, len(w), size):
            state = _apply(_cells(w[lo:lo + size, None], v[lo:lo + size, None], z), state)
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

    x must be positive and finite.  Columns propagate (u', u) initial data;
    the first column is the Dirichlet solution (u(0)=0, u'(0)=1), the second
    has u(0)=1, u'(0)=0.  The mantissa is normalized to unit spectral norm.
    An array of energies shares one pass: m is then indexed [i, j, *z.shape]
    and log_scale is an array of z's shape.
    """
    _check_step(step)
    if not 0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    zs = np.asarray(z, dtype=complex)
    e = _walk(p, 0.0, float(x), zs.reshape(-1), step)
    nrm = _spectral_norm(e[:4].reshape(2, 2, -1))
    m = (e[:4] / nrm).reshape(2, 2, *zs.shape)
    s = (e[4].real + np.log(nrm)).reshape(zs.shape)
    return ScaledTransferMatrix(m, float(s) if zs.ndim == 0 else s)


def dirichlet_solution(p, x, z, step=1e-3):
    """Scaled (u, u') at x for the solution with u(0)=0, u'(0)=1."""
    t = transfer_matrix(p, x, z, step)
    return SolutionSample(u=complex(t.m[1, 0]), du=complex(t.m[0, 0]),
                          log_scale=t.log_scale)


def log_growth(p, x, z, step=1e-3):
    """h(x, z) = log|u(x, z)| / x for the Dirichlet solution."""
    return float(dirichlet_solution(p, x, z, step).log_growth(x))


def dirichlet_profile(p, x_list, z_list, step=1e-3):
    """Dirichlet data at every (z, x) in one pass over the checkpoints.

    x_list must be finite, positive and nondecreasing.  Returns a SolutionSample
    whose fields are arrays indexed [z, x]; all energies share the pass.
    """
    _check_step(step)
    xs = np.asarray(x_list, dtype=float)
    if not (xs.size and np.all((xs > 0) & (xs < np.inf)) and np.all(np.diff(xs) >= 0)):
        raise ValueError("checkpoints must be nonempty, finite, positive, increasing or repeated")
    zs = np.asarray(z_list, dtype=complex)
    rows, state = [], None
    for x0, x1 in zip([0.0, *xs], xs):
        state = _walk(p, float(x0), float(x1), zs, step, state)
        rows.append(state[[2, 0, 4]])   # u = m10, du = m00 and s
    u, du, s = np.stack(rows, axis=-1)
    return SolutionSample(u, du, s.real)


# ---------------------------------------------------------------------------
# Pruefer zero counting


def _counts(p, x, lams, step):
    """Dirichlet zero counts on (0, x] at finite energies, a chunk at a time."""
    _check_step(step)
    if not 0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if not np.isfinite(lams).all():
        raise ValueError("energies must be finite")
    return np.concatenate([_walk(p, 0.0, x, lams[lo:lo + _CHUNK], step)[4]
                           for lo in range(0, len(lams), _CHUNK)])


def eigenvalue_count(p, x, lam, step=1e-3):
    """Number of Dirichlet eigenvalues below lam of the operator on [0, x].

    Equals the number of zeros of the Dirichlet solution at energy lam in
    (0, x], by Sturm oscillation.
    """
    return int(_counts(p, x, np.array([float(lam)]), step)[0])


def zero_counting_cdf(p, x, lambda_grid, step=1e-3):
    """Normalized eigenvalue-counting measure, a `spectrum.MeasureCDF`: counts(lam)/x on a grid."""
    lams = np.asarray(lambda_grid, dtype=float)
    if not (lams.size and np.all(np.diff(lams) > 0)):
        raise ValueError("lambda_grid must be nonempty and strictly increasing")
    return MeasureCDF(lam=lams, cdf=_counts(p, x, lams, step) / x)

