"""Adaptive Gauss-Legendre quadrature over many intervals at once.

Each round integrates every pending panel with the 16- and the 8-point
Gauss-Legendre rules.  As in QUADPACK, their difference is scaled to an
error estimate and floored at the rounding of the 16-point sum.  A panel is
accepted when its error is at that floor, when it is within the panel's
share of its interval's tolerance, or once the errors of all of the
interval's panels sum to within it; the others are halved.  This is the
bisection of QUADPACK's QAG (Piessens et al., 1983) run as array code, with
one call of f per round.  Work is bounded: an interval needing more than
_MAX_PANELS panels, or a panel too narrow to halve, raises
QuadratureFailure, and so does a summed error left above the tolerance (a
tolerance below rounding).  Each interval's value depends only on its own
panels, so a batch gives bitwise the values of one call per interval.
The rules are literal tables, bit for bit numpy's leggauss (the tests check
it), so no run imports numpy.polynomial or calls LAPACK to build them.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

__all__ = ["quad", "gauss"]

_ROUNDING = 50.0 * np.finfo(float).eps
_MAX_PANELS = 400   # per interval


# positive halves (nodes increasing, then their weights) of numpy 2.4.6's
# leggauss(n), which makes its rules symmetric bit for bit
_HALVES = {
    8: ([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
        [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]),
    16: ([0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
         [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
          0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]),
    24: ([0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
          0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
          0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213],
         [0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
          0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
          0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869]),
}


def _mirror(x, w):
    rule = np.array([-v for v in x[::-1]] + x), np.array(w[::-1] + w)
    for a in rule:
        a.flags.writeable = False
    return rule


_RULES = {n: _mirror(*half) for n, half in _HALVES.items()}


def gauss(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1] for n = 8,
    16 or 24, read-only and shared: mirrored from the tables above, they
    equal numpy's leggauss(n) bit for bit (tests/test_quadrature.py checks
    it).  Any other n is a ValueError."""
    if n not in _RULES:
        raise ValueError(f"Gauss-Legendre rules are tabled for n = 8, 16 and 24, not {n}")
    return _RULES[n]


def _rule(v, w):
    # a row sum, unlike a BLAS product, rounds each row the same in any batch
    return (v * w).sum(axis=1)


def _error(diff, spread):
    # QUADPACK's scaling of a rule difference to an error estimate, with
    # spread the integral of |f - mean f| over the panel (if it is not 0)
    pos = spread > 0
    ratio = np.divide(200.0 * diff, spread, out=np.ones_like(diff), where=pos)
    return np.where(pos, spread * np.minimum(1.0, ratio) ** 1.5, diff)


def _sum_by(k, v, n):
    # in panel order, so reproducible per interval; a complex v by parts
    if v.dtype.kind != "c":
        return np.bincount(k, v, n)
    out = np.empty(n, dtype=v.dtype)
    out.real, out.imag = np.bincount(k, v.real, n), np.bincount(k, v.imag, n)
    return out


def quad(f, a, b, *, rtol=1e-11, atol=1e-12):
    """Integral of f over each interval [a[k], b[k]] (finite ends).

    f(x, k) gets a flat array of points and the index k of each point's
    interval, in increasing k, and returns one real or complex value per
    point.  Returns an
    array shaped like a and b broadcast, complex if f is.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("quadrature interval ends must be finite")
    n, width = a.size, np.abs(b - a)
    k = np.flatnonzero(a != b)
    lo, hi = a[k], b[k]
    (x16, w16), (x8, w8) = gauss(16), gauss(8)
    nodes = np.concatenate([x16, x8])
    total, spent, panels = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    while k.size:
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        v = np.asarray(f((mid[:, None] + half[:, None] * nodes).ravel(),
                         np.repeat(k, nodes.size))).reshape(k.size, -1)
        mean16 = 0.5 * _rule(v[:, :16], w16)
        i16, i8 = 2.0 * half * mean16, half * _rule(v[:, 16:], w8)
        err = _error(np.abs(i16 - i8), np.abs(half) * _rule(
            np.abs(v[:, :16] - mean16[:, None]), w16))
        floor = _ROUNDING * np.abs(half) * _rule(np.abs(v[:, :16]), w16)
        err, at_floor = np.maximum(err, floor), err <= floor
        total = total.astype(np.result_type(total, i16), copy=False)
        tol = np.maximum(atol, rtol * np.abs(total + _sum_by(k, i16, n)))
        # a panel's share of the tolerance: half of it by width, half split
        # evenly over the most panels an interval may have; halving cannot
        # improve a panel whose error is at the floor
        share = np.maximum(2.0 * np.abs(half) / width[k], 1.0 / _MAX_PANELS)
        ok = at_floor | (err <= 0.5 * tol[k] * share)
        ok |= (spent + _sum_by(k, err, n) <= tol)[k]
        total += _sum_by(k[ok], i16[ok], n)
        spent += _sum_by(k[ok], err[ok], n)
        panels += np.bincount(k[ok], minlength=n)
        k, lo, mid, hi = k[~ok], lo[~ok], mid[~ok], hi[~ok]
        over = panels + 2 * np.bincount(k, minlength=n) > _MAX_PANELS
        narrow = (mid == lo) | (mid == hi)
        if over.any() or narrow.any():
            j = np.flatnonzero(over)[0] if over.any() else k[narrow][0]
            raise QuadratureFailure(
                f"quadrature on [{a[j]}, {b[j]}] above rtol={rtol}, atol="
                f"{atol}: " + ("panel cap" if over.any() else "width floor"))
        k = np.repeat(k, 2)
        halves = np.empty((2, k.size))   # each panel's two halves, in place
        halves[0, 0::2], halves[0, 1::2], halves[1, 0::2], halves[1, 1::2] = lo, mid, mid, hi
        lo, hi = halves
    short = spent > np.maximum(atol, rtol * np.abs(total))
    if short.any():
        j = np.flatnonzero(short)[0]
        raise QuadratureFailure(f"quadrature on [{a[j]}, {b[j]}]: rounding "
                                f"error {spent[j]:.3g} above rtol={rtol}, atol={atol}")
    return total.reshape(shape)
