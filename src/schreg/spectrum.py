"""The set E and the measures that the two halves of the package exchange.

`martin` (potential theory of E) and `propagation` and `periodic` (the
operator -u'' + V u) meet only in a `GapSet` E and in a `MeasureCDF` on an
energy grid.  Both check windows and z grids against E here, and both find
roots with `_section`: the critical points in the gaps, and band edges,
32 ways a level, 4 levels a call of f, of which it reads as many as its
guesses of the root hold.
"""
from __future__ import annotations

import math

import numpy as np

from .record import Record

__all__ = ["GapSet", "MeasureCDF", "distance_to_set", "check_window", "check_z_grid"]


class GapSet(Record):
    """[b0, inf) with finitely many open gaps (a_j, b_j) removed.

    Ordering b0 < a_1 < b_1 < a_2 < ... is enforced; bands() lists the
    closed bands, the last one unbounded (returned with math.inf).
    """

    b0: float
    gaps: tuple = ()

    def __post_init__(self):
        self._set(b0=float(self.b0), gaps=tuple((float(a), float(b)) for a, b in self.gaps))
        edges = [self.b0, *(e for gap in self.gaps for e in gap)]
        if not all(map(math.isfinite, edges)):
            raise ValueError("b0 and gap edges must be finite")
        if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
            raise ValueError("gaps must be ordered and disjoint above b0")

    def bands(self):
        edges = [self.b0, *(e for gap in self.gaps for e in gap), math.inf]
        return list(zip(edges[::2], edges[1::2]))

    def to_json(self):
        return {"b0": self.b0, "gaps": [list(g) for g in self.gaps]}

    @classmethod
    def from_json(cls, obj):
        return cls(b0=obj["b0"], gaps=tuple(tuple(g) for g in obj.get("gaps", ())))


class MeasureCDF(Record, eq=False):
    """A cumulative distribution sampled on an increasing energy grid."""

    lam: np.ndarray
    cdf: np.ndarray


def distance_to_set(E, z):
    """Euclidean distance from z to the set E; ValueError if z is not finite."""
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    x, y = z.real, abs(z.imag)
    if x <= E.b0:
        return abs(z - E.b0)
    for a, b in E.gaps:
        if a < x < b:
            return min(abs(z - a), abs(z - b))
    return y


def check_window(lambda_window, E=None):
    """(lo, hi) of a window; ValueError unless lo < hi and lo >= E.b0."""
    lo, hi = float(lambda_window[0]), float(lambda_window[1])
    if not lo < hi:
        raise ValueError("lambda_window must be increasing")
    if E is not None and lo < E.b0 - 1e-12 * max(1.0, abs(E.b0)):
        raise ValueError("window must start at or above b0")
    return lo, hi


def check_z_grid(z_grid, E):
    """The z grid as a complex array; ValueError if a z is not finite or lies
    closer than 0.1 to the spectrum E."""
    zs = np.asarray([complex(z) for z in z_grid])
    for z in zs:
        if distance_to_set(E, z) < 0.1:
            raise ValueError(f"z={z} closer than 0.1 to the spectrum")
    return zs


_SECTIONS = 32   # sub-brackets a bracket is cut into per level of _section
_DEPTH = 4       # levels each call of f in _section looks ahead
# 32**l, and the middle of three inner points about sub-bracket j (built in
# Python, so that importing the module runs no numpy ufunc)
_DIGITS = np.array([float(_SECTIONS) ** l for l in range(_DEPTH + 1)])
_MIDDLE = np.array([min(max(j, 2), _SECTIONS - 2) for j in range(_SECTIONS)])


def _live(out, inn, tol):
    """Pairs wider than tol that a float still splits."""
    mid = 0.5 * (out + inn)
    return (np.abs(inn - out) > tol) & (mid != out) & (mid != inn)


def _section(f, out, inn, fends):
    """Roots of f bracketed by pairs of ends, f(out) > 0 >= f(inn), each
    pair in either order, until a pair is within 4e-16 times the larger of
    its starting |ends| (about 2 ulp) or no float splits it; fends holds
    the values f(out) and f(inn).  A level cuts a pair at its 31 inner
    points out + (inn - out) j / 32 and keeps the sub-bracket at the first
    one with f <= 0: a sign change, whether or not f is monotone.

    Each call of f, with the live pairs' indices k and their points, shape
    (pairs, 4 * 31), takes each pair's next level and the 3 levels below
    it in the sub-brackets where a guess puts the root: on the first call
    the secant through fends, then the inverse quadratic through f at the
    three inner points about the sub-bracket kept (Dekker 1969; Brent 1973).
    A level is read only where the guesses above it held, so the roots are
    bitwise those of one level per call.
    """
    out, inn = np.array(out, dtype=float), np.array(inn, dtype=float)
    tol = 4e-16 * np.maximum(np.abs(out), np.abs(inn))
    with np.errstate(all="ignore"):   # the root as a fraction of its pair
        guess = fends[0] / (fends[0] - fends[1])
    grid = np.arange(_SECTIONS + 1) / _SECTIONS
    for _ in range(200):
        k = np.flatnonzero(_live(out, inn, tol))
        if not k.size:
            break
        n, r = k.size, np.arange(k.size)[:, None]
        s = guess[k]
        s = np.where((s >= 0.0) & (s < 1.0), s, 0.5)
        # each level's guessed sub-bracket (the base-32 digits of s), and the next
        lead = np.floor(s[:, None] * _DIGITS)
        pick = (lead[:, 1:] - _SECTIONS * lead[:, :-1]).astype(int)[..., None] + [0, 1]
        pts, ends = np.empty((n, _DEPTH, _SECTIONS + 1)), np.column_stack([out[k], inn[k]])
        for level in range(_DEPTH):
            p = np.multiply(ends[:, 1:] - ends[:, :1], grid, out=pts[:, level])
            p += ends[:, :1]
            p[:, ::_SECTIONS] = ends
            ends = p[r, pick[:, level]]
        val = f(pts[..., 1:-1].reshape(n, -1), k).reshape(n, _DEPTH, -1)
        stop = np.ones((n, _DEPTH, _SECTIONS), bool)   # the last sub-bracket if no f <= 0
        np.less_equal(val, 0.0, out=stop[..., :-1])
        first = stop.argmax(axis=2)
        # level l + 1 is read if l kept its guessed sub-bracket and that is live
        read = np.zeros((n, _DEPTH), bool)
        read[:, :-1] = ((first == pick[..., 0])[:, :-1]
                        & _live(pts[:, 1:, 0], pts[:, 1:, -1], tol[k, None]))
        h = (~read).argmax(axis=1)[:, None]
        j = first[r, h]
        out[k], inn[k] = pts[r, h, j + [0, 1]].T
        m = _MIDDLE[j]
        fa, fb, fc = val[r, h, m + [-2, -1, 0]].T   # f at inner points m - 1, m, m + 1
        with np.errstate(all="ignore"):
            guess[k] = (m - j)[:, 0] + fb / (fc - fa) * (fa / (fc - fb) + fc / (fa - fb))
    return 0.5 * (out + inn)
