"""The set E and the measures that the two halves of the package exchange.

`martin` (potential theory of E) and `propagation` and `periodic` (the
operator -u'' + V u) meet only in a `GapSet` E and in a `MeasureCDF` on an
energy grid.  Both check windows and z grids against E here, and both find
roots with `_section`: the critical points in the gaps, and band edges.
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


_SECTIONS = 32   # sub-brackets a bracket is cut into per round of _section


def _section(f, out, inn):
    """Roots of f bracketed by pairs of ends, f(out) > 0 >= f(inn), each
    pair in either order, until a pair is within 4e-16 times the larger of
    its starting |ends| (about 2 ulp) or no float splits it.  Each round
    calls f once, with the _SECTIONS - 1 inner points of every live pair
    (shape (pairs, _SECTIONS - 1)) and the pairs' indices k, and keeps the
    sub-bracket at the first inner point with f <= 0: a sign change,
    whether or not f is monotone."""
    out, inn = np.array(out, dtype=float), np.array(inn, dtype=float)
    tol = 4e-16 * np.maximum(np.abs(out), np.abs(inn))
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    for _ in range(200):
        mid = 0.5 * (out + inn)
        k = np.flatnonzero((np.abs(inn - out) > tol) & (mid != out) & (mid != inn))
        if not k.size:
            break
        pts = np.column_stack([out[k], out[k, None] + (inn - out)[k, None] * frac,
                               inn[k]])
        stop = np.column_stack([f(pts[:, 1:-1], k) <= 0.0, np.ones(k.size, bool)])
        first = stop.argmax(axis=1)[:, None]
        out[k], inn[k] = np.take_along_axis(pts, first + [0, 1], axis=1).T
    return 0.5 * (out + inn)
