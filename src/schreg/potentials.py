"""Potential families on the half line [0, inf).

Every family is a small frozen record.  The paper reads a potential through
two objects, and each family class defines exactly those two as private
methods, behind two public functions:

* `_cells(x0, x1, step)`, behind `segments` -- the constant cells of a
  window, from which propagation builds transfer matrices;
* `_integral(x)`, behind `prefix_integral` and `cesaro_trace` -- the exact
  integral of V over [0, x], whose running mean (1/x) integral_0^x V bounds
  the Robin-type constant.  One call takes a float x >= 0 or an array of
  them and answers each entry bit for bit as a call at it alone would.  A
  closed form per family, never quadrature, it holds to machine precision;
  Random's running sum over cells to about 1e-14 relative at 1e5 cells.

`to_json` and `from_json` read and build the record fields.

`segments` decomposes [x0, x1) into constant cells, emitting literal cell
arrays (`CellBlock`) or runs of patterns, each repeated with a count
(`RepeatBlock`), where V is periodic on a stretch.  Every family is read
as one step function, which each window cuts (`_cell_block`): a cut cell
keeps its whole cell's value, so a walk cut at checkpoints integrates what
one walk from 0 does.  Values come from each family's own table: the
breakpoints of PiecewiseConstant, Tabulated and SparseBumps, the +-1 wave
of PeriodicSquare and OscillatingExample, for Random a SplitMix64 hash of
(seed, cell index).  What the `step` argument means depends on the family:

* step functions (every family but Decaying) ignore it.  Their own cells
  are never subdivided -- the constant flow over a cell is exact;
* Decaying, the one smooth family, is read as its average over the mesh
  phi(x; q) = step*i, i = 0, 1, ..., from x = 0: cells `step` wide at
  x = 0 that widen as (1+x)**q with q = (rate+1)/3, which keeps |V'| h**3,
  the cell-averaging error, at its x = 0 value; q is capped at 1 (rate > 2)
  so that no cell is wider than step*(1+x).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property

import numpy as np

from .record import Record

__all__ = [
    "Constant",
    "PiecewiseConstant",
    "Decaying",
    "PeriodicSquare",
    "OscillatingExample",
    "SparseBumps",
    "Random",
    "Tabulated",
    "CellBlock",
    "RepeatBlock",
    "CesaroTrace",
    "prefix_integral",
    "segments",
    "cesaro_trace",
    "to_json",
    "from_json",
]


def _as_float_tuple(seq):
    return tuple(float(v) for v in seq)


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


class CellBlock:
    """A run of literal constant cells: widths[i] wide with average values[i]."""

    __slots__ = ("widths", "values")

    def __init__(self, widths, values):
        self.widths, self.values = widths, values


class RepeatBlock:
    """A run of cell patterns: pattern j, the cells widths[:, j] with values[:, j],
    repeated counts[j] >= 2 times back to back, then pattern j + 1."""

    __slots__ = ("widths", "values", "counts")

    def __init__(self, widths, values, counts):
        self.widths, self.values, self.counts = widths, values, counts

    count = property(lambda self: int(self.counts.sum()),
                     doc="The run's pattern copies: len(widths) * count cells.")


class CesaroTrace(Record, eq=False):
    """Running averages (1/x) * integral_0^x of V on a grid."""

    x: np.ndarray
    mean: np.ndarray


# ---------------------------------------------------------------------------
# the two public views of a family, each one of its methods


def segments(p, x0, x1, step):
    """Yield CellBlock/RepeatBlock covering [x0, x1) in order; no cell if x1 <= x0.

    The cells are the family's one step function cut to the window; for
    Decaying that is its average over the mesh phi^-1(step*i) from x = 0,
    `step` wide at x = 0 and widening as (1+x)**min((rate+1)/3, 1).
    """
    return p._cells(x0, max(x0, x1), step)


def prefix_integral(p, x):
    """Exact integral of V over [0, x] (closed form, no quadrature)."""
    _require(0 <= float(x) < math.inf, "x must be finite and nonnegative")
    return float(p._integral(float(x)))


def _cell_block(edges, values, x0, x1):
    """The cells values[i] on [edges[i], edges[i+1]), nondecreasing edges
    around [x0, x1), cut to it: the edges are clipped to [x0, x1], the end
    ones set to exactly x0 and x1, and empty cells dropped.  A cut cell keeps
    its whole cell's value."""
    edges = np.clip(edges, x0, x1)
    edges[0], edges[-1] = x0, x1
    widths = np.diff(edges)
    keep = widths > 0
    return CellBlock(widths[keep], values[keep])


def _step_cells(jumps, values, x0, x1):
    """Cells over [x0, x1) of the step function that jumps to values[i+1]
    at jumps[i] (nondecreasing) and is values[0] before jumps[0]."""
    i0 = bisect_right(jumps, x0)
    i1 = max(bisect_left(jumps, x1), i0)
    edges = np.array([x0, *jumps[i0:i1], x1], dtype=float)
    return _cell_block(edges, np.array(values[i0:i1 + 1], dtype=float), x0, x1)


_SIGNS = np.broadcast_to([[1.0], [-1.0]], (2, 1))   # a wave's period, read-only
_RUN = 4096   # patterns per run at most, so a walk's memory does not grow with x


def _wave_cells(half, origin, lo, hi):
    """Cells over [lo, hi) of the wave that is +1 on [origin, origin + half)
    and changes sign at every multiple of `half` from `origin`.  The edges
    reach one past the quotients' floor and ceil, which may round either way."""
    j = np.arange(math.floor((lo - origin) / half) - 1, math.ceil((hi - origin) / half) + 2)
    return _cell_block(origin + j * half, np.where(j[:-1] % 2 == 0, 1.0, -1.0), lo, hi)


# ---------------------------------------------------------------------------
# Constant


class Constant(Record):
    """V(x) = value everywhere."""

    value: float

    def __post_init__(self):
        self._set(value=float(self.value))
        _require(math.isfinite(self.value), "constant value must be finite")

    def _integral(self, x):
        return self.value * x

    def _cells(self, x0, x1, step):
        if x1 > x0:
            yield CellBlock(np.array([x1 - x0]), np.array([self.value]))


# ---------------------------------------------------------------------------
# step functions: PiecewiseConstant and Tabulated


class PiecewiseConstant(Record):
    """Step function: values[i] on [b_{i-1}, b_i) with b_{-1} = 0.

    `breakpoints` are strictly increasing and positive; `values` has one
    more entry than `breakpoints`, the last one extending to infinity.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        self._set(breakpoints=_as_float_tuple(self.breakpoints),
                  values=_as_float_tuple(self.values))
        _require(len(self.values) == len(self.breakpoints) + 1,
                 "need len(values) == len(breakpoints) + 1")
        _require(all(math.isfinite(v) for v in self.values), "values must be finite")
        b = self.breakpoints
        _require(all(math.isfinite(v) and v > 0 for v in b), "breakpoints must be positive")
        _require(all(b[i] < b[i + 1] for i in range(len(b) - 1)),
                 "breakpoints must be strictly increasing")

    @cached_property
    def _table(self):
        """Edges including 0, the values, and the integral of V up to each edge."""
        edges = np.concatenate([[0.0], self.breakpoints])
        vals = np.asarray(self.values, dtype=float)
        return edges, vals, np.concatenate([[0.0], np.cumsum(np.diff(edges) * vals[:-1])])

    def _integral(self, x):
        edges, vals, cum = self._table
        i = np.searchsorted(edges, x, "right") - 1   # in range: edges[0] = 0 <= x
        return cum[i] + vals[i] * (x - edges[i])

    def _cells(self, x0, x1, step):
        yield _step_cells(self.breakpoints, self.values, x0, x1)


class Tabulated(Record):
    """Right-continuous step interpolation of sampled values.

    `grid` starts at 0 and increases strictly; values[i] holds on
    [grid[i], grid[i+1]) and values[-1] extends beyond grid[-1].
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        self._set(grid=_as_float_tuple(self.grid), values=_as_float_tuple(self.values))
        _require(len(self.grid) == len(self.values) and len(self.grid) >= 1,
                 "grid and values must have equal nonzero length")
        _require(self.grid[0] == 0.0, "grid must start at 0")
        g = self.grid
        _require(all(g[i] < g[i + 1] for i in range(len(g) - 1)),
                 "grid must be strictly increasing")
        _require(all(math.isfinite(v) for v in self.values), "values must be finite")

    @cached_property
    def breakpoints(self):
        """grid[1:]: the same step function as PiecewiseConstant(grid[1:], values)."""
        return self.grid[1:]

    _table = PiecewiseConstant._table
    _integral = PiecewiseConstant._integral
    _cells = PiecewiseConstant._cells


# ---------------------------------------------------------------------------
# Decaying


class Decaying(Record):
    """V(x) = amplitude / (1 + x)**rate with rate > 0."""

    amplitude: float
    rate: float

    def __post_init__(self):
        self._set(amplitude=float(self.amplitude), rate=float(self.rate))
        _require(math.isfinite(self.amplitude), "amplitude must be finite")
        _require(self.rate > 0 and math.isfinite(self.rate), "rate must be positive")

    def _integral(self, x):
        return self.amplitude * _phi(x, self.rate)

    def _cells(self, x0, x1, step):
        # The one mesh phi(x; q) = step*i from x = 0 has cells at most
        # step*(1+x)**q wide.  Uncapped, q = (rate+1)/3 > 1 would make phi
        # bounded, and the last cell would stretch from where V is still
        # sizeable out to infinity.  Its edges reach one cell past the
        # quotients' floor and ceil, which may round either way.
        q = min((self.rate + 1.0) / 3.0, 1.0)
        y0, y1 = _phi(np.array([x0, x1], dtype=float), q) / step
        edges = _phi_inv(step * np.arange(max(math.floor(y0) - 1, 0), math.ceil(y1) + 2), q)
        lo, widths = edges[:-1], np.diff(edges)
        # the integral of (1+t)**-rate over [lo, lo + h) is
        # (1+lo)**(1-rate) * phi(h/(1+lo)); unlike a difference of phi at
        # the two edges, it does not cancel on narrow cells
        mass = (1.0 + lo) ** (1.0 - self.rate) * _phi(widths / (1.0 + lo), self.rate)
        yield _cell_block(edges, self.amplitude * mass / widths, x0, x1)


def _phi(x, q):
    """integral_0^x (1+t)**-q dt; log1p/expm1 keep full precision for q near 1."""
    c = 1.0 - q
    return np.log1p(x) if c == 0.0 else np.expm1(c * np.log1p(x)) / c


def _phi_inv(y, q):
    """Inverse of _phi in x."""
    c = 1.0 - q
    return np.expm1(y) if c == 0.0 else np.expm1(np.log1p(c * y) / c)


# ---------------------------------------------------------------------------
# PeriodicSquare


class PeriodicSquare(Record):
    """Square wave: +1 on [0, delta), -1 on [delta, 2*delta), period 2*delta."""

    delta: float

    def __post_init__(self):
        self._set(delta=float(self.delta))
        _require(self.delta > 0 and math.isfinite(self.delta), "delta must be positive")

    def _integral(self, x):
        tau = np.fmod(x, 2.0 * self.delta)
        return np.minimum(tau, self.delta) - np.maximum(tau - self.delta, 0.0)

    def _cells(self, x0, x1, step):
        P = 2.0 * self.delta
        m0, m1 = math.ceil(x0 / P), math.floor(x1 / P)   # x / P may round either way:
        m0 += (m0 * P < x0) - ((m0 - 1) * P >= x0)   # the least m0 with x0 <= fl(m0 * P)
        m1 += ((m1 + 1) * P <= x1) - (m1 * P > x1)   # the greatest m1 with fl(m1 * P) <= x1
        if m1 <= m0:
            yield _wave_cells(self.delta, 0.0, x0, x1)
            return
        t0, t1 = m0 * P, m1 * P
        if x0 < t0:
            yield _wave_cells(self.delta, 0.0, x0, t0)
        if m1 - m0 > 1:
            yield RepeatBlock(np.full((2, 1), self.delta), _SIGNS, np.array([m1 - m0], float))
        else:
            yield CellBlock(np.array([self.delta, self.delta]), np.array([1.0, -1.0]))
        if t1 < x1:
            yield _wave_cells(self.delta, 0.0, t1, x1)


# ---------------------------------------------------------------------------
# OscillatingExample


class OscillatingExample(Record):
    """Unit-amplitude square wave whose half-period shrinks like 1/(2n).

    On the integer block [n-1, n) the sign is (-1)**floor(2*n*(x - n + 1)):
    n alternating (+1, -1) cell pairs of width 1/(2n) each, starting at +1.
    The mean over every complete block vanishes while |V| = 1 everywhere.
    """

    def _integral(self, x):
        tau = x - np.floor(x)
        w = 0.5 / (np.floor(x) + 1.0)
        m = np.floor(tau / w)
        odd = m % 2.0   # the cells alternate +1, -1 from the block's start
        return odd * w + (1.0 - 2.0 * odd) * (tau - m * w)

    def _cells(self, x0, x1, step):
        # blocks lo, ..., hi - 1, those from 2 on that [x0, x1) covers whole,
        # come as runs of at most _RUN patterns, block n a cell pair 1/(2n)
        # wide repeated n times.  The cut or first block lo - 1 before them
        # and the cut block after them are literal cells
        lo, hi = max(math.ceil(x0), 1) + 1, math.floor(x1) + 1
        head, end = min(x1, lo - 1.0), max(lo, hi)
        if x0 < head:
            yield _wave_cells(1.0 / (2.0 * (lo - 1)), lo - 2.0, x0, head)
        for a in range(lo, hi, _RUN):
            n = np.arange(a, min(a + _RUN, hi), dtype=float)
            w = np.broadcast_to(1.0 / (2.0 * n), (2, len(n)))
            yield RepeatBlock(w, np.broadcast_to(_SIGNS, w.shape), n)
        if end - 1.0 < x1:
            yield _wave_cells(1.0 / (2.0 * end), end - 1.0, end - 1.0, x1)


# ---------------------------------------------------------------------------
# SparseBumps


class SparseBumps(Record):
    """Copies of a fixed nonnegative bump placed at increasingly sparse centers.

    Parameters
    ----------
    bump : PiecewiseConstant
        Compactly supported profile: all values nonnegative and the final
        (extending) value exactly zero, so support is [0, bump.breakpoints[-1]].
    positions : tuple of float
        Left endpoints of the bumps, strictly increasing, non-overlapping.
    sparse_from : int
        Index from which the gaps positions[n+1] - positions[n] are required
        to be strictly increasing.
    """

    bump: PiecewiseConstant
    positions: tuple
    sparse_from: int = 0

    def __post_init__(self):
        self._set(positions=_as_float_tuple(self.positions), sparse_from=int(self.sparse_from))
        _require(isinstance(self.bump, PiecewiseConstant), "bump must be PiecewiseConstant")
        _require(self.bump.values[-1] == 0.0, "bump must have compact support (last value 0)")
        _require(all(v >= 0 for v in self.bump.values), "bump values must be nonnegative")
        p = self.positions
        _require(len(p) >= 1 and p[0] >= 0, "need at least one nonnegative position")
        gaps = [b - a for a, b in zip(p, p[1:])]
        _require(all(g >= self.support_width for g in gaps), "bumps must not overlap")
        start = max(self.sparse_from, 0)
        _require(all(gaps[i] < gaps[i + 1] for i in range(start, len(gaps) - 1)),
                 "gaps must be strictly increasing beyond sparse_from")

    @property
    def support_width(self):
        return self.bump.breakpoints[-1]

    @cached_property
    def breakpoints(self):
        """Every jump, nondecreasing: each bump's start and its own breakpoints."""
        return tuple(b + t for b in self.positions for t in (0.0, *self.bump.breakpoints))

    @cached_property
    def values(self):
        """0 before the first bump, then each bump's values in turn."""
        return (0.0, *(self.bump.values * len(self.positions)))

    _table = PiecewiseConstant._table
    _integral = PiecewiseConstant._integral
    _cells = PiecewiseConstant._cells


# ---------------------------------------------------------------------------
# Random


class Random(Record):
    """Independent uniform values on cells [i*w, (i+1)*w).

    Cell i takes the value low + (high - low) * u_i.  Here u_i is the top 53
    bits, times 2**-53, of output i + 1 of a SplitMix64 generator seeded
    with `seed` (Steele, Lea & Flood, OOPSLA 2014), that is of the mix of
    seed + (i + 1) * 0x9E3779B97F4A7C15 mod 2**64.  A value depends on
    (seed, i) alone, so it is reproducible and independent of query order.
    The seed must lie in [0, 2**64).
    """

    seed: int
    cell_width: float
    low: float
    high: float

    def __post_init__(self):
        self._set(seed=int(self.seed), cell_width=float(self.cell_width),
                  low=float(self.low), high=float(self.high))
        _require(0 <= self.seed < 2**64, "seed must lie in [0, 2**64)")
        _require(self.cell_width > 0 and math.isfinite(self.cell_width),
                 "cell_width must be positive")
        _require(self.low <= self.high and math.isfinite(self.low) and math.isfinite(self.high),
                 "need finite low <= high")

    def _integral(self, x):
        w = self.cell_width
        i = np.floor(x / w).astype(np.int64)
        vals = _random_values(self, 0, int(np.max(i)) + 1)
        cum = np.concatenate([[0.0], np.cumsum(vals)])
        return cum[i] * w + vals[i] * (x - i * w)

    def _cells(self, x0, x1, step):
        w = self.cell_width   # one cell past x0/w and x1/w, which may round either way
        i0, i1 = max(math.floor(x0 / w) - 1, 0), math.ceil(x1 / w) + 1
        yield _cell_block(np.arange(i0, i1 + 1) * w, _random_values(self, i0, i1), x0, x1)


def _random_values(spec, i0, i1):
    """Cell values for i in [i0, i1): SplitMix64 in uint64 arrays, which wrap."""
    z = np.arange(i0 + 1, i1 + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + spec.seed
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    u = ((z ^ (z >> 31)) >> 11) * 2.0**-53
    return spec.low + (spec.high - spec.low) * u


# ---------------------------------------------------------------------------
# traces

def cesaro_trace(p, x_grid):
    """Running means of V over [0, x] for each grid point.

    The grid must be positive, finite and strictly increasing.  One call of
    the closed-form running integral answers it all, so e.g. the oscillating
    example returns exactly zero means at integer grid points.
    """
    xs = np.asarray(x_grid, dtype=float)
    _require(xs.ndim == 1 and len(xs) >= 1, "x_grid must be a 1-d sequence")
    _require(np.all(np.diff(xs, prepend=0.0) > 0) and xs[-1] < np.inf,
             "grid must be positive, finite and strictly increasing")
    return CesaroTrace(xs, p._integral(xs) / xs)


# ---------------------------------------------------------------------------
# JSON round trip

_VARIANTS = {
    "constant": Constant,
    "piecewise_constant": PiecewiseConstant,
    "decaying": Decaying,
    "periodic_square": PeriodicSquare,
    "oscillating_example": OscillatingExample,
    "sparse_bumps": SparseBumps,
    "random": Random,
    "tabulated": Tabulated,
}
_VARIANT_NAMES = {cls: name for name, cls in _VARIANTS.items()}


def to_json(p):
    """Plain-dict form with a 'variant' discriminator (JSON-serializable)."""
    if type(p) not in _VARIANT_NAMES:
        raise TypeError(f"unknown potential type {type(p).__name__}")
    obj = {"variant": _VARIANT_NAMES[type(p)]}
    for name, value in zip(p._fields, p._values()):
        if isinstance(value, Record):
            value = to_json(value)
        obj[name] = list(value) if isinstance(value, tuple) else value
    return obj


def from_json(obj):
    """Inverse of to_json; raises ValueError on malformed input."""
    _require(isinstance(obj, dict) and "variant" in obj, "potential spec needs a 'variant'")
    kind = obj["variant"]
    _require(kind in _VARIANTS, f"unknown potential variant {kind!r}")
    cls, given = _VARIANTS[kind], obj.keys() - {"variant"}
    unknown = given - set(cls._fields)
    missing = {f for f in cls._fields if f not in given and not hasattr(cls, f)}
    _require(not unknown, f"unknown fields {sorted(unknown)} for {kind!r}")
    _require(not missing, f"{kind!r} needs the fields {sorted(missing)}")
    # a nested object is itself a potential spec (the bump of SparseBumps)
    return cls(**{k: from_json(obj[k]) if isinstance(obj[k], dict) else obj[k] for k in given})
