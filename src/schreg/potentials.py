"""Potential families on the half line [0, inf).

Every family is a small frozen dataclass; the functional API below
(`evaluate`, `prefix_integral`, `segments`, ...) dispatches on the type.
All potentials are right-continuous, locally integrable, and cheap to
evaluate pointwise.  Running integrals are closed-form per family, never
quadrature, so downstream consumers can trust them to machine precision.

Each family lives in one place: its dataclass followed by its
registrations.  A family registers what only it knows:

* `evaluate` -- the pointwise value;
* `_prefix` -- the exact integral of V (or |V|) over [0, x];
* `discontinuities` -- the jumps of V inside a window.

Everything else is derived from those three.  The default `segments` cuts
the window at the discontinuities, and `to_json` reads the dataclass
fields.  A family registers its own `segments` only when it needs more
than that: repeated patterns (PeriodicSquare, OscillatingExample), a
graded smooth mesh (Decaying), a single cell (Constant), or vectorized
draws (Random).

The `segments` generator is the bridge to propagation: it decomposes
[x0, x1) into constant cells, emitting literal cell arrays (`CellBlock`)
or a repeated pattern with a count (`RepeatBlock`) when the potential is
periodic on that stretch.  What its `step` argument means depends on the
family:

* step functions (every family but Decaying) ignore it.  Their own cells
  are kept whole -- the constant flow over a cell is exact, so subdividing
  it would only add rounding;
* Decaying, the one smooth family, uses it as the cell width at x = 0.
  Cells widen as (1+x)**q with q = (rate+1)/3, which keeps |V'| h**3, the
  size of the error made by replacing V with its cell average, at its
  x = 0 value everywhere; q is capped at 1 (rate > 2) so that no cell is
  wider than step*(1+x).  Each cell carries the exact average of V over
  that cell.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache, singledispatch

import numpy as np

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
    "evaluate",
    "prefix_integral",
    "prefix_abs_integral",
    "segments",
    "discontinuities",
    "cesaro_trace",
    "to_json",
    "from_json",
]


def _as_float_tuple(seq):
    return tuple(float(v) for v in seq)


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True, eq=False)
class CellBlock:
    """A run of literal constant cells: widths[i] wide with average values[i]."""

    widths: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class RepeatBlock:
    """A cell pattern repeated `count` times back to back."""

    widths: np.ndarray
    values: np.ndarray
    count: int


@dataclass(frozen=True, eq=False)
class CesaroTrace:
    """Running averages (1/x) * integral_0^x of V and of |V| on a grid."""

    x: np.ndarray
    mean: np.ndarray
    abs_mean: np.ndarray


# ---------------------------------------------------------------------------
# the per-family generic functions


def _unknown(p):
    return TypeError(f"unknown potential type {type(p).__name__}")


@singledispatch
def evaluate(p, x):
    """Value of the potential at x >= 0 (right-continuous)."""
    raise _unknown(p)


@singledispatch
def _prefix(p, x, absolute):
    """Exact integral of V (|V| if `absolute`) over [0, x], for finite x >= 0."""
    raise _unknown(p)


@singledispatch
def discontinuities(p, x0, x1):
    """Jump locations of V strictly inside (x0, x1), in increasing order."""
    raise _unknown(p)


def _cells_from_edges(p, edges):
    """CellBlock over explicit edges; values sampled at cell midpoints."""
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    keep = widths > 0
    widths = widths[keep]
    mids = ((edges[:-1] + edges[1:]) * 0.5)[keep]
    values = np.array([evaluate(p, m) for m in mids])
    return CellBlock(widths, values)


@singledispatch
def segments(p, x0, x1, step):
    """Yield CellBlock/RepeatBlock covering [x0, x1) in order; no cell if x1 <= x0.

    By default one cell per stretch between consecutive discontinuities,
    which is exact for step potentials; `step` is then ignored.  Decaying
    takes `step` as its cell width at x = 0 and widens cells as
    (1+x)**min((rate+1)/3, 1).
    """
    yield _cells_from_edges(p, [x0, *discontinuities(p, x0, x1), x1])


def _checked_x(x):
    x = float(x)
    _require(x >= 0 and math.isfinite(x), "x must be finite and nonnegative")
    return x


def prefix_integral(p, x):
    """Exact integral of V over [0, x] (closed form, no quadrature)."""
    return _prefix(p, _checked_x(x), False)


def prefix_abs_integral(p, x):
    """Exact integral of |V| over [0, x]."""
    return _prefix(p, _checked_x(x), True)


def _inner_multiples(step_width, a, b):
    """Multiples of step_width strictly inside (a, b)."""
    j0 = math.floor(a / step_width) + 1
    j1 = math.ceil(b / step_width) - 1
    if j1 < j0:
        return []
    return [j * step_width for j in range(j0, j1 + 1)]


# ---------------------------------------------------------------------------
# Constant


@dataclass(frozen=True)
class Constant:
    """V(x) = value everywhere."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require(math.isfinite(self.value), "constant value must be finite")


@evaluate.register
def _(p: Constant, x):
    return p.value


@_prefix.register
def _(p: Constant, x, absolute):
    return (abs(p.value) if absolute else p.value) * x


@discontinuities.register
def _(p: Constant, x0, x1):
    return []


@segments.register
def _(p: Constant, x0, x1, step):
    if x1 > x0:
        yield CellBlock(np.array([x1 - x0]), np.array([p.value]))


# ---------------------------------------------------------------------------
# step functions: PiecewiseConstant and Tabulated


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function: values[i] on [b_{i-1}, b_i) with b_{-1} = 0.

    `breakpoints` are strictly increasing and positive; `values` has one
    more entry than `breakpoints`, the last one extending to infinity.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _as_float_tuple(self.breakpoints))
        object.__setattr__(self, "values", _as_float_tuple(self.values))
        _require(len(self.values) == len(self.breakpoints) + 1,
                 "need len(values) == len(breakpoints) + 1")
        _require(all(math.isfinite(v) for v in self.values), "values must be finite")
        b = self.breakpoints
        _require(all(math.isfinite(v) and v > 0 for v in b), "breakpoints must be positive")
        _require(all(b[i] < b[i + 1] for i in range(len(b) - 1)),
                 "breakpoints must be strictly increasing")


@dataclass(frozen=True)
class Tabulated:
    """Right-continuous step interpolation of sampled values.

    `grid` starts at 0 and increases strictly; values[i] holds on
    [grid[i], grid[i+1]) and values[-1] extends beyond grid[-1].
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", _as_float_tuple(self.grid))
        object.__setattr__(self, "values", _as_float_tuple(self.values))
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


@lru_cache(maxsize=512)
def _pc_tables(breakpoints, values):
    """Edges including 0, plus cumulative integrals of V and |V| at the edges."""
    edges = np.concatenate([[0.0], np.asarray(breakpoints, dtype=float)])
    vals = np.asarray(values, dtype=float)
    seg = np.diff(edges) * vals[:-1]
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cum_abs = np.concatenate([[0.0], np.cumsum(np.diff(edges) * np.abs(vals[:-1]))])
    return edges, vals, cum, cum_abs


@evaluate.register(PiecewiseConstant)
@evaluate.register(Tabulated)
def _(p, x):
    return p.values[bisect_right(p.breakpoints, x)]


@_prefix.register(PiecewiseConstant)
@_prefix.register(Tabulated)
def _(p, x, absolute):
    edges, vals, cum, cum_abs = _pc_tables(p.breakpoints, p.values)
    c = cum_abs if absolute else cum
    v = np.abs(vals) if absolute else vals
    i = min(bisect_right(edges, x) - 1, len(edges) - 1)
    i = max(i, 0)
    return float(c[i] + v[i] * (x - edges[i]))


@discontinuities.register(PiecewiseConstant)
@discontinuities.register(Tabulated)
def _(p, x0, x1):
    return [b for b in p.breakpoints if x0 < b < x1]


# ---------------------------------------------------------------------------
# Decaying


@dataclass(frozen=True)
class Decaying:
    """V(x) = amplitude / (1 + x)**rate with rate > 0."""

    amplitude: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "rate", float(self.rate))
        _require(math.isfinite(self.amplitude), "amplitude must be finite")
        _require(self.rate > 0 and math.isfinite(self.rate), "rate must be positive")


def _phi(x, q):
    """integral_0^x (1+t)**-q dt; log1p/expm1 keep full precision for q near 1."""
    c = 1.0 - q
    return np.log1p(x) if c == 0.0 else np.expm1(c * np.log1p(x)) / c


def _phi_inv(y, q):
    """Inverse of _phi in x."""
    c = 1.0 - q
    return np.expm1(y) if c == 0.0 else np.expm1(np.log1p(c * y) / c)


@evaluate.register
def _(p: Decaying, x):
    return p.amplitude / (1.0 + x) ** p.rate


@_prefix.register
def _(p: Decaying, x, absolute):
    a = abs(p.amplitude) if absolute else p.amplitude
    return a * float(_phi(x, p.rate))


@discontinuities.register
def _(p: Decaying, x0, x1):
    return []


@segments.register
def _(p: Decaying, x0, x1, step):
    # Equal spacing (at most `step`) in phi(x; q) makes cells at most
    # step*(1+x)**q wide.  Uncapped, q = (rate+1)/3 > 1 would make phi
    # bounded, and the last cell would stretch from where V is still
    # sizeable out to x1.
    if x1 <= x0:
        return
    q = min((p.rate + 1.0) / 3.0, 1.0)
    y0, y1 = _phi(np.array([x0, x1], dtype=float), q)
    n = max(1, math.ceil((y1 - y0) / step))
    inner = _phi_inv(np.linspace(y0, y1, n + 1)[1:-1], q)
    edges = np.concatenate([[x0], inner, [x1]])
    widths = np.diff(edges)
    F = p.amplitude * _phi(edges, p.rate)
    yield CellBlock(widths, np.diff(F) / widths)


# ---------------------------------------------------------------------------
# PeriodicSquare


@dataclass(frozen=True)
class PeriodicSquare:
    """Square wave: +1 on [0, delta), -1 on [delta, 2*delta), period 2*delta."""

    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        _require(self.delta > 0 and math.isfinite(self.delta), "delta must be positive")


@evaluate.register
def _(p: PeriodicSquare, x):
    tau = math.fmod(x, 2.0 * p.delta)
    return 1.0 if tau < p.delta else -1.0


@_prefix.register
def _(p: PeriodicSquare, x, absolute):
    if absolute:
        return x
    tau = math.fmod(x, 2.0 * p.delta)
    return min(tau, p.delta) - max(tau - p.delta, 0.0)


@discontinuities.register
def _(p: PeriodicSquare, x0, x1):
    return _inner_multiples(p.delta, x0, x1)


@segments.register
def _(p: PeriodicSquare, x0, x1, step):
    P = 2.0 * p.delta
    m0, m1 = math.ceil(x0 / P), math.floor(x1 / P)
    if m1 <= m0:
        yield _cells_from_edges(p, [x0, *_inner_multiples(p.delta, x0, x1), x1])
        return
    t0, t1 = m0 * P, m1 * P
    if x0 < t0:
        yield _cells_from_edges(p, [x0, *_inner_multiples(p.delta, x0, t0), t0])
    yield RepeatBlock(np.array([p.delta, p.delta]), np.array([1.0, -1.0]), m1 - m0)
    if t1 < x1:
        yield _cells_from_edges(p, [t1, *_inner_multiples(p.delta, t1, x1), x1])


# ---------------------------------------------------------------------------
# OscillatingExample


@dataclass(frozen=True)
class OscillatingExample:
    """Unit-amplitude square wave whose half-period shrinks like 1/(2n).

    On the integer block [n-1, n) the sign is (-1)**floor(2*n*(x - n + 1)):
    n alternating (+1, -1) cell pairs of width 1/(2n) each, starting at +1.
    The mean over every complete block vanishes while |V| = 1 everywhere.
    """


@evaluate.register
def _(p: OscillatingExample, x):
    n = math.floor(x) + 1
    m = math.floor(2.0 * n * (x - (n - 1)))
    return 1.0 if m % 2 == 0 else -1.0


@_prefix.register
def _(p: OscillatingExample, x, absolute):
    if absolute:
        return x
    n = math.floor(x) + 1
    tau = x - (n - 1)
    w = 1.0 / (2.0 * n)
    m = math.floor(tau / w)
    head = w if m % 2 == 1 else 0.0
    sign = 1.0 if m % 2 == 0 else -1.0
    return head + sign * (tau - m * w)


@discontinuities.register
def _(p: OscillatingExample, x0, x1):
    out = []
    for n in range(math.floor(x0) + 1, math.floor(x1) + 2):
        base, w = n - 1.0, 1.0 / (2.0 * n)
        lo, hi = max(x0, base), min(x1, float(n))
        if hi <= lo:
            continue
        out.extend(base + t for t in _inner_multiples(w, lo - base, hi - base))
        if x0 < float(n) < x1:
            out.append(float(n))
    return sorted(set(out))


@segments.register
def _(p: OscillatingExample, x0, x1, step):
    n0 = math.floor(x0) + 1
    for n in range(n0, math.floor(x1) + 2):
        lo, hi = max(x0, n - 1.0), min(x1, float(n))
        if hi <= lo:
            continue
        w = 1.0 / (2.0 * n)
        if lo == n - 1.0 and hi == float(n):
            yield RepeatBlock(np.array([w, w]), np.array([1.0, -1.0]), n)
        else:
            base = n - 1.0
            inner = [base + t for t in _inner_multiples(w, lo - base, hi - base)]
            yield _cells_from_edges(p, [lo, *inner, hi])


# ---------------------------------------------------------------------------
# SparseBumps


@dataclass(frozen=True)
class SparseBumps:
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
        object.__setattr__(self, "positions", _as_float_tuple(self.positions))
        object.__setattr__(self, "sparse_from", int(self.sparse_from))
        _require(isinstance(self.bump, PiecewiseConstant), "bump must be PiecewiseConstant")
        _require(self.bump.values[-1] == 0.0, "bump must have compact support (last value 0)")
        _require(all(v >= 0 for v in self.bump.values), "bump values must be nonnegative")
        p = self.positions
        _require(len(p) >= 1 and p[0] >= 0, "need at least one nonnegative position")
        support = self.bump.breakpoints[-1]
        _require(all(p[i + 1] - p[i] >= support for i in range(len(p) - 1)),
                 "bumps must not overlap")
        gaps = [p[i + 1] - p[i] for i in range(len(p) - 1)]
        start = max(self.sparse_from, 0)
        _require(all(gaps[i] < gaps[i + 1] for i in range(start, len(gaps) - 1)),
                 "gaps must be strictly increasing beyond sparse_from")

    @property
    def support_width(self):
        return self.bump.breakpoints[-1]


@evaluate.register
def _(p: SparseBumps, x):
    i = bisect_right(p.positions, x) - 1
    if i < 0:
        return 0.0
    t = x - p.positions[i]
    if t >= p.support_width:
        return 0.0
    return evaluate(p.bump, t)


@_prefix.register
def _(p: SparseBumps, x, absolute):
    # bump values are nonnegative, so the absolute flag changes nothing
    i = bisect_right(p.positions, x)
    if i == 0:
        return 0.0
    mass = _prefix(p.bump, p.support_width, False)
    total = (i - 1) * mass
    t = x - p.positions[i - 1]
    if t >= p.support_width:
        total += mass
    else:
        total += _prefix(p.bump, t, False)
    return total


@discontinuities.register
def _(p: SparseBumps, x0, x1):
    rel = [0.0, *p.bump.breakpoints]
    out = []
    for pos in p.positions:
        if pos >= x1:
            break
        out.extend(pos + t for t in rel if x0 < pos + t < x1)
    return out


# ---------------------------------------------------------------------------
# Random


@dataclass(frozen=True)
class Random:
    """Independent uniform values on cells [i*w, (i+1)*w).

    Draws come from numpy's SeedSequence spawned per 1024-cell batch, so the
    value of any cell is reproducible and independent of query order.
    """

    seed: int
    cell_width: float
    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "cell_width", float(self.cell_width))
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        _require(self.seed >= 0, "seed must be nonnegative")
        _require(self.cell_width > 0 and math.isfinite(self.cell_width),
                 "cell_width must be positive")
        _require(self.low <= self.high and math.isfinite(self.low) and math.isfinite(self.high),
                 "need finite low <= high")


_RANDOM_BATCH = 1024


@lru_cache(maxsize=4096)
def _random_batch(spec, batch):
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, batch]))
    return rng.uniform(spec.low, spec.high, _RANDOM_BATCH)


def _random_values(spec, i0, i1):
    """Cell values w_i for i in [i0, i1)."""
    if i1 <= i0:
        return np.empty(0)
    b0, b1 = i0 // _RANDOM_BATCH, (i1 - 1) // _RANDOM_BATCH
    parts = [_random_batch(spec, b) for b in range(b0, b1 + 1)]
    vals = np.concatenate(parts)
    lo = i0 - b0 * _RANDOM_BATCH
    return vals[lo:lo + (i1 - i0)]


@evaluate.register
def _(p: Random, x):
    i = int(math.floor(x / p.cell_width))
    return float(_random_values(p, i, i + 1)[0])


@_prefix.register
def _(p: Random, x, absolute):
    w = p.cell_width
    i = int(math.floor(x / w))
    vals = _random_values(p, 0, i + 1)
    if absolute:
        vals = np.abs(vals)
    return float(np.sum(vals[:i]) * w + vals[i] * (x - i * w))


@discontinuities.register
def _(p: Random, x0, x1):
    return _inner_multiples(p.cell_width, x0, x1)


@segments.register
def _(p: Random, x0, x1, step):
    w = p.cell_width
    i0, i1 = int(math.floor(x0 / w)), int(math.ceil(x1 / w))
    edges = np.clip(np.arange(i0, i1 + 1) * w, x0, x1)
    widths = np.diff(edges)
    keep = widths > 0
    values = _random_values(p, i0, i1)
    yield CellBlock(widths[keep], values[keep])


# ---------------------------------------------------------------------------
# traces

def cesaro_trace(p, x_grid):
    """Running means of V and |V| over [0, x] for each grid point.

    The grid must be strictly increasing and positive.  Values come from the
    closed-form running integrals, so e.g. the oscillating example returns
    exactly zero means at integer grid points.
    """
    xs = np.asarray(x_grid, dtype=float)
    _require(xs.ndim == 1 and len(xs) >= 1, "x_grid must be a 1-d sequence")
    _require(np.all(xs > 0), "grid points must be positive")
    _require(np.all(np.diff(xs) > 0), "grid must be strictly increasing")
    mean = np.array([prefix_integral(p, x) for x in xs]) / xs
    abs_mean = np.array([prefix_abs_integral(p, x) for x in xs]) / xs
    return CesaroTrace(xs, mean, abs_mean)


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
        raise _unknown(p)
    obj = {"variant": _VARIANT_NAMES[type(p)]}
    for f in fields(p):
        value = getattr(p, f.name)
        if is_dataclass(value):
            value = to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        obj[f.name] = value
    return obj


def from_json(obj):
    """Inverse of to_json; raises ValueError on malformed input."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    _require(isinstance(obj, dict) and "variant" in obj, "potential spec needs a 'variant'")
    kind = obj["variant"]
    _require(kind in _VARIANTS, f"unknown potential variant {kind!r}")
    kwargs = {k: v for k, v in obj.items() if k != "variant"}
    if kind == "sparse_bumps":
        bump = from_json(kwargs.pop("bump"))
        _require(isinstance(bump, PiecewiseConstant),
                 "sparse_bumps bump must be piecewise_constant")
        return SparseBumps(bump=bump, **kwargs)
    return _VARIANTS[kind](**kwargs)
