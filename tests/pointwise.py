"""Pointwise description of the potential families, a test oracle.

`schreg.potentials` describes a potential only through its cells and its
closed-form running integral.  This module describes the same families a
second way -- the value V(x) at a point and the jumps of V in a window --
from the record fields alone, sharing no code with `schreg.potentials`
beyond the record classes.  The Volterra route and the quadrature references
read V from here, and the cross-check in `test_potentials` compares the
two descriptions cell by cell.
"""
import math
from bisect import bisect_right
from functools import singledispatch

from schreg.potentials import (Constant, Decaying, OscillatingExample, PeriodicSquare,
                               PiecewiseConstant, Random, SparseBumps, Tabulated)


def _unknown(p):
    return TypeError(f"unknown potential type {type(p).__name__}")


@singledispatch
def evaluate(p, x):
    """Value of the potential at x >= 0 (right-continuous)."""
    raise _unknown(p)


@singledispatch
def discontinuities(p, x0, x1):
    """Jump locations of V strictly inside (x0, x1), in increasing order."""
    raise _unknown(p)


def abs_integral(p, x):
    """Integral of |V| over [0, x]: a sum over the pieces between jumps,
    and for Decaying, the one smooth family, its closed form."""
    if isinstance(p, Decaying):
        return abs(p.amplitude) * _phi(x, p.rate)
    edges = [0.0, *discontinuities(p, 0.0, x), x]
    return math.fsum(abs(evaluate(p, a)) * (b - a) for a, b in zip(edges, edges[1:]))


def _phi(x, q):
    """integral_0^x (1+t)**-q dt."""
    c = 1.0 - q
    return math.log1p(x) if c == 0.0 else math.expm1(c * math.log1p(x)) / c


def _phi_inv(y, q):
    c = 1.0 - q
    return math.expm1(y) if c == 0.0 else math.expm1(math.log1p(c * y) / c)


def mesh_edges(p, step, x0, x1):
    """Decaying's cell edges phi^-1(step*i; q), q = min((rate+1)/3, 1), i = 0,
    1, ...: those of the cells that meet [x0, x1], from the last edge <= x0
    to the first edge >= x1."""
    q = min((p.rate + 1.0) / 3.0, 1.0)
    i = max(math.floor(_phi(x0, q) / step) - 1, 0)
    while _phi_inv(step * (i + 1), q) <= x0:
        i += 1
    edges = [_phi_inv(step * i, q)]
    while edges[-1] < x1:
        i += 1
        edges.append(_phi_inv(step * i, q))
    return edges


def _inner_multiples(step_width, a, b):
    """Multiples of step_width strictly inside (a, b)."""
    j0 = math.floor(a / step_width) + 1
    j1 = math.ceil(b / step_width) - 1
    return [t for t in (j * step_width for j in range(j0, j1 + 1)) if a < t < b]


@evaluate.register
def _(p: Constant, x):
    return p.value


@discontinuities.register
def _(p: Constant, x0, x1):
    return []


@evaluate.register(PiecewiseConstant)
@evaluate.register(Tabulated)
def _(p, x):
    return p.values[bisect_right(p.breakpoints, x)]


@discontinuities.register(PiecewiseConstant)
@discontinuities.register(Tabulated)
def _(p, x0, x1):
    return [b for b in p.breakpoints if x0 < b < x1]


@evaluate.register
def _(p: Decaying, x):
    return p.amplitude / (1.0 + x) ** p.rate


@discontinuities.register
def _(p: Decaying, x0, x1):
    return []


@evaluate.register
def _(p: PeriodicSquare, x):
    tau = math.fmod(x, 2.0 * p.delta)
    return 1.0 if tau < p.delta else -1.0


@discontinuities.register
def _(p: PeriodicSquare, x0, x1):
    return _inner_multiples(p.delta, x0, x1)


@evaluate.register
def _(p: OscillatingExample, x):
    n = math.floor(x) + 1
    m = math.floor(2.0 * n * (x - (n - 1)))
    return 1.0 if m % 2 == 0 else -1.0


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
    return sorted(t for t in set(out) if x0 < t < x1)   # base + t may round onto x0


@evaluate.register
def _(p: SparseBumps, x):
    i = bisect_right(p.positions, x) - 1
    if i < 0:
        return 0.0
    t = x - p.positions[i]
    if t >= p.support_width:
        return 0.0
    return evaluate(p.bump, t)


@discontinuities.register
def _(p: SparseBumps, x0, x1):
    rel = [0.0, *p.bump.breakpoints]
    out = []
    for pos in p.positions:
        if pos >= x1:
            break
        out.extend(pos + t for t in rel if x0 < pos + t < x1)
    return out


# Random's draws, re-derived from the scheme its docstring states: a
# sequential SplitMix64 in Python ints, one output per cell.
_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed, n):
    """The first n outputs of SplitMix64 seeded with seed, in order."""
    out, state = [], seed
    for _ in range(n):
        state = (state + _GAMMA) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def random_values(p, n):
    """Values of Random p on cells 0 .. n-1, from the sequential generator."""
    return [p.low + (p.high - p.low) * ((z >> 11) * 2.0**-53) for z in splitmix64(p.seed, n)]


@evaluate.register
def _(p: Random, x):
    return random_values(p, int(math.floor(x / p.cell_width)) + 1)[-1]


@discontinuities.register
def _(p: Random, x0, x1):
    return _inner_multiples(p.cell_width, x0, x1)
