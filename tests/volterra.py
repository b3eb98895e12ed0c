"""The Volterra-series route to the Dirichlet solution, a test oracle.

It builds the iterated-kernel partial sum on a composite quadrature grid
aligned with the potential's discontinuities.  It shares no code with the
transfer-matrix route of `schreg.propagation`, which is the point: the two
must agree to high accuracy wherever both are defined.  It reads V through
the test-side pointwise description (`pointwise`), not through the cells
of `schreg.potentials`.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

import pointwise
from schreg.errors import QuadratureFailure, SchregError


class HorizonExceeded(SchregError):
    """Volterra series requested beyond its configured horizon."""


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


def _volterra_grid(p, x, h_target):
    """Piecewise-uniform grid on [0, x] aligned with V's discontinuities.

    Returns (nodes, cells) where cells are (i0, i1, h, vals): node index
    span, panel width, and the potential values to use at the cell's own
    nodes (right-continuous inside the cell, so the shared boundary node
    carries a different value for the two cells it belongs to).
    """
    breaks = [b for b in pointwise.discontinuities(p, 0.0, x)]
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
        vals = np.array([pointwise.evaluate(p, t) for t in pts])
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
