"""Band structure of periodic potentials through the one-period discriminant.

For a potential of period P the discriminant is the trace of the transfer
matrix over one period.  Energies with |discriminant| <= 2 form the bands;
the lowest point of the spectrum is the smallest root of discriminant = 2.
A scan evaluates the discriminant at all of its samples in one transfer
pass (the energies are batched).  Every sample pair that straddles a band
edge gives a bracket with an out-of-band and an in-band end, and all
brackets are bisected together, one batched pass per halving.  A scan is
rejected as too coarse when the discriminant provably crossed the band
strip between two consecutive out-of-band samples (its sign flipped there,
so a band was skipped).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import propagation
from .errors import NotBracketed, ResolutionTooCoarse
from .martin import GapSet

__all__ = [
    "BandSpectrum",
    "discriminant",
    "lowest_periodic_eigenvalue",
    "band_spectrum",
    "to_gap_set",
]


@dataclass(frozen=True, eq=False)
class BandSpectrum:
    """Bands of a periodic operator inside a scan window.

    `bands` are closed intervals (clipped to the window); `lam` and `delta`
    keep the scan samples that produced them.
    """

    period: float
    bands: tuple
    lam: np.ndarray
    delta: np.ndarray


def discriminant(p, period, lam, step=1e-3):
    """Trace of the transfer matrix over [0, period] at real energies lam:
    a float for a scalar lam, else an array of lam's shape."""
    if not period > 0:
        raise ValueError("period must be positive")
    t = propagation.transfer_matrix(p, period, np.asarray(lam, dtype=float), step)
    d = np.exp(t.log_scale) * (t.m[0, 0] + t.m[1, 1]).real
    return float(d) if np.ndim(lam) == 0 else d


def _bisect(f, out, inn, tol):
    """Roots of f bracketed by pairs of ends, f(out) > 0 >= f(inn), each
    pair in either order.  All pairs are bisected together, each until its
    ends are within the absolute tolerance tol."""
    for _ in range(200):
        live = np.abs(inn - out) > tol
        if not live.any():
            break
        mid = 0.5 * (out + inn)
        pos = live & (f(mid) > 0.0)
        out, inn = np.where(pos, mid, out), np.where(live & ~pos, mid, inn)
    return 0.5 * (out + inn)


def lowest_periodic_eigenvalue(p, period, window, step=1e-3, tol=1e-10, samples=512):
    """Smallest root of discriminant(lam) = 2 in the window.

    Scans `samples` energies, brackets the first downward crossing of the
    level 2, and bisects.  Raises NotBracketed when the scan never sees
    the discriminant drop to 2 (window too small or too coarse).
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be an increasing pair")
    lams = np.linspace(lo, hi, int(samples))
    f = lambda lam: discriminant(p, period, lam, step) - 2.0
    vals = f(lams)
    if vals[0] == 0.0:
        return float(lams[0])
    if vals[0] < 0.0:
        raise NotBracketed("window must start below the bottom of the spectrum")
    (hits,) = np.nonzero(vals <= 0.0)
    if not hits.size:
        raise NotBracketed(
            f"discriminant never reached 2 on [{lo}, {hi}] with {samples} samples")
    return float(_bisect(f, lams[hits[0] - 1], lams[hits[0]], tol))


def band_spectrum(p, period, lambda_window, resolution, step=1e-3, edge_tol=1e-10):
    """Bands inside the window from a `resolution`-point discriminant scan.

    Edges between an out-of-band and an in-band sample are refined by
    bisection on |discriminant| = 2.  If two adjacent samples are both out
    of band with opposite discriminant signs, a whole band was skipped and
    ResolutionTooCoarse is raised.
    """
    lo, hi = float(lambda_window[0]), float(lambda_window[1])
    if not (lo < hi and int(resolution) >= 2):
        raise ValueError("need an increasing window and resolution >= 2")
    lams = np.linspace(lo, hi, int(resolution))
    deltas = discriminant(p, period, lams, step)
    inside = np.abs(deltas) <= 2.0
    skipped = ~inside[:-1] & ~inside[1:] & (deltas[:-1] * deltas[1:] < 0)
    if skipped.any():
        i = int(np.argmax(skipped))
        raise ResolutionTooCoarse(
            f"band skipped between lambda={lams[i]:g} and {lams[i + 1]:g}")
    # each change of `inside` brackets one edge: an out-of-band end, where
    # sign * discriminant > 2, and an in-band end
    (change,) = np.nonzero(inside[:-1] != inside[1:])
    out = np.where(inside[change], change + 1, change)
    inn = np.where(inside[change], change, change + 1)
    sign = np.where(deltas[out] > 2.0, 1.0, -1.0)
    ends = _bisect(lambda lam: sign * discriminant(p, period, lam, step) - 2.0,
                   lams[out], lams[inn], edge_tol).tolist()
    if inside[0]:
        ends.insert(0, lams[0])
    if inside[-1]:
        ends.append(lams[-1])
    bands = tuple((float(a), float(b)) for a, b in zip(ends[::2], ends[1::2]))
    return BandSpectrum(period=float(period), bands=bands, lam=lams, delta=deltas)


def to_gap_set(bs):
    """Finite-gap set: first band start as the bottom, gaps between bands.

    The scan window's top is dropped; the last band is treated as running
    to infinity, which is the right reading for a window truncating a
    periodic spectrum.
    """
    if not bs.bands:
        raise ValueError("band spectrum has no bands")
    gaps = tuple((bs.bands[i][1], bs.bands[i + 1][0])
                 for i in range(len(bs.bands) - 1))
    return GapSet(b0=bs.bands[0][0], gaps=gaps)
