"""Band structure of periodic potentials through exact band levels.

For a potential of period P the discriminant Delta is the trace of the
transfer matrix over one period; energies with |Delta| <= 2 form the bands.
One walk of the propagation kernel over one period gives both Delta and the
exact Dirichlet zero count k of the period at every real energy: the
kernel's real-energy mantissa is (-1)**k times the transfer matrix.

One Dirichlet eigenvalue of the period lies in each closed gap (Magnus &
Winkler, Hill's Equation, 1966; Eastham, 1973), so k is a band index.  An
energy in band n (counted from 1) has k = n - 1 and gets the level 2n - 1;
an energy in gap j (gap 0 lies below the spectrum) has k = j - 1 or j and
sign Delta = (-1)**j, and gets the level 2j.  The level is an integer that
never decreases with the energy, so a scan sees every band edge in its
window, however narrow the gap or band: each boundary between consecutive
levels is bracketed by the samples where the level passes it, and all
brackets are cut into 32 together, by one batched walk per round at 31
energies in each.  A closed gap shows up as two band ends that touch, and
its bands are merged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import propagation
from .martin import GapSet, _section

__all__ = [
    "BandSpectrum",
    "discriminant",
    "band_spectrum",
    "to_gap_set",
]


@dataclass(frozen=True, eq=False)
class BandSpectrum:
    """Bands of a periodic operator inside a scan window.

    `bands` are closed intervals (clipped to the window); `lam`, `delta`
    and `level` keep the scan samples that produced them.  `level[0]` is 0
    exactly when the window starts below the spectrum.
    """

    period: float
    bands: tuple
    lam: np.ndarray
    delta: np.ndarray
    level: np.ndarray


def _scan(p, period, lam, step):
    """Discriminant and band level at the real energies lam (a 1-d array),
    from one walk of the kernel over one period."""
    if not period > 0:
        raise ValueError("period must be positive")
    propagation._check_step(step)
    el = propagation._walk(p, 0.0, float(period), lam, step)
    trace = el.m[0, 0] + el.m[1, 1]
    delta = np.where(el.k % 2 == 1, -1.0, 1.0) * np.exp(el.s) * trace
    # in gap j, sign Delta = (-1)**j: j = k + 1 exactly when the trace of
    # the mantissa, (-1)**k Delta at unit scale, is negative
    gap = 2 * (el.k + (trace < 0.0))
    return delta, np.where(np.abs(delta) <= 2.0, 2 * el.k + 1, gap)


def discriminant(p, period, lam, step=1e-3):
    """Trace of the transfer matrix over [0, period] at real energies lam:
    a float for a scalar lam, else an array of lam's shape."""
    lam = np.asarray(lam, dtype=float)
    delta = _scan(p, period, lam.reshape(-1), step)[0]
    return float(delta[0]) if lam.ndim == 0 else delta.reshape(lam.shape)


def band_spectrum(p, period, lambda_window, resolution, step=1e-3, edge_tol=1e-10):
    """Bands inside the window from a `resolution`-point level scan.

    Every boundary between the first and the last sample's levels is
    sectioned to within edge_tol between the two samples where the level
    passes it.  An odd boundary is the top of a band, an even one the
    bottom of the next.
    """
    lo, hi = float(lambda_window[0]), float(lambda_window[1])
    if not (lo < hi and int(resolution) >= 2):
        raise ValueError("need an increasing window and resolution >= 2")
    lams = np.linspace(lo, hi, int(resolution))
    deltas, level = _scan(p, period, lams, step)
    bound = np.arange(level[0], level[-1])
    i = np.searchsorted(level, bound, "right") - 1

    def above(lam, k):   # level less boundary k + 1/2, from one walk
        return (_scan(p, period, lam.ravel(), step)[1].reshape(lam.shape)
                - bound[k, None] - 0.5)

    ends = _section(above, lams[i + 1], lams[i], edge_tol).tolist()
    if level[0] % 2:
        ends.insert(0, lams[0])
    if level[-1] % 2:
        ends.append(lams[-1])
    bands = []
    for a, b in zip(ends[::2], ends[1::2]):
        if bands and a <= bands[-1][1]:   # a closed gap: the bands touch
            bands[-1] = (bands[-1][0], float(b))
        else:
            bands.append((float(a), float(b)))
    return BandSpectrum(period=float(period), bands=tuple(bands), lam=lams,
                        delta=deltas, level=level)


def to_gap_set(bs):
    """Finite-gap set: first band start as the bottom, gaps between bands.

    The scan must start below the spectrum (level 0), else its first band
    start is only the window's start and the bottom is unknown.  The scan
    window's top is dropped; the last band is treated as running to
    infinity, which is the right reading for a window truncating a
    periodic spectrum.
    """
    if bs.level[0] != 0:
        raise ValueError("scan starts inside the spectrum; its bottom is unknown")
    if not bs.bands:
        raise ValueError("band spectrum has no bands")
    gaps = tuple((bs.bands[i][1], bs.bands[i + 1][0])
                 for i in range(len(bs.bands) - 1))
    return GapSet(b0=bs.bands[0][0], gaps=gaps)
