"""Band structure of periodic potentials through exact band levels.

For a potential of period T the discriminant Delta is the trace of the
transfer matrix P over [0, T]; the bands are where |Delta| <= 2.  One offset
fold of the period's cells (see floquet) gives Delta = e**s (tr D + 2t),
floquet's band test (r = sign Delta, g < 0 in a band), the period's
Dirichlet zero count k and the sign sigma that puts P's first column in the
upper half plane.  A closed gap holds one Dirichlet eigenvalue of the period
(Magnus & Winkler 1966; Eastham 1973), so band n (from 1) has k = n - 1 and
the level 2n - 1, and gap j (gap 0 lies below the spectrum) has k = j - 1
or j, sign Delta = (-1)**j, so j = k + [sigma != r], and the level 2j.  The
level never decreases with the energy, so each boundary between levels,
however narrow its gap or band, is bracketed by the scan samples where the
level passes it.  `spectrum._section` cuts all brackets into 32 together,
several levels per batched scan (the sign of level less boundary, times
|g|, lets its guesses predict the levels ahead), until each is within 4e-16
times the larger of its |ends| and min(1, its larger starting |end|), or
no float splits it.  Touching bands (a closed gap) merge.  A period of m
copies of one pattern P has P's bands, the gaps inside them closed: the
scan folds P alone and takes P's level, with Delta = 2 T_m(Delta_P / 2),
T_m the Chebyshev polynomial of the first kind.
"""
from __future__ import annotations

import numpy as np

from . import potentials, propagation
from .floquet import _reflect
from .record import Record
from .spectrum import GapSet, _section

__all__ = [
    "BandSpectrum",
    "discriminant",
    "band_spectrum",
    "to_gap_set",
]


class BandSpectrum(Record, eq=False):
    """Bands of a periodic operator inside a scan window.

    `bands` are closed intervals (clipped to the window); `lam`, `delta`
    and `level` (integer-valued float64, the pattern's for m copies of one)
    keep the scan samples that produced them.  `level[0]` is 0 exactly when
    the window starts below the spectrum.
    """

    period: float
    bands: tuple
    lam: np.ndarray
    delta: np.ndarray
    level: np.ndarray


def _scan(p, period, lam, step):
    """Discriminant, band level and floquet's band test g at the real
    energies lam (a 1-d array), from one offset fold of the period's cells,
    or of its pattern if it is m copies."""
    if not 0 < period < np.inf:
        raise ValueError("period must be positive and finite")
    propagation._check_step(step)
    blocks, e, m = list(potentials.segments(p, 0.0, float(period), step)), None, 1
    for b in blocks:
        w, v = b.widths, b.values
        if isinstance(b, potentials.RepeatBlock) and len(blocks) == len(b.counts) == 1:
            w, v, m = w[:, 0], v[:, 0], b.counts[0]
        elif isinstance(b, potentials.RepeatBlock):   # each copy spelled out
            w, v = (np.repeat(a, b.counts.astype(int), axis=1).ravel("F") for a in (w, v))
        e = propagation._offsets(w, v, lam, e)
    r, _, g = _reflect(e)
    level = np.where(g < 0.0, 2 * e[7] + 1, 2 * (e[7] + (e[6] != r)))
    with np.errstate(over="ignore"):   # Delta overflows deep in a gap, as e**s does
        delta = np.exp(e[4]) * (e[0] + e[3] + 2.0 * e[5])
        if m > 1:   # 2 T_m(Delta / 2)
            delta = 2.0 * np.cos(m * np.arccos(0.5 * delta + 0j)).real
    return delta, level, g


def discriminant(p, period, lam, step=1e-3):
    """Trace of the transfer matrix over [0, period] at real energies lam:
    a float for a scalar lam, else an array of lam's shape."""
    lam = np.asarray(lam, dtype=float)
    delta = _scan(p, period, lam.reshape(-1), step)[0]
    return float(delta[0]) if lam.ndim == 0 else delta.reshape(lam.shape)


def band_spectrum(p, period, lambda_window, resolution=512, step=1e-3):
    """Bands inside the window from a `resolution`-point level scan.

    Each boundary between the first and last sample's levels is sectioned
    from the two samples where the level passes it, to 4e-16 times its own
    larger |lam| (see `spectrum._section` for the floor) or until no float
    splits the bracket.  An odd boundary is a band's top, an even one the
    next band's bottom.
    """
    lo, hi = float(lambda_window[0]), float(lambda_window[1])
    if not (lo < hi and int(resolution) >= 2):
        raise ValueError("need an increasing window and resolution >= 2")
    if not np.isfinite([lo, hi]).all():
        raise ValueError("lambda_window must be finite")
    lams = np.linspace(lo, hi, int(resolution))
    deltas, level, g = _scan(p, period, lams, step)
    bound = np.arange(level[0], level[-1])
    i = np.searchsorted(level, bound, "right") - 1

    def side(level, g, k):   # the level's side of boundary k + 1/2, times |g| (never 0)
        size = np.where(np.abs(g) > 1e-300, np.abs(g), 1e-300)
        return np.where(level > bound[k], size, -size)

    def above(lam, k):   # side at lam, from one walk
        _, lv, gs = _scan(p, period, lam.ravel(), step)
        return side(lv.reshape(lam.shape), gs.reshape(lam.shape), k[:, None])

    k = np.arange(i.size)
    ends = _section(above, lams[i + 1], lams[i],
                    [side(level[j], g[j], k) for j in (i + 1, i)]).tolist()
    if level[0] % 2:
        ends.insert(0, lams[0])
    if level[-1] % 2:
        ends.append(lams[-1])
    bands = []
    for a, b in zip(ends[::2], ends[1::2]):
        if bands and a <= bands[-1][1]:   # a closed gap: the bands touch
            a = bands.pop()[0]
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
    gaps = tuple((lo[1], hi[0]) for lo, hi in zip(bs.bands, bs.bands[1:]))
    return GapSet(b0=bs.bands[0][0], gaps=gaps)
