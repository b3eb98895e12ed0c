"""One level per round: the 32-way sectioning `spectrum._section` looks ahead of.

A frozen copy of the root finder as it was before it read several levels
per call of f, kept as the oracle its roots must equal bit for bit.  Each
round calls f once with the 31 inner points out + (inn - out) j / 32 of
every live pair and keeps the sub-bracket at the first one with f <= 0.
"""
import numpy as np

SECTIONS = 32


def one_level_section(f, out, inn, fends=None):
    """Roots of f bracketed by f(out) > 0 >= f(inn), as `spectrum._section`
    computes them, one level per round; fends (the look-ahead's end values)
    is accepted and ignored, so it can stand in for `_section`."""
    out, inn = np.array(out, dtype=float), np.array(inn, dtype=float)
    tol = 4e-16 * np.maximum(np.abs(out), np.abs(inn))
    frac = np.arange(1, SECTIONS) / SECTIONS
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
