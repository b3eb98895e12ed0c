"""Periods and repeats in closed form: offset fold, band test, power, count.

A period or RepeatBlock pattern P is folded into its offset D = e**-s (P -
I), t = e**-s, never into P: offsets compose as D_b D_a + t_a D_b + t_b D_a,
so tau - 1 = tr D / (2t), tau = tr P / 2, has no cancellation however close
P is to I.  The one band test (_reflect) takes r P, r = +-1 with Re r tau >=
0 (its offset has exact small diagonal entries), and g = t (r tau - 1) < 0
in a band.  As det P = 1, Cayley-Hamilton gives P**n = U_{n-1}(tau) (P - I)
+ W_{n-1}(tau) I, with U the Chebyshev polynomials of the second kind and
W_{n-1} = U_{n-1} - U_{n-2} those of the fourth.  With tau = cosh(eta), eta
= 2 asinh(sqrt((tau - 1)/2)), they are sinh(n eta)/sinh(eta) and cosh((n -
1/2) eta)/cosh(eta/2): in a band (eta = i alpha) their sin and cos forms, in
a gap expm1 forms over e**((n-1) eta), which joins the log scale.  Each
branch is evaluated only on its own columns, in real arithmetic at a real
energy.

The zero count is Floquet's (Eastham 1973): if the mantissa sigma P / |P|,
first column in the upper half plane, has count k_P and half trace tau^ =
sigma tau, then P**n has n k_P + floor(n arccos(tau^) / pi) zeros in a band
(|tau^| < 1) and n k_P + (n - 1) [tau^ < 0] in a gap or on its edge.  An
offset batch holds D's four entries, s and t along axis 0, then sigma and
k at real energies, so no cell is reduced twice.
"""
from __future__ import annotations

import numpy as np


def _negative(u, du):
    """Where the angle atan2(u, du) of a column (du, u) is outside [0, pi)."""
    return ~((u > 0.0) | ((u == 0.0) & (du > 0.0)))


def _turn(theta):
    """cos(theta) - 1 and sin(theta), from T = tan(theta/2) as -T sin(theta) and
    2T / (1 + T**2): on x86-64 with AVX-512, numpy 2.4's float64 tan is about
    3x faster than its sin or cos, and its complex exp and expm1 are slower."""
    T = np.tan(0.5 * theta)
    sn = 2.0 * T / (1.0 + T * T)
    return -T * sn, sn


def _expm1(x):
    """expm1 of a complex array, e**Re x (cos + i sin)(Im x) - 1."""
    E = np.expm1(x.real)
    c, sn = _turn(x.imag)
    return (E + c + E * c) + 1j * ((1.0 + E) * sn)


def _fold(b, a):
    """Offsets of applying a, then b."""
    e = np.empty_like(a)
    D = e[:4].reshape(2, 2, *e.shape[1:])
    np.multiply(b[0:4:2, None], a[None, 0:2], out=D)
    D += b[1:4:2, None] * a[None, 2:4]
    e[:4] += a[5] * b[:4] + b[5] * a[:4]
    np.multiply(a[5], b[5], out=e[5])
    scale = np.maximum(np.abs(e[:4]).max(axis=0), e[5].real)
    e[:4] /= scale
    e[5] /= scale
    np.add(a[4] + b[4], np.log(scale), out=e[4])
    if e.dtype.kind != "c":
        # the mantissas' signs and counts, as _compose takes them
        sign = a[6] * b[6]
        neg = _negative(sign * e[2], sign * (e[0] + e[5]))
        np.multiply(sign, np.where(neg, -1.0, 1.0), out=e[6])
        np.add(a[7] + b[7], neg, out=e[7])
    return e


def _reflect(e, out=None):
    """The band test of offsets e of P: r, D' = r D + (r - 1) t I (r P's offset,
    into out) and g.  D''s entries err by about an ulp of max(|D'|, t), so the
    error of -det D' / (2 t), g where det P = 1, is |D'| / t times the half
    trace's; it is taken where |D'| < t (never where t underflows to 0)."""
    t = e[5].real
    r = np.where((e[0] + e[3]).real < -2.0 * t, -1.0, 1.0)
    D = np.multiply(r, e[:4], out=out)
    D[0::3] += (r - 1.0) * t
    g = 0.5 * (D[0] + D[3])
    np.divide(D[1] * D[2] - D[0] * D[3], 2.0 * t, out=g, where=np.abs(D).max(axis=0) < t)
    return r, D, g


def _hyperbolic(g, t, s, n):
    """U_{n-1} and W_{n-1} at tau = 1 + g/t = cosh(eta), Re eta >= 0, each over
    e**((n-1) Re eta), and (n-1) Re eta."""
    big = np.abs(g) > 1e9 * t
    y = np.sqrt(np.divide(0.5 * g, t, out=np.zeros_like(g), where=~big))
    if g.dtype.kind == "c":
        eta = 2.0 * np.arcsinh(y)
    else:   # asinh(y) by log1p: the float64 arcsinh pages in 64 KB more code
        eta = 2.0 * np.log1p(y + y * y / (1.0 + np.sqrt(1.0 + y * y)))
    # log(2 tau) is eta to double precision once |tau| > 1e9
    np.add(s, np.log(2.0 * (g + t), out=None, where=big), out=eta, where=big)
    expm1 = np.expm1 if g.dtype.kind != "c" else _expm1
    f, f1 = expm1(-(2.0 * n - 1.0) * eta), expm1(-eta)
    f2 = f1 * (2.0 + f1)
    # expm1(-2 n eta) / expm1(-2 eta), and its limit n at eta = 0
    U = np.divide(f * (1.0 + f1) + f1, f2, out=n.astype(g.dtype), where=f2 != 0.0)
    W = (2.0 + f) / (2.0 + f1)
    if g.dtype.kind == "c":
        c, sn = _turn((n - 1.0) * eta.imag)
        phase = (1.0 + c) + 1j * sn
        U, W = U * phase, W * phase
    return U, W, (n - 1.0) * eta.real


def _power(e, n):
    """Elements of P**n, five rows (m, then k at a real energy, s at a complex
    one), from the offsets e of the patterns P and counts n >= 1 (broadcast)."""
    real = e.dtype.kind != "c"
    s, t, n = e[4].real, e[5].real, np.broadcast_to(n, e[4].shape)
    out = np.empty((5,) + t.shape, e.dtype)
    r, D, g = _reflect(e, out[:4])
    if real:
        band = g < 0.0
        U, W = np.empty_like(g), np.empty_like(g)
        gap = ~band
        if gap.any():
            U[gap], W[gap] = _hyperbolic(g[gap], t[gap], s[gap], n[gap])[:2]
        gb, nb = g[band] / t[band], n[band]
        sh, ch = np.sqrt(-0.5 * gb), np.sqrt(1.0 + 0.5 * gb)
        # alpha/2 = arcsin(sh), from arccos to an absolute ulp and one Newton
        # step on tan to a relative one (arctan2 would page in more code)
        half = 0.5 * np.pi - np.arccos(sh)
        T = np.tan(half)
        alpha = 2.0 * (half - (T * ch - sh) / (ch * (1.0 + T * T)))
        # sine and cosine of (n - 1/2) alpha from the tangent of its half
        T = np.tan((0.5 * nb - 0.25) * alpha)
        cn = 1.0 / (1.0 + T * T)
        sn, cn = 2.0 * T * cn, (1.0 - T * T) * cn
        U[band] = (sn * ch + cn * sh) / (2.0 * sh * ch)
        W[band] = cn / ch
        # the Floquet count: where sigma != r, arccos(tau^) = pi - alpha
        flip = r != e[6]
        extra = np.where(flip, n - 1.0, 0.0)
        turns = nb * alpha / np.pi
        extra[band] = np.where(flip[band], nb - np.ceil(turns), np.floor(turns))
    else:
        U, W, grow = _hyperbolic(g, t, s, n)
        sign = np.where(r < 0.0, (-1.0) ** n, 1.0)   # P**n = r**n (r P)**n
        U, W = U * sign, W * sign
    # P**n = U_{n-1} (P - I) + W_{n-1} I, in D's place
    D *= U
    D[0::3] += W * t
    scale = np.abs(D).max(axis=0)
    if real:
        scale[_negative(D[2], D[0])] *= -1.0
        np.add(n * e[7], extra, out=out[4])
    else:
        out[4] = s + grow + np.log(scale)
    D /= scale
    return out
