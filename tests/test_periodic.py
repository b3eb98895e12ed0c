"""Discriminant, band spectra, and the small-delta square-wave asymptotics."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schreg import martin, periodic as PE, potentials as P
from test_martin import square_wave_gap_set

FREE = P.Constant(0.0)


# ---------------------------------------------------------------------------
# discriminant


def test_free_discriminant_closed_form():
    for lam in (0.5, 2.0, 9.0, 30.0):
        got = PE.discriminant(FREE, 1.0, lam)
        assert got == pytest.approx(2.0 * math.cos(math.sqrt(lam)), abs=1e-12)


def test_square_wave_discriminant_at_zero():
    for delta in (0.5, 0.1, 0.01):
        got = PE.discriminant(P.PeriodicSquare(delta), 2 * delta, 0.0)
        want = 2.0 * math.cosh(delta) * math.cos(delta)
        assert abs(got - want) <= 1e-10


def test_square_wave_small_delta_ratio_bounded():
    # Delta_d(lam) = 2 - 4 lam d^2 + O(d^3): third-order remainder ratios
    # stay under a common constant as d shrinks
    ratios = []
    for d in (0.1, 0.05, 0.025):
        for lam in (-1.0, -0.5, -0.1):
            val = PE.discriminant(P.PeriodicSquare(d), 2 * d, lam)
            ratios.append(abs(val - 2.0 + 4.0 * lam * d * d) / d ** 3)
    assert max(ratios) <= 0.5


def test_discriminant_batch_matches_scalar_calls():
    p = P.PeriodicSquare(1.3)
    lams = np.linspace(-2.0, 60.0, 97)
    batch = PE.discriminant(p, 2.6, lams.reshape(97, 1))
    assert batch.shape == (97, 1)
    for lam, got in zip(lams, batch[:, 0]):
        one = PE.discriminant(p, 2.6, lam)
        assert type(one) is float
        assert abs(got - one) <= 1e-15 * max(1.0, abs(one))


# ---------------------------------------------------------------------------
# lowest periodic eigenvalue: the first band edge of a scan from below


def lowest_eigenvalue(p, period, window):
    return PE.band_spectrum(p, period, window, 512).bands[0][0]


def test_lowest_eigenvalue_free():
    lam = lowest_eigenvalue(FREE, 1.0, (-1.0, 1.0))
    assert abs(lam) <= 1e-9


def test_lowest_eigenvalue_constant_shift():
    lam = lowest_eigenvalue(P.Constant(2.0), 1.0, (1.0, 3.0))
    assert lam == pytest.approx(2.0, abs=1e-9)


def test_lowest_eigenvalue_square_wave_tends_to_zero():
    # lambda_delta ~ -delta^2/12 for the +-1 square wave
    prev = 1.0
    for d in (0.4, 0.2, 0.1):
        lam = lowest_eigenvalue(P.PeriodicSquare(d), 2 * d, (-1.0, 1.0))
        assert abs(lam) < prev
        assert lam == pytest.approx(-d * d / 12.0, abs=d ** 3)
        prev = abs(lam)


def test_lowest_eigenvalue_not_bracketed():
    # a window starting inside the spectrum has no bottom to report; the
    # free spectrum's closed gap at pi^2 merges its two bands into one
    bs = PE.band_spectrum(FREE, 1.0, (1.0, 10.0), 64)
    assert bs.level[0] != 0
    assert bs.bands == ((1.0, 10.0),)
    with pytest.raises(ValueError, match="inside the spectrum"):
        PE.to_gap_set(bs)


# ---------------------------------------------------------------------------
# band spectrum


def test_free_band_spectrum_is_single_band():
    bs = PE.band_spectrum(FREE, 1.0, (-1.0, 40.0), 512)
    assert len(bs.bands) == 1
    a, b = bs.bands[0]
    assert a == pytest.approx(0.0, abs=1e-8)
    assert b == 40.0


def test_band_edges_lie_on_discriminant_level_set():
    bs = PE.band_spectrum(P.PeriodicSquare(0.5), 1.0, (-2.0, 40.0), 1024)
    for a, b in bs.bands:
        for edge in (a, b):
            if edge in (-2.0, 40.0):   # window ends are not true edges
                continue
            assert abs(abs(PE.discriminant(P.PeriodicSquare(0.5), 1.0, edge))
                       - 2.0) <= 1e-8


def test_band_spectrum_gap_near_pi_squared():
    bs = PE.band_spectrum(P.PeriodicSquare(0.5), 1.0, (-2.0, 40.0), 1024)
    E = PE.to_gap_set(bs)
    assert len(E.gaps) == 2
    a, b = E.gaps[0]
    assert a == pytest.approx(9.227582846, abs=1e-5)
    assert b == pytest.approx(10.500689691, abs=1e-5)
    # the second gap, near (2 pi)^2, is narrower than the sample spacing
    a, b = E.gaps[1]
    assert a == pytest.approx(39.472085, abs=1e-5)
    assert b == pytest.approx(39.497405, abs=1e-5)


def test_to_gap_set_complement_consistency():
    bs = PE.band_spectrum(P.PeriodicSquare(0.5), 1.0, (-2.0, 40.0), 1024)
    E = PE.to_gap_set(bs)
    assert E.b0 == bs.bands[0][0]
    # complement of the bands inside the window equals the reported gaps
    gaps = [(bs.bands[i][1], bs.bands[i + 1][0])
            for i in range(len(bs.bands) - 1)]
    assert tuple(E.gaps) == tuple(gaps)
    assert isinstance(E, martin.GapSet)


def test_bands_disjoint_and_ordered():
    deep = P.PiecewiseConstant(values=(-10.0, 10.0), breakpoints=(0.5,))
    bs = PE.band_spectrum(deep, 1.0, (-12.0, 60.0), 2048)
    flat = [e for band in bs.bands for e in band]
    assert flat == sorted(flat)
    assert all(a < b for a, b in bs.bands)


def test_coarse_scan_finds_narrow_band():
    # the band is 0.27 wide; 8 samples are 4.6 apart and none lies in it
    deep = P.PiecewiseConstant(values=(-60.0, 60.0), breakpoints=(0.5,))
    for resolution in (8, 16, 32):
        bs = PE.band_spectrum(deep, 1.0, (-62.0, -30.0), resolution)
        assert len(bs.bands) == 1
        assert bs.bands[0][0] == pytest.approx(-39.30378484, abs=1e-6)
        assert bs.bands[0][1] == pytest.approx(-39.03225850, abs=1e-6)


def scalar_band_edges(p, period, window, resolution, edge_tol):
    """Reference scan: the discriminant at every sample, then each edge
    bisected on its own, one scalar call per halving, between its
    out-of-band and in-band samples."""
    lams = np.linspace(window[0], window[1], resolution)
    d = PE.discriminant(p, period, lams)
    edges = []
    for i in range(resolution - 1):
        if (abs(d[i]) <= 2.0) == (abs(d[i + 1]) <= 2.0):
            continue
        out, inn = (i, i + 1) if abs(d[i]) > 2.0 else (i + 1, i)
        sign = 1.0 if d[out] > 2.0 else -1.0
        lo, hi = lams[out], lams[inn]
        while abs(hi - lo) > edge_tol:
            mid = 0.5 * (lo + hi)
            if sign * PE.discriminant(p, period, mid) - 2.0 > 0.0:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    return edges


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.3])
def test_band_edges_match_per_energy_scan(delta):
    window, edge_tol = (-2.0, 60.0), 1e-10
    bs = PE.band_spectrum(P.PeriodicSquare(delta), 2 * delta, window, 512,
                          edge_tol=edge_tol)
    got = [e for band in bs.bands for e in band if e not in window]
    # the reference scans finely enough to see every gap in the window
    want = scalar_band_edges(P.PeriodicSquare(delta), 2 * delta, window, 1 << 14,
                             edge_tol)
    assert len(got) == len(want) >= 2
    assert np.max(np.abs(np.subtract(got, want))) <= edge_tol


def test_band_edges_match_halving_root_finder(monkeypatch):
    # the same scan with every edge bracket halved instead of sectioned
    from test_martin import halving_bisect

    p, window, edge_tol = P.PeriodicSquare(0.47), (-2.0, 150.0), 1e-10
    got = PE.band_spectrum(p, 0.94, window, 512, edge_tol=edge_tol)
    monkeypatch.setattr(PE, "_section", lambda f, out, inn, tol: halving_bisect(
        lambda x: f(x[:, None], np.arange(x.size))[:, 0], out, inn, tol))
    want = PE.band_spectrum(p, 0.94, window, 512, edge_tol=edge_tol)
    assert len(got.bands) == len(want.bands) >= 4
    assert np.max(np.abs(np.subtract(got.bands, want.bands))) <= edge_tol


def test_discriminant_samples_recorded():
    bs = PE.band_spectrum(FREE, 1.0, (-1.0, 10.0), 64)
    assert len(bs.lam) == 64
    assert np.all(np.isfinite(bs.delta))
    idx = np.searchsorted(bs.lam, 4.0)
    assert bs.delta[idx] == pytest.approx(
        2.0 * math.cos(math.sqrt(bs.lam[idx])), abs=1e-10)


# ---------------------------------------------------------------------------
# exact band levels against closed forms and fine scans


WORKLOAD_DELTAS = np.linspace(0.45, 0.51, 13).tolist()


@pytest.mark.parametrize("delta,spacing", [
    *((d, 1e-3) for d in WORKLOAD_DELTAS), (0.25, 1e-3), (1.3, 1e-3),
    # PeriodicSquare(5.0) has a band 5.1e-4 wide at -0.762
    (5.0, 1e-4),
])
def test_square_wave_bands_match_closed_form(delta, spacing):
    window = (-2.0, 150.0)
    E = square_wave_gap_set(delta, window, spacing)
    for resolution in (2048, 64):
        got = PE.to_gap_set(PE.band_spectrum(P.PeriodicSquare(delta), 2 * delta,
                                             window, resolution))
        assert len(got.gaps) == len(E.gaps)
        assert abs(got.b0 - E.b0) <= 1e-8
        assert np.max(np.abs(np.subtract(got.gaps, E.gaps))) <= 1e-8


def scan_edges(bs):
    """Brackets (lam_i, lam_i+1) of every edge a per-sample scan sees:
    consecutive samples on opposite sides of |discriminant| = 2."""
    inside = np.abs(bs.delta) <= 2.0
    (i,) = np.nonzero(inside[:-1] != inside[1:])
    return bs.lam[i], bs.lam[i + 1]


@given(values=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=4),
       cuts=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3, unique=True))
def test_random_step_levels_rise_and_coarse_scan_sees_every_edge(values, cuts):
    p = P.PiecewiseConstant(values=values,
                            breakpoints=sorted(cuts)[:len(values) - 1])
    window = (-21.0, 60.0)
    fine = PE.band_spectrum(p, 1.0, window, 1 << 14)
    assert np.all(np.diff(fine.level) >= 0)
    assert fine.level[0] == 0
    coarse = PE.band_spectrum(p, 1.0, window, 256)
    edges = np.array([e for band in coarse.bands for e in band if e not in window])
    lo, hi = scan_edges(fine)
    assert len(edges) >= len(lo)
    for a, b in zip(lo, hi):
        assert np.any((edges >= a - 1e-10) & (edges <= b + 1e-10))
