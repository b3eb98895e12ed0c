"""Discriminant, band spectra, and the small-delta square-wave asymptotics."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schreg import martin, periodic as PE, potentials as P
from sectioning import one_level_section
from test_martin import section_bound, square_wave_gap_set

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


# Two bisections of one edge may stop at different changes of the computed
# level, which changes up to 3 times within a few floats of an edge (see
# test_band_level_changes_once_near_most_edges).  They differ by at most
# 1.4e-14 below (3 ulps); the bound leaves a margin of 3.5.
EDGE_NOISE = 5e-14


def scalar_band_edges(p, period, window, resolution):
    """Reference scan: the library's level at every sample, then each
    boundary between levels bisected on its own, one scalar call per
    halving, between the two samples where the level passes it, until
    within section_bound of them or no float splits the bracket."""
    lams = np.linspace(window[0], window[1], resolution)
    level = PE._scan(p, period, lams, 1e-3)[1]
    edges = []
    for i in range(resolution - 1):
        for bound in np.arange(level[i], level[i + 1]) + 0.5:
            lo, hi = lams[i], lams[i + 1]
            tol = section_bound(lo, hi)
            while abs(hi - lo) > tol and lo != 0.5 * (lo + hi) != hi:
                mid = 0.5 * (lo + hi)
                if PE._scan(p, period, np.array([mid]), 1e-3)[1][0] < bound:
                    lo = mid
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
    return edges


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.3])
def test_band_edges_match_per_energy_scan(delta):
    window = (-2.0, 60.0)
    bs = PE.band_spectrum(P.PeriodicSquare(delta), 2 * delta, window, 512)
    got = [e for band in bs.bands for e in band if e not in window]
    # the reference scans finely enough to see every gap in the window
    want = scalar_band_edges(P.PeriodicSquare(delta), 2 * delta, window, 1 << 14)
    assert len(got) == len(want) >= 2
    assert np.max(np.abs(np.subtract(got, want))) <= EDGE_NOISE


def test_band_edges_match_halving_root_finder(monkeypatch):
    # the same scan with every edge bracket halved instead of sectioned
    from test_martin import halving_bisect

    p, window = P.PeriodicSquare(0.47), (-2.0, 150.0)
    got = PE.band_spectrum(p, 0.94, window, 512)
    monkeypatch.setattr(PE, "_section", lambda f, out, inn, fends: halving_bisect(
        lambda x: f(x[:, None], np.arange(x.size))[:, 0], out, inn))
    want = PE.band_spectrum(p, 0.94, window, 512)
    assert len(got.bands) == len(want.bands) >= 4
    assert np.max(np.abs(np.subtract(got.bands, want.bands))) <= EDGE_NOISE


ONE_LEVEL_CASES = [(d, n, 150.0) for d in (0.1, 0.3, 0.47, 0.7, 1.3, 5.0) for n in (64, 512, 2048)]
ONE_LEVEL_CASES += [(d, 2048, 3000.0) for d in (0.47, 1.3, 5.0)]   # 16, 45 and 174 gaps


@pytest.mark.parametrize("delta, resolution, top", ONE_LEVEL_CASES, ids=[
    f"{d}-{n}" + ("-3000" if t > 150 else "") for d, n, t in ONE_LEVEL_CASES])
def test_band_edges_equal_one_level_per_round(monkeypatch, delta, resolution, top):
    # the look-ahead reads the levels one level per round would, bit for bit
    p, window = P.PeriodicSquare(delta), (-2.0, top)
    got = PE.band_spectrum(p, 2 * delta, window, resolution).bands
    monkeypatch.setattr(PE, "_section", one_level_section)
    assert got == PE.band_spectrum(p, 2 * delta, window, resolution).bands


@pytest.mark.parametrize("delta", [0.45, 0.48, 0.51])
def test_benchmark_band_scan_sections_in_few_scans(monkeypatch, delta):
    # the `periodic_gaps` bands op: one scan of the samples, then at most 5
    # sectioning scans (11 at one level per round)
    scan, scans = PE._scan, []
    monkeypatch.setattr(PE, "_scan", lambda *args: scans.append(1) or scan(*args))
    PE.band_spectrum(P.PeriodicSquare(delta), 2 * delta, (-2.0, 150.0), 2048)
    assert 1 <= len(scans) - 1 <= 5


def test_174_gap_band_scan_sections_in_few_scans_and_energies(monkeypatch):
    # 174 gaps below 3000, whose edges 4 levels a scan sections in 6
    # scans of 186,000 energies in all
    scan, sizes = PE._scan, []
    monkeypatch.setattr(PE, "_scan", lambda p, T, lam, step: sizes.append(lam.size)
                        or scan(p, T, lam, step))
    bs = PE.band_spectrum(P.PeriodicSquare(5.0), 10.0, (-2.0, 3000.0), 2048)
    assert len(PE.to_gap_set(bs).gaps) == 174
    assert 1 <= len(sizes) - 1 <= 6 and sum(sizes[1:]) <= 200_000


def kronig_penney(mp, delta, lam):
    """Discriminant of PeriodicSquare(delta) in mpmath: the trace of the
    product of the two cells' flows, 2 C_a C_b + (k_a + k_b) S_a S_b with
    k = V - lam (so k_a + k_b = -2 lam) and C, S = cosh, sinh(sqrt(k) h) /
    sqrt(k)."""
    h, cs = mp.mpf(delta), []
    for k in (1 - lam, -1 - lam):
        r = mp.sqrt(k)
        cs.append((mp.mpf(1), h) if k == 0 else
                  (mp.re(mp.cosh(r * h)), mp.re(mp.sinh(r * h) / r)))
    (ca, sa), (cb, sb) = cs
    return 2 * ca * cb - 2 * lam * sa * sb


# Worst readings against the 40-digit roots when these bounds were set:
# 4.0 ulps at an interior edge (delta = 1.3 at 0.789) and 21 ulps at b0
# (delta = 0.47, 6.6e-17 absolute, the rounding of V - lambda); the flat
# trace read 393 and 85.  The deep square waves, whose one-period transfer
# matrices reach norms near 1e3, read 12.2 ulps (delta = 5 at -0.084,
# where an ulp is 1.4e-17) and 1.2 at b0; the det form of the band test
# taken wherever |g| < t read 564 at delta = 5's narrow band.  The bounds
# leave a margin of about 2.5 for other platforms' libm.
EDGE_ULPS, DEEP_EDGE_ULPS, B0_ULPS = 10, 30, 50


@pytest.mark.parametrize("window", [(-2.0, 150.0), (-2.0, 60.0)])
@pytest.mark.parametrize("delta", [0.47, 0.5, 1.3, 3.0, 5.0])
def test_band_edges_match_40_digit_kronig_penney_roots(delta, window):
    mp = pytest.importorskip("mpmath")
    bs = PE.band_spectrum(P.PeriodicSquare(delta), 2 * delta, window, 512)
    ends = [e for band in bs.bands for e in band if e not in window]
    assert len(ends) >= 5 and bs.level[0] == 0
    with mp.workdps(40):
        errors = []
        for e in ends:
            x = mp.mpf(e)
            target = 2 if kronig_penney(mp, delta, x) > 0 else -2
            f = lambda lam: kronig_penney(mp, delta, lam) - target
            d = 1e-12 * max(1.0, abs(e))
            while f(x - d) * f(x + d) > 0:
                d *= 4
            root = mp.findroot(f, (x - d, x + d), solver="anderson")
            errors.append(float(abs(x - root)) / math.ulp(float(root)))
        # every stretch between the ends is what it is said to be: a band
        # where |Delta| <= 2, a gap where it is not
        mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        verdicts = [abs(kronig_penney(mp, delta, mp.mpf(m))) <= 2 for m in mids]
    assert verdicts == [i % 2 == 0 for i in range(len(mids))]
    assert errors[0] <= B0_ULPS
    assert max(errors[1:]) <= (DEEP_EDGE_ULPS if delta > 2.0 else EDGE_ULPS)


# Delta_m, the trace over m copies of the period, is 2 T_m(Delta / 2) with
# T_m the Chebyshev polynomial of the first kind.  T_m's slope on [-1, 1] is
# at most m**2, so Delta's own error (3.0e-13 of max(1, |Delta|) at delta =
# 5's narrow band at -0.762, 4e-15 elsewhere) can grow by that.  Measured
# over m**2: 2.2e-13 (delta = 5, m = 2), 9.3e-14 (m = 3 and 8) and 6.4e-14
# (m = 1000); for delta = 0.47 at most 6.7e-16.  The spelled-out fold of
# the m copies read 1.6e-10 at m = 2 and 6.6e-2 at m = 1000 for delta = 5.
DELTA_M_TOL = 5e-13


@pytest.mark.parametrize("delta", [0.47, 5.0])
def test_discriminant_of_m_copies_matches_40_digit_chebyshev(delta):
    # samples of (-2, 60) and the one period's edges with floats 1e-9 and
    # 1e-4 away; deep in a gap Delta_m overflows to +-inf, without a warning
    mp = pytest.importorskip("mpmath")
    p, window = P.PeriodicSquare(delta), (-2.0, 60.0)
    edges = np.array([e for band in PE.band_spectrum(p, 2 * delta, window, 512).bands
                      for e in band if e not in window])
    lams = np.unique(np.concatenate(
        [np.linspace(*window, 125), *(edges + d for d in (0.0, -1e-9, 1e-9, -1e-4, 1e-4))]))
    with mp.workdps(40):
        half = [kronig_penney(mp, delta, mp.mpf(float(lam))) / 2 for lam in lams]
        for m in (2, 3, 8, 1000):
            got = PE.discriminant(p, 2 * m * delta, lams)
            for g, x in zip(got, half):
                want = 2 * mp.chebyt(m, x)
                if abs(want) > np.finfo(float).max:
                    assert g == math.copysign(math.inf, want)
                else:
                    assert abs(g - want) <= DELTA_M_TOL * m * m * max(1, abs(want)), (m, g)


# Measured level changes within 3,000 floats of an edge: once at all but 2
# of the 35 edges of these scans; 3 times at delta = 0.47's edge at 100.74
# and delta = 0.5's at 9.228.  The flat trace changed up to 61 times.  The
# bound leaves a margin of 2.
LEVEL_CHANGES = 5


@pytest.mark.parametrize("delta", [0.47, 0.5, 1.3])
def test_band_level_changes_once_near_most_edges(delta):
    p, window = P.PeriodicSquare(delta), (-2.0, 150.0)
    bs = PE.band_spectrum(p, 2 * delta, window, 512)
    ends = [e for band in bs.bands for e in band if e not in window]
    changes = []
    for e in ends:
        floats = (np.array([e]).view(np.int64) + np.arange(-3000, 3001)).view(float)
        level = PE._scan(p, 2 * delta, np.sort(floats), 1e-3)[1]
        assert level[0] < level[-1]
        changes.append(np.count_nonzero(np.diff(level)))
    assert max(changes) <= LEVEL_CHANGES
    assert changes.count(1) >= len(changes) - 1


def test_discriminant_signs_at_the_free_closed_gaps():
    # Delta = 2 cos(sqrt(lambda)) is 2 (-1)**n at (n pi)**2 and stays within
    # 1e-15 of +-2 on the 4 floats either side, where the sign of |Delta| - 2
    # is rounding; the sign of Delta is checked against 40 digits at each
    mp = pytest.importorskip("mpmath")
    n = np.arange(1, 200)
    lam = (n * math.pi) ** 2
    assert np.array_equal(np.sign(PE.discriminant(FREE, 1.0, lam)), (-1.0) ** n)
    steps = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
    near = (lam.view(np.int64)[:, None] + steps).view(float).ravel()
    got = PE.discriminant(FREE, 1.0, near)
    with mp.workdps(40):
        want = [mp.sign(mp.cos(mp.sqrt(mp.mpf(x)))) for x in near]
    assert np.array_equal(np.sign(got), np.array(want, dtype=float))
    assert np.all(np.abs(np.abs(got) - 2.0) <= 1e-15)


@pytest.mark.parametrize("delta", [0.25, 0.47, 1.3, 3.0, 5.0])
def test_a_period_of_whole_repeats_keeps_every_edge(delta):
    # one period of 4 delta is a RepeatBlock of two square-wave periods; the
    # spectrum is the same, and each closed gap of the doubled period (where
    # Delta = 0) is an edge pair at most
    window = (-2.0, 60.0)
    one, two = (PE.band_spectrum(P.PeriodicSquare(delta), m * delta, window, 512)
                for m in (2, 4))
    assert isinstance(next(P.segments(P.PeriodicSquare(delta), 0.0, 4 * delta, 1e-3)),
                      P.RepeatBlock)
    edges = np.array([e for band in two.bands for e in band])
    for e in (e for band in one.bands for e in band):
        assert np.min(np.abs(edges - e)) <= EDGE_NOISE


def scans_and_edges(monkeypatch, p, period, window, resolution):
    """The levels of every sample band_spectrum walks, and its interior edges."""
    scan, seen = PE._scan, []

    def recorded(*args):
        delta, level, g = scan(*args)
        seen.append((args[2], level))
        return delta, level, g

    monkeypatch.setattr(PE, "_scan", recorded)
    bs = PE.band_spectrum(p, period, window, resolution)
    edges = [e for band in bs.bands for e in band if e not in window]
    return len(seen), *(np.concatenate(a) for a in zip(*seen)), edges


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.47, 0.7, 1.3, 5.0])
def test_a_period_of_m_copies_has_the_bands_of_one(delta):
    # m copies of the period are the same operator, so the band list is the
    # one period's, bit for bit: the m-fold period's closed gaps, inside the
    # one period's bands, stay closed (they opened 8e-17 to 3e-14 wide)
    p, window = P.PeriodicSquare(delta), (-2.0, 60.0)
    one = PE.band_spectrum(p, 2 * delta, window, 512).bands
    for m in (*range(2, 51), 10 ** 3, 10 ** 5):
        assert PE.band_spectrum(p, 2 * m * delta, window, 512).bands == one, m


def test_a_period_of_many_copies_walks_what_one_period_walks(monkeypatch):
    # the scan folds the pattern once, whatever its count, and takes the
    # pattern's level, so sectioning walks the same samples at 1e5 copies
    p, window = P.PeriodicSquare(0.47), (-2.0, 150.0)
    one = scans_and_edges(monkeypatch, p, 0.94, window, 2048)
    many = scans_and_edges(monkeypatch, p, 0.94 * 10 ** 5, window, 2048)
    assert many[0] == one[0] and many[1].size == one[1].size and many[3] == one[3]


@pytest.mark.parametrize("delta", [0.25, 0.45, 0.48, 1.3, 5.0])
def test_band_edges_stop_where_no_float_splits_the_bracket(monkeypatch, delta):
    # every edge is the midpoint of two walked samples at different levels,
    # no farther apart than 4e-16 times the bracket's starting samples
    # (about 2 ulp), after a dozen walks, not the 200-round cap of 201
    window, resolution = (-2.0, 60.0), 512
    calls, lam, level, edges = scans_and_edges(
        monkeypatch, P.PeriodicSquare(delta), 2 * delta, window, resolution)
    assert calls <= 14
    assert len(edges) >= 2
    for e in edges:
        bound = 4e-16 * (abs(e) + (window[1] - window[0]) / (resolution - 1))
        near = np.abs(lam - e) <= bound
        x, y = np.meshgrid(lam[near], lam[near])
        u, v = np.meshgrid(level[near], level[near])
        assert np.any((u != v) & (np.abs(x - y) <= bound) & (0.5 * (x + y) == e))


def test_band_edge_at_zero_takes_a_dozen_walks(monkeypatch):
    # the free band starts at 0, where floats crowd: the stopping rule's
    # width, 4e-16 times the starting samples, ends the bracket after 11
    # sectioning rounds, long before no float splits it
    calls, lam, level, edges = scans_and_edges(monkeypatch, FREE, 1.0, (-1.0, 1.0), 3)
    assert calls <= 14
    assert len(edges) == 1 and abs(edges[0]) <= 1e-15


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
