"""Finite-gap Martin function: critical points, evaluation, measure, fit."""
import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from schreg import martin as M
from schreg.errors import FitIllConditioned, OnSpectrum, PathTooCloseToSpectrum

FREE = M.GapSet(b0=0.0)
ONE_GAP = M.GapSet(b0=0.0, gaps=((1.0, 2.0),))

# Independently computed before implementation (high-precision tanh-sinh
# quadrature + bisection on the gap-period integral for [0,1] u [2,inf)).
ORACLE_C1 = 1.4569465810444636
ORACLE_A = 0.08610683791107275


def solved(E):
    return M.solve_critical_points(E)


# ---------------------------------------------------------------------------
# GapSet


def test_gap_set_validates_order():
    with pytest.raises(ValueError):
        M.GapSet(b0=0.0, gaps=((2.0, 1.0),))
    with pytest.raises(ValueError):
        M.GapSet(b0=0.0, gaps=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        M.GapSet(b0=0.0, gaps=((1.0, 3.0), (2.0, 4.0)))


def test_gap_set_rejects_infinite_edge():
    with pytest.raises(ValueError):
        M.GapSet(0.0, ((1.0, math.inf),))


def test_gap_set_bands_and_json():
    E = M.GapSet(b0=-1.0, gaps=((0.0, 1.0), (2.0, 3.0)))
    bands = E.bands()
    assert bands[0] == (-1.0, 0.0)
    assert bands[-1][1] == math.inf
    assert M.GapSet.from_json(E.to_json()) == E


def test_distance_to_set():
    assert M.distance_to_set(ONE_GAP, -3.0) == 3.0
    assert M.distance_to_set(ONE_GAP, 1.5) == 0.5
    assert M.distance_to_set(ONE_GAP, 0.5 + 0.25j) == 0.25
    assert M.distance_to_set(ONE_GAP, 3.0) == 0.0


# ---------------------------------------------------------------------------
# critical points


def test_no_gaps_gives_empty_critical_points():
    cp = solved(FREE)
    assert cp.c == ()
    assert cp.residuals == ()


def test_critical_point_oracle_regression():
    cp = solved(ONE_GAP)
    assert len(cp.c) == 1
    assert cp.c[0] == pytest.approx(ORACLE_C1, abs=1e-9)
    assert abs(cp.residuals[0]) <= 1e-10


def test_critical_point_against_independent_quadrature():
    # re-derive the oracle in-test: bisection on the gap-period integral
    # evaluated with mpmath tanh-sinh quadrature (no shared code path)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def period(c):
        f = lambda t: (t - c) / (mp.sqrt(t) * mp.sqrt(abs(t - 1))
                                 * mp.sqrt(abs(t - 2)))
        return mp.quad(f, [1, 2])

    lo, hi = mp.mpf(1), mp.mpf(2)
    for _ in range(60):
        mid = (lo + hi) / 2
        if period(mid) > 0:   # integral decreasing in c: root above mid
            lo = mid
        else:
            hi = mid
    c_ref = float((lo + hi) / 2)
    assert solved(ONE_GAP).c[0] == pytest.approx(c_ref, abs=1e-9)


def test_tiny_gap_critical_point_squeezed():
    E = M.GapSet(b0=0.0, gaps=((1.0, 1.0 + 1e-6),))
    cp = solved(E)
    assert 1.0 < cp.c[0] < 1.0 + 1e-6


def test_two_gap_residuals_small():
    E = M.GapSet(b0=0.0, gaps=((1.0, 2.0), (5.0, 5.5)))
    cp = solved(E)
    assert len(cp.c) == 2
    assert all(a < c < b for (a, b), c in zip(E.gaps, cp.c))
    assert max(abs(r) for r in cp.residuals) <= 1e-10


# ---------------------------------------------------------------------------
# theta_prime


def test_theta_prime_free_values():
    assert M.theta_prime(FREE, (), -1.0) == pytest.approx(0.5, abs=1e-14)
    assert M.theta_prime(FREE, (), -4.0) == pytest.approx(0.25, abs=1e-14)


def test_theta_prime_sign_flips_across_critical_point():
    cp = solved(ONE_GAP)
    c1 = cp.c[0]
    below = M.theta_prime(ONE_GAP, cp.c, c1 - 0.05)
    above = M.theta_prime(ONE_GAP, cp.c, c1 + 0.05)
    assert below.imag == pytest.approx(0.0, abs=1e-14)
    assert above.imag == pytest.approx(0.0, abs=1e-14)
    assert below.real * above.real < 0


def test_theta_prime_positive_below_spectrum():
    cp = solved(ONE_GAP)
    for x in (-10.0, -1.0, -0.01):
        v = M.theta_prime(ONE_GAP, cp.c, x)
        assert v.real > 0
        assert v.imag == pytest.approx(0.0, abs=1e-14)


def test_theta_prime_on_spectrum_raises():
    cp = solved(ONE_GAP)
    with pytest.raises(OnSpectrum):
        M.theta_prime(ONE_GAP, cp.c, 0.5)
    with pytest.raises(OnSpectrum):
        M.theta_prime(ONE_GAP, cp.c, 3.0 + 1e-15j)


def test_theta_prime_herglotz_on_upper_half_plane():
    cp = solved(ONE_GAP)
    for re in np.linspace(-3.0, 6.0, 19):
        for im in (1e-3, 0.1, 1.0, 10.0):
            v = M.theta_prime(ONE_GAP, cp.c, complex(re, im))
            assert v.imag >= -1e-13


def test_theta_prime_product_equals_exponential_form():
    # same function written with the exponential of the xi-integral
    cp = solved(ONE_GAP)
    c1 = cp.c[0]
    for z in (-3.0 + 2.0j, 0.5 + 0.7j, -5.0 + 0j, 4.0 + 0.3j):
        xi = 0.5 * (cmath.log(c1 - z) - cmath.log(1.0 - z)) \
            - 0.5 * (cmath.log(2.0 - z) - cmath.log(c1 - z))
        expform = 0.5 / cmath.sqrt(-z) * cmath.exp(xi)
        got = M.theta_prime(ONE_GAP, cp.c, z)
        assert got == pytest.approx(expform, rel=1e-12)


# ---------------------------------------------------------------------------
# martin_function


def test_free_field_values():
    assert M.martin_function(FREE, (), -1.0).value == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.uniform(-9, 9), rng.uniform(-6, 6))
        if M.distance_to_set(FREE, z) < 0.05:
            continue
        want = cmath.sqrt(-z).real
        assert M.martin_function(FREE, (), z).value == pytest.approx(
            want, abs=1e-8)


def test_conjugation_symmetry():
    cp = solved(ONE_GAP)
    for z in (0.5 + 0.5j, -2.0 + 1.0j, 3.0 + 0.25j):
        up = M.martin_function(ONE_GAP, cp.c, z).value
        down = M.martin_function(ONE_GAP, cp.c, z.conjugate()).value
        assert up == pytest.approx(down, abs=1e-10)


def test_band_points_have_zero_m_and_pi_cdf_theta():
    cp = solved(ONE_GAP)
    ev = M.martin_function(ONE_GAP, cp.c, 0.5)
    assert ev.value == 0.0
    cdf = M.martin_measure_cdf(ONE_GAP, cp.c, np.array([0.5]))
    assert ev.theta_real == pytest.approx(math.pi * cdf.cdf[0], rel=1e-10)


def test_mean_value_property_in_gap():
    cp = solved(ONE_GAP)
    center = 1.5
    r = 0.25 * 1.0  # quarter of the gap width
    mid = M.martin_function(ONE_GAP, cp.c, center).value
    angles = (np.arange(64) + 0.5) * (2 * math.pi / 64)
    ring = [M.martin_function(ONE_GAP, cp.c,
                              center + r * cmath.exp(1j * a)).value
            for a in angles]
    assert np.mean(ring) == pytest.approx(mid, abs=1e-6)


def test_lower_bound_by_free_field():
    E = M.GapSet(b0=0.5, gaps=((1.0, 2.0), (4.0, 4.5)))
    cp = solved(E)
    for z in (-3.0, 0.25, 1.5, -1.0 + 2.0j, 3.0 + 0.5j):
        m = M.martin_function(E, cp.c, z).value
        assert m >= cmath.sqrt(complex(E.b0) - z).real - 1e-9


def test_normalization_at_large_k():
    cp = solved(ONE_GAP)
    k = 1000.0
    m = M.martin_function(ONE_GAP, cp.c, -k * k).value
    assert abs(m / k - 1.0) <= 1e-3


def test_path_too_close_raises():
    with pytest.raises(PathTooCloseToSpectrum):
        M.martin_function(FREE, (), 4.0 + 1e-14j)


def test_gap_maximum_at_critical_point():
    cp = solved(ONE_GAP)
    c1 = cp.c[0]
    mc = M.martin_function(ONE_GAP, cp.c, c1).value
    for x in (c1 - 0.2, c1 - 0.05, c1 + 0.05, c1 + 0.2):
        assert M.martin_function(ONE_GAP, cp.c, x).value < mc


# ---------------------------------------------------------------------------
# a_constant and the asymptotic fit


def test_a_constant_examples():
    assert M.a_constant(FREE, ()) == 0.0
    assert M.a_constant(M.GapSet(b0=-2.5), ()) == -2.5
    cp = solved(ONE_GAP)
    assert M.a_constant(ONE_GAP, cp.c) == pytest.approx(ORACLE_A, abs=1e-9)
    assert M.a_constant(ONE_GAP, cp.c) == pytest.approx(3.0 - 2.0 * cp.c[0],
                                                        abs=1e-14)


def test_fit_free_field():
    got = M.fit_a_from_martin(FREE, (), np.linspace(50.0, 100.0, 12))
    assert abs(got) <= 1e-6


def test_fit_shifted_free_field():
    E = M.GapSet(b0=-1.0)
    got = M.fit_a_from_martin(E, (), np.linspace(50.0, 100.0, 12))
    assert got == pytest.approx(-1.0, abs=1e-4)


def test_fit_matches_a_constant_one_gap():
    cp = solved(ONE_GAP)
    a = M.a_constant(ONE_GAP, cp.c)
    fit = M.fit_a_from_martin(ONE_GAP, cp.c, np.linspace(50.0, 100.0, 12))
    assert abs(a - fit) <= 0.01 * max(1.0, abs(a))


def test_fit_rejects_degenerate_grid():
    with pytest.raises(FitIllConditioned):
        M.fit_a_from_martin(FREE, (), np.full(8, 50.0))


# ---------------------------------------------------------------------------
# Martin measure


def test_free_measure_cdf():
    lams = np.linspace(0.0, 25.0, 60)
    cdf = M.martin_measure_cdf(FREE, (), lams)
    assert np.max(np.abs(cdf.cdf - np.sqrt(lams) / math.pi)) <= 1e-8
    one = M.martin_measure_cdf(FREE, (), np.array([math.pi ** 2]))
    assert one.cdf[0] == pytest.approx(1.0, abs=1e-8)


def alg_band_cdf(E, c, lam):
    """Re Theta(lam) / pi from QUADPACK's algebraic-weight rule: on each
    band the density is a smooth factor times (t - lo)**-1/2 (hi - t)**-1/2,
    and a partial band is taken from its nearer edge."""
    edges = [E.b0] + [e for gap in E.gaps for e in gap]

    def smooth(t, lo, hi):
        num = 0.5 * math.prod(abs(t - cj) for cj in c)
        return num / math.prod(math.sqrt(abs(t - e)) for e in edges
                               if e not in (lo, hi))

    total = 0.0
    for lo, hi in E.bands():
        if lam <= lo:
            break
        f = lambda t: smooth(t, lo, hi)
        if hi < math.inf:
            full = quad(f, lo, hi, weight="alg", wvar=(-0.5, -0.5),
                        epsabs=1e-14, epsrel=1e-13)[0]
        if lam >= hi:
            total += full
        elif hi < math.inf and lam > 0.5 * (lo + hi):
            total += full - quad(lambda t: f(t) / math.sqrt(t - lo), lam, hi,
                                 weight="alg", wvar=(0.0, -0.5),
                                 epsabs=1e-14, epsrel=1e-13)[0]
        else:
            g = f if hi == math.inf else lambda t: f(t) / math.sqrt(hi - t)
            total += quad(g, lo, lam, weight="alg", wvar=(-0.5, 0.0),
                          epsabs=1e-14, epsrel=1e-13)[0]
    return total / math.pi


def test_measure_cdf_matches_algebraic_weight_oracle():
    # three gaps, one of them narrower than 0.05
    E = M.GapSet(b0=0.0, gaps=((1.0, 2.0), (4.0, 4.03), (7.0, 8.5)))
    cp = solved(E)
    edges = [1.0, 2.0, 4.0, 4.01, 4.02, 4.03, 7.0, 8.5]   # and two in a gap
    lams = np.unique(np.concatenate([np.linspace(0.0, 12.0, 392), edges]))
    cdf = M.martin_measure_cdf(E, cp.c, lams).cdf
    want = [alg_band_cdf(E, cp.c, lam) for lam in lams]
    assert np.max(np.abs(cdf - want)) <= 1e-11
    # the accumulation over the grid does not drift from one-point calls
    for i in range(0, len(lams), 7):
        one = M.martin_measure_cdf(E, cp.c, lams[i:i + 1]).cdf[0]
        assert abs(cdf[i] - one) <= 1e-12


def test_measure_flat_across_gap_and_monotone():
    cp = solved(ONE_GAP)
    lams = np.array([0.9, 1.1, 1.5, 1.9, 2.1, 3.0])
    cdf = M.martin_measure_cdf(ONE_GAP, cp.c, lams).cdf
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[3] - cdf[1] == pytest.approx(0.0, abs=1e-10)
    assert cdf[4] > cdf[3]


def test_gap_flatness_residual():
    cp = solved(ONE_GAP)
    flat = M.gap_flatness(ONE_GAP, cp.c)
    assert max(flat) <= 1e-8
    E2 = M.GapSet(b0=0.0, gaps=((1.0, 2.0), (5.0, 5.5)))
    cp2 = solved(E2)
    assert max(M.gap_flatness(E2, cp2.c)) <= 1e-8
