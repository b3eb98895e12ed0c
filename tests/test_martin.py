"""Finite-gap Martin function: critical points, evaluation, measure, fit."""
import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from schreg import martin as M, periodic as PE, potentials as P
from schreg.errors import FitIllConditioned, NoConvergence

FREE = M.GapSet(b0=0.0)
ONE_GAP = M.GapSet(b0=0.0, gaps=((1.0, 2.0),))

# Independently computed before implementation (high-precision tanh-sinh
# quadrature + bisection on the gap-period integral for [0,1] u [2,inf)).
ORACLE_C1 = 1.4569465810444636
ORACLE_A = 0.08610683791107275


def solved(E):
    return M.solve_critical_points(E)


def theta_prime(E, c, z):
    """i Theta'(z) at one point, from the product form the vertical path uses."""
    return complex(M._itheta_prime_raw(E, c, z))


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


@pytest.mark.parametrize("E", [
    M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5))),
    M.GapSet(-0.019341080133447444, (   # PeriodicSquare(0.48186328550012664)
        (9.98490373268532, 11.258028808241063),
        (42.500298099961064, 42.523815488457124),
        (95.42902612550928, 95.85330345715084))),
], ids=["two_gaps", "square_wave"])
def test_critical_points_match_high_precision_reference(E):
    # 30-digit Newton on the product-form conditions, integral over gap j of
    # prod_l (t - c_l) / (sqrt(t - b0) prod_e sqrt|t - e|) = 0, each half of
    # the gap taken in t = a + s**2 or t = b - s**2 from its end, so that
    # tanh-sinh never evaluates a float gap edge
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        b0 = mp.mpf(E.b0)
        gaps = [(mp.mpf(a), mp.mpf(b)) for a, b in E.gaps]

        def condition(j, c):
            def g(t, other):   # the integrand times sqrt|t - own end|
                v = 1 / mp.sqrt(t - b0) / mp.sqrt(abs(t - other))
                for cl in c:
                    v *= t - cl
                for k, (a, b) in enumerate(gaps):
                    if k != j:
                        v /= mp.sqrt(abs(t - a) * abs(t - b))
                return v

            a, b = gaps[j]
            h = mp.sqrt((b - a) / 2)
            return (mp.quad(lambda s: g(a + s * s, b), [0, h])
                    + mp.quad(lambda s: g(b - s * s, a), [0, h]))

        ref = mp.findroot(lambda *c: [condition(j, c) for j in range(len(gaps))],
                          [(a + b) / 2 for a, b in gaps])
    c = solved(E).c
    for (a, b), cj, r in zip(E.gaps, c, ref):
        assert abs(cj - float(r)) <= 1e-12 * (b - a)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
def test_random_gap_sets_solve_inside_their_gaps(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        edges = np.sort(rng.uniform(0.1, 150.0, 2 * n))
        E = M.GapSet(-0.5, tuple(zip(edges[::2], edges[1::2])))
        cp = solved(E)
        assert all(a < c < b for (a, b), c in zip(E.gaps, cp.c))
        assert max(abs(r) for r in cp.residuals) <= 1e-10


NARROW_GAPS = [M.GapSet(0.0, ((100.0, 100.0 + 1e-8),)),
               M.GapSet(0.0, ((1421.0, 1421.0007),))]


def one_gap_root(E, dps=40):
    """The critical point of a one-gap set to dps digits: the weighted mean
    of t over the gap, each half taken in t = a + s**2 or t = b - s**2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        b0 = mp.mpf(E.b0)
        (a, b), = [(mp.mpf(a), mp.mpf(b)) for a, b in E.gaps]
        h = mp.sqrt((b - a) / 2)

        def moment(k):
            def g(t, other):
                return t ** k / mp.sqrt(t - b0) / mp.sqrt(abs(t - other))
            return (mp.quad(lambda s: g(a + s * s, b), [0, h])
                    + mp.quad(lambda s: g(b - s * s, a), [0, h]))

        return moment(1) / moment(0)


@pytest.mark.parametrize("E", NARROW_GAPS, ids=["1e-8_at_100", "7e-4_at_1421"])
def test_narrow_gap_solves_to_within_an_ulp_of_its_root(E):
    # the residual there is above _RESIDUAL_TOL but below 4 pi ulp(c) / width,
    # the most one ulp of c can leave (it moves r by about pi ulp(c) / width)
    mp = pytest.importorskip("mpmath")
    c = solved(E).c[0]
    assert abs(mp.mpf(c) - one_gap_root(E)) <= math.ulp(c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_174_gap_square_wave_solves_without_warnings():
    # PeriodicSquare(5) below 3000: every product over all gaps overflows
    E = PE.to_gap_set(PE.band_spectrum(P.PeriodicSquare(5.0), 10.0, (-2.0, 3000.0), 2048))
    assert len(E.gaps) == 174
    cp = solved(E)
    assert all(a < c < b for (a, b), c in zip(E.gaps, cp.c))


def test_truncated_square_wave_a_constant_tends_to_the_mean():
    # V periodic is regular, so a_E of its whole spectrum is the mean of V,
    # 0 here; the spectrum below Lambda gets there as Lambda grows
    p = P.PeriodicSquare(0.45)
    a_e = []
    for top in (50.0, 150.0, 600.0, 3000.0):
        E = PE.to_gap_set(PE.band_spectrum(p, 0.9, (-2.0, top), 2048))
        a_e.append(abs(M.a_constant(E, solved(E).c)))
    assert all(x > y for x, y in zip(a_e, a_e[1:]))
    assert a_e[-1] < 1e-5


# ---------------------------------------------------------------------------
# the sectioning root finder against halving


def halving_bisect(f, out, inn, tol):
    """Roots of f bracketed by f(out) > 0 >= f(inn), all pairs halved
    together until within tol: the root finder sectioning replaced."""
    for _ in range(200):
        live = np.abs(inn - out) > tol
        if not live.any():
            break
        mid = 0.5 * (out + inn)
        pos = live & (f(mid) > 0.0)
        out, inn = np.where(pos, mid, out), np.where(live & ~pos, mid, inn)
    return 0.5 * (out + inn)


def section_cases():
    """(name, f(x, k), out, inn, tol): f maps a (brackets, points) array and
    the bracket indices to values of the same shape."""
    rng = np.random.default_rng(5)
    n = 40
    root = rng.uniform(-50.0, 50.0, n)
    slope = rng.uniform(0.01, 100.0, n) * rng.choice([-1.0, 1.0], n)
    below, above = root - rng.uniform(1e-3, 30.0, n), root + rng.uniform(1e-3, 30.0, n)
    tol = rng.choice([1e-6, 1e-10, 4e-16 * 50.0], n)
    done = np.arange(n) % 7 == 0   # already within tol
    below[done], above[done] = root[done] - 0.25 * tol[done], root[done] + 0.25 * tol[done]

    def monotone(x, k):   # increasing for slope > 0, decreasing otherwise
        d = x - root[k, None]
        return slope[k, None] * (d + d ** 3)

    up = slope > 0
    yield ("monotone", monotone, np.where(up, above, below),
           np.where(up, below, above), tol)
    yield ("cosine", lambda x, k: np.cos(x), np.array([0.0]),
           np.array([3.0 * math.pi - 0.3]), np.array([1e-12]))


@pytest.mark.parametrize("case", list(section_cases()), ids=lambda c: c[0])
def test_section_matches_halving(case):
    _, f, out, inn, tol = case
    points = []

    def counted(x, k):
        v = f(x, k)
        points.append((np.broadcast_to(k[:, None], x.shape).ravel(), x.ravel(), v.ravel()))
        return v

    got = M._section(counted, out, inn, tol)
    want = halving_bisect(lambda x: f(x[:, None], np.arange(x.size))[:, 0],
                          out, inn, tol)
    assert np.all(np.abs(got - want) <= tol)
    width = np.abs(inn - out)
    rounds = np.ceil(np.log(np.maximum(width / tol, 1.0)) / np.log(32.0))
    assert len(points) <= rounds.max() + 1
    # the final bracket is two points with a sign change, got its midpoint
    k, x, v = (np.concatenate(a) for a in zip(*points))
    for i, root in enumerate(got):
        pos = np.append(x[(k == i) & (v > 0.0)], out[i])
        neg = np.append(x[(k == i) & (v <= 0.0)], inn[i])
        p, q = np.meshgrid(pos, neg)
        assert np.any((np.abs(p - q) <= tol[i]) & (0.5 * (p + q) == root))


def test_section_of_converged_brackets_calls_nothing():
    def never(x, k):
        raise AssertionError("f called on converged brackets")

    got = M._section(never, np.array([1.0, 2.0]), np.array([1.0 + 1e-12, 2.0]), 1e-10)
    assert np.array_equal(got, [1.0 + 5e-13, 2.0])


# ---------------------------------------------------------------------------
# residuals


def quadpack_residuals(E, c):
    """Gap integral of M' over the integral of |M'|, by QUADPACK with the
    kink at c_j passed as a break point.  On a gap 0.01 wide its QAGP
    extrapolation stops 5e-10 from a 30-digit value, so the cases below
    keep their gaps wider."""
    def density(x):
        v = 0.5 / math.sqrt(abs(x - E.b0))
        for (a, b), cl in zip(E.gaps, c):
            v *= abs(cl - x) / math.sqrt(abs(x - a) * abs(x - b))
        return v

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    out = []
    for (a, b), cj in zip(E.gaps, c):
        signed = quad(lambda x: math.copysign(density(x), cj - x), a, b,
                      points=[cj], **opts)[0]
        out.append(signed / quad(density, a, b, points=[cj], **opts)[0])
    return np.array(out)


@pytest.mark.parametrize("E,c", [
    (M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5))), (1.3, 5.4)),
    (M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5))), (1.9, 5.05)),
    (M.GapSet(-0.5, ((1.0, 1.5), (3.0, 7.0), (9.0, 9.5))), (1.1, 6.0, 9.1)),
])
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_gap_residuals_match_quadpack_with_break_point(E, c):
    got = M._gap_residuals(E, c)
    want = quadpack_residuals(E, c)
    assert np.all(np.abs(want) > 1e-3)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def test_critical_point_off_by_a_millionth_of_its_gap_raises(monkeypatch):
    E = M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5)))
    section = M._section

    def nudged(*args):
        c = section(*args)
        return c + np.array([0.0, 1e-6 * 0.5])

    monkeypatch.setattr(M, "_section", nudged)
    with pytest.raises(NoConvergence):
        solved(E)


@pytest.mark.parametrize("E", NARROW_GAPS, ids=["1e-8_at_100", "7e-4_at_1421"])
def test_narrow_gap_critical_point_off_by_64_ulps_raises(monkeypatch, E):
    section = M._section

    def nudged(*args):
        c = section(*args)
        return c + 64 * np.spacing(c)

    monkeypatch.setattr(M, "_section", nudged)
    with pytest.raises(NoConvergence):
        solved(E)


def test_gap_flatness_takes_few_quadrature_rounds(monkeypatch):
    E = M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5)))
    c = solved(E).c
    calls = []
    density = M._m_density

    def counted(*args):   # called once per round by the quadrature's f
        calls.append(1)
        return density(*args)

    monkeypatch.setattr(M, "_m_density", counted)
    assert max(abs(M._gap_residuals(E, c))) <= 1e-10
    assert 1 <= len(calls) <= 4


# ---------------------------------------------------------------------------
# i Theta'


def test_theta_prime_free_values():
    assert theta_prime(FREE, (), -1.0) == pytest.approx(0.5, abs=1e-14)
    assert theta_prime(FREE, (), -4.0) == pytest.approx(0.25, abs=1e-14)


def test_theta_prime_sign_flips_across_critical_point():
    cp = solved(ONE_GAP)
    c1 = cp.c[0]
    below = theta_prime(ONE_GAP, cp.c, c1 - 0.05)
    above = theta_prime(ONE_GAP, cp.c, c1 + 0.05)
    assert below.imag == pytest.approx(0.0, abs=1e-14)
    assert above.imag == pytest.approx(0.0, abs=1e-14)
    assert below.real * above.real < 0


def test_theta_prime_positive_below_spectrum():
    cp = solved(ONE_GAP)
    for x in (-10.0, -1.0, -0.01):
        v = theta_prime(ONE_GAP, cp.c, x)
        assert v.real > 0
        assert v.imag == pytest.approx(0.0, abs=1e-14)


def test_theta_prime_herglotz_on_upper_half_plane():
    cp = solved(ONE_GAP)
    for re in np.linspace(-3.0, 6.0, 19):
        for im in (1e-3, 0.1, 1.0, 10.0):
            v = theta_prime(ONE_GAP, cp.c, complex(re, im))
            assert v.imag >= -1e-13


def test_theta_prime_product_equals_exponential_form():
    # same function written with the exponential of the xi-integral
    cp = solved(ONE_GAP)
    c1 = cp.c[0]
    for z in (-3.0 + 2.0j, 0.5 + 0.7j, -5.0 + 0j, 4.0 + 0.3j):
        xi = 0.5 * (cmath.log(c1 - z) - cmath.log(1.0 - z)) \
            - 0.5 * (cmath.log(2.0 - z) - cmath.log(c1 - z))
        expform = 0.5 / cmath.sqrt(-z) * cmath.exp(xi)
        got = theta_prime(ONE_GAP, cp.c, z)
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


def test_z_next_to_the_spectrum_evaluates():
    # the vertical segment from x + i0 is as short as Im z, so no z off the
    # real axis is too close to the bands
    for z in (4.0 + 1e-14j, 4.0 - 1e-14j):
        ev = M.martin_function(FREE, (), z)
        assert ev.value == pytest.approx(cmath.sqrt(-z).real, rel=1e-12)
        assert ev.theta_real == pytest.approx(2.0, rel=1e-15)
    E = M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5)))
    c = solved(E).c
    z = 150.0 + 1e-8j   # raised QuadratureFailure on the straight path from b0
    m = M.martin_function(E, c, z).value
    # M(150) = 0, and to first order M(150 + iy) = y Im(i Theta'(150 + iy))
    assert m == pytest.approx(1e-8 * theta_prime(E, c, z).imag, rel=1e-6)


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
    with pytest.raises(FitIllConditioned):   # -k**2 on the spectrum
        M.fit_a_from_martin(M.GapSet(b0=-1e4), (), np.linspace(50.0, 100.0, 12))


def test_fit_matches_high_precision_reference():
    # 2k (M(-k**2) - k) formed from M ~ k amplifies M's rounding by 2k, to
    # 4e-12 in the fit on this set; a 30-digit fit bounds it to 1e-13
    mp = pytest.importorskip("mpmath")
    E = M.GapSet(b0=-0.019003823753021988, gaps=(
        (10.173737087147392, 11.446866123122874),
        (43.255387495503946, 43.27849475461101),
        (97.12770452109935, 97.55198655290144)))
    c = solved(E).c
    ks = np.linspace(50.0, 100.0, 12)
    with mp.workdps(30):
        def r(s):   # 2s M'(t) at t = b0 - s**2
            t = E.b0 - s * s
            return mp.fprod((cj - t) / mp.sqrt((a - t) * (b - t))
                            for (a, b), cj in zip(E.gaps, c))

        y = [2 * k * (mp.quad(r, mp.linspace(0, mp.sqrt(E.b0 + k * k), 8)) - k)
             for k in map(mp.mpf, ks)]
        A = mp.matrix([[1, 1 / mp.mpf(k)] for k in ks])
        want = float(mp.lu_solve(A.T * A, A.T * mp.matrix(y))[0])
    assert abs(M.fit_a_from_martin(E, c, ks) - want) <= 1e-13


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
    assert max(abs(r) for r in cp.residuals) <= 1e-8
    E2 = M.GapSet(b0=0.0, gaps=((1.0, 2.0), (5.0, 5.5)))
    cp2 = solved(E2)
    assert max(abs(r) for r in cp2.residuals) <= 1e-8


# ---------------------------------------------------------------------------
# the batched quadrature against QUADPACK


def square_wave_gap_set(delta, window=(-2.0, 150.0), spacing=1e-3):
    """Gap set of the +-1 square wave of period 2 delta inside window, from
    the closed-form discriminant (two constant cells) sampled every
    `spacing` and brentq edges; bands or gaps narrower than the spacing
    may be missed."""
    from scipy.optimize import brentq

    def disc(lam):
        lam = np.asarray(lam, dtype=complex)
        k1, k2 = np.sqrt(lam - 1.0), np.sqrt(lam + 1.0)
        s1 = np.sinc(k1 * delta / np.pi) * delta
        s2 = np.sinc(k2 * delta / np.pi) * delta
        return (2.0 * np.cos(k1 * delta) * np.cos(k2 * delta)
                - (k1 * k1 + k2 * k2) * s1 * s2).real

    lam = np.arange(window[0], window[1], spacing)
    out = np.abs(disc(lam)) > 2.0
    flips = np.flatnonzero(out[1:] != out[:-1])
    edges = [brentq(lambda x: abs(disc(x)) - 2.0, lam[i], lam[i + 1],
                    xtol=1e-14, rtol=1e-15) for i in flips]
    if not out[-1] or len(edges) % 2 == 0:
        edges = edges[:len(edges) - (len(edges) + 1) % 2]
    return M.GapSet(b0=edges[0], gaps=tuple(zip(edges[1::2], edges[2::2])))


def _itheta(E, c, w):
    num, den = 0.5, cmath.sqrt(E.b0 - w)
    for (a, b), cj in zip(E.gaps, c):
        num *= cj - w
        den *= cmath.sqrt(a - w) * cmath.sqrt(b - w)
    return num / den


def alg_theta(E, c, z):
    """Theta(z) from QUADPACK along a route the package does not take: M at
    x = Re z from an algebraic-weight integral starting at the nearer edge
    (gap edge, or b0 from below), Re Theta = pi * cdf(x), then the vertical
    segment from x + i0 up to z."""
    x, y = z.real, abs(z.imag)
    edges = [E.b0] + [e for gap in E.gaps for e in gap]

    def smooth(t, *skip):
        num = 0.5 * math.prod(abs(t - cj) for cj in c)
        return num / math.prod(math.sqrt(abs(t - e)) for e in edges
                               if e not in skip)

    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    m = 0.0
    if x < E.b0:
        m = quad(smooth, x, E.b0, args=(E.b0,), weight="alg",
                 wvar=(0.0, -0.5), **kw)[0]
    for (a, b), cj in zip(E.gaps, c):
        if a < x < b:
            g = lambda t: math.copysign(smooth(t, a, b), cj - t)
            if x - a <= b - x:
                m = quad(lambda t: g(t) / math.sqrt(b - t), a, x,
                         weight="alg", wvar=(-0.5, 0.0), **kw)[0]
            else:
                m = -quad(lambda t: g(t) / math.sqrt(t - a), x, b,
                          weight="alg", wvar=(0.0, -0.5), **kw)[0]
    theta = complex(math.pi * alg_band_cdf(E, c, x), m)
    if y > 0:
        theta += quad(lambda t: _itheta(E, c, complex(x, t)), 0.0, y,
                      complex_func=True, **kw)[0]
    return theta


@pytest.mark.parametrize("name", ["two-gap", "square-wave"])
def test_martin_function_matches_quadpack_oracle(name):
    E = (M.GapSet(b0=0.0, gaps=((1.0, 2.0), (5.0, 5.5))) if name == "two-gap"
         else square_wave_gap_set(0.48))
    if name == "square-wave":
        assert len(E.gaps) == 3
    c = solved(E).c
    (a1, b1), (a2, _) = E.gaps[0], E.gaps[1]
    xs = [E.b0 - 3.0, 0.5 * (E.b0 + a1), 0.5 * (a1 + b1), 0.5 * (b1 + a2),
          E.gaps[-1][1] + 20.0]
    zs = [complex(x, y) for x in xs for y in (5.0, 1.0, 0.1, 1e-3, 1e-6)]
    for a, b in E.gaps:
        zs += [a + u * (b - a) for u in (1e-7, 1e-3, 0.3)]
        zs += [b - u * (b - a) for u in (1e-7, 1e-3, 0.3)]
    zs += [E.b0 - d for d in (1e-4, 0.5, 10.0, 400.0)]
    zs = np.array(zs, dtype=complex)
    ev = M.martin_function(E, c, zs)
    for z, m, re in zip(zs, ev.value, ev.theta_real):
        want = alg_theta(E, c, z)
        assert abs(m - want.imag) <= 1e-12 * max(1.0, abs(want.imag)), z
        assert abs(re - want.real) <= 1e-12 * max(1.0, abs(want.real)), z
    # one batched call gives bitwise the values of one call per z
    for z, m, re in zip(zs, ev.value, ev.theta_real):
        one = M.martin_function(E, c, z)
        assert (one.value, one.theta_real) == (m, re)


def test_theta_matches_30_digit_reference():
    # Theta(z) in 30 digits along b0 -> b0 + 2i (in w = b0 + i s**2) ->
    # Re z + 2i -> z: a route that touches the real axis only at the anchor.
    # Below b0, in gaps, in bands, on the edges b0, a_1, b_1, b_2, and up the
    # last band, for Im z from 1e-8 to 10.  The floor 1e-15 is the rounding
    # of the float c: its gap integrals of Theta' are not exactly 0, so the
    # reference's Im Theta on the bands is not exactly the package's 0.
    mp = pytest.importorskip("mpmath")
    E = M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5)))
    c = solved(E).c
    zs = [-3 + 1e-8j, -3 + 10j, 0.5 + 1e-8j, 3.0 + 0.1j, 3.0 + 1e-8j,
          1.5 + 1e-6j, 5.25 + 1e-8j, 0.0 + 1e-8j, 1.0 + 1e-8j, 2.0 + 1e-4j,
          5.5 + 1.0j, 150.0 + 1e-8j, 150.0 + 10j]
    ev = M.martin_function(E, c, np.array(zs))
    with mp.workdps(30):
        def dtheta(w):
            num, den = mp.mpf(1) / 2, mp.sqrt(E.b0 - w)
            for (a, b), cj in zip(E.gaps, c):
                num *= cj - w
                den *= mp.sqrt(a - w) * mp.sqrt(b - w)
            return -1j * num / den

        top = mp.mpc(E.b0, 2)
        start = mp.quad(lambda s: dtheta(E.b0 + 1j * s * s) * 2j * s,
                        [0, mp.sqrt(2)])
        for z, m, re in zip(zs, ev.value, ev.theta_real):
            side = mp.mpc(z.real, 2)
            want = complex(start + mp.quad(dtheta, [top, side])
                           + mp.quad(dtheta, [side, mp.mpc(z.real, z.imag)]))
            assert abs(m - want.imag) <= 1e-12 * abs(want.imag) + 1e-15, z
            assert abs(re - want.real) <= 1e-12 * abs(want.real) + 1e-15, z


def test_martin_function_is_continuous_onto_the_real_axis():
    E = M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5)))
    c = solved(E).c
    edges = [0.0, 1.0, 2.0, 5.0, 5.5]
    inner = [-2.0, 0.5, 1.5, 3.0, 5.25, 100.0]   # off the edges
    for eps in (1e-4, 1e-8, 1e-12):
        for x in edges:   # M vanishes on E and grows like sqrt(eps) off it
            m = M.martin_function(E, c, complex(x, eps)).value
            assert 0.0 < m <= math.sqrt(eps), (x, eps)
        for x in inner:
            m0 = M.martin_function(E, c, x).value
            m = M.martin_function(E, c, complex(x, eps)).value
            slope = abs(_itheta(E, c, complex(x, eps)))
            assert abs(m - m0) <= 1.01 * eps * slope + 4e-16 * max(1.0, m0), (x, eps)


def test_complex_z_work_does_not_grow_as_im_z_falls(monkeypatch):
    # 60 z at Im z = 1e-6 take no more integrand points than the straight
    # path from b0 took at Im z = 1 (130,032), in two quadrature calls
    E = M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5)))
    c = solved(E).c
    points, calls = [], []
    quad = M.si.quad

    def counted(f, a, b, **kw):
        calls.append(1)

        def g(s, k):
            points.append(s.size)
            return f(s, k)
        return quad(g, a, b, **kw)

    monkeypatch.setattr(M.si, "quad", counted)
    M.martin_function(E, c, np.linspace(-5.0, 150.0, 60) + 1e-6j)
    assert len(calls) == 2
    assert sum(points) <= 130_032
