"""Finite-gap Martin function: critical points, evaluation, measure, fit."""
import cmath
import functools
import json
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from schreg import martin as M, periodic as PE, potentials as P, propagation as PR
from schreg import regularity as R
from schreg.cli import _FIT_K
from schreg.errors import FitIllConditioned, NoConvergence, QuadratureFailure
from sectioning import one_level_section

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


SQUARE_WAVE = M.GapSet(-0.019341080133447444, (   # PeriodicSquare(0.48186328550012664)
    (9.98490373268532, 11.258028808241063),
    (42.500298099961064, 42.523815488457124),
    (95.42902612550928, 95.85330345715084)))


@pytest.mark.parametrize("E", [M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5))), SQUARE_WAVE],
                         ids=["two_gaps", "square_wave"])
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


# c as the moment system's LAPACK solve (np.linalg.solve) gave them, and
# the band-derived gap sets they were solved on, as band_spectrum found them
# before its band test moved their edges by up to a few hundred ulps
PINNED = json.loads((pathlib.Path(__file__).parent / "critical_points.json").read_text())


@pytest.mark.parametrize("name, ulps", [("square_wave", 0), ("delta_0.45", 0),
                                        ("delta_1.3", 0), ("delta_5.0", 2)])
def test_critical_points_match_the_pinned_lapack_values(name, ulps):
    # the moment system is solved by row updates now: the sectioning makes
    # c bitwise the LAPACK route's on the 3-, 15- and 45-gap sets, and one
    # c of the 174-gap set moves by 2 ulps
    pinned = PINNED[name]
    E = SQUARE_WAVE if name == "square_wave" else M.GapSet(
        pinned["b0"], tuple(map(tuple, pinned["gaps"])))
    c, want = np.array(solved(E).c), np.array(pinned["c"])
    assert c.shape == want.shape
    assert np.max(np.abs(c - want) / np.spacing(np.abs(want))) <= ulps


def moment_systems():
    """(id, A, b): seeded systems of 1, 2, 3 and 20 unknowns, and the moment
    systems solve_critical_points builds on the band-derived sets."""
    for n in (1, 2, 3, 20):
        rng = np.random.default_rng(n)
        for i in range(3):
            yield f"seeded_{n}_{i}", rng.standard_normal((n, n)), rng.standard_normal(n)
    for delta in (0.45, 1.3, 5.0):
        seen = []

        def spy(A, b):
            seen.append((A, b))
            return eliminate(A, b)

        eliminate, M._eliminate = M._eliminate, spy
        try:
            solved(band_derived_set(delta)[0])
        finally:
            M._eliminate = eliminate
        yield f"delta_{delta}", *seen[0]


def test_elimination_matches_lapack_solve():
    # backward stable: |A x - b| <= 4 eps |A| |x| in the max norm (measured
    # at most 0.99 eps), and within 8 eps cond(A) of LAPACK's x (measured
    # at most 0.2 eps cond(A))
    eps = np.finfo(float).eps
    for name, A, b in moment_systems():
        x, want = M._eliminate(A, b), np.linalg.solve(A, b)
        scale = np.abs(A).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(A @ x - b).max() <= 4.0 * eps * scale, name
        assert (np.abs(x - want).max()
                <= 8.0 * eps * np.linalg.cond(A, np.inf) * np.abs(want).max()), name


@pytest.mark.parametrize("A", [np.zeros((2, 2)), [[1.0, 2.0], [2.0, 4.0]],
                               [[1.0, 0.0], [0.0, np.nan]], [[np.inf, 0.0], [0.0, 1.0]]],
                         ids=["zero", "rank_1", "nan", "inf"])
def test_elimination_of_a_singular_or_non_finite_matrix_raises(A):
    with pytest.raises(NoConvergence, match="pivot"):
        M._eliminate(np.array(A), np.ones(2))


def test_singular_moment_matrix_raises(monkeypatch):
    rules = M._gap_rules

    def weightless(E, m):
        t, w = rules(E, m)
        return t, np.zeros_like(w)

    monkeypatch.setattr(M, "_gap_rules", weightless)
    with pytest.raises(NoConvergence, match="singular"):
        solved(M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5))))


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


def section_bound(out, inn):
    """4e-16 times the larger of each pair's |ends|: about 2 ulp, the width
    at which sectioning stops a bracket (or sooner, where no float splits it)."""
    return 4e-16 * np.maximum(np.abs(out), np.abs(inn))


def halving_bisect(f, out, inn):
    """Roots of f bracketed by f(out) > 0 >= f(inn), all pairs halved
    together until each is within section_bound of its starting ends or no
    float splits it: the root finder sectioning replaced."""
    tol = section_bound(out, inn)
    for _ in range(200):
        mid = 0.5 * (out + inn)
        live = (np.abs(inn - out) > tol) & (mid != out) & (mid != inn)
        if not live.any():
            break
        pos = live & (f(mid) > 0.0)
        out, inn = np.where(pos, mid, out), np.where(live & ~pos, mid, inn)
    return 0.5 * (out + inn)


def section_cases():
    """(name, f(x, k), out, inn): f maps a (brackets, points) array and
    the bracket indices to values of the same shape."""
    rng = np.random.default_rng(5)
    n = 40
    root = rng.uniform(-50.0, 50.0, n)
    slope = rng.uniform(0.01, 100.0, n) * rng.choice([-1.0, 1.0], n)
    below, above = root - rng.uniform(1e-3, 30.0, n), root + rng.uniform(1e-3, 30.0, n)
    done = np.arange(n) % 7 == 0   # already adjacent floats
    below[done], above[done] = root[done], np.nextafter(root[done], math.inf)

    def monotone(x, k):   # increasing for slope > 0, decreasing otherwise
        d = x - root[k, None]
        return slope[k, None] * (d + d ** 3)

    up = slope > 0
    yield ("monotone", monotone, np.where(up, above, below),
           np.where(up, below, above))
    yield ("cosine", lambda x, k: np.cos(x), np.array([0.0]),
           np.array([3.0 * math.pi - 0.3]))
    # a staircase: both pairs' brackets hold both steps, and each pair's f
    # (the level less its boundary) changes sign at one of them
    steps = np.array([1.25, 1.75])
    yield ("staircase", lambda x, k: (x[..., None] > steps).sum(-1) - k[:, None] - 0.5,
           np.array([2.0, 2.0]), np.array([1.0, 1.0]))


def ends_of(f, out, inn):
    """f at each pair's out and inn end: the fends of `_section`."""
    return f(np.column_stack([out, inn]), np.arange(out.size)).T


@pytest.mark.parametrize("case", list(section_cases()), ids=lambda c: c[0])
def test_section_matches_halving(case):
    _, f, out, inn = case
    tol = section_bound(out, inn)
    points = []

    def counted(x, k):
        v = f(x, k)
        points.append((np.broadcast_to(k[:, None], x.shape).ravel(), x.ravel(), v.ravel()))
        return v

    got = M._section(counted, out, inn, ends_of(f, out, inn))
    want = halving_bisect(lambda x: f(x[:, None], np.arange(x.size))[:, 0],
                          out, inn)
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


@pytest.mark.parametrize("ends", ["signs", "f"])
@pytest.mark.parametrize("case", list(section_cases()), ids=lambda c: c[0])
def test_section_walks_the_levels_of_one_level_per_round(case, ends):
    # the look-ahead reads a level only where its guesses held, so its roots
    # are the one-level-per-round finder's bit for bit, whatever the end
    # values it guesses from
    _, f, out, inn = case
    fends = ends_of(f, out, inn) if ends == "f" else (np.ones(out.size), -np.ones(out.size))
    assert np.array_equal(M._section(f, out, inn, fends), one_level_section(f, out, inn))


def test_section_of_converged_brackets_calls_nothing():
    def never(x, k):
        raise AssertionError("f called on converged brackets")

    # 3 ulps apart, within 4e-16 times 1.9; equal ends; adjacent floats at
    # 0, where 4e-16 times the ends is below the float spacing
    out = np.array([1.9, 2.0, 0.0])
    inn = np.array([1.9 + 3 * np.spacing(1.9), 2.0, 5e-324])
    got = M._section(never, out, inn, (np.ones(3), -np.ones(3)))
    assert np.array_equal(got, 0.5 * (out + inn))


def critical_sets():
    """The pinned sets and the seeded random sets of the tests above."""
    yield "square_wave", SQUARE_WAVE
    for name in ("delta_0.45", "delta_1.3", "delta_5.0"):
        yield name, M.GapSet(PINNED[name]["b0"], tuple(map(tuple, PINNED[name]["gaps"])))
    for n in (1, 2, 3, 5, 8, 12, 20):
        rng = np.random.default_rng(n)
        for i in range(10):
            edges = np.sort(rng.uniform(0.1, 150.0, 2 * n))
            yield f"random_{n}_{i}", M.GapSet(-0.5, tuple(zip(edges[::2], edges[1::2])))


@pytest.mark.parametrize("E", [E for _, E in critical_sets()], ids=[n for n, _ in critical_sets()])
def test_critical_points_equal_one_level_per_round(monkeypatch, E):
    # the pinned sets' c are the LAPACK route's to 0 ulps (2 on delta_5.0)
    # through one level per round; the look-ahead must not move a bit
    got = M._roots(E)
    monkeypatch.setattr(M, "_section", one_level_section)
    assert np.array_equal(got, M._roots(E))


@pytest.mark.parametrize("delta", [0.45, 0.48, 0.51])
def test_benchmark_gap_sets_section_in_few_rounds(monkeypatch, delta):
    # the `periodic_gaps` sets: 3 gaps, each c to about 2 ulp in 10 levels
    E = PE.to_gap_set(PE.band_spectrum(P.PeriodicSquare(delta), 2 * delta, (-2.0, 150.0), 2048))
    section, rounds = M._section, []

    def counted(f, *args):
        return section(lambda x, k: rounds.append(1) or f(x, k), *args)

    monkeypatch.setattr(M, "_section", counted)
    solved(E)
    assert len(E.gaps) == 3 and 1 <= len(rounds) <= 5


def bits(*values):
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


@pytest.mark.parametrize("E", [SQUARE_WAVE, FREE], ids=["square_wave", "free"])
def test_martin_command_integrals_equal_the_separate_calls(monkeypatch, E):
    # the `martin` op: gap residuals, boundary values and the fit's excess
    # integrals in one quadrature call, the vertical segments in another,
    # each result bitwise what its public call gives alone
    z = np.array([-5.0, -0.5, 10.5, 42.84, 96.4, 30.0 + 2.0j, 100.0 + 0.5j, 5.0 + 1.0j])
    cp = solved(E)
    ev, fit = M.martin_function(E, cp.c, z), M.fit_a_from_martin(E, cp.c, _FIT_K)
    quad, calls = M.si.quad, []
    monkeypatch.setattr(M.si, "quad", lambda *args, **kw: calls.append(1) or quad(*args, **kw))
    got_cp, got_ev, got_fit = M._report(E, z, _FIT_K)
    assert len(calls) == (2 if E.gaps else 1)
    assert bits(*got_cp.c, *got_cp.residuals) == bits(*cp.c, *cp.residuals)
    assert bits(got_ev.value, got_ev.theta_real, got_fit) == bits(ev.value, ev.theta_real, fit)
    assert M._report(E, z)[2] is None


def integrals(*pieces):
    """A step of `_one_pass` whose value is the integrals of its one set."""
    return (yield pieces)


def test_one_pass_steps_equal_passes_of_their_own():
    # several steps in one pass, one of them with no part to integrate (an
    # empty piece) and one with a = -inf, each give their value bitwise as a
    # pass of its own
    sets = [(lambda x, i, e: np.cos(x) + i, [0.0, 1.0], [0.5, 2.0], [0.0, 1.0], [1.0, 3.0]),
            (lambda x, i, e: x * x, [1.0], [1.0], [0.0], [2.0]),
            (lambda x, i, e: np.exp(-x) * (i + 1), [-4.0, 2.0], [1.0, 5.0],
             [-math.inf, 2.0], [1.0, 5.0])]
    together = M._one_pass(*(integrals(*s) for s in sets))
    assert bits(*together) == bits(*(M._one_pass(integrals(*s))[0] for s in sets))
    assert [v.size for v in together] == [2, 1, 2] and together[1][0] == 0.0


def test_cdf_step_joined_with_residuals_equals_martin_measure_cdf():
    cp, lams = solved(SQUARE_WAVE), np.linspace(SQUARE_WAVE.b0, 150.0, 301)
    r, cdf = M._one_pass(M._gap_residuals(SQUARE_WAVE, cp.c), M._cdf(SQUARE_WAVE, cp.c, lams))
    assert bits(cdf) == bits(M.martin_measure_cdf(SQUARE_WAVE, cp.c, lams).cdf)
    assert bits(*r) == bits(*cp.residuals)


@pytest.mark.parametrize("failing", [("residuals", "fit"), ("residuals", "boundary"),
                                     ("boundary", "fit")], ids="+".join)
def test_martin_command_raises_what_the_separate_calls_raise(monkeypatch, failing):
    # when two steps of the pass fail, the error is the one the public calls
    # raise in their order: solve_critical_points, martin_function, the fit
    if "residuals" in failing:   # c at the gap midpoints fails the residual check
        monkeypatch.setattr(M, "_section", lambda f, out, inn, fends: 0.5 * (out + inn))
    if "fit" in failing:
        def ill_conditioned(u, y):
            raise FitIllConditioned("near-singular design matrix")

        monkeypatch.setattr(M, "_intercept", ill_conditioned)
    if "boundary" in failing:
        theta = M._theta_gapped

        def failing_theta(*args):   # the boundary values' quadrature fails
            _, *pieces = next(theta(*args))

            def fail(x, i, e):
                raise QuadratureFailure("boundary values above tolerance")

            yield (fail, *pieces)

        monkeypatch.setattr(M, "_theta_gapped", failing_theta)
    want = NoConvergence if "residuals" in failing else QuadratureFailure
    with pytest.raises(want):
        M._report(SQUARE_WAVE, np.array([-5.0, 10.5, 30.0 + 2.0j]), _FIT_K)


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
    got, = M._one_pass(M._gap_residuals(E, c))
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
    assert max(abs(*M._one_pass(M._gap_residuals(E, c)))) <= 1e-10
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


# offsets from b0 of the free-set test points: below b0, on b0, on the
# band, conjugate pairs and |Im z| = 1e-12 on both sides of b0
FREE_OFFSETS = [-3.0, -1e-3, 0.0, 0.7, 100.0, 2 + 1j, 2 - 1j, -1 + 3j, -1 - 3j,
                3 + 1e-12j, 3 - 1e-12j, -2 + 1e-12j, -2 - 1e-12j, 1e-12j]


@pytest.mark.parametrize("b0", [0.0, -1.0, 2.5])
def test_free_set_theta_is_the_principal_root(b0):
    # Theta = sqrt(z - b0) at x + i|y|: below b0, M = sqrt(b0 - x) and
    # Re Theta = 0; on the band, M = 0 and Re Theta = +sqrt(x - b0), where
    # the other branch, i sqrt(b0 - z), gives -sqrt(x - b0).  Measured
    # 9.6e-17 relative per component against 30 digits (correctly
    # rounded); the bound is 2**-52, a factor 2.3 above it.
    mp = pytest.importorskip("mpmath")
    E = M.GapSet(b0)
    zs = np.array([b0 + d for d in FREE_OFFSETS] + [1j, 2 + 1j, -0.5])
    ev = M.martin_function(E, (), zs)
    with mp.workdps(30):
        for z, m, re in zip(zs, ev.value, ev.theta_real):
            want = mp.sqrt(mp.mpc(z.real, abs(z.imag)) - b0)
            assert abs(m - want.imag) <= 2.0 ** -52 * abs(want.imag), z
            assert abs(re - want.real) <= 2.0 ** -52 * abs(want.real), z


def test_free_set_scalar_calls_are_bitwise_the_array_call():
    E = M.GapSet(-1.0)
    zs = np.array([-1.0 + d for d in FREE_OFFSETS]).reshape(2, -1)
    ev = M.martin_function(E, (), zs)
    assert ev.value.shape == ev.theta_real.shape == zs.shape
    for z, m, re in zip(zs.ravel(), ev.value.ravel(), ev.theta_real.ravel()):
        one = M.martin_function(E, (), z)
        assert (one.value.hex(), one.theta_real.hex()) == (m.hex(), re.hex()), z


def test_free_set_closed_form_matches_the_quadrature_route():
    # _theta_gapped, the route a set with gaps takes, gives on the free set
    # what martin_function gave before its closed form.  Measured 2.0e-16
    # relative per component; the bound 1e-15 is a factor 5 above it.
    for b0 in (0.0, -1.0, 2.5):
        E = M.GapSet(b0)
        zs = np.array([b0 + d for d in FREE_OFFSETS])
        ev = M.martin_function(E, (), zs)
        q, = M._one_pass(M._theta_gapped(E, (), zs.real, np.abs(zs.imag)))
        assert np.all(np.abs(ev.value - q.imag) <= 1e-15 * np.abs(q.imag))
        assert np.all(np.abs(ev.theta_real - q.real) <= 1e-15 * np.abs(q.real))


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
    assert got == pytest.approx(-1.0, abs=1e-7)


def test_fit_matches_a_constant_one_gap():
    cp = solved(ONE_GAP)
    a = M.a_constant(ONE_GAP, cp.c)
    fit = M.fit_a_from_martin(ONE_GAP, cp.c, np.linspace(50.0, 100.0, 12))
    assert abs(a - fit) <= 1e-7 * max(1.0, abs(a))


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
        A = mp.matrix([[1, 1 / mp.mpf(k) ** 2] for k in ks])
        want = float(mp.lu_solve(A.T * A, A.T * mp.matrix(y))[0])
    assert abs(M.fit_a_from_martin(E, c, ks) - want) <= 1e-13


def least_squares_intercept(u, y):
    """The exact least-squares intercept of y ~ a + beta u on the float data,
    in rationals, rounded once."""
    u, y = [Fraction(float(v)) for v in u], [Fraction(float(v)) for v in y]
    n, su, sy = len(u), sum(u), sum(y)
    suu, suy = sum(v * v for v in u), sum(v * w for v, w in zip(u, y))
    return float((suu * sy - su * suy) / (n * suu - su * su))


@pytest.mark.parametrize("E", [
    FREE, M.GapSet(-1.0), ONE_GAP, M.GapSet(0.0, ((1.0, 2.0), (5.0, 5.5))), SQUARE_WAVE,
    "delta_0.45", "delta_1.3"], ids=["free", "shifted", "one_gap", "two_gaps",
                                     "square_wave", "delta_0.45", "delta_1.3"])
def test_closed_form_fit_matches_lstsq(monkeypatch, E):
    # on the CLI's k grid: within 8 ulps of max |y| of LAPACK's lstsq and
    # within 2 of the exact least-squares intercept (measured at most 1.5
    # and 1.0).  The fitted a can be 100 times smaller than y, so in ulps
    # of a itself lstsq and the closed form differ by up to 255
    from schreg.cli import _FIT_K
    if isinstance(E, str):
        E = band_derived_set(float(E[6:]))[0]
    seen, intercept = [], M._intercept
    monkeypatch.setattr(M, "_intercept", lambda u, y: seen.append((u, y)) or intercept(u, y))
    a = M.fit_a_from_martin(E, solved(E).c, _FIT_K)
    (u, y), = seen
    ulp = np.spacing(np.abs(y).max())
    want, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(u), u]), y, rcond=None)
    assert abs(a - want[0]) <= 8 * ulp
    assert abs(a - least_squares_intercept(u, y)) <= 2 * ulp


def test_fit_conditioning_check_is_lapack_cond():
    # seeded k grids of 2 to 15 points, tightly clustered, whose design
    # [1, 1/k**2] has a condition number between 1e6 and 1e10 by
    # np.linalg.cond; grids within 1e-6 of the 1e8 threshold are skipped
    rng = np.random.default_rng(2)
    verdicts = []
    for _ in range(400):
        n = int(rng.integers(2, 16))
        ks = rng.uniform(1.0, 100.0) * (1.0 + 10 ** rng.uniform(-7, -1) * rng.uniform(-1, 1, n))
        u = 1.0 / (ks * ks)
        cond = np.linalg.cond(np.column_stack([np.ones(n), u]))
        if not 1e6 <= cond <= 1e10 or abs(cond / 1e8 - 1.0) <= 1e-6:
            continue
        try:
            M._intercept(u, np.zeros(n))
            rejected = False
        except FitIllConditioned:
            rejected = True
        verdicts.append((cond > 1e8, rejected))
    above = sum(want for want, _ in verdicts)
    assert above >= 50 and len(verdicts) - above >= 50
    assert all(want == got for want, got in verdicts)


# ---------------------------------------------------------------------------
# Martin measure


def test_free_measure_cdf():
    lams = np.linspace(0.0, 25.0, 60)
    cdf = M.martin_measure_cdf(FREE, (), lams)
    assert np.max(np.abs(cdf.cdf - np.sqrt(lams) / math.pi)) <= 1e-8
    one = M.martin_measure_cdf(FREE, (), np.array([math.pi ** 2]))
    assert one.cdf[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("b0", [0.0, -1.0, 2.5])
def test_free_set_cdf_in_closed_form(b0):
    # sqrt(lambda - b0) / pi: measured 2.8e-16 relative against 30 digits,
    # the worst case of its three roundings; the bound is 2**-51, a factor
    # 1.6 above it.  A grid starting 1e-13 below b0, which check_window
    # allows, reads 0 there without taking the root of a negative number.
    mp = pytest.importorskip("mpmath")
    E = M.GapSet(b0)
    lams = np.linspace(b0, b0 + 25.0, 200)
    cdf = M.martin_measure_cdf(E, (), lams).cdf
    assert cdf[0] == 0.0
    with mp.workdps(30):
        want = [mp.sqrt(mp.mpf(lam) - b0) / mp.pi for lam in lams]
        assert all(abs(g - w) <= 2.0 ** -51 * w for g, w in zip(cdf, want))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        low = M.martin_measure_cdf(E, (), np.linspace(b0 - 1e-13, b0 + 25.0, 200)).cdf
    assert low[0] == 0.0 and np.all(low[1:] > 0.0)


def test_free_set_diagnostics_run_no_quadrature(monkeypatch):
    calls = []
    quad = M.si.quad
    monkeypatch.setattr(M.si, "quad", lambda *a, **kw: calls.append(1) or quad(*a, **kw))
    p = P.Decaying(1.0, 2.0)
    R.regularity_report(p, FREE, R.ReportConfig(x_max=400.0, dos_x=200.0))
    R.dos_comparison(p, M.GapSet(-1.0), 200.0, (-1.0, 10.0), ())
    assert calls == []
    M.martin_function(ONE_GAP, solved(ONE_GAP).c, 1j)   # a gapped set integrates
    assert calls


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


def square_wave_discriminant(delta, z):
    """Closed-form discriminant of the +-1 square wave of period 2 delta at
    complex z: 2 cos(k1 delta) cos(k2 delta) - (k1/k2 + k2/k1) sin(k1 delta)
    sin(k2 delta), k1 = sqrt(z - 1), k2 = sqrt(z + 1), with each sin(k
    delta) / k taken as a sinc so that z = +-1 needs no limit."""
    z = np.asarray(z, dtype=complex)
    k1, k2 = np.sqrt(z - 1.0), np.sqrt(z + 1.0)
    s1 = np.sinc(k1 * delta / np.pi) * delta
    s2 = np.sinc(k2 * delta / np.pi) * delta
    return 2.0 * np.cos(k1 * delta) * np.cos(k2 * delta) - (k1 * k1 + k2 * k2) * s1 * s2


def square_wave_gap_set(delta, window=(-2.0, 150.0), spacing=1e-3):
    """Gap set of the +-1 square wave of period 2 delta inside window, from
    the closed-form discriminant (two constant cells) sampled every
    `spacing` and brentq edges; bands or gaps narrower than the spacing
    may be missed."""
    from scipy.optimize import brentq

    def disc(lam):
        return square_wave_discriminant(delta, lam).real

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


# ---------------------------------------------------------------------------
# Floquet theory of the square wave: M is its Lyapunov exponent, the Martin
# measure its rotation number


@functools.cache
def band_derived_set(delta):
    """The gap set `band_spectrum` finds for PeriodicSquare(delta) below
    3000, and its critical points.  Each edge is sectioned to 4e-16 times
    its magnitude (about 2 ulp) or until no float splits its bracket: delta
    = 5's first band is 5.1e-4 wide, and there Delta(b0) = 2 + 1.0e-7, so
    edges 1.3e-11 off would move the CDF by 3.3e-9."""
    E = PE.to_gap_set(PE.band_spectrum(P.PeriodicSquare(delta), 2.0 * delta,
                                       (-2.0, 3000.0), 2048))
    return E, solved(E).c


def floquet_m_error(E, c, delta):
    """Largest |M(z) - log|rho| / T| / (log|rho| / T), rho + 1/rho = Delta(z)
    and |rho| >= 1, over z below b0, in the gaps wider than 0.2 and off the
    axis.  Every z is far below the truncation at 3000.  No z is in a
    narrower gap: there M is small and the two sides differ by up to 8e-11
    absolute (2.3e-5 relative in the gap 5.7e-4 wide at 1755 on delta =
    0.45), whether the set is cut at 3000 or 6000 and whether its edges
    are sectioned to 1e-10 or to 2 ulp."""
    wide = [0.5 * (a + b) for a, b in E.gaps if b - a > 0.2]
    zs = np.array([E.b0 - d for d in (0.5, 3.0, 30.0, 300.0)] + wide
                  + [complex(x, y) for x in (E.b0 - 1.0, wide[0], 100.0, 1000.0)
                     for y in (0.1, 2.0, 20.0)])
    d = square_wave_discriminant(delta, zs)
    r = np.sqrt(d * d - 4.0)
    want = np.log(np.maximum(np.abs(d + r), np.abs(d - r)) / 2.0) / (2.0 * delta)
    return np.max(np.abs(M.martin_function(E, c, zs).value - want) / want)


def floquet_rotation(E, delta):
    """lambda at 1/10, 1/2 and 9/10 of each band starting below 1000 and in
    the middle of each gap after it, and theta / (pi T) there.  In band n
    (from 0) the rotation angle theta is n pi + arccos((-1)**n Delta / 2);
    over the gap after it, (n + 1) pi."""
    lam, theta = [], []
    for n, ((lo, hi), (a, b)) in enumerate(zip(E.bands(), E.gaps)):
        if lo > 1000.0:
            break
        x = lo + (hi - lo) * np.array([0.1, 0.5, 0.9])
        turn = np.arccos((-1) ** n * square_wave_discriminant(delta, x).real / 2.0)
        lam += [*x, 0.5 * (a + b)]
        theta += [*(n * math.pi + turn), (n + 1) * math.pi]
    return np.array(lam), np.array(theta) / (2.0 * math.pi * delta)


def floquet_cdf_error(E, c, delta):
    """Largest relative gap between the Martin CDF and theta / (pi T) at the
    floquet_rotation points."""
    lam, want = floquet_rotation(E, delta)
    cdf = M.martin_measure_cdf(E, c, lam).cdf
    return np.max(np.abs(cdf - want) / want)


# measured 1.3e-10, 4.9e-11 and 1.4e-11 relative on M, 8.9e-11, 3.1e-11
# and 5.4e-11 on the CDF (delta 0.45, 1.3, 5); the bound leaves a factor
# 3.7 above the largest.  A critical point moved by 1e-6 of its gap reads
# 3.2e-6, 3.6e-6 and 5.0e-6 on M.
FLOQUET_TOL = 5e-10


@pytest.mark.parametrize("delta", [0.45, 1.3, 5.0])
def test_martin_function_is_the_floquet_lyapunov_exponent(delta):
    E, c = band_derived_set(delta)
    assert floquet_m_error(E, c, delta) <= FLOQUET_TOL


@pytest.mark.parametrize("delta", [0.45, 1.3, 5.0])
def test_martin_measure_is_the_floquet_rotation_number(delta):
    E, c = band_derived_set(delta)
    assert floquet_cdf_error(E, c, delta) <= FLOQUET_TOL


@pytest.mark.parametrize("delta", [0.45, 1.3, 5.0])
def test_floquet_m_test_sees_a_critical_point_off_by_a_millionth_of_its_gap(delta):
    E, c = band_derived_set(delta)
    a, b = E.gaps[0]
    moved = (c[0] + 1e-6 * (b - a), *c[1:])
    assert floquet_m_error(E, moved, delta) > FLOQUET_TOL


@pytest.mark.parametrize("x", [500.0, 2000.0])
@pytest.mark.parametrize("delta", [0.45, 1.3, 5.0])
def test_zero_count_is_the_floquet_rotation_number_within_2_over_x(delta, x):
    # Sturm oscillation bounds the count error by a few eigenvalues: measured
    # max |count/x - theta/(pi T)| x = 1.00 to 1.11 over these six cases
    E, _ = band_derived_set(delta)
    lam, want = floquet_rotation(E, delta)
    count = PR.zero_counting_cdf(P.PeriodicSquare(delta), x, lam).cdf
    assert np.max(np.abs(count - want)) <= 2.0 / x
