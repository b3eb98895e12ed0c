"""Potential families: cells, exact running integrals, serialization.

Pointwise values and jumps come from the test-side description in
`pointwise`, which the cells of `segments` are checked against.
"""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import pointwise as PW
from blocks import patterns
from schreg import potentials as P, propagation as PR


def bump_unit():
    """Rectangular bump of height 1 on [0, 1]: integral exactly 1."""
    return P.PiecewiseConstant(values=(1.0, 0.0), breakpoints=(1.0,))


def sparse_squares():
    """Unit bumps at positions n^2 for n = 2..14."""
    return P.SparseBumps(bump=bump_unit(),
                         positions=tuple(float(n * n) for n in range(2, 15)),
                         sparse_from=0)


ALL_FAMILIES = [
    P.Constant(1.0),
    P.PiecewiseConstant(values=(2.0, -1.0, 0.5), breakpoints=(1.0, 2.5)),
    P.Decaying(1.0, 2.0),
    P.Decaying(0.5, 1.0),
    P.PeriodicSquare(0.5),
    P.OscillatingExample(),
    sparse_squares(),
    P.Random(seed=11, cell_width=1.0, low=0.0, high=1.0),
    P.Tabulated(grid=(0.0, 0.5, 1.25, 3.0), values=(1.0, -2.0, 0.25, 0.0)),
]


# ---------------------------------------------------------------------------
# construction validation


def test_piecewise_constant_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        P.PiecewiseConstant(values=(1.0, 2.0), breakpoints=(1.0, 2.0))


def test_piecewise_constant_rejects_unsorted_breakpoints():
    with pytest.raises(ValueError):
        P.PiecewiseConstant(values=(1.0, 2.0, 3.0), breakpoints=(2.0, 1.0))


def test_sparse_bumps_rejects_noncompact_bump():
    with pytest.raises(ValueError):
        P.SparseBumps(bump=P.PiecewiseConstant(values=(1.0, 2.0),
                                               breakpoints=(1.0,)),
                      positions=(0.0, 4.0))


def test_sparse_bumps_rejects_overlap():
    with pytest.raises(ValueError):
        P.SparseBumps(bump=bump_unit(), positions=(0.0, 0.5))


def test_sparse_bumps_rejects_shrinking_gaps():
    with pytest.raises(ValueError):
        P.SparseBumps(bump=bump_unit(), positions=(0.0, 10.0, 15.0),
                      sparse_from=0)


def test_tabulated_requires_grid_from_zero():
    with pytest.raises(ValueError):
        P.Tabulated(grid=(0.5, 1.0), values=(1.0, 2.0))


def test_random_rejects_bad_interval():
    with pytest.raises(ValueError):
        P.Random(seed=1, cell_width=1.0, low=2.0, high=1.0)


def test_random_seed_is_64_bits():
    P.Random(seed=2**64 - 1, cell_width=1.0, low=0.0, high=1.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            P.Random(seed=seed, cell_width=1.0, low=0.0, high=1.0)


# ---------------------------------------------------------------------------
# the pointwise description


def test_evaluate_right_continuous_at_breakpoints():
    p = P.PiecewiseConstant(values=(2.0, -1.0, 0.5), breakpoints=(1.0, 2.5))
    assert PW.evaluate(p, 1.0) == -1.0
    assert PW.evaluate(p, 2.5) == 0.5
    assert PW.evaluate(p, 0.999999) == 2.0


def test_decaying_formula():
    p = P.Decaying(3.0, 2.0)
    for x in (0.0, 0.7, 5.0):
        assert PW.evaluate(p, x) == pytest.approx(3.0 / (1 + x) ** 2, rel=1e-15)


def test_periodic_square_values_and_period():
    p = P.PeriodicSquare(0.25)
    assert PW.evaluate(p, 0.0) == 1.0
    assert PW.evaluate(p, 0.25) == -1.0
    assert PW.evaluate(p, 0.5) == 1.0
    assert PW.evaluate(p, 7.1) == PW.evaluate(p, 7.1 + 0.5)


def test_oscillating_sign_pattern():
    p = P.OscillatingExample()
    # on [n-1, n) the sign alternates every 1/(2n); block n=2 covers [1, 2)
    assert PW.evaluate(p, 1.0) == 1.0
    assert PW.evaluate(p, 1.0 + 0.26) == -1.0
    assert PW.evaluate(p, 1.0 + 0.51) == 1.0
    assert abs(PW.evaluate(p, 3.7)) == 1.0


def test_sparse_bumps_support():
    p = sparse_squares()
    assert PW.evaluate(p, 4.5) == 1.0   # inside the bump at 4
    assert PW.evaluate(p, 5.5) == 0.0   # between bumps
    assert PW.evaluate(p, 196.5) == 1.0


def random_cells(p, x0, x1):
    (block,) = P.segments(p, x0, x1, 1.0)
    return block.values.tolist()


def test_random_reproducible_and_order_independent():
    a = P.Random(seed=5, cell_width=0.5, low=-1.0, high=2.0)
    b = P.Random(seed=5, cell_width=0.5, low=-1.0, high=2.0)
    xs = [10.3, 2000.7, 0.1, 512.0, 10.3]
    va = [PW.evaluate(a, x) for x in xs]
    vb = [PW.evaluate(b, x) for x in reversed(xs)]
    assert va == list(reversed(vb))
    assert all(-1.0 <= v <= 2.0 for v in va)
    c = P.Random(seed=6, cell_width=0.5, low=-1.0, high=2.0)
    assert PW.evaluate(c, 10.3) != va[0]
    # the library's cells: windows taken in either order, overlapping or
    # not, give each cell the value it has in one window from 0
    windows = [(1000.0, 1010.0), (0.0, 600.0), (250.25, 1005.5), (3.7, 3.9)]
    first = [random_cells(a, *w) for w in windows]
    assert [random_cells(b, *w) for w in reversed(windows)] == first[::-1]
    whole = random_cells(a, 0.0, 1010.0)
    for (x0, _), values in zip(windows, first):
        i0 = int(x0 // 0.5)
        assert values == whole[i0:i0 + len(values)]


def test_splitmix64_oracle_gives_the_reference_outputs():
    # the first outputs of the reference SplitMix64 seeded with 1234567
    assert PW.splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                         9817491932198370423]


RANDOM_SEEDS = [0, 5, 7, 2**63 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", RANDOM_SEEDS, ids=str)
def test_random_values_equal_the_sequential_generator(seed):
    # bit for bit, on windows that start at 0, past 0 and inside a cell
    p = P.Random(seed=seed, cell_width=0.5, low=-1.0, high=2.0)
    ref = PW.random_values(p, 3000)
    for i0, i1 in [(0, 3000), (1, 2), (1023, 1025), (2047, 3000), (1499, 1500)]:
        assert random_cells(p, i0 * 0.5, i1 * 0.5) == ref[i0:i1]
    assert random_cells(p, 10.3, 700.1) == ref[20:1401]


@pytest.mark.parametrize("seed", RANDOM_SEEDS, ids=str)
def test_random_draws_are_uniform(seed):
    # 1e5 draws on [0, 1).  Measured over these seeds: |mean - 1/2| at most
    # 1.9e-3 (2.1 sigma, sigma = 1/sqrt(12 n)) and a KS distance to the
    # uniform law of at most 3.8e-3.  Bounds: 4 sigma = 3.65e-3 for the
    # mean, and 1.95/sqrt(n) = 6.2e-3, the KS test's 0.1% critical value.
    n = 10**5
    u = np.sort(random_cells(P.Random(seed=seed, cell_width=1.0, low=0.0, high=1.0), 0.0, n))
    assert len(u) == n and 0.0 <= u[0] and u[-1] < 1.0
    assert abs(u.mean() - 0.5) < 4 / math.sqrt(12 * n)
    k = np.arange(1, n + 1)
    assert max(np.max(k / n - u), np.max(u - (k - 1) / n)) < 1.95 / math.sqrt(n)


# ---------------------------------------------------------------------------
# exact running integrals


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_prefix_integral_matches_quadrature(p):
    hi = 7.3
    pts = [t for t in PW.discontinuities(p, 0.0, hi)]
    for x in (0.9, 3.1, hi):
        inner = [t for t in pts if t < x]
        ref = quad(lambda t: PW.evaluate(p, t), 0.0, x,
                   points=inner, limit=max(50, 2 * len(inner) + 10))[0]
        assert P.prefix_integral(p, x) == pytest.approx(ref, abs=1e-9)
        ref_abs = quad(lambda t: abs(PW.evaluate(p, t)), 0.0, x,
                       points=inner, limit=max(50, 2 * len(inner) + 10))[0]
        assert PW.abs_integral(p, x) == pytest.approx(ref_abs, abs=1e-9)


def test_periodic_square_period_integral_is_exactly_zero():
    for delta in (0.25, 0.5, 1.0):
        p = P.PeriodicSquare(delta)
        assert P.prefix_integral(p, 2 * delta) == 0.0
        assert P.prefix_integral(p, 6 * delta) == 0.0


def test_oscillating_integer_prefix_is_exactly_zero():
    p = P.OscillatingExample()
    for n in (1, 2, 5, 17):
        assert P.prefix_integral(p, float(n)) == 0.0
        assert PW.abs_integral(p, float(n)) == float(n)


@given(st.integers(0, 2 ** 32 - 1))
def test_prefix_bound_random_potential(seed):
    p = P.Random(seed=seed, cell_width=1.0, low=-1.0, high=1.0)
    x = 37.5
    assert abs(P.prefix_integral(p, x)) <= PW.abs_integral(p, x) + 1e-12
    # additivity against the cell structure
    a = P.prefix_integral(p, 10.0)
    b = P.prefix_integral(p, x) - a
    ref_b = quad(lambda t: PW.evaluate(p, t), 10.0, x,
                 points=list(np.arange(11.0, 37.0)), limit=80)[0]
    assert b == pytest.approx(ref_b, abs=1e-9)


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_integral_of_a_grid_is_bitwise_pointwise(p):
    # one _integral call over a seeded grid answers each point bit for bit as
    # prefix_integral at it alone does: on every jump and cell edge (multiples
    # of delta, Random's cells, the half-periods of OscillatingExample), on
    # the integers and at random points
    rng = np.random.default_rng(39)
    xs = np.unique(np.concatenate([rng.uniform(0.0, 30.0, 200), np.arange(31.0),
                                   PW.discontinuities(p, 0.0, 30.0)]))
    got = p._integral(xs)
    want = np.array([P.prefix_integral(p, x) for x in xs])
    assert got.shape == xs.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [3, 11])
def test_random_prefix_sums_stay_near_the_exact_sum(seed):
    # Random's integral is a running sum over its cells; against math.fsum it
    # read at most 1.26e-14 relative over 1e5 cells of one sign (seeds 3, 7, 11)
    p = P.Random(seed, 1.0, 0.0, 1.0)
    xs = np.linspace(10.0, 1e5, 32)
    i = np.floor(xs).astype(int)
    vals = P._random_values(p, 0, i[-1] + 1)
    want = np.array([math.fsum(vals[:k]) + vals[k] * (x - k) for k, x in zip(i, xs)])
    assert np.all(np.abs(p._integral(xs) - want) <= 2e-14 * want)


# ---------------------------------------------------------------------------
# cesaro_trace


def test_cesaro_constant_is_flat():
    grid = np.array([1.0, 10.0, 100.0])
    tr = P.cesaro_trace(P.Constant(1.0), grid)
    assert np.all(tr.mean == 1.0)
    assert all(PW.abs_integral(P.Constant(1.0), x) / x == 1.0 for x in grid)


def test_cesaro_oscillating_integer_grid():
    grid = np.array([1.0, 2.0, 3.0, 10.0, 50.0])
    p = P.OscillatingExample()
    tr = P.cesaro_trace(p, grid)
    assert np.all(tr.mean == 0.0)       # signed average exactly zero
    # |V| average exactly one
    assert all(PW.abs_integral(p, x) / x == 1.0 for x in grid)


def test_cesaro_sparse_bumps_bound():
    p = sparse_squares()
    # at x = position of bump n the mean is at most (#bumps so far + 1)/x
    for n in (4, 8, 14):
        x = float(n * n)
        tr = P.cesaro_trace(p, np.array([x]))
        count = sum(1 for q in range(2, 15) if q * q < x)
        assert tr.mean[0] <= (count + 1) / x + 1e-12


def test_cesaro_trace_makes_one_integral_call(monkeypatch):
    calls = []
    integral = P.Decaying._integral
    monkeypatch.setattr(P.Decaying, "_integral",
                        lambda self, x: calls.append(np.shape(x)) or integral(self, x))
    p, xs = P.Decaying(1.2, 2.0), np.geomspace(2.0, 2000.0, 128)
    tr = P.cesaro_trace(p, xs)
    assert calls == [(128,)]
    assert np.array_equal(tr.mean, [P.prefix_integral(p, x) / x for x in xs])


@pytest.mark.parametrize("grid", [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, math.inf],
                                  [1.0, math.nan]])
def test_cesaro_rejects_bad_grids(grid):
    with pytest.raises(ValueError, match="positive, finite and strictly increasing"):
        P.cesaro_trace(P.Random(1, 1.0, 0.0, 1.0), np.array(grid))


def test_cesaro_requires_increasing_grid():
    with pytest.raises(ValueError):
        P.cesaro_trace(P.Constant(0.0), np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# segments


def assert_graded_widths(p, x0, widths, step):
    """Decaying cells: positive and at most step*(1+x_right)**q wide.

    q = (rate+1)/3, capped at 1 so that no cell outgrows step*(1+x).
    """
    right = x0 + np.cumsum(widths)
    cap = step * (1.0 + right) ** min((p.rate + 1.0) / 3.0, 1.0)
    assert np.all(widths > 0)
    assert np.all(widths <= cap * (1.0 + 1e-9))


@pytest.mark.parametrize("rate", [0.05, 1.0, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 3.0, 50.0])
def test_decaying_mesh_is_graded(rate):
    # a window's cells are those of the walk from 0 that cover it, bit for
    # bit, the two end ones cut; over whole mesh cells they hold V's mass
    p = P.Decaying(1.5, rate)
    for x0, x1, step in [(0.0, 1e4, 0.02), (3.7, 2.5e3, 0.1), (0.0, 50.0, 1e-3),
                         (10.0, 12.5, 7.0)]:
        (block,) = P.segments(p, x0, x1, step)
        assert_graded_widths(p, x0, block.widths, step)
        assert float(np.sum(block.widths)) == pytest.approx(x1 - x0, rel=1e-12)
        (walk,) = P.segments(p, 0.0, x1, step)
        n = len(walk.widths) - len(block.widths)
        assert block.values.tobytes() == walk.values[n:].tobytes()
        assert block.widths[1:-1].tobytes() == walk.widths[n + 1:-1].tobytes()
        edges = PW.mesh_edges(p, step, x0, x1)
        a, b = edges[0], edges[-1]
        (whole,) = P.segments(p, a, b, step)
        mass = P.prefix_integral(p, b) - P.prefix_integral(p, a)
        assert float(whole.widths @ whole.values) == pytest.approx(mass, rel=1e-9)
    (block,) = P.segments(p, 10.0, 12.5, 7.0)   # step wider than the window
    assert len(block.widths) == 1


@pytest.mark.parametrize("rate", [2.0, 1.0])
@pytest.mark.parametrize("w", [1e-9, 1e-12])
def test_decaying_narrow_cell_average_has_no_cancellation(rate, w):
    # a difference of the running integral at the two edges loses about
    # log10(1/w) digits of the average; over so narrow a mesh cell the
    # average is V at the midpoint to well within 1e-14
    p = P.Decaying(1.0, rate)
    (block,) = P.segments(p, 5.0, 5.0 + 20 * w, w)
    edges = PW.mesh_edges(p, w, 5.0, 5.0 + 20 * w)
    assert len(block.values) == len(edges) - 1 >= 3
    for value, a, b in zip(block.values[1:-1], edges[1:-1], edges[2:-1]):
        assert value == pytest.approx(PW.evaluate(p, (a + b) / 2), rel=1e-14)
    # a window that narrow inside a coarser mesh cell carries that cell's value
    (narrow,) = P.segments(p, 5.0, 5.0 + w, 0.02)
    (walk,) = P.segments(p, 0.0, 5.0 + w, 0.02)
    assert narrow.values.tolist() == [walk.values[-1]]


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_segment_masses_reproduce_prefix_integral(p):
    x1 = 9.25
    total = 0.0
    width = 0.0
    for block in P.segments(p, 0.0, x1, 0.125):
        for w, v, reps in patterns(block):
            w = np.asarray(w, dtype=float)
            v = np.asarray(v, dtype=float)
            assert np.all(w > 0)
            if isinstance(p, P.Decaying):  # graded: cells widen with x
                assert_graded_widths(p, 0.0, w, 0.125)
            total += reps * float(w @ v)
            width += reps * float(np.sum(w))
    assert width == pytest.approx(x1, abs=1e-12)
    if isinstance(p, P.Decaying):
        # the last cell is cut from its mesh cell, whose average it keeps:
        # the mass holds up to the last whole cell
        total, width = total - w[-1] * v[-1], width - w[-1]
    assert total == pytest.approx(P.prefix_integral(p, width), abs=1e-10)


def cross_check_windows(p, rng):
    """Random windows; windows that start or end on a jump or an integer
    (multiples of delta and bump edges among them); 1e-12-wide windows,
    some of them on or around a jump."""
    for _ in range(60):
        x0 = float(rng.uniform(0.0, 20.0))
        yield x0, x0 + float(rng.uniform(0.01, 12.0))
    points = sorted({*PW.discontinuities(p, 0.0, 20.0), *map(float, range(1, 20))})
    for i in rng.integers(0, len(points), 30):
        a = points[i]
        yield a, a + float(rng.uniform(0.01, 5.0))
        yield max(0.0, a - float(rng.uniform(0.01, 5.0))), a
        if i + 1 < len(points):
            yield a, points[min(i + int(rng.integers(1, 6)), len(points) - 1)]
        yield a, a + 1e-12
        yield a - 1e-12, a
        yield a - 1e-12, a + 1e-12
    for x0 in rng.uniform(0.0, 20.0, 10):
        yield float(x0), float(x0) + 1e-12


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_segment_edges_are_the_discontinuities(p):
    """The two descriptions of V agree: cells end at the pointwise jumps, and
    a step family's cell carries V at its midpoint.  Decaying's cells end at
    its mesh edges and carry mesh cell averages instead
    (test_decaying_mesh_is_graded)."""
    rng = np.random.default_rng(5)
    for x0, x1 in cross_check_windows(p, rng):
        runs = [r for b in P.segments(p, x0, x1, x1 - x0) for r in patterns(b)]
        widths, values = expand(runs)
        edges = x0 + np.cumsum(widths)
        assert edges[-1] == pytest.approx(x1, abs=1e-12)
        if isinstance(p, P.Decaying):
            jumps = [e for e in PW.mesh_edges(p, x1 - x0, x0, x1) if x0 < e < x1]
        else:
            jumps = PW.discontinuities(p, x0, x1)
        assert len(jumps) == len(edges) - 1
        assert np.allclose(edges[:-1], jumps, rtol=0.0, atol=1e-12)
        if not isinstance(p, P.Decaying):
            bounds = [x0, *jumps, x1]
            mids = [(a + b) * 0.5 for a, b in zip(bounds, bounds[1:])]
            assert values.tolist() == [PW.evaluate(p, m) for m in mids], (x0, x1)


def expand(runs):
    """The widths and the values of (widths, values, n) runs, listed out."""
    return (np.concatenate([np.tile(w, n) for w, _, n in runs]),
            np.concatenate([np.tile(v, n) for _, v, n in runs]))


def commute_windows(p, rng):
    """Seeded x0 < xm < x1 in [0, 20]: at random, and on or one ulp either
    side of cell edges (jumps, integers, Decaying's mesh edges at step 1/8)."""
    for _ in range(40):
        yield sorted(float(x) for x in rng.uniform(0.0, 20.0, 3))
    if isinstance(p, P.Decaying):
        edges = PW.mesh_edges(p, 0.125, 0.0, 20.0)
    else:
        edges = [*PW.discontinuities(p, 0.0, 20.0), *map(float, range(1, 20))]
    edges = sorted(set(edges) - {0.0})
    for _ in range(60):
        ends = sorted(rng.choice(len(edges), 3, replace=False))
        yield [edges[i] if s == 0 else math.nextafter(edges[i], s * math.inf)
               for i, s in zip(ends, rng.integers(-1, 2, 3))]


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_cutting_commutes(p):
    # the cells of [x0, xm) then those of [xm, x1) are those of [x0, x1),
    # the cell that straddles xm (if one does) split in two: every window
    # cuts one step function
    def cells(a, b):
        return expand([r for blk in P.segments(p, a, b, 0.125) for r in patterns(blk)])

    rng = np.random.default_rng(43)
    for x0, xm, x1 in commute_windows(p, rng):
        widths, values = cells(x0, x1)
        (wl, vl), (wr, vr) = cells(x0, xm), cells(xm, x1)
        split = len(vl) + len(vr) - len(values)
        assert split in (0, 1), (x0, xm, x1)
        assert np.concatenate([vl, vr[split:]]).tobytes() == values.tobytes(), (x0, xm, x1)
        assert vl[len(vl) - split:].tobytes() == vr[:split].tobytes(), (x0, xm, x1)
        if split:   # the straddling cell's two parts, joined
            wl, wr = np.append(wl[:-1], wl[-1] + wr[0]), wr[1:]
        assert np.allclose(np.concatenate([wl, wr]), widths, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("w", [0.1, 0.3, 0.7, 1 / 3, 0.02, 1.1])
def test_random_windows_lose_no_sliver(w):
    # a window from or to one of the three floats nearest k w with
    # w <= x0 <= x1 <= 2 x0 has exact cell widths (Sterbenz), so they sum to
    # x1 - x0 exactly unless the cut drops a sliver at either end
    p = P.Random(seed=7, cell_width=w, low=-1.0, high=2.0)
    rng = np.random.default_rng(17)
    lost = []
    for k in range(2, 1000):
        x = k * w
        for a in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
            for x0, x1 in ((a, a * float(rng.uniform(1.0, 2.0))),
                           (max(w, a * float(rng.uniform(0.5, 1.0))), a)):
                (block,) = P.segments(p, x0, x1, 0.02)
                if math.fsum(block.widths) != x1 - x0:
                    lost.append((x0, x1))
    assert lost == []


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_empty_window_has_no_cells(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 5.0, 7.25):
            blocks = list(P.segments(p, x, x, 0.02))
            assert sum(len(w) * n for b in blocks for w, _, n in patterns(b)) == 0
            # the propagation kernel leaves its state (None: the identity) as it is
            assert PR._walk(p, x, x, np.array([-1.0, 3.0]), 0.02) is None
            assert PR._walk(p, x, x, np.array([-1.0 + 1j]), 0.02) is None


def test_tabulated_matches_piecewise_constant_bitwise():
    grid = (0.0, 0.5, 1.25, 3.0)
    values = (1.0, -2.0, 0.25, 0.0)
    tab = P.Tabulated(grid, values)
    pc = P.PiecewiseConstant(grid[1:], values)
    for x in [*grid, *np.linspace(0.0, 4.0, 37)]:
        assert PW.evaluate(tab, x) == PW.evaluate(pc, x)
        assert P.prefix_integral(tab, x) == P.prefix_integral(pc, x)
        assert PW.abs_integral(tab, x) == PW.abs_integral(pc, x)
    for x0, x1 in [(0.0, 4.0), (0.3, 1.25), (0.5, 2.9), (1.0, 1.1)]:
        for a, b in zip(P.segments(tab, x0, x1, 0.1), P.segments(pc, x0, x1, 0.1),
                        strict=True):
            assert a.widths.tobytes() == b.widths.tobytes()
            assert a.values.tobytes() == b.values.tobytes()


def test_segments_use_repeat_blocks_for_periodic_runs():
    blocks = list(P.segments(P.PeriodicSquare(0.5), 0.0, 100.0, 0.25))
    assert any(isinstance(b, P.RepeatBlock) and b.count > 10 for b in blocks)
    blocks = list(P.segments(P.OscillatingExample(), 0.0, 50.0, 1.0))
    assert any(isinstance(b, P.RepeatBlock) for b in blocks)


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.47, 0.7, 1.3, 5.0])
def test_whole_square_wave_periods_are_one_run(delta):
    # [0, 2 m delta) is m whole periods, one pattern repeated m times, though
    # 2 m delta / (2 delta) rounds below m at m = 3, 6, 12, 24, 29 and 48 for
    # delta = 0.7, at 5, 10, 20 and 40 for 0.47 and at 7, 14 and 28 for 1.3
    p = P.PeriodicSquare(delta)
    for m in (*range(2, 51), 10 ** 3, 10 ** 5):
        (block,) = P.segments(p, 0.0, 2 * m * delta, 1e-3)
        assert isinstance(block, P.RepeatBlock) and block.counts.tolist() == [m], m
        assert block.widths.tolist() == [[delta], [delta]]
        assert block.values.tolist() == [[1.0], [-1.0]]


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.47, 0.7, 1.3, 5.0])
def test_whole_square_wave_periods_lie_inside_the_window(delta):
    # period k ends at fl(k P), P = 2 delta; x / P may round either way, yet
    # a window ending one float below fl(k P) holds k - 1 whole periods, not
    # k, and a window starting at fl(k P) starts with the run, not with cells
    p = P.PeriodicSquare(delta)
    for k in range(1, 200):
        x = k * 2 * delta
        if k >= 3:
            runs = [b.counts.tolist() for b in P.segments(p, 0.0, math.nextafter(x, 0.0), 1e-3)
                    if isinstance(b, P.RepeatBlock)]
            assert runs == [[k - 1]], k
        first = next(P.segments(p, x, x + 20 * delta, 1e-3))
        assert isinstance(first, P.RepeatBlock), k


def reference_oscillating_blocks(x0, x1):
    """OscillatingExample's cells over [x0, x1) as (widths, values, count),
    one per unit block: the per-block generator that runs replaced, with a
    whole block n as its cell pair 1/(2n) wide repeated n times."""
    for n in range(math.floor(x0) + 1, math.floor(x1) + 2):
        lo, hi = max(x0, n - 1.0), min(x1, float(n))
        if hi <= lo:
            continue
        w = 1.0 / (2.0 * n)
        if lo == n - 1.0 and hi == float(n):
            yield np.array([w, w]), np.array([1.0, -1.0]), n
        else:
            block = P._wave_cells(w, n - 1.0, lo, hi)
            yield block.widths, block.values, 1


def oscillating_windows(rng):
    """Seeded windows: fractional ends, inside one block, x0 in block 1,
    integer ends, and windows across one or more 4,096-pattern cuts."""
    for _ in range(40):
        x0 = float(rng.uniform(0.0, 300.0))
        yield x0, x0 + float(rng.uniform(0.0, 60.0))
    for _ in range(10):
        k = float(rng.integers(0, 500))
        yield k + float(rng.uniform(0.0, 0.5)), k + float(rng.uniform(0.5, 1.0))
        yield float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, 40.0))
        yield k, k + float(rng.integers(1, 30))
        yield 0.0, k + 1.0
    for x0 in (0.0, 0.5, 1.0, 2.0, 2.25, 99.0):
        yield x0, x0 + 4098.0 + float(rng.uniform(0.0, 3.0))
        yield x0, x0 + 2 * 4096.0 + 2.5


def test_oscillating_runs_expand_to_the_per_block_cells():
    # a run lists each whole block from 2 on as one pattern with its count;
    # pattern by pattern, bit for bit, they are the per-block generator's
    rng = np.random.default_rng(35)
    p = P.OscillatingExample()
    cut = 0
    for x0, x1 in oscillating_windows(rng):
        blocks = list(P.segments(p, x0, x1, 0.02))
        cut += sum(isinstance(b, P.RepeatBlock) for b in blocks) > 1
        got = [r for b in blocks for r in patterns(b)]
        want = list(reference_oscillating_blocks(x0, x1))
        assert len(got) == len(want), (x0, x1)
        for (w, v, n), (w_ref, v_ref, n_ref) in zip(got, want):
            assert n == n_ref, (x0, x1)
            assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        for b in blocks:
            if isinstance(b, P.RepeatBlock):
                assert b.widths.shape == b.values.shape == (2, len(b.counts))
                assert 1 <= len(b.counts) <= 4096 and np.all(b.counts >= 2)
                assert b.count == b.counts.sum()
    assert cut == 12


def test_periodic_square_is_literal_for_one_period():
    # one whole period is its two literal cells, more are a one-pattern run
    p = P.PeriodicSquare(0.75)
    (one,) = P.segments(p, 1.5, 3.0, 0.02)
    assert isinstance(one, P.CellBlock)
    assert one.widths.tolist() == [0.75, 0.75] and one.values.tolist() == [1.0, -1.0]
    head, run, tail = P.segments(p, 1.0, 4.7, 0.02)
    assert isinstance(run, P.RepeatBlock) and run.counts.tolist() == [2.0]
    assert run.widths.tolist() == [[0.75], [0.75]] and run.values.tolist() == [[1.0], [-1.0]]


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_json_round_trip(p):
    obj = P.to_json(p)
    q = P.from_json(obj)
    assert q == p
    for x in (0.0, 1.3, 6.7):
        assert PW.evaluate(q, x) == PW.evaluate(p, x)


def test_from_json_rejects_unknown_variant():
    with pytest.raises(ValueError):
        P.from_json({"variant": "quartic_well"})


def test_from_json_rejects_a_json_string():
    # a spec is the parsed object; JSON text is the caller's to parse
    with pytest.raises(ValueError):
        P.from_json(json.dumps(P.to_json(P.Constant(1.0))))


def test_from_json_rejects_missing_discriminator():
    with pytest.raises(ValueError):
        P.from_json({"value": 1.0})


@pytest.mark.parametrize("spec", [
    {"variant": "sparse_bumps", "positions": [0.0, 4.0]},
    {"variant": "constant", "value": 1.0, "colour": 2},
    {"variant": "constant"},
])
def test_from_json_rejects_missing_and_unknown_fields(spec):
    with pytest.raises(ValueError):
        P.from_json(spec)


def test_from_json_rejects_a_bump_that_is_not_piecewise_constant():
    with pytest.raises(ValueError, match="bump must be PiecewiseConstant"):
        P.from_json({"variant": "sparse_bumps", "positions": [0.0, 4.0],
                     "bump": {"variant": "constant", "value": 1.0}})
