"""Potential families: evaluation, exact running integrals, serialization."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

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


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_right_continuous_at_breakpoints():
    p = P.PiecewiseConstant(values=(2.0, -1.0, 0.5), breakpoints=(1.0, 2.5))
    assert P.evaluate(p, 1.0) == -1.0
    assert P.evaluate(p, 2.5) == 0.5
    assert P.evaluate(p, 0.999999) == 2.0


def test_decaying_formula():
    p = P.Decaying(3.0, 2.0)
    for x in (0.0, 0.7, 5.0):
        assert P.evaluate(p, x) == pytest.approx(3.0 / (1 + x) ** 2, rel=1e-15)


def test_periodic_square_values_and_period():
    p = P.PeriodicSquare(0.25)
    assert P.evaluate(p, 0.0) == 1.0
    assert P.evaluate(p, 0.25) == -1.0
    assert P.evaluate(p, 0.5) == 1.0
    assert P.evaluate(p, 7.1) == P.evaluate(p, 7.1 + 0.5)


def test_oscillating_sign_pattern():
    p = P.OscillatingExample()
    # on [n-1, n) the sign alternates every 1/(2n); block n=2 covers [1, 2)
    assert P.evaluate(p, 1.0) == 1.0
    assert P.evaluate(p, 1.0 + 0.26) == -1.0
    assert P.evaluate(p, 1.0 + 0.51) == 1.0
    assert abs(P.evaluate(p, 3.7)) == 1.0


def test_sparse_bumps_support():
    p = sparse_squares()
    assert P.evaluate(p, 4.5) == 1.0   # inside the bump at 4
    assert P.evaluate(p, 5.5) == 0.0   # between bumps
    assert P.evaluate(p, 196.5) == 1.0


def test_random_reproducible_and_order_independent():
    a = P.Random(seed=5, cell_width=0.5, low=-1.0, high=2.0)
    b = P.Random(seed=5, cell_width=0.5, low=-1.0, high=2.0)
    xs = [10.3, 2000.7, 0.1, 512.0, 10.3]
    va = [P.evaluate(a, x) for x in xs]
    vb = [P.evaluate(b, x) for x in reversed(xs)]
    assert va == list(reversed(vb))
    assert all(-1.0 <= v <= 2.0 for v in va)
    c = P.Random(seed=6, cell_width=0.5, low=-1.0, high=2.0)
    assert P.evaluate(c, 10.3) != va[0]


# ---------------------------------------------------------------------------
# exact running integrals


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_prefix_integral_matches_quadrature(p):
    hi = 7.3
    pts = [t for t in P.discontinuities(p, 0.0, hi)]
    for x in (0.9, 3.1, hi):
        inner = [t for t in pts if t < x]
        ref = quad(lambda t: P.evaluate(p, t), 0.0, x,
                   points=inner, limit=max(50, 2 * len(inner) + 10))[0]
        assert P.prefix_integral(p, x) == pytest.approx(ref, abs=1e-9)
        ref_abs = quad(lambda t: abs(P.evaluate(p, t)), 0.0, x,
                       points=inner, limit=max(50, 2 * len(inner) + 10))[0]
        assert P.prefix_abs_integral(p, x) == pytest.approx(ref_abs, abs=1e-9)


def test_periodic_square_period_integral_is_exactly_zero():
    for delta in (0.25, 0.5, 1.0):
        p = P.PeriodicSquare(delta)
        assert P.prefix_integral(p, 2 * delta) == 0.0
        assert P.prefix_integral(p, 6 * delta) == 0.0


def test_oscillating_integer_prefix_is_exactly_zero():
    p = P.OscillatingExample()
    for n in (1, 2, 5, 17):
        assert P.prefix_integral(p, float(n)) == 0.0
        assert P.prefix_abs_integral(p, float(n)) == float(n)


@given(st.integers(0, 2 ** 32 - 1))
def test_prefix_bound_random_potential(seed):
    p = P.Random(seed=seed, cell_width=1.0, low=-1.0, high=1.0)
    x = 37.5
    assert abs(P.prefix_integral(p, x)) <= P.prefix_abs_integral(p, x) + 1e-12
    # additivity against the cell structure
    a = P.prefix_integral(p, 10.0)
    b = P.prefix_integral(p, x) - a
    ref_b = quad(lambda t: P.evaluate(p, t), 10.0, x,
                 points=list(np.arange(11.0, 37.0)), limit=80)[0]
    assert b == pytest.approx(ref_b, abs=1e-9)


# ---------------------------------------------------------------------------
# cesaro_trace


def test_cesaro_constant_is_flat():
    tr = P.cesaro_trace(P.Constant(1.0), np.array([1.0, 10.0, 100.0]))
    assert np.all(tr.mean == 1.0)
    assert np.all(tr.abs_mean == 1.0)


def test_cesaro_oscillating_integer_grid():
    grid = np.array([1.0, 2.0, 3.0, 10.0, 50.0])
    tr = P.cesaro_trace(P.OscillatingExample(), grid)
    assert np.all(tr.mean == 0.0)       # signed average exactly zero
    assert np.all(tr.abs_mean == 1.0)   # |V| average exactly one


def test_cesaro_sparse_bumps_bound():
    p = sparse_squares()
    # at x = position of bump n the mean is at most (#bumps so far + 1)/x
    for n in (4, 8, 14):
        x = float(n * n)
        tr = P.cesaro_trace(p, np.array([x]))
        count = sum(1 for q in range(2, 15) if q * q < x)
        assert tr.mean[0] <= (count + 1) / x + 1e-12


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
    p = P.Decaying(1.5, rate)
    for x0, x1, step in [(0.0, 1e4, 0.02), (3.7, 2.5e3, 0.1), (0.0, 50.0, 1e-3),
                         (10.0, 12.5, 7.0)]:
        (block,) = P.segments(p, x0, x1, step)
        assert_graded_widths(p, x0, block.widths, step)
        assert float(np.sum(block.widths)) == pytest.approx(x1 - x0, rel=1e-12)
        mass = P.prefix_integral(p, x1) - P.prefix_integral(p, x0)
        assert float(block.widths @ block.values) == pytest.approx(mass, rel=1e-9)
    (block,) = P.segments(p, 10.0, 12.5, 7.0)   # step wider than the window
    assert len(block.widths) == 1


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_segment_masses_reproduce_prefix_integral(p):
    x1 = 9.25
    total = 0.0
    width = 0.0
    for block in P.segments(p, 0.0, x1, 0.125):
        w = np.asarray(block.widths, dtype=float)
        v = np.asarray(block.values, dtype=float)
        reps = getattr(block, "count", 1)
        assert np.all(w > 0)
        if isinstance(p, P.Decaying):  # graded: cells widen with x
            assert_graded_widths(p, 0.0, w, 0.125)
        total += reps * float(w @ v)
        width += reps * float(np.sum(w))
    assert width == pytest.approx(x1, abs=1e-12)
    assert total == pytest.approx(P.prefix_integral(p, x1), abs=1e-10)


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_segment_edges_are_the_discontinuities(p):
    rng = np.random.default_rng(5)
    for _ in range(60):
        x0 = float(rng.uniform(0.0, 20.0))
        x1 = x0 + float(rng.uniform(0.01, 12.0))
        widths = np.concatenate([np.tile(b.widths, getattr(b, "count", 1))
                                 for b in P.segments(p, x0, x1, x1 - x0)])
        edges = x0 + np.cumsum(widths)
        assert edges[-1] == pytest.approx(x1, abs=1e-12)
        jumps = P.discontinuities(p, x0, x1)
        assert len(jumps) == len(edges) - 1
        assert np.allclose(edges[:-1], jumps, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_empty_window_has_no_cells(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 5.0, 7.25):
            blocks = list(P.segments(p, x, x, 0.02))
            assert sum(len(b.widths) * getattr(b, "count", 1) for b in blocks) == 0
            # the propagation kernel leaves its state (None: the identity) as it is
            assert PR._walk(p, x, x, np.array([-1.0, 3.0]), 0.02) is None
            assert PR._walk(p, x, x, np.array([-1.0 + 1j]), 0.02) is None


def test_tabulated_matches_piecewise_constant_bitwise():
    grid = (0.0, 0.5, 1.25, 3.0)
    values = (1.0, -2.0, 0.25, 0.0)
    tab = P.Tabulated(grid, values)
    pc = P.PiecewiseConstant(grid[1:], values)
    for x in [*grid, *np.linspace(0.0, 4.0, 37)]:
        assert P.evaluate(tab, x) == P.evaluate(pc, x)
        assert P.prefix_integral(tab, x) == P.prefix_integral(pc, x)
        assert P.prefix_abs_integral(tab, x) == P.prefix_abs_integral(pc, x)
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


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("p", ALL_FAMILIES, ids=lambda p: type(p).__name__)
def test_json_round_trip(p):
    obj = P.to_json(p)
    q = P.from_json(obj)
    assert q == p
    for x in (0.0, 1.3, 6.7):
        assert P.evaluate(q, x) == P.evaluate(p, x)


def test_from_json_rejects_unknown_variant():
    with pytest.raises(ValueError):
        P.from_json({"variant": "quartic_well"})


def test_from_json_rejects_missing_discriminator():
    with pytest.raises(ValueError):
        P.from_json({"value": 1.0})
