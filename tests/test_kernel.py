"""The batched propagation kernel against independent references.

Zero counts are checked against the sequential per-cell Pruefer loop the
kernel replaced: it walks every cell of every repeat, one at a time, and
counts sign changes of u on hyperbolic cells and half-turns of the angle
on oscillatory ones.  Products are checked against the pointwise solver
and against the same cells listed out one by one.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schreg import periodic, potentials as P, propagation as PR


def loop_counts(p, x, lams, step):
    """Dirichlet zero counts on (0, x], advancing (u, u') cell by cell."""
    lams = np.asarray(lams, dtype=float)
    U = np.zeros_like(lams)
    DU = np.ones_like(lams)
    counts = np.zeros(lams.shape, dtype=np.int64)
    half_pi = 0.5 * np.pi

    def advance(h, v):
        nonlocal U, DU, counts
        kap2 = v - lams
        osc = kap2 < 0.0
        # hyperbolic / linear branch, scaled by e^{-w} (positive, count-safe)
        w = np.sqrt(np.where(osc, 0.0, kap2)) * h
        em = np.exp(-2.0 * w)
        Ch = 0.5 * (1.0 + em)
        Sh = 0.5 * (1.0 - em)
        small = w < 1e-4
        w_safe = np.where(small, 1.0, w)
        series = h * (1.0 + w * w / 6.0) * np.exp(-w)
        S = np.where(small, series, Sh * h / w_safe)
        B = np.where(small, kap2 * series, Sh * w_safe / h)
        U2h = Ch * U + S * DU
        DU2h = B * U + Ch * DU
        crossed = ((U > 0.0) & (U2h <= 0.0)) | ((U < 0.0) & (U2h >= 0.0))
        # oscillatory branch: count zeros of sin through the angle advance
        om = np.sqrt(np.where(osc, -kap2, 1.0))
        wh = om * h
        base = np.arctan2(DU, om * U) + half_pi
        n_osc = np.floor((wh - base) / np.pi) - np.floor(-base / np.pi)
        cw, sw = np.cos(wh), np.sin(wh)
        U2o = U * cw + DU * sw / om
        DU2o = -om * U * sw + DU * cw
        counts += np.where(osc, n_osc.astype(np.int64), crossed.astype(np.int64))
        U = np.where(osc, U2o, U2h)
        DU = np.where(osc, DU2o, DU2h)
        nrm = np.maximum(np.abs(U), np.abs(DU))
        U /= nrm
        DU /= nrm

    for block in P.segments(p, 0.0, x, step):
        for _ in range(getattr(block, "count", 1)):
            for h, v in zip(block.widths, block.values):
                advance(float(h), float(v))
    return counts


def kernel_counts(p, x, lams, step=0.02):
    return np.rint(PR.zero_counting_cdf(p, x, lams, step=step).cdf * x).astype(np.int64)


def gap_energies(delta, n=400, top=60.0):
    """Energies of an n-point scan of [-1.5, top] inside the gaps of
    PeriodicSquare(delta), where the one-period monodromy is hyperbolic."""
    lams = np.linspace(-1.5, top, n)
    p = P.PeriodicSquare(delta)
    d = np.array([periodic.discriminant(p, 2.0 * delta, lam) for lam in lams])
    return lams[np.abs(d) > 2.0]


# ---------------------------------------------------------------------------
# zero counts


# Cell values up to 1e6 over widths up to 3 give kappa*h up to ~3e3, where
# a cell's normalized determinant exp(-2 kappa h) underflows to 0.
step_cells = st.lists(
    st.tuples(st.floats(0.05, 3.0),
              st.one_of(st.floats(-5.0, 5.0), st.floats(1e5, 1e6))),
    min_size=1, max_size=12)
energies = st.lists(st.floats(-5.0, 40.0), min_size=1, max_size=20,
                    unique=True).map(sorted)


@given(step_cells, energies)
def test_counts_match_loop_on_random_steps(cells, lams):
    widths, values = zip(*cells)
    p = P.PiecewiseConstant(breakpoints=tuple(np.cumsum(widths)[:-1]),
                            values=values)
    x = float(np.sum(widths))
    assert np.array_equal(kernel_counts(p, x, lams), loop_counts(p, x, lams, 0.02))


@pytest.mark.parametrize("delta, x", [(0.5, 500.0), (5.0, 2000.0)])
def test_counts_in_gaps_match_loop(delta, x):
    lams = gap_energies(delta)
    assert len(lams) >= 15
    p = P.PeriodicSquare(delta)
    assert np.array_equal(kernel_counts(p, x, lams), loop_counts(p, x, lams, 0.02))


@pytest.mark.parametrize("x", [50.0, 200.0])
def test_oscillating_example_counts_match_loop(x):
    lams = np.linspace(-1.2, 25.0, 200)
    p = P.OscillatingExample()
    assert np.array_equal(kernel_counts(p, x, lams), loop_counts(p, x, lams, 0.02))


def test_squaring_stops_at_the_largest_safe_power():
    # In these gaps one period of PeriodicSquare(5.0) grows by up to e^11:
    # squaring stops at each energy's largest safe power, and 200 periods
    # are folded in from there
    lams = gap_energies(5.0)[:12]
    cells = PR._cells(np.array([[5.0], [5.0]]), np.array([[1.0], [-1.0]]), lams)
    period = PR._apply(cells)
    count = np.full(len(lams), 200)
    levels, ok = PR._levels(period.reshape((1, -1)), count, square=True)
    assert len(levels) < 8       # unguarded squaring builds 8 levels for 200
    assert not ok[0].all()       # one period alone is already unsafe here
    for lev, usable in zip(levels, ok):
        assert np.all(lev.s[usable] <= PR._SAFE_S)
    power = PR._fold(levels, ok, count, square=True)
    want = loop_counts(P.PeriodicSquare(5.0), 2000.0, lams, 0.02)
    assert np.array_equal(power.k, want)


# ---------------------------------------------------------------------------
# products


# Step functions have the same cells in one window as in pieces of it, so
# the pass agrees with pointwise calls to rounding.  The graded Decaying
# mesh is built per window, so there the two differ by discretization error.
@pytest.mark.parametrize("p, rel, tol_h", [
    (P.OscillatingExample(), 1e-12, 1e-12),
    (P.PeriodicSquare(0.45), 1e-12, 1e-12),
    (P.Random(seed=5, cell_width=0.5, low=-1.0, high=2.0), 1e-12, 1e-12),
    (P.Decaying(1.0, 2.0), 1e-6, 1e-7)],
    ids=["OscillatingExample", "PeriodicSquare", "Random", "Decaying"])
def test_profile_rows_match_pointwise(p, rel, tol_h):
    xs = [3.0, 17.5, 60.0, 125.0]
    zs = [-3.0 + 0j, -0.5 + 1j, 2.0 + 1j, 9.0 + 0.3j]
    prof = PR.dirichlet_profile(p, xs, zs, step=0.02)
    h = prof.log_growth(np.array(xs))
    for i, z in enumerate(zs):
        for j, x in enumerate(xs):
            s = PR.dirichlet_solution(p, x, z, step=0.02)
            ratio = math.exp(prof.log_scale[i, j] - s.log_scale)
            assert abs(prof.u[i, j] * ratio - s.u) <= rel * abs(s.u)
            assert abs(prof.du[i, j] * ratio - s.du) <= rel * abs(s.du)
            assert abs(h[i, j] - PR.log_growth(p, x, z, step=0.02)) <= tol_h


def test_repeat_power_equals_tiled_product():
    # PeriodicSquare(0.75) on [0, 1.5 n] is one RepeatBlock of count n; the
    # step function below lists the same 2n cells out one by one
    sq = P.PeriodicSquare(0.75)
    lams = np.concatenate([[-0.5, 0.4, 3.0, 12.0], gap_energies(0.75, 200)])
    lams = np.unique(lams)
    for n in range(1, 71):
        x = 1.5 * n
        tiled = P.PiecewiseConstant(breakpoints=tuple(0.75 * np.arange(1, 2 * n)),
                                    values=(1.0, -1.0) * n)
        (block,) = P.segments(sq, 0.0, x, 0.02)
        assert block.count == n
        assert np.array_equal(kernel_counts(sq, x, lams),
                              kernel_counts(tiled, x, lams))
        for z in (-2.0 + 0j, 1.0 + 1j, 5.0 + 0.2j):
            a = PR.transfer_matrix(sq, x, z)
            b = PR.transfer_matrix(tiled, x, z)
            ratio = math.exp(a.log_scale - b.log_scale)
            assert np.abs(a.m * ratio - b.m).max() <= 1e-12


# ---------------------------------------------------------------------------
# memory


def test_counting_memory_is_chunked():
    # 6,909 cells x 200 energies would need ~70 MB as one batch
    lams = np.linspace(0.0, 25.0, 200)
    tracemalloc.start()
    try:
        PR.zero_counting_cdf(P.Decaying(1.0, 2.0), 1e3, lams, step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
