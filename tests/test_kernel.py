"""The batched propagation kernel against independent references.

Zero counts are checked against the sequential per-cell Pruefer loop the
kernel replaced: it walks every cell of every repeat, one at a time, and
counts sign changes of u on hyperbolic cells and half-turns of the angle
on oscillatory ones.  Products are checked against the pointwise solver
and against the same cells listed out one by one.  The kernel's internals
are checked bit for bit against a straightforward version that evaluates
both branches at every cell-energy and signs by multiplication.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blocks import patterns
from schreg import floquet as F, periodic, potentials as P, propagation as PR


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
        for widths, values, n in patterns(block):
            for _ in range(n):
                for h, v in zip(widths, values):
                    advance(float(h), float(v))
    return counts


def kernel_counts(p, x, lams, step=0.02):
    return np.rint(PR.zero_counting_cdf(p, x, lams, step=step).cdf * x).astype(np.int64)


def repeat(h, v, z, counts):
    """Elements of each pattern (a column of h and v) to its count, [row, pattern, energy]."""
    return F._power(PR._offsets(h, v, z), counts[:, None])


def spelled_cells(p, x, step):
    """The (width, value) cells of [0, x), each copy of a repeat listed out."""
    return [(h, v) for block in P.segments(p, 0.0, x, step)
            for widths, values, n in patterns(block) for _ in range(n)
            for h, v in zip(widths, values)]


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


@pytest.mark.parametrize("delta, x", [(0.5, 500.0), (0.5, 4097.0), (5.0, 2000.0)])
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


# 2**17 samples of [-1.5, 60] are 4.7e-4 apart, closer than the narrowest
# band of PeriodicSquare(5.0) (5.1e-4 wide, at -0.762), so the scan sees
# every band edge below 60
@pytest.mark.parametrize("delta", [0.45, 0.5, 5.0])
def test_long_repeat_counts_keep_the_rotation_bound(delta):
    # In gap j (j = 0 below b0) a Dirichlet solution has j zeros per period
    # up to one: |k_N - N j| <= 1 (Johnson & Moser, 1982).  j counts the
    # band edges of a discriminant scan below lam; its sign checks it.
    p = P.PeriodicSquare(delta)
    lams = np.linspace(-1.5, 60.0, 1 << 17)
    d = periodic.discriminant(p, 2.0 * delta, lams)
    out = np.abs(d) > 2.0
    gap = np.concatenate([[0], np.cumsum(out[1:] != out[:-1])]) // 2
    assert np.array_equal(np.sign(d[out]), (-1.0) ** gap[out])
    idx = np.flatnonzero(out)
    idx = idx[np.unique(np.linspace(0, len(idx) - 1, 60).round().astype(int))]
    lams, gap = lams[idx], gap[idx]
    assert gap[0] == 0 and gap[-1] >= 2
    for e in range(21):
        for n in {2 ** e - 1, 2 ** e, 2 ** e + 1} - {0}:
            k = kernel_counts(p, n * 2.0 * delta, lams)
            assert np.abs(k - n * gap).max() <= 1, (n, lams[np.abs(k - n * gap) > 1])


# ---------------------------------------------------------------------------
# products


# Every family has the same cells in one window as in pieces of it, so the
# pass agrees with pointwise calls to rounding.
@pytest.mark.parametrize("p, rel, tol_h", [
    (P.OscillatingExample(), 1e-12, 1e-12),
    (P.PeriodicSquare(0.45), 1e-12, 1e-12),
    (P.Random(seed=5, cell_width=0.5, low=-1.0, high=2.0), 1e-12, 1e-12),
    (P.Decaying(1.0, 2.0), 1e-12, 1e-12)],
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
    # PeriodicSquare(0.75) on [0, 1.5 n] is one RepeatBlock of count n (for
    # n = 1 its two literal cells); the step function below lists the same
    # 2n cells out one by one
    sq = P.PeriodicSquare(0.75)
    lams = np.concatenate([[-0.5, 0.4, 3.0, 12.0], gap_energies(0.75, 200)])
    lams = np.unique(lams)
    for n in range(1, 71):
        x = 1.5 * n
        tiled = P.PiecewiseConstant(breakpoints=tuple(0.75 * np.arange(1, 2 * n)),
                                    values=(1.0, -1.0) * n)
        (block,) = P.segments(sq, 0.0, x, 0.02)
        assert isinstance(block, P.RepeatBlock) == (n > 1)
        assert getattr(block, "count", 1) == n
        assert np.array_equal(kernel_counts(sq, x, lams),
                              kernel_counts(tiled, x, lams))
        for z in (-2.0 + 0j, 1.0 + 1j, 5.0 + 0.2j):
            a = PR.transfer_matrix(sq, x, z)
            b = PR.transfer_matrix(tiled, x, z)
            ratio = math.exp(a.log_scale - b.log_scale)
            assert np.abs(a.m * ratio - b.m).max() <= 1e-12


# ---------------------------------------------------------------------------
# bitwise oracle: the kernel as written before its lean real-energy path


class Elements:
    """The oracle's batch of elements: m[i, j] is an array over the batch,
    as are s and k; k (the integer part of a / pi) is None off the real axis.
    Unlike the kernel it carries s at real energies too, as 0 for cells."""

    def __init__(self, m, s, k):
        self.m, self.s, self.k = m, s, k

    def take(self, idx):
        """The elements at batch index idx (a tuple)."""
        return Elements(self.m[(slice(None), slice(None)) + idx], self.s[idx],
                        None if self.k is None else self.k[idx])

    def reshape(self, shape):
        return Elements(self.m.reshape(2, 2, *shape), self.s.reshape(shape),
                        None if self.k is None else self.k.reshape(shape))


def rows(e):
    """Views (m, r) of a kernel batch: r, its fifth row, is k at real
    energies and s at complex ones."""
    return e[:4].reshape(2, 2, *e.shape[1:]), e[4]


def record(e):
    """The oracle's record of a kernel batch e, with s real; a real batch
    carries no s, so its record's is 0."""
    m, r = rows(e)
    if e.dtype.kind == "c":
        return Elements(m, r.real, None)
    return Elements(m, np.zeros(r.shape), r)


def ref_cells(widths, values, z):
    h = np.asarray(widths, dtype=float)
    kap2 = values - z
    if z.dtype.kind == "c":
        w = np.sqrt(kap2) * h
        rho = np.abs(w.real)
        ep = np.exp(w - rho)
        em = np.exp(-w - rho)
        C, Sh = 0.5 * (ep + em), 0.5 * (ep - em)
        w2 = kap2 * h * h
        small = np.abs(w2) < 1e-8
        series = h * (1.0 + w2 / 6.0 * (1.0 + w2 / 20.0)) * np.exp(-rho)
        S = np.where(small, series, Sh * h / np.where(small, 1.0, w))
        return Elements(np.array([[C, kap2 * S], [S, C]]), rho, None)
    # a count-only cell: the flow times 1 + T**2, T = tan(w/2), where it
    # oscillates and times e**-w elsewhere, with E = expm1(-2w)
    osc = kap2 < 0.0
    w = np.sqrt(np.abs(kap2)) * h
    T, E = np.tan(0.5 * w), np.expm1(-2.0 * w)
    C = np.where(osc, 1.0 - T * T, 1.0 + 0.5 * E)
    Sh = np.where(osc, 2.0 * T, -0.5 * E)
    S = np.where(w == 0.0, h, Sh * h / np.where(w == 0.0, 1.0, w))
    m = np.array([[C, kap2 * S], [S, C]])
    return Elements(m * ref_turn(m), np.zeros(w.shape), np.where(osc, np.floor(w / np.pi), 0.0))


def ref_turn(m):
    u, du = m[1, 0], m[0, 0]
    return np.where((u > 0.0) | ((u == 0.0) & (du > 0.0)), 1, -1)


def ref_compose(b, a):
    m = b.m[:, :1] * a.m[None, 0] + b.m[:, 1:] * a.m[None, 1]
    scale = np.abs(m).max(axis=(0, 1))
    s = b.s + a.s + np.log(scale)
    if a.k is None:
        return Elements(m / scale, s, None)
    turn = ref_turn(m)
    return Elements(m * (turn / scale), s, a.k + b.k + (turn < 0))


def ref_tree(el):
    """The units along el's first batch axis applied first to last, paired
    level by level as the kernel pairs them (an unpaired last unit is carried
    up)."""
    units = [el.take((i,)) for i in range(len(el.s))]
    while len(units) > 1:
        n = len(units) // 2 * 2
        units = [ref_compose(b, a) for a, b in zip(units[0:n:2], units[1:n:2])] + units[n:]
    return units[0]


def ref_select(mask, new, old):
    return Elements(np.where(mask, new.m, old.m), np.where(mask, new.s, old.s),
                    None if new.k is None else np.where(mask, new.k, old.k))


def ref_power(el, n):
    """el**n from the low bit up, as the kernel takes it."""
    square = state = el
    for j in range(1, int(n.max()).bit_length()):
        square = ref_compose(square, square)
        step = ref_select(n & ((2 << j) - 1) == 1 << j, square, ref_compose(square, state))
        state = ref_select((n >> j) & 1 == 1, step, state)
    return state


def ref_power_top_down(el, n):
    """el**n from the high bit down: the squares are multiplied in the other
    order, so in general only the counts are bitwise those of ref_power."""
    squares = [el]
    for _ in range(int(n.max()).bit_length() - 1):
        squares.append(ref_compose(squares[-1], squares[-1]))
    state = squares[-1]
    for j in range(len(squares) - 2, -1, -1):
        step = ref_select(n >> j == 1, squares[j], ref_compose(squares[j], state))
        state = ref_select((n >> j) & 1 == 1, step, state)
    return state


def bits(x):
    """Bit patterns of a float or complex array: signed zeros and NaN signs
    count."""
    x = np.ascontiguousarray(x)
    return (x.view(np.float64) if x.dtype.kind == "c" else x).view(np.uint64)


def assert_same(got, ref):
    """The kernel batch got has five rows and equals ref bit for bit: in m
    and k at real energies, where it carries no s, and in m and s at complex
    ones, where s has imaginary part 0.  Counts are integral float64."""
    assert len(got) == 5
    m, r = rows(got)
    if ref.k is None:
        assert not bits(r.imag).any()
        pairs = ((m, ref.m), (r.real, ref.s))
    else:
        pairs = ((m, ref.m),)
        assert r.dtype == ref.k.dtype == np.float64 and np.array_equal(r, ref.k)
        assert np.array_equal(r, np.floor(r))
    for g, want in pairs:
        assert g.dtype == want.dtype and g.shape == want.shape
        assert np.array_equal(bits(g), bits(want))


def kernel_cases():
    """(widths, values, z) triples covering both real branches, their seam,
    barriers with w past pi, kappa**2 == 0, tiny |kappa**2 h**2|, zero-width
    cells, repeats' 3-d layout, a nan energy and complex energies."""
    rng = np.random.default_rng(17)
    h = rng.uniform(1e-3, 0.6, (48, 1))
    v = rng.uniform(-4.0, 4.0, (48, 1))
    mixed = np.linspace(-6.0, 40.0, 96)
    exact = np.concatenate([v[:12, 0], [0.0, -1.5]])
    tiny = np.concatenate([v[:6, 0] + 1e-12, v[:6, 0] - 3e-11, v[:6, 0] * (1 + 1e-15),
                           v[:6, 0] + 1e-8])
    zero_h = np.concatenate([h[:8], [[0.0], [0.0]]])
    return [
        (h, v, mixed),
        (h, 40.0 * v, mixed),
        (h, v, exact),
        (h, v, tiny),
        (h, v, np.concatenate([mixed, exact, tiny])),
        (zero_h, v[:10], np.array([-3.0, 0.0, 2.0])),
        (np.full((6, 1), 0.3), v[:6], v[:6, 0] - 1e-8),      # smallest w 3e-5
        (h.reshape(4, 12, 1), v.reshape(4, 12, 1), mixed[::8]),
        (h, v, np.array([np.nan, -2.0, 5.0])),
        (h, v, mixed + 0.3j),
        (h, v, np.concatenate([mixed + 1e-9j, exact + 0j, tiny - 2.0j])),
    ]


@pytest.mark.parametrize("tree", [True, False])
@pytest.mark.parametrize("case", range(11))
def test_cells_and_products_are_bitwise_the_reference(case, tree):
    # the cells' product one cell after another, or as _apply pairs them
    h, v, z = kernel_cases()[case]
    cells, ref = PR._cells(h, v, z), ref_cells(h, v, z)
    assert_same(cells, ref)
    flat, ref = cells.reshape(len(cells), h.shape[0], -1), ref.reshape((h.shape[0], -1))
    if tree:
        assert_same(PR._apply(flat), ref_tree(ref))
        return
    state, ref_state = flat[:, 0], ref.take((0,))
    for i in range(1, h.shape[0]):
        state = PR._compose(flat[:, i], state)
        ref_state = ref_compose(ref.take((i,)), ref_state)
        assert_same(state, ref_state)


def cos_sin_cells(widths, values, z):
    """Real-energy cells in the form the count-only cells replaced: cos and sin
    of w on oscillating cells, e**-w cosh and sinh from exp elsewhere, with
    the sinh(w)/w series where |kappa**2 h**2| < 1e-8."""
    h = np.asarray(widths, dtype=float)
    kap2 = values - z
    osc = kap2 < 0.0
    w = np.sqrt(np.abs(kap2)) * h
    rho = np.where(osc, 0.0, w)
    em = np.exp(-2.0 * rho)
    C = np.where(osc, np.cos(w), 0.5 * (1.0 + em))
    Sh = np.where(osc, np.sin(w), 0.5 * (1.0 - em))
    w2 = kap2 * h * h
    small = np.abs(w2) < 1e-8
    series = h * (1.0 + w2 / 6.0 * (1.0 + w2 / 20.0)) * np.exp(-rho)
    S = np.where(small, series, Sh * h / np.where(small, 1.0, w))
    m = np.array([[C, kap2 * S], [S, C]])
    return Elements(m * ref_turn(m), rho, np.where(osc, np.floor(w / np.pi), 0.0))


def column_gap(a, b):
    """The angle between the columns (du, u) of a and b, in [0, pi]."""
    return np.abs(np.arctan2(a[1] * b[0] - a[0] * b[1], a[0] * b[0] + a[1] * b[1]))


# A count-only cell is the cos/sin cell times a positive factor, so both
# columns of each cell and of each product point the same way.  Over the
# real kernel cases the columns of the cells differ by at most 1.1e-15 rad,
# those of the tree products by 4.4e-15 (first) and 6.5e-15 (second) and
# those of the sequential products by at most 5.0e-15; the bound has a
# margin of 3 over the largest.
ANGLE_TOL = 2e-14


@pytest.mark.parametrize("case", range(9))
def test_count_only_cells_are_the_cos_sin_cells_projectively(case):
    # counts bitwise, columns within ANGLE_TOL: cells, the tree product and
    # the product one cell after another (the nan energy's columns are nan)
    h, v, z = kernel_cases()[case]
    cells, old = PR._cells(h, v, z), cos_sin_cells(h, v, z)
    flat, old = cells.reshape(len(cells), h.shape[0], -1), old.reshape((h.shape[0], -1))
    state, old_state = flat[:, 0], old.take((0,))
    for i in range(1, h.shape[0]):
        state = PR._compose(flat[:, i], state)
        old_state = ref_compose(old.take((i,)), old_state)
    for got, want in ((flat, old), (PR._apply(flat), ref_tree(old)), (state, old_state)):
        m, k = rows(got)
        assert np.array_equal(k, want.k)
        for j in range(2):
            gap = column_gap(m[:, j], want.m[:, j])
            assert np.isnan(gap).any() == np.isnan(z).any()
            assert np.all(gap[~np.isnan(gap)] <= ANGLE_TOL), np.nanmax(gap)


def test_compose_turn_on_the_axis_and_at_nan():
    # a's first columns (u', u) are (+1, 0), (-1, 0), (0, 0), (-0.5, -0),
    # (nan, 1) and (1, nan), and the identity's 0 * nan makes u nan in the
    # last two products; u == 0 counts as in the upper half plane only with
    # u' > 0, and a nan angle counts as having left it
    # (a real batch's rows are m00, m01, m10, m11 and k)
    e, nan = np.ones(6), np.nan
    a = np.array([[1.0, -1.0, 0.0, -0.5, nan, 1.0], e,
                  [0.0, 0.0, 0.0, -0.0, 1.0, nan], e, np.arange(6.0)])
    one = np.array([e, 0 * e, 0 * e, e, 0 * e])
    got = PR._compose(one, a)
    assert_same(got, ref_compose(record(one), record(a)))
    assert got[4].tolist() == [0, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("z", [np.array([-2.0, 0.4, 3.0, 12.0]),
                               np.array([-2.0 + 1j, 3.0 - 0.5j, 12.0 + 1e-9j])],
                         ids=["real", "complex"])
def test_every_batch_has_five_rows_and_offsets_eight_or_six(z):
    # a flat batch holds m, then k at a real energy and s at a complex one;
    # an offset batch holds D, s and t, then sigma and k at a real energy
    real = z.dtype.kind == "f"
    h, v = np.array([[0.3], [0.45], [0.2]]), np.array([[1.0], [-1.0], [2.5]])
    p = P.PeriodicSquare(0.75)   # [0, 15) is one RepeatBlock of 10 periods
    cells = PR._cells(h, v, z)
    batches = [cells, PR._compose(cells[:, 1], cells[:, 0]), PR._apply(cells),
               repeat(h, v, z, np.array([7.0]))[:, 0], PR._walk(p, 0.0, 15.0, z, 0.02),
               PR._walk(p, 0.0, 16.0, z, 0.02)]
    for e in batches:
        assert len(e) == 5 and e.shape[-1] == z.size and e.dtype == z.dtype
        if real:
            assert np.array_equal(e[4], np.floor(e[4]))
        else:
            assert not bits(e[4].imag).any()
    offsets = [PR._cells(h, v, z, offset=True),
               PR._offsets(*np.array(spelled_cells(p, 16.0, 0.02)).T, z)]
    for e in offsets:
        assert e.shape[0] == (8 if real else 6) and e.dtype == z.dtype
        assert not bits(e[4:6].imag).any() and np.all(e[5].real > 0.0)
        if real:
            assert np.all(np.abs(e[6]) == 1.0)
    # the offset fold's zero counts are the flat walk's
    if real:
        assert np.array_equal(offsets[1][7], batches[-1][4])


# The closed-form power rounds differently from binary powering, so against
# it only the counts are bitwise.  Over these cases the mantissas and log
# scales differ by at most 2.7e-12 and 4.3e-12, at counts 1023 and 1024; the
# bound has a margin of about 5.  Against a 40-digit product of the same
# cells at count 1023, both are off by up to 1.8e-12 at the real energies,
# and the closed form by 9.6e-13 to binary powering's 2.2e-13 at the complex
# ones: these 3-cell patterns lie far from I.
POWER_TOL = 2e-11


@pytest.mark.parametrize("counts", [
    [1] * 6, [2] * 6, [8] * 6, [1024] * 6, [7] * 6, [1023] * 6,
    [1, 2, 3, 4, 5, 1000], [1, 1, 2, 7, 64, 63]])
@pytest.mark.parametrize("z", [np.linspace(-3.0, 9.0, 5), np.linspace(-3.0, 9.0, 5) + 0.1j])
def test_power_is_bitwise_the_reference(counts, z):
    # the closed form against the binary powers of the same cells, from the
    # low bit up (ref_power) and from the high bit down: counts bitwise,
    # mantissas and (at complex energies) log scales within POWER_TOL
    h = np.array([[0.3], [0.45], [0.2]])
    v = np.array([[1.0], [-1.0], [2.5]])
    v = v * [1.0, 0.5, 2.0, -1.0, 0.0, 3.0]
    n = np.repeat(np.array(counts), len(z))
    el = record(PR._apply(PR._cells(h[:, :, None], v[:, :, None], z).reshape(-1, 3, n.size)))
    got = repeat(h, v, z, np.array(counts, dtype=float)).reshape(-1, n.size)
    m, r = rows(got)
    for ref in (ref_power(el, n), ref_power_top_down(el, n)):
        if ref.k is None:
            assert not bits(r.imag).any()
            assert np.all(np.abs(r.real - ref.s) <= POWER_TOL * np.maximum(1.0, np.abs(ref.s)))
        else:
            assert r.dtype == np.float64 and np.array_equal(r, ref.k)
        assert np.abs(m - ref.m).max() <= POWER_TOL


def test_power_counts_at_exact_edges():
    # patterns built by hand, one column each, with their count k_P: u(T) = 0
    # (m10 = 0) with either mantissa sign, and tau^ = +1 and -1 exactly with
    # either sign; the rule's band and gap forms meet at these points
    patterns = [([[2.0, 3.0], [0.0, 0.5]], 4), ([[-2.0, -3.0], [0.0, -0.5]], 1),
                ([[1.0, 0.0], [2.0, 1.0]], 1), ([[-1.0, 0.0], [-2.0, -1.0]], 0),
                ([[-1.0, 0.0], [1.0, -1.0]], 2), ([[1.0, 0.0], [-1.0, 1.0]], 3)]
    counts = np.array([1, 2, 3, 7, 64, 1000])
    mats = np.array([m for m, _ in patterns]).transpose(1, 2, 0).reshape(4, -1)
    k_p = np.array([k for _, k in patterns], dtype=float)
    sigma = np.where((mats[2] > 0) | ((mats[2] == 0) & (mats[0] > 0)), 1.0, -1.0)
    scale = np.abs(mats).max(axis=0)
    offset = np.concatenate([mats - [[1.0], [0.0], [0.0], [1.0]], [np.zeros(6), np.ones(6), sigma, k_p]])
    regular = np.concatenate([sigma * mats / scale, [k_p]])
    for n in counts:
        got = F._power(offset, np.full(6, float(n)))
        ref = ref_power(record(regular), np.full(6, n))
        m, k = rows(got)
        assert np.array_equal(k, ref.k), n
        assert np.abs(m - ref.m).max() <= 1e-15


def band_edge_energies(delta):
    """The band edges of PeriodicSquare(delta) below 400, sectioned to about
    2 ulp, each with the 4 floats on either side."""
    bs = periodic.band_spectrum(P.PeriodicSquare(delta), 2.0 * delta, (-2.0, 400.0), 512)
    edges = np.array([e for band in bs.bands for e in band])
    edges = edges[edges < 400.0]
    return np.unique(np.concatenate([edges + j * np.spacing(edges) for j in range(-4, 5)]))


def walked_counts(el, n):
    """Counts of el applied n times over, one period after another."""
    state = el
    for _ in range(n - 1):
        state = PR._compose(el, state)
    return state[4]


def test_power_counts_at_band_edges():
    # 171, 99 and 1143 energies on and next to the float-resolution edges of
    # three square waves; a few counts up to 1000 drawn from a seeded rng
    rng = np.random.default_rng(31)
    for delta in (0.75, 0.45, 5.0):
        lams = band_edge_energies(delta)
        h, v = np.array([[delta], [delta]]), np.array([[1.0], [-1.0]])
        el = PR._apply(PR._cells(h[:, :, None], v[:, :, None], lams).reshape(-1, 2, lams.size))
        for n in [*rng.integers(2, 1000, 2), 1000]:
            k = repeat(h, v, lams, np.array([float(n)]))[4, 0]
            assert np.array_equal(k, ref_power(record(el), np.full(lams.size, n)).k)
            assert np.array_equal(k, walked_counts(el, n))
        # at 1e5 periods binary powering is no oracle: it differs from the
        # walk at 19 of these energies, the closed form at none.  Where the
        # two powers agree they match or miss the walk together, so only
        # the energies where they differ are walked
        n = 10 ** 5
        k = repeat(h, v, lams, np.array([float(n)]))[4, 0]
        k_ref = ref_power(record(el), np.full(lams.size, n)).k
        split = k != k_ref
        if split.any():
            walked = walked_counts(el[:, split], n)
            assert np.sum(k[split] != walked) <= np.sum(k_ref[split] != walked)


def ref_walk(p, x, z):
    """Dirichlet element of [0, x] from ref_power, block after block."""
    state = None
    for block in P.segments(p, 0.0, x, 0.02):
        for widths, values, n in patterns(block):
            el = record(PR._apply(PR._cells(widths[:, None], values[:, None], z)))
            power = ref_power(el, np.full(z.shape, n))
            state = power if state is None else ref_compose(power, state)
    return state


@pytest.mark.parametrize("p, x, z", [
    (P.PeriodicSquare(400.0), 4e4, np.array([-10.0, 0.5])),
    (P.PeriodicSquare(400.0), 4e4, np.array([-10.0 + 1j])),
    (P.OscillatingExample(), 50.0, np.array([-1e4, 2e4])),
    (P.OscillatingExample(), 50.0, np.array([1e4j, -2e4 + 5e3j]))],
    ids=["square-real", "square-complex", "oscillating-real", "oscillating-complex"])
def test_long_and_deep_repeats_stay_finite(p, x, z):
    # 50 periods of PeriodicSquare(400) are one block whose cells grow like
    # e**1327 at z = -10 (an unscaled offset overflows there); the
    # oscillating blocks are deep in their gaps or bands at |z| >= 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = PR._walk(p, 0.0, x, z, 0.02)
    ref = ref_walk(p, x, z)
    m, r = rows(got)
    assert np.isfinite(m).all() and np.isfinite(r).all()
    if ref.k is None:
        assert np.all(np.abs(r.real - ref.s) <= 1e-12 * np.abs(ref.s))
    else:
        assert np.array_equal(r, ref.k)


def test_repeat_products_match_a_40_digit_product():
    # u(1000, z) of OscillatingExample against the product of the same float
    # cells in 40-digit arithmetic (each block's pattern raised by squaring):
    # below the spectrum, in its band and off the axis.  The closed form is
    # within 7.5e-14 of it in log u at these energies; binary powering was
    # 2.2e-12 to 1.4e-11 off
    mp = pytest.importorskip("mpmath")
    zs = [-2.0, 3.7, 2.0 + 1.0j]
    p = P.OscillatingExample()
    prof = PR.dirichlet_profile(p, [1000.0], np.array(zs, dtype=complex), step=0.02)

    def mul(b, a):
        return (b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
                b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3])

    with mp.workdps(40):
        for i, z in enumerate(zs):
            z = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
            state = (1, 0, 0, 1)
            for block in P.segments(p, 0.0, 1000.0, 0.02):
                for widths, values, n in patterns(block):
                    pattern = (1, 0, 0, 1)
                    for h, v in zip(widths, values):
                        kappa = mp.sqrt(mp.mpf(v) - z)
                        c, s = mp.cosh(kappa * h), mp.sinh(kappa * h) / kappa
                        pattern = mul((c, kappa * kappa * s, s, c), pattern)
                    power = (1, 0, 0, 1)
                    while n:
                        if n & 1:
                            power = mul(pattern, power)
                        n >>= 1
                        pattern = mul(pattern, pattern) if n else pattern
                    state = mul(power, state)
            want = complex(mp.log(state[2]))
            got = complex(np.log(prof.u[i, 0])) + prof.log_scale[i, 0]
            assert abs(got - want) <= 5e-13, (zs[i], abs(got - want))


def near_half_turns(turn, v, n):
    """Energies v + (j turn)**2, j = 1...n, where a cell of value v and width
    pi / turn has w = j pi, each with the 4 floats either side, increasing."""
    lam = v + (np.arange(1, n + 1) * turn) ** 2
    return np.unique((lam.view(np.int64)[:, None] + np.arange(-4, 5)).view(float))


def mp_zeros(mp, cells, lam):
    """Zeros of the Dirichlet u on (0, x] over the float cells (h, v) at the
    float energy lam in working precision, and the sine of u's modified
    Pruefer angle at x.  An oscillating cell adds the multiples of pi its
    angle passes, any other cell a sign change of u."""
    lam, u, du, count = mp.mpf(float(lam)), mp.mpf(0), mp.mpf(1), 0
    for h, v in cells:
        h, k2 = mp.mpf(float(h)), mp.mpf(float(v)) - lam
        om = mp.sqrt(abs(k2))
        if k2 < 0:
            count += int(mp.floor((mp.atan2(om * u, du) % mp.pi + om * h) / mp.pi))
            c, s = mp.cos(om * h), mp.sin(om * h) / om
        else:
            c, s = mp.cosh(om * h), (mp.sinh(om * h) / om if om else h)
        u0, (u, du) = u, (c * u + s * du, k2 * s * u + c * du)
        count += k2 >= 0 and u0 != 0 and (u == 0 or (u > 0) != (u0 > 0))
    om = om or 1
    return count, float(om * abs(u) / mp.sqrt(du * du + om * om * u * u))


@pytest.mark.parametrize("x", [0.5, 1.0, 4.0])
def test_free_counts_at_half_turns_match_40_digits(x):
    # one Constant(0) cell of width x at (n pi / x)**2 and the 4 floats either
    # side.  With x a power of two the cell's float w is fl(sqrt(lam)) x, within
    # half an ulp of sqrt(lam) x, and the half-turn rule counts the zeros of
    # sin on (0, w] exactly: those of the exact u wherever w is over an ulp
    # from n pi
    mp = pytest.importorskip("mpmath")
    lams = near_half_turns(math.pi / x, 0.0, 199)
    got = kernel_counts(P.Constant(0.0), x, lams)
    w = np.sqrt(lams) * x
    with mp.workdps(40):
        own = [int(mp.floor(mp.mpf(float(v)) / mp.pi)) for v in w]
        turns = [mp.sqrt(mp.mpf(float(lam))) * x / mp.pi for lam in lams]
        want = np.array([int(mp.floor(t)) for t in turns])
        far = np.array([abs(t - mp.nint(t)) * mp.pi > d for t, d in zip(turns, np.spacing(w))])
    assert np.array_equal(got, own)
    assert far.mean() > 0.4 and np.array_equal(got[far], want[far])


@pytest.mark.parametrize("delta", [0.47, 1.3])
def test_square_wave_counts_at_half_turns_match_40_digits(delta):
    # PeriodicSquare(delta) where its +1 or its -1 cells turn by n pi: over 2,
    # 10 and 11 half-periods, that is literal cells on the flat path, then a
    # RepeatBlock of whole periods (the offset path and the Floquet count)
    # and literal cells after it; the offset fold of all the cells spelled out
    # as well.  Against the zeros of the exact u of the same float cells
    # wherever u(x) is not zero to rounding
    mp = pytest.importorskip("mpmath")
    p = P.PeriodicSquare(delta)
    lams = np.unique(np.concatenate(
        [near_half_turns(math.pi / delta, v, 16) for v in (1.0, -1.0)]))
    for x in (2 * delta, 10 * delta, 11 * delta):
        cells = spelled_cells(p, x, 1e-3)
        got = kernel_counts(p, x, lams)
        offset = PR._offsets(*np.array(cells).T, lams)[-1]
        with mp.workdps(40):
            want, sine = map(np.array, zip(*(mp_zeros(mp, cells, lam) for lam in lams)))
        decided = sine > 1e-9
        assert decided.mean() > 0.95
        assert np.array_equal(got[decided], want[decided])
        assert np.array_equal(offset[decided], want[decided])


def ulps(x, n):
    """The float x and the n floats either side of it, increasing."""
    return (np.float64(x).view(np.int64) + np.arange(-n, n + 1)).view(float)


def seam_cases(seam):
    """(cells, lam) pairs, cells a list of (width, value), where a count-only
    cell sits on a seam of its formula, alone, before a cell or between two."""
    rng = np.random.default_rng(23)

    def around(h, v, lam):
        (a, c), (v1, v3) = rng.uniform(0.1, 2.0, 2), lam + rng.uniform(-6.0, 3.0, 2)
        return [([(h, v)], lam), ([(h, v), (c, v3)], lam), ([(a, v1), (h, v), (c, v3)], lam)]

    if seam == "half-turns":       # kappa = 1, so w = h = fl(k pi) and its neighbours
        return [case for k in range(1, 41) for h in ulps(k * np.pi, 3)
                for case in around(float(h), 0.0, 1.0)]
    if seam == "kappa2-zero":      # v == lam: w = 0, S = h
        return [case for lam in (-3.5, 0.0, 0.25, 2.0, 17.0) for h in (1e-3, 0.4, 1.0, 3.0)
                for case in around(h, lam, lam)]
    if seam == "tiny-w":           # w = |kappa| h from 1e-5 down to 1e-300 and below
        hs = [(1.0, h) for h in (1e-5, 1e-9, 1e-30, 1e-100, 1e-200, 1e-300)]
        ks = [(k2, 1e-150) for k2 in (1e-300, 1e-310, 5e-324)]   # kappa**2 subnormal too
        return [case for kap2, h in hs + ks for sign in (1.0, -1.0)
                for case in around(h, sign * kap2, 0.0)]
    # lam a few ulps either side of v: kappa**2 = v - lam changes sign
    return [case for v in (-2.0, 0.3, 1.0, 7.5) for lam in ulps(v, 3) for h in (0.5, 2.0)
            for case in around(h, v, float(lam))]


@pytest.mark.parametrize("seam", ["half-turns", "kappa2-zero", "tiny-w", "osc-hyp"])
def test_count_only_cells_at_seams_match_40_digits(seam):
    # the counts of a cell on a seam, alone and as the first or middle of two or
    # three cells, against the zeros of the exact u of the same float cells: a
    # lone cell's always (its u(x) is not 0, if within rounding of it), the
    # others' wherever u(x) is not zero to rounding
    mp = pytest.importorskip("mpmath")
    cases = seam_cases(seam)
    got = [PR._apply(PR._cells(*np.array(cells).T[:, :, None], np.array([lam])))[4, 0]
           for cells, lam in cases]
    with mp.workdps(40):
        want, sine = map(np.array, zip(*(mp_zeros(mp, cells, lam) for cells, lam in cases)))
    alone = np.array([len(cells) == 1 for cells, _ in cases])
    decided = alone | (sine > 1e-9)
    assert decided.mean() > 0.9
    assert np.array_equal(np.array(got)[decided], want[decided])


def test_count_only_cells_at_a_nan_energy_count_nothing():
    h, v = np.array([[0.0], [1e-300], [0.3], [2.0]]), np.array([[1.0], [-1.0], [0.0], [5.0]])
    e = PR._cells(h, v, np.array([np.nan, 1.0]))
    assert np.isnan(e[:4, :, 0]).all() and not e[4, :, 0].any()


@pytest.mark.parametrize("p, x", [(P.OscillatingExample(), 300.0),
                                  (P.PeriodicSquare(0.47), 500.0)])
def test_results_do_not_depend_on_the_chunking(p, x, monkeypatch):
    # chunks cut the energies, the cells of a CellBlock and the patterns of
    # a RepeatBlock, and a run cap cuts a run into blocks; counts are
    # integers, products move only by rounding
    lams = np.linspace(0.0, 25.0, 200)
    zs = np.array([-1.5, 4.0, 2.0 + 0.5j, 7.0 - 1e-3j])
    runs = []
    for chunk, cap in ((1 << 13, P._RUN), (1 << 6, P._RUN), (1 << 20, P._RUN),
                       (1 << 13, 3)):
        monkeypatch.setattr(PR, "_CHUNK", chunk)
        monkeypatch.setattr(P, "_RUN", cap)
        runs.append((kernel_counts(p, x, lams),
                     PR.dirichlet_profile(p, [37.5, 300.0], zs, step=0.02)))
    counts, want = runs[0]
    for got_counts, got in runs[1:]:
        assert np.array_equal(got_counts, counts)
        ratio = np.exp(got.log_scale - want.log_scale)
        for g, w in ((got.u, want.u), (got.du, want.du)):
            assert np.all(np.abs(g * ratio - w) <= 1e-12 * np.abs(w))


# ---------------------------------------------------------------------------
# memory


def test_power_memory_is_flat_in_the_count():
    # the closed form's work does not grow with the count, so 2**20 - 1
    # periods need no more memory than 3
    z = np.linspace(-3.0, 9.0, 2000)
    h, v = np.array([[0.3], [0.45]]), np.array([[1.0], [-1.0]])
    peaks = []
    for count in (3, 2 ** 20 - 1):
        tracemalloc.start()
        try:
            repeat(h, v, z, np.array([float(count)]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_oscillating_walk_memory_does_not_grow_with_x():
    # whole blocks come as runs of at most 4,096 patterns, so a walk holds no
    # per-block object; the peak measured 1.28 MB at x = 1e4 and 1e5 alike,
    # and a list of one block per unit of x took 43 MB at 1e5.  The bound
    # leaves about 2x of margin
    lams = np.linspace(0.0, 25.0, 10)
    tracemalloc.start()
    try:
        PR.zero_counting_cdf(P.OscillatingExample(), 1e5, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


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
