"""Transfer matrices, zero counting, Volterra cross-checks."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pointwise
from schreg import potentials as P, propagation as PR
from schreg.errors import InvalidStep
from volterra import (HorizonExceeded, spectral_point, volterra_solution,
                      volterra_terms)

FREE = P.Constant(0.0)

Z_SAMPLES = [-4.0, -1.0, -0.25, 1j, 2 + 1j, 9.0, -2.0 + 0.5j]


def exact_free(x, z):
    k = spectral_point(z).k
    if k == 0:
        return complex(x), 1.0 + 0j
    return cmath.sinh(k * x) / k, cmath.cosh(k * x)


def unscaled(sample):
    s = math.exp(sample.log_scale)
    return sample.u * s, sample.du * s


# ---------------------------------------------------------------------------
# branch convention and closed forms


def test_branch_convention():
    assert spectral_point(4.0).k == -2.0j          # upper-half-plane limit
    assert spectral_point(-4.0).k == 2.0
    assert spectral_point(0.0).k == 0.0
    for z in (1j, -1 + 3j, 5 - 2j):
        assert spectral_point(z).k.real >= 0


@pytest.mark.parametrize("z", Z_SAMPLES)
def test_free_solution_closed_form(z):
    for x in (0.5, 2.0, 7.0):
        u, du = unscaled(PR.dirichlet_solution(FREE, x, z))
        ue, due = exact_free(x, z)
        assert u == pytest.approx(ue, rel=1e-12, abs=1e-12)
        assert du == pytest.approx(due, rel=1e-12, abs=1e-12)


def test_constant_potential_is_energy_shift():
    p = P.Constant(2.5)
    for z in (-1.0, 1j):
        u, du = unscaled(PR.dirichlet_solution(p, 3.0, z))
        ue, due = exact_free(3.0, z - 2.5)
        assert u == pytest.approx(ue, rel=1e-12)
        assert du == pytest.approx(due, rel=1e-12)


def test_transfer_matrix_layout_and_cell_form():
    # state order (u', u): column 0 is the Dirichlet solution, and a single
    # constant cell is [[cosh, kappa^2 sinh/kappa], [sinh/kappa, cosh]]
    p = P.Constant(1.0)
    z = -0.5 + 0.3j
    kappa = cmath.sqrt(1.0 - z)
    t = PR.transfer_matrix(p, 2.0, z)
    m = math.exp(t.log_scale) * t.m
    c, s = cmath.cosh(2 * kappa), cmath.sinh(2 * kappa) / kappa
    assert m[0, 0] == pytest.approx(c, rel=1e-12)
    assert m[0, 1] == pytest.approx(kappa ** 2 * s, rel=1e-12)
    assert m[1, 0] == pytest.approx(s, rel=1e-12)
    assert m[1, 1] == pytest.approx(c, rel=1e-12)


def test_piecewise_constant_is_step_independent():
    p = P.PiecewiseConstant(values=(2.0, -1.0, 0.5), breakpoints=(1.0, 2.5))
    a = PR.dirichlet_solution(p, 4.0, -1.5 + 0.5j, step=1e-1)
    b = PR.dirichlet_solution(p, 4.0, -1.5 + 0.5j, step=1e-3)
    assert unscaled(a)[0] == pytest.approx(unscaled(b)[0], rel=1e-13)


def test_smooth_refinement_is_second_order():
    p = P.Decaying(1.0, 2.0)
    z = -1.0 + 0.5j
    ref = unscaled(PR.dirichlet_solution(p, 2.0, z, step=1e-4))[0]
    e1 = abs(unscaled(PR.dirichlet_solution(p, 2.0, z, step=0.02))[0] - ref)
    e2 = abs(unscaled(PR.dirichlet_solution(p, 2.0, z, step=0.01))[0] - ref)
    assert 2.5 <= e1 / e2 <= 6.0


def test_invalid_step_rejected():
    with pytest.raises(InvalidStep):
        PR.transfer_matrix(FREE, 1.0, -1.0, step=0.0)


@pytest.mark.parametrize("p, x", [
    (P.PeriodicSquare(0.5), 1.0),
    (P.PiecewiseConstant(values=(-10.0, 10.0), breakpoints=(0.5,)), 1.0),
    (P.OscillatingExample(), 30.0),
])
def test_transfer_matrix_batch_matches_scalar_calls(p, x):
    rng = np.random.default_rng(3)
    zs = np.concatenate([rng.uniform(-5.0, 40.0, 12),
                         rng.uniform(-5.0, 40.0, 6) + 1j * rng.uniform(0.1, 3.0, 6)])
    batch = PR.transfer_matrix(p, x, zs.reshape(3, 6))
    assert batch.m.shape == (2, 2, 3, 6) and batch.log_scale.shape == (3, 6)
    for z, m, s in zip(zs, batch.m.reshape(2, 2, -1).transpose(2, 0, 1),
                       batch.log_scale.reshape(-1)):
        one = PR.transfer_matrix(p, x, z)
        assert one.m.shape == (2, 2) and type(one.log_scale) is float
        assert np.max(np.abs(m - one.m)) <= 1e-15      # m has unit norm
        assert abs(s - one.log_scale) <= 1e-15 * max(1.0, abs(one.log_scale))


# ---------------------------------------------------------------------------
# log growth


def test_log_growth_free_closed_form():
    got = PR.log_growth(FREE, 200.0, -1.0)
    want = 1.0 + math.log((1.0 - math.exp(-400.0)) / 2.0) / 200.0
    assert got == pytest.approx(want, abs=1e-12)


def test_log_growth_tends_to_re_k():
    assert PR.log_growth(FREE, 400.0, -4.0) == pytest.approx(2.0, abs=1e-2)


def test_no_overflow_at_large_x():
    h = PR.log_growth(P.PeriodicSquare(0.5), 1e4, -9.0, step=0.01)
    assert math.isfinite(h)
    assert h == pytest.approx(3.0, abs=0.1)


# ---------------------------------------------------------------------------
# invariant properties

pc_potentials = st.lists(
    st.floats(-3.0, 3.0), min_size=1, max_size=6).map(
        lambda vals: P.PiecewiseConstant(
            values=tuple(vals),
            breakpoints=tuple(0.7 * (i + 1) for i in range(len(vals) - 1))))

z_points = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)).map(lambda t: complex(*t))

# The mantissa determinant equals e^(-2 log_scale), so for log_scale beyond
# ~6 evaluating it in doubles is cancellation-limited no matter how the
# matrix was built; the 1e-12 claim is asserted on the box where it is
# measurable (log_scale <= ~4.5 here).
det_potentials = st.lists(
    st.floats(-2.0, 2.0), min_size=1, max_size=6).map(
        lambda vals: P.PiecewiseConstant(
            values=tuple(vals),
            breakpoints=tuple(0.35 * (i + 1) for i in range(len(vals) - 1))))

det_z = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)).map(lambda t: complex(*t))


def det_log_defect(t):
    """log det(e**log_scale * m); zero for an exact transfer matrix."""
    d = t.m[0, 0] * t.m[1, 1] - t.m[0, 1] * t.m[1, 0]
    return cmath.log(d) + 2.0 * t.log_scale


@given(det_potentials, det_z, st.floats(0.5, 2.0))
def test_determinant_is_one(p, z, x):
    t = PR.transfer_matrix(p, x, z)
    assert abs(det_log_defect(t)) <= 1e-12


@given(pc_potentials, z_points, st.floats(0.5, 8.0))
def test_conjugation_symmetry(p, z, x):
    a = PR.dirichlet_solution(p, x, z)
    b = PR.dirichlet_solution(p, x, z.conjugate())
    ua, ub = unscaled(a)[0], unscaled(b)[0]
    assert ub == pytest.approx(ua.conjugate(), rel=1e-12, abs=1e-12)


@given(pc_potentials, z_points, st.floats(1.0, 10.0))
def test_growth_bound(p, z, x):
    k = spectral_point(z).k
    bound = 1.0 + k.real + pointwise.abs_integral(p, x) / x
    assert PR.log_growth(p, x, z) <= bound + 1e-9


def test_solution_nonvanishing_off_real_axis():
    p = P.Random(seed=3, cell_width=0.5, low=-2.0, high=2.0)
    m = np.eye(2, dtype=complex)
    for x in np.linspace(0.25, 30.0, 120):
        s = PR.dirichlet_solution(p, float(x), 1j)
        assert abs(s.u) > 0


# ---------------------------------------------------------------------------
# eigenvalue counting


@pytest.mark.parametrize("p", [P.Decaying(1.0, 2.0), P.OscillatingExample(),
                               P.PeriodicSquare(0.47), P.Random(5, 0.3, -1.0, 1.0)])
def test_profile_repeats_are_the_deduplicated_rows(p):
    # a repeated checkpoint walks no cells: its column is bit for bit that of
    # the same checkpoint given once
    zs = np.array([-1.0, 2.0 + 1.0j, 0.5])
    xs = [0.94, 0.94, 3.0, 7.5, 7.5, 7.5, 12.0]
    unique = sorted(set(xs))
    got = PR.dirichlet_profile(p, xs, zs, step=0.02)
    want = PR.dirichlet_profile(p, unique, zs, step=0.02)
    col = [unique.index(x) for x in xs]
    for name in ("u", "du", "log_scale"):
        g, w = getattr(got, name), getattr(want, name)[:, col]
        assert g.shape == w.shape
        assert np.array_equal(*(np.ascontiguousarray(a).view(np.uint64) for a in (g, w)))


def test_eigenvalue_count_free_examples():
    # fl(pi) < pi and sin(fl(pi)) > 0: u = sin(x) has no zero in (0, fl(pi)]
    assert PR.eigenvalue_count(FREE, math.pi, 1.0) == 0
    assert PR.eigenvalue_count(FREE, 3.2, 1.0) == 1
    assert PR.eigenvalue_count(FREE, 10.0, -1.0) == 0
    assert PR.eigenvalue_count(FREE, 10.0, 4.0) == 6


@pytest.mark.parametrize("p", [FREE, P.Decaying(1.2, 2.0), P.PeriodicSquare(0.5),
                               P.OscillatingExample()])
@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_energies_are_rejected(p, lam):
    # at a nan energy every composition reads as a half-turn, so a count
    # would depend on the mesh
    with pytest.raises(ValueError, match="finite"):
        PR.eigenvalue_count(p, 10.0, lam)
    with pytest.raises(ValueError, match="finite"):
        PR.zero_counting_cdf(p, 10.0, [lam])
    with pytest.raises(ValueError):
        PR.zero_counting_cdf(p, 10.0, np.sort([0.0, 1.0, lam]))


def test_eigenvalue_count_free_formula():
    for x in (3.0, 10.0, 25.0):
        for lam in (0.5, 2.0, 9.0, 16.5):
            want = math.floor(x * math.sqrt(lam) / math.pi)
            assert PR.eigenvalue_count(FREE, x, lam) == want


@pytest.mark.parametrize("lam", [1e37, 1e40])
def test_eigenvalue_count_past_the_int64_range(lam):
    # [0, 10] is one cell of the free potential, so the count is that cell's
    # floor(w / pi) with w = 10 sqrt(lam): above 2**63, not wrapped below 0
    assert PR.eigenvalue_count(FREE, 10.0, lam) == math.floor(10.0 * math.sqrt(lam) / math.pi)


def test_eigenvalue_count_monotone_in_lambda_and_x():
    p = P.PiecewiseConstant(values=(1.5, -0.5, 0.0), breakpoints=(2.0, 5.0))
    lams = np.linspace(-1.0, 12.0, 40)
    counts = [PR.eigenvalue_count(p, 14.0, lam) for lam in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    xs = np.linspace(1.0, 30.0, 30)
    counts = [PR.eigenvalue_count(p, x, 5.5) for x in xs]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_zero_counting_cdf_free_limit():
    lams = np.linspace(0.0, 25.0, 101)
    got = PR.zero_counting_cdf(FREE, 400.0, lams)
    assert np.all(np.diff(got.cdf) >= 0)
    err = np.max(np.abs(got.cdf - np.sqrt(np.clip(lams, 0, None)) / math.pi))
    assert err <= 1.0 / 400.0 + 1e-12
    coarse = PR.zero_counting_cdf(FREE, 200.0, lams)
    err_c = np.max(np.abs(coarse.cdf - np.sqrt(lams) / math.pi))
    assert err <= err_c + 2.0 / 200.0


# ---------------------------------------------------------------------------
# the graded Decaying mesh against a uniform-mesh oracle


def uniform_mesh(p, x, step=0.02):
    """p as a step function on a uniform mesh of [0, x], holding cell averages.

    The averages come from the closed-form integral, not from `segments`,
    so the oracle shares no mesh code with the graded path.
    """
    n = math.ceil(x / step)
    edges = np.linspace(0.0, x, n + 1)
    F = p.amplitude * ((1.0 + edges) ** (1.0 - p.rate) - 1.0) / (1.0 - p.rate)
    widths = np.diff(edges)
    values = np.diff(F) / widths
    tab = P.Tabulated(edges[:-1], values)
    (block,) = P.segments(tab, 0.0, x, step)
    assert np.array_equal(block.widths, widths)
    assert np.array_equal(block.values, values)
    return tab


@pytest.mark.parametrize("p, x", [(P.Decaying(1.0, 2.0), 1e3),
                                  (P.Decaying(2.0, 1.5), 500.0)],
                         ids=["1-over-(1+x)^2", "2-over-(1+x)^1.5"])
def test_graded_decaying_counts_match_uniform_mesh(p, x):
    lams = np.linspace(0.0, 25.0, 200)
    counts = [np.rint(PR.zero_counting_cdf(q, x, lams, step=0.02).cdf * x)
              for q in (p, uniform_mesh(p, x))]
    assert np.array_equal(*counts)


def test_graded_decaying_growth_matches_uniform_mesh():
    p = P.Decaying(1.0, 2.0)
    for x in (250.0, 1e3):
        oracle = uniform_mesh(p, x)
        for z in (-1.0 + 0j, -4.0 + 0j, -0.25 + 0j, 1j, 2.0 + 1j):
            got = PR.log_growth(p, x, z, step=0.02)
            assert got == pytest.approx(PR.log_growth(oracle, x, z, step=0.02),
                                        rel=0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Lyapunov estimates


def lyapunov(p, x, z, step=1e-3):
    """Finite-x Lyapunov proxy: log of the transfer-matrix norm over x."""
    return PR.transfer_matrix(p, x, z, step).log_scale / x


def test_lyapunov_free_examples():
    assert lyapunov(FREE, 100.0, -1.0) == pytest.approx(1.0, abs=0.01)
    assert abs(lyapunov(FREE, 100.0, 1.0)) <= 0.02


def test_lyapunov_is_log_norm_over_x():
    # log_scale is log||T|| exactly when the mantissa has unit spectral norm
    p = P.PiecewiseConstant(values=(2.0, -1.0, 0.5), breakpoints=(1.0, 2.5))
    for z in (-1.0, 0.7, 2.0 + 1j):
        t = PR.transfer_matrix(p, 20.0, z)
        assert np.linalg.norm(t.m, 2) == pytest.approx(1.0, abs=1e-14)


def test_lyapunov_random_regression_band():
    # frozen Monte Carlo baseline: gamma-hat at z=-0.5, x=2000 over ten
    # seeds stays positive, tight, and well above the free value sqrt(0.5)
    vals = [lyapunov(
        P.Random(seed=s, cell_width=1.0, low=0.0, high=1.0), 2000.0, -0.5,
        step=1.0) for s in range(10)]
    assert min(vals) > 0.97
    assert max(vals) < 1.02
    assert max(vals) - min(vals) < 0.02


# ---------------------------------------------------------------------------
# Volterra series


def test_volterra_free_is_single_term():
    terms = volterra_terms(FREE, 1.5, -2.0, n_terms=6)
    k = spectral_point(-2.0).k
    assert terms[0] == pytest.approx(cmath.sinh(1.5 * k) / k, rel=1e-14)
    assert np.max(np.abs(terms[1:])) == 0.0


@pytest.mark.parametrize("z", [-4.0, -1.0, 1j, 2 + 1j, 9.0])
def test_volterra_matches_transfer(z):
    for p in (P.Constant(1.0), P.PeriodicSquare(0.25), P.Decaying(1.0, 2.0)):
        for x in (1.0, 2.0):
            series = volterra_solution(p, x, z, n_terms=12)
            s = PR.dirichlet_solution(p, x, z, step=1e-4)
            u = s.u * math.exp(s.log_scale)
            assert abs(series - u) <= 1e-8 * max(1.0, abs(u))


def test_volterra_tail_bound():
    p = P.Constant(1.0)
    x, z = 1.0, -1.0
    terms = volterra_terms(p, x, z, n_terms=12)
    s = PR.dirichlet_solution(p, x, z, step=1e-4)
    u = s.u * math.exp(s.log_scale)
    int_v = pointwise.abs_integral(p, x)
    k = spectral_point(z).k
    for n in (4, 6, 8):
        tail = math.exp((1 + k.real) * x) * sum(
            int_v ** m / math.factorial(m) for m in range(n + 1, 40))
        assert abs(u - np.sum(terms[:n])) <= tail


def test_volterra_horizon():
    with pytest.raises(HorizonExceeded):
        volterra_solution(FREE, 3.0, -1.0)
