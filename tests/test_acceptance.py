"""End-to-end acceptance gate.

Eight independent checks, each printing one PASS/FAIL line (run pytest with
-s to see them on success).  Tolerances and runtime budgets are asserted, so
a regression in accuracy or speed fails the suite, not just the printout.
"""
import cmath
import math
import time

import numpy as np

import pointwise
from schreg import martin as M, periodic as PE, potentials as P
from schreg import propagation as PR, regularity as R
from volterra import spectral_point, volterra_solution

FREE = M.GapSet(b0=0.0)


def report(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def sparse_squares():
    bump = P.PiecewiseConstant(values=(1.0, 0.0), breakpoints=(1.0,))
    return P.SparseBumps(bump=bump,
                         positions=tuple(float(n * n) for n in range(2, 15)),
                         sparse_from=0)


def test_a1_free_field_exactness():
    t0 = time.perf_counter()
    errs = [abs(M.martin_function(FREE, (), -1.0).value - 1.0)]

    zs = [complex(-9.0 + 8.75 * i / 49.0, 0.0) for i in range(50)]
    zs += [complex(-5.0 + 10.0 * (i % 10) / 9.0, 0.25 + 2.75 * (i // 10) / 4.0)
           for i in range(50)]
    sweep = max(abs(M.martin_function(FREE, (), z).value - np.sqrt(-z).real)
                for z in zs)
    errs.append(sweep)

    h = PR.log_growth(P.Constant(0.0), 200.0, -1.0)
    want = 1.0 + math.log((1.0 - math.exp(-400.0)) / 2.0) / 200.0
    err_h = abs(h - want)

    lam = np.linspace(0.0, 25.0, 101)
    cdf = M.martin_measure_cdf(FREE, (), lam).cdf
    err_cdf = float(np.max(np.abs(cdf - np.sqrt(lam) / math.pi)))

    dt = time.perf_counter() - t0
    ok = max(errs) <= 1e-8 and err_h <= 1e-6 and err_cdf <= 1e-8 and dt < 5.0
    report("1 free-field exactness", ok,
           f"martin sweep {max(errs):.2e}<=1e-8, growth {err_h:.2e}<=1e-6, "
           f"measure cdf {err_cdf:.2e}<=1e-8, {dt:.1f}s<5s")


def test_a2_discriminant_identities():
    t0 = time.perf_counter()
    err0 = max(abs(PE.discriminant(P.PeriodicSquare(d), 2.0 * d, 0.0)
                   - 2.0 * math.cosh(d) * math.cos(d))
               for d in (0.5, 0.1, 0.01))

    ratios = []
    for d in (0.1, 0.05, 0.025):
        p = P.PeriodicSquare(d)
        for lam in (-1.0, -0.5, -0.1):
            delta = PE.discriminant(p, 2.0 * d, lam)
            ratios.append(abs(delta - 2.0 + 4.0 * lam * d * d) / d ** 3)
    worst_ratio = max(ratios)

    dt = time.perf_counter() - t0
    ok = err0 <= 1e-10 and worst_ratio <= 0.5 and dt < 5.0
    report("2 discriminant identities", ok,
           f"value at 0 err {err0:.2e}<=1e-10, "
           f"quadratic-term ratio {worst_ratio:.3f}<=0.5, {dt:.1f}s<5s")


def random_gap_sets(count):
    rng = np.random.default_rng(20240825)
    sets = []
    while len(sets) < count:
        n_gaps = 1 + (len(sets) % 2)
        pts = np.sort(rng.uniform(0.0, 10.0, 1 + 2 * n_gaps))
        if float(np.min(np.diff(pts))) < 0.25:
            continue
        gaps = tuple((float(pts[1 + 2 * j]), float(pts[2 + 2 * j]))
                     for j in range(n_gaps))
        sets.append(M.GapSet(b0=float(pts[0]), gaps=gaps))
    return sets


def test_a3_robin_constant_two_routes():
    t0 = time.perf_counter()
    k_grid = np.linspace(50.0, 100.0, 12)
    worst = 0.0
    for E in random_gap_sets(20):
        c = M.solve_critical_points(E).c
        a = M.a_constant(E, c)
        fit = M.fit_a_from_martin(E, c, k_grid)
        worst = max(worst, abs(a - fit) / max(1.0, abs(a)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 60.0
    report("3 additive constant vs asymptotic fit", ok,
           f"worst relative gap {worst:.2e}<=1e-5 over 20 sets, {dt:.1f}s<60s")


def truncated_square_wave_bands():
    bs = PE.band_spectrum(P.PeriodicSquare(0.5), 1.0, (-2.0, 100.0), 2048)
    return PE.to_gap_set(bs)


def test_a4_universal_inequality_margins():
    t0 = time.perf_counter()
    cases = [
        ("constant", P.Constant(1.0), M.GapSet(b0=1.0)),
        ("decaying", P.Decaying(1.0, 2.0), FREE),
        ("periodic-square", P.PeriodicSquare(0.5),
         truncated_square_wave_bands()),
        ("sparse-bumps", sparse_squares(), FREE),
        ("oscillating", P.OscillatingExample(), FREE),
    ]
    margins = {}
    for name, p, E in cases:
        c = M.solve_critical_points(E).c
        margins[name] = R.universal_inequality_check(p, E, 1e4, c=c).margin
    worst = min(margins.values())
    dt = time.perf_counter() - t0
    ok = worst >= -0.05 and dt < 120.0
    report("4 universal inequality margins", ok,
           f"min margin {worst:+.2e}>=-0.05 over 5 families, {dt:.1f}s<120s")


def test_a5_growth_matches_martin_for_regular_families():
    t0 = time.perf_counter()
    zs = (-1.0 + 0j, -4.0 + 0j, -0.25 + 0j, 1j, 2.0 + 1j)
    sups = {}
    for name, p in (("decaying", P.Decaying(1.0, 2.0)),
                    ("oscillating", P.OscillatingExample())):
        sups[name] = max(
            abs(PR.log_growth(p, 1e4, z, step=0.02)
                - M.martin_function(FREE, (), z).value) for z in zs)
    worst = max(sups.values())
    dt = time.perf_counter() - t0
    ok = worst <= 0.02 and dt < 120.0
    report("5 finite-scale growth vs martin function", ok,
           f"sup gap {worst:.2e}<=0.02 on 5-point z-grid, {dt:.1f}s<120s")


def test_a6_density_of_states_convergence():
    t0 = time.perf_counter()
    window = (0.0, 25.0)
    results = {}
    for name, p, tol in (("free", P.Constant(0.0), 0.02),
                         ("decaying", P.Decaying(1.0, 2.0), 0.05)):
        d1 = R.dos_comparison(p, FREE, 1e3, window, grid=200, c=())
        d2 = R.dos_comparison(p, FREE, 2e3, window, grid=200, c=())
        results[name] = (d1.distance, d2.distance, tol)
    dt = time.perf_counter() - t0
    ok = all(d1 <= tol and d2 <= d1 + 2.0 / 1e3
             for d1, d2, tol in results.values()) and dt < 120.0
    detail = ", ".join(f"{n} KS {d1:.2e}<={tol} then {d2:.2e}"
                       for n, (d1, d2, tol) in results.items())
    report("6 density of states convergence", ok, f"{detail}, {dt:.1f}s<120s")


def test_a7_volterra_vs_transfer_routes():
    t0 = time.perf_counter()
    worst = 0.0
    zs = (-4.0 + 0j, -1.0 + 0j, 1j, 2.0 + 1j, 9.0 + 0j)
    for p in (P.Constant(1.0), P.PeriodicSquare(0.25), P.Decaying(1.0, 2.0)):
        for z in zs:
            for x in (0.5, 1.0, 1.5, 2.0):
                via_series = volterra_solution(p, x, z, n_terms=12)
                s = PR.dirichlet_solution(p, x, z, step=1e-4)
                via_transfer = s.u * cmath.exp(s.log_scale)
                worst = max(worst, abs(via_series - via_transfer))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 60.0
    report("7 series vs transfer-matrix agreement", ok,
           f"worst |u_series - u_transfer| {worst:.2e}<=1e-8, {dt:.1f}s<60s")


def _det_log_defect(t):
    """log det(e**log_scale * m); zero for an exact transfer matrix."""
    d = t.m[0, 0] * t.m[1, 1] - t.m[0, 1] * t.m[1, 0]
    return cmath.log(d) + 2.0 * t.log_scale


def _det_defect_sweep(rng, count):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 4))
        values = tuple(rng.uniform(-2.0, 2.0, n))
        bps = tuple(np.sort(rng.uniform(0.35, 3.0, n - 1))) if n > 1 else ()
        p = P.PiecewiseConstant(values=values, breakpoints=bps)
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
        x = float(rng.uniform(0.5, 2.0))
        worst = max(worst, abs(_det_log_defect(PR.transfer_matrix(p, x, z))))
    return worst


def _conjugation_sweep(rng, count):
    worst = 0.0
    for _ in range(count):
        p = P.PiecewiseConstant(
            values=tuple(rng.uniform(-2.0, 2.0, 2)),
            breakpoints=(float(rng.uniform(0.5, 1.5)),))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 2.0))
        x = float(rng.uniform(0.5, 4.0))
        s1 = PR.dirichlet_solution(p, x, z)
        s2 = PR.dirichlet_solution(p, x, z.conjugate())
        u1 = s1.u * cmath.exp(s1.log_scale)
        u2 = s2.u * cmath.exp(s2.log_scale)
        worst = max(worst, abs(u2 - u1.conjugate()) / max(1.0, abs(u1)))
    return worst


def _growth_bound_sweep(rng, count):
    worst = -np.inf
    for i in range(count):
        if i % 10 == 0:
            p = P.Decaying(float(rng.uniform(0.2, 3.0)),
                           float(rng.uniform(0.5, 3.0)))
            x = float(rng.uniform(1.0, 5.0))
        else:
            n = int(rng.integers(1, 5))
            values = tuple(rng.uniform(-4.0, 4.0, n))
            bps = tuple(np.sort(rng.uniform(0.2, 8.0, n - 1))) if n > 1 else ()
            p = P.PiecewiseConstant(values=values, breakpoints=bps)
            x = float(rng.uniform(1.0, 30.0))
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0))
        bound = 1.0 + spectral_point(z).k.real \
            + pointwise.abs_integral(p, x) / x
        worst = max(worst, PR.log_growth(p, x, z) - bound)
    return worst


def test_a8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    checks = {}

    checks["det defect"] = (_det_defect_sweep(rng, 300), 1e-12)
    checks["conjugation"] = (_conjugation_sweep(rng, 100), 1e-12)
    checks["growth bound excess"] = (_growth_bound_sweep(rng, 1000), 1e-9)

    p = P.Random(seed=5, cell_width=1.0, low=-1.0, high=3.0)
    lam_counts = [PR.eigenvalue_count(p, 20.0, lam)
                  for lam in np.linspace(-2.0, 10.0, 25)]
    x_counts = [PR.eigenvalue_count(p, x, 5.0) for x in (5.0, 10.0, 20.0, 40.0)]
    checks["count monotone"] = (
        0.0 if (np.all(np.diff(lam_counts) >= 0)
                and np.all(np.diff(x_counts) >= 0)) else 1.0, 0.5)

    E = M.GapSet(b0=0.5, gaps=((1.0, 2.0), (4.0, 4.8)))
    cp = M.solve_critical_points(E)
    c = cp.c
    herglotz = min(complex(M._itheta_prime_raw(E, c, complex(re, im))).imag
                   for re in np.linspace(-3.0, 8.0, 19)
                   for im in (1e-3, 0.1, 1.0, 10.0))
    checks["herglotz defect"] = (max(0.0, -herglotz), 1e-12)

    lower = min(M.martin_function(E, c, z).value
                - cmath.sqrt(complex(E.b0) - z).real
                for z in (complex(rng.uniform(-5.0, 8.0), rng.uniform(0.0, 3.0))
                          for _ in range(50)))
    checks["martin lower bound defect"] = (max(0.0, -lower), 1e-9)

    angles = (np.arange(64) + 0.5) * (2.0 * math.pi / 64.0)
    mean_err = 0.0
    centers = [complex(rng.uniform(1.1, 1.9), 0.0) for _ in range(7)]
    centers += [complex(rng.uniform(4.1, 4.7), 0.0) for _ in range(6)]
    centers += [complex(rng.uniform(-2.0, 0.0), 0.0) for _ in range(4)]
    centers += [complex(rng.uniform(-1.0, 6.0), rng.uniform(0.5, 2.0))
                for _ in range(3)]
    for z0 in centers:
        r = 0.45 * M.distance_to_set(E, z0)
        ring = [M.martin_function(E, c, z0 + r * cmath.exp(1j * a)).value
                for a in angles]
        mid = M.martin_function(E, c, z0).value
        mean_err = max(mean_err, abs(float(np.mean(ring)) - mid))
    checks["mean value"] = (mean_err, 1e-6)

    checks["gap flatness"] = (max(abs(r) for r in cp.residuals), 1e-8)

    ps = P.PeriodicSquare(0.5)
    shrunk = np.array([9.2276 + 0.1, 10.5007 - 0.1])
    cdf = PR.zero_counting_cdf(ps, 500.0, shrunk, step=0.01)
    checks["gap counting mass"] = (float(cdf.cdf[1] - cdf.cdf[0]), 2.0 / 500.0)

    dt = time.perf_counter() - t0
    ok = all(value <= tol for value, tol in checks.values())
    detail = "; ".join(f"{name} {value:.2e}<={tol:.0e}"
                       for name, (value, tol) in checks.items())
    report("8 property suites", ok, f"{detail}; {dt:.1f}s")
