"""Finite-scale regularity diagnostics and the report verdict logic."""
import math

import numpy as np
import pytest

from schreg import martin as M, periodic as PE, potentials as P
from schreg import propagation as PR, regularity as R

FREE = M.GapSet(b0=0.0)


def unit_bump():
    return P.PiecewiseConstant(values=(1.0, 0.0), breakpoints=(1.0,))


def sparse_squares():
    return P.SparseBumps(bump=unit_bump(),
                         positions=tuple(float(n * n) for n in range(2, 15)),
                         sparse_from=0)


# ---------------------------------------------------------------------------
# universal inequality


def test_margin_constant_free():
    chk = R.universal_inequality_check(P.Constant(0.0), FREE, 1000.0, c=())
    assert chk.a_e == 0.0
    assert chk.margin == 0.0


def test_margin_constant_shifted():
    E = M.GapSet(b0=2.0)
    chk = R.universal_inequality_check(P.Constant(2.0), E, 1000.0, c=())
    assert chk.margin == pytest.approx(0.0, abs=1e-12)


def test_margin_decaying_small_positive():
    chk = R.universal_inequality_check(P.Decaying(1.0, 2.0), FREE, 1000.0,
                                       c=())
    assert 0.0 <= chk.margin <= 2e-3


def test_margin_requires_large_horizon():
    with pytest.raises(ValueError):
        R.universal_inequality_check(P.Constant(0.0), FREE, 50.0, c=())


def test_margin_random_strongly_positive():
    p = P.Random(seed=0, cell_width=1.0, low=0.0, high=1.0)
    chk = R.universal_inequality_check(p, FREE, 2000.0, c=())
    assert chk.margin > 0.40   # frozen Monte Carlo baseline (seeds 0-9)


# ---------------------------------------------------------------------------
# growth comparison


def test_growth_free_field_checkpoint():
    g = R.growth_comparison(P.Constant(0.0), FREE, [-1.0], [100.0, 200.0],
                            c=())
    want = 1.0 + math.log((1.0 - math.exp(-400.0)) / 2.0) / 200.0
    assert g.h[0, -1] == pytest.approx(want, abs=1e-9)
    assert g.m[0] == pytest.approx(1.0, abs=1e-10)
    assert g.sup_gap == pytest.approx(abs(want - 1.0), abs=1e-9)


def test_growth_rejects_z_near_spectrum():
    with pytest.raises(ValueError):
        R.growth_comparison(P.Constant(0.0), FREE, [0.05j], [100.0], c=())


def test_growth_lower_bound_direction():
    # finite-scale form of the universal growth bound: h >= M - 0.05
    for p in (P.Decaying(1.0, 2.0), P.OscillatingExample(),
              P.Random(seed=1, cell_width=1.0, low=0.0, high=1.0)):
        g = R.growth_comparison(p, FREE, [-1.0, -4.0, 1j], [250.0, 500.0],
                                c=())
        assert np.all(g.h >= g.m[:, None] - 0.05)


# ---------------------------------------------------------------------------
# density of states


def test_dos_free_field_close():
    d = R.dos_comparison(P.Constant(0.0), FREE, 500.0, (0.0, 25.0),
                         grid=150, c=())
    assert d.distance <= 0.01
    assert np.all(np.diff(d.rho_x) >= -1e-15)
    assert np.all(np.diff(d.rho_e) >= -1e-12)


def test_dos_window_validation():
    with pytest.raises(ValueError):
        R.dos_comparison(P.Constant(0.0), FREE, 100.0, (25.0, 0.0), c=())
    with pytest.raises(ValueError):
        R.dos_comparison(P.Constant(0.0), FREE, 100.0, (-5.0, 25.0), c=())


def test_dos_gap_count_bound():
    # zero-counting mass inside a spectral gap: at most (n+1)/x with n the
    # number of true eigenvalues there (n <= 1 for a periodic potential)
    ps = P.PeriodicSquare(0.5)
    for x in (200.0, 500.0):
        lams = np.array([9.2276 + 0.1, 10.5007 - 0.1])
        cdf = PR.zero_counting_cdf(ps, x, lams, step=0.01)
        assert (cdf.cdf[1] - cdf.cdf[0]) <= 2.0 / x + 1e-12


WIDE = M.GapSet(b0=0.0, gaps=((1.0, 2.0), (999.0, 1000.0)))


@pytest.mark.parametrize("starts_at", [
    lambda lo: M.martin_measure_cdf(WIDE, M.solve_critical_points(WIDE).c,
                                    [lo, 0.5]),
    lambda lo: R.check_window((lo, 0.5), WIDE),
], ids=["martin_measure_cdf", "check_window"])
def test_one_starts_at_b0_rule(starts_at):
    # the same rounding allowance below b0 wherever a grid or window starts
    with pytest.raises(ValueError, match="b0"):
        starts_at(-5e-10)
    starts_at(-1e-13)


# ---------------------------------------------------------------------------
# verdict rule


def test_decide_verdict_rule():
    kw = dict(margin_tol=0.05, growth_tol=0.05, dos_tol=0.05)
    assert R.decide_verdict(0.0, 0.0, 0.0, **kw) == R.CONSISTENT
    assert R.decide_verdict(0.04, 0.05, 0.05, **kw) == R.CONSISTENT
    assert R.decide_verdict(-0.04, 0.0, 0.0, **kw) == R.CONSISTENT
    assert R.decide_verdict(0.08, 0.0, 0.0, **kw) == R.INCONCLUSIVE
    assert R.decide_verdict(-0.08, 0.0, 0.0, **kw) == R.INCONCLUSIVE
    assert R.decide_verdict(0.0, 0.08, 0.0, **kw) == R.INCONCLUSIVE
    assert R.decide_verdict(0.11, 0.0, 0.0, **kw) == R.INCONSISTENT
    assert R.decide_verdict(-0.11, 0.0, 0.0, **kw) == R.INCONSISTENT
    assert R.decide_verdict(0.0, 0.2, 0.0, **kw) == R.INCONSISTENT
    assert R.decide_verdict(0.0, 0.0, 0.2, **kw) == R.INCONSISTENT


# ---------------------------------------------------------------------------
# full reports


def small_config(**over):
    base = dict(x_max=500.0, dos_x=200.0, cesaro_points=64, dos_points=120)
    base.update(over)
    return R.ReportConfig(**base)


def test_report_decaying_consistent():
    rep = R.regularity_report(P.Decaying(1.0, 2.0), FREE, small_config())
    assert rep.verdict == R.CONSISTENT
    assert np.all(rep.growth.h >= rep.growth.m[:, None] - 0.05)
    assert rep.inequality.margin >= -0.05


def test_report_sparse_bumps_consistent():
    rep = R.regularity_report(sparse_squares(), FREE, small_config())
    assert rep.verdict == R.CONSISTENT


def test_report_random_inconsistent_across_seeds():
    # ten-seed Monte Carlo regression baseline for the disordered family
    for seed in range(10):
        p = P.Random(seed=seed, cell_width=1.0, low=0.0, high=1.0)
        rep = R.regularity_report(p, FREE, small_config())
        assert rep.verdict == R.INCONSISTENT
        assert rep.inequality.margin > 0.40
        assert float(np.max(np.abs(rep.growth.gaps))) > 0.15


@pytest.mark.parametrize("delta", [0.25, 0.45])
def test_report_periodic_square_consistent_on_its_own_bands(delta):
    # a periodic V is regular: its report against the gap set its own band
    # scan gives, up to Lambda = 3000, finds nothing against regularity
    p = P.PeriodicSquare(delta)
    E = PE.to_gap_set(PE.band_spectrum(p, 2.0 * delta, (-2.0, 3000.0), 2048))
    rep = R.regularity_report(p, E)
    assert rep.verdict == R.CONSISTENT


def test_report_verdict_replayable_from_stored_numbers():
    rep = R.regularity_report(P.Decaying(1.0, 2.0), FREE, small_config())
    replay = R.decide_verdict(rep.inequality.margin,
                              float(np.max(np.abs(rep.growth.gaps))),
                              rep.dos.distance, **rep.thresholds)
    assert replay == rep.verdict
    doc = rep.to_json()
    replay2 = R.decide_verdict(
        doc["inequality_margin"], doc["growth_sup_gap"],
        doc["dos_distance"], **doc["thresholds"])
    assert replay2 == doc["verdict"]


def test_report_holds_its_three_diagnostics(monkeypatch):
    p, E, cfg = P.Decaying(1.0, 2.0), M.GapSet(b0=0.0, gaps=((1.0, 2.0),)), small_config()
    solve, solved_for = M.solve_critical_points, []
    monkeypatch.setattr(M, "solve_critical_points",
                        lambda s: solved_for.append(s) or solve(s))
    rep = R.regularity_report(p, E, cfg)
    assert solved_for == [E]
    assert R.RegularityReport._fields == ("potential", "gap_set", "thresholds",
                                          "inequality", "growth", "dos", "verdict")
    c = solve(E).c
    alone = (
        R.universal_inequality_check(p, E, cfg.x_max, c, grid_points=cfg.cesaro_points),
        R.growth_comparison(p, E, cfg.z_grid, [f * cfg.x_max for f in cfg.growth_fractions],
                            c, step=cfg.step),
        R.dos_comparison(p, E, cfg.dos_x, (E.b0, E.b0 + 25.0), c, grid=cfg.dos_points,
                         step=cfg.step),
    )
    for held, own in zip((rep.inequality, rep.growth, rep.dos), alone):
        assert type(held) is type(own)
        for field in own._fields:
            np.testing.assert_array_equal(getattr(held, field), getattr(own, field))
    doc = rep.to_json()
    assert sorted(doc) == ["a_e", "dos_distance", "gap_set", "growth_sup_gap",
                           "inequality_margin", "potential", "thresholds", "verdict"]
    assert (doc["a_e"], doc["inequality_margin"], doc["growth_sup_gap"],
            doc["dos_distance"]) == (rep.inequality.a_e, rep.inequality.margin,
                                     float(np.max(np.abs(rep.growth.gaps))),
                                     rep.dos.distance)


def test_report_config_json_round_trip():
    cfg = R.ReportConfig.from_json({
        "x_max": 800.0,
        "z_grid": [[-1.0, 0.0], [0.0, 1.0]],
        "growth_fractions": [0.5, 1.0],
        "margin_tol": 0.1,
    })
    assert cfg.x_max == 800.0
    assert cfg.z_grid == (-1.0 + 0j, 1j)
    assert cfg.growth_fractions == (0.5, 1.0)
    assert cfg.margin_tol == 0.1
    assert cfg.dos_tol == 0.05   # untouched default


def test_periodic_square_growth_example():
    # truncated band set for the +-1 square wave; growth target met at 1e4
    ps = P.PeriodicSquare(0.5)
    E = PE.to_gap_set(PE.band_spectrum(ps, 1.0, (-2.0, 100.0), 2048))
    cp = M.solve_critical_points(E)
    h = PR.log_growth(ps, 1e4, -1.0, step=0.02)
    m = M.martin_function(E, cp.c, -1.0).value
    assert abs(h - m) <= 0.01
    chk = R.universal_inequality_check(ps, E, 1e4, c=cp.c)
    assert chk.margin >= -0.05
