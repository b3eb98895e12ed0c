"""Finite-scale regularity diagnostics for a potential against a target set.

Three comparisons, each a finite-x shadow of an asymptotic statement:

* the universal trace inequality -- the Cesaro mean of V over [0, x] should
  not dip below the set's asymptotic constant a_E (and should approach it
  when the potential is regular for E);
* growth -- the Dirichlet log-growth h(x, z) should approach the Martin
  function M(z) on a grid of test energies off the spectrum;
* density of states -- the zero-counting measure at scale x should be
  KS-close to the Martin measure on a compact energy window.

Each comparison takes the critical points c of the set and returns its own
record; a RegularityReport holds the three records themselves, which
regularity_report computes against one solve of c.

The essential spectrum is always an input (a GapSet); nothing here tries
to infer it from V except through the periodic band pipeline upstream.
Verdicts are a pure function of the stored numbers and thresholds, so a
report can be re-judged from its JSON alone.
"""
from __future__ import annotations

import numpy as np

from . import martin, potentials, propagation
from .record import Record
from .spectrum import check_window, check_z_grid

__all__ = [
    "InequalityCheck",
    "GrowthComparison",
    "DosComparison",
    "ReportConfig",
    "RegularityReport",
    "universal_inequality_check",
    "growth_comparison",
    "dos_comparison",
    "decide_verdict",
    "regularity_report",
]

CONSISTENT = "consistent-with-regular"
INCONSISTENT = "inconsistent"
INCONCLUSIVE = "inconclusive"


class InequalityCheck(Record, eq=False):
    """Cesaro trace versus a_E; margin is min(tail half) - a_E."""

    a_e: float
    liminf_estimate: float
    margin: float
    x: np.ndarray
    average: np.ndarray


class GrowthComparison(Record, eq=False):
    z: np.ndarray
    x: np.ndarray
    h: np.ndarray        # (len(z), len(x)) log-growth samples
    m: np.ndarray        # target M(z)
    gaps: np.ndarray     # h[:, -1] - m
    sup_gap: float


class DosComparison(Record, eq=False):
    lam: np.ndarray
    rho_x: np.ndarray
    rho_e: np.ndarray
    distance: float


def universal_inequality_check(p, E, x_max, c, grid_points=128):
    """Margin of the universal Cesaro inequality at horizon x_max.

    The liminf of the trace average is estimated as the minimum over the
    tail half [x_max/2, x_max] of a logarithmic grid (bias O(1/x), which is
    the best a single horizon can do).  Positive-part margins near zero are
    what regularity predicts; a clearly negative margin contradicts the
    inequality and therefore the choice of E.
    """
    if not x_max >= 100:
        raise ValueError("x_max must be at least 100")
    a_e = martin.a_constant(E, c)
    xs = np.geomspace(max(1.0, x_max / 1000.0), x_max, int(grid_points))
    trace = potentials.cesaro_trace(p, xs)
    tail = trace.mean[xs >= 0.5 * x_max]
    est = float(np.min(tail))
    return InequalityCheck(a_e=a_e, liminf_estimate=est, margin=est - a_e,
                           x=xs, average=trace.mean)


def growth_comparison(p, E, z_grid, x_list, c, step=0.02):
    """h(x, z) along checkpoints against the Martin target M(z).

    Every z must keep distance >= 0.1 from [b0, inf); the summary field is
    the sup over z of |h(x_max, z) - M(z)|.
    """
    zs = check_z_grid(z_grid, E)
    xs = np.asarray(sorted(float(x) for x in x_list))
    h = propagation.dirichlet_profile(p, xs, zs, step).log_growth(xs)
    m = martin.martin_function(E, c, zs).value
    gaps = h[:, -1] - m
    return GrowthComparison(z=zs, x=xs, h=h, m=m, gaps=gaps,
                            sup_gap=float(np.max(np.abs(gaps))))


def dos_comparison(p, E, x, lambda_window, c, grid=200, step=0.02):
    """KS distance between the zero-counting and Martin CDFs on `grid`
    evenly spaced points of the window."""
    lams = np.linspace(*check_window(lambda_window, E), int(grid))
    rho_x = propagation.zero_counting_cdf(p, x, lams, step=step)
    rho_e = martin.martin_measure_cdf(E, c, lams)
    dist = float(np.max(np.abs(rho_x.cdf - rho_e.cdf)))
    return DosComparison(lam=lams, rho_x=rho_x.cdf, rho_e=rho_e.cdf,
                         distance=dist)


class ReportConfig(Record):
    """Knobs and thresholds for regularity_report; shipped defaults here.

    The thresholds are reporting policy, not mathematical constants: the
    underlying statements are exact only in the x -> infinity limit, so a
    finite-scale report can only check consistency.
    """

    x_max: float = 2000.0
    step: float = 0.02
    cesaro_points: int = 128
    z_grid: tuple = (-1.0 + 0j, -2.0 + 0j, -0.5 + 0j, 1j, 2 + 1j)
    growth_fractions: tuple = (0.125, 0.25, 0.5, 1.0)
    dos_x: float = 500.0
    lambda_window: tuple | None = None   # default: (b0, b0 + 25)
    dos_points: int = 200
    margin_tol: float = 0.05
    growth_tol: float = 0.05
    dos_tol: float = 0.05

    @classmethod
    def from_json(cls, obj):
        kw = dict(obj)
        if "z_grid" in kw:
            kw["z_grid"] = tuple(complex(zr, zi) for zr, zi in kw["z_grid"])
        for key in ("growth_fractions", "lambda_window"):
            if kw.get(key) is not None:
                kw[key] = tuple(kw[key])
        return cls(**kw)


class RegularityReport(Record, eq=False):
    potential: dict
    gap_set: dict
    thresholds: dict
    inequality: InequalityCheck
    growth: GrowthComparison
    dos: DosComparison
    verdict: str

    def to_json(self):
        """The verdict record; the CLI writes the arrays as CSV tables."""
        return {
            "potential": self.potential,
            "gap_set": self.gap_set,
            "thresholds": dict(self.thresholds),
            "a_e": self.inequality.a_e,
            "inequality_margin": self.inequality.margin,
            "growth_sup_gap": self.growth.sup_gap,
            "dos_distance": self.dos.distance,
            "verdict": self.verdict,
        }


def decide_verdict(margin, growth_gap, dos_distance, margin_tol, growth_tol,
                   dos_tol):
    """Pure verdict rule, replayable from a report's stored numbers.

    consistent-with-regular: every metric within its threshold (margin
    two-sided -- regularity predicts equality in the trace inequality).
    inconsistent: any metric beyond twice its threshold.  Otherwise
    inconclusive.
    """
    within = (abs(margin) <= margin_tol and growth_gap <= growth_tol
              and dos_distance <= dos_tol)
    if within:
        return CONSISTENT
    if (margin < -2.0 * margin_tol or margin > 2.0 * margin_tol
            or growth_gap > 2.0 * growth_tol or dos_distance > 2.0 * dos_tol):
        return INCONSISTENT
    return INCONCLUSIVE


def regularity_report(p, E, config=None):
    """Run all three diagnostics and return the judged report.  The
    critical points c are solved here, once for all three."""
    cfg = config or ReportConfig()
    c = martin.solve_critical_points(E).c
    ineq = universal_inequality_check(p, E, cfg.x_max, c,
                                      grid_points=cfg.cesaro_points)
    x_list = [f * cfg.x_max for f in cfg.growth_fractions]
    growth = growth_comparison(p, E, cfg.z_grid, x_list, c, step=cfg.step)
    window = cfg.lambda_window or (E.b0, E.b0 + 25.0)
    dos = dos_comparison(p, E, cfg.dos_x, window, c, grid=cfg.dos_points,
                         step=cfg.step)
    thresholds = {"margin_tol": cfg.margin_tol, "growth_tol": cfg.growth_tol,
                  "dos_tol": cfg.dos_tol}
    return RegularityReport(
        potential=potentials.to_json(p), gap_set=E.to_json(),
        thresholds=thresholds, inequality=ineq, growth=growth, dos=dos,
        verdict=decide_verdict(ineq.margin, growth.sup_gap, dos.distance,
                               **thresholds))
