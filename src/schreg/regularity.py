"""Finite-scale regularity diagnostics for a potential against a target set.

Three comparisons, each a finite-x shadow of an asymptotic statement:

* the universal trace inequality -- the Cesaro mean of V over [0, x] should
  not dip below the set's asymptotic constant a_E (and should approach it
  when the potential is regular for E);
* growth -- the Dirichlet log-growth h(x, z) should approach the Martin
  function M(z) on a grid of test energies off the spectrum;
* density of states -- the zero-counting measure at scale x should be
  KS-close to the Martin measure on a compact energy window.

The essential spectrum is always an input (a GapSet); nothing here tries
to infer it from V except through the periodic band pipeline upstream.
Verdicts are a pure function of the stored numbers and thresholds, so a
report can be re-judged from its JSON alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import martin, potentials, propagation

__all__ = [
    "InequalityCheck",
    "GrowthComparison",
    "DosComparison",
    "ReportConfig",
    "RegularityReport",
    "universal_inequality_check",
    "growth_comparison",
    "dos_comparison",
    "check_window",
    "decide_verdict",
    "regularity_report",
]

CONSISTENT = "consistent-with-regular"
INCONSISTENT = "inconsistent"
INCONCLUSIVE = "inconclusive"


def _solved_c(E, c):
    if c is None:
        return martin.solve_critical_points(E).c
    return tuple(c)


@dataclass(frozen=True, eq=False)
class InequalityCheck:
    """Cesaro trace versus a_E; margin is min(tail half) - a_E."""

    a_e: float
    liminf_estimate: float
    margin: float
    x: np.ndarray
    average: np.ndarray


@dataclass(frozen=True, eq=False)
class GrowthComparison:
    z: np.ndarray
    x: np.ndarray
    h: np.ndarray        # (len(z), len(x)) log-growth samples
    m: np.ndarray        # target M(z)
    gaps: np.ndarray     # h[:, -1] - m
    sup_gap: float


@dataclass(frozen=True, eq=False)
class DosComparison:
    lam: np.ndarray
    rho_x: np.ndarray
    rho_e: np.ndarray
    distance: float


def universal_inequality_check(p, E, x_max, c=None, grid_points=128):
    """Margin of the universal Cesaro inequality at horizon x_max.

    The liminf of the trace average is estimated as the minimum over the
    tail half [x_max/2, x_max] of a logarithmic grid (bias O(1/x), which is
    the best a single horizon can do).  Positive-part margins near zero are
    what regularity predicts; a clearly negative margin contradicts the
    inequality and therefore the choice of E.
    """
    if not x_max >= 100:
        raise ValueError("x_max must be at least 100")
    cc = _solved_c(E, c)
    a_e = martin.a_constant(E, cc)
    xs = np.geomspace(max(1.0, x_max / 1000.0), x_max, int(grid_points))
    trace = potentials.cesaro_trace(p, xs)
    tail = trace.mean[xs >= 0.5 * x_max]
    est = float(np.min(tail))
    return InequalityCheck(a_e=a_e, liminf_estimate=est, margin=est - a_e,
                           x=xs, average=trace.mean)


def growth_comparison(p, E, z_grid, x_list, c=None, step=0.02):
    """h(x, z) along checkpoints against the Martin target M(z).

    Every z must keep distance >= 0.1 from [b0, inf); the summary field is
    the sup over z of |h(x_max, z) - M(z)|.
    """
    cc = _solved_c(E, c)
    zs = np.asarray([complex(z) for z in z_grid])
    for z in zs:
        if martin.distance_to_set(E, z) < 0.1:
            raise ValueError(f"z={z} closer than 0.1 to the spectrum")
    xs = np.asarray(sorted(float(x) for x in x_list))
    h = propagation.dirichlet_profile(p, xs, zs, step).log_growth(xs)
    m = np.array([martin.martin_function(E, cc, z).value for z in zs])
    gaps = h[:, -1] - m
    return GrowthComparison(z=zs, x=xs, h=h, m=m, gaps=gaps,
                            sup_gap=float(np.max(np.abs(gaps))))


def check_window(lambda_window, E=None):
    """(lo, hi) of a window; ValueError unless lo < hi and lo >= E.b0."""
    lo, hi = float(lambda_window[0]), float(lambda_window[1])
    if not lo < hi:
        raise ValueError("lambda_window must be increasing")
    if E is not None and lo < E.b0 - 1e-12 * max(1.0, abs(E.b0)):
        raise ValueError("window must start at or above b0")
    return lo, hi


def dos_comparison(p, E, x, lambda_window, grid=200, c=None, step=0.02):
    """KS distance between the zero-counting and Martin CDFs on a window.

    `grid` is either a point count (linear grid over the window) or an
    explicit increasing array inside [b0, Lambda].
    """
    cc = _solved_c(E, c)
    lo, hi = check_window(lambda_window, E)
    lams = np.asarray(grid, dtype=float) if np.ndim(grid) else \
        np.linspace(lo, hi, int(grid))
    rho_x = propagation.zero_counting_cdf(p, x, lams, step=step)
    rho_e = martin.martin_measure_cdf(E, cc, lams)
    dist = float(np.max(np.abs(rho_x.cdf - rho_e.cdf)))
    return DosComparison(lam=lams, rho_x=rho_x.cdf, rho_e=rho_e.cdf,
                         distance=dist)


@dataclass(frozen=True)
class ReportConfig:
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


@dataclass(frozen=True, eq=False)
class RegularityReport:
    potential: dict
    gap_set: dict
    thresholds: dict
    a_e: float
    cesaro_x: np.ndarray
    cesaro_average: np.ndarray
    inequality_margin: float
    growth_z: np.ndarray
    growth_x: np.ndarray
    growth_h: np.ndarray
    growth_m: np.ndarray
    growth_gaps: np.ndarray
    dos_lambda: np.ndarray
    dos_rho_x: np.ndarray
    dos_rho_e: np.ndarray
    dos_distance: float
    verdict: str

    def to_json(self):
        return {
            "potential": self.potential,
            "gap_set": self.gap_set,
            "thresholds": dict(self.thresholds),
            "a_e": self.a_e,
            "cesaro": {"x": self.cesaro_x.tolist(),
                       "average": self.cesaro_average.tolist()},
            "inequality_margin": self.inequality_margin,
            "growth": {
                "z": [[z.real, z.imag] for z in self.growth_z],
                "x": self.growth_x.tolist(),
                "h": self.growth_h.tolist(),
                "m": self.growth_m.tolist(),
                "gaps": self.growth_gaps.tolist(),
            },
            "dos": {"lambda": self.dos_lambda.tolist(),
                    "rho_x": self.dos_rho_x.tolist(),
                    "rho_e": self.dos_rho_e.tolist(),
                    "distance": self.dos_distance},
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


def regularity_report(p, E, config=None, c=None):
    """Run all three diagnostics and return the judged report."""
    cfg = config or ReportConfig()
    cc = _solved_c(E, c)
    ineq = universal_inequality_check(p, E, cfg.x_max, c=cc,
                                      grid_points=cfg.cesaro_points)
    x_list = [f * cfg.x_max for f in cfg.growth_fractions]
    growth = growth_comparison(p, E, cfg.z_grid, x_list, c=cc, step=cfg.step)
    window = cfg.lambda_window or (E.b0, E.b0 + 25.0)
    dos = dos_comparison(p, E, cfg.dos_x, window, grid=cfg.dos_points,
                         c=cc, step=cfg.step)
    verdict = decide_verdict(ineq.margin, growth.sup_gap, dos.distance,
                             cfg.margin_tol, cfg.growth_tol, cfg.dos_tol)
    thresholds = {"margin_tol": cfg.margin_tol, "growth_tol": cfg.growth_tol,
                  "dos_tol": cfg.dos_tol}
    return RegularityReport(
        potential=potentials.to_json(p), gap_set=E.to_json(),
        thresholds=thresholds, a_e=ineq.a_e,
        cesaro_x=ineq.x, cesaro_average=ineq.average,
        inequality_margin=ineq.margin,
        growth_z=growth.z, growth_x=growth.x, growth_h=growth.h,
        growth_m=growth.m, growth_gaps=growth.gaps,
        dos_lambda=dos.lam, dos_rho_x=dos.rho_x, dos_rho_e=dos.rho_e,
        dos_distance=dos.distance, verdict=verdict,
    )
