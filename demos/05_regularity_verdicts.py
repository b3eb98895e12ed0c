"""Finite-scale regularity reports for three contrasting potentials.

A potential is "regular" for a spectrum E when its Cesàro averages attain
the additive constant a_E.  The report combines three diagnostics — the
universal inequality margin, growth vs the Martin function, and density of
states — into one verdict.  A decaying potential is consistent with
regularity, rapid sign-flipping oscillations still are, and a positive
random potential (whose true spectrum is nothing like [0, inf)) is flagged
immediately.
"""
import numpy as np

from schreg import martin as M, potentials as P, regularity as R

free_set = M.GapSet(b0=0.0)
config = R.ReportConfig(x_max=500.0, dos_x=200.0, dos_points=120,
                        cesaro_points=64)

cases = [
    ("Decaying(1,2)", P.Decaying(1.0, 2.0)),
    ("OscillatingExample", P.OscillatingExample()),
    ("Random(seed=0) in [0,1]", P.Random(seed=0, cell_width=1.0,
                                         low=0.0, high=1.0)),
]

for name, p in cases:
    rep = R.regularity_report(p, free_set, config)
    growth = float(np.max(np.abs(rep.growth.gaps)))
    print(f"{name}  (tested against E = [0, inf))")
    print(f"  inequality margin : {rep.inequality.margin:+.5f}")
    print(f"  growth sup-gap    : {growth:.5f}")
    print(f"  dos distance      : {rep.dos.distance:.5f}")
    print(f"  verdict           : {rep.verdict}\n")

print("The verdict is a pure function of the stored numbers, so a report")
print("can be re-judged later without recomputing anything:")
rep = R.regularity_report(P.Decaying(1.0, 2.0), free_set, config)
again = R.decide_verdict(rep.inequality.margin,
                         float(np.max(np.abs(rep.growth.gaps))),
                         rep.dos.distance, **rep.thresholds)
print(f"  replayed verdict = {again!r}")
