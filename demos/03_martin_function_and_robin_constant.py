"""The Martin function of a gapped spectrum and its additive constant.

For a finite-gap set E the Martin function M_E is built from an explicit
product formula once the critical point inside each gap is known.  The
additive constant a_E (renormalized Robin constant) then has two
independent routes: a closed form in the gap data, and a least-squares fit
of the large-|z| expansion M = Re(sqrt(-z) + a/(2 sqrt(-z))) + ...
Agreement of the two is a strong end-to-end check.
"""
import numpy as np

from schreg import martin as M

E = M.GapSet(b0=0.0, gaps=((1.0, 2.0), (5.0, 6.5)))
cp = M.solve_critical_points(E)

print("Gap set: b0=0, gaps (1,2) and (5,6.5)")
print("Critical points (max of M inside each gap):")
for (a, b), c, res in zip(E.gaps, cp.c, cp.residuals):
    print(f"  gap ({a},{b}): c = {c:.12f}   period residual {res:.2e}")

print("\nVanishing gap periods make Re Theta flat across each gap:")
print(f"  flatness = {max(abs(r) for r in cp.residuals):.2e}")

a_closed = M.a_constant(E, cp.c)
a_fit = M.fit_a_from_martin(E, cp.c, np.linspace(50.0, 100.0, 12))
print("\nAdditive constant, two routes:")
print(f"  closed form : {a_closed:.10f}")
print(f"  tail fit    : {a_fit:.10f}")
print(f"  difference  : {abs(a_closed - a_fit):.2e}")

print("\nSample values (M > 0 off the spectrum, 0 on bands):")
for z in (-1.0 + 0j, 1.5 + 0j, 5.7 + 0j, 3.0 + 0j, 2.0 + 2.0j):
    ev = M.martin_function(E, cp.c, z)
    print(f"  z={z!s:>8}  M={ev.value:.10f}")
