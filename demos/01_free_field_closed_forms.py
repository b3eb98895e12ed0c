"""Everything is exact when V = 0.

The free half-line operator is the one case where every quantity in this
package has a closed form, so it doubles as a smoke test: the Martin
function is Re sqrt(-z), the Dirichlet solution is sinh(sqrt(-z) x)/sqrt(-z),
and the spectral measure CDF is sqrt(lambda)/pi.
"""
import math

import numpy as np

from schreg import martin as M, potentials as P, propagation as PR

free_set = M.GapSet(b0=0.0)          # spectrum [0, inf), no gaps
vacuum = P.Constant(0.0)

print("Martin function vs Re sqrt(-z)")
for z in (-1.0 + 0j, -4.0 + 0j, 1j, 2.0 + 1j):
    m = M.martin_function(free_set, (), z).value
    print(f"  z={z!s:>8}  M(z)={m:.12f}  closed form={np.sqrt(-z).real:.12f}")

print("\nLog-growth of the Dirichlet solution at z=-1")
x = 200.0
h = PR.log_growth(vacuum, x, -1.0)
closed = 1.0 + math.log((1.0 - math.exp(-2.0 * x)) / 2.0) / x
print(f"  h({x:.0f},-1) = {h:.15f}")
print(f"  closed form  = {closed:.15f}")

print("\nSpectral measure CDF vs sqrt(lambda)/pi")
lam = np.array([1.0, 4.0, 9.0, 25.0])
cdf = M.martin_measure_cdf(free_set, (), lam).cdf
for lv, cv in zip(lam, cdf):
    print(f"  lambda={lv:5.1f}  cdf={cv:.12f}  sqrt/pi={math.sqrt(lv)/math.pi:.12f}")
