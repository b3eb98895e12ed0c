"""Band structure of the +-1 square-wave potential.

The discriminant (trace of the one-period transfer matrix) classifies
energies: |Delta| <= 2 is a band.  With the one-period Dirichlet zero count
it gives every energy an exact band level, so a scan finds every gap in its
window, however narrow.  For the square wave with half-period delta the
bottom of the spectrum sits near -delta^2/12, and the gaps open around the
harmonic energies (n pi)^2: wide for odd n, narrow for even n.
"""
import numpy as np

from schreg import periodic as PE, potentials as P

print("Bottom of the spectrum vs the small-delta law -delta^2/12")
for delta in (0.4, 0.2, 0.1):
    p = P.PeriodicSquare(delta)
    lam0 = PE.band_spectrum(p, 2.0 * delta, (-1.0, 1.0), 512).bands[0][0]
    print(f"  delta={delta:4.2f}  lambda_0={lam0:+.8f}   -delta^2/12={-delta**2/12.0:+.8f}")

print("\nBands of PeriodicSquare(0.5) (period 1) in [-2, 100]")
bs = PE.band_spectrum(P.PeriodicSquare(0.5), 1.0, (-2.0, 100.0), 2048)
for i, (lo, hi) in enumerate(bs.bands):
    print(f"  band {i}: [{lo:9.4f}, {hi:9.4f}]   width {hi - lo:8.4f}")

E = PE.to_gap_set(bs)
print("\nGap set (bounded gaps inside the window):")
for a, b in E.gaps:
    n = round(np.sqrt((a + b) / 2.0) / np.pi)
    print(f"  gap ({a:9.4f}, {b:9.4f})  width {b - a:8.4f}  near (n pi)^2 with n={n}")
print(f"  the even-harmonic gap n=2 is {E.gaps[1][1] - E.gaps[1][0]:.4f} wide,")
print(f"  narrower than the scan's sample spacing {bs.lam[1] - bs.lam[0]:.4f}.")
