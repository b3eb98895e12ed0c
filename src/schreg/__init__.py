"""Numerics for half-line Schrodinger operators -u'' + V u.

Subpackages by theme: `potentials` (the model families and their exact
running integrals), `propagation` (transfer matrices, Dirichlet solutions,
zero counting), `periodic` (discriminants and band spectra), `martin`
(comb-domain conformal data for finite-gap sets), `regularity` (diagnostics
comparing a potential's finite-x data against its spectral target), and
`cli` (the `schreg` command, whose configs `jsonschema` validates).
"""

from . import martin, periodic, potentials, propagation, regularity
from .errors import SchregError

__version__ = "0.1.0"

__all__ = ["martin", "periodic", "potentials", "propagation", "regularity",
           "SchregError", "__version__"]
