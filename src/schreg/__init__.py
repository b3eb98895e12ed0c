"""Numerics for half-line Schrodinger operators -u'' + V u.

Subpackages by theme: `potentials` (the model families and their exact
running integrals), `propagation` (transfer matrices, Dirichlet solutions,
zero counting), `periodic` (discriminants and band spectra), `spectrum`
(the gap sets and measures that the two halves exchange), `martin`
(comb-domain conformal data for finite-gap sets), `regularity` (diagnostics
comparing a potential's finite-x data against its spectral target), and
`cli` (the `schreg` command, whose configs `jsonschema` validates).  Each
loads on first use: `import schreg` alone loads only `errors`.
"""

from .errors import SchregError

__version__ = "0.1.0"

__all__ = ["martin", "periodic", "potentials", "propagation", "regularity", "spectrum",
           "SchregError", "__version__"]


def __getattr__(name):   # PEP 562: a submodule is imported when first named
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return importlib.import_module(f".{name}", __name__)
