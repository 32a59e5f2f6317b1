"""Numerical toolkit for the radial focusing energy-critical wave equation in 5D.

Modules
-------
quadrature    adaptive Gauss-Kronrod integration, sqrt-singular and tail rules
profiles      self-similar profile ODE: integration, classification, inversion
nonlinearity  g(z), F(u), the ground state W and derived closed forms
radiation     radiation profiles of radial free waves: data maps, residues,
              asymptotic numbers, translation law, Born-level profile shifts
pdesim        leapfrog simulator for w = r^2 u in exterior regions with
              characteristic-ray, energy and virial diagnostics
verify        the reference-value verification pipeline (table, inequalities)
cli           command-line front end
"""

import importlib

__version__ = "0.1.0"

__all__ = ["nonlinearity", "pdesim", "profiles", "quadrature", "radiation", "verify"]


def __getattr__(name):
    """Import a submodule on first access (PEP 562), so `import exwave` loads
    no numpy and each program pays only for the modules it uses."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
