"""Numerical toolkit for the radial focusing energy-critical wave equation in 5D.

Modules
-------
quadrature    adaptive Gauss-Kronrod integration, sqrt-singular and tail rules
profiles      self-similar profile ODE: integration, classification, inversion
nonlinearity  g(z), F(u), the ground state W and derived closed forms
radiation     radiation profiles of radial free waves: data maps, residues,
              asymptotic numbers, translation law
radial_data   the radial initial-data pair RadialData and its sampled splines
exterior      exterior energies, positive propagator, residue flow,
              Born-level profile shifts, the ground-state residue radius
pdesim        leapfrog simulator for w = r^2 u in exterior regions with
              characteristic-ray, energy and virial diagnostics
verify        the reference-value verification pipeline (table, inequalities)
cli           command-line front end
"""

import importlib

__version__ = "0.1.0"

__all__ = ["exterior", "nonlinearity", "pdesim", "profiles", "quadrature", "radial_data",
           "radiation", "verify"]


def _pointwise(fn, *args):
    """fn at numbers; for arrays (broadcast together), an array of fn at each
    point, so that it holds what the points give one by one (0-d arrays give
    a float).  numpy is imported only for an array.  It lives here, where
    every module can reach it without loading another."""
    for a in args:
        if not isinstance(a, (int, float)):
            break
    else:
        return fn(*args)
    import numpy as np

    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    points = zip(*(a.ravel().tolist() for a in arrays))
    out = np.array([fn(*p) for p in points], dtype=float).reshape(arrays[0].shape)
    return out if out.ndim else float(out)


def __getattr__(name):
    """Import a submodule on first access (PEP 562), so `import exwave` loads
    no numpy and each program pays only for the modules it uses."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
