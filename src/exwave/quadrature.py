"""Deterministic adaptive quadrature with endpoint-singularity and tail rules.

Every integral in this package is computed by the nested Gauss(7)/Kronrod(15)
pair below, subdivided by interval bisection.  Three entry points cover the
three kinds of integrals that occur:

* ``integrate_adaptive``     -- smooth integrand on a finite interval,
* ``integrate_sqrt_singular``-- weight (1-y)^(-1/2) with the singular endpoint
                                at or left of y = 1, removed by y = 1 - tau^2,
* ``integrate_tail``         -- integral to infinity; the integrand must carry
                                an explicit compact support or decay
                                declaration (no sniffing).

Integrands must accept numpy arrays.  All routines are pure: identical inputs
give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Integrand",
    "QuadratureError",
    "integrate_adaptive",
    "integrate_sqrt_singular",
    "integrate_tail",
]

# Panel evaluations allowed per integral (QUADPACK's ``limit``).  The
# package's integrals take at most a few hundred panels; the budget only
# stops integrands that cannot converge, within about a second.
_MAX_PANELS = 50_000

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full symmetric node/weight tables
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending
_WKF = np.concatenate([_WK[:-1], _WK[::-1]])
_GIDX = np.arange(1, 15, 2)                               # Gauss nodes sit at odd slots
_WGF = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    """Tolerance not reached within the subdivision budget, or the integrand
    returned a non-finite value.

    Attributes ``best`` and ``err_bound`` carry the best available estimate
    and its error bound.
    """

    def __init__(self, message: str, best: float, err_bound: float):
        super().__init__(f"{message} (best estimate {best!r}, error bound {err_bound!r})")
        self.best = best
        self.err_bound = err_bound


@dataclass(frozen=True)
class Integrand:
    """Integrand handle with the hints the tail rule needs.

    ``fn`` must be vectorized over numpy arrays.  ``support`` declares that
    the function vanishes outside the closed interval; ``decay`` declares
    |f(r)| = O(r**-decay) for large r.  Exactly the hints are trusted --
    nothing is inferred from samples.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None
    decay: float | None = None

    def __call__(self, x):
        return self.fn(x)


def _as_fn(f):
    return f.fn if isinstance(f, Integrand) else f


def _gk15(fn, a, b):
    """One Gauss-Kronrod panel: returns (kronrod, |kronrod - gauss|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = np.asarray(fn(c + h * _NODES), dtype=float)
    k = h * float(y @ _WKF)
    g = h * float(y[_GIDX] @ _WGF)
    return k, abs(k - g)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10,
                       max_depth: int = 60) -> float:
    """Integral of ``f`` over [a, b] to absolute tolerance ``tol``.

    Bisects any panel whose Kronrod/Gauss discrepancy exceeds its
    length-proportional share of ``tol``.  Raises :class:`QuadratureError`
    carrying the best estimate when the depth limit or the budget of
    ``_MAX_PANELS`` panel evaluations is hit and the global error bound still
    exceeds the tolerance, and at once when a panel estimate is not finite.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a == b:
        return 0.0
    if a > b:
        raise ValueError("integration interval must satisfy a < b")
    fn = _as_fn(f)
    length = b - a
    total = 0.0
    err_total = 0.0
    capped = False
    panels = 0
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        k, e = _gk15(fn, lo, hi)
        panels += 1
        if not (math.isfinite(k) and math.isfinite(e)):
            raise QuadratureError(f"non-finite integrand on [{lo!r}, {hi!r}]",
                                  total, math.inf)
        share = tol * (hi - lo) / length
        width_floor = (hi - lo) <= 16.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0)
        if e <= share or width_floor:
            total += k
            err_total += e
        elif depth >= max_depth or panels >= _MAX_PANELS:
            # past the budget the pending panels (at most one per depth
            # level) are accepted as they are, to form the best estimate
            total += k
            err_total += e
            capped = True
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    if capped and err_total > tol:
        reason = ("panel budget exhausted" if panels >= _MAX_PANELS
                  else "max subdivision depth reached")
        raise QuadratureError(reason, total, err_total)
    return total


def integrate_sqrt_singular(f, a: float, b: float, tol: float = 1e-10,
                            max_depth: int = 60) -> float:
    """Integral of f(y) * (1-y)^(-1/2) over [a, b] with b <= 1.

    The substitution y = 1 - tau^2 turns the weighted integral into
    ``int 2 f(1 - tau^2) dtau`` over [sqrt(1-b), sqrt(1-a)], which is smooth,
    so the singular endpoint costs nothing.
    """
    if b > 1.0:
        raise ValueError("upper limit must satisfy b <= 1 for the (1-y)^(-1/2) weight")
    if a >= b:
        if a == b:
            return 0.0
        raise ValueError("integration interval must satisfy a < b")
    fn = _as_fn(f)
    t_lo = np.sqrt(max(1.0 - b, 0.0))
    t_hi = np.sqrt(1.0 - a)

    def sub(tau):
        return 2.0 * np.asarray(fn(1.0 - tau * tau), dtype=float)

    return integrate_adaptive(sub, t_lo, t_hi, tol, max_depth=max_depth)


def integrate_tail(f, a: float, tol: float = 1e-10, *,
                   support: tuple[float, float] | None = None,
                   decay: float | None = None,
                   max_doublings: int = 60) -> float:
    """Integral of ``f`` over [a, infinity).

    ``f`` must either vanish outside a declared compact ``support`` (then the
    integral is taken exactly to the support bound) or carry a declared decay
    exponent > 1 (then the cutoff is doubled until successive values differ by
    less than ``tol``).  An undeclared or too-slow decay is rejected.
    """
    if isinstance(f, Integrand):
        support = f.support if support is None else support
        decay = f.decay if decay is None else decay
    fn = _as_fn(f)
    a = float(a)
    if support is not None:
        hi = float(support[1])
        lo = max(a, float(support[0]))
        if hi <= lo:
            return 0.0
        return integrate_adaptive(fn, lo, hi, tol)
    if decay is None or decay <= 1.0:
        raise ValueError("tail integration requires compact support or a declared decay exponent > 1")
    b = max(2.0 * abs(a), a + 1.0, 1.0)
    total = integrate_adaptive(fn, a, b, tol)
    for _ in range(max_doublings):
        piece = integrate_adaptive(fn, b, 2.0 * b, tol)
        total += piece
        b *= 2.0
        if abs(piece) < tol:
            return total
    raise QuadratureError("tail did not converge under cutoff doubling", total, abs(piece))
