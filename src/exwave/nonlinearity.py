"""Scalar nonlinearity g(z), the power nonlinearity F(u), and the ground state.

Everything here is closed-form; these functions serve as oracles for the ODE
and PDE solvers, so no numerical differentiation is used anywhere.  The
pointwise functions are written with operators only (abs, *, **), so one
formula serves a float, which gives a float, and a numpy array alike.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "SIGMA4",
    "GConstants",
    "g",
    "dg",
    "F",
    "g_constants",
    "ground_state",
    "ground_state_energy",
    "ground_state_residual",
    "m_k",
]

# area of the unit 4-sphere, kept as the exact expression
SIGMA4 = 8.0 * math.pi ** 2 / 3.0


def F(u):
    """Focusing power nonlinearity |u|^(4/3) u (odd)."""
    return abs(u) ** (4.0 / 3.0) * u


def g(z):
    """g(z) = 2 z - |z|^(4/3) z, the weight in the characteristic-ray integral."""
    return 2.0 * z - abs(z) ** (4.0 / 3.0) * z


def dg(z):
    """Derivative g'(z) = 2 - (7/3)|z|^(4/3)."""
    return 2.0 - (7.0 / 3.0) * abs(z) ** (4.0 / 3.0)


class GConstants(namedtuple("GConstants", "z0 z_max g_max")):
    """Closed-form landmarks of g: its positive zero, argmax and maximum."""

    __slots__ = ()


def g_constants() -> GConstants:
    z_max = (6.0 / 7.0) ** 0.75
    return GConstants(z0=2.0 ** 0.75, z_max=z_max, g_max=(8.0 / 7.0) * z_max)


def ground_state(r, lam: float = 1.0):
    """Value and radial derivative of the rescaled ground state W_lam.

    W(x) = (1 + |x|^2/15)^(-3/2) and W_lam(r) = lam^(-3/2) W(r/lam).
    Returns the pair (W_lam(r), d/dr W_lam(r)), floats for a number r and
    arrays for an array.  A non-finite lam or number r raises ValueError,
    and so does a lam so small that lam^(-5/2) overflows, or an r at which
    the pair is not finite (with r/lam ~ 1e120, q^(-5/2) underflows to 0
    while lam^(-5/2) x/5 overflows; a non-finite entry of an array).
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"scale lambda must be finite and positive, got {lam!r}")
    number = isinstance(r, (int, float))
    if number and not math.isfinite(r):
        raise ValueError(f"radius must be finite, got {r!r}")
    try:
        scale_w, scale_dw = lam ** (-1.5), lam ** (-2.5)
    except OverflowError:
        raise ValueError(f"scale lambda={lam!r} is too small: lambda**-2.5 overflows") from None
    if number:
        w, dw = _ground_pair(r / lam, scale_w, scale_dw)
        if not (math.isfinite(w) and math.isfinite(dw)):
            raise _not_finite(r, lam, w, dw)
        return w, dw
    import numpy as np  # arrays only, so the float callers never load numpy

    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        w, dw = _ground_pair(r / lam, scale_w, scale_dw)
    finite = np.isfinite(w) & np.isfinite(dw)
    if not finite.all():
        r, w, dw = (float(np.asarray(v)[~finite][0]) for v in (r, w, dw))  # first failure
        raise _not_finite(r, lam, w, dw)
    return w, dw


def _ground_pair(x, scale_w, scale_dw):
    """(W, W') of the scaled ground state at x = r / lam: one formula for a
    float and an array."""
    q = 1.0 + x * x / 15.0
    return scale_w * q ** (-1.5), -scale_dw * (x / 5.0) * q ** (-2.5)


def _not_finite(r, lam, w, dw):
    return ValueError(f"ground state at r={r!r}, lambda={lam!r} is not finite: ({w}, {dw})")


def ground_state_residual(r: float) -> float:
    """-W'' - (4/r) W' - F(W) at radius r > 0; identically zero for the exact W."""
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be finite and positive, got {r!r}")
    w, dw = _ground_pair(r, 1.0, 1.0)
    q = 1.0 + r * r / 15.0
    d2w = -0.2 * q ** (-2.5) + (r * r / 15.0) * q ** (-3.5)
    res = float(-d2w - 4.0 / r * dw - F(w))
    if not math.isfinite(res):  # past r ~ 1e154, r * r overflows and inf * 0 is nan
        raise ValueError(f"residual at r={r!r} is not finite: {res}")
    return res


def ground_state_energy(tol: float = 1e-10) -> float:
    """Conserved energy of the static pair (W, 0).

    E = sigma4 * int_0^inf (|W'|^2/2 - (3/10) W^(10/3)) rho^4 drho.  The
    integrand decays like rho^-4, declared explicitly for the tail rule.
    """
    from .quadrature import integrate_tail  # here, so simulate never loads it

    def density(rho):
        w, dw = ground_state(rho)
        return (0.5 * dw * dw - 0.3 * w ** (10.0 / 3.0)) * rho ** 4

    return SIGMA4 * integrate_tail(density, 0.0, tol, decay=4.0)


def m_k(z_lo: float, z_hi: float) -> float:
    """min of g over [z_lo, z_hi] taken at the endpoints.

    Exact because g is concave on z >= 0 (g'' = -(28/9) z^(1/3)), so its
    minimum over an interval is at an end, also on an interval that holds
    the maximum z_max ~ 0.8909, such as row 9's [0.8, 0.9] of the
    verification table.
    """
    if not (0.0 <= z_lo < z_hi < math.inf):
        raise ValueError(f"need 0 <= z_lo < z_hi < inf, got {z_lo!r}, {z_hi!r}")
    return min(g(z_lo), g(z_hi))
