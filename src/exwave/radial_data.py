"""The radial initial-data pair of the radiation toolkit.

:class:`RadialData` holds callables u0, u1 (and optionally u0') with the
declared far field of the data; :meth:`RadialData.from_samples` builds them
from samples.  It is defined here rather than in :mod:`exwave.radiation`,
which gives it as ``exwave.radiation.RadialData`` and imports this module
only where data are made, so that a computation on profiles alone loads
neither it nor ``dataclasses``.
"""

from __future__ import annotations

import math

# RadialData stays a dataclass: bench/tracing.py rebuilds it with
# dataclasses.replace to count the calls of its u0 and u1
from dataclasses import dataclass
from typing import Callable

from . import _pointwise
from ._spline import cubic_spline, floats, times_x
from .radiation import _check_not_nan, check_radius

__all__ = ["RadialData"]


@dataclass(frozen=True)
class RadialData:
    """Radial initial-data pair (u0, u1) with an optional exact r^-3 far field.

    ``u0``, ``du0`` and ``u1`` are callables of r > 0; the radiation toolkit
    calls them on floats, and the solver in ``pdesim`` on arrays.  When ``tail_radius``
    is set, the data equal exactly

        u0(r) = tail_c0 * r^-3,   u1(r) = tail_c1 * r^-3   for r >= tail_radius,

    which is the far field of every free wave whose profile vanishes past
    tail_radius; tail integrals then close in closed form.  Compact data
    keep the default coefficients 0.  ``tail_radius`` must be finite and
    positive, and nonzero coefficients need it.  Data without it may
    declare ``decay`` instead (u0 and u1 fall off like r^-decay), not both.
    ``u1_tail``, when set, is s -> int_s^inf rho u1(rho) drho in closed form.
    """

    u0: Callable
    u1: Callable
    du0: Callable | None = None
    decay: float | None = None
    tail_radius: float | None = None
    tail_c0: float = 0.0
    tail_c1: float = 0.0
    breakpoints: tuple = ()   # radii where u0/u1 may jump or kink
    u1_tail: Callable | None = None

    def __post_init__(self):
        _check_not_nan(*self.breakpoints, name="a breakpoint")
        if self.tail_radius is None:
            for name in ("tail_c0", "tail_c1"):
                if getattr(self, name):
                    raise ValueError(f"{name} = {getattr(self, name)} needs a tail_radius")
        elif not 0.0 < self.tail_radius < math.inf:
            raise ValueError(f"tail_radius must be finite and positive, got {self.tail_radius}")
        elif self.decay is not None:
            raise ValueError(f"data declare one of tail_radius and decay, "
                             f"got tail_radius={self.tail_radius}, decay={self.decay}")

    @classmethod
    def from_samples(cls, r, u0_vals, u1_vals):
        """Sampled data: not-a-knot cubic splines on the strictly increasing
        grid 0 <= r[0] <= r <= r[-1]; u0' is the interpolant's derivative.
        Each callable takes a float or, point by point, an array.

        Off the grid the data continue one way.  Below r[0] u0 and u1 are
        even, a + b r^2 matched to the spline's value and slope at r[0]
        (smooth radial data are even in r), with u0' = 2 b r there.  Past
        r[-1] they are the generic far field c r^-3, the coefficients read off
        the last sample, and the data declare ``tail_radius=r[-1]``.  That is
        exact, to the printed digits, for the data ``radiation to-data``
        writes: they reach past the profile's support radius, beyond which a
        free wave is c r^-3.  ``u1_tail`` integrates exactly these data: rho
        times the u1 spline is a piecewise quartic.
        """
        r, u0_vals, u1_vals = floats(r), floats(u0_vals), floats(u1_vals)
        s0 = cubic_spline(r, u0_vals)
        s1 = cubic_spline(r, u1_vals)
        lo, hi = r[0], r[-1]
        if not lo >= 0.0:
            raise ValueError(f"sample radii must be nonnegative, got r[0] = {lo!r}")
        check_radius(hi, 4)   # the closed forms take hi^3 and lo^4 <= hi^4
        d0 = s0.derivative()

        def even(spline, slope):
            """(a, b) of a + b r^2 through the spline's value and slope at lo."""
            b = slope.at(lo) / (2.0 * lo) if lo > 0 else 0.0
            return spline.at(lo) - b * lo * lo, b

        # u = a + b r^2 on (0, lo) and c r^-3 past hi, u0' = -3 c0 r^-4 there
        (a0, b0), (a1, b1) = even(s0, d0), even(s1, s1.derivative())
        c0, c1 = hi ** 3 * u0_vals[-1], hi ** 3 * u1_vals[-1]
        rho_u1 = times_x(s1).antiderivative()
        rho_u1_end = rho_u1.at(hi)

        def u1_tail(s):
            if not isinstance(s, (int, float)):
                return _pointwise(u1_tail, s)
            below = min(s, lo)
            return (rho_u1_end - rho_u1.at(min(max(s, lo), hi))
                    + 0.5 * a1 * (lo * lo - below * below) + 0.25 * b1 * (lo ** 4 - below ** 4)
                    + c1 / max(s, hi))

        def extended(f, below, coef, power):
            def fn(x):
                if not isinstance(x, (int, float)):
                    return _pointwise(fn, x)
                if x > hi:
                    return coef * x ** power
                return below(x) if x < lo else f.at(x)
            return fn

        return cls(u0=extended(s0, lambda x: a0 + b0 * x * x, c0, -3.0),
                   u1=extended(s1, lambda x: a1 + b1 * x * x, c1, -3.0),
                   du0=extended(d0, lambda x: 2.0 * b0 * x, -3.0 * c0, -4.0),
                   tail_radius=hi, tail_c0=c0, tail_c1=c1, u1_tail=u1_tail)
