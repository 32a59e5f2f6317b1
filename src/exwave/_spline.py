"""Cubic splines as piecewise polynomials, in numpy alone.

``PPoly`` keeps scipy's layout: on [x[i], x[i+1]] the polynomial is
sum_k c[k, i] (x - x[i])^(deg - k), and the end pieces extend past the
breakpoints.  ``cubic_spline`` is the not-a-knot interpolant with scipy's
boundary rows (de Boor, *A Practical Guide to Splines*, ch. IV), a line for
two points and a parabola for three.  Products and antiderivatives are exact,
so moments of a spline close in closed form.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class PPoly:
    """Piecewise polynomial with coefficients ``c`` (shape (deg + 1, n - 1))
    on the strictly increasing breakpoints ``x``."""

    def __init__(self, c, x):
        self.c = np.asarray(c, dtype=float)
        self.x = np.asarray(x, dtype=float)
        # Python copies for the scalar path: bisect and Horner on floats
        self._xs = self.x.tolist()
        self._cs = self.c.T.tolist()

    def __call__(self, x):
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            i = min(max(bisect_right(self._xs, x) - 1, 0), len(self._cs) - 1)
            dx = x - self._xs[i]
            out = 0.0
            for ck in self._cs[i]:
                out = out * dx + ck
            return out
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, self.c.shape[1] - 1)
        dx = x - self.x[i]
        out = np.zeros(x.shape)
        for ck in self.c[:, i]:
            out = out * dx + ck
        return out

    def derivative(self):
        deg = self.c.shape[0] - 1
        return PPoly(self.c[:-1] * np.arange(deg, 0, -1.0)[:, None], self.x)

    def antiderivative(self):
        """The antiderivative that vanishes at x[0]."""
        deg = self.c.shape[0] - 1
        c = np.zeros((deg + 2, self.c.shape[1]))
        c[:-1] = self.c / np.arange(deg + 1, 0, -1.0)[:, None]
        # each piece starts at the value where the previous one ends
        h = np.diff(self.x)
        rise = np.zeros(h.shape)
        for ck in c[:-1]:
            rise = (rise + ck) * h
        c[-1, 1:] = np.cumsum(rise)[:-1]
        return PPoly(c, self.x)


def product(p: PPoly, q: PPoly) -> PPoly:
    """p q on the breakpoints the two share: a convolution per piece."""
    c = np.zeros((p.c.shape[0] + q.c.shape[0] - 1, p.c.shape[1]))
    for i, pi in enumerate(p.c):
        for j, qj in enumerate(q.c):
            c[i + j] += pi * qj
    return PPoly(c, p.x)


def identity(x) -> PPoly:
    """The polynomial x on the breakpoints x."""
    x = np.asarray(x, dtype=float)
    return PPoly(np.array([np.ones(len(x) - 1), x[:-1]]), x)


def cubic_spline(x, y) -> PPoly:
    """Not-a-knot cubic interpolant of y on the strictly increasing x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 2 or y.shape != x.shape:
        raise ValueError("a spline needs at least two points and one value per point")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if n == 2:                       # a line
        s = np.array([slope[0], slope[0]])
    elif n == 3:                     # the parabola through the three points
        q = (slope[1] - slope[0]) / (dx[0] + dx[1])
        s = np.array([slope[0] - q * dx[0], slope[0] + q * dx[0], slope[1] + q * dx[1]])
    else:
        s = _not_a_knot_slopes(x, dx, slope)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c = np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
    return PPoly(c, x)


def _not_a_knot_slopes(x, dx, slope):
    """Knot slopes s from the tridiagonal system, by one Thomas sweep:
    rows dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
    inside, and the not-a-knot rows at both ends."""
    n = len(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate([dx[1:], [d1]])                      # row i, column i-1
    diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
    upper = np.concatenate([[d0], dx[:-1]])                     # row i, column i+1
    rhs = np.concatenate([
        [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]])
    a, b, c, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, n):
        w = a[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        r[i] -= w * r[i - 1]
    s = [0.0] * n
    s[-1] = r[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (r[i] - c[i] * s[i + 1]) / b[i]
    return np.array(s)
