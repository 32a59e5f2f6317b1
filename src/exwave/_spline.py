"""Cubic splines as piecewise polynomials, on float lists.

``PPoly`` holds, for the piece on [x[i], x[i+1]], the coefficients c[k][i] of
sum_k c[k][i] (x - x[i])^(deg - k) (scipy's layout, one list per power), and
the end pieces extend past the breakpoints.  Each operation works on whole
columns of coefficients and does for every piece what a loop over the
pieces would.  ``cubic_spline`` is the not-a-knot interpolant with scipy's
boundary rows (de Boor, *A Practical Guide to Splines*, ch. IV), a line for
two points and a parabola for three.  Products and antiderivatives are
exact, so moments of a spline close in closed form.  Every sum is taken in
the order numpy would take it, so the results are the ones the array
formulas gave.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import sub

from . import _pointwise


def floats(values) -> list:
    """A 1-D sequence of numbers as a list of floats; ValueError otherwise."""
    try:
        return [float(v) for v in values]
    except TypeError:
        raise ValueError("expected a 1-D sequence of numbers") from None


def linspace(start: float, stop: float, num: int) -> list:
    """numpy.linspace(start, stop, num) for num >= 2, bit for bit, as a list:
    i * step + start, and stop itself last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [float(stop)]


class PPoly:
    """Piecewise polynomial on the strictly increasing breakpoints ``x``,
    with ``c[k][i]`` the coefficient of (x - x[i])^(deg - k) on piece i
    (float lists, one per power)."""

    def __init__(self, c, x):
        self.c = c
        self.x = x

    def __call__(self, x):
        return _pointwise(self.at, x)

    def at(self, x: float) -> float:
        """The value at one float x: bisection for the piece, then Horner's rule.
        The search runs over x[1:-1], so that points past either end land in
        the end pieces."""
        xs = self.x
        i = bisect_right(xs, x, 1, len(xs) - 1) - 1
        dx = x - xs[i]
        out = 0.0
        for column in self.c:
            out = out * dx + column[i]
        return out

    def derivative(self):
        deg = len(self.c) - 1
        return PPoly([[ck * (deg - k) for ck in column] for k, column in enumerate(self.c[:-1])],
                     self.x)

    def antiderivative(self):
        """The antiderivative that vanishes at x[0]."""
        divisors = range(len(self.c), 0, -1)   # deg + 1, ..., 1
        columns = [[ck / d for ck in column] for d, column in zip(divisors, self.c)]
        # each piece's rise over its interval, by Horner's rule
        widths = list(map(sub, self.x[1:], self.x))
        rises = [0.0] * len(widths)
        for column in columns:
            rises = [(rise + ck) * h for rise, ck, h in zip(rises, column, widths)]
        # each piece starts at the value where the previous one ends
        columns.append([0.0, *accumulate(rises[:-1])])
        return PPoly(columns, self.x)


def product(p: PPoly, q: PPoly) -> PPoly:
    """p q on the breakpoints the two share: a convolution per piece, its
    terms added in the order of the double loop over p's and q's powers."""
    columns = [[0.0] * (len(p.x) - 1) for _ in range(len(p.c) + len(q.c) - 1)]
    for i, pk in enumerate(p.c):
        for j, qk in enumerate(q.c):
            columns[i + j] = [c + a * b for c, a, b in zip(columns[i + j], pk, qk)]
    return PPoly(columns, p.x)


def times_x(S: PPoly) -> PPoly:
    """x S: ``product`` of the line x with S."""
    x = S.x
    return product(PPoly([[1.0] * (len(x) - 1), x[:-1]], x), S)


def cubic_spline(x, y) -> PPoly:
    """Not-a-knot cubic interpolant of y on the strictly increasing x."""
    x, y = floats(x), floats(y)
    n = len(x)
    dx = [b - a for a, b in zip(x, x[1:])]
    if n < 2 or len(y) != n or not all(h > 0.0 for h in dx):
        raise ValueError("a spline needs at least two strictly increasing points "
                         "and one value per point")
    slope = [(b - a) / h for a, b, h in zip(y, y[1:], dx)]
    if n == 2:                       # a line
        s = [slope[0], slope[0]]
    elif n == 3:                     # the parabola through the three points
        q = (slope[1] - slope[0]) / (dx[0] + dx[1])
        s = [slope[0] - q * dx[0], slope[0] + q * dx[0], slope[1] + q * dx[1]]
    else:
        try:   # its end rows square a spacing with pow, as numpy did
            s = _not_a_knot_slopes(x, dx, slope)
        except OverflowError:
            raise ValueError("spline breakpoints too far apart: a squared spacing "
                             "overflows") from None
    t = [(s0 + s1 - 2.0 * m) / h for h, m, s0, s1 in zip(dx, slope, s, s[1:])]
    return PPoly([[ti / h for ti, h in zip(t, dx)],
                  [(m - s0) / h - ti for m, s0, h, ti in zip(slope, s, dx, t)],
                  s[:-1], y[:-1]], x)


def _not_a_knot_slopes(x, dx, slope):
    """Knot slopes s from the tridiagonal system, by one Thomas sweep:
    rows dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
    inside, and the not-a-knot rows at both ends."""
    n = len(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    a = dx[1:] + [d1]                                           # row i, column i-1
    b = [dx[1]] + [2.0 * (h0 + h1) for h0, h1 in zip(dx, dx[1:])] + [dx[-2]]
    c = [d0] + dx[:-1]                                          # row i, column i+1
    r = ([((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0]
         + [3.0 * (h1 * m0 + h0 * m1)
            for h0, h1, m0, m1 in zip(dx, dx[1:], slope, slope[1:])]
         + [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1])
    for i in range(1, n):
        w = a[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        r[i] -= w * r[i - 1]
    s = [0.0] * n
    s[-1] = r[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (r[i] - c[i] * s[i + 1]) / b[i]
    return s
