import math
import time

import numpy as np
import pytest

from exwave import _ode
from exwave._ode import IntegrationFailure, bisect, solve_dopri5


def test_bisect_zero_width_stops_at_adjacent_floats():
    lo, hi = bisect(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.0, 0.7)
    assert lo < 0.3 <= hi
    assert np.nextafter(lo, np.inf) == hi


def test_bisect_budget_on_a_step_over_a_huge_bracket():
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1.0 else 1.0

    lo, hi = bisect(step, 0.0, 1e300, -1.0, 0.0, 1.0)
    assert len(calls) <= 200
    assert lo < 1.0 <= hi


def test_non_finite_step_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(IntegrationFailure, match="non-finite") as info:
        solve_dopri5(lambda t, y: np.array([np.nan if t > 0.5 else 1.0]),
                     0.0, 1.0, [0.0], 1e-8)
    assert time.perf_counter() - start < 1.0
    exc = info.value
    assert exc.t < 0.5
    assert exc.h > 0.0 and exc.nsteps >= 1


def test_step_budget_stops_the_solve(monkeypatch):
    monkeypatch.setattr(_ode, "_MAX_STEPS", 5)
    with pytest.raises(IntegrationFailure, match="step budget exhausted") as info:
        solve_dopri5(lambda t, y: (y[1], -y[0]), 0.0, 100.0, [0.0, 1.0], 1e-10)
    assert info.value.nsteps == 5 and info.value.t < 100.0


def test_overflow_in_the_right_hand_side_is_a_non_finite_step():
    # 2.0 ** x raises OverflowError past x = 1024, here at t > 0.512
    with pytest.raises(IntegrationFailure, match="non-finite"):
        solve_dopri5(lambda t, y: (2.0 ** (2000.0 * t),), 0.0, 1.0, [0.0], 1e-8)


def test_dense_output_is_a_tuple_of_floats():
    res = solve_dopri5(lambda t, y: (y[1], -y[0]), 0.0, 1.0, [0.0, 1.0], 1e-10)
    assert res.sol(res.sol.ts[-1]) == pytest.approx(res.y, abs=1e-15)
    state = res.sol(0.5)
    assert isinstance(state, tuple) and all(type(v) is float for v in state)
    assert state == pytest.approx((np.sin(0.5), np.cos(0.5)), abs=1e-9)


def _bisection_calls(f, lo, hi, f_lo, width):
    """Evaluations plain bisection (the loop ITP replaced) takes on [lo, hi]."""
    calls = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= width or mid in (lo, hi):
            break
        f_mid = f(mid)
        calls += 1
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return calls


_SHAPES = {
    "line": lambda x: x - 0.3,
    "x^9": lambda x: x ** 9 - 0.3 ** 9,
    "step": lambda x: -1.0 if x < 0.3 else 1.0,
    "flat-then-steep": lambda x: -1e-3 if x < 0.7 else math.expm1(50.0 * (x - 0.7)),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (0.1, 0.9), (-3.0, 4.0)])
def test_bisect_takes_at_most_one_evaluation_more_than_bisection(shape, lo, hi):
    f = _SHAPES[shape]
    for width in (1e-3, 1e-9, 1e-14, 0.0):
        calls = []
        a, b = bisect(lambda x: calls.append(x) or f(x), lo, hi, f(lo), width, f(hi))
        # below the float spacing rounding may cost one more (the docstring's two)
        extra = 1 if width else 2
        assert len(calls) <= _bisection_calls(f, lo, hi, f(lo), width) + extra, width
        assert a <= b and (b - a <= width or np.nextafter(a, np.inf) == b)
        assert f(a) <= 0.0 <= f(b)


def test_bisect_is_superlinear_on_a_smooth_root():
    def cubic(x):
        return x ** 3 - 2.0 * x - 5.0

    calls = []
    lo, hi = bisect(lambda x: calls.append(x) or cubic(x), 2.0, 3.0, cubic(2.0), 0.0, cubic(3.0))
    assert np.nextafter(lo, np.inf) == hi and cubic(lo) < 0.0 <= cubic(hi)
    assert len(calls) <= 25 < _bisection_calls(cubic, 2.0, 3.0, cubic(2.0), 0.0) == 51


def test_bisect_infinite_end_value_falls_back_to_the_midpoint():
    # what find_nu2 meets: quarter_period is +inf above the separatrix
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (1.0 - x) - 4.0 if x < 1.0 else math.inf

    lo, hi = bisect(f, 0.0, 1.0, -3.0, 1e-12, math.inf)
    assert calls[0] == 0.5
    assert lo <= 0.75 <= hi and hi - lo <= 1e-12


@pytest.mark.parametrize("k", range(6))
def test_bisect_nan_at_any_evaluation_raises_naming_the_point(k):
    calls = []

    def f(x):
        calls.append(x)
        return math.nan if len(calls) == k + 1 else x - 0.3

    with pytest.raises(ValueError, match="is NaN") as info:
        bisect(f, 0.0, 1.0, -0.3, 1e-9, 0.7)
    assert len(calls) == k + 1   # no evaluation after the NaN
    assert f"f({calls[-1]!r})" in str(info.value)


@pytest.mark.parametrize("f_lo, f_hi", [(math.nan, 0.7), (-0.3, math.nan)])
def test_bisect_nan_end_value_raises_naming_the_end(f_lo, f_hi):
    end = 0.0 if math.isnan(f_lo) else 1.0
    with pytest.raises(ValueError, match=rf"f\({end!r}\) is NaN"):
        bisect(lambda x: x - 0.3, 0.0, 1.0, f_lo, 1e-9, f_hi)


@pytest.mark.parametrize("lo, hi", [(0.0, 1e300), (-1e308, 1e308)])
def test_bisect_huge_brackets_do_not_overflow(lo, hi):
    for f in (lambda x: x - 1.0, lambda x: -1.0 if x < 1.0 else 1.0):
        a, b = bisect(f, lo, hi, f(lo), 0.0, f(hi))
        assert a < 1.0 <= b


def test_bisect_keeps_the_root_when_values_underflow_a_product():
    def tiny(x):
        return (x - 0.3) * 1e-170   # f(lo) * f(x) underflows to 0.0

    lo, hi = bisect(tiny, 0.0, 1.0, tiny(0.0), 1e-12, tiny(1.0))
    assert lo <= 0.3 <= hi and hi - lo <= 1e-12


def test_bisect_exact_zero_ends_at_adjacent_floats():
    calls = []
    lo, hi = bisect(lambda x: calls.append(x) or x - 0.5, 0.0, 1.0, -0.5, 0.0, 0.5)
    assert calls == [0.5] and (lo, hi) == (np.nextafter(0.5, 0.0), 0.5)
    assert bisect(lambda x: x - 0.3, 0.3, 1.0, 0.0, 0.0, 0.7) == (0.3, np.nextafter(0.3, 1.0))
    assert bisect(lambda x: x - 1.0, 0.3, 1.0, -0.7, 0.0, 0.0) == (np.nextafter(1.0, 0.0), 1.0)


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.nan)])
def test_bisect_refuses_a_bracket_that_is_not_lo_below_hi(lo, hi):
    with pytest.raises(ValueError, match="lo < hi"):
        bisect(lambda x: x - 0.3, lo, hi, -0.3, 0.0, 0.7)


def _dot(weights, values):
    total = 0.0
    for w, v in zip(weights, values):
        total += w * v
    return total


def _old_stage(y, h, weights, ks):
    """The stage as the solver built it by transposing ks."""
    return tuple(yc + h * _dot(weights, kc) for yc, kc in zip(y, zip(*ks)))


def _old_dense(ks):
    """The dense coefficients as the solver built them: one row per power
    of x, each a _dot over the transposed stages."""
    rows = tuple(zip(*_ode._P))
    return tuple(tuple(_dot(p, kc) for p in rows) for kc in zip(*ks))


def _solve(kind):
    from exwave import profiles

    if kind == "linear":
        return profiles.integrate_linear_profile()._sol
    return profiles.integrate_profile(kind)._sol


@pytest.mark.parametrize("kind", [1.86, "linear", 10.0])   # 10.0 blows up: the event path
def test_step_is_bit_identical_to_the_transposed_formulas(monkeypatch, kind):
    sol = _solve(kind)
    # the error estimate goes through _stage from a zero state: 0.0 + h * e
    # is the old h * e up to the sign of a zero, which _rms squares away
    monkeypatch.setattr(_ode, "_stage", _old_stage)
    monkeypatch.setattr(_ode, "_dense", _old_dense)
    ref = _solve(kind)
    assert len(sol.ts) > 50
    assert [t.hex() for t in sol.ts] == [t.hex() for t in ref.ts]
    assert [[v.hex() for v in y] for y in sol.ys] == [[v.hex() for v in y] for y in ref.ys]
    assert ([[[c.hex() for c in q] for q in qs] for qs in sol.qs]
            == [[[c.hex() for c in q] for q in qs] for qs in ref.qs])
