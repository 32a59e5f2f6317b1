import time

import numpy as np
import pytest

from exwave import _ode
from exwave._ode import IntegrationFailure, bisect, solve_dopri5


def test_bisect_zero_width_stops_at_adjacent_floats():
    lo, hi = bisect(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.0)
    assert lo < 0.3 <= hi
    assert np.nextafter(lo, np.inf) == hi


def test_bisect_budget_on_a_step_over_a_huge_bracket():
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1.0 else 1.0

    lo, hi = bisect(step, 0.0, 1e300, -1.0, 0.0)
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
