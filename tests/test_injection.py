"""Fault injection into the iterative kernels.  A NaN or an infinity returned
at any one of the first evaluations of a kernel's callable must end the run
in a typed error, or leave its result bit for bit as it was: it may never
become a different finite answer.  (``_ode.bisect`` has its own NaN tests in
test_ode.py.)"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from exwave import nonlinearity as nl, pdesim, profiles
from exwave._ode import IntegrationFailure, solve_dopri5
from exwave.quadrature import (QuadratureError, integrate_adaptive, integrate_sqrt_singular,
                               integrate_tail)

N_EVALUATIONS = 40   # covers every boundary value of the simulator run
BAD = (math.nan, math.inf, -math.inf)


def _injected(fn, k, put):
    """fn, except that its call number k (from 0) returns put(its value)."""
    calls = [0]

    def wrapped(*args):
        value = fn(*args)
        calls[0] += 1
        return put(value) if calls[0] == k + 1 else value

    return wrapped


def _profile(monkeypatch, wrap):
    # integrate_profile looks its right-hand side up when it is called
    monkeypatch.setattr(profiles, "_rhs_nonlinear", wrap(profiles._rhs_nonlinear))
    p = profiles.integrate_profile(1.86)
    return p.y_nodes, p.phi_nodes, p.dphi_nodes, p.category


def _simulation(monkeypatch, wrap):
    d = SimpleNamespace(u0=lambda r: nl.ground_state(r)[0], u1=np.zeros_like)
    cfg = pdesim.SimConfig(r_min=1.0, r_max=3.0, dr=0.05, T=1.0,
                           boundary_values=wrap(lambda r, t: nl.ground_state(r)[0]))
    tr = pdesim.simulate(d, cfg)
    return tr.w.tolist(), tr.blowup


def _smooth(x):
    return math.exp(-x) * math.cos(3.0 * x)


# kernel: (run of the wrapped callable, how a bad value enters its value, typed errors)
KERNELS = {
    "solve_dopri5": (_profile, lambda bad, k: lambda v: (v[0], bad) if k % 2 else (bad, v[1]),
                     profiles.ProfileError),
    "integrate_adaptive": (lambda mp, wrap: integrate_adaptive(wrap(_smooth), 0.0, 2.0, 1e-12),
                           lambda bad, k: lambda v: bad, QuadratureError),
    "integrate_sqrt_singular": (lambda mp, wrap: integrate_sqrt_singular(
                                    wrap(profiles.phi_star_exact), 0.0, 8.0 / 9.0, 1e-12),
                                lambda bad, k: lambda v: bad, QuadratureError),
    "integrate_tail": (lambda mp, wrap: integrate_tail(wrap(lambda r: r ** -4.0), 1.0, 1e-12,
                                                       decay=4.0),
                       lambda bad, k: lambda v: bad, QuadratureError),
    "simulate": (_simulation, lambda bad, k: lambda v: bad, ValueError),
}


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("kernel", KERNELS)
def test_injected_value_raises_or_changes_nothing(monkeypatch, kernel, bad):
    run, put, error = KERNELS[kernel]
    want = run(monkeypatch, lambda fn: fn)
    raised = 0
    for k in range(N_EVALUATIONS):
        try:
            got = run(monkeypatch, lambda fn: _injected(fn, k, put(bad, k)))
        except error:
            raised += 1
        else:
            assert got == want, f"evaluation {k}"
        monkeypatch.undo()
    assert raised   # the injections reached the result


def test_non_finite_boundary_value_names_r_and_t():
    d = SimpleNamespace(u0=lambda r: nl.ground_state(r)[0], u1=np.zeros_like)
    cfg = pdesim.SimConfig(r_min=1.0, r_max=3.0, dr=0.05, T=1.0,
                           boundary_values=lambda r, t: math.nan if r > 2.0 else 0.0)
    with pytest.raises(ValueError, match=r"boundary_values is nan at r=3\.0, t=0\.05"):
        pdesim.simulate(d, cfg)


@pytest.mark.parametrize("k", [0, 1])
def test_non_finite_initial_slope_is_named(k):
    # evaluation 0 is f(t0, y0), evaluation 1 the probe of the first step
    rhs = _injected(profiles._rhs_nonlinear, k, lambda v: (v[0], math.nan))
    with pytest.raises(IntegrationFailure, match=r"non-finite f\(t, y\) = \(.*, nan\)"):
        solve_dopri5(rhs, 0.0, 1.0, [0.0, 1.86], 1e-12)


@pytest.mark.parametrize("rhs, integrate, text", [
    ("_rhs_nonlinear", lambda: profiles.integrate_profile(1.86),
     "profile integration failed for nu=1.86: "),
    ("_rhs_linear", profiles.integrate_linear_profile, "linear profile integration failed: "),
], ids=["nonlinear", "linear"])
def test_failed_profile_solve_names_its_equation(monkeypatch, rhs, integrate, text):
    # both equations go through one solve; each keeps its own failure text
    monkeypatch.setattr(profiles, rhs, lambda t, y: (math.nan, y[1]))
    with pytest.raises(profiles.ProfileError, match="^" + re.escape(text) + "non-finite f"):
        integrate()
