"""Each input check of the helper layers paired with the error it raises, and
the early returns that sit beside those checks."""

import math
import re

import pytest

from exwave import cli, exterior, profiles, quadrature, radiation
from exwave._ode import solve_dopri5
from exwave._spline import cubic_spline, floats
from exwave.radial_data import RadialData


def _oscillator(t, y):
    return (y[1], -y[0])


def _source(t, r):
    return 1.0


def _decaying():
    return radiation.RadiationProfile(lambda s: 1.0 / (1.0 + s * s) ** 2, decay=4.0)


_SPLINE = "a spline needs at least two strictly increasing points"
_TOL = "tol must be finite and positive"
_INTERVAL = "solve_dopri5 needs finite t0 < t1 beyond roundoff"

_RAISES = {
    "spline-one-point": (lambda: cubic_spline([0.0], [1.0]), ValueError, _SPLINE),
    "spline-unequal-lengths": (lambda: cubic_spline([0.0, 1.0], [1.0]), ValueError, _SPLINE),
    "spline-repeated-x": (lambda: cubic_spline([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
                          ValueError, _SPLINE),
    "floats-of-a-number": (lambda: floats(5), ValueError, "expected a 1-D sequence of numbers"),
    "adaptive-reversed": (lambda: quadrature.integrate_adaptive(math.exp, 1.0, 0.0),
                          ValueError, "integration interval must satisfy a < b"),
    "sqrt-singular-reversed": (lambda: quadrature.integrate_sqrt_singular(math.exp, 0.6, 0.5),
                               ValueError, "integration interval must satisfy a < b"),
    "tail-slower-than-declared": (lambda: quadrature.integrate_tail(lambda r: 1.0 / r, 1.0,
                                                                    decay=2.0),
                                  quadrature.QuadratureError, "tail did not converge"),
    "smooth-without-support": (lambda: radiation.RadiationProfile(math.exp, decay=3.0,
                                                                  smooth=True),
                               ValueError, "the spline moments need a compact support"),
    "energy-without-du0": (lambda: exterior.exterior_energy(
        RadialData(u0=lambda r: 0.0, u1=lambda r: 0.0, decay=4.0), 1.0),
        ValueError, "exterior energy needs derivative access to u0"),
    "residue-radius-unbracketed": (lambda: exterior.compute_c2(1e-30), ValueError,
                                   "failed to bracket the residue radius"),
    "wronskian-at-y-1": (lambda: profiles.wronskian_compare(0.05, 1.0), ValueError,
                         "y must lie in (0, 1)"),
    "dopri5-first-step-underflows": (lambda: solve_dopri5(_oscillator, 0.0, 1.0, [0.0, 1.0],
                                                          1e-10, max_step=1e-300),
                                     ValueError, "underflows"),
    "dopri5-tol-nan": (lambda: solve_dopri5(_oscillator, 0.0, 1.0, [0.0, 1.0], math.nan),
                       ValueError, _TOL),
    "dopri5-tol-zero": (lambda: solve_dopri5(_oscillator, 0.0, 1.0, [0.0, 1.0], 0.0),
                        ValueError, _TOL),
    "dopri5-t0-equals-t1": (lambda: solve_dopri5(_oscillator, 1.0, 1.0, [0.0, 1.0], 1e-10),
                            ValueError, _INTERVAL),
    "dopri5-t0-above-t1": (lambda: solve_dopri5(_oscillator, 1.0, 0.0, [0.0, 1.0], 1e-10),
                           ValueError, _INTERVAL),
    "dopri5-interval-below-roundoff": (lambda: solve_dopri5(_oscillator, 0.0, 1e-16,
                                                            [0.0, 1.0], 1e-10),
                                       ValueError, _INTERVAL),
    "dopri5-t1-nan": (lambda: solve_dopri5(_oscillator, 0.0, math.nan, [0.0, 1.0], 1e-10),
                      ValueError, _INTERVAL),
    "dopri5-t0-infinite": (lambda: solve_dopri5(_oscillator, -math.inf, 0.0, [0.0, 1.0], 1e-10),
                           ValueError, _INTERVAL),
    "profile-tol-negative": (lambda: profiles.integrate_profile(1.0, -1e-12), ValueError, _TOL),
    # NaN interval ends and knots, which no comparison would catch
    "propagator-nan-support-end": (lambda: exterior.positive_propagator(
        lambda r: 1.0, 2.0, 1.0, support=(math.nan, 3.0)),
        ValueError, "a support end must not be NaN, got nan"),
    "born-shift-nan-t-support": (lambda: exterior.nonlinear_profile_shift(
        _source, 0.5, t_support=(0.0, math.nan), r_support=(0.0, 2.0)),
        ValueError, "a t_support end must not be NaN, got nan"),
    "born-shift-nan-r-support": (lambda: exterior.nonlinear_profile_shift(
        _source, 0.5, t_support=(0.0, 1.0), r_support=(math.nan, 2.0)),
        ValueError, "an r_support end must not be NaN, got nan"),
    "born-shift-nan-s": (lambda: exterior.nonlinear_profile_shift(
        _source, math.nan, t_support=(0.0, 1.0), r_support=(0.0, 2.0)),
        ValueError, "s must be finite"),
    "radiation-profile-nan-breakpoint": (lambda: radiation.RadiationProfile(
        math.exp, support=(0.0, 1.0), breakpoints=(math.nan,)),
        ValueError, "a breakpoint must not be NaN, got nan"),
    "radial-data-nan-breakpoint": (lambda: RadialData(
        u0=math.exp, u1=math.exp, du0=math.exp, tail_radius=2.0, breakpoints=(math.nan,)),
        ValueError, "a breakpoint must not be NaN, got nan"),
    # a shift by a non-finite t0, of a decaying and of a compact profile
    "shifted-nan-decaying": (lambda: _decaying().shifted(math.nan), ValueError,
                             "shift t0 must be finite, got nan"),
    "shifted-inf-decaying": (lambda: _decaying().shifted(math.inf), ValueError,
                             "shift t0 must be finite, got inf"),
    "shifted-nan-compact": (lambda: radiation.RadiationProfile(
        math.exp, support=(0.0, 1.0)).shifted(math.nan), ValueError,
        "shift t0 must be finite, got nan"),
}


@pytest.mark.parametrize("call, error, message", _RAISES.values(), ids=_RAISES.keys())
def test_each_input_check_raises_its_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call", [
    lambda: quadrature.integrate_sqrt_singular(math.exp, 0.5, 0.5),
    lambda: exterior.positive_propagator(lambda rho: 1.0, 2.0, 0.5, support=(5.0, 6.0)),
], ids=["sqrt-singular-empty-interval", "propagator-support-outside-the-cone"])
def test_an_empty_integral_is_zero(call):
    assert call() == 0.0


def test_radiation_from_a_one_row_profile_csv_exits_1(tmp_path, capsys):
    profile_csv = tmp_path / "profile.csv"
    profile_csv.write_text("s,G\n0.5,1\n")
    assert cli.main(["radiation", "asymptotic", "--in", str(profile_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _SPLINE in err
