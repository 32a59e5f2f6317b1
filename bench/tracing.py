"""Per-layer tracing of exwave from outside the library.

The traced run replaces public functions of the ``exwave`` modules with
wrappers that record spans (name, start, end, parent span, task) and work
counts, and puts every original back afterwards.  A function is wrapped in
every module that binds it, so ``solve_dopri5`` is traced whether it is
called as ``_ode.solve_dopri5`` or as ``profiles.solve_dopri5``.  Counts are
taken at the boundary: ODE steps from the returned result, RHS calls and
quadrature panels by wrapping the callable passed in, point-steps and bytes
from the returned trajectory.

Hot inner calls (RHS evaluations, ``phi_at``, quadrature panels, ground-state
evaluations) are counted but not spanned, to keep the overhead small; their
time belongs to the enclosing span.  The tracer assumes one thread, which
holds for every CLI path the workloads use.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

SPAN_FIELDS = ("name", "start", "end", "parent", "task")

QUAD = "quadrature.integrate"
FROM_DATA = "radiation.from_data_point"
TO_DATA = "radiation.to_data"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []              # [name, start, end, parent index, task]
        self.counts = Counter()
        self.absent = {}             # metric name -> reason
        self.task = None
        self.recovered = {}          # id -> profile returned by profile_from_data
        self._stack = []
        self._open = Counter()

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(sid)
        self._open[name] += 1
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def inside(self, name: str) -> bool:
        return self._open[name] > 0


def self_times(spans):
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for name, start, end, parent, task in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, task) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


# -- wrappers ---------------------------------------------------------------------


def spanned(name, before=None, after=None):
    """Wrapper factory: one span per call; ``before`` may replace the
    arguments (it runs before the span opens), ``after`` may replace the
    result."""
    def make(tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            return out if after is None else after(tracer, out)
        return wrapper
    return make


def counted(name, inside=None, inside_name=None):
    """Wrapper factory: count calls, and separately those made directly
    from an open ``inside`` span."""
    def make(tracer, fn):
        counts = tracer.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if inside is not None and tracer.current() == inside:
                counts[inside_name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def _replace_first(args, kwargs, key, value):
    if args:
        return (value, *args[1:]), kwargs
    return args, {**kwargs, key: value}


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _ode_before(tracer, args, kwargs):
    f = _first(args, kwargs, "f")
    counts = tracer.counts

    def rhs(*a, **k):
        counts["ode.rhs_calls"] += 1
        return f(*a, **k)

    return _replace_first(args, kwargs, "f", rhs)


def _ode_after(tracer, res):
    try:
        attempted, accepted = res.nsteps, len(res.sol.ts) - 1
    except AttributeError as exc:
        _mark_absent(tracer, ("ode.steps_accepted", "ode.steps_rejected", "ode.us_per_step"),
                     f"solver result changed: {exc}")
        return res
    tracer.counts["ode.steps_accepted"] += accepted
    tracer.counts["ode.steps_rejected"] += attempted - accepted
    return res


def _quad_before(tracer, args, kwargs):
    if tracer.current() == QUAD:   # one entry point calling another
        return args, kwargs
    tracer.counts["quadrature.integrals"] += 1
    counts = tracer.counts
    from_data = tracer.inside(FROM_DATA)
    f = _first(args, kwargs, "f")

    def counting(fn):
        def panel(x):
            counts["quadrature.panels"] += 1
            if from_data:
                counts["radiation.from_data_panels"] += 1
            return fn(x)
        return panel

    if dataclasses.is_dataclass(f) and hasattr(f, "fn"):   # an Integrand keeps its hints
        g = dataclasses.replace(f, fn=counting(f.fn))
    else:
        g = counting(f)
    return _replace_first(args, kwargs, "f", g)


def _integrate_before(tracer, args, kwargs):
    if tracer.inside("profiles.find_nu2"):
        tracer.counts["profiles.find_nu2_solves"] += 1
    return args, kwargs


def _to_data_after(tracer, data):
    """Trace the evaluations of the returned data pair, one span per call."""
    counts = tracer.counts

    def traced(fn, points):
        @functools.wraps(fn)
        def wrapper(r):
            if points:
                counts["radiation.to_data_points"] += _size(r)
            sid = tracer.open(TO_DATA)
            try:
                return fn(r)
            finally:
                tracer.close(sid)
        return wrapper

    return dataclasses.replace(data, u0=traced(data.u0, True), u1=traced(data.u1, False))


def _from_data_after(tracer, profile):
    tracer.recovered[id(profile)] = profile
    return profile


def _value(tracer, fn):
    """RadiationProfile.value: spanned and counted only on recovered profiles."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(self, s):
        if id(self) not in tracer.recovered:
            return fn(self, s)
        counts["radiation.from_data_points"] += _size(s)
        sid = tracer.open(FROM_DATA)
        try:
            return fn(self, s)
        finally:
            tracer.close(sid)
    return wrapper


def _trajectory_after(tracer, tr):
    """Point-steps and stored bytes, read from the returned trajectory."""
    try:
        n_r = len(tr.r)
        point_steps = (len(tr.times) - 1) * n_r
        stored = sum(a.nbytes for a in vars(tr).values()
                     if getattr(a, "ndim", 0) == 2)
    except (AttributeError, TypeError) as exc:
        _mark_absent(tracer, TRAJECTORY_METRICS, f"trajectory changed: {exc}")
        return tr
    tracer.counts["pdesim.point_steps"] += point_steps
    tracer.counts["pdesim.trajectory_bytes"] += stored
    tracer.counts["pdesim.levels_stored"] += stored // (8 * n_r)
    return tr


def _size(x):
    return int(getattr(x, "size", 1))


def _mark_absent(tracer, names, reason):
    for name in names:
        tracer.absent.setdefault(name, reason)


TRAJECTORY_METRICS = ("pdesim.point_steps", "pdesim.ns_per_point_step", "pdesim.levels_stored",
                      "pdesim.trajectory_bytes", "pdesim.bytes_per_point_step_computed")


@dataclasses.dataclass(frozen=True)
class Target:
    """One public function to wrap: ``attr`` is looked up on ``module`` (a
    dotted ``Class.method`` wraps the method on that class).  ``feeds`` are
    the per-layer metrics that go absent when the function is missing."""

    module: str
    attr: str
    make: Callable   # (tracer, original) -> wrapper
    feeds: tuple = ()


_QUAD_FEEDS = ("quadrature.integrals", "quadrature.panels", "quadrature.panels_per_integral",
               "quadrature.self_s", "radiation.panels_per_point")
_ODE_FEEDS = ("ode.solves", "ode.steps_accepted", "ode.steps_rejected", "ode.rhs_calls",
              "ode.us_per_step", "ode.self_s")
_FROM_DATA_FEEDS = ("radiation.from_data_points", "radiation.from_data_s",
                    "radiation.us_per_from_data_point", "radiation.panels_per_point")
_MOMENT_FEEDS = ("radiation.moment_engine_s",)

TARGETS = (
    Target("exwave.cli", "main", spanned("cli.main"), ("cli.self_s",)),
    Target("exwave.verify", "run_all", spanned("verify.run_all"), ("verify.run_all_s",)),
    Target("exwave.verify", "build_table1", spanned("verify.build_table1"), ("verify.table1_s",)),
    Target("exwave.verify", "check_pushup", spanned("verify.check_pushup"), ("verify.pushup_s",)),
    Target("exwave.verify", "check_upper_integral", spanned("verify.check_upper_integral"),
           ("verify.upper_integral_s",)),
    Target("exwave.profiles", "integrate_profile",
           spanned("profiles.integrate", before=_integrate_before),
           ("profiles.integrate_calls", "profiles.integrate_s", "profiles.find_nu2_solves")),
    Target("exwave.profiles", "integrate_linear_profile", spanned("profiles.integrate"),
           ("profiles.integrate_calls", "profiles.integrate_s")),
    Target("exwave.profiles", "inverse_phi", spanned("profiles.inverse_phi"),
           ("profiles.inverse_phi_roots", "profiles.inverse_phi_s", "profiles.phi_at_per_root")),
    Target("exwave.profiles", "SelfSimilarProfile.phi_at",
           counted("profiles.phi_at_calls", "profiles.inverse_phi", "profiles.phi_at_in_roots"),
           ("profiles.phi_at_calls", "profiles.phi_at_per_root")),
    Target("exwave.profiles", "find_nu2", spanned("profiles.find_nu2"),
           ("profiles.find_nu2_s", "profiles.find_nu2_solves")),
    Target("exwave._ode", "solve_dopri5", spanned("ode.solve", _ode_before, _ode_after),
           _ODE_FEEDS),
    Target("exwave.quadrature", "integrate_adaptive", spanned(QUAD, _quad_before), _QUAD_FEEDS),
    Target("exwave.quadrature", "integrate_sqrt_singular", spanned(QUAD, _quad_before),
           _QUAD_FEEDS),
    Target("exwave.quadrature", "integrate_tail", spanned(QUAD, _quad_before), _QUAD_FEEDS),
    Target("exwave.radiation", "RadiationProfile.from_samples",
           spanned("radiation.moment_engine"), _MOMENT_FEEDS),
    Target("exwave.radiation", "RadiationProfile.moment0_vec",
           spanned("radiation.moment_engine"), _MOMENT_FEEDS),
    Target("exwave.radiation", "RadiationProfile.moment1_vec",
           spanned("radiation.moment_engine"), _MOMENT_FEEDS),
    Target("exwave.radiation", "RadiationProfile.value", _value, _FROM_DATA_FEEDS),
    # Spans without a metric of their own keep this time out of cli.self_s.
    Target("exwave.radiation", "RadialData.from_samples", spanned("radiation.data_splines")),
    Target("exwave.radiation", "data_from_profile",
           spanned("radiation.data_from_profile", after=_to_data_after),
           ("radiation.to_data_points", "radiation.to_data_s")),
    Target("exwave.radiation", "profile_from_data",
           spanned("radiation.profile_from_data", after=_from_data_after), _FROM_DATA_FEEDS),
    Target("exwave.radiation", "asymptotic_numbers", spanned("radiation.asymptotic")),
    Target("exwave.pdesim", "simulate", spanned("pdesim.simulate", after=_trajectory_after),
           ("pdesim.simulate_s",) + TRAJECTORY_METRICS),
    Target("exwave.pdesim", "energy", spanned("pdesim.diag"), ("pdesim.diag_s",)),
    Target("exwave.pdesim", "virial", spanned("pdesim.diag"), ("pdesim.diag_s",)),
    Target("exwave.pdesim", "extract_outgoing", spanned("pdesim.diag"), ("pdesim.diag_s",)),
    Target("exwave.pdesim", "characteristic_integral", spanned("pdesim.diag"),
           ("pdesim.diag_s",)),
    Target("exwave.nonlinearity", "ground_state", counted("nonlinearity.ground_state_calls"),
           ("nonlinearity.ground_state_calls",)),
)


# -- installing and restoring ---------------------------------------------------------

_MISSING = object()


class Installation:
    """The wrappers of one traced task; :meth:`restore` puts every original back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()


def _exwave_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "exwave" or name.startswith("exwave."))]


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target that exists; a missing one marks its metrics absent."""
    inst = Installation()
    modules = _exwave_modules()
    for target in targets:
        try:
            owner = importlib.import_module(target.module)
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError) as exc:
            _mark_absent(tracer, target.feeds, f"{target.module}.{target.attr} not found ({exc})")
            continue
        if inspect.isclass(owner):
            if isinstance(raw, classmethod):
                inst.set(owner, leaf, classmethod(target.make(tracer, raw.__func__)))
            else:
                inst.set(owner, leaf, target.make(tracer, raw))
            continue
        wrapper = target.make(tracer, raw)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is raw:
                    inst.set(module, name, wrapper)
    return inst


# -- per-layer metrics ----------------------------------------------------------------

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "verify.run_all_s": "s",
    "verify.table1_s": "s",
    "verify.pushup_s": "s",
    "verify.upper_integral_s": "s",
    "profiles.integrate_calls": "count",
    "profiles.integrate_s": "s",
    "profiles.inverse_phi_roots": "count",
    "profiles.inverse_phi_s": "s",
    "profiles.phi_at_calls": "count",
    "profiles.phi_at_per_root": "calls/root",
    "profiles.find_nu2_s": "s",
    "profiles.find_nu2_solves": "count",
    "ode.solves": "count",
    "ode.steps_accepted": "count",
    "ode.steps_rejected": "count",
    "ode.rhs_calls": "count",
    "ode.us_per_step": "us/step",
    "ode.self_s": "s",
    "quadrature.integrals": "count",
    "quadrature.panels": "count",
    "quadrature.panels_per_integral": "panels/integral",
    "quadrature.self_s": "s",
    "radiation.moment_engine_s": "s",
    "radiation.to_data_points": "count",
    "radiation.to_data_s": "s",
    "radiation.from_data_points": "count",
    "radiation.from_data_s": "s",
    "radiation.us_per_from_data_point": "us/point",
    "radiation.panels_per_point": "panels/point",
    "pdesim.simulate_s": "s",
    "pdesim.point_steps": "count",
    "pdesim.ns_per_point_step": "ns/point-step",
    "pdesim.levels_stored": "count",
    "pdesim.trajectory_bytes": "B",
    "pdesim.bytes_per_point_step_computed": "B/point-step",
    "pdesim.diag_s": "s",
    "nonlinearity.ground_state_calls": "count",
    "trace.overhead_frac": "ratio",
}


def ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer: Tracer, n_tasks: int) -> dict:
    """Per-task values of the span- and counter-based metrics.

    ``*_s`` metrics are inclusive span time, except ``*.self_s``; a ratio
    whose base is zero reads 0.  ``cli.import_s``, ``cli.bytes_out`` and
    ``trace.overhead_frac`` are measured by the caller.
    """
    spans = tracer.spans
    inclusive, calls, own = Counter(), Counter(), Counter()
    for (name, start, end, parent, task), st in zip(spans, self_times(spans)):
        own[name] += st
        if parent is None or spans[parent][0] != name:   # outermost span of its name
            inclusive[name] += end - start
            calls[name] += 1
    c = tracer.counts
    steps = c["ode.steps_accepted"] + c["ode.steps_rejected"]
    point_steps = c["pdesim.point_steps"]
    values = {
        "cli.self_s": own["cli.main"],
        "verify.run_all_s": inclusive["verify.run_all"],
        "verify.table1_s": inclusive["verify.build_table1"],
        "verify.pushup_s": inclusive["verify.check_pushup"],
        "verify.upper_integral_s": inclusive["verify.check_upper_integral"],
        "profiles.integrate_calls": calls["profiles.integrate"],
        "profiles.integrate_s": inclusive["profiles.integrate"],
        "profiles.inverse_phi_roots": calls["profiles.inverse_phi"],
        "profiles.inverse_phi_s": inclusive["profiles.inverse_phi"],
        "profiles.phi_at_calls": c["profiles.phi_at_calls"],
        "profiles.find_nu2_s": inclusive["profiles.find_nu2"],
        "profiles.find_nu2_solves": c["profiles.find_nu2_solves"],
        "ode.solves": calls["ode.solve"],
        "ode.steps_accepted": c["ode.steps_accepted"],
        "ode.steps_rejected": c["ode.steps_rejected"],
        "ode.rhs_calls": c["ode.rhs_calls"],
        "ode.self_s": own["ode.solve"],
        "quadrature.integrals": c["quadrature.integrals"],
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.self_s": own[QUAD],
        "radiation.moment_engine_s": inclusive["radiation.moment_engine"],
        "radiation.to_data_points": c["radiation.to_data_points"],
        "radiation.to_data_s": inclusive[TO_DATA],
        "radiation.from_data_points": c["radiation.from_data_points"],
        "radiation.from_data_s": inclusive[FROM_DATA],
        "pdesim.simulate_s": inclusive["pdesim.simulate"],
        "pdesim.point_steps": point_steps,
        "pdesim.levels_stored": c["pdesim.levels_stored"],
        "pdesim.trajectory_bytes": c["pdesim.trajectory_bytes"],
        "pdesim.diag_s": inclusive["pdesim.diag"],
        "nonlinearity.ground_state_calls": c["nonlinearity.ground_state_calls"],
    }
    values = {name: v / n_tasks for name, v in values.items()}
    values.update({
        "profiles.phi_at_per_root": ratio(c["profiles.phi_at_in_roots"],
                                           calls["profiles.inverse_phi"]),
        "ode.us_per_step": 1e6 * ratio(inclusive["ode.solve"], steps),
        "quadrature.panels_per_integral": ratio(c["quadrature.panels"],
                                                 c["quadrature.integrals"]),
        "radiation.us_per_from_data_point": 1e6 * ratio(inclusive[FROM_DATA],
                                                         c["radiation.from_data_points"]),
        "radiation.panels_per_point": ratio(c["radiation.from_data_panels"],
                                             c["radiation.from_data_points"]),
        "pdesim.ns_per_point_step": 1e9 * ratio(inclusive["pdesim.simulate"], point_steps),
        # Computed from array sizes, not measured: each leapfrog update reads
        # two float64 levels and writes one, plus the bytes the trajectory keeps.
        "pdesim.bytes_per_point_step_computed":
            24.0 + ratio(c["pdesim.trajectory_bytes"], point_steps) if point_steps else 0.0,
    })
    return values
