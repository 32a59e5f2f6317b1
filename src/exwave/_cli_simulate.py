"""The simulate subcommand's computation: presets, the run, its snapshots
and its diagnostics, returned as values that ``cli`` writes out.  It reads
and writes no file and no stream.

Kept apart from ``cli`` so that the other subcommands compile none of it;
``cli`` imports it only for simulate.  Every run needs numpy, the
nonlinearity and the solver, so they are imported at the top; radiation is
imported only for a profile, and ``cli`` loads a data CSV, so the
closed-form presets never load it.
"""

from __future__ import annotations

from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from . import nonlinearity as nl, pdesim


def _parse_gspec(spec: str):
    """Named closed-form profiles: 'bump:lo:hi[:amp]' (C^2 bump) or
    'box:lo:hi[:amp]' (indicator)."""
    from . import radiation

    bad = f"bad G-spec {spec!r}; use bump:lo:hi[:amp] or box:lo:hi[:amp]"
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("bump", "box") or len(parts) not in (3, 4):
        raise ValueError(bad)
    try:
        lo, hi, amp = map(float, (parts + ["1"])[1:4])   # amp defaults to 1
    except ValueError:
        raise ValueError(bad) from None
    if hi <= lo:
        raise ValueError("G-spec needs lo < hi")
    if kind == "box":
        return radiation.RadiationProfile(lambda s: amp if lo <= s <= hi else 0.0,
                                          support=(lo, hi))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(s):
        x = (s - mid) / half
        return amp * ((1.0 - x * x) ** 3 if abs(x) < 1.0 else 0.0)

    return radiation.RadiationProfile(fn, support=(lo, hi), smooth=True)


_EXTRACTION_S = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]


def _snapshot_levels(n_levels):
    """Up to 9 evenly spread levels of a run of n_levels levels."""
    n_snap = min(n_levels, 9)
    return sorted({int(round(k * (n_levels - 1) / max(n_snap - 1, 1))) for k in range(n_snap)})


def _levels_read(cfg, n_levels, free_wave):
    """Every level the simulate output reads: each snapshot with its n +- 1
    neighbours (centered velocity in energy and virial) and, for a free wave,
    the levels of the profile extraction."""
    keep = {m for n in _snapshot_levels(n_levels) for m in (n - 1, n, n + 1)
            if 0 <= m < n_levels}
    if free_wave:
        try:
            for s in _EXTRACTION_S:
                keep.update(pdesim.outgoing_levels(cfg, n_levels, s))
        except pdesim.ConeCoverageError:
            pass  # the extraction reports it
    return keep


SimulateRun = namedtuple("SimulateRun", "r snapshots diag levels t_end blowup")


def run(args, data=None) -> SimulateRun:
    """The run ``args`` asks for, from its preset or from ``data``, the pair
    ``cli`` loads from a data CSV: the grid radii ``r`` as floats, the
    ``snapshots`` as an iterator of (t, u over r), each made only when it is
    read, the diagnostics ``diag``, and how far the run got (``levels``,
    ``t_end``, ``blowup``)."""
    bv, nonlin = None, "focusing"
    # pdesim.simulate reads only d.u0 and d.u1, so the closed-form presets
    # pass a plain pair and never load radiation.
    if data is not None:
        d = data
    elif args.preset == "ground-state":
        d = SimpleNamespace(u0=lambda r: nl.ground_state(r)[0],
                            u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        bv = lambda r, t: nl.ground_state(r)[0]
    elif args.preset == "free-wave":
        from . import radiation

        G = _parse_gspec(args.gspec)
        d = radiation.data_from_profile(G)
        bv = lambda r, t: radiation.free_wave(G, r, t)
        nonlin = "linear"
    else:  # self-similar, the last of the parser's choices
        nu = args.nu
        d = SimpleNamespace(u0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                            u1=lambda r: nu * np.asarray(r, dtype=float) ** (-2.5))

    cfg = pdesim.SimConfig(r_min=args.rmin, r_max=args.rmax, dr=args.dr, T=args.T,
                           cfl=args.cfl, nonlinearity=nonlin, boundary_values=bv)
    free_wave = args.preset == "free-wave"
    n_levels = cfg.n_t + 1
    tr = pdesim.simulate(d, cfg, levels=_levels_read(cfg, n_levels, free_wave))
    if len(tr.times) < n_levels:
        # Blow-up: the snapshots sit on the truncated run.  The scheme is
        # deterministic, so the rerun stops at the same level.
        n_levels = len(tr.times)
        tr = pdesim.simulate(d, cfg, levels=_levels_read(cfg, n_levels, free_wave))
    snap_idx = _snapshot_levels(n_levels)
    diag = {"times": [], "energy": [], "virial": []}
    scale = tr.r[-1] / 3.0
    # the last level has no forward level for a centred velocity
    for n in snap_idx[:-1] or snap_idx:
        t = float(tr.times[n])
        diag["times"].append(t)
        diag["energy"].append(pdesim.energy(tr, t, args.rmin))
        diag["virial"].append(list(pdesim.virial(tr, t, scale)))
    if free_wave:
        try:
            diag["extracted_profile"] = [[s, pdesim.extract_outgoing(tr, s)]
                                         for s in _EXTRACTION_S]
        except pdesim.ConeCoverageError as exc:
            diag["extracted_profile_error"] = str(exc)
    if tr.blowup is not None:
        diag["blowup"] = {"time": tr.blowup.time, "radius": tr.blowup.radius}
    # a generator, so that only one snapshot's u list is alive at a time
    snapshots = ((float(tr.times[n]), tr.u_level(n).tolist()) for n in snap_idx)
    return SimulateRun(tr.r.tolist(), snapshots, diag, len(tr.times), float(tr.times[-1]),
                       tr.blowup)
