"""Exterior finite-difference evolution of w = r^2 u and its diagnostics.

Four experiments:
  1. the ground state stays put (discrete stationarity and energy drift),
  2. a linear free wave matches its closed form at second order in dr,
  3. the characteristic-ray identity along r = t + 1 closes exactly at cfl=1,
  4. the outgoing radiation profile is read off the cone and compared with
     the reflection of the incoming profile.
"""

import numpy as np

from exwave import pdesim
from exwave import radiation as rad
from exwave.nonlinearity import ground_state


def bump(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)


print("=== 1. stationary ground state ===")
dW = rad.RadialData(u0=lambda r: ground_state(r)[0],
                    du0=lambda r: ground_state(r)[1],
                    u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                    decay=3.0)
cfg = pdesim.SimConfig(r_min=1.0, r_max=11.0, dr=0.01, T=5.0, cfl=1.0,
                       boundary_values=lambda r, t: ground_state(r)[0])
tr = pdesim.simulate(dW, cfg)
e0, e5 = pdesim.energy(tr, 0.0, 1.0), pdesim.energy(tr, 5.0, 1.0)
gap = np.max(np.abs(tr.u_level(tr.level(5.0)) - ground_state(tr.r)[0]))
print(f"energy drift over T=5: {abs(e5 - e0):.2e}   sup |u - W|: {gap:.2e}")

print("\n=== 2. free-wave convergence ===")
G = rad.RadiationProfile(lambda s: bump(s) * (1 + 0.3 * np.asarray(s)),
                         support=(-1.0, 1.0), smooth=True)
dG = rad.data_from_profile(G)
errs = []
for dr in (0.08, 0.04, 0.02):
    c = pdesim.SimConfig(r_min=1.0, r_max=9.0, dr=dr, T=2.0, cfl=1.0,
                         nonlinearity="linear",
                         boundary_values=lambda r, t: rad.free_wave(G, r, t))
    t = pdesim.simulate(dG, c)
    exact = np.array([rad.free_wave(G, ri, 2.0) for ri in t.r])
    errs.append(np.max(np.abs(t.u_level(t.level(2.0)) - exact)))
    print(f"dr = {dr}: max error = {errs[-1]:.3e}")
print(f"halving ratios: {errs[0] / errs[1]:.2f}, {errs[1] / errs[2]:.2f}  (4.0 = second order)")

print("\n=== 3. characteristic-ray identity at cfl = 1 ===")
dc = rad.RadialData(u0=lambda r: 0.5 * bump((np.asarray(r) - 2.25) / 0.75),
                    du0=None, u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                    tail_radius=3.0)
cC = pdesim.SimConfig(r_min=0.5, r_max=12.0, dr=0.05, T=3.3, cfl=1.0,
                      nonlinearity="focusing")
tC = pdesim.simulate(dc, cC)
lhs, rhs = pdesim.characteristic_integral(tC, 4.0)
print(f"(w_t - w_r) difference along the ray = {lhs:.10f}")
print(f"integral of r^2 F(u) - 2u on the ray = {rhs:.10f}")
print(f"gap = {abs(lhs - rhs):.2e} (exact ray bookkeeping)")

print("\n=== 4. radiation extraction ===")
cE = pdesim.SimConfig(r_min=0.5, r_max=26.5, dr=0.04, T=12.0, cfl=1.0,
                      nonlinearity="linear",
                      boundary_values=lambda r, t: rad.free_wave(G, r, t))
tE = pdesim.simulate(dG, cE)
print("  s    extracted    G(-s) (outgoing)")
for s in (-0.5, 0.0, 0.5):
    got = pdesim.extract_outgoing(tE, s)
    print(f"{s:5.1f}   {got:9.6f}   {G.value(-s):9.6f}")

print("\n=== 5. virial diagnostics on a linear wave packet ===")
dv = rad.RadialData(u0=lambda r: bump(np.asarray(r) - 3.0), du0=None,
                    u1=lambda r: 0.3 * bump(np.asarray(r) - 3.0),
                    tail_radius=4.0)
cV = pdesim.SimConfig(r_min=0.5, r_max=15.5, dr=0.02, T=1.0, cfl=1.0,
                      nonlinearity="linear")
tV = pdesim.simulate(dv, cV)
j, jp, jpp = pdesim.virial(tV, 0.48, 4.0)
jm = pdesim.virial(tV, 0.48 - cV.dt, 4.0)[0]
jp_ = pdesim.virial(tV, 0.48 + cV.dt, 4.0)[0]
fd = (jp_ - 2 * j + jm) / cV.dt ** 2
print(f"J = {j:.6f}, J' = {jp:.6f}, J'' = {jpp:.6f}")
print(f"second difference of J over dt: {fd:.6f}  (gap {abs(fd - jpp):.2e})")
