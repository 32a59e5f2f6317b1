"""Radiation profiles of radial free waves in five dimensions.

A free wave is determined by its incoming profile G through

    u(r, t) = r^-3 * int_{t-r}^{t+r} (s - t) G(s) ds.

This script converts a profile to initial data and back, verifies the
exterior-energy identity and the full-space isometry, evaluates the weighted
moments (residues) of the static ground-state pair, and checks how time
translation acts on the asymptotic numbers.
"""

import numpy as np

from exwave import exterior as ext
from exwave import radiation as rad
from exwave.nonlinearity import SIGMA4, ground_state


def bump(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3 * (1.0 + 0.5 * s), 0.0)


G = rad.RadiationProfile(bump, support=(-1.0, 1.0), smooth=True)

print("=== profile -> data -> profile round trip ===")
d = rad.data_from_profile(G)
G2 = rad.profile_from_data(d)
s = np.linspace(-0.99, 0.99, 199)
print(f"sup |recovered - original| = {np.max(np.abs(G2.value(s) - G.value(s))):.2e}")
print(f"far field: u0(5) = {d.u0(5.0):.6e} vs alpha2/125 = {d.tail_c0 / 125:.6e}")

print("\n=== exterior energy: data side vs profile side ===")
for R in (0.5, 1.0, 2.0):
    a = ext.exterior_energy(d, R)
    b = ext.exterior_energy_identity(G, R)
    print(f"R = {R}: {a:.10f} vs {b:.10f}   (rel gap {abs(a - b) / a:.1e})")

full = ext.exterior_energy(d, 1e-3)
print(f"isometry: ||(u0,u1)||^2 = {full:.8f} vs 2 sigma4 ||G||^2 = "
      f"{2 * SIGMA4 * G.norm_l2 ** 2:.8f}")

print("\n=== residues of the static ground-state pair ===")
dW = rad.RadialData(u0=lambda r: ground_state(r)[0],
                    du0=lambda r: ground_state(r)[1],
                    u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                    decay=3.0)
GW = rad.profile_from_data(dW)
for R in (1.0, 5.0, 20.0):
    pair = rad.residues(GW, R)
    print(f"R = {R:4}: tau1 = {pair.tau1:+.2e}   tau2 = {pair.tau2:.8f}"
          f"   (closed form sqrt(3) R^(3/2) W(R) = {ext.tau2_of_ground_state(R):.8f})")

rho = 0.1
print(f"\nresidue radius: tau2(c2) = {rho} at c2 = {ext.compute_c2(rho):.4f}"
      f"  (> sqrt(15) = {np.sqrt(15):.4f})")

print("\n=== time translation of the asymptotic numbers ===")
a1, a2 = rad.asymptotic_numbers(G)
print(f"alpha = ({a1:.6f}, {a2:.6f})")
for t0 in (-3.0, 0.7, 10.0):
    b1, b2 = rad.asymptotic_numbers(G.shifted(t0))
    print(f"t0 = {t0:5}: ({b1:.6f}, {b2:.6f})   expected ({a1:.6f}, {a2 + a1 * t0:.6f})")
