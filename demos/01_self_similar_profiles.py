"""Self-similar profiles of u_tt - Delta u = |u|^(4/3) u in radial 5D.

The ansatz u = r^(-3/2) phi(t/r) turns the PDE into a degenerate ODE for phi
on y in [0, 1).  This script integrates the profile for a sweep of initial
slopes nu, reports how each run ends (global with endpoint limits, or blow-up
inside (0, 1]), checks the conserved quantity, and locates the special slope
nu2 where the endpoint flux (1 - y^2) phi'(y)^2 vanishes.
"""

import math

from exwave import profiles

print("=== slope sweep ===")
for nu in (0.05, 0.5, 1.0, 1.575, 1.86, 2.0, 5.0, 20.0):
    p = profiles.integrate_profile(nu)
    print(f"nu = {nu:6.3f}: sup phi = {p.sup_phi:12.6g}   "
          f"drift = {p.energy_drift:8.2e}   {p.category}")

print()
print("=== the reference profile nu = 1.86 ===")
p = profiles.integrate_profile(1.86, 1e-12)
print(f"sup phi            = {p.sup_phi:.6f}   (reference 1.860262)")
y0 = profiles.inverse_phi(p, 2.0 ** 0.75)
print(f"y0 = phi^-1(2^3/4) = {y0:.6f}   (reference 0.964141)")
print(f"kappa0             = {(1 - y0) / (1 + y0):.6f}   (reference 0.018257)")

print()
print("=== linear comparison profile ===")
lp = profiles.integrate_linear_profile(1e-12)
gap = max(abs(phi - profiles.phi_star_exact(y)) for y, phi in zip(lp.y_nodes, lp.phi_nodes))
print(f"numeric vs closed form (2/3) sin((3/2) arcsin y): max gap = {gap:.2e}")
print(f"maximum value = {max(lp.phi_nodes):.6f}  (closed form peaks at 2/3)")

print()
print("=== the flux-vanishing slope ===")
nu2 = profiles.find_nu2()
print(f"nu2 = {nu2:.6f}   (reference 1.575)")
print(f"quarter period at nu2: {profiles.quarter_period(nu2):.10f}  (pi/2 = {math.pi / 2:.10f})")
flux = profiles.integrate_profile(nu2).category.limit_flux
print(f"endpoint flux at nu2: {flux:.2e}")

print()
print("=== comparison with the scaled linear profile (c <= 0.05) ===")
for y in (0.2, 0.5, 0.9):
    big, small = profiles.wronskian_compare(0.05, y)
    print(f"y = {y}: phi_c(y) = {big:.8f} > c phi_*(y) = {small:.8f}")
