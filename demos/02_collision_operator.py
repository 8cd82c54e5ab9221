"""The Landau collision operator: kernel, frequency tables, and structure.

Shows the exact structural properties of the discretization: the kernel
identities, the collision frequency against the closed-form Coulomb
expressions, the six-dimensional null space annihilated to round-off,
symmetry/positivity, and the measured coercivity gap.
"""

import math

import numpy as np
from scipy.special import erf

from vmlkit import landau
from vmlkit.macro_micro import MacroProjector
from vmlkit.phase_grid import VelocityGrid

print("== kernel ==")
print(f"Phi((1,0,0)) at gamma=-3:\n{landau.phi_kernel(1.0, 0.0, 0.0, -3.0)}")
rng = np.random.default_rng(1)
u = rng.standard_normal(3)
print(f"Phi(u) u = {landau.phi_kernel(*u, -3.0) @ u}  (projector annihilates u)")

print("\n== collision frequency ==")
grid = VelocityGrid(v_max=6.0, n_v=24)
tables = landau.build_collision_tables(grid, -3.0)
i0 = grid.n_v // 2
s0 = tables.sigma[0, 0, i0, i0, i0]
print(f"sigma(0) diagonal: {s0:.6f}  "
      f"(exact (2/3) sqrt(2/pi) = {(2/3)*math.sqrt(2/math.pi):.6f})")


def sigma_par(r):
    return 2 * (erf(r / math.sqrt(2)) / r**3
                - math.sqrt(2 / math.pi) * math.exp(-r * r / 2) / r**2)


def sigma_perp(r):
    return ((1 - 1 / r**2) * erf(r / math.sqrt(2)) / r
            + math.sqrt(2 / math.pi) * math.exp(-r * r / 2) / r**2)


print("parallel ~ <v>^gamma vs transverse ~ <v>^(gamma+2) anisotropy:")
for V in (3.0, 4.0, 5.0):
    iv = int(round((V + 6.0) / grid.spacing))
    r = grid.nodes_1d[iv]
    par, perp = tables.sigma[0, 0, iv, i0, i0], tables.sigma[1, 1, iv, i0, i0]
    print(f"  |v| = {r:.1f}: parallel {par:.5f} (erf formula {sigma_par(r):.5f}), "
          f"transverse {perp:.5f} ({sigma_perp(r):.5f})")

print("\n== null space and symmetry ==")
mu_half = grid.mu_half()
v1, v2, v3 = grid.axes()
vsq = grid.vsq()
zero = np.zeros_like(mu_half)
basis = [
    ("[1,0] mu^1/2", np.stack([mu_half, zero])),
    ("[v1,v1] mu^1/2", np.stack([(v1 + zero) * mu_half, (v1 + zero) * mu_half])),
    ("[|v|^2,|v|^2] mu^1/2", np.stack([vsq * mu_half, vsq * mu_half])),
]
for name, e in basis:
    ratio = landau.sigma_norm(landau.apply_L(tables, e), tables) \
        / landau.sigma_norm(e, tables)
    print(f"  |L e|_sigma / |e|_sigma for {name}: {ratio:.2e}")

f = rng.standard_normal((2,) + grid.shape)
g = rng.standard_normal((2,) + grid.shape)
lf, lg = landau.apply_L(tables, f), landau.apply_L(tables, g)
print(f"self-adjointness <Lf,g> - <f,Lg> = "
      f"{landau.pair_inner(tables, lf, g) - landau.pair_inner(tables, f, lg):.2e}")
print(f"positivity <Lf,f> = {landau.pair_inner(tables, lf, f):.4e} >= 0")

print("\n== conservation of the bilinear operator ==")
F = rng.standard_normal(grid.shape) * mu_half
G = rng.standard_normal(grid.shape) * mu_half
q = landau.apply_Q(F, G, tables)
print(f"mass of Q(F,G): {grid.integrate(q):.2e} (divergence form, exact)")
qs = landau.apply_Q(F, G, tables) + landau.apply_Q(G, F, tables)
print(f"momentum of symmetrized pair: "
      f"{grid.integrate((v1 + zero) * qs):.2e}, "
      f"energy: {grid.integrate(vsq * qs):.2e}")

print("\n== coercivity gap ==")
small = VelocityGrid(6.0, 16)
tab16 = landau.build_collision_tables(small, -3.0)
proj = MacroProjector(small)
rep = landau.coercivity_gap(tab16, proj.micro_part, n_samples=100)
print(f"min <Lf,f>/|{{I-P}}f|_sigma^2 over 100 smooth samples: "
      f"{rep.min_ratio:.4f} (median {rep.median_ratio:.4f})")
print("positive and grid-stable: the discrete echo of local coercivity")
