"""Phase-space grids, transforms, and fractional norms.

Walks through the discretization layer: the truncated velocity grid with
its Maxwellian quadrature, the periodic spatial grid with its unitary
transform pair, and the |xi|^s multiplier machinery behind the
negative-order Sobolev norms.
"""

import numpy as np

from vmlkit.phase_grid import SpatialGrid, VelocityGrid, WeightParams

print("== velocity grid and Maxwellian quadrature ==")
vgrid = VelocityGrid(v_max=6.0, n_v=24)
print(f"grid: {vgrid.n_v}^3 nodes on [-{vgrid.v_max}, {vgrid.v_max})^3, "
      f"spacing {vgrid.spacing}")
mu = vgrid.mu()
mass = vgrid.integrate(mu)
print(f"quadrature of mu: {mass:.12f} (exact 1; tail below 1e-8)")
o = vgrid.n_v // 2  # the node v = 0
print(f"mu at the origin: {mu[o, o, o]:.7f} = (2 pi)^(-3/2)")

v1, _, _ = vgrid.axes()
vsq = vgrid.vsq()
print(f"second moment <v1^2>  = {vgrid.integrate((v1**2 + 0*vsq) * vgrid.mu()):.9f} (exact 1)")
print(f"fourth moment <|v|^4> = {vgrid.integrate(vsq**2 * vgrid.mu()):.7f} (exact 15)")

print("\n== time-velocity weight ==")
p = WeightParams(gamma=-3.0, ell=2.0, q=0.01, theta=0.25)
i2, i0 = np.searchsorted(vgrid.nodes_1d, [2.0, 0.0])  # grid nodes v = 2, v = 0
for t in (0.0, 1.0, 10.0):
    w = vgrid.weight_field(p, t)[i2, i0, i0]
    print(f"w_ell(t={t:4.1f}, v=(2,0,0)) = {w:.6f}")
print("the exponential factor relaxes as t grows; the polynomial part stays")

print("\n== spatial transforms ==")
sgrid = SpatialGrid(box_length=2.0 * np.pi * 10.0, n_x=64, active_axes=(0,))
rng = np.random.default_rng(0)
f = rng.standard_normal(sgrid.shape)
spec = sgrid.forward(f)
print(f"Plancherel: ||f||^2 = {sgrid.norm2(f):.10f}, "
      f"sum |fhat|^2 = {float(np.sum(np.abs(spec)**2)):.10f}")
back = sgrid.inverse(spec).real
print(f"round-trip max error: {np.abs(back - f).max():.3e}")

print("\n== fractional multipliers ==")
g = f - f.mean()
comp = sgrid.lambda_s_apply(sgrid.lambda_s_apply(g, -0.5), 0.5)
print(f"Lambda^s Lambda^-s = identity on zero-mean fields: "
      f"max error {np.abs(comp - g).max():.3e}")
spec_g = sgrid.forward(g)
hneg = np.sqrt(sgrid.spec_weighted_norm2(spec_g, sgrid.lambda_multiplier(-0.5) ** 2))
hn = np.sqrt(sgrid.spec_weighted_norm2(spec_g, sgrid.band_multiplier(0, 2)))
print(f"H^-1/2 norm {hneg:.6f}, H^2 norm {hn:.6f}")
print("(the xi = 0 mode is excluded from the negative norm on the torus)")

x = sgrid.coords()[0]
u = np.exp(-0.5 * (x - 30.0) ** 2 / 4.0)
u -= u.mean()
spec_u = sgrid.forward(u)
s, k = 0.5, 1
gk = np.sqrt(sgrid.spec_weighted_norm2(spec_u, sgrid.xi_norm() ** (2 * k)))
gk1 = np.sqrt(sgrid.spec_weighted_norm2(spec_u, sgrid.xi_norm() ** (2 * k + 2)))
hneg_u = np.sqrt(sgrid.spec_weighted_norm2(spec_u, sgrid.lambda_multiplier(-s) ** 2))
rhs = hneg_u ** (1 / (k + s + 1)) * gk1 ** ((k + s) / (k + s + 1))
print(f"\ninterpolation ||grad u|| <= ||L^-s u||^a ||grad^2 u||^(1-a):")
print(f"  lhs {gk:.6f} <= rhs {rhs:.6f} (exact spectral Hoelder)")
