"""Collisional relaxation and the per-step Lyapunov balance.

An x-homogeneous microscopic bump relaxes monotonically under the
linearized collision operator; on a full linearized run the per-step
energy drop matches the measured collisional dissipation within the
integrator allowance.
"""

import numpy as np

from vmlkit import diagnostics as diag, evolve
from vmlkit.evolve import RunConfig

print("== pure relaxation ==")
cfg = RunConfig(n_x=8, n_v=12, dt=0.1, t_end=3.0, preset="relaxation",
                collision_solver="direct", report_every=5, monitor_every=1)
res = evolve.run(cfg)
print(" t      ||f||^2")
for rep in res.reports:
    print(f" {rep.t:4.1f}   {rep.norm_f_sq:.6e}")
print(f"contraction violations: {res.contraction_violations} "
      f"(trapezoid + PSD operator never increase the norm)")

print("\n== Lyapunov balance on a coupled linearized run ==")
cfg2 = RunConfig(n_x=32, n_v=10, dt=0.05, t_end=2.0, preset="broadband",
                 collision_solver="direct", report_every=10, monitor_every=1)
res2 = evolve.run(cfg2)
t, ek, dk, dpk = res2.monitor.as_arrays()
rep = diag.lyapunov_monitor(t, ek, dpk)
print(f"steps: {ek.shape[1]-1}, flags: {rep.flags}")
print(f"max (Delta E^k/Delta t + D-proxy): {rep.deltas.max():.3e} vs "
      f"allowance floor {rep.allowance.min():.3e}")
print("the collisional proxy 2<L d^a f, d^a f> is what the implicit")
print("trapezoid substep provably extracts; the coefficient-1 literal")
print("dissipation functionals are recorded alongside for the")
print("interpolation monitor:")
r1 = diag.interpolation_monitor(
    np.array([r.t for r in res2.reports]),
    np.array([r.e_k[1] for r in res2.reports]),
    np.array([r.d_k[1] for r in res2.reports]),
    np.array([r.cap[1] for r in res2.reports]), k=1, s_exp=cfg2.s_exp)
print(f"interpolation ratio r(t) = E^1/[(D^1)^th cap^(1-th)]: "
      f"max {np.nanmax(r1):.3f} (order one)")
