"""Macro-micro decomposition and the fluid-type conservation laws.

The projection onto the collision invariants splits any perturbation pair
into a fluid part (a_+, a_-, b, c) and a microscopic remainder; on solver
histories the macroscopic fields obey discrete conservation laws whose
residuals shrink at the integrator order.  A run does not keep that
history: the demo steps ``evolve.Stepper`` itself and takes
``diagnostics.macro_snapshot`` of the state at every report step.
"""

import numpy as np

from vmlkit import diagnostics as diag
from vmlkit import evolve, landau
from vmlkit.evolve import RunConfig
from vmlkit.macro_micro import MacroProjector, fluid_residuals, moments
from vmlkit.phase_grid import VelocityGrid

print("== projection ==")
grid = VelocityGrid(v_max=6.0, n_v=16)
proj = MacroProjector(grid)
mu_half = grid.mu_half()
v1 = grid.axes()[0] + 0 * mu_half

f = np.stack([mu_half + 0.3 * v1 * mu_half, 0.3 * v1 * mu_half])
pf, mac = proj.project(f)
print(f"f = [mu^1/2 + 0.3 v1 mu^1/2, 0.3 v1 mu^1/2]:")
print(f"  a+ = {mac.a_plus:.6f}, a- = {mac.a_minus:.2e}, "
      f"b = ({mac.b[0]:.4f}, {mac.b[1]:.1e}, {mac.b[2]:.1e}), c = {mac.c:.2e}")

rng = np.random.default_rng(2)
g = rng.standard_normal((2,) + grid.shape)
pg, _ = proj.project(g)
mg = proj.micro_part(g)
dot = grid.cell_volume * float(np.sum(pg * mg))
n2 = grid.cell_volume * (float(np.sum(pg**2)) + float(np.sum(mg**2)))
print(f"random pair: <Pg, (I-P)g> = {dot:.2e}; "
      f"||Pg||^2 + ||(I-P)g||^2 - ||g||^2 = "
      f"{n2 - grid.cell_volume*float(np.sum(g**2)):.2e}")

print("\n== moment functions ==")
pair = np.stack([mu_half, mu_half])
mset = moments(pair, proj.micro_part(pair), grid)
print(f"A matrix of [mu^1/2, mu^1/2] (diag 0, off-diag -2 from the Gaussian "
      f"second moments):\n{np.round(mset.A, 7)}")
print(f"B moments: {np.round(mset.Bv, 9)} (odd integrand)")
print(f"G (microscopic current): {mset.G} (pure-macro input)")

print("\n== conservation laws on a solver history ==")
for dt in (0.08, 0.04):
    cfg = RunConfig(n_x=16, n_v=8, dt=dt, t_end=0.64, preset="broadband",
                    collision_solver="direct", direct_max_nv=8,
                    report_every=2, monitor_every=0)
    sgrid, vgrid = cfg.grids()
    tables = landau.build_collision_tables(vgrid, cfg.gamma)
    stepper = evolve.Stepper(cfg, sgrid, vgrid, tables)
    ctx = diag.DiagContext(sgrid, vgrid, tables, MacroProjector(vgrid), cfg)
    state = evolve.initial_state(cfg, sgrid, vgrid)
    history = [diag.macro_snapshot(ctx, state)]
    for step in range(1, round(cfg.t_end / cfg.dt) + 1):
        state = stepper.step(state)
        if step % cfg.report_every == 0:
            history.append(diag.macro_snapshot(ctx, state))
    r = fluid_residuals(history, sgrid)
    print(f"dt = {dt}: continuity residual {r.continuity:.3e}, "
          f"charge continuity {r.charge_continuity:.3e}, "
          f"third-moment balance (reported) {r.b_equation:.3e}")
print("charge continuity refines at the integrator order; mass continuity")
print("sits at the quadrature floor because the density dynamics is slow")
