"""Reference implementations the tests check the package against.

Not collected by pytest: the test modules import these.

- ``field_source_on_f``: the kinetic source E . v mu^(1/2) q1 as a full
  species pair, the form the stepper never builds.
- ``rhs_full``: the unsplit right-hand side, the Strang step's wiring
  oracle.
- ``fluid_history``: the macro snapshots (``diagnostics.macro_snapshot``)
  of a run's report steps, for ``macro_micro.fluid_residuals``.
"""

import numpy as np

from vmlkit import diagnostics as diag
from vmlkit import evolve, landau, maxwell
from vmlkit.macro_micro import MacroProjector


def field_source_on_f(vgrid, e):
    """E . v mu^(1/2) q1, shape (2, *x, n, n, n).

    Local in x: ``e`` (3, *x) may be physical E or a spectrum of it, and
    the source is then the same spectrum.  The species are
    ``maxwell.source_profile`` and its negative.
    """
    ev = maxwell.source_profile(vgrid, e)
    return np.stack([ev, -ev])


def rhs_full(state, sgrid, vgrid, tables, mode=evolve.LINEARIZED):
    """Unsplit right-hand side (df/dt, dE/dt, dB/dt).

    The integrator applies the same pieces through Strang splitting; this
    assembly is the wiring oracle for term-level tests.
    """
    f = state.f
    x_axes = tuple(range(1, 1 + sgrid.n_active))
    fspec = sgrid.forward(f, x_axes)
    # transport -v . grad_x f
    df_spec = np.zeros_like(fspec)
    v = vgrid.axes()
    for i, axis in enumerate(sgrid.active_axes):
        xi = sgrid.xi_mesh()[i]
        sh = [1] * fspec.ndim
        sh[1 + i] = sgrid.n_x
        mult = (1j * xi.ravel()).reshape(sh)
        df_spec = df_spec - mult * fspec * v[axis]
    df = sgrid.inverse(df_spec, x_axes).real

    e_phys = state.em.e_phys(sgrid)
    df += field_source_on_f(vgrid, e_phys)
    df -= landau.apply_L(tables, f)

    if mode == evolve.NONLINEAR:
        b_phys = state.em.b_phys(sgrid)
        df += maxwell.lorentz_force_terms(vgrid, f, e_phys, b_phys)
        df += landau.apply_Gamma(tables, f, f)

    j_spec = sgrid.forward(maxwell.current_density(vgrid, f))
    de, db = maxwell.field_rhs(sgrid, state.em, j_spec)
    return df, de, db


def fluid_history(cfg):
    """(macro snapshots at the report steps of ``cfg``'s run, its final state).

    The states come from ``evolve.Stepper`` stepped from the initial state,
    as ``evolve.run`` steps them; the report steps are step 0, every
    ``report_every``-th step and the last one.
    """
    sgrid, vgrid = cfg.grids()
    tables = landau.build_collision_tables(vgrid, cfg.gamma)
    stepper = evolve.Stepper(cfg, sgrid, vgrid, tables)
    ctx = diag.DiagContext(sgrid, vgrid, tables, MacroProjector(vgrid), cfg)
    state = evolve.initial_state(cfg, sgrid, vgrid)
    history = [diag.macro_snapshot(ctx, state)]
    n_steps = round(cfg.t_end / cfg.dt)
    for step in range(1, n_steps + 1):
        state = stepper.step(state)
        if step % cfg.report_every == 0 or step == n_steps:
            history.append(diag.macro_snapshot(ctx, state))
    return history, state
