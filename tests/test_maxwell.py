import math

import numpy as np
import pytest

from vmlkit import evolve, landau, maxwell
from vmlkit.evolve import RunConfig, Stepper, initial_state
from vmlkit.phase_grid import SpatialGrid, VelocityGrid

from oracles import field_source_on_f


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(box_length=2.0 * math.pi * 10.0, n_x=32, active_axes=(0,))


class TestSpectralIdentities:
    def test_div_curl_zero(self, grid):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3,) + grid.shape) \
            + 1j * rng.standard_normal((3,) + grid.shape)
        dc = maxwell.div_spec(grid, maxwell.curl_spec(grid, x))
        assert np.abs(dc).max() < 1e-12 * np.abs(x).max()

    def test_divb_conserved_by_rhs(self, grid):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((3,) + grid.shape) + 0j
        b = rng.standard_normal((3,) + grid.shape) + 0j
        em = maxwell.EMField(e, b)
        _, db = maxwell.field_rhs(grid, em, np.zeros_like(e))
        assert np.abs(maxwell.div_spec(grid, db)).max() < 1e-13 * np.abs(e).max()


class TestFieldRhs:
    def test_even_distribution_gives_zero_current(self, grid):
        vgrid = VelocityGrid(6.0, 12)
        mu_half = vgrid.mu_half()
        vsq = vgrid.vsq()
        prof = (1.0 + 0.2 * vsq) * mu_half   # even in v
        rng = np.random.default_rng(2)
        gx = rng.standard_normal(grid.shape)
        f = np.zeros((2,) + grid.shape + vgrid.shape)
        f[0] = gx[:, None, None, None] * prof
        f[1] = -f[0]
        j = maxwell.current_density(vgrid, f)
        # odd integrand: zero up to the unpaired -v_max layer residue
        # (one odd axis: the residue scales like h times the tail mass)
        assert np.abs(j).max() < 5e-6
        em = maxwell.EMField.zero(grid)
        de, _ = maxwell.field_rhs(grid, em, grid.forward(j))
        assert np.abs(de).max() < 5e-6

    def test_source_current_is_current_of_the_source(self, grid):
        # the source and the current are local in x: physical E or any
        # complex spectrum of it, the same identity
        vgrid = VelocityGrid(6.0, 8)
        rng = np.random.default_rng(3)
        for e in (rng.standard_normal((3,) + grid.shape),
                  rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))):
            ref = maxwell.current_density(vgrid, field_source_on_f(vgrid, e))
            got = maxwell.source_current(vgrid, e)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_shape_mismatch_rejected(self, grid):
        em = maxwell.EMField.zero(grid)
        with pytest.raises(ValueError):
            maxwell.field_rhs(grid, em, np.zeros((3, 7), dtype=complex))

    def test_vacuum_dispersion_frequency(self):
        # uncoupled Maxwell: a k0-mode oscillates at |omega| = |xi| exactly;
        # 1571 steps of 0.02 cover one period 2 pi / 0.2 = 31.416
        cfg = RunConfig(preset="vacuum-maxwell", couple_fields=False, n_x=16,
                        box_length=2.0 * math.pi * 10.0, n_v=8,
                        collision_solver="direct", dt=0.02,
                        t_end=1571 * 0.02, report_every=10 ** 9,
                        monitor_every=0)
        cfg.validate()
        sg, vg = cfg.grids()
        tab = landau.build_collision_tables(vg, cfg.gamma)
        stepper = Stepper(cfg, sg, vg, tab)
        st = initial_state(cfg, sg, vg)
        ts, vals = [0.0], [st.em.e_spec[1, 2]]
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            st = stepper.step(st)
            ts.append(st.t)
            vals.append(st.em.e_spec[1, 2])
        phase = np.unwrap(np.angle(np.array(vals)))
        omega = abs(np.polyfit(ts, phase, 1)[0])
        assert omega == pytest.approx(0.2, rel=1e-3)


class TestGaussResidual:
    def test_compatible_data_zero(self, grid):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3,) + grid.shape) + 0j
        rho = np.zeros(grid.shape, dtype=complex)
        rho[4], rho[-4] = 0.3, 0.3
        em = maxwell.make_compatible(grid, maxwell.EMField(x, x.copy()), rho)
        assert maxwell.gauss_residual(grid, em, rho) < 1e-10
        assert maxwell.div_b_norm(grid, em) < 1e-10

    def test_neutral_charge_zero_field(self, grid):
        em = maxwell.EMField.zero(grid)
        rho = np.zeros(grid.shape, dtype=complex)
        assert maxwell.gauss_residual(grid, em, rho) == 0.0

    def test_div_b_norm_reads_its_plancherel_value(self):
        # B = (b0 cos(xi_k x_0), b1 sin(xi_m x_1), random in x), on the box
        # [0, L)^2: div B = -b0 xi_k sin(xi_k x_0) + b1 xi_m cos(xi_m x_1),
        # whose squared L2 norm is (b0^2 xi_k^2 + b1^2 xi_m^2) L^2 / 2; B_2
        # varies along no derivative axis and adds nothing
        g2 = SpatialGrid(box_length=2.0 * math.pi * 3.0, n_x=16, active_axes=(0, 1))
        x0, x1 = g2.coords()
        xi = g2.xi_1d()
        b0, b1, k, m = 0.7, -1.3, 2, 5
        b = np.stack([np.broadcast_to(b0 * np.cos(xi[k] * x0), g2.shape),
                      np.broadcast_to(b1 * np.sin(xi[m] * x1), g2.shape),
                      np.random.default_rng(6).standard_normal(g2.shape)])
        em = maxwell.EMField(np.zeros(b.shape, dtype=complex), g2.forward(b))
        want = math.sqrt((b0 ** 2 * xi[k] ** 2 + b1 ** 2 * xi[m] ** 2)
                         * g2.box_length ** 2 / 2.0)
        assert maxwell.div_b_norm(g2, em) == pytest.approx(want, rel=1e-12)


class TestMakeCompatible:
    def test_transverse_guess_unchanged(self, grid):
        rng = np.random.default_rng(4)
        e = np.zeros((3,) + grid.shape, dtype=complex)
        e[1] = rng.standard_normal(grid.shape)   # transverse to the active axis
        e[2] = rng.standard_normal(grid.shape)
        rho = np.zeros(grid.shape, dtype=complex)
        em = maxwell.make_compatible(grid, maxwell.EMField(e.copy(), e.copy()), rho)
        assert np.abs(em.e_spec - e).max() < 1e-12

    def test_single_mode_poisson_oracle(self, grid):
        rho = np.zeros(grid.shape, dtype=complex)
        rho[3], rho[-3] = 1.0, 1.0
        em = maxwell.make_compatible(grid, maxwell.EMField.zero(grid), rho)
        xi3 = grid.xi_1d()[3]
        assert em.e_spec[0, 3] == pytest.approx(-1j / xi3, rel=1e-12)
        assert em.e_spec[0, -3] == pytest.approx(1j / xi3, rel=1e-12)

    def test_net_charge_rejected(self, grid):
        rho = np.full(grid.shape, 0.1, dtype=complex)
        with pytest.raises(ValueError):
            maxwell.make_compatible(grid, maxwell.EMField.zero(grid), rho)

    def test_b_always_divergence_free(self, grid):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3,) + grid.shape) + 0j
        em = maxwell.make_compatible(
            grid, maxwell.EMField(np.zeros_like(b), b),
            np.zeros(grid.shape, dtype=complex))
        assert maxwell.div_b_norm(grid, em) < 1e-12 * np.abs(b).max()


class TestVacuumEnergy:
    def test_energy_constant_to_integrator_order(self):
        drifts = {}
        for dt in (0.1, 0.05):
            cfg = RunConfig(preset="vacuum-maxwell", couple_fields=False,
                            n_x=16, box_length=2.0 * math.pi * 10.0, n_v=8,
                            collision_solver="direct",
                            dt=dt, t_end=8.0, report_every=10 ** 9,
                            monitor_every=0)
            res = evolve.run(cfg)
            st0 = initial_state(cfg, *cfg.grids())
            en0 = maxwell.field_energy(st0.em)
            drifts[dt] = abs(maxwell.field_energy(res.final_state.em) - en0) / en0
        assert drifts[0.05] < drifts[0.1]
        assert drifts[0.1] < 1e-6
