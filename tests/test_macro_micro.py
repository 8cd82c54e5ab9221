import math

import numpy as np
import pytest

from vmlkit import macro_micro
from vmlkit.macro_micro import MacroProjector, MacroSnapshot, fluid_residuals, moments
from vmlkit.phase_grid import SpatialGrid, VelocityGrid

from conftest import null_basis
from oracles import fluid_history


class TestProjection:
    def test_pure_plus_density(self, vgrid12, proj12):
        mu_half = vgrid12.mu_half()
        f = np.stack([mu_half, np.zeros_like(mu_half)])
        pf, mac = proj12.project(f)
        assert mac.a_plus == pytest.approx(1.0, abs=1e-12)
        assert abs(mac.a_minus) < 1e-12
        assert np.abs(mac.b).max() < 1e-12
        assert abs(mac.c) < 1e-12
        assert np.abs(pf - f).max() < 1e-12

    def test_velocity_moment(self, vgrid12, proj12):
        mu_half = vgrid12.mu_half()
        v1 = vgrid12.axes()[0] + 0 * mu_half
        f = np.stack([v1 * mu_half, v1 * mu_half])
        pf, mac = proj12.project(f)
        assert mac.b[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pf - f).max() < 1e-12

    def test_idempotent(self, proj12):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((2, 3, 12, 12, 12))
        pf, _ = proj12.project(f)
        ppf, _ = proj12.project(pf)
        assert np.abs(ppf - pf).max() < 1e-12 * max(np.abs(pf).max(), 1.0)

    def test_complementarity_and_orthogonality(self, vgrid12, proj12):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((2, 12, 12, 12))
        g = rng.standard_normal((2, 12, 12, 12))
        pf, _ = proj12.project(f)
        micro_g = proj12.micro_part(g)
        p_of_micro = proj12.project(micro_g)[0]
        assert np.abs(p_of_micro).max() < 1e-12 * np.abs(g).max()
        ip = vgrid12.cell_volume * float(np.sum(pf * micro_g))
        assert abs(ip) < 1e-10

    def test_norm_pythagoras(self, vgrid12, proj12):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((2, 12, 12, 12))
        pf, _ = proj12.project(f)
        mf = proj12.micro_part(f)
        total = vgrid12.cell_volume * float(np.sum(f ** 2))
        split = vgrid12.cell_volume * float(np.sum(pf ** 2) + np.sum(mf ** 2))
        assert split == pytest.approx(total, rel=1e-10)

    def test_species_swap_exact(self, proj12):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((2, 12, 12, 12))
        _, mac = proj12.project(f)
        _, mac_sw = proj12.project(f[::-1].copy())
        # exact up to round-off of the Gram solve (the basis itself is
        # swap-symmetric)
        assert np.allclose(mac_sw.a_plus, mac.a_minus, rtol=1e-13, atol=1e-15)
        assert np.allclose(mac_sw.a_minus, mac.a_plus, rtol=1e-13, atol=1e-15)
        assert np.allclose(mac_sw.b, mac.b, rtol=1e-13, atol=1e-15)
        assert np.allclose(mac_sw.c, mac.c, rtol=1e-13, atol=1e-15)

    def test_null_span_projects_to_itself(self, vgrid12, proj12):
        for e in null_basis(vgrid12):
            assert np.abs(proj12.micro_part(e)).max() < 1e-12 * np.abs(e).max()

    def test_purely_microscopic_shape_unchanged(self, vgrid12, proj12):
        mu_half = vgrid12.mu_half()
        v1, v2, _ = vgrid12.axes()
        f0 = (v1 * v2 + 0 * mu_half) * mu_half
        f = np.stack([f0, f0])
        # all defining moments vanish by parity up to the one-cell offset
        # residue at the -v_max layer (Maxwellian-tail sized)
        assert np.abs(proj12.micro_part(f) - f).max() < 1e-6 * np.abs(f).max()


class TestMoments:
    def test_maxwellian_pair_moments(self, vgrid12, proj12):
        mu_half = vgrid12.mu_half()
        f = np.stack([mu_half, mu_half])
        mset = moments(f, proj12.micro_part(f), proj12.grid)
        # species sum is 2 mu^(1/2): A_mj = 2(delta_mj - 1) by the Gaussian
        # second moments (diagonal zero, off-diagonal -2)
        for m in range(3):
            for j in range(3):
                expect = 0.0 if m == j else -2.0
                assert mset.A[m, j] == pytest.approx(expect, abs=2e-6)
        # odd integrand: zero up to the unpaired -v_max layer residue
        assert np.abs(mset.Bv).max() < 1e-6
        assert np.abs(mset.G).max() < 1e-12

    def test_A_symmetric(self, proj12):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2, 12, 12, 12))
        mset = moments(f, proj12.micro_part(f), proj12.grid)
        assert np.array_equal(mset.A, np.swapaxes(mset.A, 0, 1))

    def test_G_vanishes_on_pure_macro(self, vgrid12, proj12):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((2, 12, 12, 12))
        pf, _ = proj12.project(f)
        mset = moments(pf, proj12.micro_part(pf), proj12.grid)
        assert np.abs(mset.G).max() < 1e-12 * np.abs(pf).max()

    def test_batched_shapes(self, proj12):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((2, 5, 12, 12, 12))
        mset = moments(f, proj12.micro_part(f), proj12.grid)
        assert mset.A.shape == (3, 3, 5)
        assert mset.Bv.shape == (3, 5)
        assert mset.G.shape == (3, 5)


def _snapshot(t, sgrid, dens_fun, b_fun, g_fun):
    shape = sgrid.shape
    a = dens_fun(t)
    mac = macro_micro.MacroFields(
        a_plus=a + 0.5 * np.ones(shape) * 0.0, a_minus=a.copy(),
        b=b_fun(t), c=np.zeros(shape))
    mom = macro_micro.MomentSet(A=np.zeros((3, 3) + shape),
                                Bv=np.zeros((3,) + shape), G=g_fun(t))
    return MacroSnapshot(t=t, macro=mac, mom=mom)


class TestFluidResiduals:
    def test_static_state_zero_residual(self, sgrid32):
        shape = sgrid32.shape
        snaps = [_snapshot(t, sgrid32,
                           lambda t: np.ones(shape),
                           lambda t: np.zeros((3,) + shape),
                           lambda t: np.zeros((3,) + shape))
                 for t in (0.0, 0.1, 0.2, 0.3)]
        res = fluid_residuals(snaps, sgrid32)
        assert res.continuity < 1e-13
        assert res.charge_continuity < 1e-13

    def test_divergence_free_transport_exact(self, sgrid32):
        # constant density with divergence-free b: residual at round-off
        shape = sgrid32.shape
        x = sgrid32.coords()[0]
        xi = sgrid32.xi_1d()[2]

        def bfield(t):
            b = np.zeros((3,) + shape)
            b[1] = np.cos(xi * x)   # varies along axis 0, divergence-free
            b[2] = np.sin(xi * x)
            return b

        snaps = [_snapshot(t, sgrid32, lambda t: np.ones(shape), bfield,
                           lambda t: np.zeros((3,) + shape))
                 for t in (0.0, 0.1, 0.2)]
        res = fluid_residuals(snaps, sgrid32)
        assert res.continuity < 1e-10

    def test_needs_three_snapshots(self, sgrid32):
        shape = sgrid32.shape
        snaps = [_snapshot(t, sgrid32, lambda t: np.ones(shape),
                           lambda t: np.zeros((3,) + shape),
                           lambda t: np.zeros((3,) + shape))
                 for t in (0.0, 0.1)]
        with pytest.raises(ValueError):
            fluid_residuals(snaps, sgrid32)

    def test_manufactured_advection_second_order(self, sgrid32):
        # rho(t,x) = cos(xi x - t), b_0 = sin/xi-scaled so continuity is exact;
        # the residual is then pure time-differencing error, order dt^2
        shape = sgrid32.shape
        x = sgrid32.coords()[0]
        xi = sgrid32.xi_1d()[1]

        def make(dt):
            def dens(t):
                return np.cos(xi * x - t)

            def bfield(t):
                b = np.zeros((3,) + shape)
                b[0] = np.cos(xi * x - t) / xi   # div b = -d_t rho exactly
                return b

            snaps = [_snapshot(k * dt, sgrid32, dens, bfield,
                               lambda t: np.zeros((3,) + shape))
                     for k in range(5)]
            for s, k in zip(snaps, range(5)):
                s.macro.a_plus = dens(k * dt)
                s.macro.a_minus = dens(k * dt)
                s.macro.b = bfield(k * dt)
            return fluid_residuals(snaps, sgrid32).continuity

        r1, r2 = make(0.1), make(0.05)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_solver_history_residual_refines_with_dt(self):
        # residuals on actual solver output scale at the integrator order
        from vmlkit.evolve import RunConfig

        def run_res(dt):
            # cadence tied to the step so both the integrator error and the
            # history differencing error scale together at order dt^2
            cfg = RunConfig(n_x=16, n_v=8, dt=dt, t_end=0.64, preset="broadband",
                            collision_solver="direct", direct_max_nv=8,
                            report_every=2, monitor_every=0)
            sgrid, _ = cfg.grids()
            return fluid_residuals(fluid_history(cfg)[0], sgrid)

        r1 = run_res(0.08)
        r2 = run_res(0.04)
        # the charge law rides the fast Langmuir oscillation, so its residual
        # is integrator-dominated and refines at order ~2; the mass law is so
        # slow that its residual sits at the (dt-independent) quadrature
        # parity floor, below the integrator error
        ratio = r1.charge_continuity / r2.charge_continuity
        assert 2.2 <= ratio <= 6.5
        assert r1.continuity < 1e-5
        assert r2.continuity < 1e-5
        assert r1.b_equation is not None  # reported, not thresholded
