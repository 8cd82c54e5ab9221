import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import integrate
from scipy import linalg as sla
from scipy.special import erf

from vmlkit import landau, maxwell
from vmlkit.diagnostics import DiagContext, SpectralSnapshot
from vmlkit.evolve import PhaseState, RunConfig
from vmlkit.macro_micro import MacroProjector
from vmlkit.maxwell import EMField
from vmlkit.phase_grid import VelocityGrid

from conftest import null_basis


# closed-form Coulomb collision frequency of the unit Maxwellian:
# sigma = Hessian of psi(r) = E|v - Z|, parallel part psi'', transverse psi'/r
def sigma_par_exact(r):
    return 2.0 * (erf(r / math.sqrt(2)) / r ** 3
                  - math.sqrt(2 / math.pi) * math.exp(-r * r / 2) / r ** 2)


def sigma_perp_exact(r):
    return ((1 - 1 / r ** 2) * erf(r / math.sqrt(2)) / r
            + math.sqrt(2 / math.pi) * math.exp(-r * r / 2) / r ** 2)


SIGMA0 = (2.0 / 3.0) * math.sqrt(2.0 / math.pi)


class TestPhiKernel:
    """``phi_kernel`` is the kernel the sigma table and ``dense_K`` are built from."""

    def test_unit_vector_coulomb(self):
        m = landau.phi_kernel(1.0, 0.0, 0.0, -3.0)
        assert m.shape == (3, 3)
        assert np.allclose(m, np.diag([0.0, 1.0, 1.0]), atol=1e-15)

    def test_annihilates_argument(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((40, 3))
        m = landau.phi_kernel(*v.T, -2.7)
        assert np.abs(np.einsum("ijn,nj->ni", m, v)).max() < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((10, 3))
        for gamma in (-3.0, -2.5):
            a = landau.phi_kernel(*(2.0 * v).T, gamma)
            b = 2.0 ** (gamma + 2.0) * landau.phi_kernel(*v.T, gamma)
            assert np.allclose(a, b, rtol=1e-12)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError):
            landau.phi_kernel(0.0, 0.0, 0.0, -3.0)
        d = np.arange(-2, 3) * 0.5
        with pytest.raises(ValueError):
            landau.phi_kernel(d[:, None, None], d[None, :, None], d[None, None, :], -3.0)

    def test_psd(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((30, 3))
        ev = np.linalg.eigvalsh(np.moveaxis(landau.phi_kernel(*v.T, -3.0), -1, 0))
        assert ev.min() > -1e-13

    @pytest.mark.parametrize("n, gamma", [(8, -3.0), (9, -2.5)])
    def test_table_is_the_kernel_off_the_self_cell(self, n, gamma):
        # the difference table of dense_K: phi_kernel bit for bit at every
        # u != 0, and the isotropic ball average at u = 0
        h = 12.0 / n
        d = np.arange(-(n - 1), n) * h
        u = (d[:, None, None], d[None, :, None], d[None, None, :])
        table = landau._phi_regularized(*u, gamma, h)
        i0 = n - 1
        off = np.ones(table.shape[2:], dtype=bool)
        off[i0, i0, i0] = False
        points = [c[off] for c in np.broadcast_arrays(*u)]
        assert np.array_equal(table[:, :, off], landau.phi_kernel(*points, gamma))
        self_cell = table[:, :, i0, i0, i0]
        assert np.array_equal(self_cell, self_cell[0, 0] * np.eye(3))
        assert self_cell[0, 0] > 0.0


class TestCollisionTables:
    def test_coarse_grid_refused(self):
        with pytest.raises(ValueError):
            landau.build_collision_tables(VelocityGrid(6.0, 6), -3.0)
        with pytest.raises(ValueError):
            landau.build_collision_tables(VelocityGrid(6.0, 8), -1.5)

    def test_sigma_symmetric_and_psd(self, tables12):
        sig = np.moveaxis(tables12.sigma, (0, 1), (-2, -1)).reshape(-1, 3, 3)
        assert np.abs(sig - np.swapaxes(sig, -1, -2)).max() < 1e-14
        ev = np.linalg.eigvalsh(sig)
        assert ev.min() >= -1e-8 * ev.max()

    def test_sigma_isotropic_at_origin(self, tables12):
        i0 = tables12.n // 2
        s0 = tables12.sigma[:, :, i0, i0, i0]
        diag = np.diag(s0)
        off = s0 - np.diag(diag)
        assert np.allclose(diag, diag[0], rtol=1e-12)
        assert np.abs(off).max() < 1e-6 * diag[0]

    def test_sigma_origin_value_against_radial_oracle(self):
        # adaptive spherical quadrature of int |u|^{-1} (1 - u1^2/|u|^2) mu du
        val, _ = integrate.quad(
            lambda r: (2.0 / 3.0) * r * math.exp(-r * r / 2.0), 0.0, 12.0)
        oracle = val * 4.0 * math.pi * (2.0 * math.pi) ** -1.5
        assert oracle == pytest.approx(SIGMA0, rel=1e-10)
        grid = VelocityGrid(6.0, 24)
        tab = landau.build_collision_tables(grid, -3.0)
        i0 = 12
        assert tab.sigma[0, 0, i0, i0, i0] == pytest.approx(oracle, rel=0.02)

    def test_sigma_origin_refines(self, tables12):
        i12 = tables12.n // 2
        err12 = abs(tables12.sigma[0, 0, i12, i12, i12] - SIGMA0)
        grid = VelocityGrid(6.0, 24)
        tab24 = landau.build_collision_tables(grid, -3.0)
        err24 = abs(tab24.sigma[0, 0, 12, 12, 12] - SIGMA0)
        assert err24 < 0.6 * err12

    def test_parallel_transverse_profile_against_erf_oracle(self):
        grid = VelocityGrid(6.0, 24)
        tab = landau.build_collision_tables(grid, -3.0)
        i0 = 12
        ratios = []
        for v_query in (3.0, 4.0, 5.0):
            iv = int(round((v_query + 6.0) / grid.spacing))
            r = grid.nodes_1d[iv]
            par = tab.sigma[0, 0, iv, i0, i0]
            perp = tab.sigma[1, 1, iv, i0, i0]
            assert par == pytest.approx(sigma_par_exact(r), rel=5e-3)
            assert perp == pytest.approx(sigma_perp_exact(r), rel=5e-3)
            ratios.append(par / perp)
        # parallel ~ <v>^gamma decays faster than transverse ~ <v>^{gamma+2}
        assert ratios[0] > ratios[1] > ratios[2]
        for v_query, ratio in zip((3.0, 4.0, 5.0), ratios):
            expect = sigma_par_exact(v_query) / sigma_perp_exact(v_query)
            assert ratio == pytest.approx(expect, rel=2e-2)


class TestApplyQ:
    def test_mass_always_zero(self, tables8, vgrid8):
        rng = np.random.default_rng(3)
        mu_half = vgrid8.mu_half()
        for _ in range(5):
            F = rng.standard_normal(vgrid8.shape) * mu_half
            G = rng.standard_normal(vgrid8.shape) * mu_half
            q = landau.apply_Q(F, G, tables8)
            scale = float(np.abs(q).max()) * vgrid8.cell_volume * vgrid8.n_v ** 3
            assert abs(vgrid8.integrate(q)) < 1e-8 * max(scale, 1e-30)

    def test_maxwellian_fixed_point_small_and_refining(self):
        # the continuum bracket cancels pointwise; discretely the residual
        # sits at quadrature level and shrinks once past the pre-asymptotic
        # coarse grids
        vals = {}
        for n in (16, 32):
            grid = VelocityGrid(6.0, n)
            tab = landau.build_collision_tables(grid, -3.0)
            q = landau.apply_Q(grid.mu(), grid.mu(), tab)
            vals[n] = math.sqrt(grid.integrate(q ** 2))
        assert vals[16] < 0.01
        assert vals[32] < 0.6 * vals[16]

    def test_momentum_energy_moments_vanish_under_refinement(self):
        # the pairing identity Phi(u) u = 0 plus stencils exact on quadratics
        # make the self-collision momentum/energy moments vanish to round-off
        # at every resolution (stronger than the first-order convergence the
        # divergence form guarantees in general)
        for n in (8, 16):
            grid = VelocityGrid(6.0, n)
            tab = landau.build_collision_tables(grid, -3.0)
            v1, _, _ = grid.axes()
            vsq = grid.vsq()
            F = (1.0 + 0.5 * (v1 + 0 * vsq) + 0.1 * vsq) * grid.mu()
            q = landau.apply_Q(F, F, tab)
            scale = float(np.abs(q).max()) + 1e-30
            assert abs(grid.integrate((v1 + 0 * vsq) * q)) < 1e-12 * scale
            assert abs(grid.integrate(vsq * q)) < 1e-12 * scale

    def test_symmetrized_moments_exact(self, tables8, vgrid8):
        rng = np.random.default_rng(4)
        mu_half = vgrid8.mu_half()
        F = rng.standard_normal(vgrid8.shape) * mu_half
        G = rng.standard_normal(vgrid8.shape) * mu_half
        qs = landau.apply_Q(F, G, tables8) + landau.apply_Q(G, F, tables8)
        v1, _, _ = vgrid8.axes()
        vsq = vgrid8.vsq()
        scale = float(np.abs(qs).max()) + 1e-30
        assert abs(vgrid8.integrate(qs)) < 1e-10 * scale
        assert abs(vgrid8.integrate((v1 + 0 * vsq) * qs)) < 1e-10 * scale
        assert abs(vgrid8.integrate(vsq * qs)) < 1e-10 * scale


@pytest.fixture(params=["tables8", "tables9_soft"])
def dense_tables(request):
    return request.getfixturevalue(request.param)


class TestApplyL:
    def test_null_space_annihilated(self, tables12, vgrid12):
        for e in null_basis(vgrid12):
            ratio = landau.sigma_norm(landau.apply_L(tables12, e), tables12) \
                / landau.sigma_norm(e, tables12)
            assert ratio < 1e-10

    def test_self_adjoint_and_nonnegative(self, tables12):
        rng = np.random.default_rng(5)
        n = tables12.n
        for _ in range(20):
            f = rng.standard_normal((2, n, n, n))
            g = rng.standard_normal((2, n, n, n))
            lf = landau.apply_L(tables12, f)
            lg = landau.apply_L(tables12, g)
            s1 = landau.pair_inner(tables12, lf, g)
            s2 = landau.pair_inner(tables12, f, lg)
            scale = landau.sigma_norm(f, tables12) * landau.sigma_norm(g, tables12)
            assert abs(s1 - s2) <= 1e-8 * scale
            quad = landau.pair_inner(tables12, lf, f)
            assert quad >= -1e-8 * landau.sigma_norm(f, tables12) ** 2

    def test_dense_assembly_matches_matrix_free(self, dense_tables):
        dense = landau.dense_L(dense_tables)
        rng = np.random.default_rng(6)
        shape = (2,) + dense_tables.grid.shape
        f = rng.standard_normal(shape)
        mf = landau.apply_L(dense_tables, f)
        dv = (dense @ f.reshape(-1)).reshape(shape)
        assert np.abs(mf - dv).max() <= 1e-10 * np.abs(mf).max()

    @pytest.mark.parametrize("which", ["reps", "all"])
    def test_dense_rows_are_the_operators_on_unit_vectors(self, dense_tables, which):
        # A and K are symmetric, so row r of each is A e_r (K e_r): the
        # assembled rows against the matrix-free operators on the unit vectors
        n = dense_tables.n
        rows = landau.PermutationBlocks(n).reps if which == "reps" else np.arange(n ** 3)
        unit = np.zeros((len(rows), n ** 3))
        unit[np.arange(len(rows)), rows] = 1.0
        unit = unit.reshape((len(rows),) + dense_tables.grid.shape)
        for dense, apply in ((landau.dense_A, landau.apply_A),
                             (landau.dense_K, landau.apply_K)):
            got = dense(dense_tables, rows=rows)
            ref = apply(dense_tables, unit).reshape(len(rows), n ** 3)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_dense_null_space_dimension(self, tables8):
        dense = landau.dense_L(tables8)
        ev = np.linalg.eigvalsh(dense)
        assert ev[0] > -1e-10 * ev[-1]
        assert int(np.sum(np.abs(ev) < 1e-8 * ev[-1])) == 6

    def test_dense_guard(self, tables12):
        with pytest.raises(ValueError):
            landau.dense_L(tables12, limit=8)


class TestApplyGamma:
    def test_zero_second_slot(self, tables8):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((2, 8, 8, 8))
        out = landau.apply_Gamma(tables8, f, np.zeros_like(f))
        assert np.abs(out).max() == 0.0

    def test_exact_bilinearity(self, tables8):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((2, 8, 8, 8))
        g = rng.standard_normal((2, 8, 8, 8))
        h = rng.standard_normal((2, 8, 8, 8))
        a = landau.apply_Gamma(tables8, 2.0 * f + h, g)
        b = 2.0 * landau.apply_Gamma(tables8, f, g) + landau.apply_Gamma(tables8, h, g)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_collision_invariants(self, tables8, vgrid8):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((2, 8, 8, 8))
        g = rng.standard_normal((2, 8, 8, 8))
        gam = landau.apply_Gamma(tables8, f, g)
        gff = landau.apply_Gamma(tables8, f, f)
        scale = float(np.abs(gam).max()) + 1e-30
        basis = null_basis(vgrid8)
        # species mass invariants hold for any argument pair
        for e in basis[:2]:
            assert abs(landau.pair_inner(tables8, gam, e)) < 1e-8 * scale
        # momentum and energy invariants hold for the quadratic form entering
        # the dynamics
        for e in basis[2:]:
            assert abs(landau.pair_inner(tables8, gff, e)) < 1e-8 * scale

    def test_structure_matches_linearized_operator_under_refinement(self):
        # L differentiates the Maxwellian analytically inside its stencils;
        # the Gamma composition differentiates the grid Maxwellian, so the
        # identity L f = -Gamma(M, f) - Gamma(f, M) holds at second order
        errs = {}
        for n in (16, 24):
            grid = VelocityGrid(6.0, n)
            tab = landau.build_collision_tables(grid, -3.0)
            mu_half = grid.mu_half()
            v1, v2, v3 = grid.axes()
            vsq = grid.vsq()
            f = np.stack([(1 + v1 + 0.3 * v2 * v3) * mu_half,
                          (1 - 0.5 * v3 + 0.2 * vsq) * mu_half])
            m = np.stack([mu_half, mu_half])
            lhs = landau.apply_L(tab, f)
            rhs = -landau.apply_Gamma(tab, m, f) - landau.apply_Gamma(tab, f, m)
            errs[n] = landau.sigma_norm(lhs - rhs, tab) / landau.sigma_norm(lhs, tab)
        assert errs[24] < errs[16] / 1.7  # ~ (16/24)^2 = 0.44


class TestPrunedTransforms:
    """The pruned transform pair against the transforms of the padded field."""

    @pytest.mark.parametrize("n", [8, 20])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_matches_padded_rfftn_and_cropped_irfftn(self, n, lead):
        p = 2 * n
        axes = (-3, -2, -1)
        rng = np.random.default_rng(35)
        field = rng.standard_normal(lead + (n, n, n))
        padded = np.zeros(lead + (p, p, p))
        padded[..., :n, :n, :n] = field
        ref = sfft.rfftn(padded, axes=axes)
        spec = landau._forward(field, p)
        assert spec.shape == ref.shape
        assert np.abs(spec - ref).max() <= 2e-15 * np.abs(ref).max()
        # the spectrum of a real field that fills the box, as a kernel
        # product's does
        full = sfft.rfftn(rng.standard_normal(lead + (p, p, p)), axes=axes)
        ref = sfft.irfftn(full, s=(p, p, p), axes=axes)[..., :n, :n, :n]
        back = landau._inverse(full.copy(), n)
        assert back.shape == ref.shape
        assert np.abs(back - ref).max() <= 2e-15 * np.abs(ref).max()


class TestConvolutionPool:
    """The per-point jobs of the matrix-free operators against one worker."""

    @staticmethod
    def _ops(tables, lead):
        rng = np.random.default_rng(31)
        shape = lead + tables.grid.shape
        w = [rng.standard_normal(shape) for _ in range(3)]
        f = rng.standard_normal((2,) + shape)
        g = rng.standard_normal((2,) + shape)
        e, b = 0.1 * rng.standard_normal((2, 3) + lead)
        return {
            "K": landau.apply_K(tables, w[1]),
            "L": landau.apply_L(tables, f),
            "Gamma": landau.apply_Gamma(tables, f, g),
            "Q": landau.apply_Q(w[1], w[2], tables),
            "force": maxwell.nonlinear_terms(tables, f, e, b),
        }

    @pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
    def test_bit_identical_to_one_worker(self, tables8, lead, monkeypatch):
        monkeypatch.setattr(landau, "_WORKERS", 1)
        serial = self._ops(tables8, lead)
        monkeypatch.setattr(landau, "_WORKERS", 2)
        pooled = self._ops(tables8, lead)
        for name, value in serial.items():
            assert np.array_equal(value, pooled[name]), name

    @staticmethod
    def _spectrum_bytes(tables):
        p = tables.pad
        return 16 * p * p * (p // 2 + 1)

    @staticmethod
    def _record_calls(monkeypatch, names):
        """Wrap the named kernels; each call records its point count and thread."""
        calls = []
        for name in names:
            kernel = getattr(landau, name)

            def counted(tables, w, out, kernel=kernel, name=name):
                points = math.prod(w[0].shape[:-3])
                calls.append((name, points, threading.current_thread().name))
                kernel(tables, w, out)

            monkeypatch.setattr(landau, name, counted)
        return calls

    @staticmethod
    def _record_rounds(monkeypatch):
        """Wrap ``_on_points``: one list of (point, thread) per round of jobs."""
        rounds = []
        on_points = landau._on_points

        def recorded(job, m):
            jobs = []
            rounds.append(jobs)

            def traced(a):
                jobs.append((a, threading.current_thread().name))
                job(a)

            on_points(traced, m)

        monkeypatch.setattr(landau, "_on_points", recorded)
        return rounds

    @staticmethod
    def _whole_batch_K(tables, h, contracted):
        """K h with each stencil and the contracted convolution one call over all points."""
        m = tables.mu_half
        w = [m * landau._apply_axis(tables.dmat, h, j - 3) for j in range(3)]
        s = np.empty((3,) + h.shape)
        contracted(tables, w, s)
        out = np.zeros(h.shape)
        for i in range(3):
            out -= landau._apply_axis(tables.dmat.T, m * s[i], i - 3)
        return out

    @pytest.mark.parametrize("lead", [(16,), (5,), (2, 3)])
    def test_one_point_per_job_covers_every_point(self, tables8, monkeypatch, lead):
        # K and Gamma each run one round of jobs, one per x point, on the
        # pool: every point in exactly one job, each job convolving its own
        # point only.  K's jobs give what one call of each stencil and of
        # the contracted convolution over all points gives
        monkeypatch.setattr(landau, "_WORKERS", 2)
        contracted = landau._contracted_kernel
        rounds = self._record_rounds(monkeypatch)
        calls = self._record_calls(monkeypatch, ("_contracted_kernel", "_bilinear_kernel"))
        rng = np.random.default_rng(32)
        h = rng.standard_normal(lead + tables8.grid.shape)
        f = rng.standard_normal((2,) + h.shape)
        m = math.prod(lead)
        for op, kernel in ((lambda: landau.apply_K(tables8, h), "_contracted_kernel"),
                           (lambda: landau.apply_Gamma(tables8, f, f), "_bilinear_kernel")):
            rounds.clear()
            calls.clear()
            op()
            assert len(rounds) == 1
            assert sorted(a for a, _ in rounds[0]) == list(range(m))
            assert all(thread.startswith("vmlkit-conv") for _, thread in rounds[0])
            # the fused kernel runs the contracted one inside it
            jobs = [c for c in calls if c[0] == kernel]
            assert len(jobs) == m
            for _, points, thread in calls:
                assert points == 1 and thread.startswith("vmlkit-conv")
        assert np.array_equal(landau.apply_K(tables8, h),
                              self._whole_batch_K(tables8, h, contracted))

    def test_bilinear_term_is_one_pool_round(self, tables8, monkeypatch):
        # apply_Gamma and apply_Q each run both of their convolutions,
        # Phi^ij * g and sum_j Phi^ij * dg_j, in a single round of the pool:
        # the fused kernel once per x point, whose output holds both
        # convolutions as run on their own.  The jobs' inputs and outputs,
        # stacked by point, are those of one call over the whole batch
        # [G, *dG], its stencils one call over all points too
        monkeypatch.setattr(landau, "_WORKERS", 2)
        rounds = self._record_rounds(monkeypatch)
        fused = landau._bilinear_kernel
        outputs = []

        def kept(tables, w, out):
            fused(tables, w, out)
            outputs.append(([x.copy() for x in w], out.copy()))

        monkeypatch.setattr(landau, "_bilinear_kernel", kept)
        rng = np.random.default_rng(36)
        shape = (5,) + tables8.grid.shape
        f, g = rng.standard_normal((2, 2) + shape)
        F, G = rng.standard_normal((2,) + shape)
        m = tables8.mu_half
        sg = g[0] + g[1]
        batches = {
            "Gamma": [m * sg] + [m * landau._apply_axis(tables8.dtmat, sg, j - 3)
                                 for j in range(3)],
            "Q": [G] + [landau._apply_axis(tables8.fd, G, j - 3) for j in range(3)],
        }
        for name, op in (("Gamma", lambda: landau.apply_Gamma(tables8, f, g)),
                         ("Q", lambda: landau.apply_Q(F, G, tables8))):
            rounds.clear()
            outputs.clear()
            op()
            assert len(rounds) == 1 and len(rounds[0]) == 5
            assert len(outputs) == 5
            for w, out in outputs:
                assert w[0].shape == tables8.grid.shape
                components = np.empty((3, 3) + w[0].shape)
                landau._components_kernel(tables8, w[:1], components)
                contracted = np.empty((3,) + w[0].shape)
                landau._contracted_kernel(tables8, w[1:], contracted)
                assert np.array_equal(out[:9].reshape(components.shape), components)
                assert np.array_equal(out[9:], contracted)
            batch = batches[name]
            whole = np.empty((12,) + shape)
            fused(tables8, batch, whole)
            # each job's point, by its background: every point exactly once
            points = [[a for a in range(5) if np.array_equal(w[0], batch[0][a])]
                      for w, _ in outputs]
            assert [len(p) for p in points] == [1] * 5, name
            assert sorted(p for p, in points) == list(range(5))
            for (w, out), (a,) in zip(outputs, points):
                for k in range(4):
                    assert np.array_equal(w[k], batch[k][a]), (name, k)
                assert np.array_equal(out, whole[:, a]), name

    def test_one_point_is_one_call_in_the_caller(self, tables8, monkeypatch):
        # a single field (lead ()) and a batch of one point run as one call
        # in the caller, as does the sigma table of the collision tables
        monkeypatch.setattr(landau, "_WORKERS", 2)
        calls = self._record_calls(monkeypatch, ("_contracted_kernel", "_components_kernel"))
        rng = np.random.default_rng(33)
        w = rng.standard_normal((1,) + tables8.grid.shape)
        caller = threading.current_thread().name
        for field in (w[0], w):
            calls.clear()
            landau.apply_K(tables8, field)
            assert calls == [("_contracted_kernel", 1, caller)]
        calls.clear()
        landau.build_collision_tables(tables8.grid, tables8.gamma)
        assert calls == [("_components_kernel", 1, caller)]

    def test_memory_bounded_by_jobs_in_flight(self, monkeypatch):
        # 16 points at n_v = 10 on two workers, one point per job.  The pruned
        # transforms pad no field: a job's large buffers are half spectra of
        # the padded box, S = 16 p^2 (p/2 + 1) bytes each.  A contracted
        # convolution holds at most five at once: three input spectra, their
        # running sum and one product.  While it transforms its third input
        # it holds fewer (two spectra, the third and its n^2 rfft lines of
        # S/4), and the inverse runs in place on the sum, adding only the
        # n^2 output lines (8 n^2 p bytes).  tracemalloc reads about 5.4 S a
        # job, under the allowance of four padded-field-and-spectrum pairs,
        # 4 (8 p^3 + S), about 7.6 S.  A K job adds its point's fields (the
        # three weighted gradients, the three convolutions, a stencil
        # product), a few n^3 doubles.  At most two jobs are in flight, so
        # apply_K's peak stays below three input and three output fields
        # plus 2 x 4 pairs, 1.84 MB: it holds one field in and one out,
        # read 0.76-0.88 MB (1.63 MB when the window starts the pool)
        vgrid10 = VelocityGrid(v_max=6.0, n_v=10)
        tables = landau.build_collision_tables(vgrid10, -3.0)
        monkeypatch.setattr(landau, "_WORKERS", 2)
        p = tables.pad
        point = 8 * p ** 3 + self._spectrum_bytes(tables)
        field = 16 * 10 ** 3 * 8
        bound = 2 * 3 * field + 2 * 4 * point

        def peak(op, count=1):
            # the generator is made before the window, so that a first
            # import of numpy.random is not counted; the inputs it draws are
            rng = np.random.default_rng(34)
            tracemalloc.start()
            try:
                w = [rng.standard_normal((16,) + vgrid10.shape) for _ in range(count)]
                op(w)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda w: landau.apply_K(tables, w[0])) < bound
        # a Gamma job runs the components convolution (one input spectrum,
        # one product inverted in place: about 2 S) and then the contracted
        # one, so it holds no more spectra than a K job, plus its point's 12
        # convolutions and stencil products.  Its bound is the same 2 x 4
        # pairs over 4 + 12 fields, 3.12 MB: the four drawn fields, f and g
        # stacked from them and the pair out read 2.11-2.22 MB, where Gamma
        # on whole-batch convolutions and stencils read 4.23 MB
        fused = (4 + 12) * field + 2 * 4 * point
        assert peak(lambda w: landau.apply_Gamma(tables, np.stack(w[:2]), np.stack(w[2:])),
                    4) < fused
        # the bound is one the whole-batch layout breaks: a contracted
        # convolution of 8 points in one call alone reads 3.4 MB
        one_chunk = peak(lambda w: landau._contracted_kernel(
            tables, [wj[:8] for wj in w], np.empty((3, 8) + vgrid10.shape)), 3)
        assert one_chunk > 1.5 * bound

    def test_workers_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
            assert landau._usable_cpus() == 1
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert landau._usable_cpus() == 3


class TestSigmaNorm:
    def test_zero_field(self, tables8):
        assert landau.sigma_norm(np.zeros(tables8.grid.shape), tables8) == 0.0

    def test_radial_field_has_no_transverse_gradient(self, tables12, vgrid12):
        # for radial f the gradient is parallel to v; compare against the
        # same norm computed with the transverse weight forced to zero
        vsq = vgrid12.vsq()
        f = np.exp(-0.3 * vsq)
        grad_scale = 0.6
        v1, v2, v3 = vgrid12.axes()
        grad = [-grad_scale * (v + 0 * vsq) * f for v in (v1, v2, v3)]
        full = landau.sigma_norm_sq(f, tables12, grad=grad)
        par_w = tables12.bracket_par ** 2
        perp_w = tables12.bracket_perp ** 2
        gpar_sq = grad_scale ** 2 * vsq * f ** 2
        expect = vgrid12.grid.integrate(perp_w * f ** 2 + par_w * gpar_sq) \
            if hasattr(vgrid12, "grid") else vgrid12.integrate(
                perp_w * f ** 2 + par_w * gpar_sq)
        assert full == pytest.approx(expect, rel=1e-10)

    def test_maxwellian_sqrt_value_against_radial_quadrature(self):
        # |mu^(1/2)|_sigma^2 = int <v>^{gamma+2} mu + int <v>^gamma |v|^2/4 mu
        gamma = -3.0
        c = (2.0 * math.pi) ** -1.5

        def integrand(r):
            mu = c * math.exp(-r * r / 2.0)
            w_perp = (1.0 + r * r) ** (0.5 * (gamma + 2.0))
            w_par = (1.0 + r * r) ** (0.5 * gamma)
            return 4.0 * math.pi * r * r * mu * (w_perp + w_par * r * r / 4.0)

        oracle, _ = integrate.quad(integrand, 0.0, 14.0, limit=200)
        grid = VelocityGrid(6.0, 24)
        tab = landau.build_collision_tables(grid, gamma)
        mu_half = grid.mu_half()
        v1, v2, v3 = grid.axes()
        grad = [-0.5 * (v + 0 * mu_half) * mu_half for v in (v1, v2, v3)]
        val = float(landau.sigma_norm_sq(mu_half, tab, grad=grad))
        assert val == pytest.approx(oracle, rel=1e-4)

    def test_weighted_norm_uses_weight(self, tables8, vgrid8, proj8):
        # the weighted sigma norms are the snapshot's per-pair integrals of
        # the sigma density against w_{ell-|beta|}(t, v)^2
        cfg = RunConfig(n_x=4, n_v=8, q=0.05)
        sg = cfg.grids()[0]
        rng = np.random.default_rng(10)
        f = rng.standard_normal((2,) + sg.shape + vgrid8.shape) * vgrid8.mu_half()
        st = PhaseState(f, EMField.zero(sg), 0.5)
        ctx = DiagContext(sg, vgrid8, tables8, proj8, cfg)
        snap = SpectralSnapshot(ctx, st, report=True)
        unweighted = snap.vol * np.sum(snap.dens["sigma"], axis=(1, 2, 3))
        weighted = snap.weighted(ctx, 1.0, st.t)["sigma"]
        # w >= 1 for ell - |beta| >= 0 at soft potentials, > 1 off v = 0
        assert np.all(weighted[snap.b_ord <= 1] > unweighted[snap.b_ord <= 1])
        # and w = 1 exactly for q = 0 at ell = |beta| = 0
        flat = DiagContext(sg, vgrid8, tables8, proj8, dataclasses.replace(cfg, q=0.0))
        level = snap.b_ord == 0
        assert np.array_equal(snap.weighted(flat, 0.0, st.t)["sigma"][level],
                              unweighted[level])

    def test_positive_definite_on_grid(self, tables8):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(tables8.grid.shape)
        assert landau.sigma_norm(f, tables8) > 0.0

    def test_density_identity_matches_vector_split(self, tables8, vgrid8):
        # b_perp^2 (|h|^2 + |g|^2 - |g.u|^2) against the split
        # g_perp = g - (g.v_hat) v_hat, on complex per-mode fields
        rng = np.random.default_rng(12)
        shape = (2, 3) + vgrid8.shape
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grad = [landau._apply_axis(tables8.fd, h, j - 3) for j in range(3)]
        vn = vgrid8.vnorm()
        vhat = [np.divide(v, vn, out=np.zeros_like(vn), where=vn > 0.0)
                for v in vgrid8.axes()]
        gpar = sum(g * u for g, u in zip(grad, vhat))
        gperp_sq = sum(np.abs(g - gpar * u) ** 2 for g, u in zip(grad, vhat))
        ref = (tables8.bracket_perp ** 2 * (np.abs(h) ** 2 + gperp_sq)
               + tables8.bracket_par ** 2 * np.abs(gpar) ** 2)
        # the bracket |h|^2 + |g|^2 - |g.u|^2 with u = v/<v>
        vpar = [v / vgrid8.bracket() for v in vgrid8.axes()]
        assert all(np.abs(u - w).max() <= 1e-15 for u, w in zip(tables8.vpar, vpar))
        sq = landau._abs2(h) + sum(landau._abs2(g) for g in grad)
        sq -= landau._abs2(sum(g * u for g, u in zip(grad, tables8.vpar)))
        got = landau.sigma_density(tables8, sq)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # and the norm integrates that density
        assert np.array_equal(landau.sigma_norm_sq(h, tables8), vgrid8.integrate(got))


class TestCoercivity:
    def test_gap_positive_and_stable(self):
        reports = {}
        for n in (16, 24):
            grid = VelocityGrid(6.0, n)
            tab = landau.build_collision_tables(grid, -3.0)
            proj = MacroProjector(grid)
            reports[n] = landau.coercivity_gap(tab, proj.micro_part,
                                               n_samples=100, seed=2202)
        assert reports[16].min_ratio > 0.0
        assert reports[24].min_ratio > 0.0
        drift = abs(reports[16].min_ratio - reports[24].min_ratio) \
            / reports[24].min_ratio
        assert drift <= 0.2

    # The exact sigma-coercivity constant min <L f, f> / |f|_sigma^2 over the
    # micro subspace at n_v = 8, v_max = 6, gamma = -3: the lowest eigenvalue
    # of dense_L against the sigma-norm Gram matrix, both restricted to the
    # L2-orthogonal complement of the six collision invariants, times the
    # cell volume.  Recorded from this test's computation with numpy 2.4.6
    # and scipy 1.17.1; it matches the 1.09e-5 of the first eigenstudy.
    # Soft potentials have no L2 gap and the central stencil nearly
    # annihilates odd-even modes, so it sits far below the sampled gap
    # (about 1.6) of smooth resolved functions.
    EXACT_SIGMA_COERCIVITY_NV8 = 1.0939716697313096e-05

    def test_exact_constant_pinned_and_below_the_sampled_gap(self, tables8, proj8):
        grid = tables8.grid
        n3 = grid.n_v ** 3
        eye = np.eye(n3).reshape((n3,) + grid.shape)
        # row k of d[j] is D_j e_k, so each d[j] is the stencil matrix transposed
        d = [landau._apply_axis(tables8.fd, eye, j - 3).reshape(n3, n3).T
             for j in range(3)]
        perp2 = (tables8.bracket_perp ** 2).ravel()
        gap2 = (tables8.bracket_par ** 2).ravel() - perp2
        par = sum(u.ravel()[:, None] * dj for u, dj in zip(tables8.vhat, d))
        one = (np.diag(perp2) + sum(dj.T @ (perp2[:, None] * dj) for dj in d)
               + par.T @ (gap2[:, None] * par)) * grid.cell_volume
        gram = np.kron(np.eye(2), one)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((2,) + grid.shape)
        assert f.ravel() @ gram @ f.ravel() == pytest.approx(
            float(np.sum(landau.sigma_norm_sq(f, tables8))), rel=1e-12)
        invariants = proj8.assemble(np.eye(6)).transpose(1, 0, 2, 3, 4).reshape(6, -1)
        q = sla.null_space(invariants)
        low = sla.eigh(q.T @ landau.dense_L(tables8) @ q, q.T @ gram @ q,
                       eigvals_only=True, subset_by_index=[0, 0])[0]
        exact = low * grid.cell_volume
        assert exact == pytest.approx(self.EXACT_SIGMA_COERCIVITY_NV8, rel=1e-6)
        sampled = landau.coercivity_gap(tables8, proj8.micro_part)
        assert sampled.ratios.min() >= exact

    def test_pure_macro_rejected(self, tables8, proj8):
        def fake_projector(f):
            return np.zeros_like(f)

        with pytest.raises(ValueError):
            landau.coercivity_gap(tables8, fake_projector, n_samples=2)
