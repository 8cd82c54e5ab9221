import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vmlkit import diagnostics as diag
from vmlkit import evolve, landau, maxwell
from vmlkit.evolve import (
    NanAbort,
    PhaseState,
    RunConfig,
    Stepper,
    config_from_mapping,
    initial_state,
    load_checkpoint,
    save_checkpoint,
)
from vmlkit.macro_micro import MacroProjector

from oracles import field_source_on_f, rhs_full

SMALL = dict(n_x=16, n_v=8, collision_solver="direct", direct_max_nv=8,
             report_every=10 ** 9, monitor_every=0)


# how often each of the trivial, sign and standard blocks of the direct
# solver occurs in the operator: the standard one serves both rows of its
# 2-d representation
BLOCK_MULTIPLICITY = (1, 1, 2)


def small_cfg(**kw):
    base = dict(SMALL)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def setup8():
    cfg = small_cfg(dt=0.05, t_end=0.2)
    sg, vg = cfg.grids()
    tab = landau.build_collision_tables(vg, cfg.gamma)
    return cfg, sg, vg, tab


class TestRunConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_cfg(mode="implicit").validate()
        with pytest.raises(ValueError):
            small_cfg(preset="bang").validate()
        with pytest.raises(ValueError):
            small_cfg(dt=-0.1).validate()
        with pytest.raises(ValueError):
            small_cfg(s_exp=0.1).validate()
        with pytest.raises(ValueError):
            small_cfg(k_max=3, n0=3).validate()
        with pytest.raises(ValueError):
            small_cfg(theta=0.4, s_exp=0.5).validate()  # theta bracket

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=1.5).validate()

    @pytest.mark.parametrize("seed", [0, 7, 11, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                      2 ** 160 + 9])
    def test_initial_data_stream_is_default_rng_uniform(self, seed):
        # draw for draw, alternating the two ranges initial_state draws from;
        # the seeds past 2^32 take SeedSequence's multi-word entropy path, and
        # the one past 2^128 mixes words beyond the pool's four
        ours, ref = evolve._PCG64(seed), np.random.default_rng(seed)
        for i in range(300):
            low, high = ((0.5, 1.0), (0.0, 2.0 * math.pi))[i % 2]
            assert ours.uniform(low, high) == ref.uniform(low, high), i

    def test_from_mapping_types_and_unknown_keys(self):
        cfg = config_from_mapping({"n_x": "16", "dt": "0.1", "mode": "nonlinear",
                                   "active_axes": "0", "n_v": "8"})
        assert cfg.n_x == 16 and cfg.dt == 0.1 and cfg.mode == "nonlinear"
        with pytest.raises(KeyError):
            config_from_mapping({"n_q": "3"})


class TestTransport:
    def test_free_transport_is_exact_phase_shift(self, setup8):
        cfg, sg, vg, tab = setup8
        stepper = Stepper(cfg, sg, vg, tab)
        st = initial_state(cfg, sg, vg)
        spec = stepper.transport_half(stepper.transport_half(sg.forward_half(st.f, (1,))))
        out = sg.inverse_half(spec, (1,))
        full = sg.forward(st.f, (1,))
        xi = sg.xi_1d().reshape(1, -1, 1, 1, 1)
        v1 = vg.axes()[0].reshape(1, 1, -1, 1, 1)
        exact = sg.inverse(full * np.exp(-1j * xi * v1 * cfg.dt), (1,)).real
        assert np.abs(out - exact).max() < 1e-10 * np.abs(st.f).max()

    def test_transport_preserves_norm(self):
        # two active axes, even n_x: Nyquist modes on both axes, and on the
        # last (halved) axis as well as on the first
        cfg = small_cfg(n_x=6, active_axes=(0, 2), box_length=2.0 * math.pi)
        sg, vg = cfg.grids()
        stepper = Stepper(cfg, sg, vg, landau.build_collision_tables(vg, cfg.gamma))
        x_axes = stepper.x_axes

        def transported(f):
            return sg.inverse_half(stepper.transport_half(sg.forward_half(f, x_axes)),
                                   x_axes)

        rng = np.random.default_rng(0)
        g = rng.standard_normal((2,) + sg.shape + vg.shape)
        # the cosine Nyquist phase can only lose
        assert float(np.sum(transported(g) ** 2)) < float(np.sum(g ** 2))
        # without Nyquist content the phase shift is exactly unitary
        spec = sg.forward(g, x_axes)
        spec[:, sg.n_x // 2] = 0.0
        spec[:, :, sg.n_x // 2] = 0.0
        f = sg.inverse(spec, x_axes).real
        assert float(np.sum(transported(f) ** 2)) == pytest.approx(
            float(np.sum(f ** 2)), rel=1e-12)


def physical_strang_step(stepper: Stepper, state: PhaseState) -> PhaseState:
    """One Strang step composed in physical space from the public pieces.

    Transport is a full-spectrum phase shift (the cosine on every Nyquist
    mode) and the real part of its inverse; the field/force stage reads
    physical E and B; the collision substep is ``CollisionStepper.advance``
    on physical f.
    """
    cfg, sg, vg = stepper.config, stepper.sgrid, stepper.vgrid
    x_axes, tau = stepper.x_axes, 0.5 * cfg.dt
    v = vg.axes()

    def transport(f):
        spec = sg.forward(f, x_axes)
        for i, axis in enumerate(sg.active_axes):
            sh = [1] * f.ndim
            sh[1 + i] = sg.n_x
            arg = tau * sg.xi_1d().reshape(sh) * v[axis]
            nyq = (2 * sg.mode_numbers() == -sg.n_x).reshape(sh)
            spec = spec * np.where(nyq, np.cos(arg), np.exp(-1j * arg))
        return sg.inverse(spec, x_axes).real

    def rhs(f, e, b):
        e_phys, b_phys = sg.inverse(e).real, sg.inverse(b).real
        df = field_source_on_f(vg, e_phys)
        if cfg.mode == "nonlinear":
            df = df + maxwell.nonlinear_terms(stepper.tables, f, e_phys, b_phys)
        j_spec = sg.forward(maxwell.current_density(vg, f))
        return (df,) + maxwell.field_rhs(sg, maxwell.EMField(e, b), j_spec)

    def field_force(f, e, b):
        df, de, db = rhs(f, e, b)
        df, de, db = rhs(f + 0.5 * tau * df, e + 0.5 * tau * de, b + 0.5 * tau * db)
        return f + tau * df, e + tau * de, b + tau * db

    f = transport(state.f)
    f, e, b = field_force(f, state.em.e_spec, state.em.b_spec)
    f = stepper.collision.advance(f)
    f, e, b = field_force(f, e, b)
    return PhaseState(transport(f), maxwell.EMField(e, b), state.t + cfg.dt)


class TestHalfSpectrumStep:
    @pytest.mark.parametrize("grid", [dict(n_x=6), dict(n_x=7),
                                      dict(n_x=4, active_axes=(0, 2))],
                             ids=["even", "odd", "two_axes"])
    @pytest.mark.parametrize("mode", ["linearized", "nonlinear"])
    @pytest.mark.parametrize("solver", ["direct", "cg"])
    def test_step_matches_physical_strang(self, grid, mode, solver):
        # the step on the rfft half spectrum is the physical-space Strang
        # step, with Nyquist content on every axis and E, B of any phase
        cfg = small_cfg(box_length=2.0 * math.pi, mode=mode, collision_solver=solver,
                        cg_tol=1e-14, dt=0.05, **grid)
        sg, vg = cfg.grids()
        stepper = Stepper(cfg, sg, vg, landau.build_collision_tables(vg, cfg.gamma))
        rng = np.random.default_rng(11)
        f = 0.1 * rng.standard_normal((2,) + sg.shape + vg.shape) * vg.mu_half()
        e, b = (sg.forward(0.01 * rng.standard_normal((3,) + sg.shape)) for _ in range(2))
        state = PhaseState(f, maxwell.EMField(e, b), 0.0)
        got = stepper.step(state)
        ref = physical_strang_step(stepper, state)
        assert np.abs(got.f - ref.f).max() <= 1e-13 * np.abs(ref.f).max()
        # E and B as increments over the step, so that the current's share of
        # the E update is not lost next to E itself
        for a, r, start in ((got.em.e_spec, ref.em.e_spec, e),
                            (got.em.b_spec, ref.em.b_spec, b)):
            assert np.abs(a - r).max() <= 1e-13 * np.abs(r - start).max()
        assert got.t == ref.t

    def test_linearized_direct_step_transforms_f_once_each_way(self, setup8, monkeypatch):
        # the currents and the midpoint's source current reach E's full
        # spectrum through SpatialGrid.full_spectrum, with no transform
        cfg, sg, vg, tab = setup8
        stepper = Stepper(cfg, sg, vg, tab)
        state = initial_state(cfg, sg, vg)
        calls = []
        for name in ("forward", "inverse", "forward_half", "inverse_half"):
            original = getattr(type(sg), name)

            def counted(self, *args, _name=name, _original=original, **kw):
                calls.append(_name)
                return _original(self, *args, **kw)

            monkeypatch.setattr(type(sg), name, counted)
        stepper.step(state)
        assert sorted(calls) == ["forward_half", "inverse_half"]

    @pytest.mark.parametrize("mode, solver", [("linearized", "direct"),
                                              ("nonlinear", "direct"),
                                              ("linearized", "cg")])
    def test_step_leaves_its_input_state_untouched(self, mode, solver):
        # the stages work in place on the step's own spectrum and kept
        # arrays; the last good state of an abort, the recorded state and a
        # resume all read the input after the step
        cfg = small_cfg(n_x=8, mode=mode, collision_solver=solver, dt=0.05)
        sg, vg = cfg.grids()
        stepper = Stepper(cfg, sg, vg, landau.build_collision_tables(vg, cfg.gamma))
        rng = np.random.default_rng(3)
        f = 0.1 * rng.standard_normal((2,) + sg.shape + vg.shape) * vg.mu_half()
        e, b = (sg.forward(0.01 * rng.standard_normal((3,) + sg.shape)) for _ in range(2))
        state = PhaseState(f, maxwell.EMField(e, b), 0.25)
        before = state.copy()
        for _ in range(2):
            stepper.step(state)
            assert np.array_equal(state.f, before.f)
            assert np.array_equal(state.em.e_spec, before.em.e_spec)
            assert np.array_equal(state.em.b_spec, before.em.b_spec)
            assert state.t == before.t

    @pytest.mark.parametrize("n_x, n_v", [(16, 8), (64, 10)])
    def test_direct_step_traced_memory(self, n_x, n_v):
        # after the first step, a linearized direct step allocates the
        # forward transform's spectrum and the new f, and nothing else that
        # scales with the grid: 6.5 and 6.0 f-sized arrays before its
        # stages worked in place, 2.4 and 2.0 after
        cfg = small_cfg(n_x=n_x, n_v=n_v, direct_max_nv=n_v, dt=0.1)
        sg, vg = cfg.grids()
        stepper = Stepper(cfg, sg, vg, landau.build_collision_tables(vg, cfg.gamma))
        state = stepper.step(initial_state(cfg, sg, vg))
        tracemalloc.start()
        try:
            stepper.step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * state.f.nbytes


    def test_nonlinear_cg_step_traced_memory(self, monkeypatch):
        # after the first step, a nonlinear CG step holds f-sized arrays
        # (the state, its half spectrum, the CG's vectors, the operators'
        # outputs) and the jobs in flight, each at most four padded boxes
        # of the convolutions (``test_memory_bounded_by_jobs_in_flight``).
        # With whole-batch Gamma, Lorentz force and K intermediates and an
        # allocating CG the step read 10.2-10.4 f beyond two jobs' boxes;
        # with the per-point jobs and the in-place CG it reads 3.2-3.8 f
        monkeypatch.setattr(landau, "_WORKERS", 2)
        cfg = small_cfg(n_x=8, n_v=12, mode="nonlinear", collision_solver="cg", dt=0.05)
        sg, vg = cfg.grids()
        tables = landau.build_collision_tables(vg, cfg.gamma)
        stepper = Stepper(cfg, sg, vg, tables)
        state = stepper.step(initial_state(cfg, sg, vg))
        p = tables.pad
        box = 8 * p ** 3 + 16 * p * p * (p // 2 + 1)
        tracemalloc.start()
        try:
            stepper.step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * state.f.nbytes + 2 * 4 * box


class TestRhsFull:
    def test_null_space_state_reduces_to_transport(self, setup8):
        cfg, sg, vg, tab = setup8
        mu_half = vg.mu_half()
        rng = np.random.default_rng(1)
        gx = rng.standard_normal(sg.shape)
        f = np.zeros((2,) + sg.shape + vg.shape)
        f[0] = gx[:, None, None, None] * mu_half
        f[1] = f[0]
        state = PhaseState(f=f, em=maxwell.EMField.zero(sg), t=0.0)
        df, de, db = rhs_full(state, sg, vg, tab, mode="linearized")
        # pure transport: compare against the spectral transport term
        spec = sg.forward(f, (1,))
        xi = sg.xi_1d().reshape(1, -1, 1, 1, 1)
        v1 = vg.axes()[0].reshape(1, 1, -1, 1, 1)
        expect = sg.inverse(-1j * xi * v1 * spec, (1,)).real
        assert np.abs(df - expect).max() < 1e-9 * np.abs(expect).max()
        assert np.abs(db).max() == 0.0

    def test_homogeneous_state_is_pure_relaxation(self, setup8):
        cfg, sg, vg, tab = setup8
        rng = np.random.default_rng(2)
        fv = rng.standard_normal((2,) + vg.shape) * vg.mu_half()
        f = np.broadcast_to(fv[:, None], (2,) + sg.shape + vg.shape).copy()
        state = PhaseState(f=f, em=maxwell.EMField.zero(sg), t=0.0)
        df, _, _ = rhs_full(state, sg, vg, tab, mode="linearized")
        expect = -landau.apply_L(tab, f)
        assert np.abs(df - expect).max() < 1e-10 * np.abs(expect).max()
        # <f, -Lf> <= 0: the L2 norm cannot grow
        assert landau.pair_inner(tab, df, f) <= 1e-12

    def test_ev_term_absent_in_linearized_mode(self, setup8):
        cfg, sg, vg, tab = setup8
        rng = np.random.default_rng(3)
        st = initial_state(small_cfg(dt=0.05, t_end=0.2, preset="broadband"),
                           sg, vg)
        e = rng.standard_normal((3,) + sg.shape) + 0j
        st.em = maxwell.EMField(e, np.zeros_like(e))
        df_lin, _, _ = rhs_full(st, sg, vg, tab, mode="linearized")
        df_nl, _, _ = rhs_full(st, sg, vg, tab, mode="nonlinear")
        # the difference is exactly the force + quadratic terms: nonzero here
        assert np.abs(df_nl - df_lin).max() > 0.0
        # and vanishes when the state is zero
        st0 = PhaseState(np.zeros_like(st.f), maxwell.EMField(e, np.zeros_like(e)), 0.0)
        a, _, _ = rhs_full(st0, sg, vg, tab, mode="linearized")
        b, _, _ = rhs_full(st0, sg, vg, tab, mode="nonlinear")
        assert np.abs(a - b).max() == 0.0


class TestStep:
    def test_global_second_order(self):
        def final(dt):
            cfg = small_cfg(dt=dt, t_end=0.4, preset="broadband")
            return evolve.run(cfg).final_state.f

        f1, f2, f4 = final(0.1), final(0.05), final(0.025)
        e12 = np.sqrt(np.sum((f1 - f2) ** 2))
        e24 = np.sqrt(np.sum((f2 - f4) ** 2))
        assert e12 / e24 == pytest.approx(4.0, abs=0.5)

    def test_collision_solvers_agree(self, setup8):
        cfg, sg, vg, tab = setup8
        st = initial_state(cfg, sg, vg)
        st_d = Stepper(replace(cfg, collision_solver="direct"), sg, vg, tab).step(st)
        st_c = Stepper(replace(cfg, collision_solver="cg"), sg, vg, tab).step(st)
        assert np.abs(st_d.f - st_c.f).max() < 1e-10 * np.abs(st_d.f).max()

    @pytest.mark.parametrize("x_shape", [(), (4, 3)], ids=["1d", "two_axes"])
    def test_quadratic_form_matches_matrix_free(self, setup8, x_shape):
        # Re sum conj(f) L f per point from the blocks, on complex rows
        cfg, sg, vg, tab = setup8
        stepper = evolve.CollisionStepper(tab, cfg.dt, method="direct", direct_max_nv=8)
        rng = np.random.default_rng(10)
        f = rng.standard_normal((2, 2) + x_shape + vg.shape)
        spec = f[0] + 1j * f[1]
        ref = sum(np.sum(part * landau.apply_L(tab, part), axis=(0, -3, -2, -1))
                  for part in f)
        out = stepper.quadratic_form(spec)
        assert out.shape == x_shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dt", [0.05, 1.0])
    def test_direct_propagator_spectra(self, setup8, dt):
        # P = (I + dt B)^-1 (I - dt B) with B = A + K (sum) and B = A
        # (difference), both symmetric positive semidefinite, kept as its
        # trivial, sign and standard blocks: each block is symmetric, its
        # eigenvalues (1 - dt lam) / (1 + dt lam) lie in (-1, 1], and the
        # eigenvalue 1 is the null space of B, the collision invariants.
        # The standard block serves both rows of its representation, so it
        # counts twice: the sum's five invariants are mass, energy and
        # v1+v2+v3 momentum (trivial) and the two other momenta (standard);
        # the difference's one, the charge, is trivial
        cfg, sg, vg, tab = setup8
        stepper = evolve.CollisionStepper(tab, dt, method="direct", direct_max_nv=8)
        for blocks, invariants, total in zip(stepper._prop, ((3, 0, 1), (1, 0, 0)), (5, 1)):
            counts = []
            for prop in blocks:
                assert np.array_equal(prop, prop.T)
                lam = np.linalg.eigvalsh(prop)
                assert -1.0 < lam.min() and lam.max() <= 1.0 + 1e-12
                counts.append(int(np.sum(np.abs(lam - 1.0) <= 1e-10)))
            assert tuple(counts) == invariants
            assert np.dot(counts, BLOCK_MULTIPLICITY) == total

    def test_cg_iterations_of_both_solves(self, setup8):
        cfg, sg, vg, tab = setup8
        stepper = evolve.CollisionStepper(tab, cfg.dt, method="cg", direct_max_nv=8)
        f = np.random.default_rng(5).standard_normal((2, 3) + vg.shape)
        stepper.advance(f)
        iters_s, iters_d = stepper.last_iterations
        assert iters_s > 0 and iters_d > 0

    def test_flexible_cg_matches_direct_in_few_outer_iterations(self, setup8):
        # the sum solve, preconditioned by the inner I + dt A solve, takes 7
        # outer iterations on this state where diagonal PCG takes 25
        cfg, sg, vg, tab = setup8
        f = np.random.default_rng(5).standard_normal((2, 3) + vg.shape)
        direct = evolve.CollisionStepper(tab, cfg.dt, method="direct",
                                         direct_max_nv=8).advance(f)
        stepper = evolve.CollisionStepper(tab, cfg.dt, method="cg", direct_max_nv=8)
        out = stepper.advance(f)
        assert np.abs(out - direct).max() <= 1e-10 * np.abs(direct).max()
        assert stepper.last_iterations[0] <= 8

    def test_inner_solve_that_misses_its_tolerance_raises(self, setup8, monkeypatch):
        cfg, sg, vg, tab = setup8
        monkeypatch.setattr(evolve.CollisionStepper, "INNER_TOL", 1e-300)
        stepper = evolve.CollisionStepper(tab, cfg.dt, method="cg", direct_max_nv=8)
        f = np.random.default_rng(5).standard_normal((2, 1) + vg.shape)
        with pytest.raises(evolve.CGNotConverged, match="inner I \\+ dt A solve"):
            stepper.advance(f)

    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_cg_trapezoid_residual_below_tolerance(self, setup8, method):
        cfg, sg, vg, tab = setup8
        stepper = evolve.CollisionStepper(tab, cfg.dt, method=method, cg_tol=1e-12,
                                          direct_max_nv=8)
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2, 4) + vg.shape)
        out = stepper.advance(f)
        s_new = out[0] + out[1]
        s_old = f[0] + f[1]
        lhs = s_new + 0.5 * cfg.dt * 2.0 * (landau.apply_A(tab, s_new)
                                            + landau.apply_K(tab, s_new))
        rhs = s_old - 0.5 * cfg.dt * 2.0 * (landau.apply_A(tab, s_old)
                                            + landau.apply_K(tab, s_old))
        res = np.sqrt(np.sum((lhs - rhs) ** 2)) / np.sqrt(np.sum(rhs ** 2))
        assert res < 1e-10

    def test_direct_solver_guard(self, setup8):
        cfg, sg, vg, tab = setup8
        with pytest.raises(ValueError):
            evolve.CollisionStepper(tab, 0.05, method="direct", direct_max_nv=6)
        # a negative step makes I + dt/2 L indefinite: Cholesky must refuse it
        with pytest.raises(ValueError, match="n_v=8, gamma=-3.0, dt=-1.0"):
            evolve.CollisionStepper(tab, -1.0, method="direct", direct_max_nv=8)

    def test_spd_inverse(self):
        # two levels of Schur complements over leaves of at most 64 rows
        rng = np.random.default_rng(12)
        q = rng.standard_normal((200, 200))
        m = q @ q.T + 200.0 * np.eye(200)
        inv = evolve._spd_inverse(m.copy())
        assert np.abs(inv @ m - np.eye(200)).max() < 1e-13
        # a positive definite leading block with an indefinite Schur
        # complement, C - B^T A^-1 B = -3 I: the second leaf refuses it
        eye = np.eye(100)
        with pytest.raises(np.linalg.LinAlgError):
            evolve._spd_inverse(np.block([[eye, 2.0 * eye], [2.0 * eye, eye]]))


class TestPermutationBlocks:
    """The direct solver's blocks against the full dense oracles at n_v = 8."""

    @pytest.fixture(scope="class")
    def blocked(self, setup8):
        cfg, sg, vg, tab = setup8
        stepper = evolve.CollisionStepper(tab, cfg.dt, method="direct", direct_max_nv=8)
        n3 = vg.n_v ** 3
        triv, sign, std = stepper._basis.forward(np.eye(n3))
        # columns: the basis vectors, block after block
        q = np.hstack([triv, sign, std[0::2], std[1::2]])
        a = landau.dense_A(tab, limit=8)
        a_plus_k = a + landau.dense_K(tab, limit=8)
        return cfg, stepper, q, {"a_plus_k": a_plus_k, "a": a}

    def test_basis_is_orthonormal(self, blocked):
        cfg, stepper, q, full = blocked
        # trivial: 120 sorted triples; sign: 56 with three distinct indices;
        # standard: 8 * 7 with two equal indices plus twice 56
        assert [b.shape[0] for b in stepper._a] == [120, 56, 168]
        assert np.abs(q.T @ q - np.eye(q.shape[0])).max() <= 1e-14

    @pytest.mark.parametrize("name", ["a_plus_k", "a"])
    def test_stored_blocks_are_the_oracle_in_the_basis(self, blocked, name):
        cfg, stepper, q, full = blocked
        rotated = q.T @ full[name] @ q
        scale = np.abs(rotated).max()
        stored = getattr(stepper, "_" + name)
        edges = np.cumsum([0] + [b.shape[0] for b in stored] + [stored[2].shape[0]])
        diagonal = np.zeros(rotated.shape, dtype=bool)
        for lo, hi, block in zip(edges[:-1], edges[1:], stored + stored[2:]):
            diagonal[lo:hi, lo:hi] = True
            assert np.abs(rotated[lo:hi, lo:hi] - block).max() <= 1e-13 * scale
        assert np.abs(rotated[~diagonal]).max() <= 1e-14 * scale
        # the two rows of the standard representation see the same block
        row0 = rotated[edges[2]:edges[3], edges[2]:edges[3]]
        row1 = rotated[edges[3]:, edges[3]:]
        assert np.abs(row0 - row1).max() <= 1e-14 * scale

    @pytest.mark.parametrize("x_shape", [(3,), (4, 3)], ids=["one_axis", "two_axes"])
    def test_advance_is_the_full_cholesky_propagator(self, blocked, x_shape):
        from scipy.linalg import cho_factor, cho_solve

        cfg, stepper, q, full = blocked
        n3 = q.shape[0]
        props = []
        for b in (full["a_plus_k"], full["a"]):
            m = np.eye(n3) + cfg.dt * b
            props.append(2.0 * cho_solve(cho_factor(m), np.eye(n3)) - np.eye(n3))
        f = np.random.default_rng(12).standard_normal((2,) + x_shape + (8, 8, 8))
        s = (f[0] + f[1]).reshape(-1, n3) @ props[0]
        d = (f[0] - f[1]).reshape(-1, n3) @ props[1]
        ref = 0.5 * np.stack([s + d, s - d]).reshape(f.shape)
        out = stepper.advance(f)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_collision_invariants_are_the_exact_null_space(self, blocked):
        # the blocks' exact spectra: A + K annihilates mass, momentum and
        # energy of the species sum (five, the standard block counted
        # twice) and A the charge of the difference, six invariants of L
        # in all; nothing else is below 1e-10 of the largest eigenvalue and
        # nothing is negative beyond round-off
        cfg, stepper, q, full = blocked
        for blocks, nulls in ((stepper._a_plus_k, 5), (stepper._a, 1)):
            lams = [np.linalg.eigvalsh(b) for b in blocks]
            lam_max = max(lam.max() for lam in lams)
            assert min(lam.min() for lam in lams) >= -1e-12 * lam_max
            counts = [int(np.sum(lam < 1e-10 * lam_max)) for lam in lams]
            assert np.dot(counts, BLOCK_MULTIPLICITY) == nulls


class TestRun:
    def test_zero_data_stays_zero(self):
        cfg = small_cfg(dt=0.1, t_end=0.5, preset="zero")
        res = evolve.run(cfg)
        assert np.abs(res.final_state.f).max() == 0.0
        assert maxwell.field_energy(res.final_state.em) == 0.0

    def test_relaxation_monotone(self):
        cfg = small_cfg(n_x=8, dt=0.1, t_end=1.0, preset="relaxation",
                        report_every=2)
        res = evolve.run(cfg)
        norms = [r.norm_f_sq for r in res.reports]
        assert res.contraction_violations == 0
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]

    def test_determinism_bitwise(self):
        cfg = small_cfg(dt=0.1, t_end=0.3, report_every=2)
        r1 = evolve.run(cfg)
        r2 = evolve.run(cfg)
        assert np.array_equal(r1.final_state.f, r2.final_state.f)
        for a, b in zip(r1.reports, r2.reports):
            va, vb = a.row(cfg.k_max), b.row(cfg.k_max)
            assert all((x == y) or (math.isnan(x) and math.isnan(y))
                       for x, y in zip(va, vb))

    def test_lyap_delta_only_on_monitor_steps(self):
        # a report on a step the monitor skips has no interval of its own
        cfg = small_cfg(n_x=8, dt=0.1, t_end=0.4, report_every=1, monitor_every=2)
        res = evolve.run(cfg)
        deltas = [rep.row(cfg.k_max)[-1] for rep in res.reports]
        assert [math.isnan(d) for d in deltas] == [True, True, False, True, False]

    def test_nan_abort_carries_last_good(self):
        cfg = small_cfg(dt=0.1, t_end=0.5)
        sg, vg = cfg.grids()
        st = initial_state(cfg, sg, vg)
        st.f[0, 0, 0, 0, 0] = np.inf
        with pytest.raises(NanAbort) as err:
            evolve.run(cfg, initial=st)
        assert err.value.step == 0
        assert err.value.last_good is not None

    def test_quadratic_remainder_scaling(self):
        def diff(amp):
            base = dict(dt=0.05, t_end=0.5, preset="broadband", seed=3,
                        amplitude=amp)
            rl = evolve.run(small_cfg(mode="linearized", **base))
            rn = evolve.run(small_cfg(mode="nonlinear", **base))
            return np.sqrt(np.sum((rl.final_state.f - rn.final_state.f) ** 2))

        d1, d2 = diff(1e-3), diff(5e-4)
        assert d1 / d2 == pytest.approx(4.0, rel=0.5)


def y0_functional(st, cfg, sg, vg, tab):
    """Y0 of ``st`` from a report snapshot, as ``vmlkit norms`` computes it."""
    ctx = diag.DiagContext(sg, vg, tab, MacroProjector(vg), cfg)
    return diag.y0_functional(ctx, diag.SpectralSnapshot(ctx, st, report=True))


class TestY0:
    def test_zero_data(self, setup8):
        cfg, sg, vg, tab = setup8
        st = initial_state(small_cfg(dt=0.05, t_end=0.2, preset="zero"), sg, vg)
        assert y0_functional(st, cfg, sg, vg, tab) == 0.0

    def test_degree_one_homogeneity(self, setup8):
        cfg, sg, vg, tab = setup8
        st = initial_state(cfg, sg, vg)
        y1 = y0_functional(st, cfg, sg, vg, tab)
        st2 = PhaseState(3.0 * st.f,
                         maxwell.EMField(3.0 * st.em.e_spec, 3.0 * st.em.b_spec),
                         0.0)
        assert y0_functional(st2, cfg, sg, vg, tab) == pytest.approx(3.0 * y1, rel=1e-12)

    def test_small_broadband_regression_value(self, setup8):
        # frozen golden number for the small broadband preset; guards the
        # norm wiring against accidental convention drift
        cfg, sg, vg, tab = setup8
        st = initial_state(cfg, sg, vg)
        y = y0_functional(st, cfg, sg, vg, tab)
        # recorded with numpy 2.4.6 and scipy 1.17.1 by the change that made
        # the (E, B) terms read the field spectra without a second transform
        ref = 254.44874349759544
        assert y == pytest.approx(ref, rel=1e-10)
        assert 0.0 < y < 1e4

    def test_fields_only_is_the_field_sobolev_sum(self):
        # f = 0: Y0 is ||(E,B)||_{H^N} + ||(E,B)||_{H^-s} of the spectra
        cfg = small_cfg(preset="vacuum-maxwell", couple_fields=False,
                        box_length=2.0 * math.pi * 10.0)
        sg, vg = cfg.grids()
        st = initial_state(cfg, sg, vg)
        assert not np.any(st.f)
        power = (np.sum(np.abs(st.em.e_spec) ** 2, axis=0)
                 + np.sum(np.abs(st.em.b_spec) ** 2, axis=0))
        xin2 = sg.xi_norm() ** 2
        m_n = sum(xin2 ** j for j in range(cfg.n_max + 1))
        m_neg = np.zeros(sg.shape)
        m_neg[xin2 > 0] = xin2[xin2 > 0] ** -cfg.s_exp
        expect = math.sqrt(np.sum(m_n * power)) + math.sqrt(np.sum(m_neg * power))
        tab = landau.build_collision_tables(vg, cfg.gamma)
        assert y0_functional(st, cfg, sg, vg, tab) == pytest.approx(expect, rel=1e-12)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, setup8):
        cfg, sg, vg, tab = setup8
        st = Stepper(cfg, sg, vg, tab).step(initial_state(cfg, sg, vg))
        path = os.path.join(tmp_path, "snap.bin")
        save_checkpoint(path, st, 7)
        st2, step_idx = load_checkpoint(path)
        assert step_idx == 7
        assert np.array_equal(st2.f, st.f)
        assert np.array_equal(st2.em.e_spec, st.em.e_spec)
        assert np.array_equal(st2.em.b_spec, st.em.b_spec)
        assert st2.t == st.t

    def test_resume_bit_exact(self, tmp_path):
        cfg = small_cfg(dt=0.1, t_end=0.6)
        full = evolve.run(cfg)

        cfg_half = small_cfg(dt=0.1, t_end=0.3)
        half = evolve.run(cfg_half)
        path = os.path.join(tmp_path, "mid.bin")
        save_checkpoint(path, half.final_state, 3)
        st, step_idx = load_checkpoint(path)
        resumed = evolve.run(cfg, initial=st, resume_step=step_idx)
        assert np.array_equal(resumed.final_state.f, full.final_state.f)
        assert np.array_equal(resumed.final_state.em.e_spec,
                              full.final_state.em.e_spec)

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\0" * 100)
        with pytest.raises(ValueError):
            load_checkpoint(path)
