import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vmlkit import diagnostics as diag
from vmlkit import evolve, landau, maxwell
from vmlkit.evolve import PhaseState, RunConfig, initial_state
from vmlkit.macro_micro import MacroProjector

from oracles import rhs_full


@pytest.fixture(scope="module")
def ctx8():
    cfg = RunConfig(n_x=16, n_v=8, collision_solver="direct")
    sg, vg = cfg.grids()
    tab = landau.build_collision_tables(vg, cfg.gamma)
    proj = MacroProjector(vg)
    return cfg, diag.DiagContext(sg, vg, tab, proj, cfg)


def single_mode_state(sg, vg, k=2):
    f = np.zeros((2,) + sg.shape + vg.shape)
    e = np.zeros((3,) + sg.shape, dtype=complex)
    e[1, k] = 1.0 / math.sqrt(2.0)
    e[1, -k] = 1.0 / math.sqrt(2.0)
    return PhaseState(f=f, em=maxwell.EMField(e, np.zeros_like(e)), t=0.0)


def snapshot(ctx, st):
    return diag.SpectralSnapshot(ctx, st, report=True)


class TestEnergyFamilies:
    def test_zero_state(self, ctx8):
        cfg, ctx = ctx8
        st = PhaseState(np.zeros((2,) + ctx.sgrid.shape + ctx.vgrid.shape),
                        maxwell.EMField.zero(ctx.sgrid), 0.0)
        snap = snapshot(ctx, st)
        assert diag.band_energy(ctx, snap, 0, 2) == 0.0
        assert diag.band_energy(ctx, snap, 1, 3) == 0.0

    def test_single_field_mode_multiplier_arithmetic(self, ctx8):
        cfg, ctx = ctx8
        st = single_mode_state(ctx.sgrid, ctx.vgrid, k=2)
        snap = snapshot(ctx, st)
        xi = ctx.sgrid.xi_1d()[2]
        e0 = diag.band_energy(ctx, snap, 0, 0)
        e1 = diag.band_energy(ctx, snap, 0, 1)
        assert e0 == pytest.approx(1.0, rel=1e-12)
        assert e1 == pytest.approx(1.0 + xi ** 2, rel=1e-12)

    def test_band_nesting(self, ctx8):
        cfg, ctx = ctx8
        rng = np.random.default_rng(0)
        f = rng.standard_normal((2,) + ctx.sgrid.shape + ctx.vgrid.shape)
        e = rng.standard_normal((3,) + ctx.sgrid.shape) + 0j
        st = PhaseState(f, maxwell.EMField(e, e.copy()), 0.0)
        snap = snapshot(ctx, st)
        vals = [diag.band_energy(ctx, snap, k, 3) for k in range(4)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        # E^0 at n0 = 3 is E_N at N = 3, summed order by order
        full = sum(diag.band_energy(ctx, snap, j, j) for j in range(4))
        assert vals[0] == pytest.approx(full, rel=1e-12)

    def test_k_band_of_homogeneous_state_vanishes(self, ctx8):
        cfg, ctx = ctx8
        fv = np.ones((2,) + ctx.vgrid.shape)
        f = np.broadcast_to(fv[:, None], (2,) + ctx.sgrid.shape + ctx.vgrid.shape).copy()
        st = PhaseState(f, maxwell.EMField.zero(ctx.sgrid), 0.0)
        snap = snapshot(ctx, st)
        assert diag.band_energy(ctx, snap, 1, 3) < 1e-20

    def test_weighted_collapse_to_unweighted(self):
        # ell = 0, q = 0 removes the weight; with no velocity derivatives the
        # weighted f energy equals the unweighted one exactly (the broadband
        # state has no Nyquist content, where the two conventions differ)
        cfg = RunConfig(n_x=16, n_v=8, collision_solver="direct",
                        q=0.0, beta_max=0)
        sg, vg = cfg.grids()
        tab = landau.build_collision_tables(vg, cfg.gamma)
        proj = MacroProjector(vg)
        ctx = diag.DiagContext(sg, vg, tab, proj, cfg)
        st = initial_state(cfg, sg, vg)
        snap = snapshot(ctx, st)
        ew = snap.band(snap.weighted(ctx, 0.0, t=1.3)["f"], 0, cfg.n_max)
        en = snap.norm2(sg.band_multiplier(0, cfg.n_max), "f")
        assert ew == pytest.approx(en, rel=1e-12)

    def test_dissipation_micro_terms_vanish_on_pure_macro(self, ctx8):
        cfg, ctx = ctx8
        mu_half = ctx.vgrid.mu_half()
        rng = np.random.default_rng(1)
        gx = rng.standard_normal(ctx.sgrid.shape)
        f = np.zeros((2,) + ctx.sgrid.shape + ctx.vgrid.shape)
        f[0] = gx[:, None, None, None] * mu_half
        f[1] = f[0]
        snap = snapshot(ctx, PhaseState(f, maxwell.EMField.zero(ctx.sgrid), 0.0))
        terms = snap.weighted(ctx, 0.0, 0.0)
        scale = snap.band(terms["f"], 0, 2)
        assert snap.band(terms["sigma"], 0, 2) < 1e-12 * scale
        assert snap.band(terms["extra"], 0, 2) < 1e-12 * scale

    def test_extra_dissipation_prefactor_scales_exactly(self):
        # q = 0 freezes the weight itself, so on a frozen state only the
        # literal (1+t)^(-1-theta) prefactor moves
        cfg = RunConfig(n_x=16, n_v=8, collision_solver="direct",
                        q=0.0)
        sg, vg = cfg.grids()
        tab = landau.build_collision_tables(vg, cfg.gamma)
        ctx = diag.DiagContext(sg, vg, tab, MacroProjector(vg), cfg)
        st = initial_state(cfg, sg, vg)
        snap = snapshot(ctx, PhaseState(st.f, maxwell.EMField.zero(sg), 0.0))
        terms = snap.weighted(ctx, 0.0, 0.0)
        base = diag.dissipation_weighted(ctx, snap, terms, 2, t=0.0)
        later = diag.dissipation_weighted(ctx, snap, terms, 2, t=3.0)
        extra = snap.band(terms["extra"], 0, 2)
        expect = base - extra * (1.0 - 4.0 ** (-1.0 - cfg.theta))
        assert later == pytest.approx(expect, rel=1e-10)


def reference_densities(ctx, f, alpha, beta):
    """Physical-space (|d f|^2, <v>^2 |d micro|^2, sigma bracket of d micro).

    Inverse transform of (i xi)^alpha f_hat, real part, v-differences,
    pointwise square, sum over species and x: the route the spectral
    densities replace.
    """
    sg, vg, tab = ctx.sgrid, ctx.vgrid, ctx.tables

    def d_alpha_beta(g):
        mult = np.ones(sg.shape, dtype=complex)
        for i, a in enumerate(alpha):
            mult = mult * (1j * np.broadcast_to(sg.xi_mesh()[i], sg.shape)) ** a
        spec = sg.apply_multiplier(sg.forward(g, ctx.x_axes), mult, ctx.x_axes)
        out = sg.inverse(spec, ctx.x_axes).real
        for j, order in enumerate(beta):
            for _ in range(order):
                out = landau._apply_axis(tab.fd, out, j - 3)
        return out

    def reduce(dens):
        return sg.cell_measure * np.sum(dens, axis=(0,) + ctx.x_axes)

    dab = d_alpha_beta(f)
    mab = d_alpha_beta(ctx.projector.micro_part(f))
    grad = [landau._apply_axis(tab.fd, mab, j - 3) for j in range(3)]
    v1, v2, v3 = vg.axes()
    vn = vg.vnorm()
    origin = vn == 0.0
    gpar = np.where(origin, 0.0,
                    (grad[0] * v1 + grad[1] * v2 + grad[2] * v3) / np.where(origin, 1.0, vn))
    gsq = grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2
    gperp = np.where(origin, gsq, np.maximum(gsq - gpar ** 2, 0.0))
    sigma = (tab.bracket_perp ** 2 * (mab ** 2 + gperp)
             + vg.bracket(tab.gamma / 2) ** 2 * gpar ** 2)
    return reduce(dab ** 2), (1.0 + vg.vsq()) * reduce(mab ** 2), reduce(sigma)


def reference_powers(ctx, f):
    """The per-mode powers of f on the full spectrum of a complex ``fftn``.

    The route the half-spectrum powers replace: every mode transformed, L f
    applied matrix-free and transformed too.
    """
    sg, proj, vol = ctx.sgrid, ctx.projector, ctx.vgrid.cell_volume
    spec = sg.forward(f, ctx.x_axes)
    lf = sg.forward(landau.apply_L(ctx.tables, f), ctx.x_axes)
    coef = proj.coefficients(spec)
    axes = (0, -3, -2, -1)
    return {"f": vol * np.sum(np.abs(spec) ** 2, axis=axes),
            "lf": vol * np.sum((np.conj(spec) * lf).real, axis=axes),
            "charge": np.abs(coef[0] - coef[1]) ** 2,
            "macro": np.sum(np.abs(coef) ** 2, axis=0),
            "pf": np.einsum("ij,i...,j...->...", proj.gram, coef.conj(), coef).real}


class TestSpectralSnapshot:
    @pytest.mark.parametrize("axes,n_x", [((0,), 16), ((0, 2), 6), ((0,), 7),
                                          ((0, 1, 2), 4)])
    def test_densities_match_physical_space_reference(self, axes, n_x):
        # noise fills every mode, the Nyquist ones included, where the
        # multiplier must drop odd total orders to reproduce the real part;
        # the snapshot walks only the half spectrum (weight 2 on interior
        # modes; odd n_x has no Nyquist mode to count once)
        cfg = RunConfig(n_x=n_x, n_v=8, active_axes=axes)
        sg, vg = cfg.grids()
        tab = landau.build_collision_tables(vg, cfg.gamma)
        ctx = diag.DiagContext(sg, vg, tab, MacroProjector(vg), cfg)
        rng = np.random.default_rng(sum(axes) + n_x)
        f = rng.standard_normal((2,) + sg.shape + vg.shape) * vg.mu_half()
        snap = snapshot(ctx, PhaseState(f, maxwell.EMField.zero(sg), 0.0))
        for name, ref in reference_powers(ctx, f).items():
            err = np.abs(snap.power[name] - ref).max() / np.abs(ref).max()
            assert err <= 1e-13, (name, err)
        assert len(snap.pairs) == len(set(snap.pairs)) > 0
        for i, (alpha, beta) in enumerate(snap.pairs):
            ref = reference_densities(ctx, f, alpha, beta)
            for name, r in zip(("f", "extra", "sigma"), ref):
                err = np.abs(snap.dens[name][i] - r).max() / np.abs(r).max()
                assert err <= 1e-13, (alpha, beta, name, err)

    def test_monitor_builds_only_beta_zero(self, ctx8):
        cfg, ctx = ctx8
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        full = snapshot(ctx, st)
        lean = diag.SpectralSnapshot(ctx, st, report=False)
        assert all(sum(b) == 0 for _, b in lean.pairs)
        for k in range(cfg.n0 + 1):
            assert lean.sigma_band(k, cfg.n0) == full.sigma_band(k, cfg.n0)

    def test_ragged_mode_blocks_match_one_block(self, ctx8, monkeypatch):
        # the 9 modes of the half spectrum of n_x = 16 in blocks of 5: a full
        # block and a ragged one
        cfg, ctx = ctx8
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        # the scratch of one mode: a report's fields per mode, each the real
        # and imaginary parts of both species
        mode_bytes = sum(ctx.plans[True].caps) * 2 * 16 * ctx.vgrid.n_v ** 3
        monkeypatch.setattr(diag, "BLOCK_BYTES", 16 * mode_bytes)
        whole = snapshot(ctx, st)
        monkeypatch.setattr(diag, "BLOCK_BYTES", 5 * mode_bytes)
        ragged = snapshot(ctx, st)
        assert ragged.pairs == whole.pairs
        for name in ("f", "extra", "sigma"):
            ref = whole.dens[name]
            err = np.abs(ragged.dens[name] - ref).max() / np.abs(ref).max()
            assert err <= 1e-14, (name, err)

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_column_blocks_match_one_block(self, ctx8, monkeypatch, columns):
        # where a whole mode does not fit BLOCK_BYTES, a block of a
        # matrix-free context (no direct stepper, scratch made per snapshot)
        # is a run of one mode's four (re/im, species) columns: 1 column a
        # block, or 2 when 2 or 3 fit; a direct run keeps one whole mode.  Every column of the 9 modes lies in exactly one
        # block, and the densities of a report and of a monitor agree with
        # one block of all modes to round-off
        cfg, ctx = ctx8
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        column = sum(ctx.plans[True].caps) * 8 * ctx.vgrid.n_v ** 3
        monkeypatch.setattr(diag, "BLOCK_BYTES", 16 * 4 * column)
        whole = {report: diag.SpectralSnapshot(ctx, st, report=report)
                 for report in (True, False)}
        monkeypatch.setattr(diag, "BLOCK_BYTES", columns * column)
        blocks = diag._tree_blocks(9, column, True)
        assert diag._tree_blocks(9, column, False) == [(m, 1, 0, 4) for m in range(9)]
        run = {1: 1, 2: 2, 3: 2}[columns]
        assert [(m, nb) for m, nb, _, _ in blocks] == [(m, 1) for m in range(9)
                                                        for _ in range(4 // run)]
        assert all(c1 - c0 == run for _, _, c0, c1 in blocks)
        covered = sorted((m, c) for m, _, c0, c1 in blocks for c in range(c0, c1))
        assert covered == [(m, c) for m in range(9) for c in range(4)]
        for report, ref in whole.items():
            split = diag.SpectralSnapshot(ctx, st, report=report)
            for name, dens in ref.dens.items():
                err = np.abs(split.dens[name] - dens).max() / np.abs(dens).max()
                assert err <= 1e-14, (report, name, err)

    @pytest.mark.parametrize("report,passes", [(True, 28), (False, 3)])
    def test_stencil_passes_per_mode_block(self, ctx8, monkeypatch, report, passes):
        # beta_max = 2: the tree forms each of the 9 d_beta f_hat (|beta| in
        # 1..2) and the 19 d_beta micro (|beta| in 1..3) once per block; a
        # monitor snapshot forms only the 3 first-order micro fields.  Each
        # level's children are three stacked passes, one per axis: 15 calls
        # per block for a report (f levels 1..2, micro levels 1..3) and 3 for
        # a monitor.  The walk covers the n_x // 2 + 1 = 9 modes of the half
        # spectrum, in blocks of 5 and 4
        cfg, ctx = ctx8
        assert cfg.beta_max == 2
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        mode_bytes = sum(ctx.plans[True].caps) * 2 * 16 * ctx.vgrid.n_v ** 3
        monkeypatch.setattr(diag, "BLOCK_BYTES", 5 * mode_bytes)
        calls = []
        apply_axis = landau._apply_axis

        def counted(mat, arr, axis, out=None):
            # the tree's passes write into its levels, (fields, columns,
            # v...), four columns (re/im, species) per mode of a whole-mode
            # block; L f's stencils return new arrays
            if out is not None:
                calls.append((arr.shape[0], arr.shape[1] // 4))
            return apply_axis(mat, arr, axis, out=out)

        monkeypatch.setattr(landau, "_apply_axis", counted)
        diag.SpectralSnapshot(ctx, st, report=report)
        per_block = {True: 15, False: 3}[report]
        assert len(calls) == 2 * per_block
        for modes in (5, 4):
            block = [n for n, nb in calls if nb == modes]
            assert (len(block), sum(block)) == (per_block, passes)

    def test_cg_report_traced_memory(self, monkeypatch):
        # a matrix-free context makes the tree's scratch per snapshot; at
        # the CG solver's grids a block is a run of one mode's columns, here
        # one column (one species' real or imaginary part).  Past the first
        # snapshot (the context's constants), a report holds the walk's
        # three accumulators of pairs x n^3 doubles, the scratch of one
        # block, the plan's caps of fields per column (6 + 10 + 3 at
        # beta_max = 2), the plan's rows of n^3 doubles, and f_hat and its
        # micro part: 2.07 MB here, read 2.16 MB (2.95 MB with a whole mode
        # a block, whose scratch is four columns).  The bound allows one
        # more spectrum
        cfg = RunConfig(n_x=4, n_v=12, collision_solver="cg")
        sg, vg = cfg.grids()
        ctx = diag.DiagContext(sg, vg, landau.build_collision_tables(vg, cfg.gamma),
                               MacroProjector(vg), cfg)
        plan, width = ctx.plans[True], vg.n_v ** 3
        column = width * 8
        monkeypatch.setattr(diag, "BLOCK_BYTES", sum(plan.caps) * column)
        st = initial_state(cfg, sg, vg)
        diag.SpectralSnapshot(ctx, st, report=True)
        tracemalloc.start()
        try:
            diag.SpectralSnapshot(ctx, st, report=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tree = (3 * len(plan.pairs) + sum(plan.rows)) * width * 8 + sum(plan.caps) * column
        spectrum = math.prod(sg.half_shape) * 4 * column
        assert peak <= tree + 3 * spectrum


class TestXFunctional:
    """X(t) as a run records it: ``x_instant`` per report, ``x_t`` its running sup."""

    def test_running_sup_monotone_and_left_endpoint(self):
        # X rises on the broadband run and falls under pure relaxation, where
        # the sup stays at its t = 0 value
        for preset, rises in (("broadband", True), ("relaxation", False)):
            cfg = RunConfig(n_x=8, n_v=8, dt=0.1, t_end=0.5, preset=preset,
                            collision_solver="direct", report_every=1, monitor_every=0)
            reps = evolve.run(cfg).reports
            inst = np.array([r.x_instant for r in reps])
            x = np.array([r.x_t for r in reps])
            assert len(reps) == 6
            assert np.array_equal(x, np.maximum.accumulate(inst))
            assert x[0] == inst[0]
            for r in reps:
                assert r.x_instant == (r.ebar_top + r.e_n
                                       + (1.0 + r.t) ** (-0.5 * (1.0 + cfg.eps0)) * r.e_w)
            assert (inst[-1] > inst[0]) == rises
            if not rises:
                assert np.all(x == x[0])

    def test_eps0_ordering(self, ctx8):
        # a larger eps0 discounts E_{N,l} faster: X(t) drops for t > 0 and
        # no other column moves
        cfg, ctx = ctx8
        st = initial_state(cfg, ctx.sgrid, ctx.vgrid)
        st.t = 2.0
        reps = {}
        for eps0 in (0.1, 1.0):
            c = dataclasses.replace(ctx, config=dataclasses.replace(cfg, eps0=eps0))
            reps[eps0] = diag.build_report(c, snapshot(c, st))
        small, big = reps[0.1], reps[1.0]
        assert big.x_instant < small.x_instant
        assert big.x_instant == big.ebar_top + big.e_n + (1.0 + 2.0) ** -1.0 * big.e_w
        assert (big.ebar_top, big.e_n, big.e_w) == (small.ebar_top, small.e_n, small.e_w)


class TestDecayFit:
    def test_synthetic_power_law(self):
        t = np.linspace(0.0, 50.0, 200)
        v = 2.7 * (1.0 + t) ** -1.5
        fit = diag.decay_fit(t, v, (1.0, 40.0), target_k=1, s_exp=0.5)
        assert fit.exponent == pytest.approx(-1.5, abs=0.01)
        assert fit.residual < 1e-10
        assert fit.target == -1.5
        assert fit.matches_target

    def test_exponential_regime_detected_by_residual(self):
        t = np.linspace(0.0, 30.0, 150)
        v = np.exp(-t)
        fit = diag.decay_fit(t, v, (10.0, 30.0))
        assert fit.exponent < -5.0
        assert fit.residual > 0.05  # poor power-law fit flags the regime
        assert fit.late_exp_rate == pytest.approx(-1.0, rel=0.05)

    def test_guards(self):
        t = np.linspace(0.0, 10.0, 40)
        v = (1.0 + t) ** -0.5
        with pytest.raises(ValueError):
            diag.decay_fit(t, v, (9.0, 9.5))  # fewer than 4 points
        v2 = v.copy()
        v2[10] = -1.0
        with pytest.raises(ValueError):
            diag.decay_fit(t, v2, (0.0, 10.0))

    def test_auto_window_prefers_clean_power_law(self):
        t = np.linspace(0.0, 60.0, 240)
        v = 5.0 * (1.0 + t) ** -0.5
        v[t < 3.0] *= np.exp(-(3.0 - t[t < 3.0]))  # early transient
        w = diag.auto_window(t, v)
        fit = diag.decay_fit(t, v, w)
        assert fit.exponent == pytest.approx(-0.5, abs=0.05)

    def test_late_rate_needs_four_positive_samples(self):
        t = np.arange(6.0)
        assert math.isnan(diag.late_exponential_rate(t, [1.0, -1.0, 0.0, 0.5, 0.0, 0.2]))

    def test_caveat_present(self):
        t = np.linspace(0.0, 20.0, 100)
        fit = diag.decay_fit(t, (1 + t) ** -0.5, (1.0, 19.0))
        assert "torus" in fit.caveat


class TestLyapunovMonitor:
    def test_zero_trajectory(self):
        t = np.linspace(0.0, 1.0, 11)
        zero = np.zeros((2, 11))
        rep = diag.lyapunov_monitor(t, zero, zero)
        assert rep.flags == 0
        assert np.abs(rep.deltas).max() == 0.0

    def test_pure_relaxation_never_flags(self):
        cfg = RunConfig(n_x=8, n_v=8, dt=0.1, t_end=1.0, preset="relaxation",
                        collision_solver="direct", report_every=10, monitor_every=1)
        res = evolve.run(cfg)
        t, ek, dk, dpk = res.monitor.as_arrays()
        rep = diag.lyapunov_monitor(t, ek, dpk)
        assert rep.flags == 0
        # energy is nonincreasing step by step under pure relaxation
        assert np.all(np.diff(ek[0]) <= 1e-14)

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            diag.lyapunov_monitor([0.0], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            diag.lyapunov_monitor([0.0, 0.1], [[1.0, 2.0]], [[1.0]])


class TestInterpolationMonitor:
    def test_all_equal_scalar_sanity(self):
        t = np.linspace(0.0, 1.0, 5)
        ones = np.ones_like(t)
        r = diag.interpolation_monitor(t, ones, ones, ones, k=0, s_exp=0.5)
        assert np.allclose(r, 1.0)

    def test_scale_invariance(self):
        t = np.linspace(0.0, 1.0, 5)
        e = np.array([4.0, 3.0, 2.5, 2.0, 1.5])
        d = 2.0 * e
        cap = 1.5 * e
        lam = 0.37
        r1 = diag.interpolation_monitor(t, e, d, cap, k=1, s_exp=0.5)
        r2 = diag.interpolation_monitor(t, lam ** 2 * e, lam ** 2 * d,
                                        lam ** 2 * cap, k=1, s_exp=0.5)
        assert np.allclose(r1, r2)

    def test_default_run_ratio_order_one_and_grid_stable(self):
        vals = {}
        for n_v in (8, 10):
            cfg = RunConfig(n_x=16, n_v=n_v, dt=0.1, t_end=2.0,
                            collision_solver="direct",
                            report_every=2, monitor_every=0, amplitude=1e-3)
            res = evolve.run(cfg)
            reps = res.reports
            t = np.array([r.t for r in reps])
            e1 = np.array([r.e_k[1] for r in reps])
            d1 = np.array([r.d_k[1] for r in reps])
            cap1 = np.array([r.cap[1] for r in reps])
            r = diag.interpolation_monitor(t, e1, d1, cap1, k=1, s_exp=0.5)
            vals[n_v] = float(np.nanmax(r))
        for v in vals.values():
            assert 0.0 < v < 50.0  # order one, not orders of magnitude
        assert abs(vals[8] - vals[10]) <= 0.5 * max(vals.values())


class TestRieszChecks:
    def test_all_items_pass(self):
        checks = diag.riesz_checks(0.5)
        assert checks, "no checks returned"
        for c in checks:
            assert c.passed, f"{c.name}: {c.value} vs {c.threshold} ({c.detail})"

    def test_invalid_s_rejected(self):
        with pytest.raises(ValueError):
            diag.riesz_checks(2.0)


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_stepper_L_matches_matrix_free_diagnostics(ctx8, method):
    # a context carrying the run's collision stepper takes the collision
    # power (the block quadratic form in direct mode) from it
    cfg, ctx = ctx8
    stepper = evolve.CollisionStepper(ctx.tables, cfg.dt, method=method)
    ctx_s = diag.DiagContext(ctx.sgrid, ctx.vgrid, ctx.tables, ctx.projector, cfg,
                             collision=stepper)
    st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    lean_s, lean = (diag.SpectralSnapshot(c, st, report=False) for c in (ctx_s, ctx))
    for got, ref in zip(diag.monitor_row(ctx_s, lean_s), diag.monitor_row(ctx, lean)):
        assert close(got, ref)
    full_s, full = snapshot(ctx_s, st), snapshot(ctx, st)
    assert close(diag.build_report(ctx_s, full_s).d_proxy,
                 diag.build_report(ctx, full).d_proxy)


@pytest.mark.parametrize("mode", ["linearized", "nonlinear"])
@pytest.mark.parametrize("axes,n_x", [((0,), 16), ((0, 2), 6), ((0,), 7),
                                      ((0, 1, 2), 4)])
def test_macro_snapshot_matches_physical_space_reference(axes, n_x, mode):
    # the B-moment source of the macro snapshot is the B-moment of the
    # species sum of the unsplit right-hand side (``oracles.rhs_full``),
    # less its transport term of P f: the source S(E) cancels in the sum,
    # and -v . grad_x f = -v . grad_x P f - v . grad_x {I-P} f.  Noise fills
    # every mode, the Nyquist ones included (n_x = 7 has none, n_x = 4 on
    # three axes has three Nyquist planes)
    cfg = RunConfig(n_x=n_x, n_v=8, active_axes=axes, mode=mode)
    sg, vg = cfg.grids()
    tab = landau.build_collision_tables(vg, cfg.gamma)
    ctx = diag.DiagContext(sg, vg, tab, MacroProjector(vg), cfg)
    rng = np.random.default_rng(n_x + len(mode))
    st = initial_state(cfg, sg, vg)
    f = st.f + 1e-3 * rng.standard_normal(st.f.shape) * vg.mu_half()
    e, b = (sg.forward(1e-3 * rng.standard_normal((3,) + sg.shape)) for _ in range(2))
    st = PhaseState(f, maxwell.EMField(e, b), 0.7)
    got = diag.macro_snapshot(ctx, st)
    assert got.t == 0.7

    v, x_axes = vg.axes(), tuple(range(sg.n_active))
    wgt = [0.1 * (vg.vsq() - 5.0) * vj * vg.mu_half() for vj in v]

    def b_moment(h):
        return np.stack([vg.integrate((h[0] + h[1]) * w) for w in wgt])

    df, _, _ = rhs_full(st, sg, vg, tab, mode=mode)
    pf, _ = ctx.projector.project(f)
    transport = np.stack([sum(v[axis] * sg.derivative(pf[s], axis, x_axes)
                              for axis in sg.active_axes) for s in range(2)])
    refs = {"b_source": b_moment(df) + b_moment(transport),
            "b_micro": got.mom.Bv - b_moment(pf)}
    for name, ref in refs.items():
        val = getattr(got, name)
        assert val.shape == ref.shape == (3,) + sg.shape, name
        err = np.abs(val - ref).max() / np.abs(ref).max()
        assert err <= 1e-12, (name, err)


def test_one_L_application_per_recorded_state(monkeypatch):
    # monitor rows at steps 0..4 and reports at 0, 2, 4: five recorded
    # states, so five matrix-free L f (eleven when each consumer applied its
    # own), and no other
    calls = []
    apply_L = landau.apply_L

    def counted(tables, f):
        calls.append(f.shape)
        return apply_L(tables, f)

    monkeypatch.setattr(landau, "apply_L", counted)
    cfg = RunConfig(n_x=8, n_v=8, dt=0.1, t_end=0.4, collision_solver="cg",
                    monitor_every=1, report_every=2)
    res = evolve.run(cfg)
    assert len(res.monitor.t) == 5 and len(res.reports) == 3
    assert calls == [(2, 8, 8, 8, 8)] * 5


def test_gamma_only_in_the_step(monkeypatch):
    # a nonlinear step evaluates the force and Gamma at the start of each
    # field/force half and at its midpoint: four Gamma calls per step.  The
    # reports (at steps 0, 1 and 2) add none
    calls = []
    apply_gamma = landau.apply_Gamma

    def counted(tables, f, g):
        calls.append(f.shape)
        return apply_gamma(tables, f, g)

    monkeypatch.setattr(landau, "apply_Gamma", counted)
    cfg = RunConfig(n_x=8, n_v=8, dt=0.1, t_end=0.2, mode="nonlinear",
                    collision_solver="cg", monitor_every=1, report_every=1)
    res = evolve.run(cfg)
    assert len(res.reports) == 3
    assert calls == [(2, 8, 8, 8, 8)] * 8


@pytest.mark.parametrize("method,forward_half", [("direct", 1), ("cg", 2)])
@pytest.mark.parametrize("report", [False, True])
def test_transforms_per_snapshot(ctx8, monkeypatch, method, forward_half, report):
    # one rfft of f; a matrix-free snapshot transforms L f too, a direct one
    # reads its collision power off the blocks.  No complex fftn of a
    # phase-space array (the report's charge density is an x field)
    cfg, ctx = ctx8
    stepper = evolve.CollisionStepper(ctx.tables, cfg.dt, method=method)
    ctx_s = diag.DiagContext(ctx.sgrid, ctx.vgrid, ctx.tables, ctx.projector, cfg,
                             collision=stepper)
    st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
    calls = []
    grid_cls = type(ctx.sgrid)
    for name in ("forward", "forward_half", "inverse", "inverse_half"):
        original = getattr(grid_cls, name)

        def counted(self, arr, *args, _name=name, _original=original, **kw):
            if arr.ndim > ctx.sgrid.n_active + 1:
                calls.append(_name)
            return _original(self, arr, *args, **kw)

        monkeypatch.setattr(grid_cls, name, counted)
    diag.SpectralSnapshot(ctx_s, st, report=report)
    assert calls == ["forward_half"] * forward_half


def test_report_step_monitor_row_is_the_beta_zero_row():
    # at a report step the monitor row comes from the report's snapshot;
    # it must equal the row of a beta = 0 snapshot of the same state
    cfg = RunConfig(n_x=8, n_v=8, dt=0.1, t_end=0.2, collision_solver="direct",
                    monitor_every=1, report_every=2)
    res = evolve.run(cfg)
    sg, vg = cfg.grids()
    tab = landau.build_collision_tables(vg, cfg.gamma)
    stepper = evolve.CollisionStepper(tab, cfg.dt, method="direct")
    ctx = diag.DiagContext(sg, vg, tab, MacroProjector(vg), cfg, collision=stepper)
    row = diag.monitor_row(ctx, diag.SpectralSnapshot(ctx, res.final_state, report=False))
    recorded = (res.monitor.e_k[-1], res.monitor.d_k[-1], res.monitor.d_proxy_k[-1])
    assert res.monitor.t[-1] == res.reports[-1].t == res.final_state.t
    for got, ref in zip(recorded, row):
        assert np.array_equal(got, ref)


class TestReport:
    def test_header_row_alignment(self, ctx8):
        cfg, ctx = ctx8
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        rep = diag.build_report(ctx, snapshot(ctx, st))
        cols = diag.FunctionalReport.header(cfg.k_max)
        row = rep.row(cfg.k_max)
        assert len(cols) == len(row)
        assert all(isinstance(v, (int, float)) for v in row)

    def test_header_pinned(self):
        # the CSV schema, column by column: the header is generated from the
        # report's fields, and diagnostics.csv must keep it byte for byte
        assert diag.FunctionalReport.header(1) == [
            "t", "norm_f_sq", "field_energy", "e_n", "e_k_0", "e_k_1", "d_n",
            "d_k_0", "d_k_1", "d_proxy_0", "d_proxy_1", "e_w", "d_w", "ebar_top",
            "dbar_top", "e_k_w_0", "e_k_w_1", "d_k_w_0", "d_k_w_1", "cap_0", "cap_1",
            "hneg_f", "hneg_e", "hneg_b", "zmode_f", "zmode_e", "zmode_b",
            "gauss_residual", "div_b", "x_instant", "x_t", "lyap_delta_0",
            "lyap_delta_1"]

    def test_report_nonnegative_entries(self, ctx8):
        cfg, ctx = ctx8
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        rep = diag.build_report(ctx, snapshot(ctx, st))
        for name in ("e_n", "d_n", "e_w", "d_w", "ebar_top", "dbar_top",
                     "hneg_f", "gauss_residual", "div_b"):
            assert getattr(rep, name) >= 0.0
        assert np.all(rep.e_k >= 0.0)
        assert np.all(rep.d_k >= 0.0)
        # nesting of the unweighted band family
        assert rep.e_k[1] <= rep.e_k[0] * (1 + 1e-12)

    def test_weighted_columns_pinned(self, ctx8):
        # recorded at commit 4e7ce82 (physical-space densities) with numpy
        # 2.4.6 and scipy 1.17.1; the spectral densities agree to round-off
        cfg, ctx = ctx8
        st = initial_state(RunConfig(n_x=16, n_v=8), ctx.sgrid, ctx.vgrid)
        rep = diag.build_report(ctx, snapshot(ctx, st))
        pinned = {
            "e_w": 9141.176357851535,
            "d_w": 35025.171701669686,
            "dbar_top": 1541.272476564805,
            "d_k_w_0": 4.184069584035507,
            "d_k_w_1": 0.003731530770182298,
            "cap_0": 26.346357969441915,
            "cap_1": 26.407517492967234,
            "d_n": 0.30173187657963463,
        }
        row = dict(zip(diag.FunctionalReport.header(cfg.k_max), rep.row(cfg.k_max)))
        for name, value in pinned.items():
            assert row[name] == pytest.approx(value, rel=1e-12), name
