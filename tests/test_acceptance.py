"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary.  The two production-scale scenario runs (Lyapunov and decay) are
the slow items; everything else is desk-instant.
"""

import math
import time

import numpy as np
import pytest

from vmlkit import cli, diagnostics as diag, evolve, landau, macro_micro, maxwell
from vmlkit.evolve import RunConfig, initial_state
from vmlkit.macro_micro import MacroProjector
from vmlkit.phase_grid import VelocityGrid

from conftest import null_basis


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tables24():
    grid = VelocityGrid(6.0, 24)
    return landau.build_collision_tables(grid, -3.0)


@pytest.fixture(scope="module")
def lyapunov_run():
    cfg = RunConfig(n_x=64, n_v=16, dt=0.05, t_end=5.0,
                    collision_solver="direct", report_every=10,
                    monitor_every=1)
    t0 = time.time()
    res = evolve.run(cfg)
    return cfg, res, time.time() - t0


@pytest.fixture(scope="module")
def decay_run():
    cfg = RunConfig(n_x=64, n_v=16, dt=0.1, t_end=60.0,
                    collision_solver="direct", report_every=10,
                    monitor_every=0, n_modes=21)
    t0 = time.time()
    res = evolve.run(cfg)
    return cfg, res, time.time() - t0


def test_criterion_1_null_space(tables24):
    t0 = time.time()
    grid = tables24.grid
    worst = 0.0
    for e in null_basis(grid):
        ratio = landau.sigma_norm(landau.apply_L(tables24, e), tables24) \
            / landau.sigma_norm(e, tables24)
        worst = max(worst, ratio)
    elapsed = time.time() - t0
    _verdict(1, worst <= 1e-6 and elapsed < 60.0,
             f"max |L e|_s / |e|_s = {worst:.2e} (tol 1e-6), {elapsed:.1f} s")


def test_criterion_2_coercivity_stability(tables24):
    t0 = time.time()
    gaps = {}
    for n_v in (16, 24):
        tab = tables24 if n_v == 24 else landau.build_collision_tables(
            VelocityGrid(6.0, 16), -3.0)
        proj = MacroProjector(tab.grid)
        gaps[n_v] = landau.coercivity_gap(tab, proj.micro_part, n_samples=100)
    elapsed = time.time() - t0
    drift = abs(gaps[16].min_ratio - gaps[24].min_ratio) / gaps[24].min_ratio
    ok = gaps[16].min_ratio > 0 and gaps[24].min_ratio > 0 and drift <= 0.2 \
        and elapsed < 300.0
    _verdict(2, ok, f"gap(16) = {gaps[16].min_ratio:.4f}, "
                    f"gap(24) = {gaps[24].min_ratio:.4f}, drift {drift:.1%} "
                    f"(tol 20%), {elapsed:.1f} s")


def test_criterion_3_self_adjoint_nonneg_dense():
    grid = VelocityGrid(6.0, 12)
    tab = landau.build_collision_tables(grid, -3.0)
    rng = np.random.default_rng(13)
    sym_worst = 0.0
    neg_worst = 0.0
    for _ in range(30):
        f = rng.standard_normal((2, 12, 12, 12))
        g = rng.standard_normal((2, 12, 12, 12))
        lf, lg = landau.apply_L(tab, f), landau.apply_L(tab, g)
        scale = landau.sigma_norm(f, tab) * landau.sigma_norm(g, tab)
        sym_worst = max(sym_worst, abs(
            landau.pair_inner(tab, lf, g) - landau.pair_inner(tab, f, lg)) / scale)
        neg_worst = max(neg_worst, -landau.pair_inner(tab, lf, f)
                        / landau.sigma_norm(f, tab) ** 2)
    tab8 = landau.build_collision_tables(VelocityGrid(6.0, 8), -3.0)
    dense = landau.dense_L(tab8)
    f = rng.standard_normal((2, 8, 8, 8))
    mf = landau.apply_L(tab8, f)
    rel = float(np.abs(mf - (dense @ f.reshape(-1)).reshape(2, 8, 8, 8)).max()
                / np.abs(mf).max())
    ok = sym_worst <= 1e-8 and neg_worst <= 1e-8 and rel <= 1e-10
    _verdict(3, ok, f"symmetry {sym_worst:.2e}, negativity {neg_worst:.2e} "
                    f"(tol 1e-8), dense-vs-matrixfree {rel:.2e} (tol 1e-10)")


def test_criterion_4_projection():
    grid = VelocityGrid(6.0, 12)
    proj = MacroProjector(grid)
    rng = np.random.default_rng(14)
    f = rng.standard_normal((2, 12, 12, 12))
    g = rng.standard_normal((2, 12, 12, 12))
    pf, mac = proj.project(f)
    ppf, _ = proj.project(pf)
    idem = float(np.abs(ppf - pf).max() / np.abs(pf).max())
    ortho = abs(grid.cell_volume * float(np.sum(pf * proj.micro_part(g))))
    scale = math.sqrt(float(np.sum(pf ** 2)) * float(np.sum(g ** 2))) \
        * grid.cell_volume + 1e-300
    _, mac_sw = proj.project(f[::-1].copy())
    swap = max(float(np.abs(mac_sw.a_plus - mac.a_minus).max()),
               float(np.abs(mac_sw.b - mac.b).max()),
               float(np.abs(mac_sw.c - mac.c).max()))
    swap_rel = swap / (float(np.abs(mac.a_plus).max()) + 1e-300)
    ok = idem <= 1e-10 and ortho / scale <= 1e-10 and swap_rel <= 1e-12
    _verdict(4, ok, f"P^2=P to {idem:.2e}, <Pf,(I-P)g> to {ortho/scale:.2e} "
                    f"(tol 1e-10), species swap to {swap_rel:.2e}")


def test_criterion_5_conservation():
    rng = np.random.default_rng(15)
    mass_worst = 0.0
    for n in (8, 12):
        grid = VelocityGrid(6.0, n)
        tab = landau.build_collision_tables(grid, -3.0)
        mu_half = grid.mu_half()
        F = rng.standard_normal(grid.shape) * mu_half
        G = rng.standard_normal(grid.shape) * mu_half
        q = landau.apply_Q(F, G, tab)
        scale = float(np.abs(q).max()) * grid.cell_volume * n ** 3 + 1e-300
        mass_worst = max(mass_worst, abs(grid.integrate(q)) / scale)
    moments = {}
    for n in (8, 16):
        grid = VelocityGrid(6.0, n)
        tab = landau.build_collision_tables(grid, -3.0)
        v1, _, _ = grid.axes()
        vsq = grid.vsq()
        F = (1.0 + 0.5 * (v1 + 0 * vsq) + 0.1 * vsq) * grid.mu()
        q = landau.apply_Q(F, F, tab)
        scale = float(np.abs(q).max()) + 1e-300
        moments[n] = max(abs(grid.integrate((v1 + 0 * vsq) * q)),
                         abs(grid.integrate(vsq * q))) / scale
    ok = mass_worst <= 1e-8 and moments[16] <= max(moments[8], 1e-12)
    _verdict(5, ok, f"mass {mass_worst:.2e} (tol 1e-8); momentum/energy of "
                    f"Q(F,F) at round-off: {moments[8]:.2e} -> {moments[16]:.2e}")


def test_criterion_6_constraints():
    def run_once(dt):
        cfg = RunConfig(n_x=16, n_v=8, dt=dt, t_end=0.8, preset="broadband",
                        collision_solver="direct",
                        report_every=max(1, int(round(0.8 / dt))),
                        monitor_every=0)
        res = evolve.run(cfg)
        return res.reports[-1]

    r1, r2 = run_once(0.1), run_once(0.05)
    order = math.log2(r1.gauss_residual / r2.gauss_residual)
    divb_worst = max(r1.div_b, r2.div_b)
    ok = divb_worst <= 1e-10 and abs(order - 2.0) <= 0.3
    _verdict(6, ok, f"div B <= {divb_worst:.2e} (tol 1e-10); Gauss residual "
                    f"dt-order {order:.2f} (2.0 +- 0.3)")


def test_criterion_7_lyapunov(lyapunov_run):
    cfg, res, elapsed = lyapunov_run
    t, ek, dk, dpk = res.monitor.as_arrays()
    rep = diag.lyapunov_monitor(t, ek, dpk)
    ok = rep.flags == 0 and elapsed < 600.0
    _verdict(7, ok, f"per-step Delta E/Delta t + D-proxy: {rep.flags} flags over "
                    f"{ek.shape[1]-1} steps (allowance 10 dt^2 scale), "
                    f"{elapsed:.0f} s")


def test_criterion_8_decay_ordering(decay_run):
    cfg, res, elapsed = decay_run
    ts = np.array([r.t for r in res.reports])
    e0 = np.array([r.e_k[0] for r in res.reports])
    e1 = np.array([r.e_k[1] for r in res.reports])
    sel = ts >= 5.0  # skip the Langmuir transient when choosing the window
    window = diag.auto_window(ts[sel], e0[sel])
    fit0 = diag.decay_fit(ts, e0, window, target_k=0, s_exp=cfg.s_exp)
    fit1 = diag.decay_fit(ts, e1, window, target_k=1, s_exp=cfg.s_exp)
    slope_ok = abs(fit0.exponent - (-0.5)) <= 0.3
    gap_ok = fit1.exponent <= fit0.exponent - 0.5 + 0.3
    print(f"  window [{window[0]:.1f}, {window[1]:.1f}]: slope(E0) = "
          f"{fit0.exponent:+.3f} (target -0.5 +- 0.3), slope(E1) = "
          f"{fit1.exponent:+.3f} (target <= slope(E0) - 0.5 + 0.3)")
    print(f"  late-time exponential rate of the slowest mode: "
          f"{fit0.late_exp_rate:+.4f} per unit time")
    print(f"  {fit0.caveat}")
    ok = slope_ok and gap_ok and fit0.caveat.startswith("torus")
    _verdict(8, ok, f"slope(E0) {fit0.exponent:+.3f}, slope(E1) "
                    f"{fit1.exponent:+.3f}, run {elapsed:.0f} s")


def test_criterion_9_transform_layer():
    grid = evolve.SpatialGrid(box_length=2 * math.pi * 10, n_x=64,
                              active_axes=(0,))
    rng = np.random.default_rng(19)
    f = rng.standard_normal(grid.shape)
    plancherel = abs(float(np.sum(np.abs(grid.forward(f)) ** 2))
                     - grid.norm2(f)) / grid.norm2(f)
    g = f - f.mean()
    comp = grid.lambda_s_apply(grid.lambda_s_apply(g, 0.5), -0.5)
    lam = float(np.abs(comp - g).max() / np.abs(g).max())
    checks = diag.riesz_checks(0.5)
    interp = [c for c in checks if c.name.startswith(("interp", "riesz"))]
    worst_slope = max(c.value for c in interp if "slope" in c.detail)
    ok = plancherel <= 1e-12 and lam <= 1e-12 and all(c.passed for c in checks)
    _verdict(9, ok, f"Plancherel {plancherel:.2e}, composition {lam:.2e} "
                    f"(tol 1e-12); worst interpolation slope mismatch "
                    f"{worst_slope:.4f} (tol 0.02)")


def test_criterion_10_quadratic_remainder():
    def diff(amp):
        base = dict(n_x=16, n_v=8, dt=0.05, t_end=0.5, preset="broadband",
                    collision_solver="direct",
                    report_every=10 ** 9, monitor_every=0, seed=3,
                    amplitude=amp)
        rl = evolve.run(RunConfig(mode="linearized", **base))
        rn = evolve.run(RunConfig(mode="nonlinear", **base))
        return float(np.sqrt(np.sum((rl.final_state.f - rn.final_state.f) ** 2)))

    d1 = diff(1e-3)
    d2 = diff(5e-4)
    ratio = (d1 / 1e-3 ** 2) / (d2 / 5e-4 ** 2)
    ok = 1.0 / 1.5 <= ratio <= 1.5
    _verdict(10, ok, f"||f_nl - f_lin|| / amp^2 stable within x1.5 as the "
                     f"amplitude halves: ratio {ratio:.3f}")


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.time()
    rc = cli.main(["verify", "all", "--out", str(tmp_path / "verify")])
    elapsed = time.time() - t0
    args = ["simulate", "--set", "n_x=8", "--set", "n_v=8",
            "--set", "t_end=0.3", "--set", "dt=0.1",
            "--set", "collision_solver=direct",
            "--set", "report_every=1", "--set", "monitor_every=0"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "b")])
    same = (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
        (tmp_path / "b" / "diagnostics.csv").read_bytes()
    ok = rc == 0 and elapsed < 600.0 and rc1 == rc2 == 0 and same
    _verdict(11, ok, f"verify all green in {elapsed:.0f} s (< 600 s); "
                     f"identical seeds give bit-identical outputs: {same}")
