"""Command-line front end: simulate, verify, fit-decay, norms.

Configuration files are flat key=value text with sections; every key maps
onto a RunConfig field.  A run directory always contains exactly one
``manifest.cfg`` holding the fully resolved configuration, and re-running
with the manifest as the config reproduces the outputs byte for byte.

Exit codes: 0 clean, 1 verification failure, 2 invalid configuration or
resume checkpoint, 3 non-finite state abort (last good checkpoint dumped).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import diagnostics as diag
from . import evolve, landau, macro_micro, maxwell
from .evolve import RunConfig, config_from_mapping
from .phase_grid import SpatialGrid, VelocityGrid

CSV_SCHEMA_VERSION = 1

SECTIONS = {
    "grids": ("n_x", "box_length", "active_axes", "n_v", "v_max"),
    "physics": ("gamma", "s_exp", "q", "theta", "ell", "ell0", "lprime", "eps0"),
    "integrator": ("dt", "t_end", "mode", "collision_solver", "cg_tol"),
    "initial": ("preset", "amplitude", "seed", "n_modes", "asym_fraction",
                "micro_fraction", "b_fraction", "couple_fields"),
    "diagnostics": ("n_max", "n0", "k_max", "beta_max", "report_every",
                    "monitor_every", "checkpoint_every"),
}

PRESET_OVERRIDES = {
    "relaxation": {"preset": "relaxation", "n_x": 8, "t_end": 2.0,
                   "report_every": 4},
    "vacuum-maxwell": {"preset": "vacuum-maxwell", "couple_fields": "false",
                       "box_length": 2.0 * math.pi * 10.0, "n_x": 16,
                       "t_end": 10.0, "report_every": 10},
    "default-linearized": {"preset": "broadband", "mode": "linearized"},
    "default-nonlinear": {"preset": "broadband", "mode": "nonlinear"},
    "zero": {"preset": "zero"},
}


class ConfigError(Exception):
    pass


def _key_line_numbers(path: str) -> dict:
    lines = {}
    try:
        with open(path) as fh:
            for i, line in enumerate(fh, start=1):
                stripped = line.split("#")[0].split(";")[0].strip()
                if "=" in stripped:
                    key = stripped.split("=", 1)[0].strip()
                    lines.setdefault(key, i)
    except OSError:
        pass
    return lines


def load_config_file(path: str) -> dict:
    """Parse a sectioned key=value file into a flat mapping (strings)."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    flat = {}
    linenos = _key_line_numbers(path)
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in flat:
                raise ConfigError(
                    f"{path}:{linenos.get(key, '?')}: duplicate key {key!r}")
            flat[key] = value
    _reject_unknown(flat, path, linenos)
    return flat


def _reject_unknown(flat: dict, source: str, linenos: dict) -> None:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    for key in flat:
        if key not in known:
            line = linenos.get(key, "?")
            raise ConfigError(f"{source}:{line}: unknown config key {key!r}")


def resolve_config(args) -> RunConfig:
    flat: dict = {}
    if getattr(args, "preset", None):
        if args.preset not in PRESET_OVERRIDES:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from "
                f"{sorted(PRESET_OVERRIDES)}")
        flat.update({k: str(v) for k, v in PRESET_OVERRIDES[args.preset].items()})
    if getattr(args, "config", None):
        flat.update(load_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        flat[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        flat["seed"] = str(args.seed)
    try:
        cfg = config_from_mapping(flat)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def write_manifest(path: str, cfg: RunConfig) -> None:
    parser = configparser.ConfigParser()
    flat = cfg.as_flat_dict()
    for section, keys in SECTIONS.items():
        parser.add_section(section)
        for key in keys:
            parser.set(section, key, str(flat[key]))
    with open(path, "w") as fh:
        parser.write(fh)


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{float(x):.16e}"


def write_csv(path: str, reports, k_max: int) -> None:
    cols = diag.FunctionalReport.header(k_max)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for rep in reports:
            fh.write(",".join(_fmt(v) for v in rep.row(k_max)) + "\n")


def read_csv(path: str):
    """Header names and (rows, columns) values of a diagnostics CSV.

    Raises OSError if the file cannot be read and ValueError, naming the
    file, if a cell is not a number, a row's width differs from the
    header's, or there is no data row.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no data rows below the header")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns per row, "
                         f"{len(header)} in the header")
    return header, data


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    initial = None
    resume_step = 0
    if args.resume:
        try:
            initial, resume_step = evolve.load_checkpoint(args.resume)
        except evolve.StateError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        evolve.check_resume(cfg, initial, resume_step)
    except evolve.StateError as exc:
        print(f"error: cannot resume from {args.resume}: {exc}", file=sys.stderr)
        return 2
    # the manifest describes a run that starts: written only once its
    # checkpoint has loaded and fits the config
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    ckpt_dir = os.path.join(out, "checkpoints")
    write_manifest(os.path.join(out, "manifest.cfg"), cfg)
    try:
        result = evolve.run(cfg, initial=initial, resume_step=resume_step,
                            checkpoint_dir=ckpt_dir)
    except evolve.RunAbort as exc:
        print(f"error: {exc}; last good state (step {exc.good_step}) checkpointed "
              f"to {os.path.join(ckpt_dir, 'last_good.bin')}", file=sys.stderr)
        return 3
    write_csv(os.path.join(out, "diagnostics.csv"), result.reports, cfg.k_max)
    os.makedirs(ckpt_dir, exist_ok=True)
    evolve.save_checkpoint(os.path.join(ckpt_dir, "final.bin"),
                           result.final_state,
                           int(round(cfg.t_end / cfg.dt)))
    print(f"simulate: wrote {len(result.reports)} report rows to "
          f"{os.path.join(out, 'diagnostics.csv')} (csv schema v{CSV_SCHEMA_VERSION})")
    if result.contraction_violations:
        print(f"warning: {result.contraction_violations} contraction violations",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_transforms() -> list:
    checks = []
    grid = SpatialGrid(box_length=2.0 * math.pi * 10.0, n_x=32, active_axes=(0,))
    rng = np.random.default_rng(42)
    f = rng.standard_normal(grid.shape)
    spec = grid.forward(f)
    plancherel = abs(grid.norm2(f) - float(np.sum(np.abs(spec) ** 2)))
    rel = plancherel / grid.norm2(f)
    checks.append(diag.CheckItem("plancherel", rel <= 1e-12, rel, 1e-12))
    round_trip = float(np.abs(grid.inverse(grid.forward(f)).real - f).max())
    checks.append(diag.CheckItem("round_trip", round_trip <= 1e-12 * max(1.0, np.abs(f).max()),
                                 round_trip, 1e-12))
    g = f - f.mean()
    comp = grid.lambda_s_apply(grid.lambda_s_apply(g, 0.7), -0.7)
    err = float(np.abs(comp - g).max()) / max(float(np.abs(g).max()), 1e-300)
    checks.append(diag.CheckItem("lambda_composition", err <= 1e-12, err, 1e-12))
    d1 = grid.lambda_s_apply(grid.derivative(g, 0), -0.5)
    d2 = grid.derivative(grid.lambda_s_apply(g, -0.5), 0)
    comm = float(np.abs(d1 - d2).max()) / max(float(np.abs(d1).max()), 1e-300)
    checks.append(diag.CheckItem("lambda_derivative_commute", comm <= 1e-12, comm, 1e-12))
    checks.extend(diag.riesz_checks(0.5))
    return checks


def _suite_operator() -> list:
    checks = []
    n_v = 12
    vgrid = VelocityGrid(6.0, n_v)
    tables = landau.build_collision_tables(vgrid, -3.0)
    proj = macro_micro.MacroProjector(vgrid)
    mu_half = vgrid.mu_half()
    zero = np.zeros_like(mu_half)
    basis = [
        np.stack([mu_half, zero]),
        np.stack([zero, mu_half]),
        *(np.stack([row, row]) for row in vgrid.v_mu_half),
        np.stack([vgrid.vsq() * mu_half] * 2),
    ]
    worst = 0.0
    for e in basis:
        ratio = landau.sigma_norm(landau.apply_L(tables, e), tables) / \
            landau.sigma_norm(e, tables)
        worst = max(worst, ratio)
    checks.append(diag.CheckItem("null_space", worst <= 1e-6, worst, 1e-6))

    rng = np.random.default_rng(5)
    sym_worst = 0.0
    pos_worst = 0.0
    for _ in range(20):
        f = rng.standard_normal((2, n_v, n_v, n_v))
        g = rng.standard_normal((2, n_v, n_v, n_v))
        lf = landau.apply_L(tables, f)
        lg = landau.apply_L(tables, g)
        s1 = landau.pair_inner(tables, lf, g)
        s2 = landau.pair_inner(tables, f, lg)
        scale = landau.sigma_norm(f, tables) * landau.sigma_norm(g, tables)
        sym_worst = max(sym_worst, abs(s1 - s2) / scale)
        quad = landau.pair_inner(tables, lf, f)
        pos_worst = max(pos_worst,
                        -quad / landau.sigma_norm(f, tables) ** 2)
    checks.append(diag.CheckItem("self_adjoint", sym_worst <= 1e-8, sym_worst, 1e-8))
    checks.append(diag.CheckItem("nonnegative", pos_worst <= 1e-8, pos_worst, 1e-8))

    gap = landau.coercivity_gap(tables, proj.micro_part, n_samples=40)
    checks.append(diag.CheckItem("coercivity_gap_positive", gap.min_ratio > 0.0,
                                 gap.min_ratio, 0.0,
                                 detail=f"median {gap.median_ratio:.4f}"))

    small = VelocityGrid(6.0, 8)
    tab8 = landau.build_collision_tables(small, -3.0)
    dense = landau.dense_L(tab8)
    f = rng.standard_normal((2, 8, 8, 8))
    mf = landau.apply_L(tab8, f)
    dv = (dense @ f.reshape(-1)).reshape(2, 8, 8, 8)
    rel = float(np.abs(mf - dv).max() / np.abs(mf).max())
    checks.append(diag.CheckItem("dense_vs_matrixfree", rel <= 1e-10, rel, 1e-10))

    # the exact spectrum: the six collision invariants are the whole null
    # space, and no eigenvalue is negative beyond round-off
    lam = np.linalg.eigvalsh(dense)
    lam /= lam[-1]
    n_null = int(np.count_nonzero(lam < 1e-10))
    checks.append(diag.CheckItem(
        "exact_null_space", n_null == 6 and lam[0] >= -1e-12, n_null, 6,
        detail=f"min {lam[0]:.1e}, next {lam[n_null]:.1e} (of lambda_max)"))

    q = landau.apply_Q(rng.standard_normal(small.shape) * small.mu_half(),
                       rng.standard_normal(small.shape) * small.mu_half(), tab8)
    mass = abs(small.integrate(q))
    checks.append(diag.CheckItem("q_mass_zero", mass <= 1e-8, mass, 1e-8))
    return checks


def _suite_projection() -> list:
    checks = []
    n_v = 12
    vgrid = VelocityGrid(6.0, n_v)
    proj = macro_micro.MacroProjector(vgrid)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((2, n_v, n_v, n_v))
    g = rng.standard_normal((2, n_v, n_v, n_v))
    pf, _ = proj.project(f)
    ppf, _ = proj.project(pf)
    err = float(np.abs(ppf - pf).max() / max(np.abs(pf).max(), 1e-300))
    checks.append(diag.CheckItem("idempotent", err <= 1e-10, err, 1e-10))
    ip = abs(vgrid.cell_volume * float(np.sum(pf * proj.micro_part(g))))
    scale = math.sqrt(vgrid.cell_volume * float(np.sum(pf ** 2))) * \
        math.sqrt(vgrid.cell_volume * float(np.sum(g ** 2))) + 1e-300
    checks.append(diag.CheckItem("orthogonal", ip / scale <= 1e-10, ip / scale, 1e-10))
    _, mac = proj.project(f)
    _, mac_sw = proj.project(f[::-1].copy())
    sw = max(float(np.abs(mac_sw.a_plus - mac.a_minus).max()),
             float(np.abs(mac_sw.b - mac.b).max()),
             float(np.abs(mac_sw.c - mac.c).max()))
    scale_m = float(np.abs(mac.a_plus).max()) + 1e-300
    checks.append(diag.CheckItem("species_swap", sw / scale_m <= 1e-12,
                                 sw / scale_m, 1e-12))
    return checks


def _suite_maxwell() -> list:
    checks = []
    grid = SpatialGrid(box_length=2.0 * math.pi * 10.0, n_x=32, active_axes=(0,))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
    dc = float(np.abs(maxwell.div_spec(grid, maxwell.curl_spec(grid, x))).max())
    checks.append(diag.CheckItem("div_curl_zero", dc <= 1e-12 * np.abs(x).max(),
                                 dc, 1e-12))
    rho = np.zeros(grid.shape, dtype=complex)
    rho[2], rho[-2] = 0.7, 0.7
    em = maxwell.make_compatible(grid, maxwell.EMField(x.copy(), x.copy()), rho)
    gr = maxwell.gauss_residual(grid, em, rho)
    checks.append(diag.CheckItem("compatible_gauss", gr <= 1e-10, gr, 1e-10))
    db = maxwell.div_b_norm(grid, em)
    checks.append(diag.CheckItem("compatible_divb", db <= 1e-10, db, 1e-10))

    cfg = RunConfig(preset="vacuum-maxwell", couple_fields=False, n_x=16,
                    box_length=2.0 * math.pi * 10.0, n_v=8,
                    collision_solver="direct", dt=0.05,
                    t_end=5.0, report_every=10 ** 9, monitor_every=0)
    res = evolve.run(cfg)
    st0 = evolve.initial_state(cfg, *cfg.grids())
    en0 = maxwell.field_energy(st0.em)
    enT = maxwell.field_energy(res.final_state.em)
    drift = abs(enT - en0) / en0
    checks.append(diag.CheckItem("vacuum_energy", drift <= 1e-5, drift, 1e-5))
    return checks


SUITES = {
    "transforms": _suite_transforms,
    "operator": _suite_operator,
    "projection": _suite_projection,
    "maxwell": _suite_maxwell,
}


def cmd_verify(args) -> int:
    # argparse ``choices`` has already rejected an unknown suite
    names = list(SUITES) if args.suite == "all" else [args.suite]
    t0 = time.time()
    results = {name: SUITES[name]() for name in names}
    elapsed = time.time() - t0

    any_fail = False
    payload = {"elapsed_seconds": elapsed, "suites": {}}
    for name, checks in results.items():
        payload["suites"][name] = [
            {"name": c.name, "passed": bool(c.passed), "value": float(c.value),
             "threshold": float(c.threshold), "detail": c.detail}
            for c in checks
        ]
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {name}/{c.name}: value {c.value:.3e} "
                  f"(threshold {c.threshold:.3e}) {c.detail}")
            any_fail = any_fail or not c.passed
    print(f"verify: {sum(len(v) for v in results.values())} checks in "
          f"{elapsed:.1f} s")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------
# fit-decay / norms
# ---------------------------------------------------------------------------


def cmd_fit_decay(args) -> int:
    try:
        header, data = read_csv(args.csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for column in ("t", args.column):
        if column not in header:
            print(f"error: column {column!r} not in CSV "
                  f"(available: {', '.join(header[:8])}, ...)", file=sys.stderr)
            return 2
    times = data[:, header.index("t")]
    values = data[:, header.index(args.column)]
    try:
        if args.window:
            t0, t1 = (float(tok) for tok in args.window.split(":"))
        else:
            t0, t1 = diag.auto_window(times, values)
        fit = diag.decay_fit(times, values, (t0, t1), args.k, args.s_exp)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = "MATCH" if fit.matches_target else "MISS"
    print(f"column {args.column}: window [{fit.window[0]:.3g}, {fit.window[1]:.3g}] "
          f"({fit.n_points} points)")
    print(f"fitted exponent {fit.exponent:+.4f}, residual {fit.residual:.4f}, "
          f"target {fit.target:+.2f} -> {verdict}")
    print(f"late-time exponential rate {fit.late_exp_rate:+.5f} per unit time")
    print(fit.caveat)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "decay_fit.json"), "w") as fh:
            json.dump({"column": args.column, "window": fit.window,
                       "exponent": fit.exponent, "residual": fit.residual,
                       "target": fit.target, "verdict": verdict,
                       "late_exp_rate": fit.late_exp_rate,
                       "caveat": fit.caveat}, fh, indent=2)
    return 0


def cmd_norms(args) -> int:
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sgrid, vgrid = cfg.grids()
    state = evolve.initial_state(cfg, sgrid, vgrid)
    tables = landau.build_collision_tables(vgrid, cfg.gamma)
    ctx = diag.DiagContext(sgrid, vgrid, tables, macro_micro.MacroProjector(vgrid), cfg)
    snap = diag.SpectralSnapshot(ctx, state, report=True)
    y0 = diag.y0_functional(ctx, snap)
    rep = diag.build_report(ctx, snap)
    print(f"preset {cfg.preset!r} initial data:")
    print(f"  Y0 smallness functional   {y0:.10e}")
    print(f"  ||f||^2                   {rep.norm_f_sq:.10e}")
    print(f"  field energy              {rep.field_energy:.10e}")
    print(f"  E_N (N={cfg.n_max})             {rep.e_n:.10e}")
    print(f"  H^-s norms (f, E, B)      {rep.hneg_f:.6e} {rep.hneg_e:.6e} {rep.hneg_b:.6e}")
    print(f"  gauss residual            {rep.gauss_residual:.3e}")
    print(f"  div B                     {rep.div_b:.3e}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_args(p):
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--preset", help="named scenario preset")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmlkit",
        description="two-species Vlasov-Maxwell-Landau perturbation toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and write diagnostics")
    _add_config_args(p)
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--out", help="directory for report.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit-decay", help="log-log decay fit of a CSV column")
    p.add_argument("csv", help="diagnostics CSV path")
    p.add_argument("column", help="column name to fit")
    p.add_argument("--window", help="t0:t1 fit window (default: auto)")
    p.add_argument("--k", type=int, default=0, help="derivative band index")
    p.add_argument("--s-exp", type=float, default=0.5, dest="s_exp",
                   help="negative Sobolev index s")
    p.add_argument("--out", help="directory for decay_fit.json")
    p.set_defaults(func=cmd_fit_decay)

    p = sub.add_parser("norms", help="norm/functional table of preset initial data")
    _add_config_args(p)
    p.set_defaults(func=cmd_norms)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
