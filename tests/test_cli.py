import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vmlkit import cli, evolve
from vmlkit import diagnostics as diag

FAST_OVERRIDES = [
    "--set", "n_x=8", "--set", "n_v=8", "--set", "t_end=0.3",
    "--set", "dt=0.1", "--set", "collision_solver=direct",
    "--set", "report_every=1",
    "--set", "monitor_every=0",
]


def run_cli(*argv):
    return cli.main(list(argv))


# One or more bad values of every RunConfig field, as (test id, --set items):
# each exits 2 with a one-line message that names the field
BAD_VALUES = {
    "n_x": [("n_x", ["n_x=0"])],
    "box_length": [("box_length", ["box_length=-1"])],
    "active_axes": [("active_axes", ["active_axes=3"])],
    "n_v": [("coarse_n_v", ["n_v=6"]),
            ("direct_past_limit", ["collision_solver=direct", "n_v=20"])],
    "v_max": [("v_max", ["v_max=-1"])],
    "gamma": [("gamma", ["gamma=-1"])],
    "s_exp": [("s_exp", ["s_exp=2.0"])],
    "q": [("q", ["q=-1"])],
    "theta": [("theta", ["theta=-1"])],
    "ell": [("ell", ["ell=-1"])],
    "ell0": [("ell0", ["ell0=-1"])],
    "lprime": [("lprime", ["lprime=-1"])],
    "eps0": [("eps0_zero", ["eps0=0"]), ("eps0", ["eps0=-1"])],
    "dt": [("dt", ["dt=0"])],
    "t_end": [("t_end", ["t_end=-1"])],
    "mode": [("mode", ["mode=banana"])],
    "collision_solver": [("collision_solver", ["collision_solver=banana"])],
    "cg_tol": [("cg_tol", ["collision_solver=cg", "cg_tol=0"])],
    "preset": [("preset", ["preset=banana"])],
    "amplitude": [("amplitude", ["amplitude=nan"]), ("amplitude_huge", ["amplitude=1e300"])],
    "seed": [("seed", ["seed=-1"])],
    "n_modes": [("n_modes", ["n_modes=0"])],
    "asym_fraction": [("asym_fraction", ["asym_fraction=-1"])],
    "micro_fraction": [("micro_fraction", ["micro_fraction=-0.5"])],
    "b_fraction": [("b_fraction", ["b_fraction=-2"])],
    "couple_fields": [("couple_fields", ["couple_fields=maybe"])],
    "n_max": [("n_max", ["n_max=-1"])],
    "n0": [("n0", ["n0=-1"])],
    "k_max": [("k_max", ["k_max=-1"])],
    "beta_max": [("beta_max", ["beta_max=-1"])],
    "report_every": [("report_every", ["report_every=0"])],
    "monitor_every": [("monitor_every", ["monitor_every=-1"])],
    "checkpoint_every": [("checkpoint_every", ["checkpoint_every=-2"])],
    # no longer a field (the direct solver's size is a constant): an unknown key
    "direct_max_nv": [("unknown_direct_max_nv", ["direct_max_nv=8"])],
}

# the rows in field order, then the keys that are no field; a field without
# a row is a failing row of its own
FIELDS = [f.name for f in dataclasses.fields(evolve.RunConfig)]
BAD_ROWS = [pytest.param(settings, key, id=test_id)
            for key in FIELDS + [key for key in BAD_VALUES if key not in FIELDS]
            for test_id, settings in BAD_VALUES.get(key, [(f"{key}_no_row", None)])]


class TestConfigHandling:
    def test_unknown_key_rejected_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[grids]\nn_x = 8\nn_elephants = 2\n")
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert "n_elephants" in err
        assert ":3:" in err  # line-precise message

    def test_old_manifest_key_rejected_with_line(self, tmp_path, capsys):
        # manifests written while the direct solver's size was a setting
        # name it in [integrator]; it is now an unknown key like any other
        cfg = tmp_path / "manifest.cfg"
        cfg.write_text("[integrator]\ndt = 0.1\ncollision_solver = auto\ndirect_max_nv = 16\n")
        out = tmp_path / "run"
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.strip().splitlines()) == 1
        assert f"{cfg}:4: unknown config key 'direct_max_nv'" in err
        assert not out.exists()

    def test_manifest_sections_cover_every_config_field(self):
        keys = [key for keys in cli.SECTIONS.values() for key in keys]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(evolve.RunConfig))

    def test_bad_value_rejected(self, tmp_path, capsys):
        rc = run_cli("simulate", "--set", "dt=banana", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert "dt" in err
        assert "banana" in err

    @pytest.mark.parametrize("settings, key", BAD_ROWS)
    def test_bad_grid_rejected(self, tmp_path, capsys, settings, key):
        assert settings is not None, f"RunConfig field {key} has no bad-value row"
        argv = ["simulate", "--out", str(tmp_path)]
        for item in settings:
            argv += ["--set", item]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert key in err
        assert not (tmp_path / "manifest.cfg").exists()

    @pytest.mark.parametrize("setting", ["n_max=0"])
    def test_edge_values_accepted(self, tmp_path, capsys, setting):
        # the smallest value that still means something: an unweighted energy
        # family of order 0.  It runs to the end and writes its outputs
        rc = run_cli("simulate", "--out", str(tmp_path), "--set", "n_x=4", "--set", "n_v=8",
                     "--set", "dt=0.05", "--set", "t_end=0.1", "--set", setting)
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "manifest.cfg").exists()
        # the header and the reports at t = 0 and t = 0.1
        with open(tmp_path / "diagnostics.csv") as fh:
            assert len(fh.read().strip().splitlines()) == 3
        assert (tmp_path / "checkpoints" / "final.bin").exists()

    @pytest.mark.parametrize("dt", ["0.3", "0.5", "0.15"])
    def test_t_end_not_a_whole_number_of_steps(self, tmp_path, capsys, dt):
        # 0.2 / 0.3 used to round to one step and report past t_end, 0.2 / 0.5
        # to zero steps; both exited 0
        out = tmp_path / "run"
        rc = run_cli("simulate", "--out", str(out), "--set", "n_v=8", "--set", "n_x=8",
                     "--set", "t_end=0.2", "--set", f"dt={dt}")
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "t_end" in err and "whole number of steps" in err
        assert not (out / "manifest.cfg").exists()

    def test_invalid_physics_rejected(self, capsys):
        rc = run_cli("simulate", "--set", "s_exp=2.0", "--out", "/tmp/x")
        assert rc == 2

    def test_unknown_preset_rejected(self, capsys):
        rc = run_cli("simulate", "--preset", "warpcore", "--out", "/tmp/x")
        assert rc == 2


class TestSimulate:
    def test_outputs_and_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "run1"
        rc = run_cli("simulate", "--out", str(out1), *FAST_OVERRIDES)
        assert rc == 0
        assert sorted(os.listdir(out1)) == ["checkpoints", "diagnostics.csv",
                                            "manifest.cfg"]
        # exactly one manifest; re-running from it reproduces bytes
        out2 = tmp_path / "run2"
        rc = run_cli("simulate", "--config", str(out1 / "manifest.cfg"),
                     "--out", str(out2))
        assert rc == 0
        csv1 = (out1 / "diagnostics.csv").read_bytes()
        csv2 = (out2 / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        assert (out1 / "manifest.cfg").read_bytes() == \
            (out2 / "manifest.cfg").read_bytes()

    def test_seed_determinism_and_divergence(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        for out, seed in ((a, "5"), (b, "5"), (c, "6")):
            rc = run_cli("simulate", "--out", str(out), "--seed", seed,
                         *FAST_OVERRIDES)
            assert rc == 0
        assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
        assert (a / "diagnostics.csv").read_bytes() != (c / "diagnostics.csv").read_bytes()

    def test_relaxation_preset_monotone_column(self, tmp_path):
        out = tmp_path / "relax"
        rc = run_cli("simulate", "--preset", "relaxation", "--out", str(out),
                     "--set", "n_v=8", "--set", "dt=0.1", "--set", "t_end=1.0",
                     "--set", "collision_solver=direct",
                     "--set", "report_every=2")
        assert rc == 0
        header, data = cli.read_csv(str(out / "diagnostics.csv"))
        col = data[:, header.index("norm_f_sq")]
        assert np.all(np.diff(col) <= 1e-14)

    def test_vacuum_preset_energy_column_constant(self, tmp_path):
        out = tmp_path / "vac"
        rc = run_cli("simulate", "--preset", "vacuum-maxwell", "--out", str(out),
                     "--set", "n_v=8", "--set", "dt=0.05", "--set", "t_end=2.0",
                     "--set", "collision_solver=direct",
                     "--set", "report_every=5",
                     "--set", "monitor_every=0")
        assert rc == 0
        header, data = cli.read_csv(str(out / "diagnostics.csv"))
        col = data[:, header.index("field_energy")]
        assert np.abs(col / col[0] - 1.0).max() < 1e-6

    def test_resume_reproduces_full_run(self, tmp_path):
        full = tmp_path / "full"
        rc = run_cli("simulate", "--out", str(full), *FAST_OVERRIDES,
                     "--set", "checkpoint_every=1")
        assert rc == 0
        resumed = tmp_path / "resumed"
        ck = full / "checkpoints" / "step00000001.bin"
        rc = run_cli("simulate", "--out", str(resumed), "--resume", str(ck),
                     *FAST_OVERRIDES)
        assert rc == 0
        f1 = (full / "checkpoints" / "final.bin").read_bytes()
        f2 = (resumed / "checkpoints" / "final.bin").read_bytes()
        assert f1 == f2


class TestResumeFailsFast:
    """A checkpoint that cannot seed the run exits 2 with a message."""

    def test_checkpoint_past_last_step(self, tmp_path, capsys):
        longer = tmp_path / "longer"
        assert run_cli("simulate", "--out", str(longer), *FAST_OVERRIDES,
                       "--set", "t_end=0.4") == 0
        ck = longer / "checkpoints" / "final.bin"
        assert evolve.load_checkpoint(str(ck))[1] == 4
        capsys.readouterr()
        run = tmp_path / "run"
        rc = run_cli("simulate", "--out", str(run), "--resume", str(ck),
                     *FAST_OVERRIDES, "--set", "t_end=0.2")
        err = capsys.readouterr().err
        assert rc == 2
        assert str(ck) in err and "step 4" in err and "step 2" in err
        assert not (run / "diagnostics.csv").exists()
        assert not (run / "checkpoints" / "final.bin").exists()

    def test_checkpoint_dt_mismatch(self, tmp_path, capsys):
        # a step-4 checkpoint of a dt = 0.1 run is at t = 0.4; step 4 of a
        # dt = 0.05 run is at t = 0.2
        longer = tmp_path / "longer"
        assert run_cli("simulate", "--out", str(longer), *FAST_OVERRIDES,
                       "--set", "t_end=0.4") == 0
        ck = longer / "checkpoints" / "final.bin"
        assert evolve.load_checkpoint(str(ck))[1] == 4
        capsys.readouterr()
        run = tmp_path / "run"
        rc = run_cli("simulate", "--out", str(run), "--resume", str(ck),
                     *FAST_OVERRIDES, "--set", "dt=0.05", "--set", "t_end=0.4")
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert str(ck) in err and "t = 0.4" in err and "t = 0.2" in err
        assert not (run / "diagnostics.csv").exists()
        assert not (run / "checkpoints" / "final.bin").exists()

    def test_manifest_written_only_for_a_run_that_starts(self, tmp_path, capsys):
        # the dt-mismatched resume above exits 2 and leaves no manifest; a
        # resume that runs (exit 0) or aborts on a non-finite state (exit 3)
        # writes one
        longer = tmp_path / "longer"
        assert run_cli("simulate", "--out", str(longer), *FAST_OVERRIDES,
                       "--set", "t_end=0.4") == 0
        ck = longer / "checkpoints" / "final.bin"
        rejected = tmp_path / "rejected"
        assert run_cli("simulate", "--out", str(rejected), "--resume", str(ck),
                       *FAST_OVERRIDES, "--set", "dt=0.05", "--set", "t_end=0.4") == 2
        assert not (rejected / "manifest.cfg").exists()
        resumed = tmp_path / "resumed"
        assert run_cli("simulate", "--out", str(resumed), "--resume", str(ck),
                       *FAST_OVERRIDES, "--set", "t_end=0.5") == 0
        assert (resumed / "manifest.cfg").exists()
        state, step = evolve.load_checkpoint(str(ck))
        state.f[0, 1, 2, 3, 4] = np.nan
        bad = tmp_path / "bad.bin"
        evolve.save_checkpoint(str(bad), state, step)
        aborted = tmp_path / "aborted"
        assert run_cli("simulate", "--out", str(aborted), "--resume", str(bad),
                       *FAST_OVERRIDES, "--set", "t_end=0.5") == 3
        assert (aborted / "manifest.cfg").exists()

    def test_missing_checkpoint(self, tmp_path, capsys):
        missing = tmp_path / "nope.bin"
        rc = run_cli("simulate", "--out", str(tmp_path / "run"), "--resume",
                     str(missing), *FAST_OVERRIDES)
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_truncated_checkpoint(self, tmp_path, capsys):
        full = tmp_path / "full"
        assert run_cli("simulate", "--out", str(full), *FAST_OVERRIDES) == 0
        ck = tmp_path / "cut.bin"
        ck.write_bytes((full / "checkpoints" / "final.bin").read_bytes()[:5000])
        rc = run_cli("simulate", "--out", str(tmp_path / "run"), "--resume",
                     str(ck), *FAST_OVERRIDES)
        err = capsys.readouterr().err
        assert rc == 2
        assert str(ck) in err and "truncated" in err

    def test_grid_mismatch(self, tmp_path, capsys):
        small = tmp_path / "small"
        assert run_cli("simulate", "--out", str(small), *FAST_OVERRIDES) == 0
        ck = small / "checkpoints" / "final.bin"
        rc = run_cli("simulate", "--out", str(tmp_path / "run"), "--resume",
                     str(ck), *FAST_OVERRIDES, "--set", "n_x=16")
        err = capsys.readouterr().err
        assert rc == 2
        assert str(ck) in err
        assert "(2, 8, 8, 8, 8)" in err and "(2, 16, 8, 8, 8)" in err


@pytest.mark.parametrize("field", ["e_spec", "b_spec"])
def test_nonfinite_field_aborts(tmp_path, monkeypatch, capsys, field):
    # a step that keeps f finite but puts a NaN in E or B must still abort
    good_step = evolve.Stepper.step

    def bad_step(self, state):
        new = good_step(self, state)
        getattr(new.em, field)[0, 1] = np.nan
        return new

    monkeypatch.setattr(evolve.Stepper, "step", bad_step)
    rc = run_cli("simulate", "--out", str(tmp_path), *FAST_OVERRIDES)
    assert rc == 3
    # caught at the step that made it, before it reaches f one step later
    assert "non-finite state detected at step 1," in capsys.readouterr().err
    last_good, step = evolve.load_checkpoint(
        str(tmp_path / "checkpoints" / "last_good.bin"))
    assert step == 0
    assert np.all(np.isfinite(getattr(last_good.em, field)))


def test_contraction_violations_counted_and_warned(tmp_path, monkeypatch, capsys):
    # under pure relaxation the trapezoid substep never grows ||f||; a step
    # made to grow it is counted at every step, and the run still ends
    # normally with a warning line
    good_step = evolve.Stepper.step

    def growing_step(self, state):
        new = good_step(self, state)
        new.f *= 2.0
        return new

    monkeypatch.setattr(evolve.Stepper, "step", growing_step)
    rc = run_cli("simulate", "--out", str(tmp_path), *FAST_OVERRIDES,
                 "--set", "preset=relaxation")
    assert rc == 0
    err = capsys.readouterr().err
    assert err.splitlines() == ["warning: 3 contraction violations"]


def test_nonfinite_resume_exits_3(tmp_path, capsys):
    # a non-finite initial state aborts at the resume step, and the state
    # is written as last_good.bin under that step index
    first = tmp_path / "first"
    assert run_cli("simulate", "--out", str(first), *FAST_OVERRIDES) == 0
    state, step = evolve.load_checkpoint(str(first / "checkpoints" / "final.bin"))
    state.f[0, 1, 2, 3, 4] = np.nan
    bad = tmp_path / "bad.bin"
    evolve.save_checkpoint(str(bad), state, step)
    capsys.readouterr()
    rc = run_cli("simulate", "--out", str(tmp_path / "run"), "--resume", str(bad),
                 *FAST_OVERRIDES)
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err and "non-finite" in err
    dumped, dumped_step = evolve.load_checkpoint(
        str(tmp_path / "run" / "checkpoints" / "last_good.bin"))
    assert dumped_step == step == 3
    assert np.isnan(dumped.f[0, 1, 2, 3, 4])


def test_cg_not_converged_exits_3(tmp_path, capsys):
    # a cg_tol no CG can reach aborts the run like a non-finite state: one
    # line naming cg_tol, and the state before the failed step is written
    out = tmp_path / "run"
    rc = run_cli("simulate", "--out", str(out), "--set", "n_x=8", "--set", "n_v=8",
                 "--set", "t_end=0.1", "--set", "dt=0.1",
                 "--set", "collision_solver=cg", "--set", "cg_tol=1e-300")
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err and "cg_tol" in err
    assert len(err.strip().splitlines()) == 1
    dumped, dumped_step = evolve.load_checkpoint(
        str(out / "checkpoints" / "last_good.bin"))
    assert dumped_step == 0 and dumped.t == 0.0
    assert not (out / "diagnostics.csv").exists()


class TestVerify:
    def test_single_suite_report(self, tmp_path, capsys):
        rc = run_cli("verify", "projection", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] projection/idempotent" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "projection" in payload["suites"]
        assert all(item["passed"] for item in payload["suites"]["projection"])

    def test_operator_suite_checks_the_exact_null_space(self, capsys):
        rc = run_cli("verify", "operator")
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] operator/exact_null_space: value 6.000e+00" in out

    def test_unknown_suite(self, capsys):
        rc = run_cli("verify", "transforms")  # warm path first
        assert rc == 0
        with pytest.raises(SystemExit):
            run_cli("verify", "nonsense")


class TestFitDecay:
    @pytest.fixture()
    def synthetic_csv(self, tmp_path):
        t = np.linspace(0.0, 40.0, 120)
        e0 = 2.0 * (1.0 + t) ** -0.5
        path = tmp_path / "series.csv"
        with open(path, "w") as fh:
            fh.write("t,e_k_0\n")
            for ti, vi in zip(t, e0):
                fh.write(f"{ti:.16e},{vi:.16e}\n")
        return path

    def test_power_law_recovered(self, synthetic_csv, tmp_path, capsys):
        rc = run_cli("fit-decay", str(synthetic_csv), "e_k_0",
                     "--window", "1:39", "--k", "0", "--s-exp", "0.5",
                     "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert "MATCH" in out
        assert "torus" in out  # caveat printed
        payload = json.loads((tmp_path / "decay_fit.json").read_text())
        assert payload["exponent"] == pytest.approx(-0.5, abs=0.01)
        assert payload["target"] == -0.5

    def test_k1_target_wiring(self, synthetic_csv, capsys):
        rc = run_cli("fit-decay", str(synthetic_csv), "e_k_0",
                     "--window", "1:39", "--k", "1", "--s-exp", "0.5")
        out = capsys.readouterr().out
        assert rc == 0
        assert "-1.50" in out
        assert "MISS" in out  # -0.5 series against the -1.5 target

    def test_missing_column(self, synthetic_csv, capsys):
        rc = run_cli("fit-decay", str(synthetic_csv), "e_k_9")
        assert rc == 2
        assert "e_k_9" in capsys.readouterr().err

    def test_short_window_rejected(self, synthetic_csv, capsys):
        rc = run_cli("fit-decay", str(synthetic_csv), "e_k_0",
                     "--window", "1:1.5")
        assert rc == 2

    @pytest.mark.parametrize("body", ["t,e_k_0\n0.0,1.0\n1.0,abc\n", "t,e_k_0\n",
                                      "t,e_k_0\n0.0\n1.0\n", None],
                             ids=["non_numeric_cell", "header_only", "short_rows",
                                  "missing_file"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, body):
        # exit 1 means a verification failure: a bad file is a usage error
        path = tmp_path / "series.csv"
        if body is not None:
            path.write_text(body)
        rc = run_cli("fit-decay", str(path), "e_k_0")
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


class TestNormsAndTables:
    def test_norms_prints_y0(self, capsys):
        rc = run_cli("norms", "--set", "n_x=8", "--set", "n_v=8")
        out = capsys.readouterr().out
        assert rc == 0
        assert "Y0" in out

    def test_norms_reads_one_snapshot(self, capsys, monkeypatch):
        # Y0 and the report come from the same report snapshot; the Y0 line
        # is the value pinned by test_evolve's small broadband regression
        built = []

        class Counted(diag.SpectralSnapshot):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("report"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(diag, "SpectralSnapshot", Counted)
        rc = run_cli("norms", "--set", "n_x=16", "--set", "n_v=8")
        out = capsys.readouterr().out
        assert rc == 0
        assert built == [True]
        assert f"Y0 smallness functional   {254.44874349759544:.10e}" in out


# columns that are round-off or a difference of nearly equal numbers (the
# benchmark's property columns): their relative size says nothing
ROUNDOFF_COLUMNS = ("gauss_residual", "div_b", "zmode_f", "zmode_e", "zmode_b")


def test_determinism_scope(tmp_path):
    # a run is bit-exact at a fixed BLAS thread count and equal to round-off
    # across counts: the direct propagator's block products depend on how
    # OpenBLAS splits them.  Each run is a fresh process with the thread
    # count set in its own environment, on a grid (n_v = 10) whose blocks
    # the threads do split
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

    def simulate(threads, name):
        out = tmp_path / name
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        args = ["simulate", "--preset", "default-linearized", "--out", str(out)]
        for item in ("n_x=32", "n_v=10", "dt=0.05", "t_end=0.25", "collision_solver=direct",
                     "monitor_every=1", "report_every=5"):
            args += ["--set", item]
        subprocess.run([sys.executable, "-c", "import sys; from vmlkit.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", *args],
                       env=env, check=True, capture_output=True, timeout=300)
        with open(out / "diagnostics.csv", "rb") as fh:
            csv_bytes = fh.read()
        with open(out / "checkpoints" / "final.bin", "rb") as fh:
            return csv_bytes, fh.read()

    one, two, again = simulate(1, "one"), simulate(2, "two"), simulate(2, "again")
    assert again == two
    head, *rows = [line.split(",") for line in one[0].decode().splitlines()]
    rows_two = [line.split(",") for line in two[0].decode().splitlines()[1:]]
    assert len(rows) == len(rows_two) == 2
    for j, name in enumerate(head):
        if name in ROUNDOFF_COLUMNS:
            continue
        a = np.array([float(r[j]) for r in rows])
        b = np.array([float(r[j]) for r in rows_two])
        finite = np.isfinite(a)
        assert np.array_equal(finite, np.isfinite(b)), name
        scale = np.abs(a[finite]).max(initial=0.0)
        assert np.abs(a[finite] - b[finite]).max(initial=0.0) <= 1e-14 * scale, name
