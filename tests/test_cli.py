import dataclasses
import json
import math
import os

import numpy as np
import pytest

from vmlkit import cli, evolve
from vmlkit import diagnostics as diag

FAST_OVERRIDES = [
    "--set", "n_x=8", "--set", "n_v=8", "--set", "t_end=0.3",
    "--set", "dt=0.1", "--set", "collision_solver=direct",
    "--set", "direct_max_nv=8", "--set", "report_every=1",
    "--set", "monitor_every=0",
]


def run_cli(*argv):
    return cli.main(list(argv))


class TestConfigHandling:
    def test_unknown_key_rejected_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[grids]\nn_x = 8\nn_elephants = 2\n")
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert "n_elephants" in err
        assert ":3:" in err  # line-precise message

    def test_manifest_sections_cover_every_config_field(self):
        keys = [key for keys in cli.SECTIONS.values() for key in keys]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(evolve.RunConfig))

    def test_bad_value_rejected(self, tmp_path, capsys):
        rc = run_cli("simulate", "--set", "dt=banana", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert "dt" in err
        assert "banana" in err

    @pytest.mark.parametrize("settings, key", [
        (["n_v=6"], "n_v"),
        (["n_x=0"], "n_x"),
        (["v_max=-1"], "v_max"),
        (["collision_solver=direct", "n_v=20"], "n_v"),
        (["report_every=0"], "report_every"),
        (["box_length=-1"], "box_length"),
        (["amplitude=nan"], "amplitude"),
        (["amplitude=1e300"], "amplitude"),
        (["monitor_every=-1"], "monitor_every"),
        (["checkpoint_every=-2"], "checkpoint_every"),
        (["beta_max=-1"], "beta_max"),
        (["collision_solver=cg", "cg_tol=0"], "cg_tol"),
        (["n_modes=0"], "n_modes"),
        (["seed=-1"], "seed"),
    ], ids=["coarse_n_v", "n_x", "v_max", "direct_past_limit", "report_every",
            "box_length", "amplitude", "amplitude_huge", "monitor_every",
            "checkpoint_every", "beta_max", "cg_tol", "n_modes", "seed"])
    def test_bad_grid_rejected(self, tmp_path, capsys, settings, key):
        argv = ["simulate", "--out", str(tmp_path)]
        for item in settings:
            argv += ["--set", item]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert key in err
        assert not (tmp_path / "manifest.cfg").exists()

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
                     "--set", "direct_max_nv=8", "--set", "report_every=2")
        assert rc == 0
        header, data = cli.read_csv(str(out / "diagnostics.csv"))
        col = data[:, header.index("norm_f_sq")]
        assert np.all(np.diff(col) <= 1e-14)

    def test_vacuum_preset_energy_column_constant(self, tmp_path):
        out = tmp_path / "vac"
        rc = run_cli("simulate", "--preset", "vacuum-maxwell", "--out", str(out),
                     "--set", "n_v=8", "--set", "dt=0.05", "--set", "t_end=2.0",
                     "--set", "collision_solver=direct",
                     "--set", "direct_max_nv=8", "--set", "report_every=5",
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
