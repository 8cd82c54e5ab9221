"""Whole small runs pinned against recorded output.

Each run in ``RUNS`` is integrated with ``evolve.run`` and compared with
``tests/data/golden_runs.json``: every ``diagnostics.csv`` column, the
``MonitorSeries`` arrays and the ``fluid_residuals`` values of the macro
snapshots at its report steps (``oracles.fluid_history``, whose final state
must be the run's bit for bit).  A change to the diagnostics or the stepper
that moves any of them past round-off fails here.

Re-record (only when a change is meant to move the numbers, and say so):

    PYTHONPATH=src python tests/test_golden_runs.py
"""

import json
import math
import os

import numpy as np
import pytest

from vmlkit import evolve
from vmlkit.diagnostics import FunctionalReport
from vmlkit.macro_micro import fluid_residuals

from oracles import fluid_history

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_runs.json")

RUNS = {
    # direct solver on a two-axis box, the monitor on every step
    "linearized_monitor": dict(n_x=8, n_v=8, active_axes=(0, 1), dt=0.1, t_end=0.6,
                               report_every=3, monitor_every=1),
    # matrix-free CG with the force and Gamma terms, a report every step;
    # cg_tol 1e-15 puts the CG stopping error far inside REL (a run at
    # 1e-16 reads 0.004 of the allowance), so the recording pins the
    # solution, not the iterates
    "nonlinear_cg": dict(n_x=8, n_v=8, mode="nonlinear", collision_solver="cg",
                         cg_tol=1e-15, dt=0.1, t_end=0.4, report_every=1,
                         monitor_every=2),
    # direct solver with the force and Gamma terms on a two-axis box: the
    # quadratic terms carry the broadband modes 1-2 of axis 0 into its
    # Nyquist bin, so the cosine Nyquist phase of transport is pinned here
    "nonlinear_direct": dict(n_x=8, n_v=8, active_axes=(0, 1), mode="nonlinear",
                             collision_solver="direct", dt=0.1, t_end=0.4,
                             report_every=1, monitor_every=2),
}

REL = 1e-12
# values whose round-off scales with larger terms, not with themselves: each
# is compared to REL times the recorded scale of those terms.  lyap_delta is
# dE/dt plus the mean d_proxy, two nearly cancelling terms; the others are a
# zero mode of f, E or B, div B, or the residual of div E = a_+ - a_-.
SCALE_OF = {"lyap_delta_": "scale.lyap", "zmode_f": "scale.f", "zmode_e": "scale.em",
            "zmode_b": "scale.em", "div_b": "scale.em", "gauss_residual": "scale.charge"}


def outputs(name: str) -> dict:
    cfg = evolve.RunConfig(**RUNS[name])
    result = evolve.run(cfg)
    cols = FunctionalReport.header(cfg.k_max)
    rows = np.array([rep.row(cfg.k_max) for rep in result.reports], dtype=float)
    t, e_k, d_k, d_proxy_k = result.monitor.as_arrays()
    sgrid = cfg.grids()[0]
    history, final = fluid_history(cfg)
    assert np.array_equal(final.f, result.final_state.f)
    assert np.array_equal(final.em.e_spec, result.final_state.em.e_spec)
    assert np.array_equal(final.em.b_spec, result.final_state.em.b_spec)
    assert final.t == result.final_state.t
    res = fluid_residuals(history, sgrid)
    out = {f"csv.{c}": rows[:, i].tolist() for i, c in enumerate(cols)}
    out.update({"monitor.t": t.tolist(), "monitor.e_k": e_k.tolist(),
                "monitor.d_k": d_k.tolist(), "monitor.d_proxy_k": d_proxy_k.tolist()})
    out.update({"fluid.continuity": res.continuity,
                "fluid.charge_continuity": res.charge_continuity,
                "fluid.b_equation": res.b_equation})
    out.update({f"fluid.per_time.{k}": v.tolist() for k, v in res.per_time.items()})
    # a fluid residual is a difference of time derivatives and divergences
    # of the macro fields, so its round-off scales with their size, not
    # with its own: this is that size, and REL of it the residuals' floor
    out["fluid.term_scale"] = max(
        math.sqrt(sgrid.norm2(x)) for s in history
        for x in (s.macro.a_plus, s.macro.a_minus, s.macro.b, s.mom.G,
                  s.b_micro, s.b_source)) / (history[1].t - history[0].t)
    out["scale.lyap"] = max(np.max(e_k) / np.min(np.diff(t)), np.max(d_proxy_k))
    out["scale.f"] = math.sqrt(max(out["csv.norm_f_sq"]))
    out["scale.em"] = math.sqrt(max(out["csv.field_energy"]))
    out["scale.charge"] = max(math.sqrt(sgrid.norm2(s.macro.a_plus - s.macro.a_minus))
                              for s in history)
    return out


def allowance(key: str, ref: np.ndarray, want: dict) -> np.ndarray:
    """The largest deviation from the recorded ``ref`` that counts as round-off."""
    name = key.split(".")[-1]
    floor = 0.0
    if key.startswith("fluid.") and key != "fluid.term_scale":
        floor = REL * want["fluid.term_scale"]
    for prefix, scale in SCALE_OF.items():
        if name.startswith(prefix):
            floor = REL * want[scale]
    return REL * np.abs(ref) + floor


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_recording(golden, name):
    want = golden[name]["values"]
    got = outputs(name)
    assert sorted(got) == sorted(want)
    for key, ref in want.items():
        ref = np.asarray(ref, dtype=float)
        val = np.asarray(got[key], dtype=float)
        assert val.shape == ref.shape, key
        nan = np.isnan(ref)
        assert np.array_equal(nan, np.isnan(val)), key
        err = np.abs(val[~nan] - ref[~nan])
        assert np.all(err <= allowance(key, ref[~nan], want)), (key, err.max())


if __name__ == "__main__":
    import scipy

    record = {}
    for run_name in sorted(RUNS):
        record[run_name] = {"config": {k: list(v) if isinstance(v, tuple) else v
                                       for k, v in RUNS[run_name].items()},
                            "values": outputs(run_name)}
    record["_provenance"] = (f"recorded with numpy {np.__version__}, "
                             f"scipy {scipy.__version__}")
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=True)
    print(f"wrote {DATA}")
