"""Scenario benchmark for ``vmlkit simulate``.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One load-generating process (this one)
starts ``benchmarks/worker.py`` runs one at a time, each in its own
process, each a single ``vmlkit simulate`` of the workload with ``--seed``
set to the given seed: a closed loop with one client.  It keeps starting
runs until ``--seconds`` have passed, then reports the median over runs.

With ``--trace 0`` it prints the end-to-end metrics (``wall_s``,
``setup_s``, ``steps_per_s``, ``peak_rss_mb``; ``fail_rate`` is the share
of runs that failed and is reported through ``attempted``/``failed``).
With ``--trace 1`` it alternates untraced and traced runs and prints the
per-layer figures of the traced runs plus the tracing overhead.  Every run's
outputs are checked (see ``check_run``); the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The Lyapunov and decay acceptance scenarios (``tests/test_acceptance.py``)
run at ``n_v=16``, whose direct collision propagator alone takes about a
minute to build.  The workloads below keep their solver, cadences and ``dt``
on smaller grids, so that set-up fits many times into one measurement, and
shorten ``t_end``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 7            # RunConfig.seed; the reference outputs use it
RUN_TIMEOUT_S = 100         # one simulate run; longer counts as failed
# worst deviation from the reference, relative to the column's largest
# magnitude, that still counts as correct when outputs are not bit-identical
REFERENCE_TOL = 1e-10
# div B and the initial Gauss residual are zero up to round-off
ROUNDOFF = 1e-10
# after t = 0 the Gauss residual is Strang splitting error, not round-off:
# it grows as dt^2 per unit time relative to sqrt(e_n); all three workloads
# stay below 0.011 dt^2 t sqrt(e_n) on every seed tried, so 0.1 leaves a
# margin of nine
GAUSS_FACTOR = 0.1
# Lyapunov monitor allowance of acceptance criterion 7: 10 dt^2 * scale
LYAP_FACTOR = 10.0
# columns that are round-off or a difference of nearly equal numbers; they
# are checked by property, never by deviation from the reference
PROPERTY_COLUMNS = ("gauss_residual", "div_b", "zmode_f", "zmode_e", "zmode_b")

WORKLOADS = {
    "lyapunov": {
        "why": "monitor every step makes diagnostics the bulk of the loop; "
               "the dense collision propagator is most of set-up",
        "preset": "default-linearized",
        "set": {"n_x": 32, "n_v": 10, "dt": 0.05, "collision_solver": "direct",
                "monitor_every": 1, "report_every": 10, "t_end": 1.0},
    },
    "decay": {
        "why": "no monitor: the direct Strang step (GEMM, transport FFTs) "
               "shares the loop with 10-step reports",
        "preset": "default-linearized",
        "set": {"n_x": 64, "n_v": 10, "dt": 0.1, "collision_solver": "direct",
                "monitor_every": 0, "report_every": 10, "n_modes": 21,
                "t_end": 2.0},
    },
    "nonlinear-cg": {
        "why": "matrix-free CG collision and apply_Gamma at n_v=20, past the "
               "direct limit: no dense propagator, no monitor",
        "preset": "default-nonlinear",
        "set": {"n_x": 8, "n_v": 20, "dt": 0.05, "collision_solver": "cg",
                "monitor_every": 0, "report_every": 10, "t_end": 0.1},
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
# per-layer figures worked out from array shapes rather than measured
COMPUTED = ("landau.dense_K_useful_ratio", "evolve.collision_gemm_flop_per_step",
            "evolve.collision_gemm_bytes_per_step", "evolve.checkpoint_bytes")


def simulate_args(workload: dict, seed: int) -> list:
    args = ["--preset", workload["preset"], "--seed", str(seed)]
    for key, value in workload["set"].items():
        args += ["--set", f"{key}={value}"]
    return args


def layer_unit(name: str) -> str:
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_per_step"):
        return "B"
    if name.endswith("flop_per_step"):
        return "flop"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _sysconf(name: str):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _cache_bytes(level: int):
    """Size of the level-2 or level-3 cache seen by CPU 0, in bytes."""
    size = _sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    if size:
        return size
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
            return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    except (OSError, ValueError):
        pass
    return None


def _git_commit(root: str) -> str:
    git_dir = os.path.join(root, ".git")
    if not os.path.isdir(git_dir):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def _blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(root: str, threads: int) -> dict:
    import numpy as np
    import scipy

    page = _sysconf("SC_PAGE_SIZE") or 0
    pages = _sysconf("SC_PHYS_PAGES") or 0
    src = os.path.join(root, "src", "vmlkit")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    return {
        "cpu": _cpu_model(),
        "nproc": threads,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "ram_bytes": page * pages,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": threads,
        "scipy_fft_workers": None,  # filled from the runs
        "git_commit": _git_commit(root),
        "src_vmlkit_lines": lines,
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def final_fingerprint(path: str, n_x: int, n_v: int) -> dict:
    """Velocity moments of f per species and x, and the field spectra."""
    import numpy as np

    with open(path, "rb") as fh:
        fh.seek(64)
        f = np.frombuffer(fh.read(8 * 2 * n_x * n_v ** 3), dtype="<f8").reshape(
            2, n_x, n_v, n_v * n_v)
        e = np.frombuffer(fh.read(16 * 3 * n_x), dtype="<c16")
        b = np.frombuffer(fh.read(16 * 3 * n_x), dtype="<c16")
    ramp = np.arange(n_v) - 0.5 * (n_v - 1)
    return {
        "f_sum": f.sum(axis=(-2, -1)).ravel().tolist(),
        "f_ramp": (f.sum(axis=-1) @ ramp).ravel().tolist(),
        "f_sq": (f ** 2).sum(axis=(-2, -1)).ravel().tolist(),
        "e_re": e.real.tolist(), "e_im": e.imag.tolist(),
        "b_re": b.real.tolist(), "b_im": b.imag.tolist(),
    }


def _worst_deviation(ref, new) -> float:
    scale = max((abs(x) for x in ref), default=0.0)
    if scale == 0.0:
        return max((abs(y) for y in new), default=0.0)
    return max(abs(x - y) for x, y in zip(ref, new)) / scale


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(name: str, workload: dict, seed: int, out_dir: str,
              result: dict) -> tuple:
    """Return (problems, note) for one finished simulate run."""
    problems = []
    cfg = workload["set"]
    dt = cfg["dt"]
    n_steps = int(round(cfg["t_end"] / dt))
    every = cfg["report_every"]
    if result.get("rc") != 0:
        return [f"simulate returned {result.get('rc')}"], ""

    ref_dir = os.path.join(REFERENCE_DIR, name)
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    header, rows = _read_csv(csv_path)
    ref_header, ref_rows = _read_csv(os.path.join(ref_dir, "diagnostics.csv"))
    if header != ref_header:
        return ["diagnostics.csv header differs from the reference"], ""
    expect_rows = 1 + n_steps // every + (1 if n_steps % every else 0)
    if len(rows) != expect_rows:
        problems.append(f"{len(rows)} report rows, expected {expect_rows}")
    col = {h: i for i, h in enumerate(header)}
    lyap = [h for h in header if h.startswith("lyap_delta_")]
    e_cols = [h for h in header if h.startswith("e_k_") and not h.startswith("e_k_w")]
    p_cols = [h for h in header if h.startswith("d_proxy_")]
    for r, row in enumerate(rows):
        bad = [h for h in header if h not in lyap and not math.isfinite(row[col[h]])]
        if bad:
            problems.append(f"row {r}: non-finite {bad[:3]}")
            continue
        if row[col["div_b"]] > ROUNDOFF:
            problems.append(f"row {r}: div_b {row[col['div_b']]:.3e} above round-off")
        gauss_cap = max(ROUNDOFF, GAUSS_FACTOR * dt * dt * row[col["t"]]
                        * math.sqrt(row[col["e_n"]]))
        if row[col["gauss_residual"]] > gauss_cap:
            problems.append(f"row {r}: gauss_residual {row[col['gauss_residual']]:.3e} "
                            f"above {gauss_cap:.3e}")
        scale = max(row[col[h]] for h in e_cols + p_cols)
        allowance = LYAP_FACTOR * dt * dt * scale
        for h in lyap:
            if math.isfinite(row[col[h]]) and row[col[h]] > allowance:
                problems.append(f"row {r}: {h} {row[col[h]]:.3e} above allowance "
                                f"{allowance:.3e}")
    if rows and abs(rows[-1][col["t"]] - n_steps * dt) > 1e-9 * max(1.0, n_steps * dt):
        problems.append(f"last report at t={rows[-1][col['t']]}, expected {n_steps * dt}")

    final = os.path.join(out_dir, "checkpoints", "final.bin")
    expect_bytes = result.get("computed", {}).get("evolve.checkpoint_bytes")
    if not os.path.exists(final):
        return problems + ["checkpoints/final.bin missing"], ""
    if os.path.getsize(final) != expect_bytes:
        problems.append(f"final.bin is {os.path.getsize(final)} bytes, expected {expect_bytes}")
        return problems, ""
    with open(final, "rb") as fh:
        magic, _, n_active, n_x, n_v, step, _ = struct.unpack("<8sIIIIQd", fh.read(40))
    if (magic, n_active, n_x, n_v, step) != (b"VMLCKPT1", 1, cfg["n_x"], cfg["n_v"], n_steps):
        problems.append(f"final.bin descriptor {(magic, n_active, n_x, n_v, step)} does not "
                        f"match the run")
    fingerprint = final_fingerprint(final, cfg["n_x"], cfg["n_v"])
    if not all(math.isfinite(x) for values in fingerprint.values() for x in values):
        problems.append("final.bin holds non-finite values")

    if seed != DEFAULT_SEED:
        return problems, "properties checked (no reference for this seed)"
    with open(os.path.join(ref_dir, "final.json")) as fh:
        ref_final = json.load(fh)
    with open(csv_path, "rb") as fh, open(os.path.join(ref_dir, "diagnostics.csv"), "rb") as rh:
        csv_same = fh.read() == rh.read()
    bin_same = _sha256(final) == ref_final["sha256"]
    if csv_same and bin_same:
        return problems, "bit-identical to the reference"
    deviations = {}
    if not csv_same:
        for h in header:
            if h in PROPERTY_COLUMNS or h in lyap:
                continue
            deviations[h] = _worst_deviation([row[col[h]] for row in ref_rows],
                                             [row[col[h]] for row in rows])
    if not bin_same:
        for key, values in ref_final["fingerprint"].items():
            deviations[f"final.{key}"] = _worst_deviation(values, fingerprint[key])
    worst = max(deviations, key=deviations.get)
    if deviations[worst] > REFERENCE_TOL:
        problems.append(f"{worst} deviates {deviations[worst]:.3e} from the reference "
                        f"(tolerance {REFERENCE_TOL:.0e})")
    note = "worst relative deviation per column: " + ", ".join(
        f"{k} {v:.2e}" for k, v in sorted(deviations.items(), key=lambda kv: -kv[1]))
    return problems, note


# ---------------------------------------------------------------------------
# load generator
# ---------------------------------------------------------------------------


def child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def worker_cmd(workload: dict, seed: int, out_dir: str, threads: int,
               traced: bool) -> list:
    """Command line of one worker run; ``out_dir`` is emptied first."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out_dir,
           "--threads", str(threads)]
    if traced:
        cmd.append("--trace")
    return cmd + ["--"] + simulate_args(workload, seed)


def one_run(root: str, name: str, seed: int, out_dir: str, traced: bool,
            threads: int) -> dict:
    """Start one worker, wait for it, check its outputs."""
    workload = WORKLOADS[name]
    cmd = worker_cmd(workload, seed, out_dir, threads, traced)
    record = {"traced": traced, "ok": False}
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root, threads),
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["problems"] = [f"run exceeded {RUN_TIMEOUT_S} s"]
        return record
    result_path = os.path.join(out_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        record["problems"] = [f"worker exited {proc.returncode}: {' | '.join(tail)}"]
        return record
    with open(result_path) as fh:
        result = json.load(fh)
    record.update(result)
    try:
        problems, note = check_run(name, workload, seed, out_dir, result)
        with open(os.path.join(out_dir, "diagnostics.csv"), "rb") as fh:
            record["csv_bytes"] = fh.read()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems, note = [f"outputs unreadable: {exc!r}"], ""
    record["problems"] = problems
    record["note"] = note
    record["ok"] = not problems
    if record["ok"]:
        shutil.rmtree(out_dir, ignore_errors=True)
    return record


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def measure(root: str, name: str, seed: int, seconds: float, trace: bool,
            threads: int) -> list:
    """Closed loop, one client: runs back to back until ``seconds`` pass.

    With ``trace`` the runs alternate untraced, traced, untraced, ...
    """
    base = os.path.join(root, ".bench_runs", name)
    records = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        out_dir = os.path.join(base, f"run{len(records):03d}{'-traced' if traced else ''}")
        records.append(one_run(root, name, seed, out_dir, traced, threads))
        enough = time.perf_counter() - start >= seconds
        if enough and (not trace or len(records) >= 2):
            break
    return records


def _timed(record: dict) -> bool:
    # a run whose outputs fail the check still timed a full simulate
    return record.get("rc") == 0 and record.get("setup_s") is not None


def summarize(records: list) -> dict:
    plain = [r for r in records if _timed(r) and not r["traced"]]
    traced = [r for r in records if _timed(r) and r["traced"]]
    # one seed, one output: tracing or repeating a run must not change it
    outputs = [r for r in records if "csv_bytes" in r]
    for r in outputs[1:]:
        if r["csv_bytes"] != outputs[0]["csv_bytes"]:
            r["ok"] = False
            r["problems"].append("diagnostics.csv differs from the first run's")
    failed = sum(not r["ok"] for r in records)
    problems = [p for r in records for p in r.get("problems", [])]

    e2e = {}
    for r in plain:
        r["steps_per_s"] = r["n_steps"] / (r["wall_s"] - r["setup_s"])
    for metric in END_TO_END:
        values = [r[metric] for r in plain]
        if values:
            e2e[metric] = {"median": statistics.median(values), "spread": spread(values),
                           "n": len(values)}
    layers = {}
    if traced:
        for metric in traced[0]["layers"]:
            layers[metric] = statistics.median(r["layers"][metric] for r in traced)
        # each traced run against the untraced run just before it, so a slow
        # spell of the machine falls on both sides of a difference
        pairs = [(a, b) for a, b in zip(records[::2], records[1::2])
                 if _timed(a) and _timed(b)]
        if pairs:
            layers["trace.overhead_s"] = statistics.median(
                b["wall_s"] - a["wall_s"] for a, b in pairs)
    return {"attempted": len(records), "failed": failed, "problems": problems,
            "notes": sorted({r["note"] for r in records if r.get("note")}),
            "e2e": e2e, "layers": layers,
            "fft_workers": next((r["scipy_fft_workers"] for r in records
                                 if "scipy_fft_workers" in r), None)}


def report(name: str, summary: dict, trace: bool) -> dict:
    """Print one workload's figures; return its metrics for the JSON line."""
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"== {name}: {attempted} runs, {failed} failed")
    print(f"   {'fail_rate':<14} {failed / attempted:>12.6g} share of runs")
    for note in summary["notes"]:
        print(f"   output check: {note}")
    for problem in summary["problems"][:10]:
        print(f"   FAILED: {problem}")
    metrics = {}
    for metric, unit in END_TO_END.items():
        if metric in summary["e2e"]:
            s = summary["e2e"][metric]
            print(f"   {metric:<14} {s['median']:>12.6g} {unit:<4} median of {s['n']}, "
                  f"IQR/median {s['spread']:.3f}")
            if not trace:
                metrics[metric] = {"value": s["median"], "unit": unit}
    if trace:
        for metric, value in summary["layers"].items():
            unit = layer_unit(metric)
            label = " (computed)" if metric in COMPUTED else ""
            print(f"   {metric:<40} {value:>14.6g} {unit}{label}")
            metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vmlkit scenario benchmark")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join(root, "src", "vmlkit", "cli.py"), REFERENCE_DIR]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = environment(root, threads)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    for name in names:
        records = measure(root, name, args.seed, args.seconds, bool(args.trace), threads)
        results[name] = summarize(records)
    if not any(s["e2e"] for s in results.values()):
        print("error: no run finished; nothing to report", file=sys.stderr)
        for s in results.values():
            for problem in s["problems"][:5]:
                print(f"  {problem}", file=sys.stderr)
        return 1

    env["scipy_fft_workers"] = next(s["fft_workers"] for s in results.values())
    print(f"environment: {json.dumps(env)}")
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    metrics = {}
    for name in names:
        m = report(name, results[name], bool(args.trace))
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    attempted = sum(s["attempted"] for s in results.values())
    failed = sum(s["failed"] for s in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
