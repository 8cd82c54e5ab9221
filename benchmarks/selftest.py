"""Self-test of the benchmark harness on tiny grids (about ten seconds).

    python3 benchmarks/selftest.py

Run from the repository root.  For each workload's code path (direct solver
with the monitor, direct without it, nonlinear CG) on an ``n_x=8, n_v=8``
grid it checks that:

- an untraced and a traced run both pass the output checks, and their
  ``diagnostics.csv`` files are byte for byte the same;
- every metric named in ``BENCHMARK.json`` is emitted with its unit, and
  the tracing overhead is reported;
- in the span tree, children lie inside their parent's interval and their
  durations never add up to more than the parent's, so no self time is
  negative.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import run

TINY = {"n_x": 8, "n_v": 8}
TINY_T_END = {"lyapunov": 0.1, "decay": 0.2, "nonlinear-cg": 0.05}
SEED = 3
EPS = 1e-9


def fail(msg: str) -> None:
    raise SystemExit(f"selftest FAILED: {msg}")


def check_metrics(name: str, emitted: dict, declared: list) -> None:
    for entry in declared:
        got = emitted.get(entry["name"])
        if got is None:
            fail(f"{name}: metric {entry['name']} not emitted")
        if got["unit"] != entry["unit"]:
            fail(f"{name}: {entry['name']} has unit {got['unit']}, declared {entry['unit']}")
    extra = set(emitted) - {entry["name"] for entry in declared}
    if extra:
        fail(f"{name}: undeclared metrics {sorted(extra)}")


def check_spans(path: str) -> int:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    start = [float(r["start"]) for r in rows]
    end = [float(r["end"]) for r in rows]
    child_sum = [0.0] * len(rows)
    for i, r in enumerate(rows):
        parent = int(r["parent"])
        if parent < 0:
            continue
        if start[i] < start[parent] - EPS or end[i] > end[parent] + EPS:
            fail(f"span {i} {r['name']} lies outside its parent {rows[parent]['name']}")
        child_sum[parent] += end[i] - start[i]
    for i, r in enumerate(rows):
        if child_sum[i] > end[i] - start[i] + EPS:
            fail(f"children of span {i} {r['name']} exceed it")
    return len(rows)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    threads = len(os.sched_getaffinity(0))
    for name, workload in run.WORKLOADS.items():
        workload["set"].update(TINY, t_end=TINY_T_END[name])
        records = run.measure(root, name, SEED, 0.0, True, threads)
        summary = run.summarize(records)
        if summary["failed"]:
            fail(f"{name}: {summary['problems']}")
        check_metrics(name, run.report(name, summary, False), bench["end_to_end"])
        layers = run.report(name, summary, True)
        check_metrics(name, layers, bench["per_layer"])
        if "trace.overhead_s" not in layers:
            fail(f"{name}: tracing overhead not reported")

        out_dir = os.path.join(root, ".bench_runs", "selftest", name)
        cmd = run.worker_cmd(workload, SEED, out_dir, threads, traced=True)
        run.subprocess.run(cmd, cwd=root, env=run.child_env(root, threads), check=True,
                           capture_output=True, timeout=run.RUN_TIMEOUT_S)
        spans = check_spans(os.path.join(out_dir, "spans.csv"))
        shutil.rmtree(out_dir)
        print(f"selftest {name}: ok ({spans} spans)")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
