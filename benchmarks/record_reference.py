"""Record the reference outputs the benchmark compares runs against.

    python3 benchmarks/record_reference.py [WORKLOAD ...]

Run from the repository root.  For each workload (default: all) it runs
``simulate`` once at the default seed and stores, under
``benchmarks/reference/<workload>/``, the ``diagnostics.csv`` byte for byte
and ``final.json``: the SHA-256 of ``checkpoints/final.bin`` with a small
fingerprint of it (see ``run.final_fingerprint``) for reporting deviations.
Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv: list) -> int:
    root = os.getcwd()
    threads = len(os.sched_getaffinity(0))
    for name in argv or sorted(run.WORKLOADS):
        cfg = run.WORKLOADS[name]["set"]
        out_dir = os.path.join(root, ".bench_runs", "reference", name)
        cmd = run.worker_cmd(run.WORKLOADS[name], run.DEFAULT_SEED, out_dir, threads,
                             traced=False)
        run.subprocess.run(cmd, cwd=root, env=run.child_env(root, threads), check=True,
                           capture_output=True, timeout=run.RUN_TIMEOUT_S)
        dest = os.path.join(run.REFERENCE_DIR, name)
        os.makedirs(dest, exist_ok=True)
        shutil.copyfile(os.path.join(out_dir, "diagnostics.csv"),
                        os.path.join(dest, "diagnostics.csv"))
        final = os.path.join(out_dir, "checkpoints", "final.bin")
        with open(os.path.join(dest, "final.json"), "w") as fh:
            json.dump({"seed": run.DEFAULT_SEED, "sha256": run._sha256(final),
                       "fingerprint": run.final_fingerprint(final, cfg["n_x"], cfg["n_v"])},
                      fh)
            fh.write("\n")
        shutil.rmtree(out_dir)
        print(f"recorded {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
