"""One benchmark run: a single ``vmlkit simulate`` call in this process.

    python3 benchmarks/worker.py --out DIR --threads N [--trace] -- SIMULATE_ARGS...

The caller (``benchmarks/run.py``) starts one worker per run, one at a
time.  The worker calls ``vmlkit.cli.main`` in-process, times it, and
writes ``DIR/result.json``:

- ``wall_s``: from calling ``simulate`` until it returns;
- ``setup_s``: from calling ``simulate`` until the ``evolve.Stepper`` is
  built (one marker wrapped around ``Stepper.__init__``);
- ``n_steps``, ``peak_rss_mb`` and the return code;
- with ``--trace``, the per-layer figures in ``layers`` (see ``layer_metrics``)
  and every span in ``DIR/spans.csv``.

Tracing wraps the public functions and methods of each ``vmlkit`` module by
attribute replacement; nothing under ``src/vmlkit`` is edited.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time

MODULES = ("phase_grid", "landau", "macro_micro", "maxwell", "evolve",
           "diagnostics", "cli")


class Tracer:
    """Spans (name, start, end, parent) kept in memory for one run."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Replace every public function and method of the package's modules."""
        replaced = {}
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        # names bound by ``from .module import name`` elsewhere in the package
        for short in MODULES + (None,):
            module = package if short is None else getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def self_times(self, counted: frozenset) -> list:
        """Span duration minus the time its child spans cover.

        Only spans named in ``counted`` count as children; any other span is
        transparent, so the spans below it count as children of its nearest
        counted ancestor.
        """
        n = len(self.names)
        owner = [-1] * n   # nearest counted ancestor
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent < 0:
                continue
            owner[i] = parent if self.names[parent] in counted else owner[parent]
            if self.names[i] in counted and owner[i] >= 0:
                child[owner[i]] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(n)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")


# metric prefix -> span name; each gives ``<prefix>_calls`` and ``<prefix>_s``
COUNTED = {
    "phase_grid.forward": "phase_grid.SpatialGrid.forward",
    "phase_grid.inverse": "phase_grid.SpatialGrid.inverse",
    "landau.apply_A": "landau.apply_A",
    "landau.apply_K": "landau.apply_K",
    "landau.apply_Gamma": "landau.apply_Gamma",
    "landau.apply_L": "landau.apply_L",
    "evolve.step": "evolve.Stepper.step",
    "macro_micro.project": "macro_micro.MacroProjector.project",
    "macro_micro.moments": "macro_micro.moments",
    "maxwell.current_density": "maxwell.current_density",
    "diagnostics.monitor_row": "diagnostics.monitor_row",
    "diagnostics.build_report": "diagnostics.build_report",
    "diagnostics.macro_snapshot": "diagnostics.macro_snapshot",
    "diagnostics.densities": "diagnostics.SnapshotCache.densities",
}

# metric -> span name, self seconds only
TIMED = {
    "landau.build_collision_tables_s": "landau.build_collision_tables",
    "landau.dense_A_s": "landau.dense_A",
    "landau.dense_K_s": "landau.dense_K",
    "evolve.transport_half_s": "evolve.Stepper.transport_half",
    "evolve.field_force_half_s": "evolve.Stepper.field_force_half",
    "evolve.collision_advance_s": "evolve.CollisionStepper.advance",
    "evolve.save_checkpoint_s": "evolve.save_checkpoint",
    "macro_micro.projector_init_s": "macro_micro.MacroProjector.__init__",
    "maxwell.make_compatible_s": "maxwell.make_compatible",
    "cli.write_manifest_s": "cli.write_manifest",
    "cli.write_csv_s": "cli.write_csv",
}

# metric -> span name, inclusive seconds (the span with everything under it)
INCLUSIVE = {
    "evolve.stepper_init_s": "evolve.Stepper.__init__",
    "evolve.step_total_s": "evolve.Stepper.step",
    "evolve.collision_advance_total_s": "evolve.CollisionStepper.advance",
    "landau.apply_L_total_s": "landau.apply_L",
    "diagnostics.monitor_row_total_s": "diagnostics.monitor_row",
    "diagnostics.build_report_total_s": "diagnostics.build_report",
    "diagnostics.macro_snapshot_total_s": "diagnostics.macro_snapshot",
}

LAYER_SPANS = frozenset(COUNTED.values()) | frozenset(TIMED.values()) | \
    frozenset(INCLUSIVE.values())


def _under(tracer: Tracer, idx: int, ancestor: str) -> bool:
    parent = tracer.parents[idx]
    while parent >= 0:
        if tracer.names[parent] == ancestor:
            return True
        parent = tracer.parents[parent]
    return False


def computed_figures(stepper) -> dict:
    """Work figures worked out from array shapes, not measured."""
    import numpy as np

    cfg = stepper.config
    n = cfg.n_v
    n3 = n ** 3
    points = cfg.n_x ** len(cfg.active_axes)
    direct = stepper.collision.method == "direct"
    # dense_K multiplies each dense n3 x n3 convolution matrix by a weighted
    # stencil matrix with n^2 * nnz(dmat) non-zeros; the dense product does
    # n3^3 multiply-adds where only n3 * nnz are useful
    nnz = n * n * int(np.count_nonzero(stepper.tables.dmat))
    useful_ratio = nnz / n3 ** 2 if direct else 0.0
    # two (points x n3) @ (n3 x n3) products per collision substep
    flop = 2 * 2 * points * n3 * n3 if direct else 0
    gemm_bytes = 2 * 8 * (2 * points * n3 + n3 * n3) if direct else 0
    ckpt_bytes = 64 + 8 * 2 * points * n3 + 2 * 16 * 3 * points
    return {"landau.dense_K_useful_ratio": useful_ratio,
            "evolve.collision_gemm_flop_per_step": flop,
            "evolve.collision_gemm_bytes_per_step": gemm_bytes,
            "evolve.checkpoint_bytes": ckpt_bytes}


def layer_metrics(tracer: Tracer, computed: dict) -> dict:
    """Per-run figures of each layer, from the spans of one traced run.

    A layer's self time subtracts only the other layer spans below it: the
    time of helper functions in between stays with the layer that called
    them.
    """
    selfs = tracer.self_times(LAYER_SPANS)
    calls: dict = {}
    self_s: dict = {}
    total: dict = {}
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        total[name] = total.get(name, 0.0) + tracer.ends[i] - tracer.starts[i]

    out: dict = {}
    for prefix, span in COUNTED.items():
        out[f"{prefix}_calls"] = calls.get(span, 0)
        out[f"{prefix}_s"] = self_s.get(span, 0.0)
    for metric, span in TIMED.items():
        out[metric] = self_s.get(span, 0.0)
    for metric, span in INCLUSIVE.items():
        out[metric] = total.get(span, 0.0)
    # the propagator build is Stepper construction less the two dense
    # assemblies, i.e. the two many-right-hand-side solves
    out["evolve.propagator_solve_s"] = (
        out["evolve.stepper_init_s"] - out["landau.dense_A_s"] - out["landau.dense_K_s"])

    # CG iterations are not exposed: each solve applies its operator 2 +
    # iterations times (right-hand side, initial residual, one per
    # iteration); the sum solve applies A and K, the difference solve A only
    per_advance: dict = {}
    transforms_in_step = 0
    densities_in_report = 0
    for i, name in enumerate(tracer.names):
        parent = tracer.parents[i]
        if name in ("landau.apply_A", "landau.apply_K") and parent >= 0 and \
                tracer.names[parent] == "evolve.CollisionStepper.advance":
            counts = per_advance.setdefault(parent, [0, 0])
            counts[name == "landau.apply_K"] += 1
        elif name in ("phase_grid.SpatialGrid.forward", "phase_grid.SpatialGrid.inverse"):
            transforms_in_step += _under(tracer, i, "evolve.Stepper.step")
        elif name == "diagnostics.SnapshotCache.densities":
            densities_in_report += _under(tracer, i, "diagnostics.build_report")
    if per_advance:
        out["evolve.cg_iters_sum"] = statistics.median(k - 2 for a, k in per_advance.values())
        out["evolve.cg_iters_diff"] = statistics.median(
            a - k - 2 for a, k in per_advance.values())
    else:
        out["evolve.cg_iters_sum"] = out["evolve.cg_iters_diff"] = 0

    steps = out["evolve.step_calls"]
    reports = out["diagnostics.build_report_calls"]
    out["phase_grid.transforms_per_step"] = transforms_in_step / steps if steps else 0.0
    out["diagnostics.densities_per_report"] = densities_in_report / reports if reports else 0.0

    out.update(computed)
    advance_s = out["evolve.collision_advance_s"]
    flop = out["evolve.collision_gemm_flop_per_step"]
    out["evolve.collision_gflop_per_s"] = (
        flop * calls.get("evolve.CollisionStepper.advance", 0) / advance_s / 1e9
        if flop and advance_s > 0 else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("simulate_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sim_args = [a for a in args.simulate_args if a != "--"]

    import vmlkit
    from vmlkit import cli, evolve, landau

    # scipy.fft workers inside the collision operator: at most one per core
    landau._WORKERS = min(landau._WORKERS, args.threads)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(vmlkit)

    marks: dict = {}
    build_stepper = evolve.Stepper.__init__

    @functools.wraps(build_stepper)
    def marked_init(self, *a, **kw):
        build_stepper(self, *a, **kw)
        marks.setdefault("setup_end", time.perf_counter())
        marks.setdefault("stepper", self)

    evolve.Stepper.__init__ = marked_init

    t0 = time.perf_counter()
    rc = cli.main(["simulate", *sim_args, "--out", args.out])
    wall = time.perf_counter() - t0

    stepper = marks.get("stepper")
    result = {
        "rc": rc,
        "wall_s": wall,
        "setup_s": marks["setup_end"] - t0 if stepper else None,
        "n_steps": int(round(stepper.config.t_end / stepper.config.dt)) if stepper else 0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "scipy_fft_workers": landau._WORKERS,
    }
    if stepper is not None:
        result["computed"] = computed_figures(stepper)
    if tracer is not None and stepper is not None:
        result["layers"] = layer_metrics(tracer, result["computed"])
        tracer.write(os.path.join(args.out, "spans.csv"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
