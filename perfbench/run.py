"""mtcat benchmark: one workload, one seed, timed or traced.

Run from the root of an mtcat checkout:

    python3 perfbench/run.py --workload gauge_sweep_k8 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the workload closed loop (one client, the next
item sent only after the previous one returns) and reports the end-to-end
metrics; with ``--trace 1`` it runs the workload once untraced and once under
the span tracer and reports the per-layer metrics.  Every item passes through
the workload's correctness gate.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Inputs, the run record and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# A timed run repeats set-up at least SETUP_REPS times and for at least
# SETUP_SECONDS; setup_s is the median, so a cheap set-up gets enough samples.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
CALIB_REPS = 5  # drift-probe samples before and after the workload
IMPORT_REPS = 5  # interpreter starts per side for cli.import_ms
WORKDIR = ".perfbench_out"

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics read from the spans of mtcat functions: (metric, function,
# kind).  "self": median over traced items of the function's self time;
# "calls": calls per traced item; "setup_*": the same, from the traced set-up.
SPAN_METRICS = (
    ("catalog.generate_ms", "catalog.generate", "setup_self"),
    ("catalog.q_racah_6j_calls", "catalog.q_racah_6j", "setup_calls"),
    ("io.loads_ms", "io.loads", "self"),
    ("io.category_from_dict_ms", "io.category_from_dict", "self"),
    ("io.run_report_self_ms", "io.run_report", "self"),
    ("io.content_hash_ms", "io.content_hash", "self"),
    ("io.dumps_ms", "io.dumps", "self"),
    ("io.category_to_dict_ms", "io.category_to_dict", "self"),
    ("io.report_to_json_ms", "io.report_to_json", "self"),
    ("fusion_ring.validate_ring_ms", "fusion_ring.validate_ring", "self"),
    ("fusion_ring.validate_ring_calls", "fusion_ring.validate_ring", "calls"),
    ("category_data.validate_symbols_ms", "category_data.validate_symbols", "self"),
    ("category_data.f_matrix_calls", "category_data.f_matrix", "calls"),
    ("category_data.pentagon_residual_ms", "category_data.pentagon_residual", "self"),
    ("category_data.pentagon_residual_calls", "category_data.pentagon_residual", "calls"),
    ("category_data.hexagon_residual_ms", "category_data.hexagon_residual", "self"),
    ("category_data.hexagon_residual_calls", "category_data.hexagon_residual", "calls"),
    ("category_data.triangle_residual_ms", "category_data.triangle_residual", "self"),
    ("category_data.gauge_transform_ms", "category_data.gauge_transform", "self"),
    ("category_data.random_gauge_ms", "category_data.random_gauge", "self"),
    ("category_data.rigidity_scalar_calls", "category_data.rigidity_scalar", "calls"),
    ("ribbon_modular.quantum_dimensions_calls", "ribbon_modular.quantum_dimensions", "calls"),
    ("ribbon_modular.check_modular_self_ms", "ribbon_modular.check_modular", "self"),
    ("ribbon_modular.ribbon_residual_ms", "ribbon_modular.ribbon_residual", "self"),
    ("ribbon_modular.s_matrix_unnormalized_ms", "ribbon_modular.s_matrix_unnormalized", "self"),
    ("ribbon_modular.s_matrix_balanced_ms", "ribbon_modular.s_matrix_balanced", "self"),
)
# Per-layer metrics measured another way: metric -> unit.
OTHER_METRICS = {
    "cli.import_ms": "ms",
    "cli.process_ms": "ms",
    "io.input_bytes": "bytes",
    "io.report_bytes": "bytes",
    "category_data.f_keys": "count",
    "category_data.r_keys": "count",
    "machine.calib_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mtcat", "__init__.py")):
        print("perfbench: no src/mtcat here; run from the root of an mtcat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # numpy asks for transparent huge pages on arrays of 4 MB and more; whether
    # the kernel has one free varies from minute to minute and moved peak RSS
    # by up to 14 % between runs of the same code.  Turn it off here (before
    # numpy is imported) and, through the environment, in the CLI children.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    from workloads import WORKLOADS  # imports mtcat from src/

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    record = run_record(root, args)
    print("run record: " + json.dumps(record, sort_keys=True))
    calib = calib_ms(CALIB_REPS)
    runner = Runner(workload)
    if args.trace:
        metrics, spans = traced_run(runner, args.seconds)
    else:
        metrics, spans = timed_run(runner, args.seconds), None
    calib_after = calib_ms(CALIB_REPS)
    print(f"machine.calib_ms before {statistics.median(calib):.2f} ms, "
          f"after {statistics.median(calib_after):.2f} ms (median of {CALIB_REPS} each)")
    if args.trace:
        metrics["machine.calib_ms"] = (statistics.median(calib + calib_after),
                                       f"median of {2 * CALIB_REPS} probes")

    attempted = len(runner.samples)
    failed = sum(not s.ok for s in runner.samples)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} items failed the gate)")
    for bad in [x for x in runner.samples if not x.ok][:5]:
        print(f"  failure: item {bad.pos}: {bad.note}")
    for name, (value, how) in metrics.items():
        print(f"{name:<42} {value:>14.4f} {unit_of(name):<6} {how}")

    stem = os.path.join(workdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "metrics": metrics,
                   "samples": [[s.seconds, s.ok, s.note] for s in runner.samples]}, fh)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, (v, _) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in OTHER_METRICS:
        return OTHER_METRICS[name]
    return "count" if name.endswith("_calls") else "ms"


class Runner:
    """Runs items of one workload closed loop and keeps every sample."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = []  # every item run, warm-ups included; all are gated
        self.pos = 0  # next item position

    def setup(self, reps: int, seconds: float = 0.0) -> list[float]:
        times = []
        while len(times) < reps or sum(times) < seconds:
            start = time.perf_counter()
            self.workload.setup()
            times.append(time.perf_counter() - start)
        return times

    def warm_up(self) -> None:
        wl = self.workload
        self.run_items(len(wl.cycle) if wl.in_process else 1)

    def run_items(self, count=None, seconds=None, tracer=None) -> list:
        """Run ``count`` items, or whole cycles until ``seconds`` have passed."""
        from workloads import Sample

        done = []
        cycle = len(self.workload.cycle)
        deadline = time.perf_counter() + (seconds or 0.0)
        while count is None or len(done) < count:
            if tracer is not None:
                tracer.item = self.pos
            start = time.perf_counter()
            try:
                sample = self.workload.run(self.pos, tracer)
            except Exception:  # an item that raises fails its gate; the run goes on
                note = traceback.format_exc().strip().splitlines()[-1]
                sample = Sample(time.perf_counter() - start, False, note)
            sample.pos = self.pos
            self.pos += 1
            done.append(sample)
            if count is None and time.perf_counter() >= deadline and (
                tracer is None or len(done) % cycle == 0
            ):
                break
        self.samples += done
        return done


def timed_run(runner: Runner, seconds: float) -> dict:
    wl = runner.workload
    setup = runner.setup(SETUP_REPS, SETUP_SECONDS)
    runner.warm_up()
    timed = runner.run_items(seconds=seconds)
    times = [s.seconds for s in timed]
    n = len(times)
    passed = sum(s.ok for s in timed)
    if wl.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss_how = "peak RSS of this process (set-up and items)"
    else:
        rss_mb = statistics.median(s.rss_kb for s in timed) / 1024
        rss_how = f"median over n={n} CLI children of each child's peak RSS"
    print(f"item_tail_ms {tail_text(times)}")
    return {
        "items_per_s": (passed / sum(times),
                        f"{passed} passing items / {sum(times):.3f} s of work by n={n} items"),
        "item_p50_ms": (statistics.median(times) * 1e3, f"p50 of n={n} items"),
        "peak_rss_mb": (rss_mb, rss_how),
        "setup_s": (statistics.median(setup), f"p50 of n={len(setup)} set-ups"),
    }


def tail_text(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, or why there is none."""
    n = len(times)
    ordered = sorted(times)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            value = ordered[math.ceil(p / 100.0 * n) - 1] * 1e3
            return f"{value:.4f} ms (p{p:g} of n={n} items)"
    return f"omitted: n={n} items leaves fewer than 10 beyond p90"


def traced_run(runner: Runner, seconds: float):
    from spans import Tracer, per_item

    wl = runner.workload
    tracer = Tracer()
    tracer.item = "setup"
    tracer.install()
    runner.setup(1)
    tracer.uninstall()
    runner.warm_up()
    plain = runner.run_items(seconds=seconds / 2)
    if wl.in_process:
        tracer.install()
    traced = runner.run_items(seconds=seconds / 2, tracer=tracer)
    tracer.uninstall()

    items = per_item(tracer.spans)
    positions = [s.pos for s in traced]
    n = len(positions)
    metrics, absent = {}, []
    for metric, fn, kind in SPAN_METRICS:
        if kind.startswith("setup"):
            per = [items.get("setup", {}).get(fn, (0, 0))]
        else:
            per = [items.get(p, {}).get(fn, (0, 0)) for p in positions]
        if fn not in tracer.names:
            absent.append(f"{metric} ({fn} not defined)")
        elif not any(c for c, _ in per):
            absent.append(f"{metric} ({fn} not called by this workload)")
        if kind == "setup_self":
            metrics[metric] = (per[0][1] / 1e6, "self time of one traced set-up")
        elif kind == "setup_calls":
            metrics[metric] = (float(per[0][0]), "calls in one traced set-up")
        elif kind == "self":
            value = statistics.median(ns for _, ns in per) / 1e6
            metrics[metric] = (value, f"self time per item, p50 of n={n} traced items")
        else:
            metrics[metric] = (sum(c for c, _ in per) / n, f"calls per item over n={n} items")

    if wl.in_process:
        metrics["cli.import_ms"] = (0.0, "absent: in-process workload")
        metrics["cli.process_ms"] = (0.0, "absent: in-process workload")
    else:
        metrics["cli.import_ms"] = (import_ms(wl.env), f"p50 of n={IMPORT_REPS} "
                                    "'import mtcat' starts minus p50 of 'pass' starts")
        main_ns = {}
        for name, start, end, parent, item in tracer.spans:
            if name == "cli.main" and parent < 0:
                main_ns[item] = main_ns.get(item, 0) + end - start
        outside = [s.seconds - main_ns.get(s.pos, 0) / 1e9 for s in traced]
        metrics["cli.process_ms"] = (statistics.median(outside) * 1e3,
                                     f"item wall minus cli.main, p50 of n={n} items")
    metrics["io.input_bytes"] = (wl.input_bytes, "mean over the input cycle")
    metrics["io.report_bytes"] = (statistics.median(s.report_bytes for s in traced),
                                  f"p50 of n={n} reports")
    metrics["category_data.f_keys"] = (wl.f_keys, "mean over the input cycle")
    metrics["category_data.r_keys"] = (wl.r_keys, "mean over the input cycle")
    plain_p50 = statistics.median(s.seconds for s in plain)
    traced_p50 = statistics.median(s.seconds for s in traced)
    metrics["trace.overhead_frac"] = (
        traced_p50 / plain_p50 - 1.0,
        f"p50 of n={n} traced items / p50 of n={len(plain)} untraced items - 1",
    )
    for line in absent:
        print(f"absent: {line}")
    return metrics, tracer.spans


def import_ms(env) -> float:
    """Interpreter start with ``import mtcat`` minus a bare start, alternating."""
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for code, out in (("pass", bare), ("import mtcat", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            out.append(time.perf_counter() - start)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def calib_ms(reps: int) -> list[float]:
    """Drift probe: a fixed pure-Python loop plus a fixed numpy kernel, in ms.

    Reported on its own so a slow machine shows as a slow machine; it never
    rescales another metric.
    """
    import numpy as np

    base = np.random.default_rng(0).standard_normal((128, 128))
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        mat = base
        for _ in range(60):
            mat = np.tanh(mat @ mat * (1.0 / 128))
        out.append((time.perf_counter() - start) * 1e3)
    return out


def run_record(root: str, args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "mtcat", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in blas_env},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
