"""fgclock benchmark: one workload per run, single process, single thread.

    python3 bench/run.py --workload mc-rounds --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fgclock is imported from its
``src`` directory. With ``--trace 0`` the run times operations for
``--seconds`` (and at least ``MIN_OPS`` of them) and reports the
end-to-end metrics, with the gated times rescaled to a nominal host
speed that ``reference_kernel`` measures in the same run. With
``--trace 1`` it runs a fixed number of operations, derived from
``--seconds`` alone, twice each: untraced and then under the tracer of
``tracer.py``. It reports the per-layer counts
and self times and the tracing overhead, and writes the spans to
``.bench_out/spans-<workload>.npz``. The last line of standard output is
a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# Single-threaded numerics: cap BLAS/OpenMP pools before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 30
MIN_OPS = 100
#: Nominal seconds of one ``reference_kernel`` call; see ``reference_kernel``.
REF_S = 2e-3
#: Untraced runs stop taking new operations after this many seconds.
HARD_LIMIT_S = 120.0
MODULES = ("model", "estimators", "oracle", "experiments", "cli", "errors")

#: Spans whose calls and self times the traced run reports.
SPANS = (
    "model.simulate_paths", "model.simulate_observations",
    "estimators.fge_offset.recursive", "estimators.fge_offset.paper",
    "estimators.ml_offset", "estimators.backtrack_estimate",
    "estimators.backward_constants",
    "oracle.exact_map_active_set", "oracle.coordinate_ascent_map",
    "oracle.grid_max_marginal",
    "experiments.mse_vs_rounds", "experiments.to_csv", "cli.main",
)
COUNTS = ("model.draws", "estimators.rounds_in", "oracle.active_sets",
          "oracle.grid_cells", "oracle.errors", "experiments.cells",
          "experiments.failed_cells", "cli.bytes_written")


def load_fgclock():
    """Import fgclock afresh from the checkout's ``src`` directory."""
    for key in [k for k in sys.modules if k == "fgclock" or k.startswith("fgclock.")]:
        del sys.modules[key]
    pkg = importlib.import_module("fgclock")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "fgclock"):
        raise ImportError(f"fgclock imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        pkg=pkg, **{m: importlib.import_module(f"fgclock.{m}") for m in MODULES})


def setup(workload, seed, workdir):
    fg = load_fgclock()
    return workload(fg, seed, workdir)


_REF_BUF = [0.0] * 64
_REF_SUM = dict.fromkeys(range(64), 0.0)


def _ref_step(a, b):
    return a * 0.5 + b


def reference_kernel():
    """A fixed pure-Python loop that measures the host's current speed.

    On a shared two-vCPU Xeon host the speed of this single-threaded
    process drifted between levels up to 1.7x apart, over seconds to
    minutes, so raw throughput of the same code spread by 0.18-0.25 of
    its median over ten 30 s runs. The untraced run times this kernel
    before every set-up and operation, and the gated metrics rescale
    measured seconds by ``REF_S / mean kernel time`` of the same run:
    they read as seconds on a nominal host where the kernel takes
    ``REF_S``. The kernel allocates no container, so the program's heap
    and garbage collector cannot change its time.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(7000):
        y = _ref_step(float(i), 2.0) - 3.5
        j = i & 63
        _REF_BUF[j] = y
        _REF_SUM[j] = _REF_SUM[j] + y
        acc += _REF_BUF[(i * 7) & 63]
    return time.perf_counter() - t0


def run_op(wl, i):
    """One operation; an unexpected exception is a failure, not a crash."""
    t0 = time.perf_counter()
    try:
        return wl.run_op(i)
    except Exception:
        return Op(time.perf_counter() - t0, 0, [traceback.format_exc(limit=3)], 0)


def report_errors(i, errors):
    for err in errors[:3]:
        print(f"op {i} failed: {err}", file=sys.stderr)


def untraced(workload, seed, seconds, workdir):
    setup(workload, seed, workdir)  # warm-up: bytecode caches, first-touch pages
    setup_s, setup_ref_s = [], [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = setup(workload, seed, workdir)
        setup_s.append(time.perf_counter() - t0)
        setup_ref_s.append(reference_kernel())
    latencies, ref_s = [], []
    items = failed = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= HARD_LIMIT_S:
            break
        i = len(latencies)
        ref_s.append(reference_kernel())
        op = run_op(wl, i)
        latencies.append(op.seconds)
        items += op.items
        if op.errors:
            failed += 1
            report_errors(i, op.errors)
    final = wl.finish()
    report_errors("finish", final)
    failed += bool(final)
    attempted = len(latencies)
    to_nominal = REF_S / statistics.fmean(ref_s)
    # Each set-up is rescaled by the mean of the two kernel times around it.
    setup_norm_s = [2.0 * REF_S * t / (a + b)
                    for t, a, b in zip(setup_s, setup_ref_s, setup_ref_s[1:])]
    metrics = {
        "norm_items_per_s": (items / (to_nominal * sum(latencies)), "1/s"),
        "setup_s": (statistics.median(setup_norm_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed, not gated: measured wall-clock figures, not rescaled. Over
    # ten seeds on the host described in ``reference_kernel`` the raw
    # rate spread by up to 0.25 of its median and the latency percentiles
    # by up to 0.33, more than the largest bound a gated metric may have.
    items_per_s = items / sum(latencies)
    printed = {
        "items_per_s": (items_per_s, "1/s"),
        workload.rate_name: (items_per_s, f"{workload.item}/s"),
        "setup_raw_s": (statistics.median(setup_s), "s"),
        "ref_ms": (1e3 * statistics.fmean(ref_s), "ms"),
        "latency_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "latency_ms_p90": (1e3 * float(np.percentile(latencies, 90)), "ms"),
        "ops_failed_frac": (failed / attempted, "ratio"),
    }
    print(f"# {workload.name}: {attempted} operations timed, each of "
          f"{items / attempted:g} {workload.item}; setup_s is the median of "
          f"{SETUP_REPEATS} set-ups after a warm-up one; norm_items_per_s and "
          f"setup_s are rescaled to a host where the reference kernel takes "
          f"{1e3 * REF_S:g} ms")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name} = {value:.6g} {unit}")
    return attempted, failed, metrics


def traced(workload, seed, seconds, workdir):
    wl = setup(workload, seed, workdir)
    ops = max(10, round(seconds * workload.trace_ops_per_s))
    run_op(wl, ops)  # warm-up on an input of its own, neither timed nor traced
    tr = tracing.Tracer()
    targets = tracing.targets(wl.fg)
    plain_s = traced_s = 0.0
    attempted = failed = 0
    for i in range(ops):
        t0 = time.perf_counter()
        op = run_op(wl, i)
        plain_s += time.perf_counter() - t0
        tr.install(targets)
        try:
            t0 = time.perf_counter()
            traced_op = run_op(wl, i)
            traced_s += time.perf_counter() - t0
        finally:
            tr.uninstall()
        tr.counts["cli.bytes_written"] += traced_op.bytes_written
        for o in (op, traced_op):
            attempted += 1
            if o.errors:
                failed += 1
                report_errors(i, o.errors)
    final = wl.finish()
    report_errors("finish", final)
    failed += bool(final)

    summary = tr.summary()
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (summary["self_s"].get(name, 0.0), "s")
    for name in COUNTS:
        metrics[name] = (tr.counts.get(name, 0), "count")
    bc_calls = summary["calls"].get("estimators.backward_constants", 0)
    metrics["estimators.backward_constants.distinct_ratio"] = (
        len(tr.constant_keys) / bc_calls if bc_calls else 0.0, "ratio")
    metrics["oracle.grid_max_dev_steps"] = (getattr(wl, "max_grid_steps", 0.0), "steps")
    driver_s = traced_s - summary["root_s"]
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.driver_s"] = (driver_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")

    self_total = sum(summary["self_s"].values())
    if not (driver_s >= 0 and abs(self_total + driver_s - traced_s) <= 1e-6 * traced_s):
        print(f"trace accounting failed: self {self_total} + driver {driver_s} "
              f"!= wall {traced_s}", file=sys.stderr)
        failed += 1
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tr.write(os.path.join(ROOT, ".bench_out", f"spans-{workload.name}.npz"),
             {"workload": workload.name, "seed": seed, "ops": ops})
    print(f"# {workload.name}: {ops} operations, each run untraced then traced; "
          f"{summary['spans']} spans")
    print("# computed from argument and array sizes: " + ", ".join(tracing.COMPUTED_COUNTS))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "fgclock", "__init__.py")):
        print(f"error: no fgclock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced if args.trace else untraced
        attempted, failed, metrics = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
