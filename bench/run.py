"""Benchmark runner for orliczkit's claim bundles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One process, one
thread per BLAS/OpenMP pool, and no subprocess: CLI bundles call
``orliczkit.cli.main`` in-process with stdout captured.

The runner runs passes over the workload's fixed bundle list until
``--seconds`` have elapsed, checking every output.  Before each pass it
imports orliczkit afresh and generates the inputs from ``--seed`` again,
outside the pass timer, so every pass does the work a single
``run_example`` or CLI invocation does.  With ``--trace 1`` the first half
of the time runs untraced passes and the second half traced ones, with
every public function of the package wrapped in a span recorder; it
reports the per-layer metrics of the traced passes plus the tracing
overhead.  The end-to-end metrics come from untraced passes only.

Human-readable lines go first; the last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Inputs, outputs,
the full report and the recorded spans are left under ``.bench_work/``.
"""

from __future__ import annotations

import os
import sys
import time

#: Thread pools are pinned before numpy loads so timings do not depend on
#: how many cores other processes leave free.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("gallery_maximal", "pipeline_checks", "norms_io")

#: Least number of warm set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def set_up(workload: str, seed: int, work: str):
    """Import orliczkit afresh and generate the workload's inputs.

    Every ``orliczkit`` module (and ``workloads``, which binds them) is
    dropped from ``sys.modules`` first, so no state of the package -- a
    module-level cache, say -- lasts from one pass into the next.  numpy
    and scipy stay loaded.  Returns the bundles and the set-up time.
    """
    for name in [n for n in sys.modules
                 if n in ("orliczkit", "workloads")
                 or n.startswith("orliczkit.")]:
        del sys.modules[name]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gc.collect()  # the previous pass's garbage, outside both timers
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    bundles = workloads.BUILDERS[workload](seed, work)
    return bundles, time.perf_counter() - start


def run_pass(bundles, recorder=None) -> dict:
    """One pass over every bundle of the workload, each output checked."""
    latencies, failures = [], []
    start = time.perf_counter()
    for i, bundle in enumerate(bundles):
        if recorder is not None:
            recorder.bundle = i
        t = time.perf_counter()
        out = bundle.call()
        latencies.append(time.perf_counter() - t)
        problems = bundle.check(out)
        if problems:
            failures.append({"bundle": bundle.label, "problems": problems,
                             "known": set(problems) <= bundle.known})
        if recorder is not None:
            recorder.counters["conditions.mismatches"] += sum(
                p.startswith(("check ", "claim ")) for p in problems)
            if bundle.out_dir:
                recorder.counters["cli.bytes_written"] += \
                    _dir_bytes(bundle.out_dir)
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "failures": failures}


def measure(args, work: str, seconds: float, traced: bool):
    """Passes until ``seconds`` have elapsed (at least one), each on a
    fresh set-up made outside the pass timer.  Traced passes record spans
    with a new ``tracer.Recorder`` entered after the set-up.  Returns the
    passes and the set-up times."""
    passes, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        bundles, setup_s = set_up(args.workload, args.seed, work)
        setups.append(setup_s)
        if traced:
            with tracer.Recorder() as rec:
                result = run_pass(bundles, rec)
            result["layers"] = rec.layer_metrics()
            result["spans"] = rec.span_records()
        else:
            result = run_pass(bundles)
        passes.append(result)
        if time.perf_counter() >= deadline:
            return passes, setups


def _pass_mean(passes, q: float) -> float:
    """Mean over passes of each pass's ``q``-th percentile bundle latency.

    Timings on a shared host alternate between a fast and a slow state
    that lasts from seconds to minutes.  A percentile pooled over the run
    jumps between the two as their shares change, while this mean moves in
    proportion to them, so it spreads about half as much from run to run.
    """
    return statistics.fmean(float(numpy.percentile(p["latencies"], q))
                            for p in passes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orliczkit", "__init__.py")):
        print(f"error: no orliczkit package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_work", args.workload)
    # the first import also loads the scipy modules orliczkit needs; it is
    # reported but kept out of setup_s, which is the median warm set-up
    cold_setup_s = set_up(args.workload, args.seed, work)[1]
    orliczkit = sys.modules["orliczkit"]
    if os.path.dirname(os.path.dirname(os.path.abspath(
            orliczkit.__file__))) != SRC:
        print(f"error: imported orliczkit from {orliczkit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    passes, setups = measure(args, work, untraced_s, traced=False)
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(args.workload, args.seed, work)[1])
    traced = []
    if args.trace:
        traced = measure(args, work, args.seconds - untraced_s,
                         traced=True)[0]

    bundles_per_pass = len(passes[0]["latencies"])
    everything = passes + traced
    attempted = bundles_per_pass * len(everything)
    failures = [f for p in everything for f in p["failures"]]
    correct = all(f["known"] for f in failures)
    latencies = [x for p in passes for x in p["latencies"]]
    walls = [p["wall_s"] for p in passes]
    wall_s = statistics.fmean(walls)
    p90 = _pass_mean(passes, 90)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "bundle_p50_ms": 1e3 * _pass_mean(passes, 50),
        "bundle_p90_ms": 1e3 * p90,
        "ok_ratio": 1.0 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name]
                                             for p in traced)
        layers["trace.wall_s"] = statistics.fmean(p["wall_s"]
                                                  for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s

    failed_ratio = len(failures) / attempted
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "threads_per_pool": int(THREADS),
                "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "orliczkit": orliczkit.__version__},
        "bundles_per_pass": bundles_per_pass,
        "passes": len(passes), "traced_passes": len(traced),
        "latency_samples": len(latencies),
        "p90_samples_beyond": sum(x > p90 for x in latencies),
        "setups_s": setups, "cold_setup_s": cold_setup_s,
        "pass_walls_s": walls,
        "failed_ratio": failed_ratio,
        "failures": failures,
        "end_to_end": e2e, "per_layer": layers,
    }
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if traced:
        with open(os.path.join(work, "spans.jsonl"), "w") as fh:
            for k, p in enumerate(traced):
                for s in p["spans"]:
                    fh.write(json.dumps({"pass": k, **s}) + "\n")

    env = report["env"]
    print(f"workload {args.workload}  seed {args.seed}  nproc {env['nproc']}"
          f"  threads/pool {THREADS}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}")
    print(f"  {len(passes)} untraced passes of {bundles_per_pass} bundles, "
          f"{len(latencies)} latency samples "
          f"({report['p90_samples_beyond']} beyond p90), {len(setups)} "
          f"warm set-ups, cold set-up {cold_setup_s:.4g} s")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':<16} {failed_ratio:14.6g} "
          f"({len(failures)} of {attempted} bundles)")
    distinct = collections.Counter(
        (f["bundle"], "; ".join(f["problems"]), f["known"]) for f in failures)
    for (bundle, problems, known), n in distinct.items():
        tag = "known defect" if known else "UNEXPECTED"
        print(f"  failed x{n} [{tag}] {bundle}: {problems}")
    for name, value in layers.items():
        print(f"  {name:<32} {value:14.6g} {units[name]}")

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
