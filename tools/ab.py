"""Paired A/B timings of two source checkouts, parent and change.

    python3 tools/ab.py PARENT CHANGE --workload W --seed S --pairs N --seconds T
    python3 tools/ab.py PARENT CHANGE --example NAME --resolution R --pairs N

The first form runs each checkout's ``bench/run.py --workload W --seed S
--seconds T`` once per pair; the second times ``run_example(NAME,
resolution=R)`` in a fresh subprocess of each checkout and reads that
process's peak RSS, as ``peak_rss_mb`` in the workload runs.  The two
runs of a pair are back to back, the parent first in even pairs (0, 2,
...) and the change first in odd ones, so a host that drifts between a
fast and a slow state loads both sides alike.  A bench run that is not
``correct`` with ``ok_ratio`` 1.0, or an example whose verdict is not
true, stops the harness with exit code 1.

For each metric the result holds both sides' quartiles, the median of the
per-pair ratios change / parent, the pairs the change wins (strictly
better, in the metric's ``better`` direction from ``BENCHMARK.json``), and
whether the gap between the medians, in the change's favour, exceeds the
parent's interquartile range; the raw runs are kept too.  ``same_output``
says whether both checkouts produced the same bundles: in example mode,
every run's bundle hash; in workload mode, one walk of each checkout by
this checkout's ``tools/bundles.py --seeds S``, so the parent needs no
``tools/``.  The hashes of its values and files are compared, and the
differing keys are listed under ``differing_outputs``.  It is printed as
JSON, and with ``--out FILE`` also stored under its label (``W@seedS``
or ``NAME@R``) in the JSON object in FILE, made if missing.  A child run
that fails stops the harness with exit code 1 (``bundles.child``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import bundles

#: One thread per BLAS/OpenMP pool in example runs, as ``bench/run.py``
#: pins its own.
THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: Times one bundle in a fresh interpreter; prints its seconds, the
#: process's peak RSS in MB (as ``bench/run.py`` reads it) and the bundle
#: as one JSON line.
EXAMPLE = """
import json, resource, sys, time
sys.path.insert(0, "src")
import orliczkit
t = time.perf_counter()
out = orliczkit.run_example(sys.argv[1], resolution=float(sys.argv[2]))
run_s = time.perf_counter() - t
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"run_s": run_s, "peak_rss_mb": rss, "out": out}))
"""


def _bench(root: str, args) -> tuple:
    """One ``bench/run.py`` run in ``root``: its end-to-end metrics."""
    result = bundles.child(root, [
        sys.executable, "bench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds)])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not result["correct"] or metrics.get("ok_ratio") != 1.0:
        sys.exit(f"error: {root}: run not correct with ok_ratio 1.0: "
                 f"{json.dumps(result)}")
    return metrics, None


def _example(root: str, args) -> tuple:
    """One fresh-process ``run_example`` in ``root``: its seconds and
    peak RSS, and the bundle's ``bundles.digest``."""
    result = bundles.child(
        root, [sys.executable, "-c", EXAMPLE, args.example,
               str(args.resolution)], env={**os.environ, **THREADS})
    verdict = result["out"].get("verdict")
    if verdict is not True:
        sys.exit(f"error: {root}: {args.example} verdict is {verdict}")
    return ({"run_s": result["run_s"], "peak_rss_mb": result["peak_rss_mb"]},
            bundles.digest(result["out"]))


def _quartiles(xs) -> dict:
    q1, median, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(runs: dict, declared: dict) -> dict:
    """Per metric: quartiles, median ratio, wins and the IQR test."""
    out = {}
    for name in runs["parent"][0]:
        spec = declared.get(name, {"unit": "s", "better": "lower"})
        sign = 1.0 if spec["better"] == "lower" else -1.0
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        qp, qc = _quartiles(p), _quartiles(c)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec.get("bound"),
            "parent": qp, "change": qc,
            "median_ratio": float(np.median(
                [b / a if a else float("nan") for a, b in zip(p, c)])),
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs": len(p),
            "gap_exceeds_parent_iqr": bool(
                sign * (qp["median"] - qc["median"]) > qp["q3"] - qp["q1"]),
            "parent_runs": p, "change_runs": c,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--example")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--resolution", type=float, default=4.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    roots = {side: os.path.abspath(getattr(args, side))
             for side in ("parent", "change")}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    run = _bench if args.workload else _example
    runs, digests, order = {"parent": [], "change": []}, set(), []
    started = time.time()
    for k in range(args.pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        order.append(sides[0] + " first")
        for side in sides:
            metrics, digest = run(roots[side], args)
            runs[side].append(metrics)
            digests.add(digest)
    if args.workload:
        label = f"{args.workload}@seed{args.seed}"
        what = (f"bench/run.py --workload {args.workload} --seed {args.seed} "
                f"--seconds {args.seconds:g}")
    else:
        label = f"{args.example}@{args.resolution:g}"
        what = (f"run_example({args.example!r}, resolution="
                f"{args.resolution:g}) in a fresh process")
    result = {"what": what, "pairs": args.pairs, "order": order,
              "parent": os.path.basename(roots["parent"]),
              "change": os.path.basename(roots["change"]),
              "nproc": os.cpu_count(), "elapsed_s": round(time.time() - started, 1),
              "metrics": summarize(runs, declared)}
    if args.example:
        # every run of both checkouts gave the same bundle
        result["same_output"] = len(digests) == 1
    else:
        parent, change = (bundles.load(roots[side], [args.seed])[1]
                          for side in ("parent", "change"))
        differing = sorted(k for k in parent.keys() | change.keys()
                           if parent.get(k) != change.get(k))
        result["same_output"], result["differing_outputs"] = \
            not differing, differing
    print(json.dumps(result, indent=1))
    if args.out:
        store = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                store = json.load(fh)
        store.setdefault("runs", {})[label] = result
        with open(args.out, "w") as fh:
            json.dump(store, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
