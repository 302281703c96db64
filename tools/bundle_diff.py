"""Diff the values the benchmark's bundles and the gallery produce in two
source checkouts, number by number.

    python3 tools/bundle_diff.py PARENT CHANGE [--seeds 1 11]

Each checkout is run in a fresh interpreter from its root, importing the
package from its ``src/`` and the bundles from its ``bench/workloads.py``.
The values compared are every ``BUILDERS`` bundle's return value at each
seed, a CLI bundle's stdout parsed as JSON, and every ``EXAMPLE_NAMES``
bundle at resolutions 4 and 8, seed 0.  One line is printed per bundle:
its key, how many numbers moved, and the largest relative move |a - b| /
max(|a|, |b|) with its path; under it, one indented line per non-numeric
difference (a string, bool, null, key or length that changed).  A last
line sums the bundles.  Only values are compared: the files the bundles
write, and bundles' timings, are left out (``tools/bundle_hashes.py``
hashes the files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

#: Prints ``[[key, value], ...]`` as JSON for the checkout it runs in, its
#: seeds given as arguments; a CLI bundle's (code, stdout, stderr) has its
#: stdout parsed where it is JSON.
DUMP = """
import json, os, shutil, sys, tempfile
sys.path[:0] = ["src", "bench"]
import orliczkit, workloads
out = []
work = os.path.join(tempfile.gettempdir(), "orliczkit-bundle-diff")
for seed in map(int, sys.argv[1:]):
    for name, build in workloads.BUILDERS.items():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        for i, bundle in enumerate(build(seed, work)):
            value = bundle.call()
            if isinstance(value, tuple) and len(value) == 3:
                try:
                    value = (value[0], json.loads(value[1]), value[2])
                except ValueError:
                    pass
            out.append([f"{name}/{seed}/{i}:{bundle.label}", value])
shutil.rmtree(work, ignore_errors=True)
for name in orliczkit.EXAMPLE_NAMES:
    for res in (4.0, 8.0):
        out.append([f"example {name}/{res:g}",
                    orliczkit.run_example(name, resolution=res, seed=0)])
print(json.dumps(out, default=repr))
"""


def _values(root: str, seeds) -> dict:
    done = subprocess.run([sys.executable, "-c", DUMP, *map(str, seeds)],
                          cwd=root, capture_output=True, text=True, check=True)
    return dict(json.loads(done.stdout))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(a, b, path: str = "") -> tuple:
    """``(moves, others)``: ``(relative move, path)`` of every number that
    differs between a and b (inf where one side is not finite), and a line
    per non-numeric difference."""
    if _is_number(a) and _is_number(b):
        if a == b or (a != a and b != b):
            return [], []
        if math.isfinite(a) and math.isfinite(b):
            return [(abs(a - b) / max(abs(a), abs(b)), path)], []
        return [(math.inf, path)], []
    if isinstance(a, dict) and isinstance(b, dict):
        moves, others = [], []
        for k in sorted(a.keys() & b.keys(), key=str):
            m, o = diff(a[k], b[k], f"{path}/{k}")
            moves += m
            others += o
        others += [f"{path}/{k}: only in {side}"
                   for side, keys in (("parent", a.keys() - b.keys()),
                                      ("change", b.keys() - a.keys()))
                   for k in sorted(keys, key=str)]
        return moves, others
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        moves, others = [], []
        for k, (x, y) in enumerate(zip(a, b)):
            m, o = diff(x, y, f"{path}/{k}")
            moves += m
            others += o
        return moves, others
    if type(a) is type(b) and a == b:
        return [], []
    return [], [f"{path}: {json.dumps(a)[:80]} -> {json.dumps(b)[:80]}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    args = ap.parse_args(argv)
    parent, change = (_values(os.path.abspath(root), args.seeds)
                      for root in (args.parent, args.change))
    moved = bundles = others = 0
    for key in list(parent) + [k for k in change if k not in parent]:
        if key not in parent or key not in change:
            print(f"{key}: only in {'parent' if key in parent else 'change'}")
            others += 1
            continue
        moves, other = diff(parent[key], change[key])
        largest = max(moves, default=(0.0, ""))
        print(f"{key}: moved {len(moves)}, largest {largest[0]:.3g}"
              + (f" at {largest[1]}" if moves else ""))
        for line in other:
            print(f"  {line}")
        moved += len(moves)
        bundles += bool(moves)
        others += len(other)
    print(f"total: {moved} numbers moved in {bundles} bundles, "
          f"{others} non-numeric differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
