"""Diff the values the benchmark's bundles and the gallery produce in two
source checkouts, number by number.

    python3 tools/bundle_diff.py PARENT CHANGE [--seeds 1 11]

Each checkout is walked by ``tools/bundles.py`` (this checkout's) in a
fresh interpreter from its root.  Values are compared with a CLI bundle's
stdout parsed as JSON.  One line is printed per bundle: its key, how many
numbers moved, and the largest relative move |a - b| / max(|a|, |b|) of
a float with its path; under it, one indented line ``path: a -> b`` per
count (an int on both sides) that changed, and one per non-numeric
difference (a string, bool, null, key or length that changed).  Then one
line per written file whose sha256 differs, or that only one checkout
wrote.  A last line sums the bundles.  Bundles' timings are left out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import bundles


def diff(a, b, path: str = "") -> tuple:
    """``(moves, counts, others)``: ``(relative move, path)`` of every
    number with a float side that differs between a and b (inf where one
    side is not finite), a line per count (int on both sides) that
    differs, and a line per non-numeric difference."""
    # JSON values: a bool is not a number
    if type(a) in (int, float) and type(b) in (int, float):
        if a == b or (a != a and b != b):
            return [], [], []
        if type(a) is int and type(b) is int:
            return [], [f"{path}: {a} -> {b}"], []
        if math.isfinite(a) and math.isfinite(b):
            return [(abs(a - b) / max(abs(a), abs(b)), path)], [], []
        return [(math.inf, path)], [], []
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if isinstance(a, dict) and isinstance(b, dict):
        # keys are all str (JSON objects) or all int (lists)
        moves, counts, others = [], [], []
        for k in sorted(a.keys() & b.keys()):
            m, c, o = diff(a[k], b[k], f"{path}/{k}")
            moves += m
            counts += c
            others += o
        others += [f"{path}/{k}: only in {side}"
                   for side, keys in (("parent", a.keys() - b.keys()),
                                      ("change", b.keys() - a.keys()))
                   for k in sorted(keys)]
        return moves, counts, others
    if type(a) is type(b) and a == b:
        return [], [], []
    return [], [], [f"{path}: {json.dumps(a)[:80]} -> {json.dumps(b)[:80]}"]


def _parsed(value):
    """A CLI bundle's (exit code, stdout, stderr), the only list a bundle
    returns, with its stdout parsed where it is JSON; any other value as
    it is."""
    if isinstance(value, list):
        try:
            return [value[0], json.loads(value[1]), value[2]]
        except ValueError:
            pass
    return value


def report(parent: tuple, change: tuple) -> list:
    """The printed lines for two walks, each ``(values, hashes)`` as
    ``bundles.load`` returns them."""
    (values_a, hashes_a), (values_b, hashes_b) = parent, change
    lines, files = [], []
    moved = changed = others = 0
    for key in list(hashes_a) + [k for k in hashes_b if k not in hashes_a]:
        only = ("only in parent" if key not in hashes_b else
                "only in change" if key not in hashes_a else None)
        if key.startswith("file "):
            if hashes_a.get(key) != hashes_b.get(key):
                files.append(f"{key}: {only or 'sha256 differs'}")
            continue
        name = key.removeprefix("bundle ")
        if only:
            lines.append(f"{name}: {only}")
            others += 1
            continue
        moves, counts, other = diff(_parsed(values_a[key]), _parsed(values_b[key]))
        largest = max(moves, default=(0.0, ""))
        lines.append(f"{name}: moved {len(moves) + len(counts)}, largest {largest[0]:.3g}"
                     + (f" at {largest[1]}" if moves else ""))
        lines += [f"  {line}" for line in counts + other]
        moved += len(moves) + len(counts)
        changed += bool(moves or counts)
        others += len(other)
    return lines + files + [f"total: {moved} numbers moved in {changed} "
                            f"bundles, {others} non-numeric differences"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    args = ap.parse_args(argv)
    print("\n".join(report(*(bundles.load(os.path.abspath(root), args.seeds)
                              for root in (args.parent, args.change)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
