"""Print a sha256 of everything the benchmark's bundles and the gallery
produce, so two checkouts can be compared byte for byte.

    python3 tools/bundle_hashes.py [--seeds 1 11] > hashes.txt

Run from the root of a source checkout: this is the in-process view of
``tools/bundles.py``'s walk of the checkout in the current directory.
One line ``key sha256`` is printed per bundle return value (``bundle``
and ``example`` keys) and per file the bundles write (``file``), in walk
order.  Then one line ``evals <workload> <seed> <count>`` per workload
and one ``evals example <name>/<resolution> <count>`` per example bundle:
each run's modular evaluations.  Diff the output of two checkouts: a
change that keeps every output keeps every hash.
"""

from __future__ import annotations

import argparse
import sys

import bundles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    args = ap.parse_args(argv)
    evals = []
    for run in bundles.walk(args.seeds):
        for key, digest in run["hashes"].items():
            print(key, digest)
        evals.append(f"evals {run['run']} {run['evals']}")
    print("\n".join(evals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
