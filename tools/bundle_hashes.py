"""Print a sha256 of everything the benchmark's bundles and the gallery
produce, so two checkouts can be compared byte for byte.

    python3 tools/bundle_hashes.py [--seeds 1 11] > hashes.txt

Run from the root of a source checkout; the package is imported from its
``src/`` and the bundles from its ``bench/workloads.py``.  One line
``key sha256`` is printed for:

* every ``BUILDERS`` bundle's return value at each seed (``bundle``);
* every file those bundles write under one fixed work directory, which is
  emptied before each workload (``file``);
* every ``EXAMPLE_NAMES`` bundle at resolutions 4 and 8, seed 0
  (``example``).

Then one line ``evals <workload> <seed> <count>`` per workload and one
``evals example <name>/<resolution> <count>`` per example bundle: the
modular evaluations of one pass or bundle, counting every call of the
closure that ``norms._modular_at`` returns (``modular`` included).  Diff
the output of two checkouts: a change that keeps every output keeps every
hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import orliczkit  # noqa: E402
import orliczkit.norms as norms  # noqa: E402
import workloads  # noqa: E402

RESOLUTIONS = (4.0, 8.0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _value_bytes(value) -> bytes:
    """A bundle's return value as bytes: a dict as sorted JSON, a CLI
    bundle's (exit code, stdout, stderr) as JSON of the triple."""
    return json.dumps(value, sort_keys=True, default=repr).encode()


def _counting_modulars():
    """Wrap ``norms._modular_at`` so each evaluation adds 1 to the
    returned list's only item."""
    count, bind = [0], norms._modular_at

    def counted(phi, fs):
        at = bind(phi, fs)

        def counting(u):
            count[0] += 1
            return at(u)

        return counting

    norms._modular_at = counted
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    args = ap.parse_args(argv)
    count = _counting_modulars()
    evals = []
    work = os.path.join(tempfile.gettempdir(), "orliczkit-bundle-hashes")
    for seed in args.seeds:
        for name, build in workloads.BUILDERS.items():
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            bundles = build(seed, work)
            count[0] = 0
            for i, bundle in enumerate(bundles):
                print(f"bundle {name}/{seed}/{i}:{bundle.label} "
                      f"{_sha(_value_bytes(bundle.call()))}")
            evals.append(f"evals {name} {seed} {count[0]}")
            for dirpath, dirnames, filenames in os.walk(work):
                dirnames.sort()
                for fn in sorted(filenames):
                    path = os.path.join(dirpath, fn)
                    with open(path, "rb") as fh:
                        print(f"file {name}/{seed}/{os.path.relpath(path, work)} "
                              f"{_sha(fh.read())}")
    shutil.rmtree(work, ignore_errors=True)
    for name in orliczkit.EXAMPLE_NAMES:
        for res in RESOLUTIONS:
            count[0] = 0
            out = orliczkit.run_example(name, resolution=res, seed=0)
            print(f"example {name}/{res:g} {_sha(_value_bytes(out))}")
            evals.append(f"evals example {name}/{res:g} {count[0]}")
    print("\n".join(evals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
