"""The bundles whose outputs a change must keep, walked in one order.

    python3 tools/bundles.py [--seeds 1 11] > walk.json

The walk reads the source checkout in the current directory: the package
is imported from its ``src/`` and the bundles from its
``bench/workloads.py``, so this file can walk any checkout, one without
``tools/`` too.  It runs every ``BUILDERS`` bundle at each seed, in one
fixed work directory that is emptied before each workload, and then every
``EXAMPLE_NAMES`` bundle at resolutions 4 and 8, seed 0.  The work
directory is fixed because three ``norms_io`` ``maximal`` reports print
absolute output paths under it: any other path would change their bytes.

Each workload pass and each example bundle is one run, a dict:

* ``run``: ``"<workload> <seed>"`` or ``"example <name>/<resolution>"``;
* ``values``: ``bundle <workload>/<seed>/<i>:<label>`` or ``example
  <name>/<resolution>`` -> the bundle's return value, a CLI bundle's
  being (exit code, stdout, stderr);
* ``hashes``: each value's ``digest``, under its key, then the sha256
  of every file the pass wrote, under ``file
  <workload>/<seed>/<path>``;
* ``evals``: the modular evaluations of the run, counting every call of
  the closure that ``norms._modular_at`` returns (``modular`` included);
  null in a checkout whose ``norms`` has no ``_modular_at`` (older than
  d2a099c), whose values and hashes are walked all the same.

Run as a script, it prints the list of runs as JSON.  Its views are
``tools/bundle_hashes.py`` (in process), and ``tools/bundle_diff.py`` and
``tools/ab.py``, which run this file in each checkout through ``load``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORK = os.path.join(tempfile.gettempdir(), "orliczkit-bundle-hashes")


def digest(value) -> str:
    """The sha256 of a bundle's return value as canonical bytes: sorted
    JSON, a tuple as a list."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()


def _record(run: str, values: dict, prefix: str | None, evals) -> dict:
    """One run's record.  A workload pass hashes the files under ``WORK``
    as ``file <prefix>/<path>``, each directory's files before its
    subdirectories', in sorted order; an example bundle has no prefix
    and writes no file."""
    hashes = {key: digest(value) for key, value in values.items()}
    for dirpath, dirnames, filenames in os.walk(WORK) if prefix else ():
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            hashes[f"file {prefix}/{os.path.relpath(path, WORK)}"] = \
                hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"run": run, "values": values, "hashes": hashes, "evals": evals}


def walk(seeds):
    """Yield the runs of the checkout in the current directory, in order
    (module docstring)."""
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("bench")]
    import orliczkit
    import orliczkit.norms as norms
    import workloads

    count, bind = [0], getattr(norms, "_modular_at", None)

    def counted(phi, fs):
        at = bind(phi, fs)

        def counting(u):
            count[0] += 1
            return at(u)

        return counting

    if bind:
        norms._modular_at = counted
    for seed in seeds:
        for name, build in workloads.BUILDERS.items():
            shutil.rmtree(WORK, ignore_errors=True)
            os.makedirs(WORK)
            bundles = build(seed, WORK)
            count[0] = 0
            values = {f"bundle {name}/{seed}/{i}:{bundle.label}":
                      bundle.call() for i, bundle in enumerate(bundles)}
            yield _record(f"{name} {seed}", values, f"{name}/{seed}",
                          count[0] if bind else None)
    shutil.rmtree(WORK, ignore_errors=True)
    for name in orliczkit.EXAMPLE_NAMES:
        for res in (4.0, 8.0):
            count[0] = 0
            key = f"example {name}/{res:g}"
            out = orliczkit.run_example(name, resolution=res, seed=0)
            yield _record(key, {key: out}, None, count[0] if bind else None)


def child(root: str, argv: list, env=None):
    """The last line that ``argv``, run in the checkout ``root``, prints,
    parsed as JSON.  If the run fails, exit 1 naming the checkout and the
    command, with the last lines of its stderr."""
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          env=env)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        sys.exit(f"error: {root}: {shlex.join(argv)} exited "
                 f"{done.returncode}; its stderr ends:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load(root: str, seeds) -> tuple:
    """The walk of the checkout ``root`` in a fresh interpreter, as
    ``(values, hashes)``: every run's keys merged, in walk order."""
    values, hashes = {}, {}
    for run in child(root, [sys.executable, os.path.abspath(__file__),
                            "--seeds", *map(str, seeds)]):
        values.update(run["values"])
        hashes.update(run["hashes"])
    return values, hashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    args = ap.parse_args(argv)
    print(json.dumps(list(walk(args.seeds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
