"""Worked catalog entries and declarative pipelines.

run_example executes a named bundle of claims (conditions + numerical
experiments) and returns a JSON-serializable report with a single verdict.
run_pipeline does the same for a user-written spec: build a function,
apply transforms, run checks and experiments.

The same functionality is exposed on the command line:

    orliczkit example dp_cor49
    orliczkit pipeline spec.json
    orliczkit check --condition a0 --phi '{"kind": "example_3_4"}'
    orliczkit norm --phi '...' --function '{"ball": {"center": [...],
                                                     "radius": r}}'
    orliczkit maximal --csv f.csv

Exit codes: 0 all claims match, 1 some claim mismatched, 2 bad usage or
spec, 3 internal error.  Reports are also written as JSON files to the
directory named by --out or the ORLICZKIT_OUT environment variable.
"""

import json

from orliczkit import EXAMPLE_NAMES, run_example, run_pipeline

print("catalog:", ", ".join(EXAMPLE_NAMES))

# A fast catalog entry: a double-phase family with a decaying weight.
bundle = run_example("dp_cor49")
print("dp_cor49 verdict:", bundle["verdict"])
for c in bundle["claims"]:
    print(f"  [{'ok' if c['matches'] else 'XX'}] {c['claim']}")

# A pipeline: build a function, rebuild it with a clean almost-increase
# property, then verify two claims about the result.
from orliczkit import WeightFunction, power_curve

pair = {"phi_inf": power_curve(2.0).to_dict(),
        "h": WeightFunction.recip_power(4.0, 2).to_dict(),
        "beta": 1.0, "s": 1.0}
spec = {
    "name": "rebuild-demo",
    "phi": {"pipeline": [
        {"make": {"kind": "example_3_5", "params": {}}},
        {"transform": "rebuild_with_ainc", "pair": pair, "t1": "auto"},
    ]},
    "checks": [
        {"condition": "ainc", "p": 2.0, "expect": True},
        {"condition": "a0", "expect": True},
    ],
}
result = run_pipeline(spec)
print("pipeline verdict:", result["verdict"])
print(json.dumps([c["claim"] for c in result["checks"]], indent=2))
