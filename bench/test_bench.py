"""Tests of the benchmark itself:

    python3 -m pytest bench -q

They stay out of the package's own suite, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import orliczkit  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Documented baseline: the only failing bundle is the Example 3.2 aInc_1.1
#: check on pipeline_checks (1 of its 12 bundles).
BASELINE_FAILED_RATIO = {"gallery_maximal": 0.0,
                         "pipeline_checks": 1 / 12,
                         "norms_io": 0.0}


def _build(name, seed, path):
    os.makedirs(path, exist_ok=True)
    return workloads.BUILDERS[name](seed, str(path))


def _files(path):
    out = {}
    for dirpath, _, names in os.walk(path):
        for n in names:
            full = os.path.join(dirpath, n)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def _namespaces():
    """Every binding the recorder may patch."""
    snap = {}
    for mod in tracer._package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
    for cls in (orliczkit.PhiFunction, orliczkit.GridFunction,
                orliczkit.ConjugateFunction):
        for attr, value in vars(cls).items():
            snap[(cls.__name__, attr)] = value
    return snap


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = _build(name, 7, tmp_path / "a")
    b = _build(name, 7, tmp_path / "b")
    c = _build(name, 8, tmp_path / "c")
    assert [x.label for x in a] == [x.label for x in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("name", ["pipeline_checks", "norms_io"])
def test_self_times_are_nonnegative_and_within_wall(tmp_path, name):
    bundles = _build(name, 3, tmp_path)
    with tracer.Recorder() as rec:
        result = run.run_pass(bundles, rec)
    own = rec.self_times()
    assert own and min(own) >= -1e-9
    layers = rec.layer_metrics()
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0 < total <= result["wall_s"]
    if name == "pipeline_checks":
        assert layers["maximal.calls"] == 0
        assert layers["conditions.mismatches"] == 1
    else:
        assert layers["maximal.calls"] == 3
        assert layers["maximal.distinct_ratio"] == 1.0
        assert layers["norms.io_bytes"] > 0
        assert layers["phi_core.conjugate_value_calls"] > 0


def test_each_set_up_imports_the_package_afresh(tmp_path):
    def ours():
        return {n: m for n, m in sys.modules.items()
                if n in ("orliczkit", "workloads")
                or n.startswith("orliczkit.")}

    saved = ours()
    try:
        first, _ = run.set_up("pipeline_checks", 1, str(tmp_path))
        package = sys.modules["orliczkit"]
        second, setup_s = run.set_up("pipeline_checks", 1, str(tmp_path))
        assert sys.modules["orliczkit"] is not package
        assert [b.label for b in first] == [b.label for b in second]
        assert setup_s > 0
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def test_wrappers_are_restored():
    before = _namespaces()
    cli = sys.modules["orliczkit.cli"]
    original = cli.run_example
    with tracer.Recorder():
        assert cli.run_example is not original
        assert orliczkit.run_example is not original
        assert sys.modules["orliczkit.gallery"].run_example is not original
    assert _namespaces() == before
    with pytest.raises(RuntimeError):
        with tracer.Recorder():
            raise RuntimeError("boom")
    assert _namespaces() == before


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_pass_failed_ratio_is_the_documented_baseline(tmp_path, name):
    bundles = _build(name, 1, tmp_path)
    failed = run.run_pass(bundles)["failures"]
    assert len(failed) / len(bundles) == BASELINE_FAILED_RATIO[name]
    assert all(f["known"] for f in failed)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    proc = _run(ROOT, "--workload", "pipeline_checks", "--seed", "2",
                "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)[key]}
    assert set(result["metrics"]) == declared


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "norms_io", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
