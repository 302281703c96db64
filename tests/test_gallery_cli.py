import argparse
import contextlib
import copy
import importlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import orliczkit
from orliczkit import GridFunction, PhiCurve, SpecError, WeightFunction, \
    from_curve, glue_small_values, make_family, modular, power_curve, \
    region_from_dict, run_example, run_pipeline, small_value_threshold
from orliczkit.cli import main
from orliczkit.conditions import CHECK_TOL, ConditionReport, _jsonable
from orliczkit.gallery import _bounded
from orliczkit.norms import EPS_LUX

_cli = importlib.import_module("orliczkit.cli")


# ---------------------------------------------------------------------------
# Example bundles (the heavyweight ex3_2/ex3_4 bundles run in the
# acceptance suite; here we cover the fast ones and the plumbing)


@pytest.mark.parametrize("name", ["dp_cor49", "ex4_6", "ex3_5"])
def test_fast_examples_pass(name):
    bundle = run_example(name)
    assert bundle["verdict"] is True
    assert bundle["schema"] == "orliczkit-bundle/1"
    assert all(c["matches"] for c in bundle["claims"])
    assert "phi" in bundle  # embeds the exact serialization for replay


def test_bundle_deterministic():
    a = json.dumps(run_example("ex4_6"), sort_keys=True)
    b = json.dumps(run_example("ex4_6"), sort_keys=True)
    assert a == b


def test_unknown_example():
    with pytest.raises(SpecError):
        run_example("ex9_9")


@pytest.mark.parametrize("run", [
    lambda seed: run_example("ex3_5", seed=seed),
    lambda seed: run_pipeline({"phi": {"kind": "orlicz", "params": {"p": 2}}},
                              seed=seed),
], ids=["example", "pipeline"])
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_is_spec_error(run, seed):
    with pytest.raises(SpecError) as err:
        run(seed)
    assert err.value.pointer == "/seed"


def test_package_does_not_import_scipy():
    """Only the benchmark uses scipy; the package runs on numpy alone."""
    src = os.path.dirname(os.path.dirname(orliczkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, orliczkit, orliczkit.cli, orliczkit.gallery; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Pipelines


def rebuild_spec():
    h = WeightFunction.recip_power(4.0, 2)
    pair = {"phi_inf": power_curve(2.0).to_dict(), "h": h.to_dict(),
            "beta": 1.0, "s": 1.0}
    return {
        "name": "rebuild",
        "phi": {"pipeline": [
            {"make": {"kind": "example_3_5", "params": {}}},
            {"transform": "rebuild_with_ainc", "pair": pair, "t1": "auto"}]},
        "checks": [
            {"condition": "ainc", "p": 2.0},
            {"condition": "weak_equivalence",
             "other": {"kind": "example_3_5", "params": {}},
             "L": 1.0, "h": h.to_dict()}],
    }


def test_pipeline_rebuild_and_check():
    bundle = run_pipeline(rebuild_spec())
    assert bundle["verdict"] is True
    assert bundle["transforms"][0]["step"] == "rebuild_with_ainc"
    assert abs(bundle["transforms"][0]["t1"] - 0.5) < 1e-6


def test_pipeline_tail_asymptotes():
    spec = {"name": "tails", "phi": {"pipeline": [
        {"make": {"kind": "example_3_4", "params": {}}},
        {"transform": "tail_asymptotes"}]}}
    bundle = run_pipeline(spec)
    rec = bundle["transforms"][0]
    assert rec["converged"]
    up = PhiCurve.from_dict(rec["upper"])
    assert up.value(2.0) == 6.0  # t^2 + t at t = 2


def test_pipeline_duality_experiment_holds():
    """f = 1 on (-1, 1), 8 cells, has norm sqrt(2) under t^2; g, the
    indicator of 4 cells (measure 1), has norm 1/2 under (t^2)* = t^2 / 4;
    their pairing 1 lies within the bound 2 ||f||."""
    bundle = run_pipeline({
        "phi": {"kind": "orlicz", "params": {"p": 2}},
        "experiments": [{"experiment": "duality", "f": {"const": 1},
                         "g": {"ball": {"center": [0], "radius": 0.5}}}]})
    exp = bundle["experiments"][0]
    assert exp["experiment"] == "duality" and bundle["verdict"] is True
    rep = exp["report"]
    assert set(rep) == {"pairing", "norm_f", "conj_norm_g", "bound_constant",
                        "observed_constant", "holds"}
    assert rep["holds"] is True and rep["pairing"] == 1.0
    assert rep["norm_f"] == pytest.approx(math.sqrt(2.0), rel=EPS_LUX)
    assert rep["conj_norm_g"] == pytest.approx(0.5, rel=EPS_LUX)
    assert rep["observed_constant"] == rep["pairing"] / rep["norm_f"]


def test_pipeline_empty_checks_echoes_phi():
    spec = {"name": "echo",
            "phi": {"kind": "orlicz",
                    "params": {"curve": power_curve(2.0).to_dict()}}}
    bundle = run_pipeline(spec)
    assert bundle["verdict"] is True and bundle["checks"] == []
    assert bundle["phi"]["kind"] == "orlicz"


def test_pipeline_expected_failure_flips_verdict():
    spec = {"name": "expected-fail",
            "phi": {"kind": "orlicz",
                    "params": {"curve": power_curve(2.0).to_dict()}},
            "checks": [{"condition": "ainc", "p": 3.0, "expect": False}]}
    assert run_pipeline(spec)["verdict"] is True
    spec["checks"][0]["expect"] = True
    assert run_pipeline(spec)["verdict"] is False


@pytest.mark.parametrize("spec,pointer", [
    ({"name": "x"}, "/phi"),
    ({"phi": {"pipeline": [{"transform": "nope"}]}}, "/phi/pipeline/0"),
    ({"phi": {"pipeline": []}}, "/phi/pipeline"),
    ({"phi": {"kind": "example_3_4", "params": {}}, "checks": [{"p": 2}]},
     "/checks/0/condition"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "checks": [{"condition": "ainc", "p": 2, "T": [0]}]}, "/checks/0/T"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "dim": 2}},
      "experiments": [{"experiment": "ball-norm", "center": [0, 0],
                       "radius": 5, "cells": 16}]}, "/experiments/0"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "maximal-divergence", "radii": [-1]}]},
     "/experiments/0/radii"),
    # "fails" is truthy, so it once read as an expected pass
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "checks": [{"condition": "ainc", "p": 3, "expect": "fails"}]},
     "/checks/0/expect"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "checks": [{"condition": "a0", "label": 3}]}, "/checks/0/label"),
    *(({"phi": {"kind": "orlicz", "params": {"p": 2}},
        "checks": [{"condition": "equivalence", "L": L,
                    "other": {"kind": "orlicz", "params": {"p": 2}}}]},
       "/checks/0/L") for L in (0, -1, "inf", True)),
    # true once ran as aInc_1, and "2" failed only at /checks/0
    *(({"phi": {"kind": "orlicz", "params": {"p": 2}},
        "checks": [{"condition": cond, key: v}]}, f"/checks/0/{key}")
      for cond, key in (("ainc", "p"), ("adec", "q"))
      for v in (True, "2", math.nan, math.inf)),
    # [-1, 2] once skipped the analytic divergence check at zero
    *(({"phi": {"kind": "orlicz", "params": {"p": 2}},
        "checks": [{"condition": "ainc", "p": 2, "T": T}]}, "/checks/0/T")
      for T in ([-1, 2], [2, 1], [1, 1], [0, "inf"], [None, 1], [0, True],
                [0, math.inf], "ab")),
    # a key that the object's parser does not read, once silently dropped
    *(({"phi": {"kind": "orlicz", "params": {"p": 2}},
        "checks": [{"condition": cond, **fields}]}, f"/checks/0/{key}")
      for cond, fields, key in (
          ("a0", {"t_min": 0.5}, "t_min"), ("a1", {"t_max": 2}, "t_max"),
          ("ainc", {"p": 2, "seed": 3}, "seed"),
          ("adec", {"q": 2, "p": 2}, "p"),
          ("ainc", {"p": 2, "tmin": 1}, "tmin"))),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "check": [{"condition": "a0"}]}, "/check"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "operator-norm", "truncation": 4}]},
     "/experiments/0/truncation"),
    ({"phi": {"pipeline": [{"make": {"kind": "example_3_4", "params": {}}},
                           {"transform": "tail_asymptotes", "foo": 1}]}},
     "/phi/pipeline/1/foo"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "dim": 2}},
      "experiments": [{"experiment": "duality",
                       "f": {"const": 1, "ball": {"center": [0, 0],
                                                  "radius": 0.5}},
                       "g": {"const": 1}}]}, "/experiments/0/f/ball"),
    # values inside lists: a null coordinate of A once ran as NaN and "1"
    # as 1.0, a 1-coordinate center of a 2D function as (3, 3), and a t1
    # of "soon" failed inside the step
    *(({"phi": {"kind": "variable_exponent",
                "params": {"p": {"field": "const", "value": 1.6}}},
        "checks": [{"condition": "ainc", "p": 1.6, "A": A}]}, pointer)
      for A, pointer in (([[None], ["1"]], "/checks/0/A/0/0"),
                         ([[0.5], ["1"]], "/checks/0/A/1/0"))),
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "dim": 2}},
      "experiments": [{"experiment": "maximal-divergence", "radii": [2],
                       "center": [3.0]}]}, "/experiments/0/center"),
    *(({"phi": {"pipeline": [
        {"make": {"kind": "example_3_5", "params": {}}},
        {"transform": "rebuild_with_ainc", "t1": t1,
         "pair": {"phi_inf": power_curve(2.0).to_dict(),
                  "h": {"weight": "zero"}, "beta": 1.0}}]}},
       "/phi/pipeline/1/t1") for t1 in ("soon", 0, -1, None, True)),
    # an unread key is one escaped pointer segment
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "a/b~": 1}}},
     "/phi/params/a~1b~0"),
    # past the largest float: once an internal OverflowError (exit 3)
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "checks": [{"condition": "equivalence", "L": 10 ** 400,
                  "other": {"kind": "orlicz", "params": {"p": 2}}}]},
     "/checks/0/L"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "dim": 2}},
      "experiments": [{"experiment": "ball-norm", "center": [0, 0],
                       "radius": 1e200}]}, "/experiments/0"),
    # once numpy's "'float' object cannot be interpreted as an integer"
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "ball-norm", "center": [0],
                       "radius": 0.25, "cells": 2.5}]},
     "/experiments/0/cells"),
    # a truncation radius with no cell at resolution 8 once failed in the
    # kernel (at /experiments/0) or blamed duality's f
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "operator-norm",
                       "truncation_radius": 0.01}]},
     "/experiments/0/truncation_radius"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "maximal-divergence",
                       "radii": [0.1, 8]}]}, "/experiments/0/radii"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "duality", "truncation_radius": 0.01,
                       "f": {"const": 1}, "g": {"const": 1}}]},
     "/experiments/0/truncation_radius"),
    # equal radii once ran a singular log-R fit and reported its slopes
    ({"phi": {"kind": "orlicz", "params": {"p": 2}},
      "experiments": [{"experiment": "maximal-divergence",
                       "radii": [8, 8]}]}, "/experiments/0/radii"),
    # (spec, resolution): a default truncation radius with no cell at
    # resolution 0.05 once failed in the kernel or blamed duality's f
    *((({"phi": {"kind": "orlicz", "params": {"p": 2}},
         "experiments": [{"experiment": kind, **fields}]}, 0.05), pointer)
      for kind, fields, pointer in (
          ("operator-norm", {}, "/experiments/0/truncation_radius"),
          ("maximal-divergence", {}, "/experiments/0/radii/0"),
          ("duality", {"f": {"const": 1}, "g": {"const": 1}},
           "/experiments/0/truncation_radius"))),
    # only ainc and adec take a t range
    *(({"phi": {"kind": "orlicz", "params": {"p": 2}},
        "checks": [{"condition": cond, **fields}]}, f"/checks/0/{key}")
      for cond, fields, key in (
          ("a2", {"pair": {"phi_inf": power_curve(2.0).to_dict(),
                           "h": {"weight": "zero"}, "beta": 1.0},
                  "t_min": 0.5}, "t_min"),
          ("equivalence", {"other": {"kind": "orlicz", "params": {"p": 2}},
                           "t_max": 2}, "t_max"),
          ("weak_equivalence", {"other": {"kind": "orlicz",
                                          "params": {"p": 2}},
                                "t_min": 0.5}, "t_min"))),
])
def test_pipeline_errors_carry_pointers(spec, pointer):
    spec, resolution = spec if isinstance(spec, tuple) else (spec, 8.0)
    with pytest.raises(SpecError) as err:
        run_pipeline(spec, resolution)
    assert err.value.pointer == pointer or \
        err.value.pointer.startswith(pointer + "/")


def test_bounded_claims_judge_by_the_one_rule():
    """A sampled sup within the checkers' slack of its bound meets it, and
    one past the slack breaks it, both ways round."""
    def claim(sup, holds):
        rep = ConditionReport("aInc_2", holds, {"sampled_sup": sup}, {})
        return _bounded("c", rep, 2.0, holds=holds)["matches"]

    within, past = 2.0 + 2.0 * CHECK_TOL, 2.0 + 4.0 * CHECK_TOL
    assert claim(within, True) and not claim(past, True)
    assert claim(past, False) and not claim(within, False)


_VARIABLE_1D = {"kind": "variable_exponent",
                "params": {"p": {"field": "const", "value": 1.6}}}


@pytest.mark.parametrize("A", [[0.0, 0.2], [[0.0, 0.2, 0.3]], [], [[]]])
def test_points_must_have_phi_dimension(A):
    """A is a non-empty list of points in phi's dimension: a flat pair
    once ran as one 2-coordinate point of a 1D function, and held."""
    spec = {"phi": _VARIABLE_1D,
            "checks": [{"condition": "ainc", "p": 1.6, "A": A}]}
    with pytest.raises(SpecError) as err:
        run_pipeline(spec)
    # each list fails at its first point, which is not a 1D point
    assert err.value.pointer == ("/checks/0/A/0" if A else "/checks/0/A")
    phi = orliczkit.make_family("variable_exponent", _VARIABLE_1D["params"])
    for check in (orliczkit.check_ainc, orliczkit.check_adec):
        with pytest.raises(ValueError, match="dimension 1"):
            check(phi, 1.6, A=np.array([[0.0, 0.2]]))
    spec["checks"][0]["A"] = [[0.0], [0.2]]
    assert run_pipeline(spec)["verdict"] is True


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def phi_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"kind": "orlicz", "params": {"curve": power_curve(2.0).to_dict()}}))
    return str(path)


def test_cli_check_exit_codes(phi_file, capsys):
    assert main(["check", "--phi", f"@{phi_file}",
                 "--condition", "ainc", "--p", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert main(["check", "--phi", f"@{phi_file}",
                 "--condition", "ainc", "--p", "3"]) == 1
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "ainc",
                 "--p", "3", "--expect", "fails"]) == 0
    assert main(["check", "--phi", "not json", "--condition", "a0"]) == 2
    # "inf" is the CLI's spelling of the spec's null
    capsys.readouterr()
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "ainc",
                 "--p", "2", "--t-range", "1", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["sample_spec"]["T"] == \
        [1.0, "inf"]


@pytest.mark.parametrize("flags,holds", [
    (["--condition", "ainc", "--p", "400"], False),
    (["--condition", "ainc", "--p", "1e308"], False),
    (["--condition", "adec", "--q", "1e308"], True),
    (["--condition", "equivalence", "--L", "1e308", "--other", "PHI"], True),
    (["--condition", "equivalence", "--L", "1e-308", "--other", "PHI"], False),
    (["--condition", "weak-equivalence", "--L", "1e308", "--other", "PHI",
      "--h", '{"weight": "zero"}'], True),
])
def test_cli_check_past_the_largest_float(phi_file, capsys, flags, holds):
    """On t^2, t^p and the levels t L and t / L overflow to +inf or
    underflow to 0 at these exponents and constants, as intended, with no
    warning (an error under the suite's filter, which would exit 3)."""
    flags = [f"@{phi_file}" if v == "PHI" else v for v in flags]
    assert main(["check", "--phi", f"@{phi_file}", *flags]) == (0 if holds else 1)
    assert json.loads(capsys.readouterr().out)["holds"] is holds


def test_cli_norm(phi_file, capsys, table_builds):
    """The modular and the norm come from one binding of phi: the norm
    search starts from the modular, bit for bit."""
    code = main(["norm", "--phi", f"@{phi_file}",
                 "--function", '{"ball": {"center": [0], "radius": 0.5}}',
                 "--truncation-radius", "1", "--resolution", "64"])
    assert code == 0
    assert len(table_builds) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["luxemburg_norm"] == pytest.approx(1.0, rel=1e-2)
    f = GridFunction.indicator_ball([0.0], 0.5, ((-1.0, 1.0),), 128)
    assert report["modular"] == modular(from_curve(power_curve(2.0)), f)


def test_cli_norm_of_overflowing_values_is_quiet(tmp_path):
    # (1e154)^3 is past the largest float: the modular is inf, and the
    # norm search goes on without a warning on stderr
    path = tmp_path / "big.csv"
    GridFunction(((-1.0, 1.0),), np.full(16, 1e154)).to_csv(path)
    src = os.path.dirname(os.path.dirname(orliczkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "orliczkit.cli", "norm", "--phi",
         json.dumps({"kind": "orlicz", "params": {"p": 3}}), "--csv",
         str(path), "--truncation-radius", "1", "--resolution", "8"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0 and done.stderr == ""


def test_cli_maximal_writes_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORLICZKIT_OUT", str(tmp_path))
    code = main(["maximal", "--dim", "1",
                 "--function", '{"ball": {"center": [0], "radius": 1}}',
                 "--truncation-radius", "4", "--resolution", "8"])
    assert code == 0
    assert (tmp_path / "maximal.csv").exists()
    assert (tmp_path / "maximal.bin").exists()
    assert (tmp_path / "maximal.json").exists()
    report = json.loads(capsys.readouterr().out)
    assert report["max_value"] == pytest.approx(1.0, rel=1e-6)


def test_cli_maximal_reports_norms_under_phi(phi_file, tmp_path, capsys):
    """With --phi, maximal reports the norms of f and of Mf under phi
    (t^2 here): ||f|| = sqrt(|B|) for f the indicator of a ball B, 16
    cells of 1/8, and ||Mf|| > ||f||, as Mf >= f and Mf > 0 = f off B."""
    assert main(["maximal", "--phi", f"@{phi_file}", "--dim", "1",
                 "--function", '{"ball": {"center": [0], "radius": 1}}',
                 "--truncation-radius", "4", "--resolution", "8",
                 "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["norm_f"] == pytest.approx(math.sqrt(2.0), rel=EPS_LUX)
    assert report["norm_Mf"] > report["norm_f"]


@pytest.mark.parametrize("dim", [1, 2])
def test_cli_maximal_of_a_grid_past_the_largest_float(tmp_path, capsys, dim):
    """The grid's total passes the largest float, so the kernel runs it
    scaled by a power of 2 and scales the result back: no warning (an
    error under the suite's filter, which would exit 3), and Mf = 1e308 on
    every cell."""
    assert main(["maximal", "--dim", str(dim), "--function", '{"const": 1e308}',
                 "--radii", "0.5,1", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["max_value"] == 1e308
    Mf = GridFunction.from_binary(tmp_path / "maximal.bin")
    assert Mf.dim == dim and np.all(Mf.values == 1e308)


def test_cli_check_on_a_range_past_the_largest_float(phi_file, capsys):
    # hi / lo = 1e600 is past the largest float
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "ainc",
                 "--p", "2", "--t-range", "1e-300", "1e300"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_cli_internal_error_is_exit_3(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(_cli, "maximal", broken)
    assert main(["maximal", "--dim", "1",
                 "--function", '{"ball": {"center": [0], "radius": 1}}',
                 "--truncation-radius", "2"]) == 3
    assert capsys.readouterr().err == \
        "internal error: RuntimeError: kernel fault\n"


def test_cli_example(tmp_path, capsys):
    assert main(["example", "dp_cor49", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "example-dp_cor49.json").exists()
    capsys.readouterr()


def test_cli_pipeline(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(rebuild_spec()))
    assert main(["pipeline", str(spec_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pipeline-rebuild.json").exists()
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "phi": {
        "pipeline": [{"transform": "nope"}]}}))
    assert main(["pipeline", str(bad)]) == 2


def test_cli_transform(capsys):
    curve = json.dumps(power_curve(1.0).to_dict())
    assert main(["transform", "--op", "repair_asymptote",
                 "--phi-inf", curve, "--t1", "1", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    rebuilt = PhiCurve.from_dict(out)
    assert rebuilt.value(2.0) == 2.0

    def transform(*argv):
        assert main(["transform", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def plain(obj):  # as the CLI prints it
        return json.loads(json.dumps(_jsonable(obj)))

    # the phi -> phi ops equal the library function and the pipeline step
    base, region = {"kind": "example_3_2", "params": {}}, {"region": "inv_square_strip"}
    assert transform("--op", "glue_small_values", "--phi", json.dumps(base),
                     "--region", json.dumps(region), "--p", "1.5") == plain(
        glue_small_values(make_family("example_3_2", {}, None),
                          region_from_dict(region), 1.5).to_dict())
    spec = rebuild_spec()
    make, step = spec["phi"]["pipeline"]
    bundle = run_pipeline({"name": "rebuild", "phi": spec["phi"]})
    assert transform("--op", "rebuild_with_ainc", "--phi", json.dumps(make["make"]),
                     "--pair", json.dumps(step["pair"])) == plain(
        {"t1": bundle["transforms"][0]["t1"], "result": bundle["phi"]})
    assert transform("--op", "small_value_threshold", "--phi", json.dumps(make["make"]),
                     "--phi-inf", json.dumps(step["pair"]["phi_inf"])) == plain(
        {"t1": small_value_threshold(make_family("example_3_5", {}, None),
                                     PhiCurve.from_dict(step["pair"]["phi_inf"]))})


def test_cli_usage_error_missing_args(phi_file):
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "ainc"]) == 2
    assert main(["check", "--phi", f"@{phi_file}", "--condition", "a2"]) == 2


def _malformed_grid(case):
    """``(flag, file contents)`` of a bad --csv/--binary input for the
    16-cell grid on (-1, 1); no file for None."""
    g = GridFunction(((-1.0, 1.0),), np.linspace(0.0, 1.0, 16))
    rows, blob = g.to_csv().splitlines(), g.to_binary()
    return {"missing_csv": ("--csv", None),
            "missing_binary": ("--binary", None),
            "csv_index_missing": ("--csv", rows[:5] + rows[6:]),
            "csv_index_repeated": ("--csv", rows[:6] + rows[5:6] + rows[7:]),
            "csv_index_out_of_range": ("--csv", rows + ["16,1.0625,0.5"]),
            "csv_header_only": ("--csv", rows[:1]),
            "binary_short": ("--binary", blob[:-8]),
            "binary_long": ("--binary", blob + bytes(8))}[case]


@pytest.mark.parametrize("case", ["missing_csv", "missing_binary",
                                  "csv_index_missing", "csv_index_repeated",
                                  "csv_index_out_of_range", "csv_header_only",
                                  "binary_short", "binary_long"])
def test_cli_malformed_grid_input_is_exit_2(phi_file, tmp_path, case, capsys):
    flag, data = _malformed_grid(case)
    path = tmp_path / "grid"
    if isinstance(data, list):
        path.write_text("\n".join(data) + "\n")
    elif data is not None:
        path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the message alone, no stray warning
        assert main(["norm", "--phi", f"@{phi_file}", flag, str(path),
                     "--truncation-radius", "1", "--resolution", "8"]) == 2
    assert "cannot read grid function" in capsys.readouterr().err


_FUZZ_GRIDS = {dim: GridFunction(((-1.0, 1.0),) * dim,
                                np.linspace(0.0, 1.0, 16).reshape(shape))
               for dim, shape in ((1, (16,)), (2, (4, 4)))}
#: One phi per domain kind: unbounded 1D and 2D, and the bounded 1D (-2, 2).
_FUZZ_NORM_PHIS = [json.dumps({"kind": "orlicz", "params": {"p": 2}}),
                   json.dumps({"kind": "orlicz", "params": {"p": 2, "dim": 2}}),
                   json.dumps({"kind": "example_4_6", "params": {}})]
_FIELDS = st.sampled_from(["", "x", "nan", "inf", "-1", "0", "1.5", "3",
                           "15", "16", "1e300", "1e400", " "])


def _strict(constant):
    raise ValueError(f"{constant} in a report")


def _norm_exit(phi, flag, path):
    """Exit code and stderr of ``orliczkit norm`` on the grid file at
    ``path``; a CSV grid is read on (-1, 1) per axis, 16 cells each.  A
    report must be strict JSON: no NaN from a garbled box."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["norm", "--phi", phi, flag, str(path),
                     "--truncation-radius", "1", "--resolution", "8"])
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_strict)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2]), phi=st.sampled_from(_FUZZ_NORM_PHIS),
       edits=st.lists(st.tuples(
           st.sampled_from(["field", "drop_field", "add_field", "drop_row",
                            "repeat_row", "swap_rows"]),
           st.integers(0, 20), st.integers(0, 4), _FIELDS),
           min_size=1, max_size=3))
def test_csv_grid_fuzz_never_exits_3(tmp_path_factory, dim, phi, edits):
    """Rows, fields and indices of a valid CSV grid edited: ``norm`` ends
    in a report or in exit 2 at --csv, never in an internal error."""
    rows = [r.split(",") for r in _FUZZ_GRIDS[dim].to_csv().splitlines()]
    for op, i, j, value in edits:
        i %= len(rows)
        row = rows[i]
        if op == "field" and row:
            row[j % len(row)] = value
        elif op == "drop_field" and row:
            del row[j % len(row)]
        elif op == "add_field":
            row.insert(j % (len(row) + 1), value)
        elif op == "drop_row" and len(rows) > 1:
            del rows[i]
        elif op == "repeat_row":
            rows.insert(i, list(row))
        elif op == "swap_rows":
            k = j % len(rows)
            rows[i], rows[k] = rows[k], rows[i]
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    code, err = _norm_exit(phi, "--csv", path)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: --csv: ")


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2]), phi=st.sampled_from(_FUZZ_NORM_PHIS),
       axes=st.none() | st.sampled_from([0, 1, 2, 3, 2 ** 32 - 1]),
       cells=st.none() | st.tuples(st.integers(0, 1), st.sampled_from(
           [0, 1, 4, 16, 2 ** 31, 2 ** 32 - 1])),
       bound=st.none() | st.tuples(st.integers(0, 3), st.sampled_from(
           [math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0, 1e308])),
       size=st.integers(-40, 40))
def test_binary_grid_fuzz_never_exits_3(tmp_path_factory, dim, phi, axes,
                                        cells, bound, size):
    """Header integers (number of axes, cells per axis), axis bounds and
    the payload length of a valid binary grid edited: ``norm`` ends in a
    report or in exit 2 at --binary, never in an internal error."""
    blob = bytearray(_FUZZ_GRIDS[dim].to_binary())
    if axes is not None:
        struct.pack_into("<I", blob, 0, axes)
    if cells is not None:
        struct.pack_into("<I", blob, 4 + 16 * dim + 4 * (cells[0] % dim),
                         cells[1])
    if bound is not None:
        struct.pack_into("<d", blob, 4 + 8 * (bound[0] % (2 * dim)), bound[1])
    blob = blob[:len(blob) + size] if size < 0 else blob + bytes(size)
    path = tmp_path_factory.mktemp("bin") / "grid.bin"
    path.write_bytes(bytes(blob))
    code, err = _norm_exit(phi, "--binary", path)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: --binary: ")


def test_norm_near_the_float_limit_is_quiet(tmp_path, capsys):
    # example_3_4's seam reads |x|: squaring coordinates near 1e300 must not
    # overflow, and neither may the cell volume
    path = tmp_path / "grid.bin"
    GridFunction(((-1e300, 1e300),) * 2,
                 np.linspace(0.0, 1.0, 16).reshape(4, 4)).to_binary(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norm", "--phi", json.dumps({"kind": "example_3_4", "params": {}}),
                     "--binary", str(path)])
    assert code == 0 and capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Malformed input: exit 2 with a pointer to the bad flag or field, never 3

_PHI = json.dumps({"kind": "orlicz", "params": {"p": 2}})
_BALL_1D = '{"ball": {"center": [0], "radius": 1}}'
_BAD_PAIR = {"phi_inf": power_curve(2.0).to_dict(), "h": {"weight": "zero"},
             "beta": 2}
_CURVE = json.dumps(power_curve(2.0).to_dict())


def _check(*flags):
    return ["check", "--phi", _PHI, *flags]


def _pipeline(phi=None, **fields):
    phi = phi or {"kind": "orlicz", "params": {"p": 2}}
    return ["pipeline", json.dumps({"phi": phi, **fields}),
            "--resolution", "1"]


_GLUE_BASE = {"kind": "example_3_2", "params": {}}


@pytest.mark.parametrize("argv,pointer", [
    pytest.param(_check("--condition", "a2", "--pair", '{"beta": 1}'),
                 "/pair/phi_inf", id="check-pair-missing-field"),
    pytest.param(_check("--condition", "a2", "--pair", json.dumps(_BAD_PAIR)),
                 "/pair", id="check-pair-beta-2"),
    pytest.param(_pipeline(checks=[{"condition": "a2", "pair": _BAD_PAIR}]),
                 "/checks/0/pair", id="pipeline-pair-beta-2"),
    pytest.param(["check", "--phi", "[1, 2]", "--condition", "a0"], "--phi",
                 id="check-phi-list"),
    pytest.param(_check("--condition", "weak-equivalence", "--other", _PHI,
                        "--h", '{"weight": "nope"}'), "/h/weight",
                 id="check-unknown-weight"),
    pytest.param(_pipeline(checks=[{"condition": "weak_equivalence",
                                    "other": json.loads(_PHI),
                                    "h": {"weight": "nope"}}]),
                 "/checks/0/h/weight", id="pipeline-unknown-weight"),
    pytest.param(_check("--condition", "ainc", "--p", "2",
                        "--t-range", "0", "abc"), "/T", id="check-t-range"),
    pytest.param(_check("--condition", "ainc", "--p", "2",
                        "--t-range", "-1", "2"), "/T",
                 id="check-negative-t-range"),
    pytest.param(_check("--condition", "equivalence", "--other", _PHI,
                        "--L", "0"), "/L", id="check-L-0"),
    pytest.param(["check", "--phi", json.dumps({"kind": "variable_exponent", "params": {
        "p": {"field": "poly_abs", "coeffs": [2, "x"]}}}), "--condition", "ainc",
        "--p", "2"], "--phi/params/p/coeffs/1", id="check-poly-abs-coeff"),
    pytest.param(["transform", "--op", "glue_small_values",
                  "--phi", json.dumps(_GLUE_BASE),
                  "--region", '{"region": "nope"}'], "/region/region",
                 id="transform-unknown-region"),
    pytest.param(_pipeline({"pipeline": [
        {"make": _GLUE_BASE},
        {"transform": "glue_small_values", "region": {"region": "nope"},
         "p": 2}]}), "/phi/pipeline/1/region/region",
        id="pipeline-unknown-region"),
    pytest.param(["transform", "--op", "cap_curve",
                  "--phi-inf", '{"breakpoints": [0]}'], "/phi_inf/pieces",
                 id="transform-curve-missing-pieces"),
    pytest.param(["norm", "--phi", _PHI,
                  "--function", '{"ball": {"center": [0, 0]}}'],
                 "--function/ball/radius", id="norm-ball-missing-radius"),
    pytest.param(["maximal", "--dim", "1", "--function", _BALL_1D,
                  "--radii", "-1"], "--radii", id="maximal-negative-radius"),
    pytest.param(["maximal", "--dim", "1", "--function", _BALL_1D,
                  "--stride", "0"], "--stride", id="maximal-stride-0"),
    pytest.param(_pipeline(checks=[{"condition": "ainc", "p": 2, "T": [0]}]),
                 "/checks/0/T", id="pipeline-short-t-range"),
    pytest.param(_pipeline({"kind": "orlicz", "params": {"p": 2, "dim": 2}},
                           experiments=[{"experiment": "ball-norm",
                                         "center": [0, 0], "radius": 5,
                                         "cells": 16}]),
                 "/experiments/0", id="pipeline-ball-norm-too-big"),
    pytest.param(_pipeline(experiments=[{"experiment": "maximal-divergence",
                                         "radii": [-1]}]),
                 "/experiments/0/radii/0", id="pipeline-negative-radii"),
    pytest.param(["example", "ex3_5", "--seed", "-1"], "--seed",
                 id="example-negative-seed"),
    pytest.param(_pipeline() + ["--seed", "-1"], "--seed",
                 id="pipeline-negative-seed"),
    pytest.param(_pipeline(name="a/b"), "/name", id="pipeline-name-a/b"),
    pytest.param(_pipeline(checks=[{
        "condition": "weak_equivalence", "other": json.loads(_PHI),
        "h": {"weight": "recip_power", "k": 4, "dim": 1, "c": 1e-300}}]),
        "/checks/0/h", id="pipeline-weight-c-overflows"),
    # the check flags are one check spec: a flag the condition does not
    # read fails at its field
    pytest.param(_check("--condition", "a0", "--p", "7", "--t-min", "0.5",
                        "--seed", "4"), "/p", id="check-a0-p"),
    pytest.param(_check("--condition", "ainc", "--p", "2", "--seed", "3"),
                 "/seed", id="check-ainc-seed"),
    pytest.param(_check("--condition", "a0", "--t-range", "0.5", "2"), "/T",
                 id="check-a0-t-range"),
    # t_min >= t_max leaves no t to sample: it once ran on the swapped span
    pytest.param(_check("--condition", "ainc", "--p", "2", "--t-min", "10",
                        "--t-max", "1"), "/t_max", id="check-t-min-past-t-max"),
    pytest.param(_check("--condition", "adec", "--q", "2", "--t-min", "1e5"),
                 "/t_max", id="check-t-min-past-default-t-max"),
    pytest.param(_pipeline(checks=[{"condition": "ainc", "p": 2, "t_min": 2,
                                    "t_max": 2}]),
                 "/checks/0/t_max", id="pipeline-t-min-at-t-max"),
    # the transform flags are one step: a flag the op does not read fails
    # at its field, and p is required wherever it is read
    pytest.param(["transform", "--op", "tail_asymptotes", "--phi", _PHI,
                  "--p", "7", "--t1", "3", "--beta0", "9"], "/p",
                 id="transform-tail-p"),
    pytest.param(["transform", "--op", "cap_curve", "--phi-inf", _CURVE,
                  "--phi", _PHI, "--p", "7"], "/phi", id="transform-cap-phi"),
    pytest.param(["transform", "--op", "glue_small_values",
                  "--phi", json.dumps(_GLUE_BASE),
                  "--region", '{"region": "inv_square_strip"}'], "/p",
                 id="transform-glue-without-p"),
    pytest.param(["transform", "--op", "repair_asymptote", "--phi-inf", _CURVE,
                  "--t1", "1"], "/p", id="transform-repair-without-p"),
    pytest.param(["transform", "--op", "repair_asymptote", "--phi-inf", _CURVE,
                  "--t1", "nan", "--p", "2"], "/t1", id="transform-t1-nan"),
    pytest.param(["transform", "--op", "small_value_threshold",
                  "--phi-inf", _CURVE], "/phi",
                 id="transform-threshold-without-phi"),
    pytest.param(["transform", "--op", "rebuild_with_ainc", "--phi", _PHI,
                  "--pair", json.dumps({**_BAD_PAIR, "beta": 1}),
                  "--beta0", "2"], "/beta0", id="transform-rebuild-beta0"),
    # one grid source, and --dim is --phi's dimension
    pytest.param(["norm", "--phi", _PHI, "--function", '{"const": 1}',
                  "--binary", "/nonexistent"], "--binary",
                 id="norm-function-and-binary"),
    pytest.param(["maximal", "--binary", "/nonexistent", "--csv", "x.csv"],
                 "--binary", id="maximal-csv-and-binary"),
    pytest.param(["norm", "--phi", _PHI], "--function", id="norm-no-grid"),
    pytest.param(["maximal", "--phi", _PHI, "--dim", "2",
                  "--function", _BALL_1D], "--dim", id="maximal-dim-not-phi's"),
    # a default truncation radius is read as if given
    *(pytest.param(_pipeline(experiments=[{"experiment": kind, **fields}])
                   + ["--resolution", "0.05"], pointer,
                   id=f"pipeline-{kind}-default-radius")
      for kind, fields, pointer in (
          ("operator-norm", {}, "/experiments/0/truncation_radius"),
          ("maximal-divergence", {}, "/experiments/0/radii/0"),
          ("duality", {"f": {"const": 1}, "g": {"const": 1}},
           "/experiments/0/truncation_radius"))),
    # a grid with no cell, or with a cell count past the largest float,
    # once ended in exit 3
    pytest.param(["example", "ex3_4", "--resolution", "0.01"], "/resolution",
                 id="example-ex3_4-no-cell"),
    *(pytest.param(["example", name, "--resolution", "1e308"], "/resolution",
                   id=f"example-{name}-huge-resolution")
      for name in ("ex3_4", "ex3_2")),
    *(pytest.param(_pipeline({"kind": "orlicz", "params": {"p": 2, "dim": 2}},
                             experiments=[{"experiment": kind}])[:2]
                   + ["--resolution", "1e308"], pointer,
                   id=f"pipeline-{kind}-huge-resolution")
      for kind, pointer in (
          ("operator-norm", "/experiments/0/truncation_radius"),
          ("maximal-divergence", "/experiments/0/radii/0"))),
    pytest.param(_pipeline(experiments=[{
        "experiment": "duality", "truncation_radius": 1e308,
        "f": {"const": 1}, "g": {"const": 1}}])[:2],
        "/experiments/0/truncation_radius", id="pipeline-duality-huge-radius"),
    pytest.param(["norm", "--phi", _PHI, "--function", '{"const": 1}',
                  "--resolution", "1e308"], "--resolution",
                 id="norm-huge-resolution"),
    # a finite count past the cap once reached numpy: blamed on the grid
    # that failed to allocate, or allocated until killed for memory
    pytest.param(_pipeline(experiments=[{
        "experiment": "duality", "truncation_radius": 1e308,
        "f": {"const": 1}, "g": {"const": 1}}]),
        "/experiments/0/truncation_radius", id="pipeline-duality-too-many-cells"),
    pytest.param(["norm", "--phi", _PHI, "--function", '{"const": 1}',
                  "--resolution", "1e7"], "--resolution",
                 id="norm-too-many-cells"),
    pytest.param(["example", "ex3_4", "--resolution", "1e5"], "/resolution",
                 id="example-ex3_4-too-many-cells"),
    pytest.param(["maximal", "--dim", "1", "--function", '{"const": 1}',
                  "--truncation-radius", "1e308"], "--truncation-radius",
                 id="maximal-huge-truncation-radius"),
    pytest.param(["transform", "--op", "glue_small_values", "--phi", json.dumps(
        {"kind": "orlicz", "params": {"p": 2, "dim": 2}}), "--region",
        '{"region": "ball", "center": [0, 0], "radius": 1}', "--p", "1e308"],
        "", id="transform-glue-huge-p"),
])
def test_malformed_input_is_exit_2_with_pointer(argv, pointer, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")


_P2 = {"kind": "orlicz", "params": {"p": 2}}


@pytest.mark.parametrize("spec,line", [
    ({"phi": {"kind": "orlicz", "params": {"p": "2"}}},
     "/phi/params/p: expected a finite number, got '2'"),
    ({"phi": {"kind": "orlicz", "params": {"p": 2, "dim": 3}}},
     "/phi/params/dim: expected the dimension 1 or 2, got 3"),
    ({"phi": _P2, "name": "a/b"},
     "/name: expected a string without '/', '\\' or NUL, got 'a/b'"),
    ({"phi": {"schema": "x", "kind": "orlicz"}},
     "/phi/schema: expected 'orliczkit-phi/1' (the schema), got 'x'"),
    ({"phi": _P2, "checks": [{"condition": "a1", "seed": -1}]},
     "/checks/0/seed: expected a non-negative integer, got -1"),
    ({"phi": _P2, "checks": [{"condition": "a0", "expect": 1}]},
     "/checks/0/expect: expected true or false, got 1"),
    ({"phi": _P2, "checks": [{"condition": "a0", "label": 3}]},
     "/checks/0/label: expected a string, got 3"),
    ({"phi": _P2, "checks": 3}, "/checks: expected a list, got 3"),
    ({"phi": _P2, "experiments": [{"experiment": "ball-norm", "center": [0],
                                   "radius": -1}]},
     "/experiments/0/radius: expected a positive finite number, got -1"),
    ({"phi": _P2, "experiments": [{"experiment": "ball-norm", "center": [0],
                                   "radius": 1, "cells": 0}]},
     "/experiments/0/cells: expected a positive integer, got 0"),
], ids=lambda v: v.split(":")[0] if isinstance(v, str) else None)
def test_value_check_messages(spec, line, capsys):
    """The whole stderr line of each kind of value check."""
    assert main(["pipeline", json.dumps(spec)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("argv", [
    _pipeline(),
    ["maximal", "--dim", "1", "--function", _BALL_1D, "--radii", "1"],
    _check("--condition", "a0"),
    ["transform", "--op", "tail_asymptotes", "--phi", _PHI],
    ["norm", "--phi", _PHI, "--function", _BALL_1D],
    ["example", "ex4_6", "--resolution", "1"],
], ids=["pipeline", "maximal", "check", "transform", "norm", "example"])
def test_unwritable_out_is_exit_2(argv, tmp_path, capsys):
    """An --out path under a regular file cannot be made a directory; the
    report is written before it is printed, so nothing reaches stdout."""
    (tmp_path / "file").write_text("")
    assert main([*argv, "--out", str(tmp_path / "file" / "out")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: --out: cannot write") and out == ""



# ---------------------------------------------------------------------------
# Shared flags: each subcommand takes only those it reads, from one parser

_SHARED = ("--out", "--seed", "--resolution", "--truncation-radius")
#: Each subcommand's required arguments, and the shared flags it reads.
_SUBCOMMANDS = {
    "check": (["--phi", _PHI, "--condition", "a0"], {"--out", "--seed"}),
    "transform": (["--op", "tail_asymptotes"], {"--out"}),
    "norm": (["--phi", _PHI],
             {"--out", "--resolution", "--truncation-radius"}),
    "maximal": ([], {"--out", "--resolution", "--truncation-radius"}),
    "example": (["ex3_5"], {"--out", "--seed", "--resolution"}),
    "pipeline": (["spec.json"], {"--out", "--seed", "--resolution"}),
}
_UNREAD = [(command, flag) for command, (_, reads) in _SUBCOMMANDS.items()
           for flag in _SHARED if flag not in reads]


@pytest.mark.parametrize("command,flag", _UNREAD,
                         ids=[f"{c} {f}" for c, f in _UNREAD])
def test_unread_shared_flag_is_a_usage_error(command, flag, capsys):
    assert main([command, *_SUBCOMMANDS[command][0], flag, "3"]) == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_help_lists_the_shared_flags_read(command, capsys):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert listed & set(_SHARED) == _SUBCOMMANDS[command][1]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["check", "--phi", _PHI, "--condition", "a0"]
    assert main(argv) == 0  # builds the parser unless a call before did
    built.clear()
    assert main(argv) == 0
    assert built == []
    capsys.readouterr()


def test_out_env_is_read_at_each_call(tmp_path, monkeypatch, capsys):
    """ORLICZKIT_OUT set after import and changed between calls: each
    call writes where the variable points then, and --out overrides it."""
    argv = ["maximal", "--dim", "1", "--function", _BALL_1D,
            "--truncation-radius", "2", "--radii", "1"]
    files = ["maximal.bin", "maximal.csv", "maximal.json"]
    for name in ("a", "b"):
        monkeypatch.setenv("ORLICZKIT_OUT", str(tmp_path / name))
        assert main(argv) == 0
        assert sorted(os.listdir(tmp_path / name)) == files
    assert main([*argv, "--out", str(tmp_path / "c")]) == 0
    assert sorted(os.listdir(tmp_path / "c")) == files
    assert sorted(os.listdir(tmp_path / "b")) == files
    capsys.readouterr()

_FUZZ_PHI = {"kind": "orlicz", "params": {"p": 2.0, "dim": 2}}
_FUZZ_SPEC = {
    "name": "fuzz", "phi": _FUZZ_PHI,
    "checks": [
        {"condition": "a0"},
        {"condition": "ainc", "p": 2.0, "T": [0.0, None]},
        {"condition": "a2", "pair": {"phi_inf": power_curve(2.0).to_dict(),
                                     "h": {"weight": "zero"}, "beta": 1.0}},
        {"condition": "weak_equivalence", "other": _FUZZ_PHI, "L": 1.0,
         "h": {"weight": "zero"}}],
    "experiments": [
        {"experiment": "operator-norm"},
        {"experiment": "ball-norm", "center": [0.0, 0.0], "radius": 0.5,
         "cells": 16}]}


def _paths(node, prefix=()):
    """Key paths to every value nested in ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_DELETE = object()


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(_paths(_FUZZ_SPEC))),
       value=st.sampled_from([_DELETE, None, "x", -1, 0, [], {},
                              {"weight": "nope"}]))
def test_pipeline_spec_fuzz_never_exits_3(path, value):
    """One key of a small valid spec deleted, or its value replaced: the
    run ends in a verdict or in exit 2 naming a field.  No size is drawn
    large, so no run allocates more than the valid spec does."""
    spec = copy.deepcopy(_FUZZ_SPEC)
    node = spec
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["pipeline", json.dumps(spec), "--resolution", "1"])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error: /")


def _objects(node, prefix=()):
    """Key paths to ``node``, if an object, and to every object in it."""
    if isinstance(node, dict):
        yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _objects(value, prefix + (key,))


_OBJECTS = list(_objects(_FUZZ_SPEC))


@pytest.mark.parametrize("path", _OBJECTS,
                         ids=["/".join(map(str, p)) or "spec" for p in _OBJECTS])
def test_pipeline_spec_unknown_key_at_any_depth(path, capsys):
    """One unknown key inserted into any object of a small valid spec (phi
    and its params, a pair, its curve and the curve's terms, weights,
    checks, experiments): exit 2 at that key's pointer, never a run that
    drops it."""
    spec = json.loads(json.dumps(_FUZZ_SPEC))  # no object shared by two keys
    node = spec
    for key in path:
        node = node[key]
    node["typo"] = 1
    assert main(["pipeline", json.dumps(spec), "--resolution", "1"]) == 2
    pointer = "".join(f"/{key}" for key in path)
    assert capsys.readouterr().err.startswith(f"error: {pointer}/typo: ")


# ---------------------------------------------------------------------------
# Guard clauses of the API that no bundle, pipeline or CLI path reaches

def _table():
    return from_curve(power_curve(2.0)).table(np.zeros((1, 1)))


def _rebuild_at(t1):
    pair = orliczkit.AsymptotePair(power_curve(2.0), WeightFunction.recip_power(4.0, 1),
                                   beta=1.0)
    return orliczkit.rebuild_with_ainc(make_family("example_3_5", {"dim": 1}), pair, t1)


_GUARDS = {
    "value at t < 0": (lambda: _table().value(np.array([[-1.0]])), ValueError,
                       "t must be nonnegative"),
    "inverse at tau < 0": (lambda: _table().inverse(-1.0), ValueError,
                           "tau must be nonnegative"),
    "conjugate at t < 0": (lambda: _table().conjugate(-1.0), ValueError,
                           "t must be nonnegative"),
    "recip_power c = 0": (lambda: WeightFunction.recip_power(4.0, 1, c=0.0), ValueError,
                          "c must be positive"),
    "check_a2 s = 0": (lambda: orliczkit.check_a2(
        from_curve(power_curve(2.0)), power_curve(2.0),
        WeightFunction.recip_power(4.0, 1), 1.0, s=0.0), ValueError, "s must be positive"),
    "Domain(3)": (lambda: orliczkit.Domain(3), orliczkit.ConstructionError,
                  "only dimensions 1 and 2"),
    "Domain lower alone": (lambda: orliczkit.Domain(1, lower=(0.0,)),
                           orliczkit.ConstructionError, "given together"),
    "double_phase a < 0": (lambda: make_family("double_phase", {
        "p": 2, "q": 3, "a": {"field": "const", "value": -1.0}}).eval([0.0], 1.0),
        orliczkit.ConstructionError, "weight a must be nonnegative"),
    "vdp q < p": (lambda: make_family("vdp", {
        "p": {"field": "const", "value": 2.0}, "q": {"field": "const", "value": 1.5}})
        .eval([0.0], 1.0), orliczkit.ConstructionError, r"1 <= p\(x\) <= q\(x\)"),
    "unknown kind": (lambda: make_family("no_such_kind"), orliczkit.ConstructionError,
                     "unknown family kind"),
    "glue p = 1": (lambda: glue_small_values(
        make_family("example_3_2"), region_from_dict({"region": "inv_square_strip"}), 1.0),
        orliczkit.ConstructionError, "p must exceed 1"),
    "repair t1 = 0": (lambda: orliczkit.repair_asymptote(power_curve(1.0), 0.0, 2.0),
                      orliczkit.ConstructionError, "t1 must be positive"),
    "rebuild t1 = 0": (lambda: _rebuild_at(0.0), orliczkit.ConstructionError,
                       "t1 must be positive"),
    "t1 of phi > 1 near 0": (lambda: small_value_threshold(
        from_curve(PhiCurve((0.0,), ((orliczkit.PowerTerm(1e308, 1.0),),))),
        power_curve(2.0)), orliczkit.ConstructionError, "no positive threshold"),
    "3D grid": (lambda: GridFunction(((0.0, 1.0),) * 3, np.ones((2, 2, 2))), ValueError,
                "must be 1D or 2D"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guard_clauses(case):
    call, error, message = _GUARDS[case]
    with pytest.raises(error, match=message):
        call()


def test_a_raising_runner_gives_an_errored_bundle_and_exit_3(monkeypatch, capsys):
    def broken(resolution, seed):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(importlib.import_module("orliczkit.gallery")._RUNNERS,
                        "ex3_5", broken)
    bundle = run_example("ex3_5")
    assert bundle["errored"] == {"stage": "ex3_5", "error": "RuntimeError: runner broke"}
    assert bundle["verdict"] is False and bundle["claims"] == []
    assert main(["example", "ex3_5"]) == 3
    assert json.loads(capsys.readouterr().out)["errored"] == bundle["errored"]
