"""The diff of two bundle walks (``tools/bundle_diff.py``) on small
hand-made walks, the failure report of a child run, and the walk
(``tools/bundles.py``) of a stand-in checkout; no real walk is run."""

import hashlib
import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bundles  # noqa: E402
from bundle_diff import diff, report  # noqa: E402


def test_nan_equals_nan():
    assert diff({"x": [math.nan]}, {"x": [math.nan]}) == ([], [], [])


def test_inf_against_a_finite_number_is_an_inf_move():
    assert diff({"x": math.inf}, {"x": 1.0}) == ([(math.inf, "/x")], [], [])
    assert diff([2.0], [1.0]) == ([(0.5, "/0")], [], [])


def test_bool_against_int_is_a_non_numeric_difference():
    assert diff({"ok": True}, {"ok": 1}) == ([], [], ["/ok: true -> 1"])


def test_a_key_on_one_side_and_a_changed_length():
    assert diff({"a": 1, "b": 2}, {"b": 2, "c": 3}) == (
        [], [], ["/a: only in parent", "/c: only in change"])
    assert diff({"v": [1, 2]}, {"v": [1, 2, 3]}) == (
        [], [], ["/v: [1, 2] -> [1, 2, 3]"])


def test_an_int_on_both_sides_is_a_count_not_a_relative_move():
    # a count prints as a -> b; an int against a float is still a move
    assert diff({"n": 2400, "x": 1.0}, {"n": 2395, "x": 1.5}) == (
        [(1 / 3, "/x")], ["/n: 2400 -> 2395"], [])
    assert diff([2], [1.0]) == ([(0.5, "/0")], [], [])
    # so "largest" ranks the float moves only
    walk = _walk({"example ex/4": {"n": 2400, "x": 1.0}}, {})
    moved = _walk({"example ex/4": {"n": 1, "x": 1.0 + 1e-9}}, {})
    assert report(walk, moved) == [
        "example ex/4: moved 2, largest 1e-09 at /x",
        "  /n: 2400 -> 1",
        "total: 2 numbers moved in 1 bundles, 0 non-numeric differences"]


def _walk(values: dict, files: dict) -> tuple:
    """``(values, hashes)`` as ``bundles.load`` returns them."""
    return values, {**{k: bundles.digest(v) for k, v in values.items()},
                    **files}


def test_report_parses_cli_stdout_and_lists_differing_files():
    parent = _walk({"bundle w/1/0:cli": [0, '{"n": 1.0}', ""],
                    "bundle w/1/1:gone": {"n": 1},
                    "example ex/4": {"n": 2.0}},
                   {"file w/1/a.json": "aa", "file w/1/b.json": "bb",
                    "file w/1/old.json": "cc"})
    change = _walk({"bundle w/1/0:cli": [0, '{"n": 2.0}', ""],
                    "example ex/4": {"n": 2.0}},
                   {"file w/1/a.json": "aa", "file w/1/b.json": "bx",
                    "file w/1/new.json": "dd"})
    assert report(parent, change) == [
        "w/1/0:cli: moved 1, largest 0.5 at /1/n",
        "w/1/1:gone: only in parent",
        "example ex/4: moved 0, largest 0",
        "file w/1/b.json: sha256 differs",
        "file w/1/old.json: only in parent",
        "file w/1/new.json: only in change",
        "total: 1 numbers moved in 1 bundles, 1 non-numeric differences"]
    walk = _walk({"example ex/4": {"n": math.nan}}, {"file w/1/a.json": "aa"})
    assert report(walk, walk) == [
        "example ex/4: moved 0, largest 0",
        "total: 0 numbers moved in 0 bundles, 0 non-numeric differences"]


def test_a_failed_child_run_names_its_checkout_command_and_stderr(tmp_path):
    argv = [sys.executable, "-c", "import sys; sys.exit('bad bundle')"]
    with pytest.raises(SystemExit) as failed:
        bundles.child(str(tmp_path), argv)
    message = str(failed.value.code)
    assert str(tmp_path) in message and "exited 1" in message
    assert message.endswith("bad bundle")


_WORKLOADS = """
import os
from types import SimpleNamespace
from orliczkit import norms

def _build(seed, work):
    def call():
        with open(os.path.join(work, "out.txt"), "w") as fh:
            fh.write(str(seed))
        return {"seed": seed, "at": hasattr(norms, "_modular_at")}
    return [SimpleNamespace(label="one", call=call)]

BUILDERS = {"w": _build}
"""

_PACKAGE = """
from orliczkit import norms
EXAMPLE_NAMES = ["ex"]

def run_example(name, resolution, seed):
    if hasattr(norms, "_modular_at"):
        norms._modular_at(None, None)(1.0)
    return {"resolution": resolution}
"""


@pytest.mark.parametrize("counted", [True, False])
def test_the_walk_reads_a_checkout_with_or_without_the_counter(tmp_path,
                                                               counted):
    """A stand-in checkout is walked in a child run, its work directory
    under the child's TMPDIR; a ``norms`` without ``_modular_at`` (older
    checkouts) walks all the same, with null evaluation counts."""
    (tmp_path / "src" / "orliczkit").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(_WORKLOADS)
    (tmp_path / "src" / "orliczkit" / "__init__.py").write_text(_PACKAGE)
    (tmp_path / "src" / "orliczkit" / "norms.py").write_text(
        "def _modular_at(phi, fs):\n    return lambda u: 0.0\n"
        if counted else "")
    runs = bundles.child(str(tmp_path), [sys.executable, bundles.__file__,
                                         "--seeds", "3"],
                         env={**os.environ, "TMPDIR": str(tmp_path)})
    assert [(r["run"], r["values"], r["evals"]) for r in runs] == [
        ("w 3", {"bundle w/3/0:one": {"seed": 3, "at": counted}},
         0 if counted else None),
        ("example ex/4", {"example ex/4": {"resolution": 4.0}},
         1 if counted else None),
        ("example ex/8", {"example ex/8": {"resolution": 8.0}},
         1 if counted else None)]
    assert runs[0]["hashes"] == {
        "bundle w/3/0:one": bundles.digest({"seed": 3, "at": counted}),
        "file w/3/out.txt": hashlib.sha256(b"3").hexdigest()}
