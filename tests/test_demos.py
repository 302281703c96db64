"""Every demo runs clean as a script and prints what it shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: What a demo must print: the divergent case of ``05_maximal.py`` spans
#: three doublings of the truncation radius, the least that the growth
#: rule flags.
PRINTS = {"05_maximal.py": "-> unbounded evidence: True"}


@pytest.mark.parametrize("script", [
    "01_phi_functions.py", "02_conditions.py", "03_transforms.py",
    "04_norms.py", "05_maximal.py", "06_catalog_and_pipelines.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert PRINTS.get(script, "") in done.stdout
