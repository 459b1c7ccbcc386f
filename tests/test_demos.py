"""The demos run to completion.

Each demo runs as a subprocess against ``src``: 01-04 as they are, 05 with
``--quick`` (a 16/8-scene ladder of 30 epochs, a few seconds). The full
ablation of 05 is left to criterion 7 of the acceptance suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
FLAGS = {"05": ["--quick"]}


def test_the_smoke_test_runs_five_demos():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo), *FLAGS.get(demo.name[:2], [])],
                            cwd=tmp_path, capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-4000:]
