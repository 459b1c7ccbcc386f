"""The demos run to completion.

Demos 01-04 run as subprocesses against ``src``; 05 runs the ablation
ladder (about 48 s) and is left to criterion 7 of the acceptance suite,
which covers the same ablation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_smoke_test_runs_four_demos():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                            text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-4000:]
