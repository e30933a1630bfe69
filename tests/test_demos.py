"""The demos run to completion, so a renamed or deleted public name that a
demo uses fails here.

Demo 05 is left out: it runs the CLI pipeline, which test_cli.py and
test_artifacts.py already cover, and it takes longer than 01-04 together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_every_numbered_demo_but_the_pipeline_is_run():
    assert len(DEMOS) == 4
