"""The demo scripts run cleanly and print the same bytes every time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["zariski_demo.py", "bound_table.py"])
def test_script_output_is_deterministic(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                           capture_output=True, env=env, timeout=120) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout
    assert runs[0].stdout == runs[1].stdout
