"""The demo scripts run cleanly and print the pinned bytes every time.

The files under ``tests/data`` hold the expected stdout byte for byte,
so a change to the bounds' Decimal arithmetic or to the ruling classes
shows here; ``bound_table.py --exact-threshold 20`` prints most of its
table through the logarithmic path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

PINS = {
    "zariski_demo.py": [([], "zariski_demo.out")],
    "bound_table.py": [([], "bound_table.out"), (["--exact-threshold", "20"], "bound_table_log.out")],
}


@pytest.mark.parametrize("script", sorted(PINS))
def test_script_output_is_deterministic(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for args, pin in PINS[script]:
        runs = [subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                               capture_output=True, env=env, timeout=120) for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout == (DATA / pin).read_bytes()
