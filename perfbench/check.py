"""The benchmark's own check: every workload, both modes, default seed.

    python3 perfbench/check.py

Each run gets a one-second budget, so it measures a single pass. The
check passes when every run exits 0, reports exactly the metric names
and units that BENCHMARK.json lists for its mode, is correct, and has
fail_ratio 0. Runs go one after another, never side by side.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT

RUN_TIMEOUT_S = 600


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                *_, detail_line, result_line = proc.stdout.strip().splitlines()
                result, detail = json.loads(result_line), json.loads(detail_line)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"metrics {sorted(units)} differ from BENCHMARK.json")
                if not result["correct"] or result["failed"]:
                    problems.append(f"incorrect: {detail['problems'][:3]}")
                if detail["detail"]["fail_ratio"] != 0:
                    problems.append(f"fail_ratio {detail['detail']['fail_ratio']}")
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
