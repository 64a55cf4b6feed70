"""hklat benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload mixed-small --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
and the oracles from ``tests/support.py`` of that checkout. The last
line of stdout is the result object; the line before it carries the
provenance, every end-to-end metric including ``fail_ratio``, and the
first few correctness problems, if any. See NOTES.md for what each
metric means and which layer should move it.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it runs one untraced pass and then the same pass with
every hklat public function wrapped, and reports the per-layer
metrics; the spans are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
SETUP_ROUNDS = 5  # cold starts per subcommand
SETUP_TIMEOUT_S = 60
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
# ten samples must lie beyond the reported tail percentile
TAIL_SAMPLES = 10
WARM_UP_MAX_S = 2.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mixed-small", "cones-heavy", "bounds-tables"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it."""
    return max(p for p in PERCENTILES if n * (100 - p) / 100 >= TAIL_SAMPLES)


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def measure_setup(problems: list[str]) -> tuple[float, float]:
    """Median (raw, normalised) wall time of a cold ``python -m hklat
    <sub> --schema``, SETUP_ROUNDS times per subcommand. A cold start is interpreter
    work on every workload, so each is normalised by interpreter-only
    probe samples taken right before and after it."""
    from harness import SpeedProbe
    from hklat.jsonio import SCHEMAS, dump_canonical

    probe = SpeedProbe((1, 0, 0))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    raw, norm = [], []
    for sub in list(SCHEMAS) * SETUP_ROUNDS:
        probe.last = probe.sample()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hklat", sub, "--schema"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        raw.append(perf_counter() - t0)
        norm.append(raw[-1] * probe.factor())
        if proc.returncode != 0 or proc.stdout != dump_canonical(SCHEMAS[sub]):
            problems.append(f"cold start of {sub} --schema: exit {proc.returncode}")
    return statistics.median(raw), statistics.median(norm)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout has no commit to report
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hklat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _pinned(workload: str, seed: int, count: int):
    if seed != DEFAULT_SEED:
        return None
    digests = json.loads((HERE / "pinned.json").read_text())["workloads"][workload]
    # a list of another length cannot be matched query by query: all fail
    return digests if len(digests) == count else [""] * count


def end_to_end(queries, verdicts, args, problems):
    from harness import SpeedProbe, run_passes, warm_up
    from workloads import PROBE_WEIGHTS

    raw_setup_s, setup_s = measure_setup(problems)
    probe = SpeedProbe(PROBE_WEIGHTS[args.workload])
    warm_up(queries, verdicts, min(WARM_UP_MAX_S, 0.1 * args.seconds))
    tally = run_passes(queries, verdicts, probe, args.seconds)
    pct = tail_percentile(len(queries))
    fail_ratio = tally.failed / tally.attempted

    def timings(latencies, busy_s, setup):
        lat = sorted(latencies)
        return {"throughput_qps": (tally.attempted / busy_s, "1/s"),
                "latency_p50_s": (statistics.median(lat), "s"),
                "latency_tail_s": (nearest_rank(lat, pct), "s"),
                "setup_s": (setup, "s")}

    metrics = timings(tally.latencies, tally.busy_s, setup_s)
    metrics["success_ratio"] = (1 - fail_ratio, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = timings(tally.raw_latencies, tally.raw_busy_s, raw_setup_s)
    detail = {"fail_ratio": fail_ratio, "latency_tail_percentile": pct,
              "timed_queries": tally.attempted, "passes": tally.attempted // len(queries),
              "timed_s": tally.raw_busy_s, "probe_s": probe.spent_s,
              "as_measured": {k: f"{v:.6g} {u}" for k, (v, u) in raw.items()}}
    return metrics, tally, detail


def per_layer(queries, verdicts, args, problems):
    from harness import SpeedProbe, Tally, run_pass, warm_up
    from spans import Recorder, unit_of
    from workloads import PROBE_WEIGHTS

    probe = SpeedProbe(PROBE_WEIGHTS[args.workload])
    warm_up(queries, verdicts, min(WARM_UP_MAX_S, 0.1 * args.seconds))
    tally = Tally()
    _, untraced = run_pass(queries, verdicts, tally, probe)
    recorder = Recorder()
    recorder.install()
    try:
        traced_raw, traced = run_pass(queries, verdicts, tally, probe,
                                      before=lambda i: setattr(recorder, "query", i))
    finally:
        recorder.uninstall()
    values = recorder.report(traced_raw, traced / untraced)
    problems += recorder.problems
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    recorder.write_spans(str(out_dir / f"spans-{args.workload}-{args.seed}.tsv"))
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    detail = {"fail_ratio": tally.failed / tally.attempted, "untraced_s": untraced,
              "traced_s": traced, "traced_raw_s": traced_raw, "spans": len(recorder.start)}
    return metrics, tally, detail


def load_checkout() -> bool:
    """Import hklat from this checkout's src/, and nothing else."""
    if not (ROOT / "src" / "hklat" / "cli.py").is_file():
        print(f"no hklat sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import hklat

    if Path(hklat.__file__).resolve().parent != ROOT / "src" / "hklat":
        print(f"hklat imported from {hklat.__file__}, not from this checkout", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not load_checkout():
        return 2
    import oracles
    from harness import Verdicts
    from workloads import generate

    queries = generate(args.workload, args.seed)
    verdicts = Verdicts(queries, oracles.check, _pinned(args.workload, args.seed, len(queries)))
    problems: list[str] = []
    measure = per_layer if args.trace else end_to_end
    metrics, tally, detail = measure(queries, verdicts, args, problems)
    problems = verdicts.problems + problems
    provenance = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _commit(), "source_sha256": _source_digest(), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "queries": len(queries),
        "seconds": args.seconds, "trace": args.trace,
    }
    shown = {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()}
    shown["fail_ratio"] = f"{detail['fail_ratio']:.6g} ratio"
    print(json.dumps({"provenance": provenance, "detail": detail, "metrics": shown,
                      "problems": problems}))
    print(json.dumps({
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
