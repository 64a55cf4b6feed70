"""Sensitivity test of the normalised times against injected changes.

    python3 perfbench/sensitivity.py --workload mixed-small --seed 11

Runs whole passes of one workload in one process, plain and under an
injected change, in the order plain, injected, injected, plain for
each of PAIRS pairs, so a steady drift of host speed cancels. For each injection
it prints the ratio injected/plain of ``throughput_qps``,
``latency_p50_s`` and ``latency_tail_s``, as measured and normalised,
each the median over the pairs. Both ratios see the same host, so a
normalised ratio that matches the measured one shows that the probe
did not absorb the change.

Injections, each inside the timed region and inside ``cli.main``:

- ``repeat``: every query runs twice, the first time into a discarded
  buffer. A known amount of extra work: latencies should double and
  throughput halve.
- ``working-set``: the process holds 64 MB more, and every query first
  reads 1 MB of it, in eight slices spread over the whole buffer. A
  bigger heap and working set, which the probe runs next to.

Run from the root of a checkout, one workload at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
from contextlib import contextmanager

from run import DEFAULT_SEED, load_checkout, nearest_rank, tail_percentile

INJECTIONS = ("repeat", "working-set")
PAIRS = 2
WORKING_SET_BYTES = 64 << 20
SCAN_BYTES = 1 << 20
SCAN_SLICES = 8
WARM_UP_S = 2.0


def _twice(main):
    def run_twice(argv):
        data = sys.stdin.read()
        saved = sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(data), io.StringIO(), io.StringIO()
        try:
            main(argv)
        except SystemExit:
            pass
        finally:
            sys.stdout, sys.stderr = saved
        sys.stdin = io.StringIO(data)
        return main(argv)
    return run_twice


def _scanning(main, buffer):
    def scan_then_run(argv):
        for k in range(SCAN_SLICES):
            offset = k * (WORKING_SET_BYTES // SCAN_SLICES)
            buffer.count(0, offset, offset + SCAN_BYTES // SCAN_SLICES)
        return main(argv)
    return scan_then_run


@contextmanager
def injected(name: str):
    from hklat import cli

    main = cli.main
    if name == "repeat":
        cli.main = _twice(main)
    else:  # written through, so every page is really resident
        cli.main = _scanning(main, bytearray(range(256)) * (WORKING_SET_BYTES // 256))
    try:
        yield
    finally:
        cli.main = main


def _figures(tally, pct):
    out = {}
    for kind, lat, busy in (("measured", tally.raw_latencies, tally.raw_busy_s),
                            ("normalised", tally.latencies, tally.busy_s)):
        lat = sorted(lat)
        out[kind] = {"throughput_qps": tally.attempted / busy,
                     "latency_p50_s": statistics.median(lat),
                     "latency_tail_s": nearest_rank(lat, pct)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mixed-small", "cones-heavy", "bounds-tables"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not load_checkout():
        return 2
    import oracles
    from harness import SpeedProbe, Tally, Verdicts, run_pass, warm_up
    from workloads import PROBE_WEIGHTS, generate

    queries = generate(args.workload, args.seed)
    verdicts = Verdicts(queries, oracles.check)
    probe = SpeedProbe(PROBE_WEIGHTS[args.workload])
    pct = tail_percentile(len(queries))
    warm_up(queries, verdicts, WARM_UP_S)
    failed = 0
    report = {"workload": args.workload, "seed": args.seed, "pairs": PAIRS,
              "tail_percentile": pct, "ratios": {}}
    for name in INJECTIONS:
        ratios: dict[str, dict[str, list[float]]] = {"measured": {}, "normalised": {}}
        for _ in range(PAIRS):
            figures = {}
            for arm in ("plain", "injected", "injected", "plain"):
                tally = Tally()
                if arm == "plain":
                    run_pass(queries, verdicts, tally, probe)
                else:
                    with injected(name):
                        run_pass(queries, verdicts, tally, probe)
                failed += tally.failed
                figures.setdefault(arm, []).append(_figures(tally, pct))
            for kind in ratios:
                for metric in figures["plain"][0][kind]:
                    plain = sum(f[kind][metric] for f in figures["plain"])
                    inj = sum(f[kind][metric] for f in figures["injected"])
                    ratios[kind].setdefault(metric, []).append(inj / plain)
        report["ratios"][name] = {kind: {m: statistics.median(v) for m, v in per.items()}
                                  for kind, per in ratios.items()}
        for kind, per in report["ratios"][name].items():
            shown = "  ".join(f"{m} x{r:.3f}" for m, r in per.items())
            print(f"{args.workload} {name:12s} {kind:10s} {shown}", flush=True)
    report["failed"] = failed
    report["problems"] = verdicts.problems
    print(json.dumps(report))
    return 1 if failed or verdicts.problems else 0


if __name__ == "__main__":
    sys.exit(main())
