"""Closed-loop load generator: one client, one query at a time, in-process.

Every query goes through ``hklat.cli.main(argv)`` with stdin, stdout
and stderr swapped for in-memory buffers, so a query costs what a
shell caller pays after interpreter start: argparse, JSON parsing,
validation, the kernel and rendering. ``cli.run`` is not used on its
own because only ``main`` lifts the interpreter's int-to-str digit
limit (see NOTES.md, known defects).

Times are reported both as measured and normalised to a nominal host
speed by ``SpeedProbe``; NOTES.md says why.
"""

from __future__ import annotations

import hashlib
import io
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from hklat import cli

_BIG_A = math.factorial(2500)
_BIG_B = math.factorial(2400) + 1
_BIG_C = math.factorial(4000)  # 12674 digits


def _interpreter_task() -> float:
    t0 = perf_counter()
    table, acc, frac = {}, 0, Fraction(0)
    for i in range(1, 400):
        acc += (i * i) % 97
        table[(i, acc)] = str(i)
        frac += Fraction(1, i % 13 + 1)
    return perf_counter() - t0


def _multiply_task() -> float:
    t0 = perf_counter()
    for _ in range(3):
        _BIG_A * _BIG_B
    return perf_counter() - t0


def _decimal_task() -> float:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = perf_counter()
        str(_BIG_C)
        return perf_counter() - t0
    finally:
        sys.set_int_max_str_digits(limit)


class SpeedProbe:
    """Tracks the host's momentary speed with fixed reference tasks.

    The tasks are stdlib-only: dict, tuple, str and Fraction work for
    the interpreter, big-integer multiplication, and the decimal
    conversion of a 12674-digit integer. Host contention slows these
    by different amounts, so a workload weighs them by its own mix of
    work (``weights``, summing to 1). A sample is the weighted
    geometric mean of each task's time over its nominal time, each
    task the faster of two tries; ``factor`` turns a measured time
    into seconds at the nominal speed.
    """

    TASKS = (_interpreter_task, _multiply_task, _decimal_task)
    NOMINAL_S = (1.5e-3, 1.5e-3, 3e-3)
    INTERVAL_S = 0.2  # measured time between two samples in a timed pass

    def __init__(self, weights):
        self.parts = [(task, nominal, w)
                      for task, nominal, w in zip(self.TASKS, self.NOMINAL_S, weights) if w]
        self.spent_s = 0.0
        self.last = self.sample()

    def sample(self) -> float:
        t0 = perf_counter()
        slowdown = math.prod((min(task(), task()) / nominal) ** w
                             for task, nominal, w in self.parts)
        self.spent_s += perf_counter() - t0
        return slowdown

    def factor(self) -> float:
        """Nominal seconds per measured second since the last call."""
        before, self.last = self.last, self.sample()
        return 2 / (before + self.last)


@dataclass(frozen=True)
class Outcome:
    exit_code: int | None
    error: str | None
    stdout: str
    latency_s: float


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def call(query) -> Outcome:
    """Run one query; an uncaught exception is an outcome, not a crash."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(query.stdin)
    out, err = sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    crash = None
    t0 = perf_counter()
    try:
        code = cli.main(list(query.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed query; keep going
        code, crash = None, f"uncaught {type(exc).__name__}"
    finally:
        t1 = perf_counter()
        sys.stdin, sys.stdout, sys.stderr = saved
    error = crash
    if crash is None and code != 0:
        error = err.getvalue().split(":", 1)[0].strip() or None
    return Outcome(code, error, out.getvalue(), t1 - t0)


class Verdicts:
    """Per-query correctness, settled on a query's first execution.

    The first execution is checked against the expected exit code and
    error name, the pinned stdout digest when one exists, and the
    independent oracle; every later execution must reproduce the first
    one's stdout digest and exit code exactly.
    """

    def __init__(self, queries, oracle, pinned=None):
        self.queries = queries
        self.oracle = oracle
        self.pinned = pinned
        # query index -> ((exit code, error, stdout digest), verdict)
        self.first: dict[int, tuple[tuple, bool]] = {}
        self.problems: list[str] = []
        self.check_s = 0.0

    def judge(self, i: int, outcome: Outcome) -> bool:
        key = (outcome.exit_code, outcome.error, digest(outcome.stdout))
        if i in self.first:
            first_key, ok = self.first[i]
            if key != first_key:
                return self._problem(i, "output differs from its first execution")
            return ok
        t0 = perf_counter()
        q = self.queries[i]
        ok = True
        if (outcome.exit_code, outcome.error) != (q.exit_code, q.error):
            ok = self._problem(
                i, f"exit {outcome.exit_code} {outcome.error}, expected {q.exit_code} {q.error}")
        elif self.pinned is not None and key[2] != self.pinned[i]:
            ok = self._problem(i, "stdout digest differs from the pinned one")
        elif q.exit_code == 0:
            msg = self.oracle(q, outcome.stdout)
            if msg:
                ok = self._problem(i, msg)
        self.first[i] = (key, ok)
        self.check_s += perf_counter() - t0
        return ok

    def _problem(self, i: int, msg: str) -> bool:
        if len(self.problems) < 20:
            self.problems.append(f"query {i} ({self.queries[i].kind}): {msg}")
        return False


@dataclass
class Tally:
    """Timed executions; ``latencies`` and ``busy_s`` are normalised,
    the ``raw_`` fields are as measured."""

    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    raw_busy_s: float = 0.0


def run_pass(queries, verdicts: Verdicts, tally: Tally, probe: SpeedProbe,
             before=None) -> tuple[float, float]:
    """One pass over the list; returns its (raw, normalised) wall time
    without oracle or probe work. Queries are timed in blocks of about
    ``SpeedProbe.INTERVAL_S``, each normalised by the probe samples at its
    two ends. ``before(i)`` runs ahead of query i, inside the timed
    region."""
    raw_total = norm_total = 0.0
    block: list[float] = []
    probe.last = probe.sample()
    start, check_start = perf_counter(), verdicts.check_s
    for i, q in enumerate(queries):
        if before is not None:
            before(i)
        outcome = call(q)
        block.append(outcome.latency_s)
        tally.attempted += 1
        if not verdicts.judge(i, outcome):
            tally.failed += 1
        now = perf_counter()
        if now - start >= SpeedProbe.INTERVAL_S or i == len(queries) - 1:
            wall = now - start - (verdicts.check_s - check_start)
            f = probe.factor()
            tally.raw_latencies += block
            tally.latencies += [x * f for x in block]
            raw_total += wall
            norm_total += wall * f
            block = []
            start, check_start = perf_counter(), verdicts.check_s
    tally.raw_busy_s += raw_total
    tally.busy_s += norm_total
    return raw_total, norm_total


def run_passes(queries, verdicts: Verdicts, probe: SpeedProbe, seconds: float) -> Tally:
    """Whole passes until the next one would overrun ``seconds`` of
    measured time; at least one. Whole passes keep the query mix
    identical on every run."""
    tally = Tally()
    while True:
        raw, _ = run_pass(queries, verdicts, tally, probe)
        if tally.raw_busy_s + raw > seconds:
            return tally


def warm_up(queries, verdicts: Verdicts, seconds: float) -> None:
    """Untimed executions from the head of the list, to settle caches
    and the adaptive interpreter; their verdicts count as first runs."""
    t0 = perf_counter()
    for i, q in enumerate(queries):
        if perf_counter() - t0 >= seconds:
            return
        verdicts.judge(i, call(q))
