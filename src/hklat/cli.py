"""Command-line front end: argv, flags, exit status and rendering.

The parser and ``run`` read only the table ``jsonio.SUBCOMMANDS``,
which also holds each subcommand's JSON contract. Every subcommand
takes an input path ('-' for standard input), ``--format``,
``--schema`` and the flags its record's ``options`` name; ``_OPTIONS``
spells each flag once and ``RunConfig`` holds every default, the two
numeric ones read from the ``hklat`` package. A call whose first
argument names a subcommand builds only that subcommand's parser; help
and usage errors build all of them.

This module executes only ``jsonio`` and ``errors`` of the package, so
``--schema``, help and usage errors run no kernel module; a subcommand
executes the kernel modules its handler uses when it first uses them.

Reports are emitted with sorted keys and compact separators, so a
given input and configuration always produce identical bytes. Output
is plain unstyled text in both formats; NO_COLOR is honored by
construction.

Exit status: 0 on success, 1 on a domain error (the typed error name
and message go to standard error, no traceback), 2 on I/O, encoding,
JSON, or schema problems and on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import DEFAULT_EXACT_THRESHOLD, DEFAULT_ORBIT_BUDGET, jsonio
from .errors import DomainError
from .jsonio import SchemaError


class RunConfig(NamedTuple):
    subcommand: str
    input_path: str | None = None
    fmt: str = "json"
    orbit_budget: int = DEFAULT_ORBIT_BUDGET
    pairing_max: int | None = None
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    schema: bool = False


# RunConfig field -> (flag, add_argument keywords), the one place each
# flag is spelled. Every subcommand takes --format and --schema; the
# options of its jsonio.Subcommand record name the rest.
_DEFAULTS = RunConfig._field_defaults
_OPTIONS = {
    "fmt": ("--format", dict(choices=("json", "text"), help=f"output format (default: {_DEFAULTS['fmt']})")),
    "schema": ("--schema", dict(action="store_true", help="print the input/output schema and exit")),
    "orbit_budget": ("--budget", dict(
        metavar="BUDGET", type=int, help=f"orbit search budget (default: {_DEFAULTS['orbit_budget']})")),
    "pairing_max": ("--pairing-max", dict(type=int, help="override the enumeration pairing bound")),
    "exact_threshold": ("--exact-threshold", dict(
        type=int, help="largest factorial argument evaluated exactly "
                       f"(default: {_DEFAULTS['exact_threshold']})")),
}


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return jsonio.dump_canonical(report)
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict) and value:
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            rendered = json.dumps(value, sort_keys=True, separators=(", ", ": "))
            lines.append(f"{prefix}: {rendered}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> dict:
    try:
        if path == "-":
            # a stdin decoded with surrogateescape, as in the C locale, holds
            # undecodable bytes as lone surrogates: restore and decode them
            # here, so they fail as they would from a file
            text = sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except UnicodeError as exc:
        raise SchemaError(f"input is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise SchemaError("input nests too deeply to parse") from None
    if not isinstance(obj, dict):
        raise SchemaError("top-level input must be a JSON object")
    return obj


def run(config: RunConfig) -> int:
    # input integers, determinants and coordinates may pass the default
    # int/str digit limit; exact bounds print via Decimal and never meet it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        sub = jsonio.SUBCOMMANDS.get(config.subcommand)
        if sub is None:
            raise SchemaError(f"unknown subcommand {config.subcommand!r}")
        if config.schema:
            sys.stdout.write(jsonio.dump_canonical(sub.schema))
            return 0
        if config.orbit_budget < 1:
            raise SchemaError("orbit budget must be positive")
        if config.pairing_max is not None and config.pairing_max < 1:
            raise SchemaError("pairing_max must be positive")
        if config.exact_threshold < 0:
            raise SchemaError("exact threshold must be nonnegative")
        if config.fmt not in ("json", "text"):
            raise SchemaError(f"unknown output format {config.fmt!r}")
        if config.input_path is None:
            raise SchemaError("an input file is required unless --schema is given")
        obj = _read_input(config.input_path)
        report = sub.run(obj, config)
    except DomainError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    sys.stdout.write(_render(report, config.fmt))
    return 0


def _build_parser(names: tuple[str, ...] = tuple(jsonio.SUBCOMMANDS)) -> argparse.ArgumentParser:
    """The hklat parser with a subparser for each subcommand in names."""
    parser = argparse.ArgumentParser(
        prog="hklat",
        description="Exact lattice arithmetic: discriminants, cones, "
                    "Zariski-type decompositions, birationality bounds, "
                    "minimal log discrepancies.",
        epilog="Input is a JSON file ('-' for standard input). Rationals are "
               "written as lowest-terms 'p/q' strings, big integers as decimal "
               "strings. Output is plain text; NO_COLOR is honored trivially.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    # an omitted option sets no attribute, so RunConfig supplies every default
    for name in names:
        sub = jsonio.SUBCOMMANDS[name]
        p = subparsers.add_parser(name, help=sub.help, description=sub.help,
                                  argument_default=argparse.SUPPRESS)
        p.add_argument("input_path", metavar="input", nargs="?",
                       help="JSON input file, or '-' for standard input")
        for key in ("fmt", "schema", *sub.options):
            flag, spec = _OPTIONS[key]
            p.add_argument(flag, dest=key, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the subparser named first parses all that follows it, so the others
    # take no part; help and usage errors list or check every name
    if argv and argv[0] in jsonio.SUBCOMMANDS:
        parser = _build_parser((argv[0],))
    else:
        parser = _build_parser()
    return run(RunConfig(**vars(parser.parse_args(argv))))
