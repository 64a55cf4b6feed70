"""Command-line front end.

One subcommand per library area, JSON in, deterministic report out.
Reports are emitted with sorted keys and compact separators, so a
given input and configuration always produce identical bytes. Output
is plain unstyled text in both formats; NO_COLOR is honored by
construction.

Exit status: 0 on success, 1 on a domain error (the typed error name
and message go to standard error, no traceback), 2 on I/O, JSON, or
schema problems and on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import bounds, cones, jsonio, mld, zariski
from .errors import DomainError
from .jsonio import SchemaError
from .lattice import discriminant_group, divisibility, dual_class, q_eval


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    input_path: str | None = None
    fmt: str = "json"
    orbit_budget: int = cones.DEFAULT_ORBIT_BUDGET
    pairing_max: int | None = None
    exact_threshold: int = bounds.DEFAULT_EXACT_THRESHOLD
    schema: bool = False


def _bound_json(bv: bounds.BoundValue) -> dict:
    if bv.kind == bounds.KIND_EXACT:
        return {"exact": jsonio.decimal_str(bv.exact_value)}
    return {"log10": str(bv.log10_value).lower(), "rel_err": str(bv.rel_err).lower()}


def _value_str(v) -> str:
    if v == mld.NEG_INFINITY:
        return "-inf"
    return str(v)


def _cmd_disc(obj, config: RunConfig) -> dict:
    lat = jsonio.lattice_from_obj(obj)
    group = discriminant_group(lat)
    return {"factors": list(group.invariant_factors), "order": str(group.order)}


def _cmd_dual(obj, config: RunConfig) -> dict:
    lat = jsonio.lattice_from_obj(obj)
    x = jsonio.field(obj, "x", jsonio.parse_vector)
    gamma = dual_class(lat, x)
    div = None
    if x.is_integral() and not x.is_zero():
        div = str(divisibility(lat, x))
    return {"dual": jsonio.vector_json(gamma), "divisibility": div}


def _cmd_reflect(obj, config: RunConfig) -> dict:
    lat = jsonio.lattice_from_obj(obj)
    mirror = jsonio.field(obj, "mirror", jsonio.parse_vector)
    x = jsonio.field(obj, "x", jsonio.parse_vector)
    image = cones.reflect(lat, mirror, x)
    integral = None
    if mirror.is_integral() and q_eval(lat, mirror, mirror) < 0:
        integral = cones.is_integral_reflection(lat, mirror)
    return {"image": jsonio.vector_json(image), "integral_reflection": integral}


def _cmd_zariski(obj, config: RunConfig) -> dict:
    ctx = jsonio.field(obj, "context", jsonio.context_from_obj)
    d = jsonio.field(obj, "D", jsonio.parse_vector)
    dec = zariski.zariski_decompose(ctx, d)
    if "cardA" in obj:
        card = jsonio.field(obj, "cardA", jsonio.parse_int)
        if card < 1:
            raise SchemaError("input.cardA: must be positive")
    else:
        card = discriminant_group(ctx.lattice).order
    audit = zariski.denominator_audit(ctx, dec, card, config.exact_threshold)
    return {
        "P": jsonio.vector_json(dec.positive),
        "N": jsonio.vector_json(dec.negative),
        "support": list(dec.support),
        "coefficients": [str(c) for c in dec.coefficients],
        "denominator_lcm": str(dec.denominator_lcm),
        "audit": {
            "lcm": str(audit.lcm),
            "support_det": str(audit.support_det),
            "lcm_divides_det": audit.lcm_divides_det,
            "bound": _bound_json(audit.bound),
            "within_bound": audit.within_bound,
        },
    }


def _cmd_bound(obj, config: RunConfig) -> dict:
    query = bounds.BoundQuery(*(jsonio.field(obj, key, jsonio.parse_int)
                                for key in ("n", "cardA", "rho")))
    return _bound_json(bounds.birationality_bound(query, config.exact_threshold))


def _cmd_moduli_bound(obj, config: RunConfig) -> dict:
    a, k, eps, rho = (jsonio.field(obj, key, jsonio.parse_int)
                      for key in ("a", "k", "eps", "rho"))
    dim = bounds.moduli_dimension(a, k, eps)
    bv = bounds.moduli_bound(a, k, eps, rho, config.exact_threshold)
    return {"dim": dim, "bound": _bound_json(bv)}


def _cmd_walls(obj, config: RunConfig) -> dict:
    ctx = jsonio.field(obj, "context", jsonio.context_from_obj)
    if "divisor" in obj:
        d = jsonio.field(obj, "divisor", jsonio.parse_vector)
        verdict = cones.is_wall_divisor(ctx, d, config.orbit_budget)
        witness = None
        if verdict.witness is not None:
            witness = {
                "orbit_element": jsonio.vector_json(verdict.witness.orbit_element),
                "wall_index": verdict.witness.wall_index,
                "factor": str(verdict.witness.factor),
            }
        return {
            "is_wall": verdict.is_wall,
            "witness": witness,
            "failed_condition": verdict.failed_condition,
            "orbit_closed": verdict.orbit_closed,
        }
    square = jsonio.field(obj, "square", jsonio.parse_int)
    pairing_max = config.pairing_max
    if pairing_max is None:
        pairing_max = jsonio.field(obj, "pairing_max", jsonio.parse_int)
    primitive_only = jsonio.field(obj, "primitive_only", jsonio.parse_bool, "input", False)
    classes = cones.enumerate_negative_classes(ctx, square, pairing_max, primitive_only)
    return {"classes": [jsonio.vector_json(c) for c in classes], "count": len(classes)}


def _cmd_chamber(obj, config: RunConfig) -> dict:
    ctx = jsonio.field(obj, "context", jsonio.context_from_obj)
    x = jsonio.field(obj, "x", jsonio.parse_vector)
    return {"signs": list(cones.chamber_signature(ctx, x))}


def _cmd_mld(obj, config: RunConfig) -> dict:
    table = jsonio.field(obj, "table", jsonio.table_from_obj)
    query = jsonio.require(obj, "query", "input")
    if not isinstance(query, dict) or len(query) != 1:
        raise SchemaError("input.query: expected exactly one of at/along/discrepancy/acc")
    kind, payload = next(iter(query.items()))
    if kind == "at" or kind == "along":
        if not isinstance(payload, str):
            raise SchemaError(f"input.query.{kind}: expected a center label")
        fn = mld.mld_at if kind == "at" else mld.mld_along
        return {"value": _value_str(fn(table, payload)), "complete": table.complete}
    if kind == "discrepancy":
        if not isinstance(payload, str):
            raise SchemaError("input.query.discrepancy: expected a divisor label")
        return {"value": _value_str(mld.log_discrepancy(table, payload))}
    if kind == "acc":
        if not isinstance(payload, list):
            raise SchemaError("input.query.acc: expected a list of rationals")
        values = [jsonio.parse_rational(v, f"input.query.acc[{i}]") for i, v in enumerate(payload)]
        report = mld.check_sequence_acc(values)
        return {
            "stationary": report.stationary,
            "stationary_from": report.stationary_from,
            "increase_points": list(report.increase_points),
        }
    raise SchemaError("input.query: expected exactly one of at/along/discrepancy/acc")


# name -> (handler, help text); the parser lists the names in this order
_HANDLERS = {
    "disc": (_cmd_disc, "discriminant group of a lattice"),
    "dual": (_cmd_dual, "dual class and divisibility of a vector"),
    "reflect": (_cmd_reflect, "reflect a vector in a negative class"),
    "zariski": (_cmd_zariski, "decompose a class into positive and negative parts"),
    "bound": (_cmd_bound, "effective birationality bound"),
    "moduli-bound": (_cmd_moduli_bound, "birationality bound for a moduli-space family"),
    "walls": (_cmd_walls, "test a wall divisor or enumerate negative classes"),
    "chamber": (_cmd_chamber, "locate a class relative to the wall hyperplanes"),
    "mld": (_cmd_mld, "log discrepancies over a resolution table"),
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
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise SchemaError("top-level input must be a JSON object")
    return obj


def run(config: RunConfig) -> int:
    # exact bounds can run to millions of digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if config.subcommand not in _HANDLERS:
            raise SchemaError(f"unknown subcommand {config.subcommand!r}")
        if config.schema:
            sys.stdout.write(jsonio.dump_canonical(jsonio.SCHEMAS[config.subcommand]))
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
        report = _HANDLERS[config.subcommand][0](obj, config)
    except DomainError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    sys.stdout.write(_render(report, config.fmt))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hklat",
        description="Exact lattice arithmetic: discriminants, cones, "
                    "Zariski-type decompositions, birationality bounds, "
                    "minimal log discrepancies.",
        epilog="Input is a JSON file ('-' for standard input). Rationals are "
               "written as lowest-terms 'p/q' strings, big integers as decimal "
               "strings. Output is plain text; NO_COLOR is honored trivially.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    # an omitted option sets no attribute, so RunConfig supplies every default
    for name, (_, desc) in _HANDLERS.items():
        p = sub.add_parser(name, help=desc, description=desc,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("input_path", metavar="input", nargs="?",
                       help="JSON input file, or '-' for standard input")
        p.add_argument("--format", dest="fmt", choices=("json", "text"),
                       help=f"output format (default: {RunConfig.fmt})")
        p.add_argument("--schema", action="store_true",
                       help="print the input/output schema and exit")
        if name == "walls":
            p.add_argument("--budget", dest="orbit_budget", metavar="BUDGET", type=int,
                           help=f"orbit search budget (default: {RunConfig.orbit_budget})")
            p.add_argument("--pairing-max", type=int,
                           help="override the enumeration pairing bound")
        if name in ("bound", "moduli-bound", "zariski"):
            p.add_argument("--exact-threshold", type=int,
                           help="largest factorial argument evaluated exactly "
                                f"(default: {RunConfig.exact_threshold})")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**vars(_build_parser().parse_args(argv))))
