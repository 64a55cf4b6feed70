"""The JSON contract of each CLI subcommand: input parsing, the
handlers that build the reports, and canonical serialization.

Numbers cross the boundary as exact text: rationals are lowest-terms
"p/q" strings (bare "p" when integral), big integers are decimal
strings. Floating point is rejected on input and never emitted except
inside explicitly logarithmic fields, which carry their own stated
error. Output dictionaries are rendered with sorted keys and compact
separators so identical inputs produce identical bytes.

``SUBCOMMANDS`` is the one table of subcommands, in CLI order. Each
record holds a handler, its help line, its ``--schema`` document and
its extra flags, so a new subcommand is one record plus its handler.
Importing this module executes no kernel module: a handler reads
``lattice``, ``cones``, ``bounds``, ``mld`` and ``zariski`` off the
package, whose ``__getattr__`` imports each on its first read, so
``--schema`` executes none of them and ``disc`` only ``lattice`` and
``linalg``.

Shape problems (missing keys, wrong JSON types) raise SchemaError,
which the CLI maps to exit status 2; mathematical violations inside
well-shaped input surface as the library's own typed errors and map to
exit status 1. A SchemaError's path grows only in ``field`` (by a key)
and ``_list_of`` (by an index, and only when an item fails to parse).
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from typing import Any, Callable, NamedTuple

hklat = sys.modules[__package__]


class SchemaError(Exception):
    """Input does not match the documented shape."""


_REQUIRED = object()


def require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return obj[key]


def field(obj, key: str, parse, where: str = "input", default=_REQUIRED):
    """``parse(obj[key], f"{where}.{key}")``, the one place an error path
    is extended by a key. An absent key reads as ``default`` when one is
    given, and is a SchemaError otherwise."""
    if default is not _REQUIRED and isinstance(obj, dict) and key not in obj:
        return default
    return parse(require(obj, key, where), f"{where}.{key}")


def parse_rational(value, where: str) -> int | Fraction:
    try:
        return hklat.lattice._rational(value)
    except TypeError:
        raise SchemaError(f"{where}: expected an integer or 'p/q' string") from None
    except ValueError:
        raise SchemaError(f"{where}: cannot parse {value!r} as a rational") from None


# the accepted integer strings, the integer form of lattice._RATIONAL
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if _INTEGER.fullmatch(value):
            try:
                return int(value)
            except ValueError:  # past the interpreter's digit limit
                pass
        raise SchemaError(f"{where}: cannot parse {value!r} as an integer")
    raise SchemaError(f"{where}: expected an integer")


def parse_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected a boolean")
    return value


def _list_of(parse):
    """``parse(value[i], f"{where}[{i}]")`` for each item, the one place an
    error path is extended by an index; it is formatted only once a first
    pass under the bare path fails, since only an error reads it."""
    def parse_list(value, where: str) -> list:
        if not isinstance(value, list):
            raise SchemaError(f"{where}: expected a list")
        try:
            return [parse(v, where) for v in value]
        except SchemaError:
            pass
        return [parse(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return parse_list


def _coords(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty list of rationals")
    try:
        return tuple(map(hklat.lattice._rational, value))
    except (TypeError, ValueError):
        _list_of(parse_rational)(value, where)  # names the first bad coordinate
        raise


def parse_vector(value, where: str) -> hklat.lattice.FramedVector:
    # bare list, or the explicit framed form {"frame": "primal", "coords": [...]}
    if isinstance(value, dict):
        if value.get("frame") != "primal":
            raise SchemaError(f"{where}: only primal vectors are accepted as input")
        return hklat.lattice.FramedVector(hklat.lattice.Frame.PRIMAL, field(value, "coords", _coords, where))
    return hklat.lattice.FramedVector(hklat.lattice.Frame.PRIMAL, _coords(value, where))


def parse_int_matrix(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty list of integer rows")
    return _list_of(_list_of(parse_int))(value, where)


def lattice_from_obj(obj, where: str = "input") -> hklat.lattice.Lattice:
    return hklat.lattice.make_lattice(field(obj, "gram", parse_int_matrix, where))


def context_from_obj(obj, where: str = "input") -> hklat.cones.ConeContext:
    return hklat.cones.make_cone_context(
        field(obj, "lattice", lattice_from_obj, where),
        field(obj, "h", parse_vector, where),
        field(obj, "primes", _list_of(parse_vector), where, ()),
        field(obj, "walls", _list_of(parse_vector), where, ()),
        field(obj, "monodromy_gens", _list_of(parse_int_matrix), where, ()),
    )


def _row(obj, where: str) -> tuple:
    label = require(obj, "label", where)
    k = field(obj, "kE", parse_rational, where)
    d = field(obj, "dE", parse_rational, where)
    center = require(obj, "center", where)
    if not isinstance(label, str) or not isinstance(center, str):
        raise SchemaError(f"{where}: label and center must be strings")
    return label, k, d, center


def _pair(value, where: str) -> list:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, str) for x in value)):
        raise SchemaError(f"{where}: expected a pair of strings")
    return value


def table_from_obj(obj, where: str = "input") -> hklat.mld.LogPairTable:
    return hklat.mld.make_table(
        field(obj, "rows", _list_of(_row), where),
        field(obj, "containment", _list_of(_pair), where, []),
        field(obj, "complete", parse_bool, where, False),
    )


def vector_json(v) -> list[str]:
    return list(map(str, v.coords))


def dump_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _bound_json(bv: hklat.bounds.BoundValue) -> dict:
    if bv.kind == hklat.bounds.KIND_EXACT:
        return {"exact": str(bv.exact_decimal)}
    return {"log10": str(bv.log10_value).lower(), "rel_err": str(bv.rel_err).lower()}


def _cmd_disc(obj, config) -> dict:
    lat = lattice_from_obj(obj)
    group = hklat.lattice.discriminant_group(lat)
    return {"factors": list(group.invariant_factors), "order": str(group.order)}


def _cmd_dual(obj, config) -> dict:
    lat = lattice_from_obj(obj)
    x = field(obj, "x", parse_vector)
    gamma = hklat.lattice.dual_class(lat, x)
    div = None
    if x.is_integral() and not x.is_zero():
        div = str(hklat.lattice.divisibility(lat, x))
    return {"dual": vector_json(gamma), "divisibility": div}


def _cmd_reflect(obj, config) -> dict:
    lat = lattice_from_obj(obj)
    mirror = field(obj, "mirror", parse_vector)
    x = field(obj, "x", parse_vector)
    image = hklat.cones.reflect(lat, mirror, x)
    integral = None
    if mirror.is_integral() and hklat.lattice.q_eval(lat, mirror, mirror) < 0:
        integral = hklat.cones.is_integral_reflection(lat, mirror)
    return {"image": vector_json(image), "integral_reflection": integral}


def _cmd_zariski(obj, config) -> dict:
    ctx = field(obj, "context", context_from_obj)
    d = field(obj, "D", parse_vector)
    dec = hklat.zariski.zariski_decompose(ctx, d)
    # the discriminant group's order is |det|
    card = field(obj, "cardA", parse_int, default=abs(ctx.lattice.det))
    audit = hklat.zariski.denominator_audit(ctx, dec, card, config.exact_threshold)
    return {
        "P": vector_json(dec.positive),
        "N": vector_json(dec.negative),
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


def _cmd_bound(obj, config) -> dict:
    query = hklat.bounds.BoundQuery(*(field(obj, key, parse_int)
                                for key in ("n", "cardA", "rho")))
    return _bound_json(hklat.bounds.birationality_bound(query, config.exact_threshold))


def _cmd_moduli_bound(obj, config) -> dict:
    a, k, eps, rho = (field(obj, key, parse_int)
                      for key in ("a", "k", "eps", "rho"))
    dim = hklat.bounds.moduli_dimension(a, k, eps)
    bv = hklat.bounds.moduli_bound(a, k, eps, rho, config.exact_threshold)
    return {"dim": dim, "bound": _bound_json(bv)}


def _cmd_walls(obj, config) -> dict:
    ctx = field(obj, "context", context_from_obj)
    if "divisor" in obj:
        d = field(obj, "divisor", parse_vector)
        verdict = hklat.cones.is_wall_divisor(ctx, d, config.orbit_budget)
        witness = None
        if verdict.witness is not None:
            witness = {
                "orbit_element": vector_json(verdict.witness.orbit_element),
                "wall_index": verdict.witness.wall_index,
                "factor": str(verdict.witness.factor),
            }
        return {
            "is_wall": verdict.is_wall,
            "witness": witness,
            "failed_condition": verdict.failed_condition,
            "orbit_closed": verdict.orbit_closed,
        }
    square = field(obj, "square", parse_int)
    pairing_max = config.pairing_max
    if pairing_max is None:
        pairing_max = field(obj, "pairing_max", parse_int)
    primitive_only = field(obj, "primitive_only", parse_bool, "input", False)
    classes = hklat.cones._classes(ctx, square, pairing_max, primitive_only)
    # each distinct coordinate is converted once, then looked up
    text = {c: str(c) for c in set(chain.from_iterable(classes))}.__getitem__
    return {"classes": [list(map(text, x)) for x in classes], "count": len(classes)}


def _cmd_chamber(obj, config) -> dict:
    ctx = field(obj, "context", context_from_obj)
    x = field(obj, "x", parse_vector)
    return {"signs": list(hklat.cones.chamber_signature(ctx, x))}


def _cmd_mld(obj, config) -> dict:
    table = field(obj, "table", table_from_obj)
    query = require(obj, "query", "input")
    if not isinstance(query, dict) or len(query) != 1:
        raise SchemaError("input.query: expected exactly one of at/along/discrepancy/acc")
    kind, payload = next(iter(query.items()))
    if kind == "at" or kind == "along":
        if not isinstance(payload, str):
            raise SchemaError(f"input.query.{kind}: expected a center label")
        fn = hklat.mld.mld_at if kind == "at" else hklat.mld.mld_along
        return {"value": str(fn(table, payload)), "complete": table.complete}
    if kind == "discrepancy":
        if not isinstance(payload, str):
            raise SchemaError("input.query.discrepancy: expected a divisor label")
        return {"value": str(hklat.mld.log_discrepancy(table, payload))}
    if kind == "acc":
        if not isinstance(payload, list):
            raise SchemaError("input.query.acc: expected a list of rationals")
        report = hklat.mld.check_sequence_acc(_list_of(parse_rational)(payload, "input.query.acc"))
        return {
            "stationary": report.stationary,
            "stationary_from": report.stationary_from,
            "increase_points": list(report.increase_points),
        }
    raise SchemaError("input.query: expected exactly one of at/along/discrepancy/acc")


_VEC = {"type": "list of rationals", "item": "integer or 'p/q' string"}
_LATTICE = {"gram": "square symmetric integer matrix, nonzero determinant"}
_CONTEXT = {
    "lattice": _LATTICE,
    "h": _VEC,
    "primes": "optional list of integral vectors with negative square, pairwise q >= 0",
    "walls": "optional list of integral vectors with negative square",
    "monodromy_gens": "optional list of integer matrices preserving the form and the positive cone",
}


class Subcommand(NamedTuple):
    """``run(obj, config)`` turns the input object into the report under
    the CLI's RunConfig; ``options`` names the RunConfig fields taken as
    flags beyond ``--format`` and ``--schema``."""

    run: Callable[[dict, Any], dict]
    help: str
    schema: dict
    options: tuple[str, ...] = ()


# the CLI lists the subcommands in this order
SUBCOMMANDS: dict[str, Subcommand] = {
    "disc": Subcommand(_cmd_disc, "discriminant group of a lattice", {
        "input": _LATTICE, "output": {"factors": "invariant factors > 1", "order": "decimal string"},
    }),
    "dual": Subcommand(_cmd_dual, "dual class and divisibility of a vector", {
        "input": {"gram": _LATTICE["gram"], "x": _VEC},
        "output": {"dual": "coordinates of G*x", "divisibility": "gcd of the pairings, null for non-integral x"},
    }),
    "reflect": Subcommand(_cmd_reflect, "reflect a vector in a negative class", {
        "input": {"gram": _LATTICE["gram"], "mirror": _VEC, "x": _VEC},
        "output": {"image": "reflected vector", "integral_reflection": "bool, null when the predicate does not apply"},
    }),
    "zariski": Subcommand(_cmd_zariski, "decompose a class into positive and negative parts", {
        "input": {"context": _CONTEXT, "D": _VEC, "cardA": "optional positive integer, default: discriminant order of the context lattice"},
        "output": {
            "P": "positive part", "N": "negative part",
            "support": "indices into context.primes", "coefficients": "positive rationals",
            "denominator_lcm": "decimal string",
            "audit": {"lcm": "...", "support_det": "...", "lcm_divides_det": "bool", "bound": "bound value", "within_bound": "bool or null"},
        },
    }, options=("exact_threshold",)),
    "bound": Subcommand(_cmd_bound, "effective birationality bound", {
        "input": {"n": "positive integer (half-dimension)", "cardA": "positive integer", "rho": "positive integer"},
        "output": {"exact": "decimal string", "or": {"log10": "decimal string", "rel_err": "1e-9"}},
    }, options=("exact_threshold",)),
    "moduli-bound": Subcommand(_cmd_moduli_bound, "birationality bound for a moduli-space family", {
        "input": {"a": "positive integer", "k": "positive integer", "eps": "+1 or -1", "rho": "positive integer"},
        "output": {"dim": "moduli dimension", "bound": "as for bound"},
    }, options=("exact_threshold",)),
    "walls": Subcommand(_cmd_walls, "test a wall divisor or enumerate negative classes", {
        "input": {
            "context": _CONTEXT,
            "divisor": "predicate mode: integral vector to test",
            "square": "enumeration mode: negative integer",
            "pairing_max": "enumeration mode: positive integer",
            "primitive_only": "enumeration mode: optional bool",
        },
        "output": {
            "predicate mode": {"is_wall": "bool", "witness": "orbit element, wall index, factor", "failed_condition": "string or null", "orbit_closed": "bool"},
            "enumeration mode": {"classes": "sorted integral vectors", "count": "integer"},
        },
    }, options=("orbit_budget", "pairing_max")),
    "chamber": Subcommand(_cmd_chamber, "locate a class relative to the wall hyperplanes", {
        "input": {"context": _CONTEXT, "x": _VEC},
        "output": {"signs": "list of +1/-1, one per wall"},
    }),
    "mld": Subcommand(_cmd_mld, "log discrepancies over a resolution table", {
        "input": {
            "table": {
                "rows": [{"label": "string", "kE": "rational", "dE": "nonnegative rational", "center": "string"}],
                "containment": "list of [inner, outer] label pairs",
                "complete": "optional bool",
            },
            "query": "exactly one of {\"at\": center}, {\"along\": center}, {\"discrepancy\": label}, {\"acc\": [rationals]}",
        },
        "output": {
            "at/along": {"value": "rational string or '-inf'", "complete": "bool"},
            "discrepancy": {"value": "rational string"},
            "acc": {"stationary": "bool", "stationary_from": "int or null", "increase_points": "list of ints"},
        },
    }),
}

SCHEMAS: dict[str, dict] = {name: sub.schema for name, sub in SUBCOMMANDS.items()}
