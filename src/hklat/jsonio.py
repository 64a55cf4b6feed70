"""Input parsing and canonical serialization for the command line.

Numbers cross the boundary as exact text: rationals are lowest-terms
"p/q" strings (bare "p" when integral), big integers are decimal
strings. Floating point is rejected on input and never emitted except
inside explicitly logarithmic fields, which carry their own stated
error. Output dictionaries are rendered with sorted keys and compact
separators so identical inputs produce identical bytes.

Shape problems (missing keys, wrong JSON types) raise SchemaError,
which the CLI maps to exit status 2; mathematical violations inside
well-shaped input surface as the library's own typed errors and map to
exit status 1.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from typing import Any

from .cones import ConeContext, make_cone_context
from .lattice import Frame, FramedVector, Lattice, _rational, make_lattice
from .mld import LogPairTable, make_table


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
        return _rational(value)
    except TypeError:
        raise SchemaError(f"{where}: expected an integer or 'p/q' string") from None
    except ValueError:
        raise SchemaError(f"{where}: cannot parse {value!r} as a rational") from None


def parse_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise SchemaError(f"{where}: cannot parse {value!r} as an integer")
    raise SchemaError(f"{where}: expected an integer")


def parse_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected a boolean")
    return value


def parse_vector(value, where: str) -> FramedVector:
    # bare list, or the explicit framed form {"frame": "primal", "coords": [...]}
    if isinstance(value, dict):
        frame = value.get("frame")
        if frame != "primal":
            raise SchemaError(f"{where}: only primal vectors are accepted as input")
        value = require(value, "coords", where)
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty list of rationals")
    try:
        return FramedVector(Frame.PRIMAL, tuple(map(_rational, value)))
    except (TypeError, ValueError):
        # name the first bad coordinate; parse_rational words the error
        for i, v in enumerate(value):
            parse_rational(v, f"{where}[{i}]")
        raise


def parse_int_matrix(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty list of integer rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise SchemaError(f"{where}[{i}]: expected a list")
        rows.append([parse_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return rows


def _list_of(parse):
    def parse_list(value, where: str) -> list:
        if not isinstance(value, list):
            raise SchemaError(f"{where}: expected a list")
        return [parse(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return parse_list


def lattice_from_obj(obj, where: str = "input") -> Lattice:
    return make_lattice(field(obj, "gram", parse_int_matrix, where))


def context_from_obj(obj, where: str = "input") -> ConeContext:
    return make_cone_context(
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


def _pairs(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of pairs")
    for i, pair in enumerate(value):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, str) for x in pair)):
            raise SchemaError(f"{where}[{i}]: expected a pair of strings")
    return value


def table_from_obj(obj, where: str = "input") -> LogPairTable:
    return make_table(
        field(obj, "rows", _list_of(_row), where),
        field(obj, "containment", _pairs, where, []),
        field(obj, "complete", parse_bool, where, False),
    )


# Below this many bits builtin str() is faster; measured break-even is
# between 32k and 36k bits (about 10k decimal digits) on CPython 3.11.
_DECIMAL_CUTOFF_BITS = 36_000
# width at which the recursion converts a piece with Decimal(int) directly
_DECIMAL_LEAF_BITS = 2048


def decimal_str(n: int) -> str:
    """Exact decimal digits of an integer, the same string as str(n).

    CPython before 3.12 converts an int to decimal in quadratic time,
    which takes half a minute for a million digits. Above a fixed bit
    length the integer is instead split at half its bit length, each
    half converted recursively, and the halves joined as
    lo + hi * 2**w in ``decimal``, whose multiplication is
    subquadratic (Brent and Zimmermann, Modern Computer Arithmetic,
    section 1.7). The context has unbounded precision and exponent
    range and traps Inexact, so a rounding would raise rather than
    print a wrong digit.
    """
    if n.bit_length() <= _DECIMAL_CUTOFF_BITS:
        return str(n)
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= _DECIMAL_LEAF_BITS:
                p = decimal.Decimal(2) ** w
            elif w - 1 in powers:
                p = powers[w - 1] * 2
            else:
                # the smaller half first, so the larger is one doubling away
                p = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = p
        return p

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def vector_json(v) -> list[str]:
    return [str(c) for c in v.coords]


def dump_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_VEC = {"type": "list of rationals", "item": "integer or 'p/q' string"}
_LATTICE = {"gram": "square symmetric integer matrix, nonzero determinant"}
_CONTEXT = {
    "lattice": _LATTICE,
    "h": _VEC,
    "primes": "optional list of integral vectors with negative square, pairwise q >= 0",
    "walls": "optional list of integral vectors with negative square",
    "monodromy_gens": "optional list of integer matrices preserving the form and the positive cone",
}

SCHEMAS: dict[str, Any] = {
    "disc": {"input": _LATTICE, "output": {"factors": "invariant factors > 1", "order": "decimal string"}},
    "dual": {
        "input": {"gram": _LATTICE["gram"], "x": _VEC},
        "output": {"dual": "coordinates of G*x", "divisibility": "gcd of the pairings, null for non-integral x"},
    },
    "reflect": {
        "input": {"gram": _LATTICE["gram"], "mirror": _VEC, "x": _VEC},
        "output": {"image": "reflected vector", "integral_reflection": "bool, null when the predicate does not apply"},
    },
    "zariski": {
        "input": {"context": _CONTEXT, "D": _VEC, "cardA": "optional positive integer, default: discriminant order of the context lattice"},
        "output": {
            "P": "positive part", "N": "negative part",
            "support": "indices into context.primes", "coefficients": "positive rationals",
            "denominator_lcm": "decimal string",
            "audit": {"lcm": "...", "support_det": "...", "lcm_divides_det": "bool", "bound": "bound value", "within_bound": "bool or null"},
        },
    },
    "bound": {
        "input": {"n": "positive integer (half-dimension)", "cardA": "positive integer", "rho": "positive integer"},
        "output": {"exact": "decimal string", "or": {"log10": "decimal string", "rel_err": "1e-9"}},
    },
    "moduli-bound": {
        "input": {"a": "positive integer", "k": "positive integer", "eps": "+1 or -1", "rho": "positive integer"},
        "output": {"dim": "moduli dimension", "bound": "as for bound"},
    },
    "walls": {
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
    },
    "chamber": {
        "input": {"context": _CONTEXT, "x": _VEC},
        "output": {"signs": "list of +1/-1, one per wall"},
    },
    "mld": {
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
    },
}
