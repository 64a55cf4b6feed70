"""Independent checks of one query's output, run outside the timed region.

Each check recomputes the answer from the query's own input by a route
that does not share the library's algorithm: subset search for the
decomposition, box search and isometry invariance for enumeration,
lgamma or a float log sum for logarithmic bounds, a residue modulo a
large prime for exact bounds, a plain breadth-first orbit and ray table
for wall divisors, and graph search for the containment poset. A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

from hklat import make_cone_context, make_lattice, primal
from tests.support import box_negative_classes, brute_force_zariski, log10_factorial_oracle
from workloads import mat_vec, q_int

MODULUS = 2**61 - 1
REL_TOL = 1e-9
# the float log sum is exact enough up to here; lgamma covers the rest
LOG_SUM_MAX = 1 << 16


def check(query, stdout: str) -> str | None:
    try:
        return CHECKS[query.kind](query, json.loads(query.stdin), json.loads(stdout))
    except Exception as exc:  # a crashing oracle is a failed query, not a crashed run
        return f"oracle raised {type(exc).__name__}: {exc}"


def _fracs(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _flag(query, name, default):
    argv = query.argv
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _det(m) -> Fraction:
    a = [_fracs(row) for row in m]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _context(obj):
    return make_cone_context(
        make_lattice(obj["lattice"]["gram"]), primal(obj["h"]),
        [primal(p) for p in obj.get("primes", [])],
        [primal(w) for w in obj.get("walls", [])],
        obj.get("monodromy_gens", []))


# --- lattice --------------------------------------------------------------

def _disc(query, obj, out):
    det = abs(_det(obj["gram"]))
    factors = out["factors"]
    if int(out["order"]) != det or math.prod(factors) != det:
        return f"order {out['order']} / factors {factors} do not match |det| {det}"
    if any(f < 2 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return f"factors {factors} are not an invariant-factor chain"
    if "k" in query.meta and factors != [2 * query.meta["k"]]:
        return f"rank-23 family should be cyclic of order {2 * query.meta['k']}"
    return None


def _dual(query, obj, out):
    gram, x = obj["gram"], _fracs(obj["x"])
    gx = mat_vec(gram, x)
    if _fracs(out["dual"]) != gx:
        return "dual differs from G x"
    div = None
    if all(c.denominator == 1 for c in x) and any(x):
        div = str(math.gcd(*(int(abs(v)) for v in gx)))
    if out["divisibility"] != div:
        return f"divisibility {out['divisibility']}, expected {div}"
    return None


def _reflect_vec(gram, e, x):
    f = Fraction(2 * q_int(gram, x, e), q_int(gram, e, e))
    return [xc - f * ec for xc, ec in zip(x, e)]


def _reflect(query, obj, out):
    gram, e, x = obj["gram"], obj["mirror"], _fracs(obj["x"])
    image = _fracs(out["image"])
    if image != _reflect_vec(gram, e, x):
        return "image differs from x - 2 q(x,E)/q(E,E) E"
    if _reflect_vec(gram, e, image) != x:
        return "reflection is not an involution"
    s = q_int(gram, e, e)
    integral = all((2 * v) % s == 0 for v in mat_vec(gram, e))
    if out["integral_reflection"] != integral:
        return f"integral_reflection {out['integral_reflection']}, expected {integral}"
    return None


# --- bounds ---------------------------------------------------------------

def _residue(digits: str) -> int:
    r = 0
    for i in range(0, len(digits), 18):
        chunk = digits[i:i + 18]
        r = (r * 10 ** len(chunk) + int(chunk)) % MODULUS
    return r


def _factorial_residue(m: int) -> int:
    r = 1
    for i in range(2, m + 1):
        r = r * i % MODULUS
    return r


def _log10_factorial(m: int) -> float:
    if m <= LOG_SUM_MAX:
        return log10_factorial_oracle(m)
    return math.lgamma(m + 1) / math.log(10)


def _check_bound(bj, prefactor, base, exp, threshold):
    """bj is {"exact": digits} or {"log10": ..., "rel_err": ...} for
    prefactor * (base**exp)!, exact iff base**exp <= threshold."""
    small = exp * math.log2(base) < 64
    m = base**exp if small else None
    if "exact" in bj:
        if m is None or m > threshold:
            return "exact value above the exact threshold"
        digits = bj["exact"]
        if not digits.isdigit() or digits[0] == "0":
            return "exact value is not a canonical decimal"
        if _residue(digits) != prefactor % MODULUS * _factorial_residue(m) % MODULUS:
            return f"exact value wrong modulo 2^61-1 (m={m})"
        log10 = math.log10(prefactor) + math.lgamma(m + 1) / math.log(10)
        frac = log10 - math.floor(log10)
        if 1e-6 < frac < 1 - 1e-6 and len(digits) != math.floor(log10) + 1:
            return f"exact value has {len(digits)} digits, expected {math.floor(log10) + 1}"
        return None
    if m is not None and m <= threshold:
        return "logarithmic value at or below the exact threshold"
    if bj.get("rel_err") != "1e-9":
        return f"rel_err {bj.get('rel_err')}"
    if m is None:
        # lgamma(M + 1) = M ln M - M + O(ln M), with M = base**exp as a float
        big = float(base) ** exp
        expected = math.log10(prefactor) + (big * math.log(big) - big) / math.log(10)
    else:
        expected = math.log10(prefactor) + _log10_factorial(m)
    got = float(bj["log10"])
    if abs(got - expected) > REL_TOL * abs(expected):
        return f"log10 {got} differs from oracle {expected}"
    return None


def _bound(query, obj, out):
    n, card, rho = obj["n"], obj["cardA"], obj["rho"]
    return _check_bound(out, (n + 1) * (2 * n + 3), 4 * card, rho - 1,
                        _flag(query, "--exact-threshold", 10**6))


def _moduli_bound(query, obj, out):
    a, k, eps, rho = obj["a"], obj["k"], obj["eps"], obj["rho"]
    dim = 2 * a * a * k + 2 * eps
    if out["dim"] != dim:
        return f"dim {out['dim']}, expected {dim}"
    return _check_bound(out["bound"], (dim + 2) * (dim + 3) // 2, 8 * k, rho - 1,
                        _flag(query, "--exact-threshold", 10**6))


# --- zariski --------------------------------------------------------------

def _zariski(query, obj, out):
    c = obj["context"]
    ctx = _context(c)
    support, coeffs, p_vec, n_vec = brute_force_zariski(ctx, primal(obj["D"]))
    if out["support"] != list(support) or _fracs(out["coefficients"]) != list(coeffs):
        return "support or coefficients differ from the subset oracle"
    if _fracs(out["P"]) != list(p_vec.coords) or _fracs(out["N"]) != list(n_vec.coords):
        return "P or N differs from the subset oracle"
    lcm = math.lcm(*(x.denominator for x in coeffs)) if coeffs else 1
    audit = out["audit"]
    primes = c["primes"]
    gram = c["lattice"]["gram"]
    sub = [[q_int(gram, primes[i], primes[j]) for j in support] for i in support]
    support_det = abs(_det(sub)) if support else 1
    if (out["denominator_lcm"], audit["lcm"]) != (str(lcm), str(lcm)):
        return f"denominator lcm {out['denominator_lcm']}, expected {lcm}"
    if audit["support_det"] != str(support_det) or audit["lcm_divides_det"] != (support_det % lcm == 0):
        return "support determinant audit is wrong"
    card = obj.get("cardA", abs(_det(gram)))
    msg = _check_bound(audit["bound"], 1, 4 * int(card), len(gram) - 1,
                       _flag(query, "--exact-threshold", 10**6))
    if msg:
        return "audit bound: " + msg
    if audit["within_bound"] is not True:
        return f"within_bound {audit['within_bound']} for lcm {lcm}"
    return None


# --- cones ----------------------------------------------------------------

def _ray(v):
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def _orbit(gens, start, budget):
    """Breadth-first orbit of {start, -start}, stopping at the budget."""
    seen, queue = set(), deque()
    for cand in (tuple(start), tuple(-c for c in start)):
        if cand not in seen:
            if len(seen) >= budget:
                return seen, False
            seen.add(cand)
            queue.append(cand)
    while queue:
        cur = queue.popleft()
        for g in gens:
            img = tuple(mat_vec(g, cur))
            if img not in seen:
                if len(seen) >= budget:
                    return seen, False
                seen.add(img)
                queue.append(img)
    return seen, True


def _walls_predicate(query, obj, out):
    c, d = obj["context"], obj["divisor"]
    gram, walls = c["lattice"]["gram"], c["walls"]
    if q_int(gram, d, d) >= 0:
        expected = {"is_wall": False, "witness": None, "failed_condition": "negativity",
                    "orbit_closed": True}
        return None if out == expected else "non-negative divisor not reported as such"
    orbit, closed = _orbit(c.get("monodromy_gens", []), d, _flag(query, "--budget", 1000))
    rays = {_ray(w) for w in walls}
    if not any(_ray(v) in rays for v in orbit):
        expected = {"is_wall": False, "witness": None, "failed_condition": "no-wall-match",
                    "orbit_closed": closed}
        return None if out == expected else f"{out} differs from {expected}"
    if (out["is_wall"], out["failed_condition"], out["orbit_closed"]) != (True, None, closed):
        return f"{out} should be a wall with orbit_closed {closed}"
    w = out["witness"]
    element = tuple(int(x) for x in w["orbit_element"])
    factor = Fraction(w["factor"])
    if element not in orbit:
        return "witness is not in the orbit"
    if factor <= 0 or list(element) != [factor * x for x in walls[w["wall_index"]]]:
        return "witness is not a positive multiple of its wall"
    return None


def _classes(query, obj, out):
    c = obj["context"]
    gram, h = c["lattice"]["gram"], c["h"]
    square, pm = obj["square"], obj["pairing_max"]
    classes = [tuple(int(x) for x in v) for v in out["classes"]]
    if out["count"] != len(classes) or classes != sorted(set(classes)):
        return "classes are not a sorted set matching count"
    for x in classes:
        if q_int(gram, x, x) != square or not 0 < q_int(gram, x, h) <= pm:
            return f"class {x} has the wrong square or pairing"
        if obj.get("primitive_only") and math.gcd(*x) != 1:
            return f"class {x} is not primitive"
    return classes


def _box_slice(obj, classes, box):
    found = box_negative_classes(_context(obj["context"]), obj["square"], obj["pairing_max"], box)
    if obj.get("primitive_only"):
        found = [x for x in found if math.gcd(*x) == 1]
    inside = [x for x in classes if max(abs(c) for c in x) <= box]
    return None if inside == found else f"box search (sup-norm <= {box}) disagrees"


def _walls_enumerate(query, obj, out):
    classes = _classes(query, obj, out)
    if isinstance(classes, str):
        return classes
    return _box_slice(obj, classes, 3)


def _walls_enumerate_e8(query, obj, out):
    classes = _classes(query, obj, out)
    if isinstance(classes, str):
        return classes
    if len(classes) != query.meta["count"]:
        return f"{len(classes)} classes, expected {query.meta['count']} (isometry invariant)"
    return _box_slice(obj, classes, 1) if query.meta.get("box") else None


def _chamber(query, obj, out):
    c, x = obj["context"], obj["x"]
    gram = c["lattice"]["gram"]
    signs = [1 if q_int(gram, x, w) > 0 else -1 for w in c["walls"]]
    return None if out["signs"] == signs else f"signs {out['signs']}, expected {signs}"


# --- mld ------------------------------------------------------------------

def _mld(query, obj, out):
    table, (kind, arg) = obj["table"], next(iter(obj["query"].items()))
    rows = table["rows"]
    if kind == "acc":
        vals = _fracs(arg)
        ups = [i for i in range(1, len(vals)) if vals[i] > vals[i - 1]]
        if len(vals) >= 2 and vals[-1] > vals[-2]:
            expected = {"stationary": False, "stationary_from": None, "increase_points": ups}
        else:
            start = len(vals) - 1
            while start > 0 and vals[start - 1] == vals[start]:
                start -= 1
            expected = {"stationary": True, "stationary_from": start, "increase_points": ups}
        return None if out == expected else f"acc report {out}, expected {expected}"
    if kind == "discrepancy":
        row = next(r for r in rows if r["label"] == arg)
        value = 1 + Fraction(row["kE"]) - Fraction(row["dE"])
        return None if out == {"value": str(value)} else "discrepancy differs"
    inside = {arg}
    if kind == "along":
        below: dict[str, list[str]] = {}
        for inner, outer in table["containment"]:
            below.setdefault(outer, []).append(inner)
        stack = [arg]
        while stack:
            for inner in below.get(stack.pop(), []):
                if inner not in inside:
                    inside.add(inner)
                    stack.append(inner)
    values = [1 + Fraction(r["kE"]) - Fraction(r["dE"]) for r in rows if r["center"] in inside]
    low = min(values)
    expected = {"value": "-inf" if low < 0 else str(low), "complete": table["complete"]}
    return None if out == expected else f"mld {out}, expected {expected}"


CHECKS = {
    "disc": _disc,
    "disc-k3": _disc,
    "dual": _dual,
    "reflect": _reflect,
    "zariski": _zariski,
    "zariski-audit": _zariski,
    "bound": _bound,
    "bound-exact": _bound,
    "bound-log": _bound,
    "moduli-bound": _moduli_bound,
    "walls-predicate": _walls_predicate,
    "walls-predicate-infinite": _walls_predicate,
    "walls-enumerate": _walls_enumerate,
    "walls-enumerate-e8": _walls_enumerate_e8,
    "chamber": _chamber,
    "mld": _mld,
    "mld-chain": _mld,
    "mld-tree": _mld,
}
