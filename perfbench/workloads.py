"""Seeded query lists for the three benchmark workloads.

Each workload is a fixed-length list of CLI queries whose composition
(how many of each kind and size class) is the same for every seed; the
seed only picks the concrete lattices, vectors and tables. A timed pass
therefore does the same kind of work on every seed, which is what keeps
run-to-run spread small. Queries inside a block are shuffled so that
every prefix of the list has roughly the full mix.

The input constructors come from ``tests/support.py`` where one
exists, so the benchmark inputs are the same families the test oracles
were written for.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from hklat import make_lattice
from tests.support import (
    E8_GRAM,
    U_GRAM,
    apply_matrix,
    conjugate,
    direct_sum,
    find_negative_vector,
    invert_unimodular,
    k3_type_gram,
    negate,
    random_nondegenerate_gram,
    random_unimodular,
    random_zariski_context,
)

WORKLOADS = ("mixed-small", "cones-heavy", "bounds-tables")

# Weights of the host-speed reference tasks (interpreter, big-integer
# multiplication, decimal conversion) for each workload, from where its
# traced time goes: bounds-tables spends about 58% in str() of big
# integers, 9% in factorials and the rest in interpreted code; the
# other two are interpreted code with small integers throughout.
PROBE_WEIGHTS = {
    "mixed-small": (1, 0, 0),
    "cones-heavy": (1, 0, 0),
    "bounds-tables": (0.33, 0.09, 0.58),
}

A2_NEG = [[-2, 1], [1, -2]]


@dataclass(frozen=True)
class Query:
    """One CLI invocation: argv for ``cli.main``, the JSON text fed on
    stdin, and the expected exit code and typed error name."""

    kind: str
    argv: tuple[str, ...]
    stdin: str
    exit_code: int = 0
    error: str | None = None
    meta: dict = field(default_factory=dict, compare=False)


def _query(kind, sub, obj, flags=(), expect=(0, None), **meta) -> Query:
    return Query(kind, (sub, "-", *flags), json.dumps(obj), *expect, meta)


# --- plain integer helpers, shared with the oracles ------------------------

def q_int(gram, a, b) -> int:
    return sum(a[i] * sum(gram[i][j] * b[j] for j in range(len(b)))
               for i in range(len(a)) if a[i])


def mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def reflection_matrix(gram, e):
    """Matrix of x -> x - 2 q(x, e) / q(e, e) e for a root of square -2."""
    n = len(gram)
    s = q_int(gram, e, e)
    cols = []
    for k in range(n):
        b = [int(i == k) for i in range(n)]
        f = -2 * q_int(gram, b, e) // s
        cols.append([b[i] + f * e[i] for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class Sheared:
    """A lattice written in a random unimodular basis t: Gram t^T G t,
    vectors t^-1 x, isometries t^-1 g t."""

    def __init__(self, rng, gram, steps):
        self.t = random_unimodular(rng, len(gram), steps)
        self.t_inv = invert_unimodular(self.t)
        self.gram = conjugate(gram, self.t)

    def vec(self, v):
        return apply_matrix(self.t_inv, v)

    def iso(self, g):
        return mat_mul(mat_mul(self.t_inv, g), self.t)


def _random_negative(rng, gram, lo, hi):
    # a sheared form can have a negative cone too thin to meet a small
    # box, so the box widens after every hundred misses
    for tries in range(10**6):
        grow = tries // 100
        v = [rng.randint(lo - grow, hi + grow) for _ in range(len(gram))]
        if q_int(gram, v, v) < 0:
            return v
    raise ValueError("no vector of negative square found")


def _ctx_json(ctx) -> dict:
    return {
        "lattice": {"gram": [list(r) for r in ctx.lattice.gram]},
        "h": list(ctx.h.ints()),
        "primes": [list(p.ints()) for p in ctx.primes],
    }


def _blocks(rng, block, repeats) -> list[Query]:
    """repeats copies of the block's composition, each shuffled."""
    out: list[Query] = []
    for _ in range(repeats):
        items = [make(rng) for make, count in block for _ in range(count)]
        rng.shuffle(items)
        out.extend(items)
    return out


# --- mixed-small ----------------------------------------------------------

def _disc(rng):
    return _query("disc", "disc", {"gram": random_nondegenerate_gram(rng, rng.randint(2, 6))})


def _disc_k3(rng):
    k = rng.randint(1, 60)
    return _query("disc-k3", "disc", {"gram": k3_type_gram(k)}, k=k)


def _disc_singular(rng):
    v = [rng.randint(-3, 3) or 1 for _ in range(rng.randint(2, 5))]
    gram = [[a * b for b in v] for a in v]
    return _query("disc", "disc", {"gram": gram}, expect=(1, "DegenerateFormError"))


def _dual(rng):
    rank = rng.randint(2, 6)
    gram = random_nondegenerate_gram(rng, rank)
    if rng.random() < 0.25:
        x = [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" for _ in range(rank)]
    else:
        x = [rng.randint(-5, 5) for _ in range(rank)]
    return _query("dual", "dual", {"gram": gram, "x": x})


def _dual_float(rng):
    rank = rng.randint(2, 6)
    x = [rng.randint(-5, 5) for _ in range(rank)]
    x[rng.randrange(rank)] = rng.randint(1, 9) + 0.5
    return _query("dual", "dual", {"gram": random_nondegenerate_gram(rng, rank), "x": x},
                  expect=(2, "SchemaError"))


def _reflect(rng):
    while True:
        rank = rng.randint(2, 6)
        gram = random_nondegenerate_gram(rng, rank, need_negative=True)
        mirror = find_negative_vector(rng, make_lattice(gram))
        if mirror is not None:
            break
    x = [rng.randint(-5, 5) for _ in range(rank)]
    return _query("reflect", "reflect",
                  {"gram": gram, "mirror": [int(c) for c in mirror.coords], "x": x})


def _zariski(rng):
    ctx = random_zariski_context(rng, steps=rng.randint(2, 6))
    d = [rng.randint(-4, 4) for _ in range(ctx.lattice.rank)]
    return _query("zariski", "zariski", {"context": _ctx_json(ctx), "D": d},
                  ("--exact-threshold", "4096"))


def _zariski_not_pe(rng):
    # U + <-2> with primes g and e - g: both of square -2, pairing 2, so
    # their Gram matrix is singular; D pairs negatively with both
    gram = direct_sum(U_GRAM, [[-2]])
    sh = Sheared(rng, gram, rng.randint(1, 4))
    x = rng.randint(-3, 3)
    z = rng.randint(1, 3)
    d = [x, -2 * z - rng.randint(1, 3), z]
    ctx = {"lattice": {"gram": sh.gram}, "h": sh.vec([1, 1, 0]),
           "primes": [sh.vec([0, 0, 1]), sh.vec([1, 0, -1])]}
    return _query("zariski", "zariski", {"context": ctx, "D": sh.vec(d)},
                  ("--exact-threshold", "4096"), expect=(1, "NotPseudoEffectiveError"))


def _bound(rng):
    r = rng.random()
    n = rng.randint(1, 12)
    if r < 0.4:
        rho, card = rng.choice(((1, rng.randint(1, 100)), (2, rng.randint(1, 64)),
                                (3, rng.randint(1, 8)), (4, rng.randint(1, 4))))
        return _query("bound", "bound", {"n": n, "cardA": card, "rho": rho})
    if r < 0.7:
        # default threshold, argument far above it: the Decimal power path
        return _query("bound", "bound",
                      {"n": n, "cardA": rng.randint(300, 5000), "rho": rng.randint(3, 8)})
    # explicit low threshold: the logarithmic path at a moderate argument
    rho, card = rng.choice(((2, rng.randint(200, 12000)), (3, rng.randint(9, 50))))
    thr = rng.randint(100, 4 * card - 1) if rho == 2 else rng.randint(100, 4000)
    return _query("bound", "bound", {"n": n, "cardA": card, "rho": rho},
                  ("--exact-threshold", str(thr)))


def _moduli_bound(rng):
    a, k, eps = rng.randint(1, 5), rng.randint(1, 20), rng.choice((1, -1))
    if a == 1 and k == 1 and eps == -1:
        eps = 1
    small = [rho for rho in range(1, 6) if (8 * k) ** (rho - 1) <= 4096]
    if rng.random() < 0.5:
        rho = rng.choice(small)
    else:
        rho = rng.randint(max(small) + 1, 9)
        while (8 * k) ** (rho - 1) <= 10**6:
            rho += 1
    return _query("moduli-bound", "moduli-bound", {"a": a, "k": k, "eps": eps, "rho": rho})


def _finite_context(rng, nwalls):
    """<2k> + A2(-1) with the two simple reflections: monodromy S3."""
    gram = direct_sum([[2 * rng.randint(1, 4)]], A2_NEG)
    gens = [reflection_matrix(gram, [0, 1, 0]), reflection_matrix(gram, [0, 0, 1])]
    walls = [_random_negative(rng, gram, -4, 4) for _ in range(nwalls)]
    return gram, gens, walls


def _walls_predicate(rng):
    gram, gens, walls = _finite_context(rng, rng.randint(1, 10))
    if rng.random() < 0.5:
        d = [rng.randint(1, 3) * c for c in rng.choice(walls)]
        for _ in range(rng.randint(0, 3)):
            d = mat_vec(rng.choice(gens), d)
    else:
        d = _random_negative(rng, gram, -6, 6)
    sh = Sheared(rng, gram, rng.randint(1, 5))
    ctx = {"lattice": {"gram": sh.gram}, "h": sh.vec([1, 0, 0]),
           "walls": [sh.vec(w) for w in walls], "monodromy_gens": [sh.iso(g) for g in gens]}
    return _query("walls-predicate", "walls", {"context": ctx, "divisor": sh.vec(d)})


def _walls_enumerate(rng):
    gram = rng.choice((direct_sum([[2 * rng.randint(1, 3)]], A2_NEG),
                       direct_sum([[2]], [[-2]], [[-2 * rng.randint(1, 2)]])))
    sh = Sheared(rng, gram, rng.randint(0, 3))
    obj = {"context": {"lattice": {"gram": sh.gram}, "h": sh.vec([1, 0, 0])},
           "square": rng.choice((-2, -4, -6)), "pairing_max": rng.randint(1, 4),
           "primitive_only": rng.random() < 0.3}
    return _query("walls-enumerate", "walls", obj)


def _chamber(rng):
    ctx = random_zariski_context(rng, steps=rng.randint(1, 4))
    gram = [list(r) for r in ctx.lattice.gram]
    h = list(ctx.h.ints())
    walls = [_random_negative(rng, gram, -3, 3) for _ in range(rng.randint(1, 10))]
    while True:
        c = rng.randint(2, 6)
        x = [c * hi + rng.randint(-1, 1) for hi in h]
        if (q_int(gram, x, x) > 0 and q_int(gram, x, h) > 0
                and all(q_int(gram, x, w) for w in walls)):
            break
    return _query("chamber", "chamber",
                  {"context": {"lattice": {"gram": gram}, "h": h, "walls": walls}, "x": x})


def _rational(rng, lo, hi):
    den = rng.randint(1, 6)
    return f"{rng.randint(lo * den, hi * den)}/{den}"


def _mld_table(rng, ncentres, containment):
    rows = []
    for c in range(ncentres):
        for _ in range(rng.randint(1, 3)):
            rows.append({"label": f"E{len(rows)}", "kE": _rational(rng, -2, 3),
                         "dE": _rational(rng, 0, 2), "center": f"c{c}"})
    return {"rows": rows, "containment": containment, "complete": rng.random() < 0.5}


def _mld_query(rng, table, ncentres):
    kind = rng.choice(("at", "along", "discrepancy", "acc"))
    if kind == "discrepancy":
        return {"discrepancy": rng.choice(table["rows"])["label"]}
    if kind == "acc":
        return {"acc": [_rational(rng, -1, 2) for _ in range(rng.randint(1, 8))]}
    return {kind: f"c{rng.randrange(ncentres)}"}


def _mld(rng):
    n = rng.randint(2, 10)
    pairs = [[f"c{i}", f"c{j}"] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    table = _mld_table(rng, n, pairs)
    return _query("mld", "mld", {"table": table, "query": _mld_query(rng, table, n)})


def _mld_cycle(rng):
    n = rng.randint(3, 10)
    path = [[f"c{i}", f"c{i + 1}"] for i in range(n - 1)]
    table = _mld_table(rng, n, path + [[f"c{n - 1}", f"c{rng.randrange(n - 1)}"]])
    return _query("mld", "mld", {"table": table, "query": _mld_query(rng, table, n)},
                  expect=(1, "InvalidPosetError"))


MIXED_BLOCK = (
    # two rank-23 queries per block put the p99.5 tail inside their
    # cluster rather than among rare outliers of the small kinds
    (_disc, 11), (_disc_k3, 2), (_disc_singular, 1),
    (_dual, 11), (_dual_float, 1),
    (_reflect, 13),
    (_zariski, 13), (_zariski_not_pe, 1),
    (_bound, 8),
    (_moduli_bound, 6),
    (_walls_predicate, 7), (_walls_enumerate, 4),
    (_chamber, 10),
    (_mld, 11), (_mld_cycle, 1),
)
MIXED_REPEATS = 20


# --- cones-heavy ----------------------------------------------------------

E8_COUNTS = {-2: 2160, -4: 6720}  # classes of <2> + E8(-1) with q(x, h) = 2


def _enumerate_e8(square, steps, box=0):
    def make(rng):
        gram = direct_sum([[2]], negate(E8_GRAM))
        sh = Sheared(rng, gram, rng.randint(*steps))
        obj = {"context": {"lattice": {"gram": sh.gram}, "h": sh.vec([1] + [0] * 8)},
               "square": square, "pairing_max": rng.randint(2, 3)}
        return _query("walls-enumerate-e8", "walls", obj, count=E8_COUNTS[square], box=box)
    return make


U_M2 = direct_sum(U_GRAM, [[-2]])
# four roots of square -2 whose reflections generate an infinite group
U_M2_ROOTS = ([0, 0, 1], [1, -1, 0], [1, 0, 1], [0, 1, 1])


def _infinite_walls(budget, match):
    def make(rng):
        gens = [reflection_matrix(U_M2, r) for r in U_M2_ROOTS]
        walls = [_random_negative(rng, U_M2, -6, 6) for _ in range(200)]
        if match:
            d = list(rng.choice(walls))
            for _ in range(rng.randint(1, 3)):
                d = mat_vec(rng.choice(gens), d)
        else:
            d = _random_negative(rng, U_M2, -40, 40)
        ctx = {"lattice": {"gram": U_M2}, "h": [1, 1, 0], "walls": walls,
               "monodromy_gens": gens}
        return _query("walls-predicate-infinite", "walls", {"context": ctx, "divisor": d},
                      ("--budget", str(budget)))
    return make


# Shears beyond three steps (one for square -4) grow the LDL fractions
# enough to triple a query's cost, so they are left out. The box-search
# oracle is exhaustive over 3^9 points and runs on one query. Budget-300
# misses scan the whole truncated orbit against every wall and cost the
# same on every seed; twelve of them put the p90 tail inside that
# cluster instead of among the shear-dependent enumerations.
CONES_BLOCK = (
    (_enumerate_e8(-2, (1, 3), box=1), 1), (_enumerate_e8(-2, (1, 3)), 9),
    (_enumerate_e8(-4, (0, 1)), 2),
    *((_infinite_walls(budget, True), count)
      for budget, count in ((100, 16), (150, 10), (200, 8), (250, 6), (300, 4))),
    *((_infinite_walls(budget, False), count)
      for budget, count in ((100, 16), (150, 8), (200, 6), (250, 2), (300, 12))),
)


# --- bounds-tables --------------------------------------------------------

# The cost of these queries grows steeply with their size (str() of m!
# about as m^2, the closure about as L^4), so sizes sit on fixed
# log-spaced ladders and the seed picks only everything else; a size
# drawn at random would make the pass time depend on the seed.

def _ladder(lo, hi, count):
    return [lo * (hi / lo) ** ((j + 0.5) / count) for j in range(count)]


def _exact_bound(rng, m):
    """A bound, moduli bound or zariski audit with factorial argument near m."""
    kind = rng.choice(("bound", "moduli-bound", "zariski"))
    if kind == "bound":
        # the argument is 4 cardA at rho 2 and (4 cardA)^2 at rho 3
        rho, card = rng.choice(((2, round(m / 4)), (3, round(m ** 0.5 / 4))))
        return _query("bound-exact", "bound", {"n": rng.randint(1, 12), "cardA": card, "rho": rho})
    if kind == "moduli-bound":
        return _query("moduli-bound", "moduli-bound",
                      {"a": rng.randint(1, 5), "k": round(m / 8), "eps": rng.choice((1, -1)),
                       "rho": 2})
    b, c = rng.randint(1, 4), rng.randint(1, 4)
    sh = Sheared(rng, [[2 * c, 1], [1, -2 * b]], rng.randint(0, 3))
    ctx = {"lattice": {"gram": sh.gram}, "h": sh.vec([1, 0]), "primes": [sh.vec([0, 1])]}
    d = [rng.randint(1, 5), rng.randint(1, 5)]
    return _query("zariski-audit", "zariski",
                  {"context": ctx, "D": sh.vec(d), "cardA": round(m / 4)})


def _threshold_pair(rng, card):
    """The same bound just at and just under its exact threshold."""
    obj = {"n": rng.randint(1, 12), "cardA": card, "rho": 2}
    m = 4 * card
    return [_query("bound-exact", "bound", obj, ("--exact-threshold", str(m))),
            _query("bound-log", "bound", obj, ("--exact-threshold", str(m - 1)))]


def _mld_poset(rng, shape, n):
    if shape == "chain":
        order = list(range(n))
        rng.shuffle(order)
        pairs = [[f"c{order[i]}", f"c{order[i + 1]}"] for i in range(n - 1)]
    else:
        pairs = [[f"c{i}", f"c{rng.randrange(i)}"] for i in range(1, n)]
    table = _mld_table(rng, n, pairs)
    kind = rng.choice(("at", "along"))
    return _query(f"mld-{shape}", "mld", {"table": table, "query": {kind: f"c{rng.randrange(n)}"}})


def _bounds_tables(rng) -> list[Query]:
    out = []
    # m in [4096, 32768] in three strata of doubling m
    for lo, count in ((4096, 30), (8192, 15), (16384, 9)):
        out += [_exact_bound(rng, m) for m in _ladder(lo, 2 * lo, count)]
    for shape, count in (("chain", 14), ("tree", 16)):
        out += [_mld_poset(rng, shape, round(n)) for n in _ladder(20, 60, count)]
    rng.shuffle(out)
    for card in _ladder(1024, 4096, 8):
        i = rng.randrange(len(out) + 1)
        out[i:i] = _threshold_pair(rng, round(card))
    return out


def generate(workload: str, seed: int) -> list[Query]:
    """The workload's query list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mixed-small":
        return _blocks(rng, MIXED_BLOCK, MIXED_REPEATS)
    if workload == "cones-heavy":
        return _blocks(rng, CONES_BLOCK, 1)
    if workload == "bounds-tables":
        return _bounds_tables(rng)
    raise ValueError(f"unknown workload {workload!r}")
