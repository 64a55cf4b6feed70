"""Basis-change relations through the CLI.

Every input is written a second time in a random unimodular basis t:
the Gram matrix becomes t^T G t, every primal vector x becomes t^-1 x
and every monodromy generator g becomes t^-1 g t. The form is the
same, so each subcommand's answer must move with the basis in a known
way, or not at all:

* ``reflect``: the image is t^-1 image, ``integral_reflection`` the same;
* ``chamber``: the signs are the same;
* ``zariski``: P and N are t^-1 P and t^-1 N, every other field is the same;
* ``disc``: the output is the same;
* ``dual``: the dual class is t^T dual, the divisibility the same;
* ``walls``, enumerating: the classes are t^-1 classes, the count the same;
* ``walls``, testing a divisor: ``is_wall``, ``failed_condition`` and
  ``orbit_closed`` are the same, and t maps the witness's orbit element
  to its factor times the wall it names (the witness itself may differ).

An input that fails must fail in both bases with the same exit code and
the same error name. The oracles are the builders of ``tests/support.py``;
nothing here uses ``hklat.linalg``.
"""

import json
import random
from fractions import Fraction

from hklat import cli

from .support import (
    apply_matrix,
    conjugate,
    direct_sum,
    invert_unimodular,
    mat_mul,
    random_unimodular,
    random_zariski_context,
    reflection_in_root,
)

CASES = 100


class Basis:
    """A random unimodular t of at most six shear steps, and its inverse."""

    def __init__(self, rng: random.Random, n: int):
        self.t = random_unimodular(rng, n, rng.randint(1, 6))
        self.t_inv = invert_unimodular(self.t)

    def gram(self, gram):
        return conjugate(gram, self.t)

    def vector(self, x):
        # t^-1 x, written as the CLI writes coordinates
        return [str(c) for c in apply_matrix(self.t_inv, [Fraction(c) for c in x])]

    def back(self, x):
        # t x: a vector written in the new basis, in the old one
        return apply_matrix(self.t, [Fraction(c) for c in x])

    def isometry(self, g):
        return mat_mul(mat_mul(self.t_inv, g), self.t)

    def covector(self, gamma):
        # t^T gamma: dual coordinates move with the transpose
        t_transposed = [list(col) for col in zip(*self.t)]
        return [str(c) for c in apply_matrix(t_transposed, [Fraction(c) for c in gamma])]

    def context(self, ctx):
        return {"lattice": {"gram": self.gram(ctx["lattice"]["gram"])}, "h": self.vector(ctx["h"]),
                **{key: [self.vector(v) for v in ctx[key]] for key in ("primes", "walls") if key in ctx},
                **({"monodromy_gens": [self.isometry(g) for g in ctx["monodromy_gens"]]}
                   if "monodromy_gens" in ctx else {})}


def _run(tmp_path, capsys, name, obj, *flags):
    """The exit code and the parsed report, or the error name on a failure."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code = cli.main([name, str(path), *flags])
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == 0 else err.split(":", 1)[0]


def _q(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def _rational(rng: random.Random):
    if rng.random() < 0.6:
        return str(rng.randint(-3, 3))
    return str(Fraction(rng.randint(-7, 7), rng.randint(1, 4)))


def _context(rng: random.Random) -> dict:
    # a seeded Zariski context, or, one time in four, U + <-2> with two
    # primes whose Gram matrix is only semidefinite, so that some D are
    # not pseudo-effective
    if rng.random() < 0.25:
        return {"lattice": {"gram": direct_sum([[0, 1], [1, 0]], [[-2]])}, "h": [1, 1, 0],
                "primes": [[1, -1, 0], [0, 2, 1]]}
    ctx = random_zariski_context(rng, steps=rng.randint(0, 4))
    return {"lattice": {"gram": [list(row) for row in ctx.lattice.gram]}, "h": list(ctx.h.coords),
            "primes": [list(p.coords) for p in ctx.primes]}


def _gram(rng: random.Random):
    # a context's Gram matrix, a diagonal one with a non-cyclic
    # discriminant group, or a degenerate one
    kind = rng.random()
    if kind < 0.5:
        return _context(rng)["lattice"]["gram"]
    diagonal = [rng.choice((1, 2, 3, 4, 6)) * rng.choice((1, -1)) for _ in range(rng.randint(1, 4))]
    if kind < 0.9:
        return direct_sum(*([[d]] for d in diagonal))
    return direct_sum([[1, 1], [1, 1]], *([[d]] for d in diagonal))


def _same_failure(here, there):
    assert here[0] != 0 and there == here, (here, there)


def test_reflect_image_moves_with_the_basis(tmp_path, capsys):
    rng = random.Random(2801)
    images = 0
    for _ in range(CASES):
        gram = _gram(rng)
        n = len(gram)
        mirror = [rng.randint(-2, 2) for _ in range(n)] if rng.random() < 0.8 else [_rational(rng) for _ in range(n)]
        x = [_rational(rng) for _ in range(n)]
        basis = Basis(rng, n)
        here = _run(tmp_path, capsys, "reflect", {"gram": gram, "mirror": mirror, "x": x})
        there = _run(tmp_path, capsys, "reflect",
                     {"gram": basis.gram(gram), "mirror": basis.vector(mirror), "x": basis.vector(x)})
        if here[0] != 0:
            _same_failure(here, there)
            continue
        images += 1
        assert there == (0, {"image": basis.vector(here[1]["image"]),
                             "integral_reflection": here[1]["integral_reflection"]})
    assert images >= CASES // 2


def test_chamber_signs_do_not_move_with_the_basis(tmp_path, capsys):
    rng = random.Random(2802)
    signs = 0
    for _ in range(CASES):
        ctx = _context(rng)
        gram, h = ctx["lattice"]["gram"], ctx["h"]
        n = len(gram)
        ctx["walls"] = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        ctx["walls"] = [w for w in ctx["walls"] if _q(gram, w, w) < 0 or rng.random() < 0.05]
        x = [Fraction(rng.randint(3, 8)) * c + Fraction(_rational(rng)) for c in h]
        if ctx["walls"] and rng.random() < 0.2:
            # q(x, w) = 0 for x = -q(w, w) h + q(h, w) w, which lies in the positive cone
            w = ctx["walls"][rng.randrange(len(ctx["walls"]))]
            x = [-_q(gram, w, w) * a + _q(gram, h, w) * b for a, b in zip(h, w)]
        x = [str(c) for c in x]
        basis = Basis(rng, n)
        here = _run(tmp_path, capsys, "chamber", {"context": ctx, "x": x})
        there = _run(tmp_path, capsys, "chamber", {"context": basis.context(ctx), "x": basis.vector(x)})
        if here[0] != 0:
            _same_failure(here, there)
            continue
        signs += bool(here[1]["signs"])
        assert there == here
    assert signs >= CASES // 3


def test_zariski_parts_move_with_the_basis(tmp_path, capsys):
    rng = random.Random(2803)
    decompositions = 0
    for _ in range(CASES):
        ctx = _context(rng)
        n = len(ctx["h"])
        d = [_rational(rng) for _ in range(n)]
        basis = Basis(rng, n)
        here = _run(tmp_path, capsys, "zariski", {"context": ctx, "D": d}, "--exact-threshold", "5000")
        there = _run(tmp_path, capsys, "zariski", {"context": basis.context(ctx), "D": basis.vector(d)},
                     "--exact-threshold", "5000")
        if here[0] != 0:
            _same_failure(here, there)
            continue
        decompositions += bool(here[1]["support"])
        assert there == (0, {**here[1], "P": basis.vector(here[1]["P"]), "N": basis.vector(here[1]["N"])})
    assert decompositions >= CASES // 3


def test_disc_does_not_move_with_the_basis(tmp_path, capsys):
    rng = random.Random(2804)
    for _ in range(CASES):
        gram = _gram(rng)
        basis = Basis(rng, len(gram))
        here = _run(tmp_path, capsys, "disc", {"gram": gram})
        assert _run(tmp_path, capsys, "disc", {"gram": basis.gram(gram)}) == here


def test_dual_class_moves_with_the_transpose(tmp_path, capsys):
    rng = random.Random(2805)
    for _ in range(CASES):
        gram = _gram(rng)
        n = len(gram)
        x = [_rational(rng) for _ in range(n)]
        basis = Basis(rng, n)
        here = _run(tmp_path, capsys, "dual", {"gram": gram, "x": x})
        there = _run(tmp_path, capsys, "dual", {"gram": basis.gram(gram), "x": basis.vector(x)})
        if here[0] != 0:
            _same_failure(here, there)
            continue
        assert there == (0, {"dual": basis.covector(here[1]["dual"]), "divisibility": here[1]["divisibility"]})


def _enumeration_context(rng: random.Random) -> dict:
    # a context of _context, or, one time in three, <a> + <-b_1> + ... +
    # <-b_j> of rank 3 to 6 with h the first basis vector, whose shell
    # centres are often integral or half-integral, so the walk mirrors
    if rng.random() < 2 / 3:
        return _context(rng)
    gram = direct_sum([[rng.choice((2, 4, 6))]], *([[-rng.choice((1, 2, 3))]] for _ in range(rng.randint(2, 5))))
    return {"lattice": {"gram": gram}, "h": [1] + [0] * (len(gram) - 1)}


def test_walls_classes_move_with_the_basis(tmp_path, capsys):
    rng = random.Random(2806)
    classes = 0
    for _ in range(CASES):
        ctx = _enumeration_context(rng)
        query = {"square": rng.choice((-1, -2, -4, -6, -8)), "pairing_max": rng.randint(1, 6),
                 "primitive_only": rng.random() < 0.3}
        basis = Basis(rng, len(ctx["h"]))
        here = _run(tmp_path, capsys, "walls", {"context": ctx, **query})
        there = _run(tmp_path, capsys, "walls", {"context": basis.context(ctx), **query})
        assert here[0] == there[0] == 0, (here, there)
        assert there[1]["count"] == here[1]["count"] == len(here[1]["classes"])
        assert sorted(map(tuple, there[1]["classes"])) == sorted(tuple(basis.vector(x)) for x in here[1]["classes"])
        classes += here[1]["count"]
    assert classes >= 10 * CASES


# four roots of square -2 in U + <-2> whose reflections generate an
# infinite group, so a small budget truncates the orbit
U_M2 = direct_sum([[0, 1], [1, 0]], [[-2]])
U_M2_ROOTS = ([0, 0, 1], [1, -1, 0], [1, 0, 1], [0, 1, 1])


def _monodromy_context(rng: random.Random) -> dict:
    # U + <-2> under the reflections in some of its four roots, <2> + <-2>
    # + <-2> under two sign changes and the swap (a finite group), or a
    # context of _context without generators; one to eight walls of
    # negative square
    kind = rng.random()
    if kind < 0.5:
        gram, h = U_M2, [1, 1, 0]
        gens = [reflection_in_root(gram, r) for r in rng.sample(U_M2_ROOTS, rng.randint(1, 4))]
    elif kind < 0.8:
        gram, h = direct_sum([[2]], [[-2]], [[-2]]), [1, 0, 0]
        gens = [[[1, 0, 0], [0, -1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                [[1, 0, 0], [0, 0, 1], [0, 1, 0]]]
    else:
        ctx = _context(rng)
        gram, h, gens = ctx["lattice"]["gram"], ctx["h"], []
    n = len(gram)
    walls = []
    while len(walls) < rng.randint(1, 8):
        w = [rng.randint(-3, 3) for _ in range(n)]
        if _q(gram, w, w) < 0:
            walls.append(w)
    return {"lattice": {"gram": gram}, "h": h, "walls": walls, "monodromy_gens": gens}


def _divisor(rng: random.Random, ctx: dict) -> list[int]:
    # a multiple of a wall's image under a short word in the generators
    # (a wall divisor when the budget reaches the word), a random class,
    # which may have a nonnegative square, or the zero class
    n = len(ctx["h"])
    kind = rng.random()
    if kind < 0.5:
        d = list(rng.choice(ctx["walls"]))
        for _ in range(rng.randint(0, 3) if ctx["monodromy_gens"] else 0):
            d = apply_matrix(rng.choice(ctx["monodromy_gens"]), d)
        return [rng.choice((1, 1, 2, -1)) * c for c in d]
    if kind < 0.95:
        return [rng.randint(-4, 4) for _ in range(n)]
    return [0] * n


def test_walls_verdict_does_not_move_with_the_basis(tmp_path, capsys):
    rng = random.Random(2807)
    seen = {"wall": 0, "truncated": 0, "negativity": 0, "no-wall-match": 0}
    for _ in range(CASES):
        ctx = _monodromy_context(rng)
        d = _divisor(rng, ctx)
        budget = str(rng.choice((4, 16, 64, 1000)))
        basis = Basis(rng, len(d))
        here = _run(tmp_path, capsys, "walls", {"context": ctx, "divisor": d}, "--budget", budget)
        there = _run(tmp_path, capsys, "walls", {"context": basis.context(ctx), "divisor": basis.vector(d)},
                     "--budget", budget)
        if here[0] != 0:
            _same_failure(here, there)
            continue
        for key in ("is_wall", "failed_condition", "orbit_closed"):
            assert there[1][key] == here[1][key], (key, here, there)
        for report, original in ((here[1], lambda x: [Fraction(c) for c in x]), (there[1], basis.back)):
            witness = report["witness"]
            if witness is not None:
                factor = Fraction(witness["factor"])
                wall = ctx["walls"][witness["wall_index"]]
                assert factor > 0 and original(witness["orbit_element"]) == [factor * c for c in wall]
        seen["wall"] += here[1]["is_wall"]
        seen["truncated"] += not here[1]["orbit_closed"]
        if here[1]["failed_condition"]:
            seen[here[1]["failed_condition"]] += 1
    assert min(seen.values()) >= CASES // 10, seen
