"""Basis-change relations through the CLI.

Every input is written a second time in a random unimodular basis t:
the Gram matrix becomes t^T G t and every primal vector x becomes
t^-1 x. The form is the same, so each subcommand's answer must move
with the basis in a known way, or not at all:

* ``reflect``: the image is t^-1 image, ``integral_reflection`` the same;
* ``chamber``: the signs are the same;
* ``zariski``: P and N are t^-1 P and t^-1 N, every other field is the same;
* ``disc``: the output is the same;
* ``dual``: the dual class is t^T dual, the divisibility the same.

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
    random_unimodular,
    random_zariski_context,
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

    def covector(self, gamma):
        # t^T gamma: dual coordinates move with the transpose
        t_transposed = [list(col) for col in zip(*self.t)]
        return [str(c) for c in apply_matrix(t_transposed, [Fraction(c) for c in gamma])]

    def context(self, ctx):
        return {"lattice": {"gram": self.gram(ctx["lattice"]["gram"])}, "h": self.vector(ctx["h"]),
                **{key: [self.vector(v) for v in ctx[key]] for key in ("primes", "walls") if key in ctx}}


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
