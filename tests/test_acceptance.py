"""Acceptance gate: ten independently checkable criteria, one per test.

Each test prints a single pass/fail line through the real stdout so the
gate reads as a checklist even under output capture; the pytest -v
status line carries the same verdict. Seeds are fixed, so the suite is
deterministic end to end.
"""

import functools
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from hklat import (
    BoundQuery,
    NEG_INFINITY,
    birationality_bound,
    denominator_audit,
    discriminant_group,
    dual_class,
    enumerate_negative_classes,
    factorial_or_log,
    is_integral_reflection,
    make_cone_context,
    make_lattice,
    make_table,
    mld_along,
    mld_at,
    moduli_bound,
    moduli_dimension,
    primal,
    primal_of_dual,
    q_eval,
    reflect,
    ruling_curve_class,
    smith_normal_form,
    verify_decomposition,
    zariski_decompose,
)

from .support import (
    box_negative_classes,
    brute_force_zariski,
    det_oracle,
    find_negative_vector,
    k3_type_gram,
    log10_factorial_oracle,
    random_nondegenerate_gram,
    random_zariski_context,
)
from .test_cli import SAMPLES, SUBCOMMANDS, run_cli, write_input


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"[criterion {num:02d}] {name}: FAIL\n")
        sys.__stdout__.flush()
        raise
    sys.__stdout__.write(f"[criterion {num:02d}] {name}: PASS\n")
    sys.__stdout__.flush()


@functools.lru_cache(maxsize=1)
def _suite_decompositions():
    """The shared randomized decomposition suite: 200 contexts, two
    inputs each, all with coefficients in [-5, 5]."""
    rng = random.Random(520210)
    out = []
    for _ in range(200):
        ctx = random_zariski_context(rng)
        for _ in range(2):
            d = primal([rng.randint(-5, 5) for _ in range(ctx.lattice.rank)])
            out.append((ctx, d))
    return tuple(out)


def test_01_zariski_matches_subset_oracle():
    with criterion(1, "zariski oracle equivalence"):
        start = time.monotonic()
        suite = _suite_decompositions()
        assert len(suite) >= 200
        for ctx, d in suite:
            assert ctx.lattice.rank <= 4
            assert len(ctx.primes) <= 4
            dec = zariski_decompose(ctx, d)
            support, coeffs, p_vec, n_vec = brute_force_zariski(ctx, d)
            assert dec.support == support
            assert dec.coefficients == coeffs
            assert dec.positive == p_vec
            assert dec.negative == n_vec
            rep = verify_decomposition(ctx, d, dec.positive, dec.negative)
            assert rep.ok and rep.sum_matches and rep.positive_nef
            assert rep.negative_combination
            assert rep.support_negative_definite and rep.orthogonal
        assert time.monotonic() - start < 30.0


def test_02_decomposition_independent_of_prime_order():
    with criterion(2, "order-independence of the decomposition"):
        rng = random.Random(99120)
        for ctx, d in _suite_decompositions():
            dec = zariski_decompose(ctx, d)
            perm = list(range(len(ctx.primes)))
            rng.shuffle(perm)
            ctx2 = make_cone_context(
                ctx.lattice, ctx.h, [ctx.primes[i] for i in perm])
            dec2 = zariski_decompose(ctx2, d)
            assert dec2.positive == dec.positive
            assert dec2.negative == dec.negative
            assert {ctx2.primes[i].coords: c
                    for i, c in zip(dec2.support, dec2.coefficients)} == \
                   {ctx.primes[i].coords: c
                    for i, c in zip(dec.support, dec.coefficients)}


def test_03_denominator_divides_and_respects_bound():
    with criterion(3, "denominator lcm against determinant and factorial bound"):
        exact_cases = 0
        for ctx, d in _suite_decompositions():
            dec = zariski_decompose(ctx, d)
            card = discriminant_group(ctx.lattice).order
            aud = denominator_audit(ctx, dec, max(card, 1), exact_threshold=10**4)
            assert aud.lcm_divides_det
            if aud.bound.kind == "exact":
                # here (4*cardA)^(rank-1) <= 10^4, so the factorial is a
                # plain integer and the comparison is exact
                exact_cases += 1
                assert aud.lcm <= aud.bound.exact_value
                assert aud.within_bound is True
        assert exact_cases > 0


def test_04_discriminant_groups_and_snf():
    with criterion(4, "cyclic discriminant groups and SNF determinants"):
        for k in range(1, 11):
            group = discriminant_group(make_lattice(k3_type_gram(k)))
            assert group.invariant_factors == (2 * k,)
            assert group.order == 2 * k
        rng = random.Random(40551)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            snf = smith_normal_form(m)
            prod = 1
            for x in snf.diagonal:
                prod *= x
            assert prod == abs(det_oracle(m))


def test_05_bound_formulas():
    with criterion(5, "bound values, cross-formula identity, log accuracy"):
        assert birationality_bound(BoundQuery(1, 1, 1)).exact_value == 10
        assert birationality_bound(BoundQuery(1, 1, 2)).exact_value == 240
        assert birationality_bound(BoundQuery(2, 2, 2)).exact_value == 846720
        for a in range(1, 4):
            for k in range(1, 4):
                for eps in (1, -1):
                    if 2 * a * a * k + 2 * eps <= 0:
                        continue
                    dim = moduli_dimension(a, k, eps)
                    for rho in range(1, 4):
                        lhs = moduli_bound(a, k, eps, rho)
                        rhs = birationality_bound(
                            BoundQuery(dim // 2, 2 * k, rho))
                        assert lhs.exact_value == rhs.exact_value
        for m in (1000, 1389, 4096, 10**4, 10**5):
            bv = factorial_or_log(m, exact_threshold=999)
            assert bv.kind == "logarithmic"
            oracle = log10_factorial_oracle(m)
            assert abs(float(bv.log10_value) - oracle) <= 1e-9 * oracle


def test_06_reflection_laws():
    with criterion(6, "reflection laws and integrality predicate"):
        rng = random.Random(60660)
        checked = 0
        while checked < 500:
            rank = rng.randint(1, 4)
            lat = make_lattice(
                random_nondegenerate_gram(rng, rank, need_negative=True))
            e = find_negative_vector(rng, lat)
            if e is None:
                continue
            g = math.gcd(*(int(c) for c in e.coords))
            e = primal([int(c) // g for c in e.coords])
            x = primal([rng.randint(-5, 5) for _ in range(rank)])
            rx = reflect(lat, e, x)
            assert q_eval(lat, rx, rx) == q_eval(lat, x, x)
            assert reflect(lat, e, rx) == x
            perp = x.scaled(q_eval(lat, e, e)) - e.scaled(q_eval(lat, x, e))
            assert q_eval(lat, perp, e) == 0
            assert reflect(lat, e, perp) == perp
            basis = [primal([1 if i == j else 0 for j in range(rank)])
                     for i in range(rank)]
            images_integral = all(
                reflect(lat, e, b).is_integral() for b in basis)
            # e is primitive by construction, so predicate and direct
            # basis-image integrality must agree
            assert is_integral_reflection(lat, e) == images_integral
            checked += 1


def test_07_ruling_curve_duality():
    with criterion(7, "ruling curve class duality"):
        rng = random.Random(70770)
        checked = 0
        while checked < 100:
            rank = rng.randint(1, 4)
            lat = make_lattice(
                random_nondegenerate_gram(rng, rank, need_negative=True))
            e = find_negative_vector(rng, lat)
            if e is None:
                continue
            s = q_eval(lat, e, e)
            ell = ruling_curve_class(lat, e)
            assert ell == dual_class(lat, e).scaled(Fraction(-2) / s)
            lift = primal_of_dual(lat, ell)
            factor = Fraction(-2) / s
            assert factor > 0
            assert lift == e.scaled(factor)
            checked += 1


def test_08_enumeration_matches_box_search():
    with criterion(8, "negative class enumeration completeness"):
        rng = random.Random(80880)
        checked = 0
        while checked < 50:
            ctx = random_zariski_context(rng, steps=3)
            if ctx.lattice.rank > 3:
                continue
            square = -2 * rng.randint(1, 4)
            pairing_max = rng.randint(1, 4)
            found = enumerate_negative_classes(ctx, square, pairing_max)
            radius = max(
                [4] + [abs(int(c)) for v in found for c in v.coords]) + 1
            oracle = box_negative_classes(ctx, square, pairing_max, radius)
            assert sorted(tuple(int(c) for c in v.coords) for v in found) == oracle
            checked += 1


def test_09_mld_monotone_under_containment():
    with criterion(9, "mld monotonicity along the center poset"):
        rng = random.Random(90990)
        saw_neg_infinity = False
        for _ in range(100):
            centers = [f"C{i}" for i in range(rng.randint(2, 5))]
            containment = [
                [centers[i], centers[j]]
                for i in range(len(centers))
                for j in range(i + 1, len(centers))
                if j == i + 1 or rng.random() < 0.4
            ]
            rows = []
            for i, c in enumerate(centers):
                for j in range(rng.randint(1, 3)):
                    k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    d = Fraction(rng.randint(0, 4), rng.randint(1, 3))
                    rows.append((f"E{i}_{j}", k, d, c))
            table = make_table(rows, containment)
            for (inner, outer) in table.contains:
                v_inner = mld_along(table, inner)
                v_outer = mld_along(table, outer)
                assert v_inner >= v_outer
            for c in centers:
                raw = min(1 + r.k - r.d for r in table.rows if r.center == c)
                got = mld_at(table, c)
                if raw < 0:
                    assert got == NEG_INFINITY
                    saw_neg_infinity = True
                else:
                    assert got == raw
        assert saw_neg_infinity


def test_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI output across runs"):
        for name in SUBCOMMANDS:
            path = write_input(tmp_path, SAMPLES[name], f"{name}.json")
            first = run_cli([name, path])
            second = run_cli([name, path])
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout
            assert json.loads(first.stdout) is not None
