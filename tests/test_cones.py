import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import (
    chamber_signature,
    dual,
    enumerate_negative_classes,
    in_fe_chamber,
    in_positive_cone,
    is_integral_reflection,
    is_wall_divisor,
    make_cone_context,
    make_lattice,
    monodromy_orbit,
    primal,
    q_eval,
    reflect,
)
from hklat import cones
from hklat.cones import _shell_points
from hklat.lattice import Frame, FramedVector
from hklat.errors import (
    FrameError,
    InvalidContextError,
    InvalidQueryError,
    IsotropicClassError,
    NonIntegralError,
    NonNegativeSquareError,
    OnWallError,
    OutsidePositiveConeError,
    ShapeError,
    ZeroVectorError,
)

from .support import (
    U_GRAM,
    apply_matrix,
    bounded_orbit,
    box_negative_classes,
    conjugate,
    direct_sum,
    ellipsoid_box_oracle,
    find_negative_vector,
    invert_unimodular,
    mat_mul,
    negative_definite_oracle,
    negate,
    preserves_form_oracle,
    random_nondegenerate_gram,
    random_unimodular,
    random_zariski_context,
    reflection_in_root,
    small_fractions,
    wall_witness_oracle,
)

U = make_lattice(U_GRAM)
DIAG_2_M2 = make_lattice([[2, 0], [0, -2]])


def ints(v):
    return tuple(int(c) for c in v.coords)


def test_make_cone_context_valid():
    ctx = make_cone_context(DIAG_2_M2, primal([1, 0]), [primal([0, 1])])
    assert ctx.primes == (primal([0, 1]),)


def test_make_cone_context_rejects_parallel_primes():
    with pytest.raises(InvalidContextError):
        make_cone_context(DIAG_2_M2, primal([1, 0]), [primal([0, 1]), primal([0, 2])])


def test_make_cone_context_rejects_component_swap():
    with pytest.raises(InvalidContextError):
        make_cone_context(U, primal([1, 1]), monodromy_gens=[[[-1, 0], [0, -1]]])


def test_make_cone_context_rejects_bad_signature():
    with pytest.raises(InvalidContextError):
        make_cone_context(make_lattice([[2, 0], [0, 2]]), primal([1, 0]))


def test_make_cone_context_rejects_nonnegative_h():
    with pytest.raises(InvalidContextError):
        make_cone_context(U, primal([1, -1]))


def test_make_cone_context_rejects_nonnegative_prime_square():
    with pytest.raises(InvalidContextError):
        make_cone_context(U, primal([1, 1]), [primal([1, 0])])


def test_make_cone_context_rejects_non_isometry():
    with pytest.raises(InvalidContextError):
        make_cone_context(U, primal([1, 1]), monodromy_gens=[[[1, 1], [0, 1]]])


@pytest.mark.parametrize("entry", [1.9, 1.0, True, "1", Fraction(1)])
def test_generator_and_gram_entries_must_be_integers(entry):
    # with int() in place of the check, [[1.9, 0], [0, 1]] became the identity
    with pytest.raises(ShapeError, match="generator 0 entries must be integers"):
        make_cone_context(U, primal([1, 1]), monodromy_gens=[[[entry, 0], [0, 1]]])
    with pytest.raises(ShapeError, match="Gram entries must be integers"):
        make_lattice([[entry, 0], [0, -1]])


@pytest.mark.parametrize("error, defect", [
    (NonIntegralError, lambda v: v.scaled(Fraction(1, 2))),
    (ShapeError, lambda v: primal([*v.coords, 0])),
    (FrameError, lambda v: dual(v.coords)),
])
@pytest.mark.parametrize("role", ("h", "prime", "wall"))
def test_make_cone_context_checks_every_input_vector(role, error, defect):
    vectors = {"h": primal([1, 0]), "prime": primal([0, 1]), "wall": primal([0, 1])}
    vectors[role] = defect(vectors[role])
    with pytest.raises(error):
        make_cone_context(DIAG_2_M2, vectors["h"], [vectors["prime"]], [vectors["wall"]])


def test_wall_divisor_rejects_a_non_integral_class_of_any_square():
    ctx = make_cone_context(DIAG_2_M2, primal([1, 0]), walls=[primal([0, 1])])
    with pytest.raises(NonIntegralError):
        is_wall_divisor(ctx, primal(["1/2", 0]))


def test_in_positive_cone_examples():
    ctx = make_cone_context(U, primal([1, 1]))
    assert in_positive_cone(ctx, primal([1, 1]))
    assert not in_positive_cone(ctx, primal([-1, -1]))
    assert not in_positive_cone(ctx, primal([1, -1]))


def test_in_fe_chamber_examples():
    ctx = make_cone_context(DIAG_2_M2, primal([1, 0]), [primal([0, 1])])
    assert in_fe_chamber(ctx, primal([2, -1]))
    assert not in_fe_chamber(ctx, primal([2, 1]))
    assert not in_fe_chamber(ctx, primal([1, 0]))


def test_reflect_examples():
    e = primal([1, -1])
    assert reflect(U, e, primal([1, 0])).coords == (0, 1)
    assert reflect(U, e, primal([1, 1])).coords == (1, 1)
    with pytest.raises(IsotropicClassError):
        reflect(U, primal([1, 0]), primal([0, 1]))


def test_is_integral_reflection_examples():
    assert is_integral_reflection(U, primal([1, -1]))
    assert is_integral_reflection(make_lattice([[-2]]), primal([1]))
    assert not is_integral_reflection(make_lattice([[-4, 1], [1, 2]]), primal([1, 0]))
    with pytest.raises(NonNegativeSquareError):
        is_integral_reflection(U, primal([1, 1]))


def test_monodromy_orbit_no_generators():
    ctx = make_cone_context(U, primal([1, 1]))
    orbit, closed = monodromy_orbit(ctx, primal([2, 1]))
    assert closed
    assert sorted(ints(v) for v in orbit) == [(-2, -1), (2, 1)]


def test_monodromy_orbit_reflection_generator():
    ctx = make_cone_context(U, primal([1, 1]), monodromy_gens=[[[0, 1], [1, 0]]])
    orbit, closed = monodromy_orbit(ctx, primal([1, 0]))
    assert closed
    assert sorted(ints(v) for v in orbit) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


# U + <-2>: the composite of the reflections in (3,0,1) and (0,0,1) is
# parabolic (their difference is isotropic), hence of infinite order
U_M2_GRAM = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
PARABOLIC = [[1, 9, 6], [0, 1, 0], [0, 3, 1]]


def test_monodromy_orbit_budget_truncation():
    ctx = make_cone_context(
        make_lattice(U_M2_GRAM), primal([1, 1, 0]), monodromy_gens=[PARABOLIC])
    orbit1, closed1 = monodromy_orbit(ctx, primal([1, -1, 0]), budget=1)
    assert not closed1
    assert len(orbit1) == 1
    orbit5, closed5 = monodromy_orbit(ctx, primal([1, -1, 0]), budget=5)
    assert not closed5
    assert len(orbit5) == 5
    with pytest.raises(InvalidQueryError):
        monodromy_orbit(ctx, primal([1, -1, 0]), budget=0)


def test_orbit_symmetry_and_closure():
    g = [[0, 1], [1, 0]]
    ctx = make_cone_context(U, primal([1, 1]), monodromy_gens=[g])
    orbit, closed = monodromy_orbit(ctx, primal([3, 1]))
    assert closed
    pts = {ints(v) for v in orbit}
    for p in pts:
        assert tuple(-c for c in p) in pts
        assert (p[1], p[0]) in pts


def test_enumerate_examples():
    ctx = make_cone_context(U, primal([2, 1]))
    assert [ints(v) for v in enumerate_negative_classes(ctx, -2, 2)] == [(-1, 1)]
    ctx2 = make_cone_context(DIAG_2_M2, primal([2, 1]))
    assert [ints(v) for v in enumerate_negative_classes(ctx2, -2, 2)] == [(0, -1)]
    # odd squares are unreachable in U: q is always even there
    assert enumerate_negative_classes(ctx, -1, 5) == ()


def test_enumerate_rejects_bad_queries():
    ctx = make_cone_context(U, primal([1, 1]))
    with pytest.raises(InvalidQueryError):
        enumerate_negative_classes(ctx, 2, 3)
    with pytest.raises(InvalidQueryError):
        enumerate_negative_classes(ctx, -2, 0)


def test_enumerate_primitive_only():
    ctx = make_cone_context(U, primal([2, 1]))
    full = {ints(v) for v in enumerate_negative_classes(ctx, -8, 2)}
    prim = {ints(v) for v in enumerate_negative_classes(ctx, -8, 2, primitive_only=True)}
    assert full == {(-2, 2), (4, -1)}
    assert prim == {(4, -1)}


def test_enumerate_checks_every_class_against_the_square(monkeypatch):
    # a walk that returned off-shell points would be caught, not passed
    # on, and the error names the first of them in the walk's order
    # (which is not the sorted order): (-1, 1) has square -2, (2, 1) and
    # (1, 1) have squares 4 and 2
    monkeypatch.setattr(cones, "_shell_points", lambda *args: [(-1, 1), (2, 1), (1, 1)])
    ctx = make_cone_context(U, primal([2, 1]))
    with pytest.raises(ArithmeticError, match=r"^shell point \(2, 1\) does not have square -2$"):
        enumerate_negative_classes(ctx, -2, 1)


@pytest.mark.parametrize("role", ("prime", "wall"))
def test_make_cone_context_names_the_first_nonnegative_square(role):
    # squares -2, -2, -6, 2, -18, 0: classes 3 and 5 fail, 3 is named
    classes = [primal(v) for v in ([0, 1], [0, -1], [1, 2], [1, 0], [0, 3], [1, 1])]
    kwargs = {f"{role}s": classes}
    with pytest.raises(InvalidContextError, match=f"^{role} 3 must have negative square$"):
        make_cone_context(DIAG_2_M2, primal([1, 0]), **kwargs)


def _enumeration_queries():
    rng = random.Random(99)
    for _ in range(10):
        ctx = random_zariski_context(rng)
        yield ctx, rng.choice((-2, -4)), rng.randint(1, 3)
    # twice a class of square -2 has square -8, so primitive_only has
    # classes to drop here
    for gram, h in ((direct_sum(U_GRAM, [[-2]], [[-2]]), [1, 2, 0, 0]),
                    (direct_sum([[2]], [[-2]], [[-2]], [[-2]]), [1, 0, 0, 0])):
        yield make_cone_context(make_lattice(gram), primal(h)), -8, 3


def test_enumerate_matches_box_oracle_on_seeded_contexts():
    for ctx, square, pairing_max in _enumeration_queries():
        got = [ints(v) for v in enumerate_negative_classes(ctx, square, pairing_max)]
        prim = [ints(v) for v in enumerate_negative_classes(ctx, square, pairing_max, primitive_only=True)]
        for v in got:
            pv = primal(v)
            assert q_eval(ctx.lattice, pv, pv) == square
            pair = q_eval(ctx.lattice, pv, ctx.h)
            assert 0 < pair <= pairing_max
        # two beyond the largest coordinate found, so a class just
        # outside the answer is inside the box
        box = max([4] + [max(abs(c) for c in v) + 2 for v in got])
        want = box_negative_classes(ctx, square, pairing_max, box)
        assert got == want
        assert prim == [v for v in want if math.gcd(*v) == 1]


def test_chamber_signature_examples():
    ctx = make_cone_context(U, primal([1, 1]), walls=[primal([1, -1])])
    assert chamber_signature(ctx, primal([2, 1])) == (-1,)
    assert chamber_signature(ctx, primal([1, 2])) == (1,)
    with pytest.raises(OnWallError) as exc:
        chamber_signature(ctx, primal([1, 1]))
    assert exc.value.wall_index == 0
    with pytest.raises(OutsidePositiveConeError):
        chamber_signature(ctx, primal([1, -1]))
    no_walls = make_cone_context(U, primal([1, 1]))
    assert chamber_signature(no_walls, primal([2, 1])) == ()


def test_is_wall_divisor_examples():
    ctx = make_cone_context(U, primal([1, 1]), walls=[primal([1, -1])])
    v = is_wall_divisor(ctx, primal([1, -1]))
    assert v.is_wall and v.witness.factor == 1 and v.witness.wall_index == 0
    v2 = is_wall_divisor(ctx, primal([1, 1]))
    assert not v2.is_wall and v2.failed_condition == "negativity"
    v3 = is_wall_divisor(ctx, primal([2, -2]))
    assert v3.is_wall and v3.witness.factor == 2
    v4 = is_wall_divisor(ctx, primal([2, -1]))
    assert not v4.is_wall and v4.failed_condition == "no-wall-match"
    with pytest.raises(ZeroVectorError):
        is_wall_divisor(ctx, primal([0, 0]))


def test_is_wall_divisor_via_orbit():
    # (1,0) is not itself proportional to the wall, but its orbit under
    # the swap reaches (0,1)... which is still not proportional; use a
    # context where the generator maps the divisor onto the wall ray
    swap = [[0, 1], [1, 0]]
    ctx = make_cone_context(
        U, primal([1, 1]), walls=[primal([2, -2])], monodromy_gens=[swap])
    v = is_wall_divisor(ctx, primal([-1, 1]))
    assert v.is_wall
    assert v.witness.orbit_element.coords == (1, -1)
    assert v.witness.factor == Fraction(1, 2)


def test_is_wall_divisor_invariance():
    swap = [[0, 1], [1, 0]]
    ctx = make_cone_context(
        U, primal([1, 1]), walls=[primal([1, -1])], monodromy_gens=[swap])
    for d in ([1, -1], [3, -2], [5, -1]):
        base = is_wall_divisor(ctx, primal(d))
        neg = is_wall_divisor(ctx, primal([-c for c in d]))
        image = is_wall_divisor(ctx, primal([d[1], d[0]]))
        assert base.is_wall == neg.is_wall == image.is_wall
        assert base.failed_condition == neg.failed_condition == image.failed_condition


def test_is_wall_divisor_rejects_a_zero_budget():
    ctx = make_cone_context(U, primal([1, 1]), walls=[primal([1, -1])])
    with pytest.raises(InvalidQueryError, match="orbit budget must be positive"):
        is_wall_divisor(ctx, primal([1, -1]), budget=0)


def test_is_wall_divisor_budget_caveat():
    ctx = make_cone_context(
        make_lattice(U_M2_GRAM), primal([1, 1, 0]), walls=[primal([0, 0, 1])],
        monodromy_gens=[PARABOLIC])
    v = is_wall_divisor(ctx, primal([1, -1, 0]), budget=4)
    assert not v.is_wall
    assert not v.orbit_closed
    assert v.failed_condition == "no-wall-match"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reflect_preserves_form_and_is_involution(data):
    rank = data.draw(st.integers(1, 4), label="rank")
    seed = data.draw(st.integers(0, 10**9), label="seed")
    rng = random.Random(seed)
    lat = make_lattice(random_nondegenerate_gram(rng, rank, need_negative=True))
    e = find_negative_vector(rng, lat)
    if e is None:
        return
    coords = st.sampled_from(small_fractions(4, 5))
    x = primal(data.draw(st.lists(coords, min_size=rank, max_size=rank), label="x"))
    y = primal(data.draw(st.lists(coords, min_size=rank, max_size=rank), label="y"))
    rx, ry = reflect(lat, e, x), reflect(lat, e, y)
    assert q_eval(lat, rx, ry) == q_eval(lat, x, y)
    assert reflect(lat, e, rx) == x
    # the E-orthogonal projection of x is fixed
    proj = x - e.scaled(q_eval(lat, x, e) / q_eval(lat, e, e))
    assert q_eval(lat, proj, e) == 0
    assert reflect(lat, e, proj) == proj


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_integral_reflection_iff_basis_images_integral(seed):
    # the equivalence is a statement about primitive mirrors: reflection
    # in 3E is the same map as reflection in E, so an imprimitive mirror
    # can have integral images while failing the divisibility test
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    lat = make_lattice(random_nondegenerate_gram(rng, rank, need_negative=True))
    e = find_negative_vector(rng, lat)
    if e is None:
        return
    g = gcd_of(e)
    e = primal([c // g for c in e.coords])
    basis = [primal([1 if i == j else 0 for j in range(rank)]) for i in range(rank)]
    images_integral = all(reflect(lat, e, b).is_integral() for b in basis)
    assert is_integral_reflection(lat, e) == images_integral


def gcd_of(v):
    from math import gcd
    return gcd(*(abs(int(c)) for c in v.coords))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_integral_reflection_true_implies_integral_images(seed):
    # forward direction holds for any mirror, primitive or not
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    lat = make_lattice(random_nondegenerate_gram(rng, rank, need_negative=True))
    e = find_negative_vector(rng, lat)
    if e is None or not is_integral_reflection(lat, e):
        return
    basis = [primal([1 if i == j else 0 for j in range(rank)]) for i in range(rank)]
    assert all(reflect(lat, e, b).is_integral() for b in basis)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_fe_chamber_inside_positive_cone(seed):
    rng = random.Random(seed)
    ctx = random_zariski_context(rng)
    x = primal([rng.randint(-4, 4) for _ in range(ctx.lattice.rank)])
    if in_fe_chamber(ctx, x):
        assert in_positive_cone(ctx, x)


def _square(gram, v):
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


# U + <-2>^k for k = 1, 2, with every root of square -2 in a small box;
# reflections in roots preserve the positive cone, and a few of them
# already generate an infinite group
WALL_GRAMS = [direct_sum(U_GRAM, *[[[-2]]] * k) for k in (1, 2)]
WALL_ROOTS = {
    len(gram): [r for r in product(range(-3, 4), repeat=len(gram)) if _square(gram, r) == -2]
    for gram in WALL_GRAMS
}


@st.composite
def wall_queries(draw):
    """(context, divisor, budget). The walls mix random classes with
    images of the divisor (itself a multiple of 1, 2 or 3) under the
    monodromy, scaled by 1 or 3 or negated, and duplicates, triples and
    negatives of earlier walls. Images come from a larger budget than
    the query's, so some matches lie beyond a truncated orbit."""
    gram = draw(st.sampled_from(WALL_GRAMS), label="gram")
    n = len(gram)
    roots = draw(st.lists(st.sampled_from(WALL_ROOTS[n]), max_size=3, unique=True), label="roots")
    gens = [reflection_in_root(gram, r) for r in roots]
    coord = st.integers(-3, 3)
    scale = draw(st.sampled_from((1, 2, 3)), label="scale")
    d = [scale * c for c in draw(st.lists(coord, min_size=n, max_size=n).filter(any))]
    budget = draw(st.integers(1, 40), label="budget")
    images = sorted(bounded_orbit(gens, d, 2 * budget)[0])
    walls: list[list[int]] = []
    for _ in range(draw(st.integers(0, 8), label="walls")):
        kind = draw(st.sampled_from(("random", "image", "image", "duplicate", "triple",
                                     "negated")))
        if kind == "random":
            w = draw(st.lists(coord, min_size=n, max_size=n))
        elif kind == "image":
            w = [draw(st.sampled_from((1, 3, -1))) * c for c in draw(st.sampled_from(images))]
        elif walls:
            k = {"duplicate": 1, "triple": 3, "negated": -1}[kind]
            w = [k * c for c in draw(st.sampled_from(walls))]
        else:
            continue
        if _square(gram, w) < 0:
            walls.append(w)
    ctx = make_cone_context(make_lattice(gram), primal([1, 1] + [0] * (n - 2)),
                            walls=[primal(w) for w in walls], monodromy_gens=gens)
    return ctx, primal(d), budget


@given(wall_queries())
@settings(max_examples=300, deadline=None)
def test_is_wall_divisor_matches_naive_scan(query):
    ctx, d, budget = query
    v = is_wall_divisor(ctx, d, budget)
    witness = v.witness and (ints(v.witness.orbit_element), v.witness.wall_index, v.witness.factor)
    assert (v.is_wall, witness, v.failed_condition, v.orbit_closed) == \
        wall_witness_oracle(ctx, d, budget)


# centre coordinates: p/q in [-3, 3] with q <= 4, or with q <= 2
CENTRE_VALUES = small_fractions(3, 4)
HALF_CENTRE_VALUES = small_fractions(3, 2)


@st.composite
def ellipsoids(draw):
    """(P, centre, bound) with P = B^T B + D positive definite of rank
    1-5 and a rational centre, in Z^k/2 for half the draws (where the
    walk mirrors half the shell about the centre); the bound is 0 or the
    value of the form at an integer point near the centre, so the
    boundary is attained."""
    k = draw(st.integers(1, 5), label="rank")
    b = [[draw(st.integers(-1, 1)) for _ in range(k)] for _ in range(k)]
    p = [[sum(b[r][i] * b[r][j] for r in range(k)) for j in range(k)] for i in range(k)]
    for i in range(k):
        p[i][i] += draw(st.integers(1, 2))
    half = draw(st.booleans(), label="centre in Z^k/2")
    values = st.sampled_from(HALF_CENTRE_VALUES if half else CENTRE_VALUES)
    centre = [draw(values) for _ in range(k)]
    if draw(st.integers(0, 3), label="zero bound") == 0:
        return p, centre, Fraction(0)
    y = [round(c) + draw(st.integers(-1, 1)) - c for c in centre]
    return p, centre, sum(y[i] * p[i][j] * y[j] for i in range(k) for j in range(k))


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


@given(ellipsoids(), st.data())
@settings(max_examples=200, deadline=None)
def test_ellipsoid_walk_matches_box_search(case, data):
    """The walk returns exactly the shell, mapped through x0 + embed m,
    and nothing on the shell of the bound plus 1/(den^2 q) for q > 1:
    with den the centre's common denominator the form takes values in
    (1/den^2)Z, so no integer point reaches that bound."""
    p, centre, bound = case
    k = len(p)
    shell = ellipsoid_box_oracle(p, centre, bound)
    # only a zero bound around a non-integral centre has an empty shell
    assert bool(shell) == (bound != 0 or all(c.denominator == 1 for c in centre))
    assert sorted(_shell_points(p, centre, bound, [0] * k, _identity(k))) == shell
    den = math.lcm(*(c.denominator for c in centre))
    q = data.draw(st.sampled_from((2, 3, 2**61 - 1)), label="unreachable by")
    assert _shell_points(p, centre, bound + Fraction(1, den * den * q), [0] * k, _identity(k)) == []
    n = k + data.draw(st.integers(0, 2), label="extra rows")
    x0 = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n), label="x0")
    embed = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                               min_size=n, max_size=n), label="embed")
    mapped = sorted(tuple(x0[r] + sum(embed[r][i] * m[i] for i in range(k)) for r in range(n))
                    for m in shell)
    assert sorted(_shell_points(p, centre, bound, x0, embed)) == mapped


# centres of rank k; the walk mirrors about the first three (2c is
# integral), and has a middle slice m_top = c_top in the first two
SYMMETRY_CENTRES = {
    "integral": lambda k: [Fraction(1 - i) for i in range(k)],
    "half, top integral": lambda k: [Fraction(2 * i + 1, 2) for i in range(k - 1)] + [Fraction(1)],
    "half, top half": lambda k: [Fraction(i - 1) for i in range(k - 1)] + [Fraction(-1, 2)],
    "thirds": lambda k: [Fraction(i + 1, 3) for i in range(k)],
}


@pytest.mark.parametrize("kind, k", [(kind, k) for kind in SYMMETRY_CENTRES for k in range(1, 6)
                                     if (kind, k) != ("half, top integral", 1)])
def test_ellipsoid_walk_on_half_integral_and_third_centres(kind, k):
    """The walk against the box search on fixed centres, mapped through a
    non-identity x0 and embed, so a wrong mirror s - x shows. Of the two
    bounds, one is attained in the slice m_top = c_top when c_top is an
    integer, the other two steps above it."""
    centre = SYMMETRY_CENTRES[kind](k)
    rng = random.Random(k)
    b = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(k)]
    p = [[sum(b[r][i] * b[r][j] for r in range(k)) + (i == j) * (1 + i % 2) for j in range(k)]
         for i in range(k)]
    x0 = [3, -1, 4, -1, 5, -9][:k + 1]
    embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k + 1)]
    c_top = centre[-1]
    found = []
    for top_step in (0 if c_top.denominator == 1 else 1, 2):
        m = [math.floor(c) + 1 for c in centre[:-1]] + [math.floor(c_top) + top_step]
        y = [mi - c for mi, c in zip(m, centre)]
        bound = sum(y[i] * p[i][j] * y[j] for i in range(k) for j in range(k))
        shell = ellipsoid_box_oracle(p, centre, bound)
        mapped = sorted(tuple(x0[r] + sum(embed[r][i] * s[i] for i in range(k)) for r in range(k + 1))
                        for s in shell)
        assert sorted(_shell_points(p, centre, bound, x0, embed)) == mapped
        found += shell
    assert any(s[-1] > c_top for s in found)
    assert any(s[-1] == c_top for s in found) == (c_top.denominator == 1)


@st.composite
def small_symmetric_matrices(draw):
    k = draw(st.integers(1, 5), label="rank")
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    return m


@given(small_symmetric_matrices())
@settings(max_examples=100, deadline=None)
def test_ellipsoid_walk_rejects_what_is_not_positive_definite(m):
    k = len(m)
    if negative_definite_oracle(negate(m)):
        _shell_points(m, [0] * k, 1, [0] * k, _identity(k))
    else:
        with pytest.raises(ArithmeticError, match="not positive definite"):
            _shell_points(m, [0] * k, 1, [0] * k, _identity(k))


def _positive_multiple(e, w):
    # e = c w for some rational c > 0
    n = len(e)
    return sum(map(mul, e, w)) > 0 and all(
        e[i] * w[j] == e[j] * w[i] for i in range(n) for j in range(i + 1, n))


def test_is_wall_divisor_agrees_with_the_public_orbit():
    # on 50 seeded contexts whose walls hold several orbit images of the
    # divisor, the verdict's witness and orbit_closed are those of a
    # scan of monodromy_orbit's sorted output: the first element on a
    # wall's ray, and the lowest wall index on that ray
    rng = random.Random(14)
    matched = 0
    for _ in range(50):
        gram = rng.choice(WALL_GRAMS)
        n = len(gram)
        gens = [reflection_in_root(gram, r) for r in rng.sample(WALL_ROOTS[n], rng.randint(1, 3))]
        d = rng.choice(WALL_ROOTS[n])
        budget = rng.randint(1, 30)
        images = sorted(bounded_orbit(gens, d, 2 * budget)[0])
        walls = []
        for _ in range(4):
            k = rng.choice((1, 2, 3, -1))
            walls.append([k * c for c in rng.choice(images)])
        walls += rng.sample(WALL_ROOTS[n], 3)
        rng.shuffle(walls)
        ctx = make_cone_context(make_lattice(gram), primal([1, 1] + [0] * (n - 2)),
                                walls=[primal(w) for w in walls], monodromy_gens=gens)
        v = is_wall_divisor(ctx, primal(d), budget)
        orbit, closed = monodromy_orbit(ctx, primal(d), budget)
        match = next(((element, idx) for element in orbit for idx, w in enumerate(walls)
                      if _positive_multiple(ints(element), w)), None)
        assert v.orbit_closed == closed
        if match is None:
            assert (v.is_wall, v.witness, v.failed_condition) == (False, None, "no-wall-match")
        else:
            matched += 1
            assert v.is_wall
            assert (v.witness.orbit_element, v.witness.wall_index) == match
    assert matched >= 25


def _orbit_contexts():
    # seeded contexts with 1-4 generators: reflections in roots, a
    # product of two of them (an isometry that is not a reflection) and
    # a generator listed twice, each with a divisor of negative square
    rng = random.Random(15)
    for trial in range(24):
        gram = WALL_GRAMS[trial % 2]
        n = len(gram)
        gens = [reflection_in_root(gram, r) for r in rng.sample(WALL_ROOTS[n], rng.randint(1, 3))]
        if trial % 3 == 0 and len(gens) >= 2:
            gens[1] = [[sum(gens[0][i][t] * gens[1][t][j] for t in range(n)) for j in range(n)]
                       for i in range(n)]
        if trial % 4 == 1:
            gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
        d = rng.choice(WALL_ROOTS[n])
        ctx = make_cone_context(make_lattice(gram), primal([1, 1] + [0] * (n - 2)),
                                monodromy_gens=gens)
        yield ctx, gens, d
    # a finite group: the coordinate swap and a sign change on U + <-2>
    gram = WALL_GRAMS[0]
    gens = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]
    yield make_cone_context(make_lattice(gram), primal([1, 1, 0]), monodromy_gens=gens), gens, (2, -1, 1)


def test_monodromy_orbit_keeps_the_fifo_order_under_every_budget():
    # the level-by-level search must retain exactly what a FIFO queue
    # retains, at every budget from 1 to one past the orbit's size (or
    # to 40 for an orbit larger than that)
    kinds = set()
    for ctx, gens, d in _orbit_contexts():
        full, full_closed = bounded_orbit(gens, d, 40)
        top = len(full) + 1 if full_closed else 40
        kinds.add((len(gens), full_closed))
        for budget in range(1, top + 1):
            orbit, closed = monodromy_orbit(ctx, primal(d), budget)
            assert ([ints(v) for v in orbit], closed) == \
                (sorted(bounded_orbit(gens, d, budget)[0]), bounded_orbit(gens, d, budget)[1])
    assert {k for k, _ in kinds} == {1, 2, 3, 4}
    assert {closed for _, closed in kinds} == {True, False}


@pytest.mark.parametrize("role", ("prime", "wall"))
def test_make_cone_context_builds_the_same_context_off_the_fast_path(role):
    # raw lists, Fraction coordinates equal to integers and bools all
    # pass _as_integral_list, which reads each through _vector(...).ints()
    # and stores every coordinate as an int
    lat = make_lattice(direct_sum([[2]], [[-2]], [[-2]], [[-2]]))
    classes = [primal([0, 1, 0, 0]), [0, -1, 0, 0],
               FramedVector(Frame.PRIMAL, (Fraction(0), Fraction(0), Fraction(2, 1), Fraction(0))),
               FramedVector(Frame.PRIMAL, (False, False, False, True))]
    ctx = make_cone_context(lat, primal([1, 0, 0, 0]), **{f"{role}s": classes})
    vecs = getattr(ctx, f"{role}s")
    assert vecs == tuple(v if isinstance(v, FramedVector) else primal(v) for v in classes)
    assert [type(c) for v in vecs for c in v.coords] == [int] * 16


def test_fraction_and_bool_coordinates_give_the_verdicts_of_ints():
    # h, primes and walls given with Fraction(n, 1) or bool coordinates
    # build a context that answers every query as the all-int one does
    lat = make_lattice(direct_sum([[2]], [[-2]], [[-2]]))
    as_ints = make_cone_context(lat, primal([1, 0, 0]), [primal([0, 1, 0])],
                                [primal([0, 0, 1]), primal([0, 1, 1])],
                                [reflection_in_root(lat.gram, [0, 1, 0])])
    odd = make_cone_context(lat, FramedVector(Frame.PRIMAL, (Fraction(1), Fraction(0), Fraction(0))),
                            [FramedVector(Frame.PRIMAL, (False, True, False))],
                            [FramedVector(Frame.PRIMAL, (Fraction(0), Fraction(0), Fraction(1))),
                             FramedVector(Frame.PRIMAL, (False, True, True))],
                            as_ints.monodromy_gens)
    assert odd == as_ints
    assert {type(c) for v in (odd.h, *odd.primes, *odd.walls) for c in v.coords} == {int}
    for d in product(range(-2, 3), repeat=3):
        if any(d):
            assert is_wall_divisor(odd, primal(d)) == is_wall_divisor(as_ints, primal(d))
    assert enumerate_negative_classes(odd, -2, 4) == enumerate_negative_classes(as_ints, -2, 4)


BAD_VECTORS = {
    "length": (primal([1, 0, 0]), ShapeError, "{role} {i} has length 3, expected 2"),
    "frame": (dual([1, 0]), FrameError, "expected a primal vector, got dual"),
    "non-integral": (primal(["1/2", 1]), NonIntegralError, r"vector \(Fraction\(1, 2\), 1\)"),
}


@pytest.mark.parametrize("second", sorted(BAD_VECTORS))
@pytest.mark.parametrize("first", sorted(BAD_VECTORS))
@pytest.mark.parametrize("role", ("prime", "wall"))
def test_make_cone_context_names_the_first_bad_vector(role, first, second):
    # good classes at 0 and 2, bad ones at 1 and 3: the error is the one
    # of class 1, whatever the defect of class 3
    vec, error, message = BAD_VECTORS[first]
    classes = [primal([0, 1]), vec, primal([0, 2]), BAD_VECTORS[second][0]]
    with pytest.raises(error, match=message.format(role=role, i=1)):
        make_cone_context(DIAG_2_M2, primal([1, 0]), **{f"{role}s": classes})


@pytest.mark.parametrize("gram", ([[1]], [[2]], [[6]]))
def test_rank_one_context_enumerates_no_classes(gram):
    # signature (1, 0) is positive definite, so no class has a negative
    # square; the query checks still come first
    ctx = make_cone_context(make_lattice(gram), primal([1]))
    for square in (-1, -2, -6, -24):
        for pairing_max in (1, 2, 6, 12, 30):
            assert enumerate_negative_classes(ctx, square, pairing_max) == ()
            assert enumerate_negative_classes(ctx, square, pairing_max, primitive_only=True) == ()
    with pytest.raises(InvalidQueryError, match="square must be negative"):
        enumerate_negative_classes(ctx, 0, 5)
    with pytest.raises(InvalidQueryError, match="pairing_max must be positive"):
        enumerate_negative_classes(ctx, -2, 0)


def _gram_with_roots(rng, n):
    # <d_1> + ... + <d_k> + (a random block), d_i in {±1, ±2}, written in a
    # sheared basis; the images of the first k basis vectors are roots
    k = rng.randint(1, n)
    blocks = [[[rng.choice((-2, -1, 1, 2))]] for _ in range(k)]
    if n > k:
        blocks.append(random_nondegenerate_gram(rng, n - k))
    t = random_unimodular(rng, n, 3)
    t_inv = invert_unimodular(t)
    roots = [apply_matrix(t_inv, [int(i == j) for j in range(n)]) for i in range(k)]
    return conjugate(direct_sum(*blocks), t), roots


def test_isometry_check_agrees_with_the_form_oracle():
    # products of root reflections are accepted; a one-entry perturbation
    # is rejected exactly when g^T G g differs from G
    rng = random.Random(16)
    rejected = 0
    for trial in range(240):
        n = 2 + trial % 4
        gram, roots = _gram_with_roots(rng, n)
        lat = make_lattice(gram)
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        for r in rng.choices(roots, k=rng.randint(1, 4)):
            g = mat_mul(g, reflection_in_root(gram, r))
        assert preserves_form_oracle(gram, g)
        assert cones._as_isometry(g, lat, 0) == tuple(map(tuple, g))
        bad = [list(row) for row in g]
        bad[rng.randrange(n)][rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        index = rng.randrange(6)
        if preserves_form_oracle(gram, bad):
            assert cones._as_isometry(bad, lat, index) == tuple(map(tuple, bad))
        else:
            rejected += 1
            with pytest.raises(InvalidContextError, match=f"^generator {index} is not an isometry of the form$"):
                cones._as_isometry(bad, lat, index)
    assert rejected > 200
