"""Cone membership, reflections, orbits, and the wall-divisor test.

The ambient lattice here is hyperbolic, signature (1, rank - 1). The
positive cone is the half of {q(x, x) > 0} containing the ample
reference class h, and the fundamental exceptional chamber is cut out
inside it by strict positivity against the prime exceptional classes.
Both cones are open: boundary points are not members.

Monodromy enters as an explicit list of isometry generators plus a
breadth-first budget. Nothing here tries to decide whether the group
generated is finite; a truncated orbit is reported as such and the
wall-divisor verdict carries the truncation as a caveat.

The searches run on integers. The orbit search is breadth first, one
level at a time: each generator maps the whole level in one batched
product (``linalg.mat_vecs``), and the images are visited in the order
a FIFO queue would visit them, so a truncated orbit holds the same
vectors. The wall-divisor test looks orbit elements up in an index of
the walls' primitive rays. Negative classes come from an integer
Fincke-Pohst walk that visits only the shell Q = bound of an
ellipsoid and solves its last level inside the loop over the level
above. It keeps each class as its small coordinates in the ellipsoid's
basis, and one batched product maps them all back to the lattice after
the walk. When the ellipsoid's centre is integral or half-integral the
shell is symmetric about it, and the walk visits one half and adds
each class's mirror. Every class returned, mirrors included, is checked
once against the exact square.

Kernel code pairs coordinates that ``_vector`` checked once, at the
public boundary, through ``linalg``: one product per list of classes
(see ``linalg``). ``q_eval`` is the entry point for outside callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, isqrt, lcm
from operator import mul, sub
from typing import Iterable, Sequence

from . import DEFAULT_ORBIT_BUDGET, linalg
from .errors import (
    InvalidContextError,
    InvalidQueryError,
    IsotropicClassError,
    NonNegativeSquareError,
    OnWallError,
    OutsidePositiveConeError,
    ShapeError,
    ZeroVectorError,
)
from .lattice import (
    Frame,
    FramedVector,
    Lattice,
    _int_rows,
    _rational,
    _vector,
    primal,
    smith_normal_form,
)

FAILED_NEGATIVITY = "negativity"
FAILED_NO_WALL_MATCH = "no-wall-match"

IsometryMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConeContext:
    """Hyperbolic lattice with an ample reference and marked class lists.

    Construct through ``make_cone_context``; building the dataclass
    directly skips every invariant check.
    """

    lattice: Lattice
    h: FramedVector
    primes: tuple[FramedVector, ...]
    walls: tuple[FramedVector, ...]
    monodromy_gens: tuple[IsometryMatrix, ...]


@dataclass(frozen=True)
class WallWitness:
    orbit_element: FramedVector
    wall_index: int
    factor: int | Fraction


@dataclass(frozen=True)
class WallVerdict:
    """Outcome of the wall-divisor test.

    ``failed_condition`` is one of the module constants
    FAILED_NEGATIVITY and FAILED_NO_WALL_MATCH when ``is_wall`` is
    false. ``orbit_closed`` is the caveat flag: a false value means the
    orbit search stopped at its budget, so a negative verdict is only
    as strong as the portion of the orbit that was seen.
    """

    is_wall: bool
    witness: WallWitness | None
    failed_condition: str | None
    orbit_closed: bool

    def __post_init__(self):
        if self.is_wall and self.witness is None:
            raise ValueError("positive verdict requires a witness")


def _as_integral_list(objs: Sequence, lattice: Lattice, what: str) -> tuple[FramedVector, ...]:
    # every item through _vector, named "<what> <index>", and ints(): the
    # coordinates are stored as ints. One predicate checks the whole list
    # first (primal FramedVectors of the lattice's rank with int
    # coordinates, which the loop would rebuild unchanged); only when it
    # fails does the per-item loop run, raising the first bad item's error.
    # Frame.PRIMAL is read once: on CPython 3.11 reading an enum member off
    # its class costs about 0.3 us, most of this check's time per item
    vecs = tuple(objs)
    n, primal = lattice.rank, Frame.PRIMAL
    if (all(type(v) is FramedVector and v.frame is primal and len(v.coords) == n for v in vecs)
            and set(map(type, chain.from_iterable(v.coords for v in vecs))) <= {int}):
        return vecs
    return tuple(FramedVector(Frame.PRIMAL, _vector(v, n, f"{what} {i}").ints()) for i, v in enumerate(vecs))


def _as_isometry(obj, lattice: Lattice, index: int) -> IsometryMatrix:
    n = lattice.rank
    rows = _int_rows(obj, n, f"generator {index}")
    if len(rows) != n:
        raise ShapeError(f"generator {index} is not a {n}x{n} matrix")
    # g^T G g is symmetric, so its columns (c_i^T G c_j over i) are its rows
    cols = linalg.transpose(rows)
    if linalg.mat_vecs(cols, linalg.mat_vecs(lattice.gram, cols)) != list(lattice.gram):
        raise InvalidContextError(f"generator {index} is not an isometry of the form")
    return tuple(rows)


def make_cone_context(
    lattice: Lattice,
    h,
    primes: Sequence = (),
    walls: Sequence = (),
    monodromy_gens: Sequence = (),
) -> ConeContext:
    """Validated context.

    Checks, in order: hyperbolic signature, q(h, h) > 0, every prime
    has negative square, distinct primes pair nonnegatively, every wall
    has negative square, every generator preserves the form and the
    component of the positive cone containing h.
    """
    if lattice.signature != (1, lattice.rank - 1):
        raise InvalidContextError(
            f"signature {lattice.signature} is not (1, {lattice.rank - 1})")
    gram = lattice.gram
    h_vec = FramedVector(Frame.PRIMAL, _vector(h, lattice.rank, "h").ints())
    hc = h_vec.coords
    if linalg.pairing(gram, hc, hc) <= 0:
        raise InvalidContextError("reference class h must have positive square")
    prime_vecs = _as_integral_list(primes, lattice, "prime")
    ps = [p.coords for p in prime_vecs]
    inter = linalg.mat_vecs(ps, linalg.mat_vecs(gram, ps))
    for i, row in enumerate(inter):
        if row[i] >= 0:
            raise InvalidContextError(f"prime {i} must have negative square")
    for i, j in combinations(range(len(ps)), 2):
        if inter[i][j] < 0:
            raise InvalidContextError(f"primes {i} and {j} pair negatively")
    wall_vecs = _as_integral_list(walls, lattice, "wall")
    for i, sq in enumerate(linalg.squares(gram, [w.coords for w in wall_vecs])):
        if sq >= 0:
            raise InvalidContextError(f"wall {i} must have negative square")
    gens = tuple(_as_isometry(g, lattice, i) for i, g in enumerate(monodromy_gens))
    for i, g in enumerate(gens):
        if linalg.pairing(gram, linalg.mat_vec(g, hc), hc) <= 0:
            raise InvalidContextError(f"generator {i} swaps the positive-cone components")
    return ConeContext(lattice, h_vec, prime_vecs, wall_vecs, gens)


def in_positive_cone(ctx: ConeContext, x: FramedVector) -> bool:
    """Strict: q(x, x) > 0 and q(x, h) > 0."""
    x = _vector(x, ctx.lattice.rank, "x").coords
    return all(v > 0 for v in linalg.mat_vec([x, ctx.h.coords], linalg.mat_vec(ctx.lattice.gram, x)))


def in_fe_chamber(ctx: ConeContext, x: FramedVector) -> bool:
    """Positive cone membership plus strict positivity against every prime."""
    x = _vector(x, ctx.lattice.rank, "x").coords
    classes = [x, ctx.h.coords, *(p.coords for p in ctx.primes)]
    return all(v > 0 for v in linalg.mat_vec(classes, linalg.mat_vec(ctx.lattice.gram, x)))


def reflect(lattice: Lattice, mirror: FramedVector, x: FramedVector) -> FramedVector:
    """x - (2 q(x, E) / q(E, E)) E for a non-isotropic mirror E."""
    mirror = _vector(mirror, lattice.rank, "mirror")
    s = linalg.pairing(lattice.gram, mirror.coords, mirror.coords)
    if s == 0:
        raise IsotropicClassError("mirror has self-pairing zero")
    x = _vector(x, lattice.rank, "x")
    factor = Fraction(2 * linalg.pairing(lattice.gram, x.coords, mirror.coords), s)
    return primal([xc - factor * mc for xc, mc in zip(x.coords, mirror.coords)])


def is_integral_reflection(lattice: Lattice, mirror: FramedVector) -> bool:
    """Whether reflection in the mirror preserves the lattice.

    Equivalent to q(E, E) dividing 2 q(b, E) for every basis vector b.
    """
    e = _vector(mirror, lattice.rank, "mirror").ints()
    s = linalg.pairing(lattice.gram, e, e)
    if s >= 0:
        raise NonNegativeSquareError("mirror must have negative square")
    return all((2 * v) % s == 0 for v in linalg.mat_vec(lattice.gram, e))


def monodromy_orbit(ctx: ConeContext, start, budget: int = DEFAULT_ORBIT_BUDGET) -> tuple[tuple[FramedVector, ...], bool]:
    """Breadth-first closure of {start, -start} under the generators.

    The budget caps the number of distinct vectors retained; hitting it
    returns the partial orbit with closed=False. Output is canonically
    sorted by coordinates.
    """
    seed = _vector(start, ctx.lattice.rank, "start").ints()
    orbit, closed = _orbit(ctx, seed, budget)
    return tuple(FramedVector(Frame.PRIMAL, v) for v in orbit), closed


def _orbit(ctx: ConeContext, seed: tuple[int, ...], budget: int) -> tuple[list[tuple[int, ...]], bool]:
    # the orbit of monodromy_orbit as sorted int tuples, unboxed. One
    # breadth-first level at a time: the images of the whole level under
    # each generator come from one mat_vecs call, and are visited per
    # element, then per generator in list order, which is the order a
    # FIFO queue visits them, so a truncated orbit keeps the same vectors
    if budget < 1:
        raise InvalidQueryError("orbit budget must be positive")
    seen: set[tuple[int, ...]] = set()
    candidates: Iterable[tuple[int, ...]] = (seed, tuple(-c for c in seed))
    while True:
        level = []
        for v in candidates:
            if v not in seen:
                if len(seen) >= budget:
                    return sorted(seen), False
                seen.add(v)
                level.append(v)
        if not level:
            return sorted(seen), True
        images = [linalg.mat_vecs(g, level) for g in ctx.monodromy_gens]
        candidates = chain.from_iterable(zip(*images))


def _shell_points(rows: Sequence[Sequence[int]], centre: Sequence[Fraction], bound: int | Fraction,
                  x0: Sequence[int], embed: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """x = x0 + embed m for every integer m with (m - c)^T P (m - c) = bound
    exactly, for a positive definite integer matrix P (Fincke-Pohst on
    the shell of the ellipsoid), given by its k pivot rows from
    ``linalg.definite_solve``: pivots p_j, p_{-1} = 1, and row entries
    r_ji, the columns past the k-th unread. The form at y = m - c is
    sum_j (p_j y_j + sum_{i>j} r_ji y_i)^2 / (p_{j-1} p_j). Scaling y by
    the centre's common denominator D and the equation by
    lcm_j(p_{j-1} p_j) makes every term an integer w_j u_j^2, so an
    unreachable bound (not an integer after scaling) has an empty shell.
    The walk, last coordinate first, bounds each level by isqrt and
    floor division. Each level's offset is set once per parent and moved
    by one term per candidate. The last level, w_0 u_0^2 = remaining, is
    solved inside the loop over the level above it by one divisibility
    test and one isqrt. A hit is kept as its small coordinates (m, 1),
    whose tail past m_1 is built once per node of level 1, and after the
    walk one batched product with [embed | x0] maps every hit to x.

    The shell is symmetric about the centre, m -> 2c - m, and that map
    is integral exactly when 2c is (D is 1 or 2). Then the top level
    walks only m_top >= c_top: the slice m_top = c_top is walked once,
    and every class with m_top > c_top also yields its mirror
    (2c, 2) - (m, 1).
    """
    k = len(rows)
    piv = [row[j] for j, row in enumerate(rows)]
    prods = [a * b for a, b in zip([1] + piv, piv)]
    delta = lcm(*prods)
    weight = [delta // x for x in prods]
    den = lcm(*(c.denominator for c in centre))
    a = [int(c * den) for c in centre]
    # u_j = g_j m_j - e_j with g_j = D p_j and the offset
    # e_j = shift_j - D sum_{i>j} r_ji m_i
    shift = [sum(map(mul, row[j:], a[j:])) for j, row in enumerate(rows)]
    top, rest = divmod(bound.numerator * den * den * delta, bound.denominator)
    points: list[tuple[int, ...]] = []
    if rest or top < 0:
        return points
    augmented = [[*row, x0_r] for row, x0_r in zip(embed, x0)]
    g0, w0 = piv[0] * den, weight[0]
    if k == 1:
        q, r = divmod(top, w0)
        s = isqrt(q)
        if not r and s * s == q:
            for u in (s, -s) if s else (0,):
                m0, r = divmod(shift[0] + u, g0)
                if not r:
                    points.append((m0, 1))
        return linalg.mat_vecs(augmented, points)
    last = k - 1
    symmetric = 2 % den == 0
    twice = [2 * c // den for c in a] + [2]  # (2c, 2), read only when symmetric
    m = [0] * k

    def rec(j: int, remaining: int, e: int, mirror: bool) -> None:
        g = piv[j] * den
        s = isqrt(remaining // weight[j])
        lo, hi = -((s - e) // g), (e + s) // g
        # classes found under a candidate above split also yield mirrors
        split = lo - 1 if mirror else hi
        if j == last and symmetric:
            lo, split = -(-a[j] // den), a[j] // den
        if lo > hi:
            return
        child = rows[j - 1]
        ce = shift[j - 1] - den * sum(map(mul, child[j + 1:], m[j + 1:]))
        step = den * child[j]
        ce -= step * lo
        u = g * lo - e
        if j == 1:
            tail = (*m[2:], 1)
            wj = weight[1]
            for cand in range(lo, hi + 1):
                q, r = divmod(remaining - wj * u * u, w0)
                if not r:
                    s = isqrt(q)
                    if s * s == q:
                        for v in (s, -s) if s else (0,):
                            m0, r = divmod(ce + v, g0)
                            if not r:
                                pt = (m0, cand, *tail)
                                points.append(pt)
                                if cand > split:
                                    points.append(tuple(map(sub, twice, pt)))
                u += g
                ce -= step
            return
        for cand in range(lo, hi + 1):
            m[j] = cand
            rec(j - 1, remaining - weight[j] * u * u, ce, cand > split)
            u += g
            ce -= step

    rec(last, top, shift[last], False)
    return linalg.mat_vecs(augmented, points)


def enumerate_negative_classes(
    ctx: ConeContext,
    square: int,
    pairing_max: int,
    primitive_only: bool = False,
) -> tuple[FramedVector, ...]:
    """All integral x with q(x, x) = square and 0 < q(x, h) <= pairing_max,
    sorted by coordinates; with primitive_only, the primitive ones.

    Complete by construction: for each admissible pairing value t the
    solutions form a shifted copy of the orthogonal complement of h,
    which is negative definite, and ``_shell_points`` (see there for the
    walk) returns exactly its points on the shell of an ellipsoid. Every
    class is checked against q(x, x) = square; a failure is a defect in
    the walk and raises ArithmeticError. A square that is not negative
    or a pairing_max below 1 is an InvalidQueryError.
    """
    return tuple(FramedVector(Frame.PRIMAL, x) for x in _classes(ctx, square, pairing_max, primitive_only))


def _classes(ctx: ConeContext, square: int, pairing_max: int,
             primitive_only: bool) -> list[tuple[int, ...]]:
    # the classes of enumerate_negative_classes as sorted int tuples, unboxed
    if square >= 0:
        raise InvalidQueryError("square must be negative")
    if pairing_max < 1:
        raise InvalidQueryError("pairing_max must be positive")
    if ctx.lattice.rank == 1:  # signature (1, 0) is positive definite: no negative squares
        return []
    g = ctx.lattice.gram
    gh = linalg.mat_vec(g, ctx.h.coords)
    snf = smith_normal_form([gh])
    col0, *basis = cols = linalg.transpose(snf.right)
    e = sum(map(mul, gh, col0))
    embed = linalg.transpose(basis)  # x = x0 + embed m
    found: list[tuple[int, ...]] = []
    q0, *qb = linalg.mat_vecs(cols, linalg.mat_vecs(g, cols))  # q over col0, basis
    p_mat = [[-x for x in row[1:]] for row in qb]
    # the slice at t is the one at e scaled by s = t // e, with target s^2 r1 - square
    solved = linalg.definite_solve(p_mat, q0[1:], 1)
    if solved is None:
        raise ArithmeticError("matrix is not positive definite")
    rows, c1 = solved
    r1 = linalg.pairing(p_mat, c1, c1) + q0[0]
    for t in range(abs(e), pairing_max + 1, abs(e)):
        s = t // e
        found += _shell_points(rows, [s * c for c in c1], s * s * r1 - square, [s * c for c in col0], embed)
    for x, sq in zip(found, linalg.squares(g, found)):
        if sq != square:
            raise ArithmeticError(f"shell point {x} does not have square {square}")
    if primitive_only:
        found = [x for x in found if gcd(*x) == 1]
    return sorted(found)


def chamber_signature(ctx: ConeContext, x: FramedVector) -> tuple[int, ...]:
    """Sign of q(x, w) for each wall, for x inside the positive cone.

    A zero pairing raises OnWallError carrying the wall index.
    """
    x = _vector(x, ctx.lattice.rank, "x")
    if not in_positive_cone(ctx, x):
        raise OutsidePositiveConeError("query is not in the positive cone")
    vals = linalg.mat_vec([w.coords for w in ctx.walls], linalg.mat_vec(ctx.lattice.gram, x.coords))
    if 0 in vals:
        raise OnWallError(f"query lies on wall {vals.index(0)}", vals.index(0))
    return tuple(1 if v > 0 else -1 for v in vals)


def _rays(vectors: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # the primitive vector on the ray of each nonzero integer vector, the
    # vector itself when it is primitive, with every gcd from one map over
    # the columns: the sign is kept, so v and -v lie on different rays
    gcds = map(gcd, *zip(*vectors)) if vectors else ()
    return [v if g == 1 else tuple(c // g for c in v) for v, g in zip(vectors, gcds)]


def is_wall_divisor(ctx: ConeContext, divisor, budget: int = DEFAULT_ORBIT_BUDGET) -> WallVerdict:
    """Negative square, and some orbit element a positive multiple of a wall.

    The orbit is that of ``monodromy_orbit`` under the same budget (see
    ``_orbit`` for the search). The witness is the first matching orbit
    element in sorted order, with the lowest index among the walls on
    its ray, and the factor is the positive rational f with element
    = f * wall. The divisor must be a nonzero integral primal class of
    the lattice's rank.

    A positive verdict always carries a witness (orbit element, wall
    index, rational factor) and is sound even on a truncated orbit. A
    negative verdict with orbit_closed=False is only conclusive for the
    portion of the orbit inside the budget.
    """
    d = _vector(divisor, ctx.lattice.rank, "divisor").ints()
    if not any(d):
        raise ZeroVectorError("the zero class is not a candidate wall divisor")
    if linalg.pairing(ctx.lattice.gram, d, d) >= 0:
        return WallVerdict(False, None, FAILED_NEGATIVITY, True)
    # isometries of a nondegenerate lattice lie in GL_n(Z), so the orbit
    # of the primitive part d' = d / k holds primitive vectors only, each
    # its own ray; k * orbit(d') is orbit(d), in the same sorted order and
    # truncated at the same vectors
    k = gcd(*d)
    orbit, closed = _orbit(ctx, tuple(c // k for c in d), budget)
    walls = [w.coords for w in ctx.walls]
    rays: dict[tuple[int, ...], int] = {}
    for idx, r in enumerate(_rays(walls)):
        rays.setdefault(r, idx)
    for e, idx in zip(orbit, map(rays.get, orbit)):
        if idx is not None:
            e = tuple(k * c for c in e)
            p = next(i for i, c in enumerate(walls[idx]) if c)
            factor = _rational(Fraction(e[p], walls[idx][p]))
            witness = WallWitness(FramedVector(Frame.PRIMAL, e), idx, factor)
            return WallVerdict(True, witness, None, closed)
    return WallVerdict(False, None, FAILED_NO_WALL_MATCH, closed)
