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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt
from typing import Sequence

from . import linalg
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
    _require_frame,
    _require_rank,
    primal,
    q_eval,
    smith_normal_form,
)

DEFAULT_ORBIT_BUDGET = 1000

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
    factor: Fraction


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


def _as_primal_integral(obj, lattice: Lattice, what: str) -> FramedVector:
    vec = obj if isinstance(obj, FramedVector) else primal(obj)
    _require_frame(vec, Frame.PRIMAL)
    if len(vec) != lattice.rank:
        raise ShapeError(f"{what} has length {len(vec)}, expected {lattice.rank}")
    vec.ints()
    return vec


def _as_isometry(obj, lattice: Lattice, index: int) -> IsometryMatrix:
    n = lattice.rank
    rows = []
    for row in obj:
        if len(row) != n:
            raise ShapeError(f"generator {index} is not a {n}x{n} matrix")
        rows.append(tuple(int(x) for x in row))
    if len(rows) != n:
        raise ShapeError(f"generator {index} is not a {n}x{n} matrix")
    g = [list(r) for r in rows]
    gram = [list(r) for r in lattice.gram]
    prod = linalg.mat_mul(linalg.mat_mul(linalg.transpose(g), gram), g)
    if [list(r) for r in prod] != gram:
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
    h_vec = _as_primal_integral(h, lattice, "h")
    if q_eval(lattice, h_vec, h_vec) <= 0:
        raise InvalidContextError("reference class h must have positive square")
    prime_vecs = tuple(_as_primal_integral(p, lattice, f"prime {i}") for i, p in enumerate(primes))
    for i, p in enumerate(prime_vecs):
        if q_eval(lattice, p, p) >= 0:
            raise InvalidContextError(f"prime {i} must have negative square")
    for i in range(len(prime_vecs)):
        for j in range(i + 1, len(prime_vecs)):
            if q_eval(lattice, prime_vecs[i], prime_vecs[j]) < 0:
                raise InvalidContextError(f"primes {i} and {j} pair negatively")
    wall_vecs = tuple(_as_primal_integral(w, lattice, f"wall {i}") for i, w in enumerate(walls))
    for i, w in enumerate(wall_vecs):
        if q_eval(lattice, w, w) >= 0:
            raise InvalidContextError(f"wall {i} must have negative square")
    gens = tuple(_as_isometry(g, lattice, i) for i, g in enumerate(monodromy_gens))
    for i, g in enumerate(gens):
        image = primal(linalg.mat_vec(g, h_vec.ints()))
        if q_eval(lattice, image, h_vec) <= 0:
            raise InvalidContextError(f"generator {i} swaps the positive-cone components")
    return ConeContext(lattice, h_vec, prime_vecs, wall_vecs, gens)


def in_positive_cone(ctx: ConeContext, x: FramedVector) -> bool:
    """Strict: q(x, x) > 0 and q(x, h) > 0."""
    _require_frame(x, Frame.PRIMAL)
    _require_rank(ctx.lattice, x)
    return q_eval(ctx.lattice, x, x) > 0 and q_eval(ctx.lattice, x, ctx.h) > 0


def in_fe_chamber(ctx: ConeContext, x: FramedVector) -> bool:
    """Positive cone membership plus strict positivity against every prime."""
    if not in_positive_cone(ctx, x):
        return False
    return all(q_eval(ctx.lattice, x, p) > 0 for p in ctx.primes)


def reflect(lattice: Lattice, mirror: FramedVector, x: FramedVector) -> FramedVector:
    """x - (2 q(x, E) / q(E, E)) E for a non-isotropic mirror E."""
    _require_frame(mirror, Frame.PRIMAL)
    _require_rank(lattice, mirror)
    s = q_eval(lattice, mirror, mirror)
    if s == 0:
        raise IsotropicClassError("mirror has self-pairing zero")
    factor = 2 * q_eval(lattice, x, mirror) / s
    return FramedVector(Frame.PRIMAL, tuple(xc - factor * mc for xc, mc in zip(x.coords, mirror.coords)))


def is_integral_reflection(lattice: Lattice, mirror: FramedVector) -> bool:
    """Whether reflection in the mirror preserves the lattice.

    Equivalent to q(E, E) dividing 2 q(b, E) for every basis vector b.
    """
    _require_frame(mirror, Frame.PRIMAL)
    _require_rank(lattice, mirror)
    e = mirror.ints()
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
    if budget < 1:
        raise InvalidQueryError("orbit budget must be positive")
    seed = _as_primal_integral(start, ctx.lattice, "orbit seed").ints()
    seen: set[tuple[int, ...]] = set()
    queue: deque[tuple[int, ...]] = deque()
    closed = True
    for cand in (seed, tuple(-c for c in seed)):
        if cand not in seen:
            if len(seen) >= budget:
                closed = False
                break
            seen.add(cand)
            queue.append(cand)
    while queue and closed:
        cur = queue.popleft()
        for g in ctx.monodromy_gens:
            img = tuple(linalg.mat_vec(g, cur))
            if img not in seen:
                if len(seen) >= budget:
                    closed = False
                    break
                seen.add(img)
                queue.append(img)
        if not closed:
            break
    return tuple(primal(v) for v in sorted(seen)), closed


def _floor_plus_sqrt(c: Fraction, q: Fraction) -> int:
    """floor(c + sqrt(q)) for rational c and q >= 0, exactly."""
    a, b = q.numerator, q.denominator
    s = isqrt(a * b)
    t = floor(c + Fraction(s, b))
    r = t + 1 - c
    if r <= 0 or r * r <= q:
        return t + 1
    return t


def _ellipsoid_points(
    lower: list[list[Fraction]],
    diag: list[Fraction],
    centre: Sequence[Fraction],
    bound: Fraction,
) -> list[tuple[int, ...]]:
    # integer points m with (m - centre)^T P (m - centre) <= bound,
    # where P = L diag L^T came from linalg.ldl
    k = len(diag)
    x = [0] * k
    out: list[tuple[int, ...]] = []

    def rec(j: int, remaining: Fraction) -> None:
        if j < 0:
            out.append(tuple(x))
            return
        shift = sum(lower[i][j] * (x[i] - centre[i]) for i in range(j + 1, k))
        mid = centre[j] - shift
        q = remaining / diag[j]
        hi = _floor_plus_sqrt(mid, q)
        lo = -_floor_plus_sqrt(-mid, q)
        for cand in range(lo, hi + 1):
            u = (cand - centre[j]) + shift
            rem2 = remaining - diag[j] * u * u
            if rem2 < 0:
                continue
            x[j] = cand
            rec(j - 1, rem2)

    rec(k - 1, Fraction(bound))
    return out


def enumerate_negative_classes(
    ctx: ConeContext,
    square: int,
    pairing_max: int,
    primitive_only: bool = False,
) -> tuple[FramedVector, ...]:
    """All integral x with q(x, x) = square and 0 < q(x, h) <= pairing_max.

    Complete by construction: for each admissible pairing value t the
    solutions form a shifted copy of the orthogonal complement of h,
    which is negative definite, and that definite problem is enumerated
    exactly (ellipsoid walk with rational bounds, no rounding).
    """
    if square >= 0:
        raise InvalidQueryError("square must be negative")
    if pairing_max < 1:
        raise InvalidQueryError("pairing_max must be positive")
    lat = ctx.lattice
    n = lat.rank
    g = lat.gram
    gh = linalg.mat_vec(g, ctx.h.ints())
    snf = smith_normal_form([gh])
    col0 = [snf.right[r][0] for r in range(n)]
    e = sum(gh[r] * col0[r] for r in range(n))
    basis = [[snf.right[r][c] for r in range(n)] for c in range(1, n)]
    found: list[tuple[int, ...]] = []
    if n > 1:
        p_mat = [[-linalg.pairing(g, bi, bj) for bj in basis] for bi in basis]
        lower, diag = linalg.ldl(p_mat)
    for t in range(1, pairing_max + 1):
        if t % abs(e):
            continue
        scale = t // e
        x0 = [scale * c for c in col0]
        q0 = linalg.pairing(g, x0, x0)
        if n == 1:
            if q0 == square:
                found.append(tuple(x0))
            continue
        centre = linalg.solve_exact(p_mat, [linalg.pairing(g, x0, b) for b in basis])
        r_target = linalg.pairing(p_mat, centre, centre) - (square - q0)
        if r_target < 0:
            continue
        for m_vec in _ellipsoid_points(lower, diag, centre, r_target):
            x = tuple(x0[r] + sum(m_vec[c] * basis[c][r] for c in range(n - 1)) for r in range(n))
            if linalg.pairing(g, x, x) == square:
                found.append(x)
    if primitive_only:
        found = [x for x in found if gcd(*(abs(c) for c in x)) == 1]
    return tuple(primal(x) for x in sorted(found))


def chamber_signature(ctx: ConeContext, x: FramedVector) -> tuple[int, ...]:
    """Sign of q(x, w) for each wall, for x inside the positive cone.

    A zero pairing raises OnWallError carrying the wall index.
    """
    if not in_positive_cone(ctx, x):
        raise OutsidePositiveConeError("query is not in the positive cone")
    signs = []
    for idx, w in enumerate(ctx.walls):
        val = q_eval(ctx.lattice, x, w)
        if val == 0:
            raise OnWallError(f"query lies on wall {idx}", idx)
        signs.append(1 if val > 0 else -1)
    return tuple(signs)


def _proportionality(v: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction | None:
    # positive factors only: the orbit contains -x alongside x, so any
    # ray match is witnessed with a positive factor, and the witness
    # then lies on the listed wall's own ray
    pivot = next((i for i, c in enumerate(w) if c != 0), None)
    if pivot is None:
        return None
    factor = Fraction(v[pivot]) / w[pivot]
    if factor <= 0:
        return None
    if all(Fraction(a) == factor * b for a, b in zip(v, w)):
        return factor
    return None


def is_wall_divisor(ctx: ConeContext, divisor, budget: int = DEFAULT_ORBIT_BUDGET) -> WallVerdict:
    """Negative square, and some orbit element proportional to a wall.

    A positive verdict always carries a witness (orbit element, wall
    index, rational factor) and is sound even on a truncated orbit. A
    negative verdict with orbit_closed=False is only conclusive for the
    portion of the orbit inside the budget.
    """
    d = _as_primal_integral(divisor, ctx.lattice, "divisor")
    if d.is_zero():
        raise ZeroVectorError("the zero class is not a candidate wall divisor")
    if q_eval(ctx.lattice, d, d) >= 0:
        return WallVerdict(False, None, FAILED_NEGATIVITY, True)
    orbit, closed = monodromy_orbit(ctx, d, budget)
    for element in orbit:
        for idx, wall in enumerate(ctx.walls):
            factor = _proportionality(element.coords, wall.coords)
            if factor is not None:
                return WallVerdict(True, WallWitness(element, idx, factor), None, closed)
    return WallVerdict(False, None, FAILED_NO_WALL_MATCH, closed)
