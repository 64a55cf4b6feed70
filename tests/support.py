"""Shared builders and independent oracles for the test suite.

The oracles here take the dumb-but-obviously-correct route (exhaustive
boxes, subset enumeration, log sums, Gauss-Jordan in ``Fraction``s,
Descartes' rule on the characteristic polynomial) and are deliberately
independent of the library's algorithms, so agreement is evidence
rather than tautology. Nothing here imports ``hklat.linalg``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from hklat import (
    ConeContext,
    make_cone_context,
    make_lattice,
    primal,
    q_eval,
)

U_GRAM = [[0, 1], [1, 0]]

# Cartan matrix of E8, Bourbaki numbering: nodes 1-3-4-5-6-7-8 in a
# chain with node 2 attached to node 4
E8_GRAM = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


# strings that are neither an integer nor p/q with q > 0
BAD_RATIONAL_STRINGS = ("1e1000000", "1E3", "1.5", ".5", " 1", "1 ", "1_000", "\u0661", "1/0",
                        "1/00", "1/-2", "-1/-2", "inf", "nan", "", "/2", "1/", "0x10")


def small_fractions(bound: int, max_denominator: int) -> list[Fraction]:
    """Every p/q in [-bound, bound] with 0 < q <= max_denominator: the
    value set of ``st.fractions(-bound, bound, max_denominator=...)``,
    listed for ``st.sampled_from``, which draws from it several times
    faster. 0 comes first, then by denominator and size, so shrinking
    still moves towards 0 and small denominators."""
    values = {Fraction(p, q) for q in range(1, max_denominator + 1)
              for p in range(-bound * q, bound * q + 1)}
    return sorted(values, key=lambda f: (f.denominator, abs(f), f < 0))


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def negate(gram):
    return [[-x for x in row] for row in gram]


def k3_type_gram(k: int):
    """<-2k> + U^3 + E8(-1)^2, rank 23."""
    e8_neg = negate(E8_GRAM)
    return direct_sum([[-2 * k]], U_GRAM, U_GRAM, U_GRAM, e8_neg, e8_neg)


def random_unimodular(rng: random.Random, n: int, steps: int = 6):
    """Product of random elementary shear and swap matrices."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            for row in m:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            for row in m:
                row[j] += c * row[i]
    return m


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def conjugate(gram, t):
    """t^T gram t, the same form written in sheared coordinates."""
    t_transposed = [list(col) for col in zip(*t)]
    return mat_mul(mat_mul(t_transposed, [list(r) for r in gram]), t)


def invert_unimodular(t):
    n = len(t)
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        x, _ = solve_oracle(t, e)
        cols.append([int(c) for c in x])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def apply_matrix(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]


def random_zariski_context(rng: random.Random, steps: int = 6) -> ConeContext:
    """Hyperbolic context whose primes sit inside a diagonally dominant
    negative-definite block with nonnegative pairwise pairings, written
    in a random sheared basis.

    Dominance makes every support subset Gram negative definite, so
    decompositions exist for every input and the subset oracle always
    finds its unique witness. ``steps`` controls how hard the basis is
    sheared; keep it low when coordinates must stay box-searchable.
    """
    rank = rng.randint(2, 4)
    nneg = rank - 1
    nprimes = rng.randint(1, nneg)
    c = [[0] * nneg for _ in range(nneg)]
    for i in range(nneg):
        for j in range(i + 1, nneg):
            c[i][j] = c[j][i] = rng.randint(0, 2)
    neg = [
        [(-(sum(c[i]) + rng.randint(1, 4)) if i == j else c[i][j]) for j in range(nneg)]
        for i in range(nneg)
    ]
    gram = direct_sum([[rng.randint(1, 4)]], neg)
    h = [1] + [0] * nneg
    primes = []
    for i in range(nprimes):
        e = [0] * rank
        e[1 + i] = 1
        primes.append(e)
    t = random_unimodular(rng, rank, steps)
    t_inv = invert_unimodular(t)
    lat = make_lattice(conjugate(gram, t))
    hv = primal(apply_matrix(t_inv, h))
    pvs = [primal(apply_matrix(t_inv, e)) for e in primes]
    return make_cone_context(lat, hv, pvs)


def brute_force_zariski(ctx: ConeContext, d_vec):
    """Try every support subset; a subset is valid when its Gram is
    negative definite, the solved coefficients are strictly positive,
    and the leftover part pairs nonnegatively with every prime.
    Asserts exactly one valid subset and returns it."""
    nprimes = len(ctx.primes)
    valid = []
    for mask in range(1 << nprimes):
        support = [i for i in range(nprimes) if mask >> i & 1]
        gram = [
            [q_eval(ctx.lattice, ctx.primes[i], ctx.primes[j]) for j in support]
            for i in support
        ]
        if support and not negative_definite_oracle(gram):
            continue
        if support:
            rhs = [q_eval(ctx.lattice, d_vec, ctx.primes[j]) for j in support]
            coeffs, free = solve_oracle(gram, rhs)
            if coeffs is None or free:
                continue
            if any(a <= 0 for a in coeffs):
                continue
        else:
            coeffs = []
        n_vec = primal([0] * ctx.lattice.rank)
        for idx, a in zip(support, coeffs):
            n_vec = n_vec + ctx.primes[idx].scaled(a)
        p_vec = d_vec - n_vec
        if all(q_eval(ctx.lattice, p_vec, e) >= 0 for e in ctx.primes):
            valid.append((tuple(support), tuple(coeffs), p_vec, n_vec))
    assert len(valid) == 1, f"expected a unique valid support, got {len(valid)}"
    return valid[0]


def box_negative_classes(ctx: ConeContext, square: int, pairing_max: int, box: int):
    """All solutions with sup-norm at most box, by exhaustion.

    Native integer arithmetic throughout; the boxes get large enough
    that Fraction overhead would dominate the whole suite."""
    rank = ctx.lattice.rank
    gram = [[int(x) for x in row] for row in ctx.lattice.gram]
    gh = [sum(gram[i][j] * int(ctx.h.coords[j]) for j in range(rank))
          for i in range(rank)]
    found = []
    for coords in product(range(-box, box + 1), repeat=rank):
        q = sum(
            coords[i] * sum(gram[i][j] * coords[j] for j in range(rank))
            for i in range(rank) if coords[i]
        )
        if q != square:
            continue
        p = sum(gh[i] * coords[i] for i in range(rank))
        if 0 < p <= pairing_max:
            found.append(coords)
    return sorted(found)


def reflection_in_root(gram, e):
    """Matrix of x -> x - (2 q(x, e) / q(e, e)) e, the reflection in a root
    e, whose square divides twice its pairing with every basis vector (for
    a square of -2 this is x -> x + q(x, e) e)."""
    n = len(gram)
    ge = [sum(gram[i][j] * e[j] for j in range(n)) for i in range(n)]
    s = sum(e[i] * ge[i] for i in range(n))
    return [[int(i == j) - e[i] * (2 * ge[j] // s) for j in range(n)] for i in range(n)]


def bounded_orbit(gens, d, budget: int):
    """(set of vectors, closed) of the breadth-first closure of {d, -d}
    under the integer matrices gens, keeping at most budget vectors."""
    n = len(d)
    seen: set[tuple[int, ...]] = set()
    queue: deque[tuple[int, ...]] = deque()

    def candidates():
        yield tuple(d)
        yield tuple(-c for c in d)
        while queue:
            cur = queue.popleft()
            for g in gens:
                yield tuple(sum(g[i][j] * cur[j] for j in range(n)) for i in range(n))

    for v in candidates():
        if v in seen:
            continue
        if len(seen) >= budget:
            return seen, False
        seen.add(v)
        queue.append(v)
    return seen, True


def wall_witness_oracle(ctx: ConeContext, divisor, budget: int):
    """(is_wall, witness, failed_condition, orbit_closed) by a naive scan.

    The orbit elements are scanned in sorted order and, for each one,
    the walls by index. An element matches a wall when it is a positive
    rational multiple of it: every 2x2 minor of the pair vanishes and
    their dot product is positive. The witness is (element, wall index,
    factor), the factor being e.w / w.w.
    """
    gram = [[int(x) for x in row] for row in ctx.lattice.gram]
    d = [int(c) for c in divisor.coords]
    n = len(d)
    if sum(d[i] * gram[i][j] * d[j] for i in range(n) for j in range(n)) >= 0:
        return False, None, "negativity", True
    gens = [[list(row) for row in g] for g in ctx.monodromy_gens]
    walls = [[int(c) for c in w.coords] for w in ctx.walls]
    orbit, closed = bounded_orbit(gens, d, budget)
    for e in sorted(orbit):
        for idx, w in enumerate(walls):
            dot = sum(a * b for a, b in zip(e, w))
            if dot > 0 and all(e[i] * w[j] == e[j] * w[i] for i, j in combinations(range(n), 2)):
                return True, (e, idx, Fraction(dot, sum(b * b for b in w))), None, closed
    return False, None, "no-wall-match", closed


def ellipsoid_box_oracle(p, centre, bound):
    """Sorted integer points m on the shell (m - c)^T p (m - c) = bound,
    by exhausting the box that bounds the ellipsoid of a symmetric
    positive definite p.

    Along coordinate i the ellipsoid reaches sqrt(bound * (p^-1)_ii)
    from the centre, with p^-1 from ``solve_oracle``; the search is done
    in integers after scaling by the centre's common denominator. Every
    point of the box is evaluated: the form of the leading coordinates
    once per head, then the last coordinate's two terms per point."""
    k = len(p)
    bound = Fraction(bound)
    if bound < 0:
        return []
    den = math.lcm(*(Fraction(c).denominator for c in centre))
    a = [int(Fraction(c) * den) for c in centre]
    rows = [[int(x) for x in row] for row in p]
    m_axes, y_axes = [], []
    for i in range(k):
        inv, _ = solve_oracle(p, [int(r == i) for r in range(k)])
        reach = math.isqrt(math.ceil(bound * inv[i])) + 1
        m_axes.append(range(a[i] // den - reach, -(-a[i] // den) + reach + 1))
        y_axes.append([den * m - a[i] for m in m_axes[i]])
    # integral y^T p y against the bound scaled by den^2, cross-multiplied
    limit = bound * den * den
    num, dnm = limit.numerator, limit.denominator
    head_rows = [row[:-1] for row in rows[:-1]]
    cross_row, p_last = [2 * x for x in rows[-1][:-1]], rows[-1][-1]
    found = []
    last = list(zip(m_axes[-1], y_axes[-1]))
    # the two products run over the same box in the same order
    for hm, hy in zip(product(*m_axes[:-1]), product(*y_axes[:-1])):
        q_head = sum(map(mul, hy, [sum(map(mul, row, hy)) for row in head_rows]))
        cross = sum(map(mul, cross_row, hy))
        for m, y in last:
            q = (q_head + y * (cross + p_last * y)) * dnm
            if q == num:
                found.append(hm + (m,))
    return found


def squares_oracle(gram, vectors) -> list[int]:
    """x^T G x for each vector, summing g_ij x_i x_j over every entry."""
    n = len(gram)
    return [sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) for x in vectors]


def pairings_oracle(gram, vectors) -> tuple[tuple[int, ...], ...]:
    """The matrix of q(x, y) over a list of vectors, each entry the sum
    of x_i g_ij y_j over every i and j."""
    n = len(gram)
    return tuple(tuple(sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n)) for y in vectors)
                 for x in vectors)


def preserves_form_oracle(gram, g) -> bool:
    """Whether g^T G g = G, entry (i, j) of the product being the sum of
    g_ai G_ab g_bj over every a and b."""
    n = len(gram)
    return all(sum(g[a][i] * gram[a][b] * g[b][j] for a in range(n) for b in range(n)) == gram[i][j]
               for i in range(n) for j in range(n))


def log10_factorial_oracle(m: int) -> float:
    """Float log sum; error around 1e-12 relative, well under the 1e-9
    tolerance it certifies."""
    return math.fsum(math.log10(i) for i in range(2, m + 1))


def random_nondegenerate_gram(rng: random.Random, rank: int, need_negative: bool = False):
    """Random symmetric integer matrix with nonzero determinant; with
    need_negative, one diagonal entry is forced negative so vectors of
    negative square are easy to find."""
    while True:
        m = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                v = rng.randint(-4, 4)
                m[i][j] = m[j][i] = v
        if need_negative:
            i = rng.randrange(rank)
            m[i][i] = -abs(m[i][i]) - rng.randint(1, 3)
        if det_oracle(m) != 0:
            return m


def random_validated_context(rng: random.Random) -> ConeContext:
    """A context that ``make_cone_context`` accepts: a hyperbolic Gram
    matrix of rank 2-5 with entries in [-4, 4], and h and the primes
    with coordinates in [-4, 4]. Primes are drawn at random and kept
    when their square is negative and they pair nonnegatively with the
    primes kept before them, so the support Gram matrices are not
    all negative definite, as they are in ``random_zariski_context``."""
    while True:
        rank = rng.randint(2, 5)
        gram = random_nondegenerate_gram(rng, rank)
        lat = make_lattice(gram)
        if lat.signature != (1, rank - 1):
            continue
        box = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(4 * rank)]
        h = next((v for v in box if squares_oracle(gram, [v])[0] > 0), None)
        if h is None:
            continue
        primes = []
        for v in box:
            square, *cross = pairings_oracle(gram, [v, *primes])[0]
            if square < 0 and min(cross, default=0) >= 0:
                primes.append(v)
        return make_cone_context(lat, primal(h), [primal(p) for p in primes])


def find_negative_vector(rng: random.Random, lat, tries: int = 200):
    for _ in range(tries):
        v = primal([rng.randint(-3, 3) for _ in range(lat.rank)])
        if not v.is_zero() and q_eval(lat, v, v) < 0:
            return v
    return None


# --- exact linear algebra over Fraction, independent of hklat.linalg -------

def _gauss_jordan(rows, ncols: int):
    """Reduced row echelon form over the rationals on the first ncols
    columns. Returns the reduced rows, the pivot columns, and the
    product of the pivots negated once per row swap (the determinant
    when every column of a square matrix has a pivot)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    factor = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            factor = -factor
        p = rows[r][c]
        factor *= p
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, factor


def det_oracle(m) -> int:
    """Determinant of a square integer matrix."""
    _, pivots, factor = _gauss_jordan(m, len(m))
    return int(factor) if len(pivots) == len(m) else 0


def solve_oracle(a, b):
    """(particular solution with every free variable zero, number of
    free variables) of the rational system a x = b, or (None, 0) when
    it is inconsistent."""
    n = len(a[0]) if a else 0
    rows, pivots, _ = _gauss_jordan([list(row) + [rhs] for row, rhs in zip(a, b)], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None, 0
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return tuple(x), n - len(pivots)


def negative_definite_oracle(m) -> bool:
    """Sylvester's criterion: the k-th leading minor has sign (-1)^k."""
    return all((-1) ** k * det_oracle([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


def charpoly(m) -> list[Fraction]:
    """Coefficients of det(t I - m), leading one first (Faddeev-LeVerrier)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(a, mk)
        for i in range(n):
            mk[i][i] += coeffs[-1]
        am = mat_mul(a, mk)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return coeffs


def signature_oracle(m) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric matrix.

    Descartes' rule of signs counts the positive roots of the
    characteristic polynomial exactly when every root is real, as it is
    for a symmetric matrix; the negative roots are the positive roots of
    p(-t)."""
    n = len(m)
    coeffs = charpoly(m)

    def sign_changes(seq) -> int:
        signs = [x > 0 for x in seq if x != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    mirrored = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(mirrored)


def closure_oracle(centres, containment):
    """(labels, closed pairs) of the center poset by Warshall's algorithm.

    Labels are numbered by first appearance, the row centres first and
    then each containment pair inner before outer. The relation is a
    boolean matrix over those indices, reflexive from the start, closed
    by the triple loop over intermediate, inner and outer index, and
    read back as (inner, outer) label pairs."""
    labels: list[str] = []
    index: dict[str, int] = {}
    for lbl in [*centres, *(x for pair in containment for x in pair)]:
        if lbl not in index:
            index[lbl] = len(labels)
            labels.append(lbl)
    n = len(labels)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for inner, outer in containment:
        reach[index[inner]][index[outer]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return labels, {(labels[i], labels[j]) for i in range(n) for j in range(n) if reach[i][j]}
