"""Property tests of the exact elimination kernel and the solves built
on it against the Fraction oracles in ``support.py``, and of the
batched squares and images against nested-loop sums there; and the
number of eliminations that a Zariski decomposition and an enumeration
make."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import (
    ConeContext,
    dual,
    enumerate_negative_classes,
    linalg,
    make_cone_context,
    make_lattice,
    primal,
    primal_of_dual,
    verify_decomposition,
    zariski_decompose,
)
from hklat import cones
from hklat.errors import AmbiguousSupportError, DegenerateFormError, SingularSystemError
from hklat.lattice import Lattice
from hklat.linalg import definite_solve, mat_vecs, squares, symmetric_elimination

from .support import (
    U_GRAM,
    apply_matrix,
    conjugate,
    det_oracle,
    direct_sum,
    mat_mul,
    negate,
    negative_definite_oracle,
    random_unimodular,
    signature_oracle,
    small_fractions,
    solve_oracle,
    squares_oracle,
)

SMALL = st.integers(-4, 4)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of rank 1-7: random ones, ones with a
    zero diagonal, sheared sums of hyperbolic planes, and degenerate
    ones with a repeated row and column."""
    n = draw(st.integers(1, 7), label="n")
    family = draw(st.sampled_from(("random", "zero-diagonal", "hyperbolic")), label="family")
    if family == "hyperbolic":
        blocks = [U_GRAM] * (n // 2) + [[[draw(SMALL, label="d")]]] * (n % 2)
        t = random_unimodular(random.Random(draw(st.integers(0, 10**6), label="seed")), n,
                              draw(st.integers(0, 4), label="steps"))
        m = conjugate(direct_sum(*blocks), t)
    else:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(SMALL)
        if family == "zero-diagonal":
            for i in range(n):
                m[i][i] = 0
    if n > 1 and draw(st.booleans(), label="degenerate"):
        k, dup = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[dup] = list(m[k])
        for row in m:
            row[dup] = row[k]
    return m


@st.composite
def positive_definite_matrices(draw):
    """B^T B + I for a random integer square B."""
    n = draw(st.integers(1, 7), label="n")
    b = [[draw(SMALL) for _ in range(n)] for _ in range(n)]
    bt = [list(col) for col in zip(*b)]
    return [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat_mul(bt, b))]


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_make_lattice_det_and_signature_match_oracles(m):
    det = det_oracle(m)
    if det == 0:
        with pytest.raises(DegenerateFormError, match="Gram matrix is singular"):
            make_lattice(m)
        return
    lat = make_lattice(m)
    assert lat.det == det
    assert lat.signature == signature_oracle(m)


@given(st.one_of(symmetric_matrices(), positive_definite_matrices().map(negate)))
@settings(max_examples=300, deadline=None)
def test_is_negative_definite_matches_oracle(m):
    """definite_solve's verdict with sign -1 is Sylvester's criterion."""
    assert (definite_solve(m, [0] * len(m), -1) is not None) == negative_definite_oracle(m)


# p/q with q <= 5 in [-4, 4], 81 values
FRACTIONS = st.sampled_from(small_fractions(4, 5))


@given(st.one_of(symmetric_matrices(), positive_definite_matrices(), positive_definite_matrices().map(negate)),
       st.sampled_from((1, -1)), st.data())
@settings(max_examples=400, deadline=None)
def test_definite_solve_matches_oracles(m, sign, data):
    """The verdict is Sylvester's criterion on sign * m, and for a
    definite m the solution of m x = b is the oracle's, for rational b;
    the rows returned are those of m's own elimination, with a carried
    column after them."""
    b = data.draw(st.lists(FRACTIONS, min_size=len(m), max_size=len(m)), label="b")
    solved = definite_solve(m, b, sign)
    assert (solved is not None) == negative_definite_oracle(m if sign < 0 else negate(m))
    if solved is not None:
        rows, x = solved
        assert x == solve_oracle(m, b)[0]
        assert [row[:len(m)] for row in rows] == symmetric_elimination(m)


@given(symmetric_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_symmetric_elimination_carries_extra_columns(m, data):
    """Columns appended to m, as of [m | B], change no pivot and no entry
    of the first n columns, on zero-diagonal and degenerate forms too."""
    n = len(m)
    width = data.draw(st.integers(0, 3), label="extra columns")
    extra = [data.draw(st.lists(SMALL, min_size=width, max_size=width)) for _ in range(n)]
    rows = symmetric_elimination([row + cols for row, cols in zip(m, extra)])
    assert [row[:n] for row in rows] == symmetric_elimination(m)
    assert all(len(row) == n + width for row in rows)


@st.composite
def prime_systems(draw):
    """(primes, N): up to 5 integral primes of length 1-5, some of them
    combinations of earlier ones, and a rational N that is often a
    rational combination of the primes, so all four cases of dependent
    or independent primes and consistent or inconsistent N occur."""
    n = draw(st.integers(1, 5), label="length")
    primes = []
    for _ in range(draw(st.integers(0, 5), label="primes")):
        if primes and draw(st.booleans(), label="dependent"):
            c1, c2 = draw(SMALL), draw(SMALL)
            r1, r2 = draw(st.sampled_from(primes)), draw(st.sampled_from(primes))
            primes.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            primes.append(draw(st.lists(SMALL, min_size=n, max_size=n)))
    if primes and draw(st.booleans(), label="combination"):
        coeffs = draw(st.lists(FRACTIONS, min_size=len(primes), max_size=len(primes)))
        return primes, [sum(c * p[i] for c, p in zip(coeffs, primes)) for i in range(n)]
    return primes, draw(st.lists(FRACTIONS, min_size=n, max_size=n))


@st.composite
def dependent_rows(draw):
    """Integer matrices of 1-6 rows and 1-5 columns in which some rows
    are combinations of earlier ones."""
    cols = draw(st.integers(1, 5), label="cols")
    b = [draw(st.lists(SMALL, min_size=cols, max_size=cols))]
    for _ in range(draw(st.integers(0, 5), label="more rows")):
        if draw(st.booleans(), label="dependent"):
            c1, c2 = draw(SMALL), draw(SMALL)
            r1, r2 = draw(st.sampled_from(b)), draw(st.sampled_from(b))
            b.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            b.append(draw(st.lists(SMALL, min_size=cols, max_size=cols)))
    return b


def test_one_elimination_per_definite_system(monkeypatch):
    """A Zariski round decides definiteness and solves for the
    coefficients in one elimination, and an enumeration eliminates the
    complement of h once for all its pairing slices."""
    calls = []
    kernel = linalg.symmetric_elimination
    monkeypatch.setattr(linalg, "symmetric_elimination", lambda *args: calls.append(kernel) or kernel(*args))
    # <2> + A_6(-1) with the simple roots as primes and D their sum: the
    # support grows from the chain's two ends, two roots a round
    n = 6
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    gram[0][0] = 2
    for i in range(1, n + 1):
        gram[i][i] = -2
        if i < n:
            gram[i][i + 1] = gram[i + 1][i] = 1
    roots = [primal([int(j == i) for j in range(n + 1)]) for i in range(1, n + 1)]
    ctx = make_cone_context(make_lattice(gram), primal([1] + [0] * n), roots)
    calls.clear()
    dec = zariski_decompose(ctx, primal([0] + [1] * n))
    assert dec.support == tuple(range(n)) and dec.coefficients == (1,) * n
    assert len(calls) == n // 2
    # U + A_2(-1) with h = (1, 1, 0, 0): one slice per pairing value 1, 2, 3
    slices = []
    shell_points = cones._shell_points
    monkeypatch.setattr(cones, "_shell_points", lambda *args: slices.append(1) or shell_points(*args))
    lat = make_lattice(direct_sum(U_GRAM, [[-2, 1], [1, -2]]))
    ctx = make_cone_context(lat, primal([1, 1, 0, 0]))
    calls.clear()
    assert enumerate_negative_classes(ctx, -2, 3)
    assert len(slices) == 3 and len(calls) == 1


@given(symmetric_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_exact_matches_oracle(m, data):
    """The exact square solve behind primal_of_dual gives the oracle's
    unique solution of m x = b and refuses a system with none or many;
    the Lattice is built directly, so degenerate m reach the solve."""
    n = len(m)
    b = data.draw(st.lists(FRACTIONS, min_size=n, max_size=n), label="b")
    lat = Lattice(tuple(map(tuple, m)), n, signature_oracle(m), det_oracle(m))
    x, free = solve_oracle(m, b)
    if x is None or free:
        with pytest.raises(SingularSystemError, match="^matrix is singular$"):
            primal_of_dual(lat, dual(b))
    else:
        assert primal_of_dual(lat, dual(b)).coords == x


@given(prime_systems())
@settings(max_examples=300, deadline=None)
def test_verify_recovers_the_oracle_representation_of_n(system):
    """Without a hint, verify_decomposition's support and coefficients
    are the nonzero entries of the oracle's unique solution of
    sum c_i E_i = N; many solutions are an AmbiguousSupportError, and
    none the note "N is not a combination of the primes" with an empty
    support. The context is built directly, so any primes reach it."""
    primes, nv = system
    n = len(nv)
    lat = make_lattice(direct_sum([[2]], *[[[-2]]] * (n - 1)))
    ctx = ConeContext(lat, primal([1] + [0] * (n - 1)), tuple(map(primal, primes)), (), ())
    x, free = solve_oracle([[p[i] for p in primes] for i in range(n)], nv)
    if x is not None and free:
        with pytest.raises(AmbiguousSupportError):
            verify_decomposition(ctx, primal(nv), primal([0] * n), primal(nv))
        return
    rep = verify_decomposition(ctx, primal(nv), primal([0] * n), primal(nv))
    if x is None:
        assert "N is not a combination of the primes" in rep.notes
        assert (rep.support, rep.coefficients, rep.negative_combination) == ((), (), False)
    else:
        support = tuple(i for i, c in enumerate(x) if c)
        assert (rep.support, rep.coefficients) == (support, tuple(x[i] for i in support))
        assert "N is not a combination of the primes" not in rep.notes
        assert rep.negative_combination == all(c > 0 for c in rep.coefficients)


@given(dependent_rows())
@settings(max_examples=300, deadline=None)
def test_symmetric_elimination_counts_the_rank_of_a_gram_matrix(b):
    """B^T B and B B^T are positive semidefinite of B's rank, and the
    elimination of either stops after exactly that many rows."""
    bt = [list(col) for col in zip(*b)]
    rank = len(b[0]) - solve_oracle(b, [0] * len(b))[1]
    assert len(symmetric_elimination(mat_mul(bt, b))) == rank
    assert len(symmetric_elimination(mat_mul(b, bt))) == rank


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_squares_matches_oracle(data):
    """Symmetric integer Grams of rank 1-10, zeros on and off the
    diagonal and negative entries among them, against lists of 0-12
    vectors, some with entries of 70 bits."""
    n = data.draw(st.integers(1, 10), label="rank")
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -5, 17))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = data.draw(entry)
    coord = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
    vectors = data.draw(st.lists(st.lists(coord, min_size=n, max_size=n).map(tuple),
                                 max_size=12), label="vectors")
    assert squares(g, vectors) == squares_oracle(g, vectors)


def test_squares_of_no_vectors_is_empty():
    assert squares([[2, 1], [1, -2]], []) == []


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mat_vecs_matches_oracle(data):
    """Integer matrices of rank 1-10 with zero and negative entries,
    some with zero rows and some zero throughout, against lists of 1-12
    vectors, some with entries of 70 bits: each image is the tuple of
    apply_matrix's sums."""
    n = data.draw(st.integers(1, 10), label="rank")
    entry = st.sampled_from((0, 0, 0, 1, 1, -1, 2, -2, 3, -5, 17))
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
                  label="matrix")
    family = data.draw(st.sampled_from(("random", "zero-rows", "zero")), label="family")
    if family != "random":
        for i in range(n):
            if family == "zero" or data.draw(st.booleans(), label="zero row"):
                a[i] = [0] * n
    coord = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
    vectors = data.draw(st.lists(st.lists(coord, min_size=n, max_size=n).map(tuple),
                                 min_size=1, max_size=12), label="vectors")
    images = mat_vecs(a, vectors)
    assert images == [tuple(apply_matrix(a, v)) for v in vectors]
    assert all(type(c) is int for img in images for c in img)


def test_mat_vecs_of_one_vector_and_of_no_vectors():
    a = [[1, 0, -2], [0, 0, 0], [3, 1, 1]]
    assert mat_vecs(a, [(2**70, -1, 5)]) == [(2**70 - 10, 0, 3 * 2**70 + 4)]
    assert mat_vecs(a, []) == []
