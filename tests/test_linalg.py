"""Property tests of the exact elimination kernels against the Fraction
oracles in ``support.py``, and of the batched squares and images
against nested-loop sums there."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import make_lattice
from hklat.errors import DegenerateFormError, SingularSystemError
from hklat.linalg import is_negative_definite, mat_vecs, solve_exact, solve_general, squares

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
    assert is_negative_definite(m) == negative_definite_oracle(m)


# p/q with q <= 5 in [-4, 4], 81 values
FRACTIONS = st.sampled_from(small_fractions(4, 5))


@st.composite
def rational_systems(draw, square=False):
    """(a, b) with up to 5 rows and columns; some rows are combinations
    of earlier ones, so ranks below full occur often."""
    rows = draw(st.integers(1, 5), label="rows")
    cols = rows if square else draw(st.integers(1, 5), label="cols")
    a = []
    for _ in range(rows):
        if a and draw(st.booleans(), label="dependent"):
            c1, c2 = draw(FRACTIONS), draw(FRACTIONS)
            r1, r2 = draw(st.sampled_from(a)), draw(st.sampled_from(a))
            a.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            a.append([draw(FRACTIONS) for _ in range(cols)])
    b = [draw(FRACTIONS) for _ in range(rows)]
    return a, b


@given(rational_systems())
@settings(max_examples=300, deadline=None)
def test_solve_general_matches_oracle(system):
    a, b = system
    assert solve_general(a, b) == solve_oracle(a, b)


@given(rational_systems(square=True))
@settings(max_examples=200, deadline=None)
def test_solve_exact_matches_oracle(system):
    a, b = system
    x, free = solve_oracle(a, b)
    if x is None or free:
        with pytest.raises(SingularSystemError, match="matrix is singular"):
            solve_exact(a, b)
    else:
        assert solve_exact(a, b) == x


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
