"""sympy as a second, independent oracle; skipped where it is absent."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import discriminant_group, make_lattice, smith_normal_form
from hklat.linalg import det_signature

from .support import (
    E8_GRAM,
    U_GRAM,
    conjugate,
    det_oracle,
    direct_sum,
    k3_type_gram,
    negate,
    random_unimodular,
)

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


@st.composite
def nonsingular_matrices(draw):
    n = draw(st.integers(1, 6), label="n")
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n).filter(det_oracle))


@given(nonsingular_matrices())
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_matches_sympy_invariant_factors(m):
    diagonal = smith_normal_form(m).diagonal
    factors = normalforms.invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
    expected = tuple(int(x) for x in factors)
    assert diagonal == expected
    assert math.prod(diagonal) == abs(det_oracle(m))


def sympy_inertia(m) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric matrix, with
    multiplicity. Each square-free factor of the characteristic
    polynomial has simple real roots, counted by ``Poly.count_roots`` on
    the closed half-lines, less a root at zero."""
    pos = neg = 0
    for factor, mult in sympy.Matrix(m).charpoly().sqf_list()[1]:
        at_zero = factor.eval(0) == 0
        pos += mult * (factor.count_roots(0, None) - at_zero)
        neg += mult * (factor.count_roots(None, 0) - at_zero)
    return pos, neg


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size 1-7: random entries, or
    Q^T S Q for a random symmetric k x k S and k x n Q, which is
    singular whenever k < n."""
    n = draw(st.integers(1, 7), label="n")

    def symmetric(size, bound):
        upper = draw(st.lists(st.integers(-bound, bound), min_size=size * size,
                              max_size=size * size))
        return [[upper[min(i, j) * size + max(i, j)] for j in range(size)] for i in range(size)]

    if not draw(st.booleans(), label="product"):
        return symmetric(n, 9)
    k = draw(st.integers(1, n), label="k")
    s = symmetric(k, 3)
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    q = draw(st.lists(row, min_size=k, max_size=k), label="q")
    return [[sum(q[a][i] * s[a][b] * q[b][j] for a in range(k) for b in range(k))
             for j in range(n)] for i in range(n)]


UNIMODULAR_BLOCKS = ([[1]], [[-1]], U_GRAM, negate(E8_GRAM))


@st.composite
def permuted_orthogonal_sums(draw, unimodular=False):
    """P^T (B_1 + ... + B_r) P for 2-5 random symmetric blocks of size
    1-4, at times with one more block v v^T of rank at most one, and a
    random permutation P, so that the blocks are not contiguous. With
    ``unimodular``, one to three blocks of determinant +-1 are mixed in
    among them: <1>, <-1>, U or E8(-1), each at times written in a basis
    sheared by ``random_unimodular`` of its own size."""
    def block(size):
        upper = draw(st.lists(st.integers(-6, 6), min_size=size * size, max_size=size * size))
        return [[upper[min(i, j) * size + max(i, j)] for j in range(size)] for i in range(size)]

    blocks = [block(draw(st.integers(1, 4), label="size")) for _ in range(draw(st.integers(2, 5)))]
    for _ in range(draw(st.integers(1, 3), label="unimodular blocks") if unimodular else 0):
        u = draw(st.sampled_from(UNIMODULAR_BLOCKS), label="unimodular block")
        if draw(st.booleans(), label="sheared"):
            u = conjugate(u, random_unimodular(draw(st.randoms(use_true_random=False)), len(u)))
        blocks.insert(draw(st.integers(0, len(blocks))), u)
    if draw(st.booleans(), label="degenerate"):
        v = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3), label="v")
        blocks.insert(draw(st.integers(0, len(blocks))), [[a * b for b in v] for a in v])
    gram = direct_sum(*blocks)
    perm = draw(st.permutations(range(len(gram))), label="perm")
    return [[gram[i][j] for j in perm] for i in perm]


def test_sympy_inertia_counts_multiplicity():
    assert sympy_inertia([[2, 0, 0], [0, 2, 0], [0, 0, 0]]) == (2, 0)
    assert sympy_inertia([[0, 1, 0], [1, 0, 0], [0, 0, -3]]) == (1, 2)


def assert_det_signature_matches_sympy(m):
    det, (pos, neg), _ = det_signature(m)
    assert det == sympy.Matrix(m).det()
    inertia = sympy_inertia(m)
    if det:
        assert (pos, neg) == inertia
    else:
        # each block's elimination stops at the first step it cannot
        # fix; the pivots found span orthogonal nondegenerate subspaces,
        # so neither count can exceed the true one
        assert pos <= inertia[0] and neg <= inertia[1]


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_det_signature_matches_sympy(m):
    assert_det_signature_matches_sympy(m)


@given(permuted_orthogonal_sums())
@settings(max_examples=150, deadline=None)
def test_det_signature_matches_sympy_on_permuted_orthogonal_sums(m):
    assert_det_signature_matches_sympy(m)


def sympy_discriminant_factors(gram) -> tuple[int, ...]:
    factors = normalforms.invariant_factors(sympy.Matrix(gram), domain=sympy.ZZ)
    return tuple(int(abs(x)) for x in factors if abs(x) > 1)


def assert_discriminant_group_matches_sympy(gram):
    group = discriminant_group(make_lattice(gram))
    assert group.invariant_factors == sympy_discriminant_factors(gram)
    assert group.order == abs(det_oracle(gram))


@given(symmetric_matrices().filter(det_oracle))
@settings(max_examples=150, deadline=None)
def test_discriminant_group_matches_sympy_invariant_factors(gram):
    assert_discriminant_group_matches_sympy(gram)


@given(permuted_orthogonal_sums().filter(det_oracle))
@settings(max_examples=100, deadline=None)
def test_discriminant_group_matches_sympy_on_permuted_orthogonal_sums(gram):
    assert_discriminant_group_matches_sympy(gram)


@given(permuted_orthogonal_sums(unimodular=True).filter(det_oracle))
@settings(max_examples=100, deadline=None)
def test_discriminant_group_matches_sympy_with_unimodular_summands(gram):
    """Summands of determinant +-1 are skipped; every other one,
    including those of determinant +-2, still reaches the Smith form."""
    assert_discriminant_group_matches_sympy(gram)


@pytest.mark.parametrize("k, steps", [(1, 40), (3, 150), (5, 300)])
def test_discriminant_group_matches_sympy_on_sheared_k3_lattices(k, steps):
    gram = conjugate(k3_type_gram(k), random_unimodular(random.Random(steps), 23, steps))
    group = discriminant_group(make_lattice(gram))
    assert group.invariant_factors == sympy_discriminant_factors(gram) == (2 * k,)
    assert group.order == 2 * k

