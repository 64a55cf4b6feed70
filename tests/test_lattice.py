import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import (
    Frame,
    discriminant_group,
    divisibility,
    dual,
    dual_class,
    dual_pairing,
    is_primitive,
    make_lattice,
    primal,
    primal_of_dual,
    q_eval,
    smith_normal_form,
)
import hklat.lattice
from hklat import linalg
from hklat.errors import (
    DegenerateFormError,
    FrameError,
    NonIntegralError,
    NonSymmetricError,
    ShapeError,
    SingularSystemError,
    ZeroVectorError,
)

from .support import (
    U_GRAM,
    conjugate,
    det_oracle,
    direct_sum,
    k3_type_gram,
    mat_mul,
    negate,
    random_nondegenerate_gram,
    random_unimodular,
    small_fractions,
    E8_GRAM,
)


def test_make_lattice_hyperbolic_plane():
    lat = make_lattice(U_GRAM)
    assert lat.rank == 2
    assert lat.signature == (1, 1)
    assert lat.det == -1


def test_lattice_equality_hash_and_repr_read_the_four_public_fields():
    a, b = make_lattice([[2, 1], [1, -4]]), make_lattice([[2, 1], [1, -4]])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Lattice(gram=((2, 1), (1, -4)), rank=2, signature=(1, 1), det=-9)"


def test_make_lattice_negative_line():
    lat = make_lattice([[-2]])
    assert lat.rank == 1
    assert lat.signature == (0, 1)


def test_make_lattice_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        make_lattice([[0, 1], [2, 0]])


def test_make_lattice_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        make_lattice([[1, 1], [1, 1]])


def test_make_lattice_rejects_nonsquare_and_bad_entries():
    with pytest.raises(ShapeError):
        make_lattice([[1, 0]])
    with pytest.raises(ShapeError):
        make_lattice([[True]])
    with pytest.raises(ShapeError):
        make_lattice([])


def test_q_eval_examples():
    u = make_lattice(U_GRAM)
    assert q_eval(u, primal([1, 0]), primal([0, 1])) == 1
    d = make_lattice([[2, 0], [0, -2]])
    assert q_eval(d, primal([1, 1]), primal([1, 1])) == 0
    m = make_lattice([[-2]])
    assert q_eval(m, primal([1]), primal([1])) == -2


def test_q_eval_frame_and_length_errors():
    u = make_lattice(U_GRAM)
    with pytest.raises(FrameError):
        q_eval(u, dual([1, 0]), primal([0, 1]))
    with pytest.raises(ShapeError):
        q_eval(u, primal([1, 0, 0]), primal([0, 1]))


def test_framed_vector_basics():
    v = primal([1, "1/2"])
    assert not v.is_integral()
    with pytest.raises(NonIntegralError):
        v.ints()
    with pytest.raises(TypeError):
        primal([0.5, 1])
    with pytest.raises(FrameError):
        primal([1, 0]) + dual([0, 1])


def test_smith_normal_form_examples():
    assert smith_normal_form([[2]]).diagonal == (2,)
    assert smith_normal_form([[0, 1], [1, 0]]).diagonal == (1, 1)
    assert smith_normal_form([[2, 0], [0, 4]]).diagonal == (2, 4)


@pytest.mark.parametrize("entry", [2.7, 1.0, True, "4", Fraction(4)])
def test_smith_normal_form_entries_must_be_integers(entry):
    # with int() in place of the check, [[2.7, 1], [True, "4"]] had
    # diagonal (1, 7)
    with pytest.raises(ShapeError, match="matrix entries must be integers"):
        smith_normal_form([[1, 2], [3, entry]])


def test_smith_normal_form_postconditions_random():
    rng = random.Random(20240817)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(mat)
        u = [list(r) for r in snf.left]
        v = [list(r) for r in snf.right]
        prod = mat_mul(mat_mul(u, mat), v)
        for i in range(m):
            for j in range(n):
                expected = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                assert prod[i][j] == expected
        assert abs(det_oracle(u)) == 1
        assert abs(det_oracle(v)) == 1
        nz = [d for d in snf.diagonal if d]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # zeros trail the nonzero invariant factors
        assert all(d == 0 for d in snf.diagonal[len(nz):])


def test_smith_normal_form_deterministic():
    mat = [[6, 4, 2], [4, 8, 6], [2, 6, 10]]
    assert smith_normal_form(mat) == smith_normal_form(mat)


def _smith_corpus():
    """2,000 seeded matrices of every shape from 1 x 1 to 7 x 7: dense
    ones with entries up to 3, 30 or 1000 in size, and sparse ones."""
    rng = random.Random(20261019)
    for k in range(2000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if k % 2:
            bound = rng.choice((3, 30, 1000))
            yield [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        else:
            yield [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(n)]
                   for _ in range(m)]


# sha256 over the corpus of repr((diagonal, left, right)); the
# postconditions above allow many transforms, this pins the one returned
SMITH_CORPUS_SHA256 = "ad002fba4ee1fefb7dbfdedb0e31cc8377a21b5e887473d339f92bc53c8c4613"


def test_smith_normal_form_outputs_are_pinned():
    digest = hashlib.sha256()
    for mat in _smith_corpus():
        snf = smith_normal_form(mat)
        digest.update(repr((snf.diagonal, snf.left, snf.right)).encode())
    assert digest.hexdigest() == SMITH_CORPUS_SHA256


def test_discriminant_group_k3_lattice_is_unimodular():
    gram = direct_sum(U_GRAM, U_GRAM, U_GRAM, negate(E8_GRAM), negate(E8_GRAM))
    g = discriminant_group(make_lattice(gram))
    assert g.invariant_factors == ()
    assert g.order == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_discriminant_group_neg2k_plus_u(k):
    g = discriminant_group(make_lattice(direct_sum([[-2 * k]], U_GRAM)))
    assert g.invariant_factors == (2 * k,)
    assert g.order == 2 * k


def test_discriminant_group_checks_snf_against_det(monkeypatch):
    real = hklat.lattice._diagonalize

    def doubled_last_factor(w, m, n):
        real(w, m, n)
        w[n - 1][n - 1] *= 2

    monkeypatch.setattr(hklat.lattice, "_diagonalize", doubled_last_factor)
    with pytest.raises(ArithmeticError, match="disagrees"):
        discriminant_group(make_lattice([[2, 0], [0, -2]]))


def test_discriminant_group_merges_block_diagonals_into_one_chain():
    # the blocks' own diagonals (2), (3) and (2), (2) are no chain
    six = discriminant_group(make_lattice([[-2, 0], [0, -3]]))
    assert (six.invariant_factors, six.order) == ((6,), 6)
    two_two = discriminant_group(make_lattice([[-2, 0], [0, -2]]))
    assert (two_two.invariant_factors, two_two.order) == ((2, 2), 4)


@st.composite
def sparse_symmetric_matrices(draw):
    """Symmetric n x n matrices, n <= 9, with mostly zero entries, so
    that most of them split into several orthogonal blocks."""
    n = draw(st.integers(0, 9), label="n")
    entries = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -2, 3))
    upper = draw(st.lists(entries, min_size=n * n, max_size=n * n), label="upper")
    return [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]


@given(sparse_symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_orthogonal_blocks_are_the_connected_components(m):
    n = len(m)
    blocks = linalg.orthogonal_blocks(m)
    assert sorted(i for block in blocks for i in block) == list(range(n))
    assert all(block == sorted(block) for block in blocks)
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    where = {i: k for k, block in enumerate(blocks) for i in block}
    assert all(where[i] == where[j] for i in range(n) for j in range(n) if m[i][j])
    for block in blocks:
        reached = {block[0]}
        while grown := {j for i in reached for j in block if m[i][j]} - reached:
            reached |= grown
        assert reached == set(block)


@given(sparse_symmetric_matrices().filter(lambda m: m and det_oracle(m)))
@settings(max_examples=200, deadline=None)
def test_make_lattice_keeps_each_orthogonal_block_with_its_determinant(m):
    lattice = make_lattice(m)
    assert [list(block) for block, _ in lattice.summands] == linalg.orthogonal_blocks(m)
    for block, det_b in lattice.summands:
        assert det_b == det_oracle([[m[i][j] for j in block] for i in block])
    assert math.prod(det_b for _, det_b in lattice.summands) == lattice.det


def test_each_orthogonal_block_is_eliminated_on_its_own(monkeypatch):
    """make_lattice splits <-2k> + U^3 + E8(-1)^2 once and eliminates it
    summand by summand, and a sheared copy, which is connected, in one
    piece. discriminant_group reads that split and runs the Smith form
    only on the summands of determinant other than +-1: <-2k> alone, or
    the whole sheared copy."""
    sizes, splits = [], []
    kernel, diagonalize = linalg.symmetric_elimination, hklat.lattice._diagonalize
    blocks = linalg.orthogonal_blocks
    monkeypatch.setattr(linalg, "symmetric_elimination", lambda m: sizes.append(("sym", len(m))) or kernel(m))
    monkeypatch.setattr(hklat.lattice, "_diagonalize",
                        lambda w, m, n: sizes.append(("snf", m)) or diagonalize(w, m, n))
    monkeypatch.setattr(linalg, "orthogonal_blocks", lambda m: splits.append(len(m)) or blocks(m))
    gram = k3_type_gram(3)
    sheared = conjugate(gram, random_unimodular(random.Random(150), 23, 150))
    for g, eliminated, smith in ((gram, [1, 2, 2, 2, 8, 8], [1]), (sheared, [23], [23])):
        sizes.clear()
        splits.clear()
        assert discriminant_group(make_lattice(g)).invariant_factors == (6,)
        assert sizes == [("sym", k) for k in eliminated] + [("snf", k) for k in smith]
        assert splits == [23]


def test_discriminant_group_a2():
    g = discriminant_group(make_lattice([[2, -1], [-1, 2]]))
    assert g.invariant_factors == (3,)
    assert g.order == 3


def test_dual_class_examples():
    u = make_lattice(U_GRAM)
    assert dual_class(u, primal([1, 0])).coords == (0, 1)
    assert dual_class(u, primal([1, 0])).frame is Frame.DUAL
    m = make_lattice([[-2]])
    assert dual_class(m, primal([1])).coords == (-2,)


def test_primal_of_dual_examples():
    u = make_lattice(U_GRAM)
    assert primal_of_dual(u, dual([0, 1])).coords == (1, 0)
    m = make_lattice([[-2]])
    assert primal_of_dual(m, dual([1])).coords == (Fraction(-1, 2),)
    d = make_lattice([[2, 0], [0, -2]])
    assert primal_of_dual(d, dual([0, -2])).coords == (0, 1)
    # a Lattice built directly skips make_lattice's nondegeneracy check;
    # a gamma with many lifts and one with none are both refused
    singular = hklat.lattice.Lattice(((1, 1), (1, 1)), 2, (1, 0), 0, summands=(((0, 1), 0),))
    for gamma in ([1, 1], [1, 0]):
        with pytest.raises(SingularSystemError, match="^matrix is singular$"):
            primal_of_dual(singular, dual(gamma))


def test_dual_pairing_matches_q():
    d = make_lattice([[2, 1], [1, -4]])
    x = primal([3, "1/2"])
    y = primal([-1, 2])
    assert dual_pairing(dual_class(d, x), y) == q_eval(d, x, y)


def test_divisibility_examples():
    u = make_lattice(U_GRAM)
    assert divisibility(u, primal([1, 1])) == 1
    m = make_lattice([[-2]])
    assert divisibility(m, primal([1])) == 2
    for k in (1, 3, 7):
        lk = make_lattice(direct_sum([[-2 * k]], U_GRAM))
        assert divisibility(lk, primal([1, 0, 0])) == 2 * k
    with pytest.raises(ZeroVectorError):
        divisibility(u, primal([0, 0]))


def test_is_primitive_examples():
    u = make_lattice(U_GRAM)
    assert is_primitive(u, primal([1, 0]))
    assert not is_primitive(u, primal([2, 0]))
    with pytest.raises(ZeroVectorError):
        is_primitive(u, primal([0, 0]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_q_symmetric_and_bilinear(data):
    rank = data.draw(st.integers(1, 4), label="rank")
    seed = data.draw(st.integers(0, 10**9), label="seed")
    lat = make_lattice(random_nondegenerate_gram(random.Random(seed), rank))
    coords = st.sampled_from(small_fractions(5, 6))
    x = primal(data.draw(st.lists(coords, min_size=rank, max_size=rank), label="x"))
    y = primal(data.draw(st.lists(coords, min_size=rank, max_size=rank), label="y"))
    c = data.draw(coords, label="c")
    assert q_eval(lat, x, y) == q_eval(lat, y, x)
    assert q_eval(lat, x.scaled(c), y) == c * q_eval(lat, x, y)
    assert q_eval(lat, x + y, y) == q_eval(lat, x, y) + q_eval(lat, y, y)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_round_trip(data):
    rank = data.draw(st.integers(1, 4), label="rank")
    seed = data.draw(st.integers(0, 10**9), label="seed")
    lat = make_lattice(random_nondegenerate_gram(random.Random(seed), rank))
    coords = st.sampled_from(small_fractions(5, 6))
    x = primal(data.draw(st.lists(coords, min_size=rank, max_size=rank), label="x"))
    assert primal_of_dual(lat, dual_class(lat, x)) == x


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_signature_invariant_under_unimodular_change(seed, rank):
    rng = random.Random(seed)
    gram = random_nondegenerate_gram(rng, rank)
    lat = make_lattice(gram)
    t = random_unimodular(rng, rank)
    lat2 = make_lattice(conjugate(gram, t))
    assert lat.signature == lat2.signature
    assert abs(lat.det) == abs(lat2.det)


def test_k3_type_signature():
    lat = make_lattice(k3_type_gram(2))
    assert lat.rank == 23
    assert lat.signature == (3, 20)


def test_divisibility_of_basis_vector_divides_det():
    rng = random.Random(7)
    for _ in range(30):
        rank = rng.randint(1, 4)
        lat = make_lattice(random_nondegenerate_gram(rng, rank))
        for i in range(rank):
            e = [0] * rank
            e[i] = 1
            assert abs(lat.det) % divisibility(lat, primal(e)) == 0
