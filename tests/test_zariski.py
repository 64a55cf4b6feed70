import random
from fractions import Fraction
from math import factorial

import pytest

from hklat import (
    ConeContext,
    dual,
    make_cone_context,
    make_lattice,
    primal,
    primal_of_dual,
    q_eval,
    denominator_audit,
    ruling_curve_class,
    verify_decomposition,
    zariski_decompose,
)
from hklat.errors import (
    AmbiguousSupportError,
    InconsistentPrimeSetError,
    InvalidQueryError,
    NonNegativeSquareError,
    NotPseudoEffectiveError,
)

from .support import brute_force_zariski, random_zariski_context


def _diag_ctx():
    lat = make_lattice([[2, 0], [0, -2]])
    return make_cone_context(lat, primal((1, 0)), [primal((0, 1))])


def _mixed_ctx():
    lat = make_lattice([[2, 1], [1, -4]])
    return make_cone_context(lat, primal((1, 0)), [primal((0, 1))])


def _pathological_ctx(neg_block):
    """Rank-3 context built directly, skipping the factory checks, so
    the prime-prime pairings can be negative."""
    gram = [
        [2, 0, 0],
        [0, neg_block[0][0], neg_block[0][1]],
        [0, neg_block[1][0], neg_block[1][1]],
    ]
    lat = make_lattice(gram)
    return ConeContext(
        lattice=lat,
        h=primal((1, 0, 0)),
        primes=(primal((0, 1, 0)), primal((0, 0, 1))),
        walls=(),
        monodromy_gens=(),
    )


def test_decompose_single_prime():
    ctx = _diag_ctx()
    dec = zariski_decompose(ctx, primal((1, 2)))
    assert dec.positive == primal((1, 0))
    assert dec.negative == primal((0, 2))
    assert dec.support == (0,)
    assert dec.coefficients == (Fraction(2),)
    assert dec.denominator_lcm == 1


def test_decompose_already_nef():
    ctx = _diag_ctx()
    dec = zariski_decompose(ctx, primal((1, 0)))
    assert dec.positive == primal((1, 0))
    assert dec.negative.is_zero()
    assert dec.support == ()
    assert dec.coefficients == ()
    assert dec.denominator_lcm == 1


def test_decompose_fractional_coefficient():
    ctx = _mixed_ctx()
    dec = zariski_decompose(ctx, primal((1, 1)))
    assert dec.positive == primal((1, Fraction(1, 4)))
    assert dec.negative == primal((0, Fraction(3, 4)))
    assert dec.support == (0,)
    assert dec.coefficients == (Fraction(3, 4),)
    assert dec.denominator_lcm == 4


def test_decompose_no_primes():
    lat = make_lattice([[2, 0], [0, -2]])
    ctx = make_cone_context(lat, primal((1, 0)))
    dec = zariski_decompose(ctx, primal((1, 2)))
    assert dec.positive == primal((1, 2))
    assert dec.negative.is_zero()
    assert dec.support == ()


def test_decompose_not_pseudo_effective():
    ctx = _pathological_ctx([[-2, -3], [-3, -2]])
    with pytest.raises(NotPseudoEffectiveError):
        zariski_decompose(ctx, primal((1, 1, 1)))


def test_decompose_inconsistent_prime_set():
    # support Gram [[-2,-1],[-1,-2]] is negative definite, but solving
    # q(D - a1 E1 - a2 E2, Ej) = 0 for D = (1,-1,3) gives a1 = -1
    ctx = _pathological_ctx([[-2, -1], [-1, -2]])
    with pytest.raises(InconsistentPrimeSetError):
        zariski_decompose(ctx, primal((1, -1, 3)))


def test_verify_accepts_computed_decomposition():
    for ctx, d in ((_diag_ctx(), (1, 2)), (_mixed_ctx(), (1, 1))):
        dec = zariski_decompose(ctx, primal(d))
        rep = verify_decomposition(ctx, primal(d), dec.positive, dec.negative)
        assert rep.ok
        assert rep.support == dec.support
        assert rep.coefficients == dec.coefficients
        assert rep.notes == ()


def test_verify_flags_nef_violation():
    ctx = _diag_ctx()
    rep = verify_decomposition(ctx, primal((1, 2)), primal((1, 1)), primal((0, 1)))
    assert not rep.ok
    assert rep.sum_matches
    assert not rep.positive_nef
    assert rep.negative_combination
    assert rep.support_negative_definite
    assert not rep.orthogonal
    assert "P pairs negatively with some prime" in rep.notes


def test_verify_flags_sum_mismatch():
    ctx = _diag_ctx()
    rep = verify_decomposition(ctx, primal((1, 2)), primal((1, 0)), primal((0, 1)))
    assert not rep.ok
    assert not rep.sum_matches
    assert rep.positive_nef and rep.orthogonal


def test_verify_flags_non_combination():
    ctx = _diag_ctx()
    rep = verify_decomposition(ctx, primal((1, 2)), primal((0, 2)), primal((1, 0)))
    assert not rep.ok
    assert not rep.negative_combination
    assert rep.support == ()
    assert "N is not a combination of the primes" in rep.notes


def test_verify_without_primes():
    # with no primes, N = 0 is the empty combination and any other N is
    # no combination at all
    ctx = make_cone_context(make_lattice([[2, 0], [0, -2]]), primal((1, 0)))
    rep = verify_decomposition(ctx, primal((1, 2)), primal((1, 2)), primal((0, 0)))
    assert rep.ok and rep.negative_combination and rep.support_negative_definite
    assert (rep.support, rep.coefficients, rep.notes) == ((), (), ())
    rep = verify_decomposition(ctx, primal((1, 2)), primal((1, 0)), primal((0, 2)))
    assert not rep.ok and not rep.negative_combination
    assert (rep.sum_matches, rep.positive_nef, rep.orthogonal) == (True, True, True)
    assert (rep.support, rep.coefficients) == ((), ())
    assert rep.notes == ("N is not a combination of the primes",)
    rep = verify_decomposition(ctx, primal((1, 2)), primal((1, 2)), primal(("1/2", 0)))
    assert rep.notes == ("P + N differs from D", "N is not a combination of the primes",
                         "q(P, N) is nonzero")


def test_verify_flags_indefinite_support():
    ctx = _pathological_ctx([[-2, -3], [-3, -2]])
    rep = verify_decomposition(
        ctx,
        primal((1, 1, 1)),
        primal((1, 0, 0)),
        primal((0, 1, 1)),
        support=(0, 1),
        coefficients=(Fraction(1), Fraction(1)),
    )
    assert not rep.ok
    assert rep.sum_matches and rep.positive_nef and rep.orthogonal
    assert rep.negative_combination
    assert not rep.support_negative_definite
    assert "support Gram matrix is not negative definite" in rep.notes


def test_verify_ambiguous_without_hint():
    # parallel primes make the representation of N underdetermined
    lat = make_lattice([[2, 0], [0, -2]])
    ctx = ConeContext(
        lattice=lat,
        h=primal((1, 0)),
        primes=(primal((0, 1)), primal((0, 2))),
        walls=(),
        monodromy_gens=(),
    )
    with pytest.raises(AmbiguousSupportError):
        verify_decomposition(ctx, primal((1, 2)), primal((1, 0)), primal((0, 2)))
    rep = verify_decomposition(
        ctx, primal((1, 2)), primal((1, 0)), primal((0, 2)),
        support=(1,), coefficients=(Fraction(1),))
    assert rep.ok


def test_verify_on_dependent_primes_from_the_factory():
    # <2> + A_4(-1) with its simple roots and -theta as primes: an affine
    # A~_4 set that sums to zero and passes every make_cone_context check
    gram = [[2, 0, 0, 0, 0]] + [[0] + [-2 * (i == j) + (abs(i - j) == 1) for j in range(4)] for i in range(4)]
    roots = [[0] + [int(i == j) for j in range(4)] for i in range(4)]
    ctx = make_cone_context(make_lattice(gram), primal((1, 0, 0, 0, 0)),
                            [*map(primal, roots), primal((0, -1, -1, -1, -1))])
    with pytest.raises(AmbiguousSupportError, match="^representation of N over the primes is underdetermined"):
        verify_decomposition(ctx, primal((1, 1, 1, 0, 0)), primal((1, 0, 0, 0, 0)), primal((0, 1, 1, 0, 0)))
    rep = verify_decomposition(ctx, primal((1, 1, 1, 0, 0)), primal((0, 0, 0, 0, 0)), primal((1, 1, 1, 0, 0)))
    assert "N is not a combination of the primes" in rep.notes
    assert (rep.support, rep.coefficients, rep.negative_combination) == ((), (), False)


def test_verify_hint_requires_coefficients():
    ctx = _diag_ctx()
    with pytest.raises(AmbiguousSupportError):
        verify_decomposition(
            ctx, primal((1, 2)), primal((1, 0)), primal((0, 2)), support=(0,))


@pytest.mark.parametrize("support, message", [
    ((-1,), r"^support index -1 is not an index into the 1 primes$"),
    ((1,), r"^support index 1 is not an index into the 1 primes$"),
    ((3,), r"^support index 3 is not an index into the 1 primes$"),
    ((True,), r"^support index True is not an index into the 1 primes$"),
    (("0",), r"^support index '0' is not an index into the 1 primes$"),
    ((0, 0), r"^support index 0 is repeated$"),
], ids=("negative", "one past the end", "past the end", "bool", "string", "repeated"))
def test_verify_rejects_a_support_hint_that_is_no_prime_index(support, message):
    # -1 would wrap to the last prime and 3 raise a bare IndexError
    ctx = _diag_ctx()
    with pytest.raises(InvalidQueryError, match=message):
        verify_decomposition(ctx, primal((1, 2)), primal((1, 0)), primal((0, 2)),
                             support=support, coefficients=(Fraction(1),) * len(support))


def test_verify_hint_mismatch():
    ctx = _diag_ctx()
    rep = verify_decomposition(
        ctx, primal((1, 2)), primal((1, 0)), primal((0, 2)),
        support=(0,), coefficients=(Fraction(1),))
    assert not rep.ok
    assert not rep.negative_combination
    assert any("hinted combination" in n for n in rep.notes)


def test_ruling_curve_examples():
    lat2 = make_lattice([[-2]])
    assert ruling_curve_class(lat2, primal((1,))) == dual((-2,))

    lat8 = make_lattice([[-8]])
    assert ruling_curve_class(lat8, primal((1,))) == dual((-2,))

    latd = make_lattice([[2, 0], [0, -2]])
    assert ruling_curve_class(latd, primal((0, 1))) == dual((0, -2))


def test_ruling_curve_primal_lift_is_positive_multiple():
    for gram, e in (
        ([[-2]], (1,)),
        ([[-8]], (1,)),
        ([[2, 0], [0, -2]], (0, 1)),
        ([[2, 1], [1, -4]], (0, 1)),
        ([[2, 1], [1, -4]], (1, -2)),
    ):
        lat = make_lattice(gram)
        ev = primal(e)
        s = q_eval(lat, ev, ev)
        ell = ruling_curve_class(lat, ev)
        assert primal_of_dual(lat, ell) == ev.scaled(Fraction(-2) / s)
        assert Fraction(-2) / s > 0


def test_ruling_curve_rejects_nonnegative_square():
    latd = make_lattice([[2, 0], [0, -2]])
    with pytest.raises(NonNegativeSquareError):
        ruling_curve_class(latd, primal((1, 0)))
    lat_u = make_lattice([[0, 1], [1, 0]])
    with pytest.raises(NonNegativeSquareError):
        ruling_curve_class(lat_u, primal((1, 0)))


def test_denominator_audit_examples():
    ctx = _mixed_ctx()
    dec = zariski_decompose(ctx, primal((1, 1)))
    aud = denominator_audit(ctx, dec, 1)
    assert aud.lcm == 4
    assert aud.support_det == 4
    assert aud.lcm_divides_det
    assert aud.bound.kind == "exact"
    assert aud.bound.exact_value == 24
    assert aud.within_bound is True


def test_denominator_audit_logarithmic_path():
    ctx = _mixed_ctx()
    dec = zariski_decompose(ctx, primal((1, 1)))
    aud = denominator_audit(ctx, dec, 1, exact_threshold=3)
    assert aud.bound.kind == "logarithmic"
    assert aud.within_bound is True


def test_denominator_audit_empty_support():
    ctx = _diag_ctx()
    dec = zariski_decompose(ctx, primal((1, 0)))
    aud = denominator_audit(ctx, dec, 2)
    assert aud.lcm == 1
    assert aud.support_det == 1
    assert aud.lcm_divides_det
    assert aud.within_bound is True


def test_denominator_audit_rejects_bad_cardinality():
    ctx = _diag_ctx()
    dec = zariski_decompose(ctx, primal((1, 2)))
    for card in (0, -3):
        with pytest.raises(InvalidQueryError, match="cardA must be a positive integer"):
            denominator_audit(ctx, dec, card)


def test_random_agreement_with_subset_oracle():
    # D is an integral class divided by k, so the pairings q(E_i, D) that
    # each round solves against are rational for k > 1
    rng = random.Random(20240817)
    for _ in range(30):
        ctx = random_zariski_context(rng)
        for _ in range(4):
            k = rng.choice((1, 2, 3, 6))
            d = primal([Fraction(rng.randint(-5, 5), k) for _ in range(ctx.lattice.rank)])
            dec = zariski_decompose(ctx, d)
            support, coeffs, p_vec, n_vec = brute_force_zariski(ctx, d)
            assert dec.support == support
            assert dec.coefficients == coeffs
            assert dec.positive == p_vec
            assert dec.negative == n_vec
            assert verify_decomposition(ctx, d, dec.positive, dec.negative).ok


def test_result_independent_of_prime_order():
    rng = random.Random(7)
    for _ in range(20):
        ctx = random_zariski_context(rng)
        d = primal([rng.randint(-5, 5) for _ in range(ctx.lattice.rank)])
        dec = zariski_decompose(ctx, d)
        perm = list(range(len(ctx.primes)))
        rng.shuffle(perm)
        ctx2 = make_cone_context(
            ctx.lattice, ctx.h, [ctx.primes[i] for i in perm])
        dec2 = zariski_decompose(ctx2, d)
        assert dec2.positive == dec.positive
        assert dec2.negative == dec.negative
        by_prime = {ctx.primes[i].coords: c
                    for i, c in zip(dec.support, dec.coefficients)}
        by_prime2 = {ctx2.primes[i].coords: c
                     for i, c in zip(dec2.support, dec2.coefficients)}
        assert by_prime == by_prime2


def test_positive_part_is_fixed_point():
    rng = random.Random(99)
    for _ in range(20):
        ctx = random_zariski_context(rng)
        d = primal([rng.randint(-5, 5) for _ in range(ctx.lattice.rank)])
        dec = zariski_decompose(ctx, d)
        again = zariski_decompose(ctx, dec.positive)
        assert again.positive == dec.positive
        assert again.negative.is_zero()
        assert again.support == ()


def test_shift_along_reference_keeps_negative_part():
    # the generated contexts have q(h, E) = 0 for every prime, so the
    # support solve sees the same right-hand side after the shift
    rng = random.Random(3)
    for _ in range(20):
        ctx = random_zariski_context(rng)
        assert all(q_eval(ctx.lattice, ctx.h, e) == 0 for e in ctx.primes)
        d = primal([rng.randint(-5, 5) for _ in range(ctx.lattice.rank)])
        dec = zariski_decompose(ctx, d)
        dec_shift = zariski_decompose(ctx, d + ctx.h)
        assert dec_shift.negative == dec.negative
        assert dec_shift.positive == dec.positive + ctx.h


def test_denominator_divides_support_determinant():
    rng = random.Random(41)
    seen_nontrivial = 0
    for _ in range(40):
        ctx = random_zariski_context(rng)
        d = primal([rng.randint(-5, 5) for _ in range(ctx.lattice.rank)])
        dec = zariski_decompose(ctx, d)
        aud = denominator_audit(ctx, dec, 1)
        assert aud.lcm_divides_det
        if dec.denominator_lcm > 1:
            seen_nontrivial += 1
    assert seen_nontrivial > 0


def test_denominator_audit_bound_values_on_seeded_contexts():
    rng = random.Random(1717)
    for _ in range(40):
        ctx = random_zariski_context(rng)
        d = primal([rng.randint(-5, 5) for _ in range(ctx.lattice.rank)])
        dec = zariski_decompose(ctx, d)
        card = rng.randint(1, 6)
        aud = denominator_audit(ctx, dec, card)
        bound = factorial((4 * card) ** (ctx.lattice.rank - 1))
        assert aud.bound.exact_value == bound
        assert aud == denominator_audit(ctx, dec, card)
        assert aud != denominator_audit(ctx, dec, card + 1)
        assert aud.within_bound is (aud.lcm <= bound)
