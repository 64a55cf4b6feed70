"""Zariski-type decomposition against a finite list of prime classes.

A class D splits as D = P + N where N is supported on finitely many of
the context's prime exceptional classes, the support Gram matrix is
negative definite, P pairs nonnegatively with every prime, and
q(P, N) = 0. Existence is relative to the supplied prime list: when the
iteration runs into a support whose Gram matrix fails to be negative
definite, D is reported as not pseudo-effective with respect to that
list rather than decomposed approximately.

The solver grows the support greedily. Starting from the primes that
pair negatively with D, it solves the orthogonality conditions
q(D - sum a_i E_i, E_j) = 0 over the current support, then adds any
prime the candidate positive part still pairs negatively with. The
support only grows, so the loop ends after at most len(primes) rounds.
Uniqueness makes the result independent of the grow order and of how a
round is solved: one elimination (``linalg.definite_solve``) of the
support's rows of q(E_i, E_j) and q(E_i, D), both computed once for all
primes, gives its verdict and coefficients. N and P follow the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import bounds, linalg
from .errors import (
    AmbiguousSupportError,
    InconsistentPrimeSetError,
    InvalidQueryError,
    NonNegativeSquareError,
    NotPseudoEffectiveError,
)
from .cones import ConeContext
from .lattice import (
    FramedVector,
    Lattice,
    _rational,
    _vector,
    dual_class,
    primal,
    q_eval,
)


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: FramedVector
    negative: FramedVector
    support: tuple[int, ...]
    coefficients: tuple[int | Fraction, ...]
    denominator_lcm: int


@dataclass(frozen=True)
class VerificationReport:
    """Per-condition breakdown of a claimed decomposition.

    ``ok`` is the conjunction of the four condition fields. The support
    and coefficients are the ones used for the exceptional-combination
    check, whether supplied by the caller or recovered by solving.
    """

    ok: bool
    sum_matches: bool
    positive_nef: bool
    negative_combination: bool
    support_negative_definite: bool
    orthogonal: bool
    support: tuple[int, ...]
    coefficients: tuple[int | Fraction, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class DenominatorAudit:
    """Arithmetic of the coefficient denominators of a decomposition.

    ``support_det`` is |det| of the support Gram submatrix; the lcm of
    the coefficient denominators always divides it, by Cramer's rule.
    ``within_bound`` compares the lcm against factorial((4*cardA)^(rho-1))
    with rho the ambient rank; None means the logarithmic comparison
    was too close to call at the stated precision, which does not occur
    for honestly small lcm values.
    """

    lcm: int
    support_det: int
    lcm_divides_det: bool
    bound: "bounds.BoundValue"
    within_bound: bool | None


def _support_gram(ctx: ConeContext, support) -> list[list[int]]:
    # q(E_i, E_j) over the support; the primes are integral, so are the entries
    ps = [ctx.primes[i].coords for i in support]
    return [[linalg.pairing(ctx.lattice.gram, x, y) for y in ps] for x in ps]


def _combination(ctx: ConeContext, support, coeffs) -> FramedVector:
    # sum_i c_i E_i over the support
    total = [0] * ctx.lattice.rank
    for i, c in zip(support, coeffs):
        total = [t + c * x for t, x in zip(total, ctx.primes[i].coords)]
    return primal(total)


def _rank(vectors) -> int:
    # the rank of integer vectors (see verify_decomposition)
    return len(linalg.symmetric_elimination(linalg.mat_vecs(vectors, vectors)))


def _drop_zeros(support, coeffs) -> tuple[tuple[int, ...], tuple[int | Fraction, ...]]:
    # the nonzero coefficients and their prime indices, by index
    kept = sorted((i, _rational(c)) for i, c in zip(support, coeffs) if c != 0)
    return tuple(i for i, _ in kept), tuple(c for _, c in kept)


def zariski_decompose(ctx: ConeContext, D) -> ZariskiDecomposition:
    """Unique decomposition of D relative to ctx.primes.

    Raises NotPseudoEffectiveError when a support Gram matrix fails to
    be negative definite, and InconsistentPrimeSetError when the solved
    coefficients are not all nonnegative. Zero coefficients are dropped
    from the reported support.
    """
    d_vec = _vector(D, ctx.lattice.rank, "D")
    inter = _support_gram(ctx, range(len(ctx.primes)))
    qd = [linalg.pairing(ctx.lattice.gram, e.coords, d_vec.coords) for e in ctx.primes]
    support = [i for i, x in enumerate(qd) if x < 0]
    coeffs: tuple[Fraction, ...] = ()
    while support:
        gram = [[inter[i][j] for j in support] for i in support]
        solved = linalg.definite_solve(gram, [qd[j] for j in support], -1)
        if solved is None:
            raise NotPseudoEffectiveError(
                "support Gram matrix is not negative definite; input is not "
                "pseudo-effective relative to the supplied primes")
        coeffs = solved[1]
        if any(c < 0 for c in coeffs):
            raise InconsistentPrimeSetError(
                "solved coefficients contain a negative entry")
        # q(P, E_i) = q(D, E_i) - sum_j a_j q(E_j, E_i)
        grown = [i for i, x in enumerate(qd) if i not in support
                 and x < sum(c * inter[j][i] for j, c in zip(support, coeffs))]
        if not grown:
            break
        support += grown
    support_t, coeffs_t = _drop_zeros(support, coeffs)
    negative = _combination(ctx, support_t, coeffs_t)
    denom = lcm(*(c.denominator for c in coeffs_t)) if coeffs_t else 1
    return ZariskiDecomposition(d_vec - negative, negative, support_t, coeffs_t, denom)


def verify_decomposition(
    ctx: ConeContext,
    D,
    P,
    N,
    support: tuple[int, ...] | None = None,
    coefficients: tuple[Fraction, ...] | None = None,
) -> VerificationReport:
    """Check the defining conditions of a claimed decomposition exactly.

    Without a support hint the representation of N over ctx.primes is
    recovered from the normal equations B^T B c = B^T N, B the primes as
    columns, and kept only if sum c_i E_i == N. B^T B is positive
    definite exactly when the primes are independent. For dependent
    primes, a representation exists when appending N L (L the common
    denominator of N) leaves the rank unchanged, and is then
    underdetermined: that is surfaced as AmbiguousSupportError and the
    caller must pass the support and coefficients explicitly. A rank is
    the number of rows ``linalg.symmetric_elimination`` returns on the
    vectors' dot products: each working block stays positive
    semidefinite, and such a block with a zero diagonal entry has a zero
    row and column, so the row-add fix never fires and the elimination
    stops exactly when the block left is zero.
    """
    n = ctx.lattice.rank
    d_vec, p_vec, n_vec = _vector(D, n, "D"), _vector(P, n, "P"), _vector(N, n, "N")
    notes: list[str] = []
    sum_matches = (p_vec + n_vec) == d_vec
    if not sum_matches:
        notes.append("P + N differs from D")
    positive_nef = all(q_eval(ctx.lattice, p_vec, e) >= 0 for e in ctx.primes)
    if not positive_nef:
        notes.append("P pairs negatively with some prime")

    if support is not None:
        if coefficients is None or len(coefficients) != len(support):
            raise AmbiguousSupportError("support hint requires matching coefficients")
        used_support = tuple(support)
        for k, i in enumerate(used_support):
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(ctx.primes):
                raise InvalidQueryError(f"support index {i!r} is not an index into the {len(ctx.primes)} primes")
            if i in used_support[k + 1:]:
                raise InvalidQueryError(f"support index {i} is repeated")
        used_coeffs = tuple(map(_rational, coefficients))
        recon = _combination(ctx, used_support, used_coeffs)
        negative_combination = recon == n_vec and all(c > 0 for c in used_coeffs)
    else:
        ps = [e.coords for e in ctx.primes]
        solved = linalg.definite_solve(linalg.mat_vecs(ps, ps), linalg.mat_vec(ps, n_vec.coords), 1)
        if solved is None:
            whole = n_vec.scaled(lcm(*(c.denominator for c in n_vec.coords))).ints()
            if _rank(ps) == _rank([*ps, whole]):
                raise AmbiguousSupportError(
                    "representation of N over the primes is underdetermined; "
                    "pass support and coefficients explicitly")
        used_support, used_coeffs = _drop_zeros(range(len(ps)), solved[1]) if solved else ((), ())
        if solved is None or _combination(ctx, used_support, used_coeffs) != n_vec:
            negative_combination = False
            used_support, used_coeffs = (), ()
            notes.append("N is not a combination of the primes")
        else:
            negative_combination = all(c > 0 for c in used_coeffs)
            if not negative_combination:
                notes.append("recovered coefficients are not all positive")
    if support is not None and not negative_combination:
        notes.append("hinted combination does not reproduce N with positive coefficients")

    gram = _support_gram(ctx, used_support)
    support_negative_definite = linalg.definite_solve(gram, [0] * len(gram), -1) is not None
    if not support_negative_definite:
        notes.append("support Gram matrix is not negative definite")
    orthogonal = q_eval(ctx.lattice, p_vec, n_vec) == 0
    if not orthogonal:
        notes.append("q(P, N) is nonzero")
    ok = (sum_matches and positive_nef and negative_combination
          and support_negative_definite and orthogonal)
    return VerificationReport(
        ok, sum_matches, positive_nef, negative_combination,
        support_negative_definite, orthogonal, used_support, used_coeffs,
        tuple(notes))


def ruling_curve_class(lattice: Lattice, E: FramedVector) -> FramedVector:
    """The dual class (-2 / q(E,E)) * G E attached to a negative class.

    Its primal lift is the positive multiple (-2/q(E,E)) E of E, so E
    and the returned class generate the same ray up to positive
    scaling.
    """
    E = _vector(E, lattice.rank, "E")
    s = q_eval(lattice, E, E)
    E.ints()
    if s >= 0:
        raise NonNegativeSquareError("ruling class requires negative self-pairing")
    return dual_class(lattice, E).scaled(Fraction(-2) / s)


def denominator_audit(
    ctx: ConeContext,
    dec: ZariskiDecomposition,
    cardA: int,
    exact_threshold: int = bounds.DEFAULT_EXACT_THRESHOLD,
) -> DenominatorAudit:
    """Denominator arithmetic of a decomposition.

    rho is taken to be the ambient lattice rank. The factorial bound is
    evaluated exactly below the threshold and logarithmically above it;
    the logarithmic comparison brackets log10(lcm) against the stated
    relative error and reports None only if the brackets disagree.
    """
    bounds._require_ints(positive=True, cardA=cardA)
    support_det = abs(linalg.det_signature(_support_gram(ctx, dec.support))[0])
    divides = support_det % dec.denominator_lcm == 0
    rho = ctx.lattice.rank
    bound = bounds.factorial_of_power(4 * cardA, rho - 1, exact_threshold)
    within = bounds.log10_compare_int(dec.denominator_lcm, bound)
    return DenominatorAudit(dec.denominator_lcm, support_det, divides, bound, within)
