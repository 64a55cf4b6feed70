import math
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hklat import (
    BoundQuery,
    BoundValue,
    birationality_bound,
    factorial_of_power,
    factorial_or_log,
    moduli_bound,
    moduli_dimension,
)
from hklat.bounds import (
    KIND_EXACT,
    KIND_LOGARITHMIC,
    _primes,
    log10_compare_int,
    log10_of_int,
)
from hklat.errors import (
    BoundOverflowError,
    DegenerateDimensionError,
    InvalidQueryError,
)

from .support import log10_factorial_oracle


def _stirling_oracle(m: float) -> float:
    """Leading Stirling terms in floats, for arguments far beyond
    factorial range; the omitted 1/(12m) correction is negligible
    there."""
    return (m + 0.5) * math.log10(m) - m / math.log(10) + 0.5 * math.log10(2 * math.pi)


def test_birationality_examples():
    assert birationality_bound(BoundQuery(1, 1, 1)).exact_value == 10
    assert birationality_bound(BoundQuery(1, 1, 2)).exact_value == 240
    assert birationality_bound(BoundQuery(2, 2, 2)).exact_value == 846720


def test_moduli_dimension_examples():
    assert moduli_dimension(1, 1, 1) == 4
    assert moduli_dimension(1, 2, -1) == 2
    assert moduli_dimension(2, 1, 1) == 10


def test_moduli_dimension_degenerate():
    with pytest.raises(DegenerateDimensionError):
        moduli_dimension(1, 1, -1)


def test_moduli_bound_examples():
    assert moduli_bound(1, 1, 1, 1).exact_value == 21
    assert moduli_bound(1, 1, 1, 2).exact_value == 846720
    assert moduli_bound(2, 1, 1, 1).exact_value == 78


def test_moduli_matches_birationality_on_grid():
    for a in range(1, 4):
        for k in range(1, 4):
            for eps in (1, -1):
                if 2 * a * a * k + 2 * eps <= 0:
                    continue
                dim = moduli_dimension(a, k, eps)
                for rho in range(1, 4):
                    lhs = moduli_bound(a, k, eps, rho)
                    rhs = birationality_bound(BoundQuery(dim // 2, 2 * k, rho))
                    assert lhs.kind == rhs.kind == KIND_EXACT
                    assert lhs.exact_value == rhs.exact_value


def test_birationality_monotone_in_each_argument():
    base = BoundQuery(2, 2, 2)
    v = birationality_bound(base).exact_value
    assert birationality_bound(BoundQuery(3, 2, 2)).exact_value > v
    assert birationality_bound(BoundQuery(2, 3, 2)).exact_value > v
    assert birationality_bound(BoundQuery(2, 2, 3)).exact_value > v


def test_factorial_or_log_exact_path():
    assert factorial_or_log(0).exact_value == 1
    assert factorial_or_log(1).exact_value == 1
    assert factorial_or_log(5).exact_value == 120
    assert factorial_or_log(5).kind == KIND_EXACT
    with pytest.raises(InvalidQueryError):
        factorial_or_log(-1)


def test_factorial_or_log_small_logarithmic_path():
    # below the Stirling cutoff the logarithmic form is log10 of the
    # exact factorial, so it matches the float oracle to float accuracy
    bv = factorial_or_log(500, exact_threshold=100)
    assert bv.kind == KIND_LOGARITHMIC
    oracle = log10_factorial_oracle(500)
    assert abs(float(bv.log10_value) - oracle) <= 1e-11 * oracle


def test_factorial_or_log_stirling_path():
    bv = factorial_or_log(10**4, exact_threshold=10**3)
    assert bv.kind == KIND_LOGARITHMIC
    assert bv.rel_err == Decimal("1e-9")
    assert str(bv.log10_value).startswith("35659.45427452078")
    oracle = log10_factorial_oracle(10**4)
    assert abs(float(bv.log10_value) - oracle) <= 1e-12 * oracle


def test_stirling_agrees_with_exact_across_threshold():
    exact = factorial_or_log(1200)
    assert exact.kind == KIND_EXACT
    log_form = factorial_or_log(1200, exact_threshold=10)
    assert log_form.kind == KIND_LOGARITHMIC
    true_log = Decimal(exact.exact_value).log10()
    assert abs(log_form.log10_value - true_log) <= Decimal("1e-15") * true_log


def test_factorial_of_power_exact():
    assert factorial_of_power(4, 0).exact_value == 1
    assert factorial_of_power(4, 1).exact_value == 24
    assert factorial_of_power(1, 10**9).exact_value == 1
    assert factorial_of_power(2, 10, 1024).exact_value == factorial(1024)


def test_factorial_of_power_materialized_log():
    # 2^10 = 1024 exceeds the threshold but is small enough to compute
    # with, so the factorial_or_log fallback runs on the real integer
    bv = factorial_of_power(2, 10, 1023)
    assert bv.kind == KIND_LOGARITHMIC
    true_log = Decimal(factorial(1024)).log10()
    assert abs(bv.log10_value - true_log) <= Decimal("1e-9") * true_log


def test_factorial_of_power_below_the_stirling_cutoff():
    # an argument under 1000 is always materialized, whatever the
    # threshold, so it never enters the Stirling series below its range
    cases = [(b, 0) for b in (1, 2, 999, 1000, 10**6)]
    cases += [(1, e) for e in (1, 9, 10, 11, 10**9)]
    cases += [(b, e) for b in range(2, 1000) for e in range(1, 10) if b**e < 1000]
    for b, e in cases:
        m = b**e
        below = factorial_or_log(m, m - 1)  # the same value for every t < m
        for t in {-1, m - 1} | {t for t in (0, 1, 15) if t < m}:
            assert factorial_of_power(b, e, t) == below, (b, e, t)
        assert factorial_of_power(b, e, m) == factorial_or_log(m, m)


def test_factorial_of_power_astronomic_argument():
    bv = factorial_of_power(10, 100)
    assert bv.kind == KIND_LOGARITHMIC
    oracle = _stirling_oracle(1e100)
    assert abs(float(bv.log10_value) - oracle) <= 1e-12 * oracle


def test_factorial_of_power_validation():
    with pytest.raises(InvalidQueryError):
        factorial_of_power(0, 2)
    with pytest.raises(InvalidQueryError):
        factorial_of_power(4, -1)


def test_bound_overflow_is_reported():
    with pytest.raises(BoundOverflowError):
        factorial_of_power(10, 10**60)


def test_bound_query_validation():
    for bad in (
        dict(n=0, cardA=1, rho=1),
        dict(n=1, cardA=0, rho=1),
        dict(n=1, cardA=1, rho=0),
        dict(n=-2, cardA=1, rho=1),
        dict(n=True, cardA=1, rho=1),
    ):
        with pytest.raises(InvalidQueryError):
            BoundQuery(**bad)


def test_moduli_validation():
    with pytest.raises(InvalidQueryError):
        moduli_dimension(1, 1, 0)
    with pytest.raises(InvalidQueryError):
        moduli_dimension(0, 1, 1)
    with pytest.raises(InvalidQueryError):
        moduli_bound(1, 1, 1, 0)


def test_bound_value_shape_enforced():
    with pytest.raises(ValueError):
        BoundValue(KIND_EXACT, None, None, None)
    with pytest.raises(ValueError):
        BoundValue(KIND_LOGARITHMIC, 5, Decimal(1), Decimal("1e-9"))
    with pytest.raises(ValueError):
        BoundValue("approximate", 5, None, None)


def test_log10_compare_against_exact_bound():
    bv = factorial_or_log(5)
    assert log10_compare_int(119, bv) is True
    assert log10_compare_int(120, bv) is True
    assert log10_compare_int(121, bv) is False


def test_log10_compare_ignores_the_callers_context():
    bv = factorial_or_log(5000, 0)
    # log10(5000!) is about 16325.6; at 4 digits the bracket would round up
    with localcontext() as ctx:
        ctx.prec = 4
        assert log10_compare_int(10**16329, bv) is False
    assert log10_compare_int(10**16329, bv) is False


def test_log10_compare_bracketing():
    bv = BoundValue(KIND_LOGARITHMIC, None, Decimal(10), Decimal("1e-9"))
    assert log10_compare_int(10**9, bv) is True
    assert log10_compare_int(10**11, bv) is False
    assert log10_compare_int(10**10, bv) is None
    with pytest.raises(InvalidQueryError):
        log10_of_int(0)


@given(st.integers(min_value=0, max_value=300))
def test_exact_factorial_matches_stdlib(m):
    bv = factorial_or_log(m)
    assert bv.exact_value == factorial(m)
    assert str(bv.exact_decimal) == str(factorial(m))


def test_exact_factorial_prints_stdlib_digits_across_the_swing_cutoff():
    # every m over the swing cutoff's 1023/1024 and 2047/2048 edges, the
    # bounds-tables workload's end points, and 9,999; then the sweep again
    # under a 5-digit caller context, which no exact product may round in
    for m in (*range(2101), 4144, 9999, 31528):
        digits = str(factorial(m))
        assert str(factorial_or_log(m).exact_decimal) == digits, m
        if m <= 2100:
            with localcontext() as ctx:
                ctx.prec = 5
                assert str(factorial_or_log(m).exact_decimal) == digits, m


def test_primes_match_trial_division():
    # every m up to 3,000, so each parity and each square of an odd prime
    # meets the odd-only sieve's edges, and the bounds-tables end point
    primes = [k for k in range(2, 31529) if all(k % d for d in range(2, math.isqrt(k) + 1))]
    for m in (*range(3001), 31528):
        assert _primes(m) == primes[:bisect_right(primes, m)], m


@given(st.integers(min_value=1001, max_value=5000))
def test_stirling_within_stated_error(m):
    bv = factorial_or_log(m, exact_threshold=1000)
    assert bv.kind == KIND_LOGARITHMIC
    oracle = log10_factorial_oracle(m)
    assert abs(float(bv.log10_value) - oracle) <= 1e-9 * oracle


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
)
def test_birationality_exact_formula(n, cardA, rho):
    bv = birationality_bound(BoundQuery(n, cardA, rho))
    value = (n + 1) * (2 * n + 3) * factorial((4 * cardA) ** (rho - 1))
    assert bv.kind == KIND_EXACT
    assert bv.exact_value == value
    assert bv == birationality_bound(BoundQuery(n, cardA, rho))
    assert log10_compare_int(value, bv) is True
    assert log10_compare_int(value + 1, bv) is False


_NOT_INTEGERS = (True, False, 5.0, 2.5, Fraction(5), Fraction(1, 2), "5", None)

# (function and argument, error message, call on one value of it, a value it accepts)
_INTEGER_ARGUMENTS = (
    ("factorial_or_log m", "m must be an integer", lambda v: factorial_or_log(v), 5),
    ("factorial_or_log exact_threshold", "exact_threshold must be an integer",
     lambda v: factorial_or_log(5, v), 5),
    ("factorial_of_power base", "base must be an integer", lambda v: factorial_of_power(v, 3), 2),
    ("factorial_of_power exp", "exp must be an integer", lambda v: factorial_of_power(2, v), 3),
    ("factorial_of_power exact_threshold", "exact_threshold must be an integer",
     lambda v: factorial_of_power(2, 3, v), 8),
    ("birationality_bound exact_threshold", "exact_threshold must be an integer",
     lambda v: birationality_bound(BoundQuery(1, 1, 2), v), 4),
    ("moduli_bound exact_threshold", "exact_threshold must be an integer",
     lambda v: moduli_bound(1, 1, 1, 2, v), 8),
    ("moduli_dimension eps", "eps must be an integer", lambda v: moduli_dimension(1, 1, v), 1),
    ("moduli_dimension a", "a must be a positive integer", lambda v: moduli_dimension(v, 1, 1), 1),
    ("moduli_dimension k", "k must be a positive integer", lambda v: moduli_dimension(1, v, 1), 1),
    ("moduli_bound rho", "rho must be a positive integer", lambda v: moduli_bound(1, 1, 1, v), 1),
    ("log10_of_int value", "value must be an integer", lambda v: log10_of_int(v), 2),
    ("log10_compare_int value, exact bound", "value must be an integer",
     lambda v: log10_compare_int(v, factorial_or_log(3)), 6),
    ("log10_compare_int value, logarithmic bound", "value must be an integer",
     lambda v: log10_compare_int(v, factorial_or_log(3, 0)), 6),
)


@pytest.mark.parametrize("label, message, call, good", _INTEGER_ARGUMENTS,
                         ids=[a[0] for a in _INTEGER_ARGUMENTS])
def test_integer_arguments_reject_every_other_type_at_the_call(label, message, call, good):
    # before, factorial_or_log(5.0) kept the float in its recipe and
    # failed later on its digits, factorial_or_log(True) was 1! and
    # moduli_dimension(1, 1, True) was 4
    for value in _NOT_INTEGERS:
        with pytest.raises(InvalidQueryError, match=f"^{message}$"):
            call(value)
    call(good)


def test_log10_of_int_keeps_its_range_rule():
    for value in (0, -3):
        with pytest.raises(InvalidQueryError, match="^log10 comparison requires a positive integer$"):
            log10_of_int(value)
        with pytest.raises(InvalidQueryError, match="^log10 comparison requires a positive integer$"):
            log10_compare_int(value, factorial_or_log(3, 0))


def test_integer_checks_keep_the_range_rules():
    with pytest.raises(InvalidQueryError, match="^factorial argument must be nonnegative$"):
        factorial_or_log(-1)
    with pytest.raises(InvalidQueryError, match=r"^factorial_of_power requires base >= 1 and exp >= 0$"):
        factorial_of_power(0, 1)
    with pytest.raises(InvalidQueryError, match=r"^eps must be \+1 or -1$"):
        moduli_dimension(1, 1, 2)
    # a negative threshold is allowed and means the logarithmic form
    assert factorial_or_log(5, -1).kind == KIND_LOGARITHMIC
    assert factorial_of_power(2, 3, -1).kind == KIND_LOGARITHMIC
