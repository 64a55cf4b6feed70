"""Effective birationality bounds, exactly or in logarithmic form.

The central quantity is prefactor * ((base)^(rho-1))! where the
factorial argument explodes quickly. Below a caller-set threshold the
bound is exact: it keeps its recipe (prefactor, m) and builds its
digits as a Decimal, or the big integer when ``exact_value`` is first
read. Above the threshold the value is carried as log10 with a stated
relative error of 1e-9, computed from the Stirling series with an
explicit remainder bound, so the two representations are
interchangeable up to documented precision and nothing silently
degrades to floating point.

Exact digits come from m! built inside ``decimal``, whose str() is
linear, where str() of a big int is quadratic before CPython 3.12. From
m = 1024 on, m! follows the prime-swing recursion n! = h * (h * swing(n))
with h = (n // 2)!: swing(n) is a product of prime powers with only
about n bits, so most of the work is the two large multiplications at
each level. A balanced product of 1..m would instead spend much of its
time at middle sizes, a few thousand digits per factor, where libmpdec
multiplies almost as slowly as at twice the size, because its
number-theoretic transform starts only once a product passes about
1,024 words of 19 digits. Below m = 1024 the factorial is that balanced
product of 1..m: near 1024 one swing level costs as much as it saves,
and below it the sieve and the swing make it slower.

All logarithmic Decimal work runs at 50 significant digits. The series
used is

    ln m! = (m + 1/2) ln m - m + ln(2 pi)/2
            + 1/(12 m) - 1/(360 m^3) + 1/(1260 m^5) - 1/(1680 m^7)

whose remainder is below 1/(1188 m^9); the logarithmic path only runs
for m >= 1000, where that remainder is under 1e-27 and the stated
1e-9 is extremely conservative. For m below 1000 the logarithmic form
is taken as log10 of the exact factorial instead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, localcontext)
from functools import cached_property
from itertools import compress
from math import factorial, isqrt, prod

from . import DEFAULT_EXACT_THRESHOLD
from .errors import BoundOverflowError, DegenerateDimensionError, InvalidQueryError

STATED_REL_ERR = Decimal("1e-9")

_SMALL_LOG_CUTOFF = 1000
_CONTEXT = Context(prec=50, traps=[InvalidOperation, DivisionByZero, Overflow])
# unbounded precision and exponent range with Inexact trapped: a product
# here is exact or raises, it never prints a wrong digit
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, InvalidOperation, Overflow])
# factors multiplied as ints in each leaf of a _product tree, consecutive
# integers or the prime powers of a swing; 32 and 64 measured alike
_LEAF_FACTORS = 64
# the prime-swing recursion ends in a plain _product below this argument;
# one swing level over a plain _product breaks even near m = 1024 (227
# against 229 us, CPython 3.11.7 on a 2-CPU VM), and cutoffs from 256 to
# 2048 measured alike over the factorial arguments the benchmark
# workloads draw
_SWING_CUTOFF = 1024
# Decimal carries no pi; 60 digits, more than _CONTEXT's 50 need.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
# the two constants of the Stirling series in _log10_factorial
with localcontext(_CONTEXT):
    _HALF_LN_2PI = (2 * _PI).ln() / 2
    _LN_10 = Decimal(10).ln()

KIND_EXACT = "exact"
KIND_LOGARITHMIC = "logarithmic"


def _product(factors) -> Decimal:
    """The product of a sequence of ints as a Decimal, by a balanced tree.

    Each leaf is the int product of _LEAF_FACTORS factors, converted with
    Decimal(int); the leaves are multiplied pairwise, balanced, in _EXACT.
    """
    level = [Decimal(prod(factors[lo:lo + _LEAF_FACTORS]))
             for lo in range(0, len(factors), _LEAF_FACTORS)] or [Decimal(1)]
    while len(level) > 1:
        pairs = map(_EXACT.multiply, level[::2], level[1::2])
        level = [*pairs, level[-1]] if len(level) % 2 else list(pairs)
    return level[0]


def _primes(m: int) -> list[int]:
    """The primes up to m: 2, then a sieve of Eratosthenes over the odd
    numbers in a bytearray, whose entry i stands for 2i + 1."""
    if m < 2:
        return []
    sieve = bytearray([1]) * ((m + 1) // 2)
    sieve[0] = 0
    for i in range(1, (isqrt(m) + 1) // 2):
        if sieve[i]:
            # the odd multiples of p from p * p on, p entries apart
            p = 2 * i + 1
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *compress(range(1, m + 1, 2), sieve)]


def _swing_factors(n: int, primes: list[int]) -> list[int]:
    """The prime powers whose product is swing(n) = n! / (floor(n/2)!)^2.

    p divides swing(n) to the power sum_k (floor(n/p^k) mod 2). Above
    sqrt(n) only k = 1 counts, so those primes enter once each exactly
    when floor(n/p) is odd: the primes in (n/(j+1), n/j] for odd j.
    """
    root = isqrt(n)
    factors = []
    for p in primes[:bisect_right(primes, root)]:
        q, e = n // p, 0
        while q:
            e += q & 1
            q //= p
        if e:
            factors.append(p**e)
    # while n // j > root, n // (j + 1) >= root: the slices hold no prime
    # the loop above took
    for j in range(1, root + 1, 2):
        hi = n // j
        if hi <= root:
            break
        factors += primes[bisect_right(primes, n // (j + 1)):bisect_right(primes, hi)]
    return factors


def _decimal_factorial(m: int) -> Decimal:
    """m! as a Decimal, by the prime-swing recursion (Borwein, J.
    Algorithms 6, 1985; Luschny's swing factorial).

    n! = h * (h * swing(n)) with h = (n // 2)!, for n = m, m // 2, ...
    down to the first n below _SWING_CUTOFF, whose n! is the _product of
    1..n; so small factorials take no sieve. Each swing is the balanced
    _product of its prime powers, all drawn from one sieve of the primes
    up to m. The nested order saves one full-length transform against
    h^2 * swing: at m = 31,528 its two products took 2.6 + 6.3 ms,
    against 4.3 + 6.7 ms for h^2 and then the swing (best of 30, CPython
    3.11.7 on a 2-CPU x86_64 VM).
    """
    levels = []
    while m >= _SWING_CUTOFF:
        levels.append(m)
        m //= 2
    f = _product(range(1, m + 1))
    if levels:
        primes = _primes(levels[0])
        for n in reversed(levels):
            f = _EXACT.multiply(f, _EXACT.multiply(f, _product(_swing_factors(n, primes))))
    return f


@dataclass(frozen=True)
class BoundValue:
    """Either exact, prefactor * m! carried as its recipe (prefactor, m),
    or log10 with a stated error bound."""

    kind: str
    recipe: tuple[int, int] | None
    log10_value: Decimal | None
    rel_err: Decimal | None

    def __post_init__(self):
        if self.kind == KIND_EXACT:
            if self.recipe is None or self.log10_value is not None:
                raise ValueError("exact kind carries recipe only")
        elif self.kind == KIND_LOGARITHMIC:
            if self.log10_value is None or self.recipe is not None:
                raise ValueError("logarithmic kind carries log10_value only")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @cached_property
    def exact_value(self) -> int | None:
        """The exact bound as an int, computed when first read."""
        if self.recipe is None:
            return None
        prefactor, m = self.recipe
        return prefactor * factorial(m)

    @cached_property
    def exact_decimal(self) -> Decimal | None:
        """The exact bound as an integral Decimal, whose str() is its digits."""
        if self.recipe is None:
            return None
        prefactor, m = self.recipe
        return _EXACT.multiply(prefactor, _decimal_factorial(m))


def _require_positive(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidQueryError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class BoundQuery:
    """n is the half-dimension, cardA the discriminant-group order, rho
    the Picard number (or h^{1,1} for the family-wide reading)."""

    n: int
    cardA: int
    rho: int

    def __post_init__(self):
        for name in ("n", "cardA", "rho"):
            _require_positive(name, getattr(self, name))


def _exact(prefactor: int, m: int) -> BoundValue:
    return BoundValue(KIND_EXACT, (prefactor, m), None, None)


def _logarithmic(log10_value: Decimal) -> BoundValue:
    return BoundValue(KIND_LOGARITHMIC, None, log10_value, STATED_REL_ERR)


def _log10_factorial(m_dec: Decimal, ln_m: Decimal) -> Decimal:
    # Stirling series; caller guarantees m >= _SMALL_LOG_CUTOFF and runs
    # this in _CONTEXT
    half = Decimal(1) / 2
    ln_fact = (m_dec + half) * ln_m - m_dec + _HALF_LN_2PI
    m2 = m_dec * m_dec
    m3 = m2 * m_dec
    m5 = m3 * m2
    m7 = m5 * m2
    ln_fact += (Decimal(1) / (12 * m_dec) - Decimal(1) / (360 * m3)
                + Decimal(1) / (1260 * m5) - Decimal(1) / (1680 * m7))
    return ln_fact / _LN_10


def factorial_or_log(m: int, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> BoundValue:
    """m! exactly when m <= exact_threshold, else its log10."""
    if m < 0:
        raise InvalidQueryError("factorial argument must be nonnegative")
    if m <= exact_threshold:
        return _exact(1, m)
    try:
        with localcontext(_CONTEXT):
            if m < _SMALL_LOG_CUTOFF:
                return _logarithmic(Decimal(factorial(m)).log10())
            m_dec = +Decimal(m)
            return _logarithmic(_log10_factorial(m_dec, m_dec.ln()))
    except Overflow as exc:
        raise BoundOverflowError("logarithmic representation overflowed") from exc


def factorial_of_power(base: int, exp: int, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> BoundValue:
    """factorial(base**exp) without materializing astronomic arguments.

    The exact path requires base**exp <= exact_threshold. Otherwise an
    argument of at least 1000 enters the Stirling series as a 50-digit
    Decimal computed by exponentiation, never as a full integer, so
    cardA and rho far beyond any geometric range still evaluate in
    microseconds.
    """
    if base < 1 or exp < 0:
        raise InvalidQueryError("factorial_of_power requires base >= 1 and exp >= 0")
    # base**exp >= 2**bits; it is materialized when it may be within the
    # threshold, then at most (bits + exp) bits, or when it is below the
    # Stirling cutoff, which needs bits < 10
    bits = (base.bit_length() - 1) * exp
    if ((0 <= exact_threshold and bits <= exact_threshold.bit_length())
            or (bits < 10 and base**exp < _SMALL_LOG_CUTOFF)):
        return factorial_or_log(base**exp, exact_threshold)
    try:
        with localcontext(_CONTEXT):
            ln_m = exp * Decimal(base).ln()
            m_dec = (ln_m).exp()
            return _logarithmic(_log10_factorial(m_dec, ln_m))
    except Overflow as exc:
        raise BoundOverflowError("factorial argument exceeds representable exponents") from exc


def log10_of_int(value: int) -> Decimal:
    if value < 1:
        raise InvalidQueryError("log10 comparison requires a positive integer")
    with localcontext(_CONTEXT):
        return Decimal(value).log10()


def log10_compare_int(value: int, bound: BoundValue) -> bool | None:
    """Whether value <= bound; exact for an exact bound, else bracketing
    the stated relative error. None when the brackets disagree."""
    if bound.kind == KIND_EXACT:
        # comparing two Decimals is exact in any context
        return Decimal(value) <= bound.exact_decimal
    lv = log10_of_int(value)
    with localcontext(_CONTEXT):
        lo = bound.log10_value * (1 - bound.rel_err)
        hi = bound.log10_value * (1 + bound.rel_err)
    if bound.log10_value < 0:
        lo, hi = hi, lo
    if lv <= lo:
        return True
    if lv > hi:
        return False
    return None


def birationality_bound(query: BoundQuery, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> BoundValue:
    """(n+1)(2n+3) * ((4*cardA)^(rho-1))!

    The prefactor is (1/2)(2n+2)(2n+3), always an integer. The bracket
    is read as grouping: the factorial applies to the whole power.
    """
    prefactor = (query.n + 1) * (2 * query.n + 3)
    tail = factorial_of_power(4 * query.cardA, query.rho - 1, exact_threshold)
    if tail.kind == KIND_EXACT:
        return _exact(prefactor * tail.recipe[0], tail.recipe[1])
    with localcontext(_CONTEXT):
        return _logarithmic(tail.log10_value + Decimal(prefactor).log10())


def moduli_dimension(a: int, k: int, eps: int) -> int:
    """2 a^2 k + 2 eps, with eps = +1 or -1; must come out positive."""
    _require_positive("a", a)
    _require_positive("k", k)
    if eps not in (1, -1):
        raise InvalidQueryError("eps must be +1 or -1")
    dim = 2 * a * a * k + 2 * eps
    if dim <= 0:
        raise DegenerateDimensionError(f"dimension 2*{a}^2*{k} + 2*({eps}) = {dim} is not positive")
    return dim


def moduli_bound(a: int, k: int, eps: int, rho: int,
                 exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> BoundValue:
    """(1/2)(dim+2)(dim+3) * ((8k)^(rho-1))! with dim = 2 a^2 k + 2 eps,
    which is birationality_bound at n = dim/2, cardA = 2k."""
    _require_positive("rho", rho)
    dim = moduli_dimension(a, k, eps)
    return birationality_bound(BoundQuery(dim // 2, 2 * k, rho), exact_threshold)
