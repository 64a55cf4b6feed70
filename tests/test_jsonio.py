"""decimal_str against builtin str(); the conftest lifts the int/str
digit limit, so str() is the reference at every size. The rational
forms parse_rational and parse_int accept, and the error paths of
parse_vector."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import primal
from hklat.jsonio import (_DECIMAL_CUTOFF_BITS, SchemaError, decimal_str, parse_int, parse_rational,
                          parse_vector)

from .support import BAD_RATIONAL_STRINGS

# decimal digits of the largest integer below the cutoff
CUTOFF_DIGITS = math.floor(_DECIMAL_CUTOFF_BITS * math.log10(2))


@st.composite
def signed_ints(draw):
    """Integers of up to three times the cutoff bit length, either sign,
    about half of them past the cutoff."""
    bits = draw(st.one_of(st.integers(0, 64), st.integers(0, 3 * _DECIMAL_CUTOFF_BITS)))
    magnitude = draw(st.randoms(use_true_random=False)).getrandbits(bits) if bits else 0
    return draw(st.sampled_from((1, -1))) * magnitude


@settings(max_examples=60, deadline=None)
@given(signed_ints())
def test_decimal_str_matches_builtin_str(n):
    assert decimal_str(n) == str(n)


def test_decimal_str_at_edges():
    cases = [0, 1, -1, 2**_DECIMAL_CUTOFF_BITS, 2**_DECIMAL_CUTOFF_BITS - 1,
             2**(_DECIMAL_CUTOFF_BITS - 1), 2**(2 * _DECIMAL_CUTOFF_BITS + 1) + 1]
    for k in range(CUTOFF_DIGITS - 2, CUTOFF_DIGITS + 3):
        cases += [10**k, 10**k - 1, 10**k + 1]
    assert any(n.bit_length() <= _DECIMAL_CUTOFF_BITS for n in cases)
    assert any(n.bit_length() > _DECIMAL_CUTOFF_BITS for n in cases)
    for n in cases:
        assert decimal_str(n) == str(n)
        assert decimal_str(-n) == str(-n)


@settings(max_examples=8, deadline=None)
@given(st.integers(4096, 32768))
def test_decimal_str_of_factorials(m):
    n = math.factorial(m)
    assert n.bit_length() > _DECIMAL_CUTOFF_BITS
    assert decimal_str(n) == str(n)


def test_decimal_str_with_long_runs_of_equal_bits():
    # split halves that are all ones, all zeros or leading-zero padded
    rng = random.Random(3)
    n = (2**90_000 - 1) * 2**5_000 + rng.getrandbits(4_000)
    assert decimal_str(n) == str(n)


def test_parse_rational_accepts_integers_and_p_over_q_only():
    for text, value in (("3", 3), ("-3", -3), ("+3", 3), ("007", 7), ("2/4", Fraction(1, 2)),
                        ("-1/3", Fraction(-1, 3)), ("1/01", 1)):
        assert parse_rational(text, "input.x") == value
    for text in BAD_RATIONAL_STRINGS:
        with pytest.raises(SchemaError, match=r"^input\.x: cannot parse"):
            parse_rational(text, "input.x")


def test_parse_int_accepts_decimal_integer_strings_only():
    for text, value in (("3", 3), ("-3", -3), ("+3", 3), ("007", 7), ("-0", 0)):
        assert parse_int(text, "input.n") == value
    # what int() alone also accepts: padding, underscores, other digits
    for text in (*BAD_RATIONAL_STRINGS, "1_2", " 3 ", "\u0663", "3\n", "2/1"):
        with pytest.raises(SchemaError, match=r"^input\.n: cannot parse"):
            parse_int(text, "input.n")


def test_parse_vector_converts_each_coordinate_and_names_the_first_bad_one():
    assert parse_vector([1, "2/4", "-3"], "input.x") == primal([1, Fraction(1, 2), -3])
    assert parse_vector({"frame": "primal", "coords": ["4/2"]}, "input.x").coords == (2,)
    for coords, message in (
            ([1, 2, 1.5], "input.x[2]: expected an integer or 'p/q' string"),
            ([1, "1.5", None], "input.x[1]: cannot parse '1.5' as a rational"),
            ([True, "x"], "input.x[0]: expected an integer or 'p/q' string"),
            (["1/2", [3]], "input.x[1]: expected an integer or 'p/q' string")):
        with pytest.raises(SchemaError) as err:
            parse_vector(coords, "input.x")
        assert str(err.value) == message
