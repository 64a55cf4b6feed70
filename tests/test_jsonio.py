"""Exact bound digits against builtin str(); the conftest lifts the
int/str digit limit, so str() is the reference at every size. The
rational forms parse_rational and parse_int accept, the error paths of
parse_vector, parse_int_matrix and of a table's containment list, and
the one-pass read of a vector list against the per-item one."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import bounds, primal
from hklat.jsonio import (SchemaError, _bound_json, _list_of, _vectors, parse_int, parse_int_matrix,
                          parse_rational, parse_vector, table_from_obj)

from .support import BAD_RATIONAL_STRINGS


def _assert_digits(m):
    """The printed digits of m! and, when 4 divides m, of the
    birationality bound 21 * m! at n = 2, rho = 2."""
    cases = [(1, bounds.factorial_or_log(m))]
    if m and m % 4 == 0:
        cases.append((21, bounds.birationality_bound(bounds.BoundQuery(2, m // 4, 2))))
    for prefactor, bv in cases:
        assert _bound_json(bv) == {"exact": str(prefactor * math.factorial(m))}


def test_exact_bound_digits_at_leaf_edges_and_old_cutoff():
    # the first m whose m! passes 36,000 bits, where int-to-decimal
    # printing used to switch algorithms
    cutoff = next(m for m in range(3000, 4000) if math.factorial(m).bit_length() > 36_000)
    for m in (0, 1, 2, 63, 64, 65, 128, 129, cutoff - 1, cutoff):
        _assert_digits(m)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 40_000))
def test_exact_bound_digits_match_builtin_str(m):
    _assert_digits(m)


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
            (["1/2", [3]], "input.x[1]: expected an integer or 'p/q' string"),
            ({"frame": "primal", "coords": [1, "1.5"]},
             "input.x.coords[1]: cannot parse '1.5' as a rational"),
            ({"frame": "primal", "coords": []},
             "input.x.coords: expected a nonempty list of rationals")):
        with pytest.raises(SchemaError) as err:
            parse_vector(coords, "input.x")
        assert str(err.value) == message


def test_parse_int_matrix_takes_int_rows_and_names_the_first_bad_entry():
    assert parse_int_matrix([[2, -1], [-1, 2]], "input.gram") == [[2, -1], [-1, 2]]
    assert parse_int_matrix([[2, "-1"], ["-1", 2]], "input.gram") == [[2, -1], [-1, 2]]
    for rows, message in (
            ([[1, True]], "input.gram[0][1]: expected an integer"),
            ([[1, 0], [0, 1.0]], "input.gram[1][1]: expected an integer"),
            ([[1, "x"]], "input.gram[0][1]: cannot parse 'x' as an integer"),
            ([[1], "1"], "input.gram[1]: expected a list"),
            ([[1], 5], "input.gram[1]: expected a list"),
            ([[1], {}], "input.gram[1]: expected a list"),
            ([], "input.gram: expected a nonempty list of integer rows")):
        with pytest.raises(SchemaError) as err:
            parse_int_matrix(rows, "input.gram")
        assert str(err.value) == message


def test_containment_is_a_list_of_label_pairs():
    rows = [{"label": "E1", "kE": "1", "dE": "0", "center": "p"}]
    for containment, message in (
            ("p<C", "input.containment: expected a list"),
            ([["p", "C"], ["p"]], "input.containment[1]: expected a pair of strings")):
        with pytest.raises(SchemaError) as err:
            table_from_obj({"rows": rows, "containment": containment})
        assert str(err.value) == message


# every kind of coordinate the per-item path meets: ints (huge ones too),
# bools, floats, None, integer, p/q and bad strings, and nested lists
_COORDS = st.one_of(
    st.integers(), st.integers().map(lambda k: k * 10**40), st.booleans(), st.floats(), st.none(),
    st.integers().map(str), st.tuples(st.integers(), st.integers(1, 9)).map("{0[0]}/{0[1]}".format),
    st.sampled_from(BAD_RATIONAL_STRINGS), st.lists(st.integers(), max_size=2))
_ITEMS = st.one_of(
    st.lists(st.integers(), min_size=1, max_size=4), st.lists(_COORDS, max_size=4),
    st.fixed_dictionaries({"frame": st.sampled_from(["primal", "dual"]),
                           "coords": st.lists(_COORDS, max_size=3)}),
    _COORDS)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.lists(st.integers(), min_size=1, max_size=4), max_size=5),
                 st.lists(st.lists(st.integers(), max_size=3) | st.lists(st.integers() | st.booleans(), max_size=3),
                          max_size=3),
                 st.lists(_ITEMS, max_size=5), _COORDS))
def test_vector_list_read_matches_the_per_item_path(value):
    # the one-pass read of a list of int lists, and its fallback, give
    # what parsing item by item gives: the same vectors or the same error
    results = []
    for read in (_vectors, _list_of(parse_vector)):
        try:
            results.append(read(value, "input.walls"))
        except SchemaError as err:
            results.append(str(err))
    assert results[0] == results[1]
    if not isinstance(results[0], str):
        assert all(type(c) is int for v in results[0] for c in v.coords if c.denominator == 1)
