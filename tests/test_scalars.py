"""The exact scalar form: an integral value is an ``int``, a non-integral
one a ``Fraction``, no float ever leaves the library, and every library
entry point reads a rational the same checked way."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import (
    check_sequence_acc,
    dual,
    dual_class,
    enumerate_negative_classes,
    is_wall_divisor,
    make_table,
    monodromy_orbit,
    primal,
    primal_of_dual,
    reflect,
    ruling_curve_class,
    verify_decomposition,
    zariski_decompose,
)
from hklat.errors import InvalidQueryError

from .support import random_zariski_context, small_fractions
from .test_cones import wall_queries

# decimal, exponent, space-padded and other non-rational strings; the
# first one alone is a million-digit number to Fraction()
_BAD_STRINGS = ("1e1000000", "1E3", "1.5", ".5", "-.5", " 1", "1 ", "+ 1", "1_000", "0x10",
                "1/0", "inf", "")
_BAD_TYPES = (True, False, 1.5, 2.0, None, [1])


# (name, call on one scalar, error for a bad string, error for a bad type)
_ENTRY_POINTS = (
    ("primal", lambda v: primal([1, v]), ValueError, TypeError),
    ("dual", lambda v: dual([v, 1]), ValueError, TypeError),
    ("make_table k", lambda v: make_table([("E", v, 0, "p")]), InvalidQueryError,
     InvalidQueryError),
    ("make_table d", lambda v: make_table([("E", 0, v, "p")]), InvalidQueryError,
     InvalidQueryError),
    ("check_sequence_acc", lambda v: check_sequence_acc([1, v]), InvalidQueryError,
     InvalidQueryError),
)


def test_library_rational_input_is_checked_before_it_is_converted():
    for name, call, string_error, type_error in _ENTRY_POINTS:
        for value in _BAD_STRINGS + _BAD_TYPES:
            error = string_error if isinstance(value, str) else type_error
            start = time.perf_counter()
            with pytest.raises(error):
                call(value)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.01, f"{name}({value!r}) took {elapsed:.3f} s to reject"
        for value in (3, "3", "+6/2", Fraction(6, 2), "007/14", Fraction(-1, -2)):
            call(value)


def exact_form_faults(obj, path: str = "result") -> list[str]:
    """Paths inside a public result that hold a float, or an integral
    value that is not an int."""
    if isinstance(obj, float):
        return [f"{path}: float {obj!r}"]
    if isinstance(obj, Fraction):
        return [f"{path}: integral Fraction {obj!r}"] if obj.denominator == 1 else []
    if dataclasses.is_dataclass(obj):
        return [p for f in dataclasses.fields(obj)
                for p in exact_form_faults(getattr(obj, f.name), f"{path}.{f.name}")]
    if isinstance(obj, (tuple, list)):
        return [p for i, item in enumerate(obj) for p in exact_form_faults(item, f"{path}[{i}]")]
    return []


def test_exact_form_faults_sees_floats_and_integral_fractions():
    assert exact_form_faults((1, Fraction(1, 2), "x", None)) == []
    assert exact_form_faults((Fraction(2, 1),)) == ["result[0]: integral Fraction Fraction(2, 1)"]
    assert exact_form_faults([[0.5]]) == ["result[0][0]: float 0.5"]


_SCALARS = st.one_of(
    st.integers(-6, 6),
    st.sampled_from(small_fractions(6, 4)),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 4)),
)


@given(st.integers(0, 10**9), st.data())
@settings(max_examples=100, deadline=None)
def test_lattice_and_zariski_results_keep_the_exact_form(seed, data):
    ctx = random_zariski_context(random.Random(seed))
    lat, n = ctx.lattice, ctx.lattice.rank
    vectors = st.lists(_SCALARS, min_size=n, max_size=n)
    x = primal(data.draw(vectors, label="x"))
    y = primal(data.draw(vectors, label="y"))
    gamma = dual(data.draw(vectors, label="gamma"))
    factor = data.draw(_SCALARS, label="factor")
    e = ctx.primes[data.draw(st.integers(0, len(ctx.primes) - 1), label="prime")]
    d = primal(data.draw(vectors, label="D"))
    dec = zariski_decompose(ctx, d)
    hint = [Fraction(c) for c in dec.coefficients]
    results = {
        "x": x, "y": y, "gamma": gamma, "x + y": x + y, "x - y": x - y, "-x": -x,
        "x * factor": x.scaled(factor), "reflect": reflect(lat, e, x),
        "dual_class": dual_class(lat, x), "primal_of_dual": primal_of_dual(lat, gamma),
        "round trip": primal_of_dual(lat, dual_class(lat, x)),
        "ruling_curve_class": ruling_curve_class(lat, e), "zariski_decompose": dec,
        "verify": verify_decomposition(ctx, d, dec.positive, dec.negative),
        "verify with hint": verify_decomposition(ctx, d, dec.positive, dec.negative,
                                                 dec.support, hint),
    }
    assert [p for name, r in results.items() for p in exact_form_faults(r, name)] == []


@given(wall_queries())
@settings(max_examples=100, deadline=None)
def test_cone_results_keep_the_exact_form(query):
    ctx, d, budget = query
    results = {
        "monodromy_orbit": monodromy_orbit(ctx, d, budget),
        "enumerate_negative_classes": enumerate_negative_classes(ctx, -2, 3),
        "is_wall_divisor": is_wall_divisor(ctx, d, budget),
    }
    assert [p for name, r in results.items() for p in exact_form_faults(r, name)] == []
