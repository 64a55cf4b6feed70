"""sympy as a second, independent oracle; skipped where it is absent."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import smith_normal_form

from .support import det_oracle

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
