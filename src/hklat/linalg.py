"""Exact integer and rational linear algebra helpers.

Matrices are sequences of rows, vectors are flat sequences. Two
fraction-free (Bareiss) elimination kernels do all the exact work, so
intermediate values stay integral and nothing is ever rounded:

* ``symmetric_elimination`` reduces an integer symmetric matrix by
  congruence. Its k-th pivot is the k-th leading principal minor of a
  congruent matrix, so the pivots give the determinant and the
  signature (Sylvester's law of inertia); on [M | b], ``definite_solve``
  reads both a definiteness verdict and the solution off one pass.
* ``solve_general`` brings a rational system, cleared row by row to
  integers, to echelon form. Both solves end in ``_back_substitute``,
  which alone builds a Fraction, and imports ``fractions`` (and with it
  ``decimal``).

``pairing`` is the one x^T G y used by the lattice and cone modules.
Two kernels batch over a list of vectors and work a column of
coordinates at a time: ``squares`` is the batched ``pairing(g, x, x)``
and ``mat_vecs`` the batched ``mat_vec``.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Sequence


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum(map(mul, row, v)) for row in a]


def mat_vecs(a: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """A v as a tuple for each integer vector v of a list, the batched
    ``mat_vec``; an empty list gives ``[]``.

    Works on the columns of coordinates: row i of A builds the i-th
    coordinate of every image at once, with one ``map`` over the whole
    list per nonzero entry of the row (an entry of 1 adds the column as
    it is). A zero row gives a zero coordinate. Each image depends only
    on its own v and A.
    """
    if not vectors:
        return []
    cols = list(zip(*vectors))
    zeros = (0,) * len(vectors)
    out = []
    for row in a:
        acc = None
        for col, x in zip(cols, row):
            if x:
                term = col if x == 1 else map(mul, col, repeat(x))
                acc = term if acc is None else map(add, acc, term)
        out.append(zeros if acc is None else acc)
    return list(zip(*out))


def pairing(g: Sequence[Sequence], x: Sequence, y: Sequence):
    """x^T G y, skipping the zero coordinates of x."""
    total = 0
    for row, xi in zip(g, x):
        if xi:
            total += xi * sum(map(mul, row, y))
    return total


def squares(g: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> list[int]:
    """x^T G x for each integer vector x of a list, the batched
    ``pairing(g, x, x)``.

    Works on the columns of coordinates: row i of the symmetric G adds
    x_i (g_ii x_i + sum_{j>i} 2 g_ij x_j) to every square at once, with
    one ``map`` over the whole list per nonzero entry on or above the
    diagonal. Each square depends only on its own x and G.
    """
    if not vectors:
        return []
    cols = list(zip(*vectors))
    total = [0] * len(vectors)
    for i, row in enumerate(g):
        acc = None
        for j in range(i, len(row)):
            if row[j]:
                term = map(mul, cols[j], repeat(row[j] if j == i else 2 * row[j]))
                acc = term if acc is None else map(add, acc, term)
        if acc is not None:
            total = list(map(add, total, map(mul, cols[i], acc)))
    return total


def symmetric_elimination(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Fraction-free congruence reduction of an integer symmetric matrix.

    Returns the pivot rows: ``rows[k][k]`` is the k-th pivot and
    ``rows[k][j]`` for j > k the rest of the working row at that step.
    A zero diagonal is fixed symmetrically, by swapping in a later
    nonzero diagonal entry or else by adding a later row and column that
    meet it nonzero; both are congruences of determinant one, so the
    k-th pivot is the k-th leading minor of a congruent matrix. When
    neither helps, the form is degenerate and the rows found so far are
    returned. Without any such fix, as for a definite matrix, the rows
    are those of m itself. Columns past the n-th ride along.
    """
    n = len(m)
    a = [[int(x) for x in row] for row in m]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][i]), None)
            if i is not None:
                a[k], a[i] = a[i], a[k]
                for row in a[k:]:
                    row[k], row[i] = row[i], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    return a[:k]
                a[k][k:] = map(add, a[k][k:], a[j][k:])
                for r in range(k, n):
                    a[r][k] += a[r][j]
        p = a[k][k]
        tail = a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return a


def det_signature(m: Sequence[Sequence[int]]) -> tuple[int, tuple[int, int]]:
    """Determinant and signature (positive, negative) of a symmetric
    integer matrix, from one call to ``symmetric_elimination``.

    The last pivot is the determinant; each sign change along 1 and the
    pivots is one negative square. A degenerate matrix has determinant
    0, and its signature then counts only the pivots found.
    """
    prev, pos, neg = 1, 0, 0
    rows = symmetric_elimination(m)
    for k, row in enumerate(rows):
        if (row[k] < 0) != (prev < 0):
            neg += 1
        else:
            pos += 1
        prev = row[k]
    return (prev if len(rows) == len(m) else 0), (pos, neg)


def definite_solve(m: Sequence[Sequence[int]], b: Sequence, sign: int) -> tuple[list[list[int]], tuple[Fraction, ...]] | None:
    """Pivot rows of [m | L b], L the common denominator of b, and the
    solution of m x = b when sign * m is positive definite (sign 1 or
    -1); otherwise None. By Sylvester's criterion that is when no row is
    missing and pivot k has the sign of sign**(k+1); then no zero
    diagonal was fixed, so the rows are those of the integral m.
    """
    n = len(m)
    col, den = _cleared(b)
    rows = symmetric_elimination([[*row, x] for row, x in zip(m, col)])
    if len(rows) < n or any(row[k] * sign ** (k + 1) <= 0 for k, row in enumerate(rows)):
        return None
    return rows, _back_substitute(rows, range(n), n, den)


def _cleared(values: Sequence) -> tuple[list[int], int]:
    # integers v and the lcm L of the denominators, with values = v / L
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _back_substitute(rows: Sequence[Sequence[int]], cols: Sequence[int], n: int, den: int) -> tuple[Fraction, ...]:
    # x / den for echelon rows with pivot columns cols, the right-hand
    # side in column n, and free variables zero. The last pivot d is the
    # determinant of the pivot rows and columns, so by Cramer's rule
    # y = d x is integral and every division is exact
    d = rows[len(cols) - 1][cols[-1]] if cols else 1
    y = [0] * n
    for row, c in reversed(list(zip(rows, cols))):
        y[c] = (d * row[n] - sum(map(mul, row[c + 1:n], y[c + 1:]))) // row[c]
    from fractions import Fraction
    return tuple(Fraction(v, d * den) for v in y)


def solve_general(a: Sequence[Sequence], b: Sequence) -> tuple[tuple[Fraction, ...] | None, int]:
    """Fraction-free solve of a rectangular rational system.

    Rows are cleared to integers first, the forward pass is Bareiss
    elimination to echelon form (a column without a pivot is a free
    variable), and back substitution stays integral up to one division
    per coordinate at the very end. Returns (particular solution with
    free variables set to zero, number of free variables), or (None, 0)
    when the system is inconsistent.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [_cleared([*row, rhs])[0] for row, rhs in zip(a, b)]
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][c]
        tail = aug[r][c + 1:]
        for row in aug[r + 1:]:
            f = row[c]
            row[c + 1:] = [(x * p - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        pivots.append(c)
        prev = p
    if any(row[n] for row in aug[len(pivots):]):
        return None, 0
    return _back_substitute(aug, pivots, n, 1), n - len(pivots)
