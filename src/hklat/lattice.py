"""Integral lattices with a nondegenerate symmetric bilinear form.

Conventions used throughout the package:

* A lattice is described by its integer Gram matrix ``G``; the pairing
  of coordinate vectors is ``x^T G y``. The form is taken as ground
  truth and never rescaled.
* All arithmetic is exact, over ``int`` and ``fractions.Fraction``: a
  scalar is an ``int`` when integral and a ``Fraction`` otherwise. Input
  scalars are ints, Fractions, or integer or ``p/q`` strings; any other
  type (float and bool too) is a TypeError, any other string a
  ValueError. Floating point never enters. ``fractions`` imports
  ``decimal``, so only the functions that check or build a Fraction
  import it; ``make_lattice`` and ``discriminant_group`` never do.
* Coordinates carry a frame. A ``primal`` vector is written in the
  lattice basis, a ``dual`` vector in the dual basis, and the two are
  never identified silently: conversion goes through ``dual_class``
  (multiplication by ``G``) or ``primal_of_dual`` (exact solve against
  ``G``). ``_vector`` checks every vector argument here, in ``cones``
  and ``zariski``, and of ``+``/``-``: a coordinate sequence is read
  as ``primal``, a wrong frame is a ``FrameError`` and a wrong length a
  ``ShapeError`` naming the argument.
* ``make_lattice`` takes the determinant and the signature from one
  fraction-free congruence reduction of the Gram matrix
  (``linalg.det_signature``), not from any numerical eigenvalue
  routine. Every pairing x^T G y goes through ``linalg.pairing`` and
  every G x through ``linalg.mat_vec``; ``primal_of_dual`` solves the
  normal equations G^2 x = G gamma with ``linalg.definite_solve``.
* ``smith_normal_form`` diagonalizes one bordered matrix
  ``[[M, I_m], [I_n, 0]]`` (Cohen, GTM 138, section 2.4.4). Row
  operations on M carry the identity on its right along, which becomes
  U; column operations carry the identity below it, which becomes V.
  ``discriminant_group`` runs the same elimination on a bare copy of
  the Gram matrix and reads only the diagonal, so it builds no
  transform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import gcd, prod
from typing import Sequence, Union

from . import linalg
from .errors import (
    DegenerateFormError,
    FrameError,
    NonIntegralError,
    NonSymmetricError,
    ShapeError,
    SingularSystemError,
    ZeroVectorError,
)

Rational = Union[int, str, "Fraction"]

# the accepted rational strings: an integer, or p/q with q > 0
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


class Frame(str, Enum):
    PRIMAL = "primal"
    DUAL = "dual"


def _rational(value: Rational) -> int | Fraction:
    # the one exact-scalar conversion; see the module docstring
    if type(value) is int:
        return value
    from fractions import Fraction
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if not match:
            raise ValueError(f"cannot parse {value!r} as a rational")
        p, q = match.groups()
        value = Fraction(int(p), int(q)) if q else int(p)
    elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int, a Fraction or a rational string, not {type(value).__name__}")
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True, slots=True)
class FramedVector:
    """Rational coordinate vector tagged with the frame it lives in."""

    frame: Frame
    coords: tuple[int | Fraction, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def ints(self) -> tuple[int, ...]:
        """The coordinates, all ints, or NonIntegralError."""
        if not self.is_integral():
            raise NonIntegralError(f"vector {self.coords} is not integral")
        return tuple(map(int, self.coords))

    def scaled(self, factor: Rational) -> "FramedVector":
        f = _rational(factor)
        return FramedVector(self.frame, tuple(_rational(f * c) for c in self.coords))

    def __neg__(self) -> "FramedVector":
        return FramedVector(self.frame, tuple(-c for c in self.coords))

    def __add__(self, other: "FramedVector") -> "FramedVector":
        other = _vector(other, len(self.coords), "other", self.frame)
        return FramedVector(self.frame, tuple(_rational(a + b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FramedVector") -> "FramedVector":
        other = _vector(other, len(self.coords), "other", self.frame)
        return FramedVector(self.frame, tuple(_rational(a - b) for a, b in zip(self.coords, other.coords)))


def primal(coords: Sequence[Rational]) -> FramedVector:
    """Vector in the lattice basis."""
    return FramedVector(Frame.PRIMAL, tuple(map(_rational, coords)))


def dual(coords: Sequence[Rational]) -> FramedVector:
    """Vector in the dual basis."""
    return FramedVector(Frame.DUAL, tuple(map(_rational, coords)))


def _vector(v, n: int, what: str, frame: Frame = Frame.PRIMAL) -> FramedVector:
    # the one vector-argument check (see the module docstring): a
    # FramedVector is returned as it is, never rebuilt
    if not isinstance(v, FramedVector):
        v = primal(v)
    if v.frame is not frame:
        raise FrameError(f"expected a {frame.value} vector, got {v.frame.value}")
    if len(v.coords) != n:
        raise ShapeError(f"{what} has length {len(v.coords)}, expected {n}")
    return v


@dataclass(frozen=True)
class Lattice:
    """Integral lattice: Gram matrix, rank, signature, determinant.

    Construct through ``make_lattice``, which checks symmetry and
    nondegeneracy and computes the signature exactly.
    """

    gram: tuple[tuple[int, ...], ...]
    rank: int
    signature: tuple[int, int]
    det: int


@dataclass(frozen=True)
class DiscriminantGroup:
    """Finite quotient L*/L: invariant factors > 1 and total order."""

    invariant_factors: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V diagonal with the invariant-factor divisibility chain."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def _int_rows(rows: Sequence[Sequence[int]], width: int, what: str) -> list[tuple[int, ...]]:
    # the one integer-matrix check, row by row: a row of the wrong width, or
    # an entry that is not an int (a bool, float, Fraction or string), is a ShapeError
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(f"{what} row {i} has length {len(row)}, expected {width}")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in row):
            raise ShapeError(f"{what} entries must be integers")
        out.append(tuple(row))
    return out


def make_lattice(gram: Sequence[Sequence[int]]) -> Lattice:
    """Validated lattice from a symmetric nondegenerate integer matrix."""
    n = len(gram)
    if n == 0:
        raise ShapeError("Gram matrix must be nonempty")
    rows = _int_rows(gram, n, "Gram")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NonSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")
    det, signature = linalg.det_signature(rows)
    if det == 0:
        raise DegenerateFormError("Gram matrix is singular")
    return Lattice(tuple(rows), n, signature, det)


def q_eval(lattice: Lattice, x: FramedVector, y: FramedVector) -> Fraction:
    """The form x^T G y, always a Fraction. Both arguments must be primal."""
    x = _vector(x, lattice.rank, "x")
    y = _vector(y, lattice.rank, "y")
    from fractions import Fraction
    return Fraction(linalg.pairing(lattice.gram, x.coords, y.coords))


def dual_pairing(gamma: FramedVector, x: FramedVector) -> Fraction:
    """Evaluation of a dual vector on a primal one of the same length."""
    gamma = _vector(gamma, len(gamma), "gamma", Frame.DUAL)
    x = _vector(x, len(gamma.coords), "x")
    from fractions import Fraction
    return Fraction(sum(a * b for a, b in zip(gamma.coords, x.coords)))


def _diagonalize(w: list[list[int]], m: int, n: int) -> None:
    # Smith form of the leading m x n block of w, in place. Row operations
    # touch only the first m rows and column operations only the first n
    # columns, but each acts on the whole row or column of w, so any
    # border the caller attached records the transforms. The pivot is the
    # surviving entry of smallest absolute value, ties broken by position.
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(w[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        if best is None:
            break
        _, i, j = best
        w[t], w[i] = w[i], w[t]
        for row in w:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    if q:
                        w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        break
            else:
                for j in range(t + 1, n):
                    if w[t][j]:
                        q = w[t][j] // w[t][t]
                        if q:
                            for row in w:
                                row[j] -= q * row[t]
                        if w[t][j]:
                            for row in w:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    break
        p = w[t][t]
        # a unit pivot divides every entry, so only a larger one can need a fix
        fix = None if p in (1, -1) else next(
            (i for i in range(t + 1, m) if any(w[i][j] % p for j in range(t + 1, n))), None)
        if fix is None:
            t += 1
        else:
            w[t] = [x + y for x, y in zip(w[t], w[fix])]
    for k in range(min(m, n)):
        if w[k][k] < 0:
            w[k] = [-x for x in w[k]]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form with both unimodular transforms.

    Deterministic: the pivot is always the surviving entry of smallest
    absolute value, ties broken by position. The returned diagonal is
    nonnegative and each entry divides the next. An entry that is not
    an int (a bool, float, Fraction or string) is a ShapeError.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    w = [[*row, *e] for row, e in zip(_int_rows(matrix, n, "matrix"), linalg.identity(m))]
    w += [e + [0] * m for e in linalg.identity(n)]
    _diagonalize(w, m, n)
    return SmithDecomposition(tuple(w[k][k] for k in range(min(m, n))),
                              tuple(tuple(row[n:]) for row in w[:m]),
                              tuple(tuple(row[:n]) for row in w[m:]))


def discriminant_group(lattice: Lattice) -> DiscriminantGroup:
    w = [list(row) for row in lattice.gram]
    _diagonalize(w, lattice.rank, lattice.rank)
    diagonal = [w[k][k] for k in range(lattice.rank)]
    order = prod(diagonal)
    if order != abs(lattice.det):
        raise ArithmeticError(
            f"Smith normal form order {order} disagrees with |det| {abs(lattice.det)}")
    return DiscriminantGroup(tuple(d for d in diagonal if d > 1), order)


def dual_class(lattice: Lattice, x: FramedVector) -> FramedVector:
    """G x in the dual frame; satisfies q(x, y) = <dual_class(x), y>."""
    x = _vector(x, lattice.rank, "x")
    return dual(linalg.mat_vec(lattice.gram, x.coords))


def primal_of_dual(lattice: Lattice, gamma: FramedVector) -> FramedVector:
    """Exact inverse of dual_class: the x with G x = gamma.

    It solves G^2 x = G gamma instead, whose G^2 = G^T G is positive
    definite exactly when G is nonsingular; a singular G, which only a
    directly built Lattice has, is a SingularSystemError.
    """
    gamma = _vector(gamma, lattice.rank, "gamma", Frame.DUAL)
    g = lattice.gram
    solved = linalg.definite_solve(linalg.mat_vecs(g, g), linalg.mat_vec(g, gamma.coords), 1)
    if solved is None:
        raise SingularSystemError("matrix is singular")
    return primal(solved[1])


def divisibility(lattice: Lattice, x: FramedVector) -> int:
    """gcd of the pairings of x against the lattice basis."""
    xi = _vector(x, lattice.rank, "x").ints()
    if all(c == 0 for c in xi):
        raise ZeroVectorError("divisibility of the zero vector is undefined")
    return gcd(*linalg.mat_vec(lattice.gram, xi))


def is_primitive(lattice: Lattice, x: FramedVector) -> bool:
    """True when x is not a proper integer multiple of a lattice vector."""
    xi = _vector(x, lattice.rank, "x").ints()
    if all(c == 0 for c in xi):
        raise ZeroVectorError("the zero vector is neither primitive nor imprimitive")
    return gcd(*xi) == 1
