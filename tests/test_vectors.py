"""The one vector-argument rule: every vector parameter of a public
function in ``lattice``, ``cones`` and ``zariski``, and the ``other`` of
``+`` and ``-``, reads a coordinate tuple as ``primal(tuple)``, and a
vector in the wrong frame or of the wrong length is a typed error."""

import pytest

from hklat import (
    chamber_signature,
    dual,
    dual_class,
    dual_pairing,
    divisibility,
    in_fe_chamber,
    in_positive_cone,
    is_integral_reflection,
    is_primitive,
    is_wall_divisor,
    make_cone_context,
    make_lattice,
    monodromy_orbit,
    primal,
    primal_of_dual,
    q_eval,
    reflect,
    ruling_curve_class,
    verify_decomposition,
    zariski_decompose,
)
from hklat.errors import FrameError, ShapeError
from hklat.lattice import Frame, _vector

# <2> + <-2> + <-2>, h = e1, one prime e2, one wall e3, and the
# reflection in e2 as the monodromy
LAT = make_lattice([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
H, PRIME, WALL = (1, 0, 0), (0, 1, 0), (0, 0, 1)
CTX = make_cone_context(LAT, primal(H), [primal(PRIME)], [primal(WALL)],
                        [[[1, 0, 0], [0, -1, 0], [0, 0, 1]]])
D = primal([2, 1, 0])
DEC = zariski_decompose(CTX, D)

# (entry point and parameter, frame, the argument the ShapeError names,
# call on the vector, coordinates on which the call succeeds)
_VECTOR_PARAMETERS = (
    ("q_eval x", Frame.PRIMAL, "x", lambda v: q_eval(LAT, v, primal([1, 0, 1])), (1, 1, 0)),
    ("q_eval y", Frame.PRIMAL, "y", lambda v: q_eval(LAT, primal([1, 0, 1]), v), (1, 1, 0)),
    # dual_pairing has no lattice: gamma sets the length x must have
    ("dual_pairing gamma", Frame.DUAL, "x", lambda v: dual_pairing(v, primal([1, 1, 1])), (1, 2, 3)),
    ("dual_pairing x", Frame.PRIMAL, "x", lambda v: dual_pairing(dual([1, 2, 3]), v), (1, 1, 1)),
    ("dual_class x", Frame.PRIMAL, "x", lambda v: dual_class(LAT, v), (1, 2, 3)),
    ("primal_of_dual gamma", Frame.DUAL, "gamma", lambda v: primal_of_dual(LAT, v), (2, 2, 2)),
    ("divisibility x", Frame.PRIMAL, "x", lambda v: divisibility(LAT, v), (1, 1, 1)),
    ("is_primitive x", Frame.PRIMAL, "x", lambda v: is_primitive(LAT, v), (2, 0, 0)),
    ("+ other", Frame.PRIMAL, "other", lambda v: primal([1, 2, 3]) + v, (1, 0, 1)),
    ("- other", Frame.PRIMAL, "other", lambda v: primal([1, 2, 3]) - v, (1, 0, 1)),
    ("make_cone_context h", Frame.PRIMAL, "h", lambda v: make_cone_context(LAT, v), H),
    ("make_cone_context primes", Frame.PRIMAL, "prime 0",
     lambda v: make_cone_context(LAT, primal(H), [v]), PRIME),
    ("make_cone_context walls", Frame.PRIMAL, "wall 0",
     lambda v: make_cone_context(LAT, primal(H), walls=[v]), WALL),
    ("in_positive_cone x", Frame.PRIMAL, "x", lambda v: in_positive_cone(CTX, v), (2, 1, 0)),
    ("in_fe_chamber x", Frame.PRIMAL, "x", lambda v: in_fe_chamber(CTX, v), (2, -1, 0)),
    ("reflect mirror", Frame.PRIMAL, "mirror", lambda v: reflect(LAT, v, primal([1, 1, 1])), PRIME),
    ("reflect x", Frame.PRIMAL, "x", lambda v: reflect(LAT, primal(PRIME), v), (1, 1, 1)),
    ("is_integral_reflection mirror", Frame.PRIMAL, "mirror",
     lambda v: is_integral_reflection(LAT, v), PRIME),
    ("monodromy_orbit start", Frame.PRIMAL, "start", lambda v: monodromy_orbit(CTX, v), (0, 1, 1)),
    ("chamber_signature x", Frame.PRIMAL, "x", lambda v: chamber_signature(CTX, v), (2, 1, 1)),
    ("is_wall_divisor divisor", Frame.PRIMAL, "divisor", lambda v: is_wall_divisor(CTX, v), (0, 0, 2)),
    ("zariski_decompose D", Frame.PRIMAL, "D", lambda v: zariski_decompose(CTX, v), D.coords),
    ("verify_decomposition D", Frame.PRIMAL, "D",
     lambda v: verify_decomposition(CTX, v, DEC.positive, DEC.negative), D.coords),
    ("verify_decomposition P", Frame.PRIMAL, "P",
     lambda v: verify_decomposition(CTX, D, v, DEC.negative), DEC.positive.coords),
    ("verify_decomposition N", Frame.PRIMAL, "N",
     lambda v: verify_decomposition(CTX, D, DEC.positive, v), DEC.negative.coords),
    ("ruling_curve_class E", Frame.PRIMAL, "E", lambda v: ruling_curve_class(LAT, v), PRIME),
)


_FRAMED = {Frame.PRIMAL: primal, Frame.DUAL: dual}


def _outcome(call, v):
    # the result, or the type and text of the error
    try:
        return "result", call(v)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("label, frame, what, call, coords", _VECTOR_PARAMETERS,
                         ids=[p[0] for p in _VECTOR_PARAMETERS])
def test_vector_parameter_reads_a_tuple_and_types_a_bad_frame_or_length(label, frame, what, call, coords):
    other = Frame.DUAL if frame is Frame.PRIMAL else Frame.PRIMAL
    outcome = _outcome(call, tuple(coords))
    assert outcome == _outcome(call, primal(coords))
    assert outcome[0] == ("result" if frame is Frame.PRIMAL else FrameError)
    assert _outcome(call, _FRAMED[frame](coords))[0] == "result"
    with pytest.raises(FrameError, match=f"^expected a {frame.value} vector, got {other.value}$"):
        call(_FRAMED[other](coords))
    # one coordinate too many, framed and, where a tuple is read, plain
    longer = [*coords, 0]
    for v in [_FRAMED[frame](longer)] + ([tuple(longer)] if frame is Frame.PRIMAL else []):
        with pytest.raises(ShapeError, match=f"^{what} has length (4, expected 3|3, expected 4)$"):
            call(v)


def test_a_framed_vector_passes_the_check_unchanged():
    # the check never rebuilds a FramedVector, so no call to primal() or
    # a scalar conversion is added on the paths that pass one
    v = primal([1, "1/2", 3])
    assert _vector(v, 3, "x") is v
    gamma = dual([1, 2])
    assert _vector(gamma, 2, "gamma", Frame.DUAL) is gamma
