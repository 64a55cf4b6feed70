import random
import re
from fractions import Fraction

import pytest

from hklat import (
    NEG_INFINITY,
    TableRow,
    check_sequence_acc,
    log_discrepancy,
    make_table,
    mld_along,
    mld_at,
)
from hklat.errors import (
    EmptyCenterError,
    InvalidPosetError,
    InvalidQueryError,
    UnknownLabelError,
)

from .support import closure_oracle


def test_point_blowup_discrepancy():
    # exceptional divisor of a smooth surface point blowup: k = 1, no
    # boundary, so the log discrepancy is 2
    table = make_table([("E", 1, 0, "p")])
    assert log_discrepancy(table, "E") == 2
    assert mld_at(table, "p") == 2


def test_crepant_divisor():
    table = make_table([("E", 0, 0, "p")])
    assert mld_at(table, "p") == 1


def test_fractional_boundary():
    table = make_table([("E", 1, Fraction(3, 2), "p")])
    assert log_discrepancy(table, "E") == Fraction(1, 2)


def test_minimum_over_rows_at_center():
    table = make_table([
        ("E1", 1, 0, "p"),
        ("E2", 1, Fraction(3, 2), "p"),
    ])
    assert mld_at(table, "p") == Fraction(1, 2)


def test_negative_minimum_collapses():
    table = make_table([("E", 0, 2, "p")])
    assert log_discrepancy(table, "E") == -1
    assert mld_at(table, "p") == NEG_INFINITY


def test_collapse_needs_only_one_bad_row():
    table = make_table([
        ("E1", 3, 0, "p"),
        ("E2", 0, Fraction(5, 2), "p"),
    ])
    assert mld_at(table, "p") == NEG_INFINITY


def test_along_single_center():
    table = make_table([("E", 1, 0, "p")])
    assert mld_along(table, "p") == mld_at(table, "p") == 2


def test_along_scans_contained_centers():
    table = make_table(
        [("E1", 1, 0, "p"), ("E2", 2, 0, "C")],
        containment=[["p", "C"]],
    )
    assert mld_at(table, "C") == 3
    assert mld_along(table, "C") == 2
    assert mld_along(table, "p") == 2


def test_along_uses_transitive_closure():
    table = make_table(
        [("E1", 0, Fraction(1, 2), "p"), ("E2", 1, 0, "C"), ("E3", 2, 0, "S")],
        containment=[["p", "C"], ["C", "S"]],
    )
    assert ("p", "S") in table.contains
    assert mld_along(table, "S") == Fraction(1, 2)
    assert mld_along(table, "C") == Fraction(1, 2)


def test_along_empty_when_nothing_populated_inside():
    table = make_table([("E", 1, 0, "p")], containment=[["A", "B"]])
    with pytest.raises(EmptyCenterError):
        mld_along(table, "B")
    with pytest.raises(EmptyCenterError):
        mld_at(table, "A")


def test_unknown_labels_rejected():
    table = make_table([("E", 1, 0, "p")])
    with pytest.raises(UnknownLabelError):
        mld_at(table, "q")
    with pytest.raises(UnknownLabelError):
        mld_along(table, "q")
    with pytest.raises(UnknownLabelError):
        log_discrepancy(table, "F")


def test_poset_cycle_rejected():
    with pytest.raises(InvalidPosetError):
        make_table([("E", 1, 0, "p")], containment=[["A", "B"], ["B", "A"]])


def test_poset_long_cycle_rejected():
    with pytest.raises(InvalidPosetError):
        make_table(
            [("E", 1, 0, "p")],
            containment=[["A", "B"], ["B", "C"], ["C", "A"]],
        )


def test_containment_entry_must_be_pair():
    with pytest.raises(InvalidPosetError):
        make_table([("E", 1, 0, "p")], containment=[["A", "B", "C"]])


@pytest.mark.parametrize("entry", ["pS", "AB", 5, None], ids=("two-letter string", "string", "int", "None"))
def test_containment_entry_that_is_no_pair_is_a_poset_error(entry):
    # a two-letter string would be read as the pair of its letters, an int raise TypeError
    with pytest.raises(InvalidPosetError, match=f"^{re.escape(f'containment entry {entry!r} is not a pair')}$"):
        make_table([("E", 1, 0, "p")], containment=[entry])


@pytest.mark.parametrize("row", [("E", 1, 0), ("E", 1, 0, "p", "q"), 5, None, "Ekdp0"],
                         ids=("three items", "five items", "int", "None", "five-letter string"))
def test_row_that_is_no_four_tuple_is_a_query_error(row):
    with pytest.raises(InvalidQueryError, match=r"^row .* is not a \(label, k, d, center\) tuple$"):
        make_table([row])


def test_row_validation():
    with pytest.raises(InvalidQueryError):
        make_table([("E", 1, -1, "p")])
    with pytest.raises(InvalidQueryError):
        make_table([("E", 1, 0, "p"), ("E", 2, 0, "q")])
    # labels are stored as strings, so 1 and "1" are the same label
    with pytest.raises(InvalidQueryError, match="^duplicate divisor label '1'$"):
        make_table([(1, 0, 0, "p"), ("1", 5, 0, "p")])
    with pytest.raises(InvalidQueryError):
        make_table([("E", 0.5, 0, "p")])


def test_rows_accept_instances_and_strings():
    table = make_table([
        TableRow("E1", Fraction(1), Fraction(0), "p"),
        ("E2", "3/2", "1/2", "p"),
    ])
    assert log_discrepancy(table, "E2") == 2
    assert mld_at(table, "p") == 2


def test_complete_flag_is_carried():
    assert make_table([("E", 1, 0, "p")]).complete is False
    assert make_table([("E", 1, 0, "p")], complete=True).complete is True


def test_discrepancy_drops_one_per_unit_boundary():
    for k in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        prev = None
        for d in range(4):
            t = make_table([("E", k, d, "p")])
            a = log_discrepancy(t, "E")
            assert a == 1 + k - d
            if prev is not None:
                assert a == prev - 1
            prev = a


def test_acc_examples():
    rep = check_sequence_acc([1, 2, 2])
    assert rep.stationary is True
    assert rep.stationary_from == 1
    assert rep.increase_points == (1,)

    rep = check_sequence_acc([1, 1, 1])
    assert rep.stationary and rep.stationary_from == 0
    assert rep.increase_points == ()

    rep = check_sequence_acc([1, 2, 3])
    assert not rep.stationary
    assert rep.stationary_from is None
    assert rep.increase_points == (1, 2)


def test_acc_short_sequences():
    rep = check_sequence_acc([])
    assert rep.stationary and rep.stationary_from is None
    rep = check_sequence_acc([7])
    assert rep.stationary and rep.stationary_from == 0


def test_acc_decrease_is_stationary_at_end():
    rep = check_sequence_acc([3, 5, 2])
    assert rep.stationary
    assert rep.stationary_from == 2
    assert rep.increase_points == (1,)


def test_acc_rejects_floats():
    with pytest.raises(InvalidQueryError):
        check_sequence_acc([1, 1.5])


def test_acc_accepts_rational_strings():
    rep = check_sequence_acc(["1/2", "1/2", "1/3"])
    assert rep.stationary and rep.stationary_from == 2


def _random_table(rng: random.Random):
    centers = [f"C{i}" for i in range(rng.randint(2, 4))]
    containment = [[centers[i], centers[i + 1]] for i in range(len(centers) - 1)]
    rows = []
    for i, c in enumerate(centers):
        for j in range(rng.randint(1, 3)):
            k = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
            d = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            rows.append((f"E{i}_{j}", k, d, c))
    return make_table(rows, containment), centers


def test_random_tables_monotone_along_chain():
    rng = random.Random(2024)
    for _ in range(50):
        table, centers = _random_table(rng)
        values = [mld_along(table, c) for c in centers]
        # outer centers see every inner center as well, so the along
        # value can only drop while walking outward
        for inner, outer in zip(values, values[1:]):
            assert outer <= inner


def test_random_mld_at_matches_row_minimum():
    rng = random.Random(11)
    for _ in range(50):
        table, centers = _random_table(rng)
        for c in centers:
            raw = min(
                1 + row.k - row.d for row in table.rows if row.center == c)
            got = mld_at(table, c)
            if raw < 0:
                assert got == NEG_INFINITY
            else:
                assert got == raw
            for row in table.rows:
                if row.center == c:
                    assert got <= 1 + row.k - row.d


def _random_poset_input(rng: random.Random):
    """(rows, containment) with an acyclic containment relation.

    The pairs form a chain, a tree (pointing up or down), stacked
    diamonds or a random DAG over a shuffled label order, then get
    duplicate pairs, [A, A] self-pairs and a shuffle; some row centres
    appear in no pair."""
    n = rng.randint(1, 9)
    names = [f"L{i}" for i in range(n)]
    rng.shuffle(names)
    shape = rng.choice(("chain", "tree", "diamond", "dag"))
    if shape == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "tree":
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        if rng.random() < 0.5:
            edges = [(j, i) for i, j in edges]
    elif shape == "diamond":
        # bottom b sits in b+1 and b+2, both of which sit in b+3
        edges = [e for b in range(0, n - 3, 3)
                 for e in ((b, b + 1), (b, b + 2), (b + 1, b + 3), (b + 2, b + 3))]
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    containment = [[names[i], names[j]] for i, j in edges]
    containment += [list(rng.choice(containment)) for _ in range(rng.randint(0, 2)) if containment]
    containment += [[x, x] for x in rng.sample(names, rng.randint(0, min(2, n)))]
    rng.shuffle(containment)
    centres = rng.sample(names, rng.randint(0, n)) + [f"R{i}" for i in range(rng.randint(0, 2))]
    rows = [(f"E{i}", rng.randint(-1, 2), rng.randint(0, 2), c) for i, c in enumerate(centres)]
    rng.shuffle(rows)
    return rows, containment


def test_closure_matches_warshall_oracle():
    rng = random.Random(4)
    for _ in range(400):
        rows, containment = _random_poset_input(rng)
        table = make_table(rows, containment)
        labels, closed = closure_oracle([r[3] for r in rows], containment)
        assert table.labels == tuple(labels)
        assert table.contains == closed


def test_random_cycles_rejected():
    rng = random.Random(5)
    for _ in range(200):
        rows, containment = _random_poset_input(rng)
        _, closed = closure_oracle([r[3] for r in rows], containment)
        strict = sorted((a, b) for a, b in closed if a != b)
        if strict:
            inner, outer = rng.choice(strict)
            cyclic = containment + [[outer, inner]]
        else:
            cyclic = containment + [["X", "Y"], ["Y", "X"]]
        rng.shuffle(cyclic)
        _, closed = closure_oracle([r[3] for r in rows], cyclic)
        assert any(a != b and (b, a) in closed for a, b in closed)
        with pytest.raises(InvalidPosetError):
            make_table(rows, cyclic)


def test_mld_along_is_the_least_mld_at_over_populated_inner_centres():
    # on random posets with fractional rows, against the closure oracle's
    # inner centres and mld_at at each of them, collapses included
    rng = random.Random(6)
    values = [Fraction(p, q) for p in range(-3, 5) for q in (1, 2, 3)]
    for _ in range(300):
        rows, containment = _random_poset_input(rng)
        rows = [(label, rng.choice(values), abs(rng.choice(values)), c) for label, _, _, c in rows]
        table = make_table(rows, containment)
        _, closed = closure_oracle([r[3] for r in rows], containment)
        populated = {r[3] for r in rows}
        for outer in table.labels:
            inner = [c for c in populated if (c, outer) in closed]
            if inner:
                assert mld_along(table, outer) == min(mld_at(table, c) for c in inner)
            else:
                with pytest.raises(EmptyCenterError):
                    mld_along(table, outer)
