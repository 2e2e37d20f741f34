"""Enumeration, conjugacy classes, character values and the outer
automorphism of the binary icosahedral group."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from davisspin.exactfield import GoldenNumber, TAU
from davisspin.quatmat import Quaternion, QUAT_ONE
from davisspin import icosa

HALF = Fraction(1, 2)


def test_enumeration_counts():
    elements = icosa.enumerate_2I()
    assert len(elements) == 120
    assert len(set(elements)) == 120
    assert all(q.is_unit() for q in elements)
    rational = [q for q in elements if all(c.b == 0 for c in q.coords)]
    assert len(rational) == 24
    assert len(elements) - len(rational) == 96


def test_enumeration_order_and_doubled_coordinates():
    """enumerate_2I() is in element_key order, on which every index triple
    and class representative rests, and tables().coords holds twice the a
    and b parts of each coordinate of the element at the same index."""
    elements = icosa.enumerate_2I()
    assert list(elements) == sorted(elements, key=icosa.element_key)
    assert icosa.tables().coords == tuple(
        tuple((int(2 * c.a), int(2 * c.b)) for c in q.coords) for q in elements)
    assert all(2 * c.a == int(2 * c.a) and 2 * c.b == int(2 * c.b)
               for q in elements for c in q.coords)


def test_closure_under_multiplication():
    elements = set(icosa.enumerate_2I())
    rng = random.Random(2)
    sample = rng.sample(sorted(elements, key=icosa.element_key), 25)
    for x in sample:
        for y in sample:
            assert x * y in elements
    assert all(q.inverse() in elements for q in sample)


def test_class_sizes_and_orders():
    total = 0
    for label in icosa.CLASS_LABELS:
        members = icosa.class_elements(label)
        assert len(members) == icosa.CLASS_SIZES[label]
        total += len(members)
        order = icosa.CLASS_ORDERS[label]
        for q in members[:4]:
            assert q ** order == QUAT_ONE
            assert all(q ** k != QUAT_ONE for k in range(1, order))
            assert q.re == icosa.CLASS_RE[label]
    assert total == 120


def test_classes_are_conjugation_orbits():
    elements = icosa.enumerate_2I()
    for label in icosa.CLASS_LABELS:
        representative = icosa.class_representative(label)
        orbit = {icosa.element_key(g * representative * g.inverse())
                 for g in elements}
        assert orbit == {icosa.element_key(q)
                         for q in icosa.class_elements(label)}


def test_class_of_examples():
    assert icosa.class_of(QUAT_ONE) == "1"
    assert icosa.class_of(-QUAT_ONE) == "2"
    assert icosa.class_of(Quaternion(0, 1)) == "4"
    assert icosa.class_of(icosa.G1) == "10A"
    with pytest.raises(icosa.MembershipError):
        icosa.class_of(Quaternion(2))


def test_character_values_spot_checks():
    assert icosa.char_2I("2", "5A") == TAU - 1
    assert icosa.char_2I("6", "2") == GoldenNumber(-6)
    assert icosa.char_2I("4'", "10A") == GoldenNumber(1)
    for rep in icosa.REP_LABELS:
        assert icosa.char_2I(rep, "1") == GoldenNumber(icosa.REP_DIMS[rep])


def test_character_row_orthogonality():
    for r1 in icosa.REP_LABELS:
        for r2 in icosa.REP_LABELS:
            total = GoldenNumber(0)
            for label in icosa.CLASS_LABELS:
                product = icosa.char_2I(r1, label) * icosa.char_2I(r2, label)
                total = total + product * GoldenNumber(icosa.CLASS_SIZES[label])
            assert total == GoldenNumber(120 if r1 == r2 else 0)


def test_character_column_orthogonality():
    for c1 in icosa.CLASS_LABELS:
        for c2 in icosa.CLASS_LABELS:
            total = GoldenNumber(0)
            for rep in icosa.REP_LABELS:
                total = total + icosa.char_2I(rep, c1) * icosa.char_2I(rep, c2)
            expected = Fraction(120, icosa.CLASS_SIZES[c1]) if c1 == c2 else 0
            assert total == GoldenNumber(expected)


def test_spinorial_split():
    spinorial = [rep for rep in icosa.REP_LABELS
                 if icosa.char_2I(rep, "2") == GoldenNumber(-icosa.REP_DIMS[rep])]
    assert spinorial == ["2", "2'", "4'", "6"]
    assert sum(icosa.REP_DIMS[rep] ** 2 for rep in icosa.REP_LABELS) == 120


def test_composed_cayley_table_matches_icosian_products():
    """Every entry of the table composed from the two generator rows against
    a direct product of doubled integer coordinates, and sampled entries
    against the exact quaternion product."""
    elements = icosa.enumerate_2I()
    tables = icosa.tables()
    position = {x: i for i, x in enumerate(tables.coords)}
    for a, x in enumerate(tables.coords):
        assert tables.mul[a] == tuple(position[icosa._icosian_product(x, y)]
                                      for y in tables.coords), a
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(120), rng.randrange(120)
        assert elements[tables.mul[a][b]] == elements[a] * elements[b]


golden_pair_st = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(terms=st.lists(st.tuples(st.integers(-30, 30), golden_pair_st, golden_pair_st),
                      max_size=6))
def test_golden_pairing_agrees_with_golden_numbers(terms):
    """The integer-pair product and weighted pairing are GoldenNumber
    arithmetic on (a, b) = a + b*tau."""
    weights = [w for w, _, _ in terms]
    xs = [x for _, x, _ in terms]
    ys = [y for _, _, y in terms]
    expected = sum((GoldenNumber(*x) * GoldenNumber(*y) * w for w, x, y in terms),
                   start=GoldenNumber(0))
    assert GoldenNumber(*icosa.golden_pairing(weights, xs, ys)) == expected
    for x, y in zip(xs, ys):
        assert GoldenNumber(*icosa.golden_mul(x, y)) == GoldenNumber(*x) * GoldenNumber(*y)


def test_tables_reject_a_broken_generator_row(monkeypatch):
    """A product that is not the group law gives rows that do not reach all
    of 2I or are not permutations, and tables() raises."""
    product = icosa._icosian_product
    one = icosa.tables().coords[icosa.tables().one]

    def doubled_at_one(x, y):
        return product(x, x if y == one else y)

    for broken in (lambda x, y: y, doubled_at_one):
        monkeypatch.setattr(icosa, "_icosian_product", broken)
        icosa.tables.cache_clear()
        with pytest.raises(RuntimeError, match="Cayley table rows"):
            icosa.tables()
    monkeypatch.undo()
    icosa.tables.cache_clear()
    assert len(icosa.tables().mul) == 120


def test_alpha_is_multiplicative_sampled():
    elements = icosa.enumerate_2I()
    rng = random.Random(3)
    for _ in range(1000):
        x = elements[rng.randrange(120)]
        y = elements[rng.randrange(120)]
        assert icosa.alpha(x * y) == icosa.alpha(x) * icosa.alpha(y)


def test_alpha_order_four_and_square():
    k = Quaternion(0, 0, 0, 1)
    for q in icosa.enumerate_2I():
        twice = icosa.alpha(icosa.alpha(q))
        assert twice == k * q * k.inverse()
        assert icosa.alpha(icosa.alpha(twice)) == q


def test_alpha_examples():
    assert icosa.alpha(QUAT_ONE) == QUAT_ONE
    assert icosa.alpha(-QUAT_ONE) == -QUAT_ONE
    assert icosa.alpha(icosa.G1) == icosa.G1 ** 3
    assert icosa.alpha(icosa.G2) == icosa.G2 ** 7
    tables = icosa.tables()
    assert [tables.alpha_inv[a] for a in tables.alpha] == list(range(120))


def test_alpha_swaps_golden_classes():
    for label, image in (("5A", "5B"), ("5B", "5A"), ("10A", "10B"),
                         ("10B", "10A"), ("6", "6"), ("4", "4")):
        moved = {icosa.element_key(icosa.alpha(q))
                 for q in icosa.class_elements(label)}
        assert moved == {icosa.element_key(q)
                         for q in icosa.class_elements(image)}


def test_alpha_is_not_inner():
    elements = icosa.enumerate_2I()
    probes = [icosa.class_representative(label) for label in ("5A", "10A", "3")]
    for g in elements:
        if all(icosa.alpha(q) == g * q * g.inverse() for q in probes):
            pytest.fail("conjugation by a group element realizes the twist")


def test_generators_have_expected_classes():
    assert icosa.class_of(icosa.G2) == "10A"
    assert icosa.class_of(icosa.G1 * icosa.G2) in icosa.CLASS_LABELS
    generated = {QUAT_ONE}
    frontier = [QUAT_ONE]
    while frontier:
        current = frontier.pop()
        for generator in (icosa.G1, icosa.G2):
            successor = current * generator
            if successor not in generated:
                generated.add(successor)
                frontier.append(successor)
    assert generated == set(icosa.enumerate_2I())
