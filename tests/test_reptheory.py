"""The nine irreducibles of the binary icosahedral group, and the 54-character
table of the full group; its induced and extended rows are checked as rows of
chartable_ghat(), found by their rendered labels."""

import random

import pytest

from davisspin.exactfield import GoldenComplex, GoldenNumber, TAU
from davisspin import ghat, icosa, reptheory
from davisspin.reptheory import (character_of, chartable_ghat, decompose,
                                 galois_permutation, inner_product,
                                 orthogonality_checks, psi1, rep_image, rep_of_2I,
                                 REP_STAR)
from davisspin.spinindex import davis_spin_character
from test_quatmat import mat_mul

SPINORIAL_DIMS = [4, 4, 8, 12, 12, 12, 12, 12, 16, 16, 20,
                  20, 24, 24, 32, 36, 36, 40, 48, 60]


def row(label: str) -> reptheory.Character:
    """The character of chartable_ghat() whose label renders as label."""
    matches = [char for char in chartable_ghat() if char.label.render() == label]
    assert len(matches) == 1, label
    return matches[0]


def test_psi1_embeds_the_quaternions():
    from davisspin.quatmat import Quaternion
    image = psi1(Quaternion(0, 1))
    assert image[0][0] == GoldenComplex(0, 1)
    assert image[1][1] == GoldenComplex(0, -1)
    x = Quaternion(0, 0, 1, 0)
    y = Quaternion(0, 0, 0, 1)
    assert mat_mul(psi1(x), psi1(y)) == psi1(x * y)


def test_full_table_reproduction():
    for label in icosa.REP_LABELS:
        rep = rep_of_2I(label)
        character = character_of(rep)
        for class_label in icosa.CLASS_LABELS:
            assert character.value_at(class_label) == icosa.char_2I(
                label, class_label), (label, class_label)


def test_character_of_rejects_a_complex_trace(monkeypatch):
    monkeypatch.setattr(reptheory, "rep_image",
                        lambda label, q: ((GoldenComplex(0, 1),),))
    with pytest.raises(reptheory.FieldObstructionError):
        character_of(rep_of_2I("1"))


def test_homomorphism_property_of_reps():
    """Each irreducible's image map is multiplicative on seeded pairs (x, y)
    of 2I, with the image of xy read at tables().mul[x][y]."""
    elements, mul = icosa.enumerate_2I(), icosa.tables().mul
    for label, pairs, seed in (("2", 200, 1), *((l, 40, 2) for l in icosa.REP_LABELS)):
        images = {}

        def image(i):
            if i not in images:
                images[i] = rep_image(label, elements[i])
            return images[i]

        rng = random.Random(seed)
        for _ in range(pairs):
            x, y = rng.randrange(120), rng.randrange(120)
            assert image(mul[x][y]) == mat_mul(image(x), image(y)), (label, x, y)


def test_sym_power_and_tensor_examples():
    # 3 = Sym^2(2), 4' = Sym^3(2) and 4 = 2 (x) galois(2) by construction
    three = rep_image("3", icosa.class_representative("5A"))
    assert reptheory._mat_trace(three) == GoldenComplex.coerce(1 - TAU)
    four_prime = rep_image("4'", icosa.class_representative("2"))
    assert reptheory._mat_trace(four_prime) == GoldenComplex(-4, 0)
    mixed = rep_image("4", icosa.class_representative("5A"))
    assert reptheory._mat_trace(mixed) == GoldenComplex(-1, 0)
    assert len(mixed) == 4


def test_rep_star_is_an_involution():
    for label in icosa.REP_LABELS:
        assert REP_STAR[REP_STAR[label]] == label
    assert REP_STAR["2"] == "2'"
    assert REP_STAR["3'"] == "3"
    assert REP_STAR["4'"] == "4'"


def test_rep_of_unknown_label():
    with pytest.raises(KeyError):
        rep_of_2I("7")


def test_induced_character_examples():
    induced = row("(1⊗2)⊕(2'⊗1)")
    assert induced.dimension == GoldenNumber(4)
    assert induced.spinorial
    for cls in ghat.conjugacy_classes():
        if cls.is_coset:
            assert induced.value_at(cls.name) == GoldenNumber(0)
    big = row("(5⊗6)⊕(6⊗5)")
    assert big.dimension == GoldenNumber(60)
    assert big.spinorial


def test_induced_value_matches_subgroup_formula():
    induced = row("(2⊗3)⊕(3'⊗2')")
    elements = icosa.enumerate_2I()
    for cls in ghat.conjugacy_classes():
        if cls.is_coset:
            continue
        p, q, _ = cls.triple
        x, y = icosa.class_of(elements[p]), icosa.class_of(elements[q])
        expected = (icosa.char_2I("2", x) * icosa.char_2I("3", y)
                    + icosa.char_2I("3'", x) * icosa.char_2I("2'", y))
        assert induced.value_at(cls.name) == expected


def test_extend_trivial_character():
    plus = row("1⊗1")
    assert all(value == GoldenNumber(1) for value in plus.values)
    minus = row("-(1⊗1)")
    negatives = [name for name, value in zip(minus.class_names, minus.values)
                 if value == GoldenNumber(-1)]
    assert len(negatives) == 9
    assert all(name.startswith("[") for name in negatives)


def test_extend_character_examples():
    extended = row("-(3⊗3')")
    assert extended.dimension == GoldenNumber(9)
    assert extended.value_at("2×2") == GoldenNumber(9)
    assert not extended.spinorial
    plus = row("3⊗3'")
    assert inner_product(plus.values, extended.values) == GoldenNumber(0)
    difference = [p - m for p, m in zip(plus.values, extended.values)]
    for name, value in zip(plus.class_names, difference):
        if not name.startswith("["):
            assert value.is_zero()


def test_coset_value_is_a_class_function():
    """The closed form reads the 2I class of the first slot p alpha^-1(q) of
    g^2 at g = (p, q, 1); that class must be the same across each coset
    class, and the "+" extension of 2 (x) 2' must take chi_2 of it."""
    label = icosa.tables().label
    plus = row("2⊗2'")
    labels = {}
    for p in range(120):
        for q in range(120):
            for e in (0, 1):
                triple = (p, q, e)
                labels.setdefault(ghat.triple_class_name(triple), set()).add(
                    label[ghat.mul_triple(triple, triple)[0]])
    for cls in ghat.conjugacy_classes():
        if not cls.is_coset:
            continue
        assert len(labels[cls.name]) == 1, (cls.name, labels[cls.name])
        assert plus.value_at(cls.name) == icosa.char_2I(
            "2", labels[cls.name].pop()), cls.name


def test_integer_chartable_matches_golden_reference():
    """All 54 x 54 entries, built on integer pairs from the class slots,
    against the same formulas in GoldenNumber arithmetic read off each
    class's triple (p, q, e): products of 2I characters at class_of(p) and
    class_of(q) on the subgroup, and sign * chi_l1 at the class of the
    first slot of the triple's square on the coset (zero for an induced
    character)."""
    chars = chartable_ghat()
    elements = icosa.enumerate_2I()
    integer_rows = reptheory._integer_table()
    assert [label for label, _ in integer_rows] == [char.label for char in chars]
    for char, (_, row) in zip(chars, integer_rows):
        kind, (l1, l2), sign = char.label.kind, char.label.pair, char.label.sign
        assert char.values == tuple(GoldenNumber(a, b) for a, b in row)
        for cls, value in zip(ghat.conjugacy_classes(), char.values):
            p, q, e = cls.triple
            if e == 0:
                x, y = icosa.class_of(elements[p]), icosa.class_of(elements[q])
                expected = icosa.char_2I(l1, x) * icosa.char_2I(l2, y)
                if kind == "induced":
                    expected = expected + (icosa.char_2I(REP_STAR[l2], x)
                                           * icosa.char_2I(REP_STAR[l1], y))
            elif kind == "induced":
                expected = GoldenNumber(0)
            else:
                square = ghat.mul_triple(cls.triple, cls.triple)
                expected = sign * icosa.char_2I(l1, icosa.class_of(elements[square[0]]))
            assert value == expected, (char.label.render(), cls.name)


def test_chartable_counts_and_dimension_sum():
    chars = chartable_ghat()
    assert len(chars) == 54
    kinds = {"induced": 0, "extended": 0}
    for char in chars:
        kinds[char.label.kind] += 1
    assert kinds == {"induced": 36, "extended": 18}
    dims = [int(char.dimension.a) for char in chars]
    assert sum(d * d for d in dims) == 28800
    assert dims == sorted(dims)
    assert all(type(value) is GoldenNumber
               for char in chars for value in char.values)
    _, spin_values = davis_spin_character()
    assert all(type(value) is GoldenNumber for value in spin_values)


def test_spinorial_dimension_multiset():
    chars = chartable_ghat()
    spinorial = sorted(int(c.dimension.a) for c in chars if c.spinorial)
    assert spinorial == SPINORIAL_DIMS
    assert sum(1 for c in chars if not c.spinorial) == 34
    spin_sq = sum(d * d for d in spinorial)
    assert spin_sq == 14400
    induced_nonspin = sum(int(c.dimension.a) ** 2 for c in chars
                          if not c.spinorial and c.label.kind == "induced")
    extended_nonspin = sum(int(c.dimension.a) ** 2 for c in chars
                           if not c.spinorial and c.label.kind == "extended")
    assert induced_nonspin == 9144
    assert extended_nonspin == 5256


def test_orthogonality_fast_paths():
    assert orthogonality_checks() == {"rows": True, "columns": True}


def test_orthogonality_fails_on_one_altered_entry(monkeypatch):
    """One entry off by one breaks its row's norm and its column's norm."""
    rows = [list(row) for _, row in reptheory._integer_table()]
    a, b = rows[17][30]
    rows[17][30] = (a + 1, b)
    monkeypatch.setattr(reptheory, "_integer_table",
                        lambda: tuple((None, tuple(row)) for row in rows))
    assert orthogonality_checks() == {"rows": False, "columns": False}


def test_orthogonality_exact_spot_checks():
    chars = chartable_ghat()
    rng = random.Random(12)
    indices = rng.sample(range(54), 6)
    for i in indices:
        for j in indices:
            value = inner_product(chars[i].values, chars[j].values)
            expected = GoldenNumber(1 if i == j else 0)
            assert value == expected, (i, j)


def test_decompose_recovers_multiplicities():
    chars = chartable_ghat()
    combined = tuple(chars[3].values[k] + chars[40].values[k]
                     + chars[40].values[k] for k in range(54))
    multiplicities = decompose(combined)
    for index, value in enumerate(multiplicities):
        expected = {3: 1, 40: 2}.get(index, 0)
        assert value == GoldenNumber(expected)
    # the characters are real: a complex class function is refused, never
    # paired without the conjugation a complex inner product needs
    complex_values = tuple(GoldenComplex(value, 1) for value in combined)
    with pytest.raises(TypeError):
        decompose(complex_values)
    with pytest.raises(TypeError):
        inner_product(complex_values, chars[3].values)
    with pytest.raises(TypeError):
        inner_product(chars[3].values, complex_values)
    # one value per class, never a silently truncated pairing
    _, spin = davis_spin_character()
    with pytest.raises(ValueError):
        decompose(spin[:10])
    with pytest.raises(ValueError):
        inner_product(spin[:53], spin)
    with pytest.raises(ValueError):
        inner_product(spin, spin + spin[:1])


def test_galois_permutation_is_involution():
    permutation = galois_permutation()
    assert sorted(permutation) == list(range(54))
    for i, j in enumerate(permutation):
        assert permutation[j] == i
    fixed = sum(1 for i, j in enumerate(permutation) if i == j)
    assert fixed == 22
    chars = chartable_ghat()
    for i, j in enumerate(permutation):
        assert tuple(v.galois() for v in chars[i].values) == chars[j].values


def test_galois_swaps_primed_labels():
    chars = chartable_ghat()
    permutation = galois_permutation()
    by_render = {char.label.render(): index for index, char in enumerate(chars)}
    source = by_render["(2'⊗3')⊕(3⊗2)"]
    target = by_render["(2⊗3)⊕(3'⊗2')"]
    assert permutation[source] == target


def test_induced_labels_are_orbit_minima():
    chars = chartable_ghat()
    induced_pairs = {char.label.pair for char in chars
                     if char.label.kind == "induced"}
    assert ("1", "2") in induced_pairs
    assert ("2", "1") not in induced_pairs
    for l1, l2 in induced_pairs:
        partner = (REP_STAR[l2], REP_STAR[l1])
        key = icosa.REP_LABELS.index
        assert (key(l1), key(l2)) <= (key(partner[0]), key(partner[1]))


def test_extended_labels_cover_invariant_pairs():
    chars = chartable_ghat()
    extended = [char for char in chars if char.label.kind == "extended"]
    pairs = {char.label.pair for char in extended}
    assert len(pairs) == 9
    for l1, l2 in pairs:
        assert REP_STAR[l1] == l2
    signs = {}
    for char in extended:
        signs.setdefault(char.label.pair, set()).add(char.label.sign)
    assert all(value == {1, -1} for value in signs.values())
