"""Structure of the order-28,800 symmetry group: arithmetic on index
triples, conjugacy classes, minus-pairing, and power maps."""

import ast
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from davisspin.quatmat import QUAT_ONE
from davisspin import ghat, icosa


def random_triple(rng: random.Random) -> ghat.Triple:
    return (rng.randrange(120), rng.randrange(120), rng.randrange(2))


def _identity() -> ghat.Triple:
    one = icosa.tables().one
    return (one, one, 0)


def _minus_one() -> ghat.Triple:
    tables = icosa.tables()
    minus = tables.neg[tables.one]
    return (minus, minus, 0)


def test_ghat_does_not_import_quatmat():
    """An element of the group is its index triple, so the module never
    reaches the Quaternion level."""
    path = Path(ghat.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(alias.name for alias in node.names)]
    assert [name for name in imported if "quatmat" in name.split(".")] == []


def test_group_order_and_class_count():
    assert ghat.group_order() == 28800
    classes = ghat.conjugacy_classes()
    assert len(classes) == 54
    assert sum(cls.size for cls in classes) == 28800
    assert len({cls.name for cls in classes}) == 54


def test_element_arithmetic_axioms():
    mul, identity = ghat.mul_triple, _identity()
    rng = random.Random(6)
    for _ in range(200):
        x, y, z = (random_triple(rng) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, identity) == x
        assert mul(identity, x) == x
        assert mul(x, ghat.inverse_triple(x)) == identity
        assert mul(ghat.inverse_triple(x), x) == identity
        assert ghat.power_triple(x, 3) == mul(mul(x, x), x)
        assert ghat.power_triple(x, -1) == ghat.inverse_triple(x)


def test_twist_relation():
    tables = icosa.tables()
    s = (tables.one, tables.one, 1)
    assert ghat.mul_triple(s, s) == _identity()
    rng = random.Random(8)
    for _ in range(100):
        p, q = rng.randrange(120), rng.randrange(120)
        assert ghat.mul_triple((p, q, 0), s) == (p, q, 1)
        conjugated = ghat.mul_triple(ghat.mul_triple(s, (p, q, 0)), s)
        assert conjugated == (tables.alpha_inv[q], tables.alpha[p], 0)


def test_center():
    """The size-1 classes are the identity and -1, and both commute with the
    five generators (g1, 1, 0), (g2, 1, 0), (1, g1, 0), (1, g2, 0), (1, 1, 1)."""
    tables = icosa.tables()
    one, g1, g2 = tables.one, tables.index[icosa.G1], tables.index[icosa.G2]
    central = {cls.name: cls.triple for cls in ghat.conjugacy_classes()
               if cls.size == 1}
    assert central == {"1×1": _identity(), "2×2": _minus_one()}
    for z in central.values():
        for g in ((g1, one, 0), (g2, one, 0), (one, g1, 0), (one, g2, 0),
                  (one, one, 1)):
            assert ghat.mul_triple(z, g) == ghat.mul_triple(g, z)


def test_identity_and_minus_one_classes():
    identity_class = ghat.class_by_name(ghat.triple_class_name(_identity()))
    assert identity_class.name == "1×1"
    assert identity_class.size == 1
    minus_class = ghat.class_by_name(ghat.triple_class_name(_minus_one()))
    assert minus_class.name == "2×2"
    assert minus_class.size == 1
    assert ghat.minus_class(identity_class) is minus_class


def test_coset_classes():
    cosets = [cls for cls in ghat.conjugacy_classes() if cls.is_coset]
    assert len(cosets) == 9
    assert {cls.name for cls in cosets} == {
        f"[1×{label}]" for label in icosa.CLASS_LABELS}
    assert sum(cls.size for cls in cosets) == 14400
    hit = set()
    one = icosa.tables().one
    for w in range(120):
        cls = ghat.class_by_name(ghat.triple_class_name((one, w, 1)))
        assert cls.is_coset
        hit.add(cls.name)
    assert hit == {cls.name for cls in cosets}


def test_subgroup_class_names_follow_merging():
    subgroup = [cls for cls in ghat.conjugacy_classes() if not cls.is_coset]
    assert len(subgroup) == 45
    merged = [cls for cls in subgroup if "+" in cls.name]
    unmerged = [cls for cls in subgroup if "+" not in cls.name]
    assert len(merged) == 36
    assert len(unmerged) == 9
    for cls in merged:
        first, second = cls.name.split("+")
        x, y = first.split("×")
        sx, sy = second.split("×")
        assert (sx, sy) == (ghat.star_label(y), ghat.star_label(x))


def test_class_membership_consistency():
    rng = random.Random(9)
    for _ in range(150):
        x = random_triple(rng)
        h = random_triple(rng)
        conjugate = ghat.mul_triple(ghat.mul_triple(h, x), ghat.inverse_triple(h))
        assert ghat.triple_class_name(conjugate) == ghat.triple_class_name(x)


def _all_triples():
    return ((p, q, e) for p in range(120) for q in range(120) for e in (0, 1))


def test_class_sizes_divide_group_order():
    members = Counter(ghat.triple_class_name(triple) for triple in _all_triples())
    for cls in ghat.conjugacy_classes():
        assert ghat.triple_order(cls.triple) == cls.order
        assert 28800 % cls.size == 0
        assert members[cls.name] == cls.size


def _triple_order(identity, triple):
    element, n = triple, 1
    while element != identity:
        element, n = ghat.mul_triple(element, triple), n + 1
    return n


def test_closed_form_classes_are_conjugation_orbits():
    """Orbits of conjugation by the five generators, found breadth-first on
    the integer triples, against the closed-form class of every element:
    same name across an orbit, one orbit per name, the orbit's size, its
    smallest triple as representative, and each member's order. A coset
    orbit is named [1×l] after its members (1, w, 1), l the class of -w."""
    tables = icosa.tables()
    inv = tables.inv
    one, g1, g2 = (tables.index[q] for q in (QUAT_ONE, icosa.G1, icosa.G2))
    identity = (one, one, 0)

    def inverse(triple):
        p, q, e = triple
        if e == 0:
            return (inv[p], inv[q], 0)
        return (inv[tables.alpha_inv[q]], inv[tables.alpha[p]], 1)

    generators = [(g, inverse(g)) for g in ((g1, one, 0), (g2, one, 0), (one, g1, 0),
                                            (one, g2, 0), (one, one, 1))]
    seen, names = set(), set()
    for seed in _all_triples():
        if seed in seen:
            continue
        seen.add(seed)
        orbit, frontier = [seed], [seed]
        while frontier:
            current = frontier.pop()
            for gen, gen_inv in generators:
                conjugate = ghat.mul_triple(gen, ghat.mul_triple(current, gen_inv))
                if conjugate not in seen:
                    seen.add(conjugate)
                    orbit.append(conjugate)
                    frontier.append(conjugate)
        name = ghat.triple_class_name(seed)
        if seed[2] == 1:
            assert {f"[1×{tables.label[tables.neg[q]]}]" for p, q, _ in orbit
                    if p == one} == {name}
        assert name not in names
        names.add(name)
        cls = ghat.class_by_name(name)
        assert cls.size == len(orbit), name
        assert cls.triple == seed, name
        for member in orbit:
            assert ghat.triple_class_name(member) == name, (member, name)
            assert _triple_order(identity, member) == cls.order, (member, name)
    assert len(seen) == 28800
    assert names == {cls.name for cls in ghat.conjugacy_classes()}


def test_minus_pairing_involution():
    classes = ghat.conjugacy_classes()
    self_paired = 0
    for cls in classes:
        partner = ghat.minus_class(cls)
        assert ghat.minus_class(partner) is cls
        if partner is cls:
            self_paired += 1
    assert self_paired == 14


def test_normalize_class_name():
    assert ghat.normalize_class_name("3×3") == "3×3"
    assert ghat.normalize_class_name("10B×6+6×10A") == "6×10A+10B×6"
    assert ghat.normalize_class_name("5B×1+1×5A") == "1×5A+5B×1"
    assert ghat.normalize_class_name("[1×5A]") == "[1×5A]"
    with pytest.raises(KeyError):
        ghat.normalize_class_name("7×1")
    with pytest.raises(KeyError):
        ghat.normalize_class_name("[2×3]")
    with pytest.raises(KeyError, match="not a class name"):
        ghat.normalize_class_name(3)
    labels = icosa.CLASS_LABELS
    pair_names = {ghat.normalize_class_name(f" {x}×{y}\n") for x in labels for y in labels}
    coset_names = {ghat.normalize_class_name(f"[1×{x}]") for x in labels}
    assert pair_names | coset_names == {cls.name for cls in ghat.conjugacy_classes()}
    accepted = []
    for x, y, z, w in itertools.product(labels, repeat=4):
        try:
            accepted.append(ghat.normalize_class_name(f"{x}×{y}+{z}×{w}"))
        except KeyError:
            continue
        assert accepted[-1] == ghat.normalize_class_name(f"{x}×{y}")
        assert (z, w) == (ghat.star_label(y), ghat.star_label(x))
    assert len(accepted) == 81


def test_spot_class_examples():
    tables = icosa.tables()
    one, g1 = tables.one, tables.index[icosa.G1]
    assert ghat.triple_class_name((g1, one, 0)) == "1×10B+10A×1"
    assert ghat.triple_class_name((one, g1, 0)) == "1×10A+10B×1"
    s, sigma_star = (one, one, 1), (one, tables.neg[one], 1)
    assert ghat.triple_order(s) == 2
    assert ghat.triple_class_name(s) == "[1×2]"
    assert ghat.triple_order(sigma_star) == 4
    assert ghat.triple_class_name(sigma_star) == "[1×1]"
    assert ghat.class_by_name("[1×2]").order == 2
    assert ghat.class_by_name("[1×1]").order == 4


def test_power_map():
    cls = ghat.class_by_name("1×10A+10B×1")
    assert ghat.power_map(cls, 2).order == 5
    assert ghat.power_map(cls, 5).order == 2
    assert ghat.power_map(cls, 10) is ghat.class_by_name("1×1")
