"""Field axioms, Galois symmetry, embeddings and serialization of the exact
number types."""

import ast
import inspect
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from davisspin import exactfield
from davisspin.exactfield import (GoldenNumber, GoldenComplex, QuadExtNumber,
                                  ZERO, ONE, TAU, SQRT5, KAPPA_RADICAND)
from davisspin.quatmat import Quaternion

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=16)
golden_st = st.builds(GoldenNumber, fractions_st, fractions_st)
nonzero_golden_st = golden_st.filter(lambda g: not g.is_zero())
complex_st = st.builds(GoldenComplex, golden_st, golden_st)
nonzero_complex_st = complex_st.filter(lambda z: not z.is_zero())


def test_defining_relation():
    assert TAU * TAU == TAU + 1
    assert SQRT5 == 2 * TAU - 1
    assert SQRT5 * SQRT5 == GoldenNumber(5)


@given(x=golden_st, y=golden_st, z=golden_st)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(x=nonzero_golden_st)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(x=golden_st, y=golden_st)
def test_galois_is_ring_automorphism(x, y):
    assert (x + y).galois() == x.galois() + y.galois()
    assert (x * y).galois() == x.galois() * y.galois()
    assert x.galois().galois() == x


def test_galois_on_tau():
    assert TAU.galois() == 1 - TAU
    assert SQRT5.galois() == -SQRT5


@given(x=golden_st, y=golden_st)
def test_real_embed_is_homomorphism(x, y):
    scale = max(1.0, abs(x.real()), abs(y.real()), abs((x * y).real()))
    assert abs((x + y).real() - (x.real() + y.real())) <= 1e-12 * scale
    assert abs((x * y).real() - x.real() * y.real()) <= 1e-12 * scale


@given(x=golden_st)
def test_sign_matches_real_embedding(x):
    embedded = x.real()
    if abs(embedded) > 1e-9:
        assert x.sign() == (1 if embedded > 0 else -1)


@given(x=golden_st)
def test_sqrt_of_square_roundtrip(x):
    root = (x * x).sqrt()
    assert root is not None
    assert root * root == x * x
    assert root.sign() >= 0


@given(x=st.one_of(golden_st, golden_st.map(lambda y: y * y),
                   golden_st.map(lambda y: -y * y), fractions_st.map(lambda c: 5 * c * c)))
def test_sqrt_is_none_or_the_positive_root(x):
    """sqrt() finds the root from the norm and the trace, or c*sqrt(5) when
    the trace vanishes; whatever it returns must square to x and be positive."""
    root = GoldenNumber.coerce(x).sqrt()
    assert root is None or (root * root == x and root.sign() == (0 if x == 0 else 1))


def test_sqrt_examples():
    assert GoldenNumber(4).sqrt() == GoldenNumber(2)
    assert (TAU + 1).sqrt() == TAU
    assert GoldenNumber(5).sqrt() == SQRT5
    assert (TAU - 1).sqrt() is None
    assert GoldenNumber(2).sqrt() is None
    assert GoldenNumber(-1).sqrt() is None
    assert ZERO.sqrt() == ZERO


@given(x=golden_st)
def test_string_serialization_roundtrip(x):
    parts = str(x).split(" + ")
    assert len(parts) == 2 and parts[1].endswith("*t")


@given(x=golden_st)
def test_json_serialization_roundtrip(x):
    assert GoldenNumber.from_json(x.to_json()) == x


@given(x=golden_st, y=golden_st)
def test_canonical_form_unique(x, y):
    if x == y:
        assert str(x) == str(y) and hash(x) == hash(y)
    else:
        assert str(x) != str(y)


def _equal_forms(value):
    """``value`` as a GoldenNumber, as a QuadExtNumber with zero kappa part,
    as a GoldenComplex with zero imaginary part and, when rational, as a
    Fraction and, when integral, as an int."""
    golden = GoldenNumber.coerce(value)
    forms = [golden, QuadExtNumber(golden, 0), GoldenComplex(golden, 0)]
    if golden.b == 0:
        forms.append(golden.a)
        if golden.a.denominator == 1:
            forms.append(int(golden.a))
    return forms


@given(value=st.one_of(st.integers(-20, 20), fractions_st, golden_st),
       coords=st.lists(golden_st, min_size=4, max_size=4), data=st.data())
def test_equal_values_hash_equal(value, coords, data):
    forms = _equal_forms(value)
    x, y = (data.draw(st.sampled_from(forms)) for _ in range(2))
    # quaternions whose coordinates mix the golden field and its extensions
    p, q = (Quaternion(*(data.draw(st.sampled_from(_equal_forms(c)[:2]))
                         for c in coords)) for _ in range(2))
    for a, b in ((x, y), (p, q)):
        assert a == b, (a, b)
        assert hash(a) == hash(b), (a, b)


@given(x=complex_st, y=complex_st, z=complex_st)
def test_complex_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(x=nonzero_complex_st)
def test_complex_inverse(x):
    assert x * x.inverse() == GoldenComplex(1, 0)


@given(x=complex_st, y=complex_st)
def test_complex_conjugation_and_galois(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y).galois() == x.galois() * y.galois()
    assert x.galois().galois() == x
    assert x.norm() == (x * x.conjugate()).re


def test_complex_imaginary_unit():
    i = GoldenComplex(0, 1)
    assert i * i == GoldenComplex(-1, 0)
    z = GoldenComplex(TAU, 1 - TAU)
    assert GoldenComplex.from_json(z.to_json()) == z


@given(bx=golden_st, ex=golden_st, by=golden_st, ey=golden_st)
def test_quadext_arithmetic(bx, ex, by, ey):
    x = QuadExtNumber(bx, ex)
    y = QuadExtNumber(by, ey)
    assert x * y == y * x
    assert (x + y) - y == x
    kappa = QuadExtNumber(0, 1)
    assert kappa * kappa == KAPPA_RADICAND
    if not x.is_zero():
        assert x * x.inverse() == 1


@given(x=nonzero_golden_st)
def test_extensions_do_not_mix(x):
    kappa_x, i_x = QuadExtNumber(0, x), GoldenComplex(0, x)
    assert kappa_x != i_x and i_x != kappa_x
    # values with no kappa or imaginary part lie in Q(tau), the common field
    assert QuadExtNumber(x, 0) == GoldenComplex(x, 0)
    assert GoldenComplex(x, 0) == QuadExtNumber(x, 0)
    for left, right in ((kappa_x, i_x), (i_x, kappa_x),
                        (QuadExtNumber(x, 0), GoldenComplex(x, 0))):
        for operation in (operator.add, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                operation(left, right)


def test_extensions_share_one_implementation():
    tree = ast.parse(inspect.getsource(exactfield))
    shared = {"coerce", "_lift", "__add__", "__radd__", "__neg__", "__sub__",
              "__rsub__", "__mul__", "__rmul__", "conjugate", "norm", "inverse",
              "__truediv__", "__rtruediv__", "__pow__", "__eq__", "__hash__",
              "is_zero"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in ("GoldenComplex",
                                                             "QuadExtNumber"):
            defined = {stmt.name for stmt in node.body
                       if isinstance(stmt, ast.FunctionDef)}
            defined |= {target.id for stmt in node.body if isinstance(stmt, ast.Assign)
                        for target in stmt.targets if isinstance(target, ast.Name)}
            assert not defined & shared, (node.name, defined & shared)


def test_quadext_sign_and_embedding():
    kappa = QuadExtNumber(0, 1)
    assert kappa.sign() > 0
    assert (-kappa).sign() < 0
    x = QuadExtNumber(-3, 1)  # sqrt(1+3tau) = 2.437... < 3
    assert x.sign() < 0
    assert abs(x.real() - (-3 + (1 + 3 * (1 + 5 ** 0.5) / 2) ** 0.5)) < 1e-12
    assert QuadExtNumber(TAU, 0).golden_part() == TAU
    with pytest.raises(ValueError):
        kappa.golden_part()


@settings(max_examples=25)
@given(x=golden_st, k=st.integers(min_value=-3, max_value=6))
def test_powers(x, k):
    if x.is_zero() and k < 0:
        return
    direct = ONE
    base = x if k >= 0 else x.inverse()
    for _ in range(abs(k)):
        direct = direct * base
    assert x ** k == direct
