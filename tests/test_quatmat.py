"""Quaternion algebra, the two matrix groups, the double cover eta4 and its
complex slice, and the hyperboloid and disc models they act on; the disc
model is tied to eta4 by embedding it in the x1, x2, x5 slice."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from davisspin.exactfield import (GoldenNumber, GoldenComplex, QuadExtNumber,
                                  ZERO, ONE, TAU, SQRT5)
from davisspin.quatmat import (Quaternion, QUAT_ONE, SpinMatrix4, SpinMatrix2,
                               LorentzMatrix5, BallPoint2, HyperboloidPoint,
                               HyperboloidPoint2, APEX, APEX2, InvalidElementError,
                               DomainError, eta4, verify_lift, act_ball2, zeta2,
                               _complex_slice, _eta4_rows)
from davisspin import icosa, spinindex

HALF = Fraction(1, 2)

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
golden_st = st.builds(GoldenNumber, fractions_st, fractions_st)
quaternion_st = st.builds(Quaternion, golden_st, golden_st, golden_st, golden_st)
nonzero_quaternion_st = quaternion_st.filter(lambda q: not q.is_zero())

KAPPA = QuadExtNumber(0, 1)


def golden_boost() -> SpinMatrix4:
    return SpinMatrix4(Quaternion(SQRT5 * HALF), Quaternion(HALF),
                       Quaternion(HALF), Quaternion(SQRT5 * HALF))


def reflection_lift() -> SpinMatrix4:
    return SpinMatrix4(
        Quaternion(0, (1 + TAU) * KAPPA, KAPPA, -TAU * KAPPA),
        Quaternion(TAU, -1 - 3 * TAU, 0, 1 + 2 * TAU),
        Quaternion(TAU, 1 + 3 * TAU, 0, -1 - 2 * TAU),
        Quaternion(0, -(1 + TAU) * KAPPA, KAPPA, TAU * KAPPA),
        scale_sq=GoldenNumber(-HALF * HALF, HALF * HALF))


def revalidated(x: SpinMatrix4) -> SpinMatrix4:
    """x rebuilt with validation on, which recomputes A* J A = J for the
    entries instead of trusting the membership a product inherits."""
    return SpinMatrix4(x.a, x.b, x.c, x.d, scale_sq=x.scale_sq)


def spin_generators() -> list[SpinMatrix4]:
    return [SpinMatrix4.diagonal(icosa.G1, QUAT_ONE),
            SpinMatrix4.diagonal(icosa.G2, QUAT_ONE),
            SpinMatrix4.diagonal(QUAT_ONE, icosa.G1),
            SpinMatrix4.diagonal(QUAT_ONE, icosa.G2),
            golden_boost(),
            reflection_lift()]


@given(p=quaternion_st, q=quaternion_st, r=quaternion_st)
def test_quaternion_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p
    assert p * QUAT_ONE == p and QUAT_ONE * p == p


def test_quaternion_units():
    i = Quaternion(0, 1)
    j = Quaternion(0, 0, 1)
    k = Quaternion(0, 0, 0, 1)
    assert i * i == j * j == k * k == -QUAT_ONE
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k
    assert i * j * k == -QUAT_ONE


@given(p=quaternion_st, q=quaternion_st)
def test_quaternion_conjugate_and_norm(p, q):
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()
    assert (p.conjugate() * p).re == p.norm_sq()


@given(p=nonzero_quaternion_st)
def test_quaternion_inverse(p):
    assert p * p.inverse() == QUAT_ONE
    assert p.inverse() * p == QUAT_ONE


def test_quaternion_power():
    assert icosa.G1 ** 5 == -QUAT_ONE
    assert icosa.G1 ** 10 == QUAT_ONE
    assert icosa.G1 ** -1 == icosa.G1.inverse()


def hamilton_product(p: Quaternion, q: Quaternion) -> Quaternion:
    """p q by the full Hamilton formula on the exact coordinates."""
    w1, x1, y1, z1 = p.coords
    w2, x2, y2, z2 = q.coords
    return Quaternion(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                      w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                      w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                      w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def test_products_with_a_zero_factor_match_the_full_product():
    """A product with a zero factor skips the scalar work; it must give the
    zero the full formula gives, in value, coordinate type and text, for the
    entries of sigma-hat (pure kappa, golden, and golden zeros) and zeros
    with golden, kappa-typed or mixed coordinates."""
    _, sigma_hat = spinindex.davis_sigma_data()
    zeros = [Quaternion(), Quaternion(*[QuadExtNumber()] * 4),
             Quaternion(ZERO, QuadExtNumber(), ZERO, ZERO)]
    factors = [sigma_hat.a, sigma_hat.b, sigma_hat.c, sigma_hat.d, QUAT_ONE,
               Quaternion(0, *[KAPPA] * 3), *zeros]
    kinds = set()
    for zero in zeros:
        for other in factors:
            for x, y in ((zero, other), (other, zero)):
                got, want = x * y, hamilton_product(x, y)
                assert got == want and str(got) == str(want), (x, y)
                assert [type(c) for c in got.coords] == [type(c) for c in want.coords]
                kinds.add(type(got.re).__name__)
    assert kinds == {"GoldenNumber", "QuadExtNumber"}


def test_spinmatrix4_membership_enforced():
    with pytest.raises(InvalidElementError):
        SpinMatrix4(QUAT_ONE, QUAT_ONE, Quaternion(0), QUAT_ONE)
    with pytest.raises(InvalidElementError):
        SpinMatrix4.diagonal(Quaternion(0, 0, 1, 1), QUAT_ONE)
    # A* J A = J holds up to the factor -1, but mu^2 = -1 has no positive mu
    with pytest.raises(InvalidElementError):
        SpinMatrix4(Quaternion(0), QUAT_ONE, QUAT_ONE, Quaternion(0), scale_sq=-1)


def test_spinmatrix4_group_operations():
    boost = golden_boost()
    assert boost.is_member()
    assert boost * boost.inverse() == SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    assert boost ** 2 == boost * boost
    assert revalidated(boost * boost) == boost * boost


def test_spinmatrix4_scale_factor():
    lift = reflection_lift()
    assert lift.is_member()
    assert lift.scale_sq == (TAU - 1) * Fraction(1, 4)
    square = lift * lift
    assert square.normalized().scale_sq == ONE
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    assert square == -identity


def test_spinmatrix4_equality_without_square_roots():
    """sqrt(3) diag(q, q) with |q|^2 = 1/3: its scale is not a square in
    Q(tau), yet it equals itself and its half taken with scale 12."""
    q = Quaternion(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0)
    m = SpinMatrix4(q, Quaternion(), Quaternion(), q, scale_sq=3)
    assert m.normalized() is None
    half = q * Fraction(1, 2)
    assert m == m
    assert m == SpinMatrix4(half, Quaternion(), Quaternion(), half, scale_sq=12)
    assert m != -m
    assert m != SpinMatrix4(q, Quaternion(), Quaternion(), q, scale_sq=12,
                            validate=False)


def test_eta4_identity_and_minus_identity():
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    assert eta4(identity) == LorentzMatrix5.identity()
    assert eta4(-identity) == LorentzMatrix5.identity()


def test_eta4_rotation_by_i_pair():
    i = Quaternion(0, 1)
    image = eta4(SpinMatrix4.diagonal(i, i))
    assert image == LorentzMatrix5(
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, -1, 0, 0),
         (0, 0, 0, -1, 0), (0, 0, 0, 0, 1)))


def test_eta4_recovers_hardcoded_rotation():
    lift = SpinMatrix4.diagonal(icosa.G1, QUAT_ONE)
    expected = LorentzMatrix5(tuple(
        tuple(value * HALF for value in row) for row in
        ((TAU, -1, 1 - TAU, 0, 0),
         (1, TAU, 0, -1 + TAU, 0),
         (-1 + TAU, 0, TAU, -1, 0),
         (0, 1 - TAU, 1, TAU, 0),
         (0, 0, 0, 0, GoldenNumber(2)))))
    assert eta4(lift) == expected
    assert verify_lift(lift, expected)
    assert not verify_lift(golden_boost(), expected)


def test_eta4_homomorphism_on_words():
    rng = random.Random(5)
    generators = spin_generators()
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    for _ in range(60):
        x = identity
        for _ in range(rng.randrange(1, 4)):
            x = x * generators[rng.randrange(len(generators))]
        y = generators[rng.randrange(len(generators))]
        assert eta4(x * y) == eta4(x) * eta4(y)
        assert eta4(-x) == eta4(x)
        assert revalidated(x) == x


def test_eta4_kernel_is_plus_minus_identity():
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    assert eta4(identity) == LorentzMatrix5.identity()
    assert eta4(-identity) == LorentzMatrix5.identity()
    for p_label in icosa.CLASS_LABELS:
        for q_label in icosa.CLASS_LABELS:
            p = icosa.class_representative(p_label)
            q = icosa.class_representative(q_label)
            if (p, q) in ((QUAT_ONE, QUAT_ONE), (-QUAT_ONE, -QUAT_ONE)):
                continue
            image = eta4(SpinMatrix4.diagonal(p, q))
            assert image != LorentzMatrix5.identity(), (p_label, q_label)
    mixed = SpinMatrix4.diagonal(QUAT_ONE, -QUAT_ONE)
    assert eta4(mixed) != LorentzMatrix5.identity()


def test_eta4_rejects_non_member():
    bad = SpinMatrix4(Quaternion(2), Quaternion(), Quaternion(), QUAT_ONE, validate=False)
    with pytest.raises(InvalidElementError):
        eta4(bad)


def _diagonal_rows(*entries):
    return [[entries[i] if i == j else 0 for j in range(5)] for i in range(5)]


def test_lorentz_matrix_rejects_form_breaking_matrices_with_zero_entries():
    """The form check compares the Gram matrix M^T J M with J on integer
    coordinates; it must reject each of these, whose zero entries once let a
    shortcut through, while a boost with the same zero pattern passes."""
    c, s = Fraction(5, 4), Fraction(3, 4)
    boost = _diagonal_rows(c, 1, 1, 1, c)
    boost[0][4] = boost[4][0] = s
    LorentzMatrix5(boost)
    flipped = [row[:] for row in boost]
    flipped[4][0] = -s
    time_leak = _diagonal_rows(1, 1, 1, 1, 1)
    time_leak[4][0] = 1
    shear = _diagonal_rows(1, 1, 1, 1, 1)
    shear[0][1] = 1
    for rows in (_diagonal_rows(2, HALF, 1, 1, 1), _diagonal_rows(1, 1, 1, 0, 1),
                 _diagonal_rows(1, 1, 1, 1, 2), flipped, time_leak, shear):
        with pytest.raises(InvalidElementError, match="Lorentz form"):
            LorentzMatrix5(rows)


def davis_words(seed: int, count: int) -> list[SpinMatrix4]:
    """Seeded words of one to three letters in the four Davis rotation lifts
    and sigma-hat, so kappa entries and scale_sq != 1 both occur."""
    _, sigma_hat = spinindex.davis_sigma_data()
    letters = [lift for lift, _ in spinindex.davis_rotation_lifts().values()]
    letters.append(sigma_hat)
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        word = letters[rng.randrange(5)]
        for _ in range(rng.randrange(3)):
            word = word * letters[rng.randrange(5)]
        words.append(word)
    return words


def test_integer_eta4_matches_the_exact_scalar_forms():
    """eta4 runs the bilinear forms on integer coordinates; each entry must
    equal the same forms on the exact scalars, times scale_sq, in value,
    scalar type and text."""
    words = davis_words(11, 12)
    assert any(w.scale_sq != ONE for w in words) and any(w.scale_sq == ONE for w in words)
    lift = next(iter(spinindex.davis_rotation_lifts().values()))[0]
    kappa_typed = SpinMatrix4(*(Quaternion(*map(QuadExtNumber.coerce, q.coords))
                                for q in (lift.a, lift.b, lift.c, lift.d)))
    inputs = [*words, *(-w for w in words), kappa_typed]
    kinds = set()
    for x in inputs:
        expected = _eta4_rows(x.a.coords, x.b.coords, x.c.coords, x.d.coords)
        image = eta4(x)
        for i in range(5):
            for j in range(5):
                want = expected[i][j] if x.scale_sq == ONE else x.scale_sq * expected[i][j]
                got = image[i][j]
                assert got == want and type(got) is type(want), (x, i, j)
                assert str(got) == str(want), (x, i, j)
                kinds.add(type(got).__name__ + ("" if type(got) is GoldenNumber
                                                 else str(got.ext.is_zero())))
    assert kinds == {"GoldenNumber", "QuadExtNumberTrue", "QuadExtNumberFalse"}


def mat_mul(a, b):
    """Matrix product over any ring of exact scalars: each sum starts from
    its first product, so the entry type is the scalars' own. The reference
    for the integer products of LorentzMatrix5."""
    n, m, p = len(a), len(b), len(b[0])
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(1, m)),
                           start=a[i][0] * b[0][j]) for j in range(p))
                 for i in range(n))


def assert_same_entries(got, want, where):
    """Each entry of got equals that of want in value, scalar type and text."""
    for i, (got_row, want_row) in enumerate(zip(got, want, strict=True)):
        for j, (g, w) in enumerate(zip(got_row, want_row, strict=True)):
            assert g == w and type(g) is type(w), (where, i, j)
            assert str(g) == str(w), (where, i, j)


def test_integer_lorentz_products_match_exact_scalar_products():
    """LorentzMatrix5 products and apply run on integer coordinates; each
    entry must equal the exact-scalar product in value, type and text, on
    images of seeded lift words, on sigma (kappa entries in some rows and
    columns only) and sigma-hat words, in both orders."""
    sigma, sigma_hat = spinindex.davis_sigma_data()
    words = davis_words(23, 8)
    images = [sigma, *(eta4(w) for w in words), eta4(sigma_hat * words[0])]
    kinds = set()
    for left, right in zip(images, images[1:] + images[:1]):
        for x, y in ((left, right), (right, left)):
            product = x * y
            assert_same_entries(product.rows, mat_mul(x.rows, y.rows), (x, y))
            kinds.add(frozenset(type(v).__name__ for row in product.rows for v in row))
    assert kinds == {frozenset({"GoldenNumber"}), frozenset({"QuadExtNumber"}),
                     frozenset({"GoldenNumber", "QuadExtNumber"})}
    kappa_point = sigma.apply(APEX)
    assert any(isinstance(v, QuadExtNumber) for v in kappa_point.coords)
    assert any(isinstance(v, GoldenNumber) for v in kappa_point.coords)
    for image in images:
        for point in (APEX, kappa_point):
            want = mat_mul(image.rows, [(v,) for v in point.coords])
            assert_same_entries([(v,) for v in image.apply(point).coords], want,
                                (image, point))


def test_lorentz_form_check_rejects_each_moved_entry():
    """Moving one entry of a recorded image by tau/7, by a kappa part or by
    10^-30 breaks the Lorentz form; negating one space row or swapping two
    keeps the form and is caught by the determinant, and negating two is a
    rotation again."""
    sigma, _ = spinindex.davis_sigma_data()
    images = [image for _, image in spinindex.davis_rotation_lifts().values()]
    moves = (TAU / 7, KAPPA, GoldenNumber(Fraction(1, 10 ** 30)))
    for image in (*images, sigma):
        rows = [list(row) for row in image.rows]
        for i in range(5):
            for j in range(5):
                for move in moves:
                    moved = [row[:] for row in rows]
                    moved[i][j] = moved[i][j] + move
                    with pytest.raises(InvalidElementError,
                                       match="^matrix does not preserve the Lorentz form$"):
                        LorentzMatrix5(moved)
        for i in range(4):
            flipped = [[-v for v in row] if k == i else row for k, row in enumerate(rows)]
            with pytest.raises(InvalidElementError,
                               match="^matrix does not have determinant one$"):
                LorentzMatrix5(flipped)
        for i, j in itertools.combinations(range(4), 2):
            swapped = rows[:]
            swapped[i], swapped[j] = rows[j], rows[i]
            with pytest.raises(InvalidElementError,
                               match="^matrix does not have determinant one$"):
                LorentzMatrix5(swapped)
            LorentzMatrix5([[-v for v in row] if k in (i, j) else row
                            for k, row in enumerate(rows)])


def test_products_of_non_members_are_not_marked_members():
    """A product or inverse is known to be a member only when its operands
    are; otherwise is_member() decides, so eta4 rejects the product up front."""
    shear = SpinMatrix4(QUAT_ONE, QUAT_ONE, Quaternion(0), QUAT_ONE, validate=False)
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    assert not shear.is_member()
    for product in (shear * identity, identity * shear, shear.inverse()):
        assert not product.is_member()
        with pytest.raises(InvalidElementError, match=r"A\* J A = J"):
            eta4(product)
    boost = golden_boost()
    for product in (boost * identity, boost.inverse(), boost * boost.inverse()):
        assert product._member is True


def test_ball_and_hyperboloid_domains():
    for outside in (GoldenComplex(1, 0), GoldenComplex(0, -1), GoldenComplex(1, 1),
                    GoldenComplex(Fraction(3, 5), Fraction(4, 5))):
        with pytest.raises(DomainError, match="open unit disc"):
            BallPoint2(outside)
        with pytest.raises(DomainError, match="open unit disc"):
            zeta2(outside)
        with pytest.raises(DomainError, match="open unit disc"):
            act_ball2(two_dim_generators()[0], outside)
    with pytest.raises(DomainError):
        HyperboloidPoint((0, 0, 0, 0, -1))
    with pytest.raises(DomainError):
        HyperboloidPoint((1, 0, 0, 0, 1))
    with pytest.raises(DomainError):
        HyperboloidPoint2((0, 0, -1))


def inverse_zeta2(point: HyperboloidPoint2) -> GoldenComplex:
    """The disc point (x1 + x2 i) / (1 + x3) that zeta2 sends to point."""
    x1, x2, x3 = point.coords
    return GoldenComplex(x1, x2) * GoldenComplex(1 + x3).inverse()


unit_fractions_st = st.fractions(min_value=-1, max_value=1, max_denominator=8)
unit_golden_st = st.builds(GoldenNumber, unit_fractions_st, unit_fractions_st)


@given(z=st.builds(GoldenComplex, unit_golden_st, unit_golden_st))
def test_zeta_roundtrip_on_random_ball_points(z):
    if (ONE - z.norm()).sign() <= 0:
        with pytest.raises(DomainError):
            zeta2(z)
        return
    assert inverse_zeta2(zeta2(z)) == z
    assert zeta2(BallPoint2(z)) == zeta2(z)


def test_act_ball_examples():
    rotation, quarter_turn, boost = two_dim_generators()
    origin = GoldenComplex(0, 0)
    assert act_ball2(rotation, origin) == BallPoint2(origin)
    assert act_ball2(boost, origin) == BallPoint2(
        GoldenComplex((2 * TAU - 1) * Fraction(1, 5)))
    # the quarter turn diag(i, -i) is the rotation z -> -z
    half = GoldenComplex(GoldenNumber(HALF), ZERO)
    assert act_ball2(quarter_turn, half) == BallPoint2(-half)
    assert act_ball2(quarter_turn, BallPoint2(half)) == act_ball2(quarter_turn, half)
    # a non-member whose denominator c z + d vanishes inside the disc
    singular = SpinMatrix2(1, 0, GoldenComplex(2), GoldenComplex(-1), validate=False)
    with pytest.raises(DomainError, match="undefined at this point"):
        act_ball2(singular, half)


def test_zeta_equivariance_float():
    rng = random.Random(13)
    generators = spin_generators()
    for _ in range(100):
        word = generators[rng.randrange(len(generators))]
        word = word * generators[rng.randrange(len(generators))]
        coords = [rng.uniform(-0.4, 0.4) for _ in range(4)]
        (a, b), (c, d) = word.real()

        def fmul(p, q):
            return (p[0]*q[0] - p[1]*q[1] - p[2]*q[2] - p[3]*q[3],
                    p[0]*q[1] + p[1]*q[0] + p[2]*q[3] - p[3]*q[2],
                    p[0]*q[2] - p[1]*q[3] + p[2]*q[0] + p[3]*q[1],
                    p[0]*q[3] + p[1]*q[2] - p[2]*q[1] + p[3]*q[0])

        numerator = tuple(x + y for x, y in zip(fmul(a, coords), b))
        denominator = tuple(x + y for x, y in zip(fmul(c, coords), d))
        norm = sum(v * v for v in denominator)
        den_inv = (denominator[0] / norm, -denominator[1] / norm,
                   -denominator[2] / norm, -denominator[3] / norm)
        moved = fmul(numerator, den_inv)

        def lift(point):
            inv = 1.0 / (1.0 - sum(v * v for v in point))
            return [2 * v * inv for v in point] + [(1 + sum(v*v for v in point)) * inv]

        matrix = eta4(word).real()
        expected = [sum(matrix[i][j] * lift(coords)[j] for j in range(5))
                    for i in range(5)]
        assert max(abs(u - v) for u, v in zip(lift(moved), expected)) < 1e-9


def two_dim_generators() -> list[SpinMatrix2]:
    rotation = SpinMatrix2(GoldenComplex(Fraction(3, 5), Fraction(4, 5)),
                           GoldenComplex(ZERO, ZERO))
    quarter_turn = SpinMatrix2(GoldenComplex(ZERO, ONE), GoldenComplex(ZERO, ZERO))
    boost = SpinMatrix2(GoldenComplex(SQRT5 * HALF, ZERO),
                        GoldenComplex(GoldenNumber(HALF), ZERO))
    return [rotation, quarter_turn, boost]


def test_spinmatrix2_membership_enforced():
    with pytest.raises(InvalidElementError):
        SpinMatrix2(GoldenComplex(2, 0), GoldenComplex(0, 0))
    with pytest.raises(InvalidElementError):
        SpinMatrix2(GoldenComplex(1, 0), GoldenComplex(0, 0),
                    c=GoldenComplex(1, 0), d=GoldenComplex(1, 0))


def eta2(A: SpinMatrix2):
    """The rows of the 2-dimensional image of A: eta4 of A's quaternion lift,
    restricted to the complex slice x1, x2, x5."""
    return _complex_slice(eta4(quaternion_lift(A)).rows)


def test_eta2_identity_and_quarter_turn():
    identity = SpinMatrix2(GoldenComplex(1, 0), GoldenComplex(0, 0))
    assert eta2(identity) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    quarter_turn = two_dim_generators()[1]
    assert eta2(quarter_turn) == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert eta2(-quarter_turn) == eta2(quarter_turn)


def test_zeta2_examples_and_roundtrip():
    assert zeta2(GoldenComplex(0, 0)) == APEX2
    half = GoldenComplex(GoldenNumber(HALF), ZERO)
    point = zeta2(half)
    assert point == HyperboloidPoint2((Fraction(4, 3), 0, Fraction(5, 3)))
    assert inverse_zeta2(point) == half
    third_i = GoldenComplex(ZERO, GoldenNumber(Fraction(1, 3)))
    assert zeta2(third_i) == HyperboloidPoint2((0, Fraction(3, 4), Fraction(5, 4)))
    # the boost [[sqrt5/2, 1/2], [1/2, sqrt5/2]] carries the apex to height 3/2
    boost = two_dim_generators()[2]
    assert zeta2(act_ball2(boost, GoldenComplex(0, 0))) == HyperboloidPoint2(
        (SQRT5 * Fraction(1, 2), 0, Fraction(3, 2)))


def embedded(point: HyperboloidPoint2) -> HyperboloidPoint:
    """The 2-dimensional hyperboloid point as (x1, x2, 0, 0, x3)."""
    x1, x2, x3 = point.coords
    return HyperboloidPoint((x1, x2, 0, 0, x3))


def test_disc_model_matches_eta4_on_the_complex_slice():
    """The disc model is written on GoldenComplex alone; eta4 of the
    quaternion lift of A, applied to the embedded zeta2(z), must land on the
    embedded zeta2(act_ball2(A, z)), for seeded words A and disc points z."""
    points = [GoldenComplex(0, 0), GoldenComplex(GoldenNumber(HALF), ZERO),
              GoldenComplex(ZERO, GoldenNumber(Fraction(1, 3))),
              GoldenComplex(Fraction(-1, 4), Fraction(2, 5)),
              GoldenComplex(TAU - 1, Fraction(-1, 3))]
    for x in two_dim_words(20, 7):
        image = eta4(quaternion_lift(x))
        for z in points:
            moved = embedded(zeta2(act_ball2(x, z)))
            assert image.apply(embedded(zeta2(z))) == moved, (x, z)


def quaternion_lift(A: SpinMatrix2) -> SpinMatrix4:
    """A as the SpinMatrix4 whose entries have coordinates (re, im, 0, 0)."""
    return SpinMatrix4(*(Quaternion(z.re, z.im) for z in (A.a, A.b, A.c, A.d)))


def two_dim_words(count: int, seed: int) -> list[SpinMatrix2]:
    rng = random.Random(seed)
    generators = two_dim_generators()
    return [generators[rng.randrange(3)] * generators[rng.randrange(3)]
            * generators[rng.randrange(3)] for _ in range(count)]


def test_spinmatrix2_products_are_products_of_quaternion_lifts():
    words = two_dim_words(12, 5)
    for x, y in zip(words, words[1:]):
        lx, ly = quaternion_lift(x), quaternion_lift(y)
        assert quaternion_lift(x * y) == lx * ly
        assert quaternion_lift(x.inverse()) == lx.inverse()
        assert quaternion_lift(-x) == -lx
        assert quaternion_lift(x ** -2) == lx ** -2
        assert quaternion_lift(x ** 0) == lx ** 0


def test_eta4_of_the_complex_slice_fixes_x3_and_x4():
    for x in two_dim_words(8, 9):
        image = eta4(quaternion_lift(x))
        for i in (2, 3):
            for j in range(5):
                assert image[i][j] == image[j][i] == (ONE if i == j else ZERO), (i, j)
        assert _complex_slice(image.rows) == eta2(x)


def test_verify_lift_dimension_mismatch():
    identity2 = SpinMatrix2.diagonal(GoldenComplex(1, 0))
    with pytest.raises(TypeError):
        verify_lift(identity2, LorentzMatrix5.identity())
    with pytest.raises(TypeError):
        verify_lift(SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE), eta2(identity2))
    assert verify_lift(quaternion_lift(identity2), LorentzMatrix5.identity())
    for two in (SpinMatrix2.diagonal(GoldenComplex(1, 0)), *two_dim_words(3, 2)):
        four = quaternion_lift(two)
        assert two != four and four != two
        with pytest.raises(TypeError):
            two * four
        with pytest.raises(TypeError):
            four * two
    assert APEX != APEX2
    with pytest.raises(TypeError):
        LorentzMatrix5.identity() * identity2
