import random
from fractions import Fraction

import pytest

from e0struct.local_field import (KElement, LocalField, NotInvertible,
                                  PrecisionExhausted)


@pytest.fixture
def K22():
    return LocalField.eisenstein(2, (-2, 0, 1), 12)


def test_unramified_basic(Q3):
    # [TRIVIAL] e = 1, f = n, uniformizer p
    assert Q3.e == 1 and Q3.f == 1
    assert Q3.uniformizer.valuation() == 1
    x = Q3.element([7])
    assert x.valuation() == 0
    assert (x * x.invert()).reduce().as_int() == 1


def test_eisenstein_basic(K22):
    # [TRIVIAL] pi^2 = 2 in Q_2(sqrt 2): v(pi) = 1, v(2) = 2
    pi = K22.uniformizer
    assert pi.valuation() == 1
    two = K22.element([2])
    assert two.valuation() == 2
    assert (pi * pi - two).is_zero_at_precision()


def test_non_eisenstein_rejected():
    with pytest.raises(ValueError):
        LocalField.eisenstein(2, (-3, 0, 1), 8)  # constant not ~ p
    with pytest.raises(ValueError):
        LocalField.eisenstein(2, (-2, 1, 1), 8)  # middle coeff a unit


def test_embed_rational_valuations(Q5):
    # [DERIVED] v(50) = 2, v(1/5) = -1, v(3/4) = 0 in Q_5
    assert Q5.embed_rational(50).valuation() == 2
    assert Q5.embed_rational(Fraction(1, 5)).valuation() == -1
    assert Q5.embed_rational(Fraction(3, 4)).valuation() == 0


def test_embed_rational_is_multiplicative(Q3):
    qs = [Fraction(2, 5), Fraction(-7, 4), Fraction(9, 2), Fraction(1, 3)]
    for a in qs:
        for b in qs:
            lhs = Q3.embed_rational(a) * Q3.embed_rational(b)
            rhs = Q3.embed_rational(a * b)
            assert (lhs - rhs).is_zero_at_precision()


def test_embed_rational_hits_integer(Q7):
    # [DERIVED] 1/8 = 0.125: 8 * embed(1/8) == 1
    x = Q7.embed_rational(Fraction(1, 8))
    assert ((8 * x) - Q7.one().as_k()).is_zero_at_precision()


def test_precision_tracking(Q2):
    # [TRIVIAL] products lose no precision for integral elements; a
    # difference of equal elements is zero at precision, not zero
    x = Q2.element([6])
    y = Q2.element([6])
    d = x - y
    assert d.is_zero_at_precision()
    assert d.valuation_or_none() is None


def test_division_and_shift(Q2):
    x = Q2.element([12])  # 12 = 4 * 3
    assert x.valuation() == 2
    assert x.shift_down(2).valuation() == 0
    assert x.shift_down(2).reduce().as_int() == 1  # 3 mod 2


def test_not_invertible(Q2):
    with pytest.raises(NotInvertible):
        Q2.element([2]).invert()


def test_kelement_pow(Q3):
    x = Q3.element([2]).as_k() / Q3.element([3]).as_k()
    cube = x ** 3
    manual = x * x * x
    assert (cube - manual).is_zero_at_precision()
    assert ((x ** -2) * (x ** 2) - Q3.one().as_k()).is_zero_at_precision()


def test_eisenstein_coeff_moduli(K22):
    # [DERIVED] mod m^3 in Q_2(sqrt2): c0 mod 4, c1 mod 2
    assert K22.coeff_modulus(0, 3) == 4
    assert K22.coeff_modulus(1, 3) == 2


def test_element_to_json_roundtrip(Q3):
    x = Q3.element([5], 8).as_k()
    j = x.to_json()
    assert j["coeffs"] == [5] and j["shift"] == 0 and j["prec"] == 8


def test_zero_division_guard(Q2):
    z = Q2.zero(4).as_k()
    with pytest.raises((PrecisionExhausted, NotInvertible, ZeroDivisionError)):
        Q2.one().as_k() / z


def test_integral_part_of_a_zero_below_m0_is_exhausted():
    # [DERIVED] over Q_5, 0 + O(m^0) over pi^2 plus 1/pi is 0 + O(m^-2):
    # it may be 1/pi, so its integral part is unknown
    K = LocalField.unramified(5, 1, 6)
    pi = K.uniformizer.as_k()
    w = K.zero(0).as_k() / pi ** 2 + K.one().as_k() / pi
    assert w.prec == -2 and w.is_zero_at_precision()
    with pytest.raises(PrecisionExhausted):
        w.integral_part()


def test_an_int_meets_a_k_element_at_its_own_precision():
    # [DERIVED] an int is embedded to max(the element's precision, M) in
    # K as in O_K, so 3 + O(m^20) times 5 over Q_5 at M = 12 is known
    # mod m^20 both ways
    K = LocalField.unramified(5, 1, 12)
    x = K.element([3], 20)
    for y in (x.as_k() * 5, 5 * x.as_k(), (x * 5).as_k()):
        assert y.prec == 20 and y == 15


@pytest.mark.parametrize("poly", [(-2, 2, 1), (-3, 3, 0, 1)])
def test_embed_rational_non_pure_eisenstein(poly):
    # [DERIVED] p = pi^e * u with u a unit other than 1 when the
    # Eisenstein polynomial has middle terms; rationals must still land
    # on the integers' own images
    K = LocalField.eisenstein(-poly[0], poly, 12)
    p = K.p
    assert K.embed_integral_rational(6) == K.element([6])
    assert K.element([p]) == p
    assert K.embed_rational(Fraction(1, p)) * K.element([p]) == 1


@pytest.mark.parametrize("field", [
    LocalField.unramified(5, 2), LocalField.eisenstein(2, (-2, 2, 1)),
    LocalField.eisenstein(5, (-5, 0, 0, 1))], ids=["Q_25", "x2+2x-2", "x3-5"])
def test_embed_rational_of_a_vector_has_the_scalar_rule(field):
    # [DERIVED] a vector [c_0, c_1, ...] is sum c_i X^i, known to
    # max(M, v + 1) like a rational of the same valuation, zero to M
    rng = random.Random(15)
    K, p, M = field, field.p, field.M
    X = [K.element([0] * i + [1]).as_k() for i in range(K.deg)]

    def rational():
        return Fraction(rng.choice([0, 1, -1]) * rng.randrange(1, 50)
                        * p ** rng.randrange(4),
                        rng.randrange(1, 50) * p ** rng.randrange(3))

    for _ in range(60):
        cs = [rational() for _ in range(K.deg)]
        z = K.embed_rational(cs)
        assert z == sum((K.embed_rational(c) * x for c, x in zip(cs, X)),
                        K.zero().as_k())
        if any(cs):
            v = z.valuation()
            assert z.prec == max(M, v + 1)
        else:
            assert z.is_zero_at_precision() and z.prec == M
        for c in cs:
            one, alone = K.embed_rational([c]), K.embed_rational(c)
            assert one == alone and one.prec == alone.prec


# the presentation over both kinds: (p, n) unramified, or an Eisenstein h;
# the last three have h(0)/p != +-1, and x - 10 has e = 1
PRESENTATIONS = [(2, 1), (5, 1), (3, 2), (3, 3),
                 (2, (-2, 0, 1)), (2, (-2, 2, 1)), (3, (-3, 3, -3, 1)),
                 (5, (-10, 0, 1)), (2, (-6, 2, 1)), (5, (-10, 1))]


def _presented(p, n_or_poly):
    if isinstance(n_or_poly, int):
        return LocalField.unramified(p, n_or_poly)
    return LocalField.eisenstein(p, n_or_poly)


def _random_element(K, rng, prec):
    big = K.p ** (K.int_prec(K.M) + 1)
    return K.element([rng.randrange(big) for _ in range(K.deg)], prec=prec)


@pytest.mark.parametrize("p, n_or_poly", PRESENTATIONS)
def test_shifts_are_multiplication_and_division_by_pi(p, n_or_poly):
    # [DERIVED] shift_up(k) is the product with pi^k, shift_down(k) its
    # exact inverse, and each moves the precision by exactly k
    K = _presented(p, n_or_poly)
    rng = random.Random(f"shift/{p}/{n_or_poly}")
    pi = K.uniformizer
    for k in range(2 * K.e + 2):
        for _ in range(6):
            x = _random_element(K, rng, rng.randrange(1, K.M + 1))
            y = x * pi ** k
            up = x.shift_up(k)
            assert up.prec == x.prec + k
            assert up == y
            back = up.shift_down(k)
            assert (back.coeffs, back.prec) == (x.coeffs, x.prec)
            down = y.shift_down(k)
            assert down.prec == y.prec - k
            assert down == x
            assert down.as_k() == y.as_k() / pi.as_k() ** k


@pytest.mark.parametrize("p, n_or_poly", PRESENTATIONS)
def test_pi_power_is_the_uniformizer_power(p, n_or_poly):
    # [DERIVED] the exact vector of pi^k, read at the precision of
    # uniformizer ** k, is that element; and p = u * pi^e
    K = _presented(p, n_or_poly)
    for k in range(2 * K.e + 2):
        power = K.uniformizer ** k
        mods = K.coeff_moduli(power.prec)
        assert tuple(c % m for c, m in zip(K.pi_power(k), mods)) == power.coeffs
    assert K.element([p]).shift_down(K.e) * K.uniformizer ** K.e == K.element([p])


@pytest.mark.parametrize("p, n_or_poly", PRESENTATIONS)
def test_residue_lift_and_basis_valuations(p, n_or_poly):
    # [DERIVED] the first f coefficients lift the residue field, and
    # p^j X^i has valuation e*j + v(X^i), v(X^i) = i for Eisenstein, 0
    # for unramified
    K = _presented(p, n_or_poly)
    for xbar in K.residue:
        assert K.element(list(xbar.coeffs)).reduce() == xbar
    eisenstein = not isinstance(n_or_poly, int)
    for i in range(K.deg):
        for j in range(3):
            x = K.element([0] * i + [p ** j])
            assert x.valuation() == K.e * j + (i if eisenstein else 0)


@pytest.mark.parametrize("p, n_or_poly", PRESENTATIONS)
def test_k_products_follow_the_o_k_precision_rule(p, n_or_poly):
    # [DERIVED] K = O_K[1/pi] multiplies as O_K does (product_prec): apparent
    # zeros known mod m^A and m^B have a product known mod m^(A + B), and a
    # zero times a nonzero element is the O_K product.  An apparent zero of
    # pi^-1 O_K, known mod m^-1, has a square known only mod m^-2 and a cube
    # only mod m^-3
    K = _presented(p, n_or_poly)
    rng = random.Random(f"kzero/{p}/{n_or_poly}")
    for A in range(4):
        for B in range(4):
            a, b = K.zero(A), K.zero(B)
            assert (a.as_k() * b.as_k()).prec == (a * b).prec == A + B
            x = _random_element(K, rng, rng.randrange(1, K.M + 1))
            if x:
                assert ((a.as_k() * x.as_k()).to_json()
                        == (a * x).as_k().to_json())
    z = K.zero(0).as_k() / K.uniformizer.as_k()
    assert z.prec == -1 and z.is_zero_at_precision()
    assert (z * z).prec == -2
    assert (z ** 3).prec == -3
