from fractions import Fraction

import pytest

from e0struct.formal_group import _Scaled
from e0struct.series import Series, WPoly, key_weight, pack, unpack


def test_pack_unpack_roundtrip():
    for exps in [(0, 0, 0, 0, 0), (3, 0, 0, 0, 0), (1, 2, 0, 4, 5)]:
        assert unpack(pack(exps)) == exps
    # [TRIVIAL] weights are 1,2,3,4,6
    assert key_weight(pack((1, 1, 0, 0, 1))) == 9


def test_wpoly_ring_axioms():
    a = WPoly.var(1)
    b = WPoly.var(2)
    p = (a + 2 * b) * (a - b)
    q = a * a + a * b - 2 * b * b
    assert p == q
    assert (p - q) == WPoly()
    assert not p.is_homogeneous_of_weight(2)  # mixed weights 2 and 3,4
    assert p.weights() == {2, 3, 4}


def test_wpoly_exact_div():
    p = 6 * WPoly.var(1) * WPoly.var(2)
    assert p.divisible_by_int(3)
    assert p.exact_div_int(3) == 2 * WPoly.var(1) * WPoly.var(2)
    assert not p.divisible_by_int(4)


def test_wpoly_evaluate():
    # [TRIVIAL] a1*a2 + 2 at a1=3, a2=5 is 17
    p = WPoly.var(1) * WPoly.var(2) + WPoly.const(2)
    key1 = next(iter(WPoly.var(1).d))
    key2 = next(iter(WPoly.var(2).d))
    assert key1 == pack((1, 0, 0, 0, 0)) and key2 == pack((0, 1, 0, 0, 0))
    assert p.evaluate((3, 5, 0, 0, 0), 1) == 17


def test_wpoly_pretty_ordering():
    p = WPoly.var(1) * WPoly.var(2) - 7 * WPoly.var(3)
    assert p.pretty() == "a1*a2 - 7*a3"


def test_series_geometric_inverse():
    # [DERIVED] 1/(1 - T) = 1 + T + T^2 + ...
    one_minus_t = Series.const(1, 8, 1) - Series.variable(1, 8, 0)
    inv = one_minus_t.invert_unit(1)
    for k in range(9):
        assert inv.coefficient((k,)) == 1


@pytest.mark.parametrize("trunc", range(8))
def test_invert_unit_at_every_truncation(trunc):
    # [DERIVED] the shared Newton schedule reaches full precision at every
    # truncation, for Series and for the generic code's _Scaled series
    s = Series(1, trunc, {(k,): k + 1 for k in range(trunc + 1)})
    one = Series.const(1, trunc, 1)
    z = s.invert_unit(1)
    assert z.trunc == trunc and s * z == one
    zs = _Scaled(s).invert_unit()
    assert zs.den == 1 and s * zs.s == one
    b = Series(2, trunc, {(i, j): i + 2 * j + 1 for i in range(trunc + 1)
                          for j in range(trunc + 1 - i)})
    assert b * b.invert_unit(1) == Series.const(2, trunc, 1)


def test_series_compose():
    # [DERIVED] g(T) = T^2 at T = f gives f^2
    f = Series.variable(1, 6, 0) + Series.variable(1, 6, 0) ** 2
    g = Series.variable(1, 6, 0) ** 2
    assert g.compose(f) == f * f


def test_series_derivative_integrate_roundtrip():
    s = Series.variable(1, 7, 0, Fraction(1)) ** 3 + Series.variable(
        1, 7, 0, Fraction(2)
    )
    assert s.derivative().integrate() == s


def test_series_evaluate_univar():
    # [DERIVED] 1 + 2T + 3T^2 at T = 4 is 57
    s = Series.const(1, 3, 1) + Series.variable(1, 3, 0, 2) + (
        Series.variable(1, 3, 0) ** 2
    ).scale(3)
    assert s.evaluate_univar(4, 1) == 57


def test_series_mul_truncates():
    t = Series.variable(1, 2, 0)
    assert (t * t * t) == Series.zero(1, 2)


def test_series_pretty_signs():
    t = Series.variable(1, 5, 0)
    s = t.scale(2) - t * t - (t ** 3).scale(2)
    assert s.pretty(["T"]) == "2*T - T^2 - 2*T^3"
