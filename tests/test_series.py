import random
from fractions import Fraction

import pytest

from e0struct.formal_group import specialize
from e0struct.local_field import LocalField, OElement
from e0struct.series import Series, WPoly, key_weight, pack, unpack

from conftest import (divisible_by_int, exact_div_int,
                      is_homogeneous_of_weight, wpoly_weights)


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
    assert not is_homogeneous_of_weight(p, 2)  # mixed weights 2 and 3,4
    assert wpoly_weights(p) == {2, 3, 4}


def test_wpoly_exact_div():
    p = 6 * WPoly.var(1) * WPoly.var(2)
    assert divisible_by_int(p, 3)
    assert exact_div_int(p, 3) == 2 * WPoly.var(1) * WPoly.var(2)
    assert not divisible_by_int(p, 4)


def test_wpoly_evaluate():
    # [TRIVIAL] a1*a2 + 2 at a1=3, a2=5 is 17
    p = WPoly.var(1) * WPoly.var(2) + WPoly.const(2)
    key1 = next(iter(WPoly.var(1).d))
    key2 = next(iter(WPoly.var(2).d))
    assert key1 == pack((1, 0, 0, 0, 0)) and key2 == pack((0, 1, 0, 0, 0))
    assert specialize(Series.const(1, 0, p), (3, 5, 0, 0, 0),
                      1).constant_term() == 17


def test_wpoly_pretty_ordering():
    # [TRIVIAL] by weight, the constant term first, then by descending
    # exponents; a coefficient -1 shrinks to its sign
    a1, a2, a3, a4, a6 = (WPoly.var(i) for i in (1, 2, 3, 4, 6))
    for p, text in [
            (a1 * a2 - 7 * a3, "a1*a2 - 7*a3"),
            (WPoly(), "0"),
            (Fraction(1, 2) * a1 * a1 - a2 + Fraction(3, 4) * a6 + 3,
             "3 + 1/2*a1^2 - a2 + 3/4*a6"),
            (a1 - Fraction(1, 3) * a4 - 5, "-5 + a1 - 1/3*a4")]:
        assert p.pretty() == text


def test_series_geometric_inverse():
    # [DERIVED] 1/(1 - T) = 1 + T + T^2 + ...
    one_minus_t = Series.const(1, 8, 1) - Series.variable(1, 8, 0)
    inv = one_minus_t.invert_unit()
    for k in range(9):
        assert inv.coefficient((k,)) == 1


@pytest.mark.parametrize("trunc", range(8))
def test_invert_unit_at_every_truncation(trunc):
    # [DERIVED] the inverse is exact through every truncation degree, in
    # one and in two variables
    s = Series(1, trunc, {(k,): k + 1 for k in range(trunc + 1)})
    z = s.invert_unit()
    assert z.trunc == trunc and s * z == Series.const(1, trunc, 1)
    b = Series(2, trunc, {(i, j): i + 2 * j + 1 for i in range(trunc + 1)
                          for j in range(trunc + 1 - i)})
    assert b * b.invert_unit() == Series.const(2, trunc, 1)


def test_series_compose():
    # [DERIVED] g(T) = T^2 at T = f gives f^2
    f = Series.variable(1, 6, 0) + Series.variable(1, 6, 0) ** 2
    g = Series.variable(1, 6, 0) ** 2
    assert g.compose(f) == f * f


def test_series_integrate():
    # [DERIVED] the antiderivative of 2 + 3T^2 is 2T + T^3, one degree
    # longer; that of T + T^2 is T^2/2 + T^3/3, in Fractions
    s = Series(1, 7, {(0,): 2, (2,): 3}).integrate()
    assert s.trunc == 8 and s.c == {(1,): 2, (3,): 1}
    s = Series(1, 7, {(1,): 1, (2,): 1}).integrate()
    assert s.c == {(2,): Fraction(1, 2), (3,): Fraction(1, 3)}


def test_series_evaluate_univar():
    # [DERIVED] 1 + 2T + 3T^2 at T = 4 is 57
    s = Series.const(1, 3, 1) + Series.variable(1, 3, 0).scale(2) + (
        Series.variable(1, 3, 0) ** 2
    ).scale(3)
    assert s.evaluate_univar(4, 1) == 57


def test_series_mul_truncates():
    t = Series.variable(1, 2, 0)
    assert (t * t * t) == Series(1, 2)


def test_series_pretty_signs():
    t = Series.variable(1, 5, 0)
    s = t.scale(2) - t * t - (t ** 3).scale(2)
    assert s.pretty(["T"]) == "2*T - T^2 - 2*T^3"


KERNEL_FIELDS = {
    "Q2(sqrt2)": lambda: LocalField.eisenstein(2, (-2, 0, 1), 16),
    "x^2+2x-2": lambda: LocalField.eisenstein(2, (-2, 2, 1), 16),
    "x^3-5": lambda: LocalField.eisenstein(5, (-5, 0, 0, 1), 18),
    "x^2-7": lambda: LocalField.eisenstein(7, (-7, 0, 1), 16),
    "Q5": lambda: LocalField.unramified(5, 1, 10),
    "F49": lambda: LocalField.unramified(7, 2, 8),
}


def _random_o_k_series(rng, f, D):
    """Univariate series over O_K: elements of random valuation and
    precision around M, and the int coefficients that T, add_const and
    derivatives leave behind (units, and p for a positive valuation)."""
    c = {}
    for d in range(D + 1):
        r = rng.random()
        if r < 0.15:
            continue
        if r < 0.35:
            c[(d,)] = rng.choice([1, -1, 2, -f.p])
            continue
        x = f.element([rng.randrange(f.p ** 3) for _ in range(f.deg)],
                      prec=f.M + rng.randrange(-f.e, 2 * f.e))
        c[(d,)] = x.shift_up(rng.randrange(3))
    return Series(1, D, c)


def _fold_product(s1, s2):
    """The per-term fold: one OElement product and one sum per term pair.
    A partial sum that reads zero stays, with its precision."""
    D = min(s1.trunc, s2.trunc)
    out = {}
    for k1, v1 in s1.c.items():
        for k2, v2 in s2.c.items():
            k = (k1[0] + k2[0],)
            if k[0] <= D:
                out[k] = out.get(k, 0) + v1 * v2
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernel_product_matches_per_term_fold(name):
    # [DERIVED] the kernel adds the raw products and reduces once; its
    # value and its precision (the least product precision) are the
    # fold's, also where the sum cancels to an apparent zero
    f = KERNEL_FIELDS[name]()
    rng = random.Random(name)
    for _ in range(25):
        s1 = _random_o_k_series(rng, f, rng.randrange(3, 12))
        s2 = _random_o_k_series(rng, f, rng.randrange(3, 12))
        got = s1 * s2
        ref = _fold_product(s1, s2)
        assert got.trunc == min(s1.trunc, s2.trunc)
        assert set(got.c) == set(ref)
        for k, r in ref.items():
            g = got.c[k]
            assert type(g) is type(r) and g == r, k
            if isinstance(r, OElement):
                assert g.prec == r.prec, k


def test_o_k_zero_coefficient_keeps_its_precision():
    # [DERIVED] a coefficient that reads 0 but is known only mod m^3 stays
    # in the series, so a value computed from it is known mod m^3 only
    f = LocalField.eisenstein(5, (-5, 0, 0, 1), 12)
    s = Series.variable(1, 2, 0).scale(f.element([0], 3)).add_const(1)
    assert s.evaluate_univar(f.one(), f.one()).prec == 3


def test_kernel_builds_one_element_per_output_coefficient(monkeypatch):
    # [DERIVED] a D = 20 product over x^2 - 7 builds at most one OElement
    # per output coefficient, not one per term pair
    f = LocalField.eisenstein(7, (-7, 0, 1), 24)
    rng = random.Random(20)

    def series():
        return Series(1, 20, {(d,): f.element(
            [rng.randrange(1, 7 ** 4), rng.randrange(7 ** 4)])
            for d in range(21)})

    s1, s2 = series(), series()
    built = []
    init = OElement.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(OElement, "__init__", counting_init)
    product = s1 * s2
    assert len(product.c) == 21
    assert len(built) <= 21
