import random
from fractions import Fraction

import pytest

from e0struct.classifier import classify_general
from e0struct.formal_group import (G_TABLE, eval_at, formal_log, formal_sum,
                                   g_polynomial, generic_mult_by_n,
                                   specialize, specialized_mult_by_n,
                                   t_of_multiple, tail_valuation, w_series)
from e0struct.local_field import LocalField
from e0struct.series import GENERIC_A, Series, WPoly

from conftest import FIXTURE_COEFFS, make_curve, random_normalized_curve


def test_w_series_satisfies_curve_equation():
    # [DERIVED] w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3
    D = 12
    a1, a2, a3, a4, a6 = GENERIC_A
    w = w_series(GENERIC_A, D)
    t = Series.variable(1, D, 0)
    w2 = w * w
    rhs = (t ** 3 + (t * w).scale(a1) + (t * t * w).scale(a2)
           + w2.scale(a3) + (t * w2).scale(a4) + (w2 * w).scale(a6))
    assert w == rhs


def test_w_series_leading_terms():
    # [PAPER] w = T^3 + a1*T^4 + (a1^2 + a2)*T^5 + ...
    a1, a2, a3, a4, a6 = GENERIC_A
    w = w_series(GENERIC_A, 6)
    assert w.coefficient((3,)) == 1
    assert w.coefficient((4,)) == a1
    assert w.coefficient((5,)) == a1 * a1 + a2
    assert w.coefficient((6,)) == a1 * a1 * a1 + 2 * a1 * a2 + a3


def test_formal_sum_leading_terms():
    # [PAPER] the degree <= 4 part of F(T1, T2)
    F = formal_sum(GENERIC_A, 4)
    assert F.pretty(["T1", "T2"]) == (
        "T1 + T2 - a1*T1*T2 - a2*T1^2*T2 - a2*T1*T2^2 - 2*a3*T1^3*T2"
        " + (a1*a2 - 3*a3)*T1^2*T2^2 - 2*a3*T1*T2^3")


def test_formal_sum_symmetric_and_unital():
    D = 8
    F = formal_sum(GENERIC_A, D)
    for (i, j), v in F.c.items():
        assert F.coefficient((j, i)) == v
    # F(T, 0) = T: only the (1, 0) key survives setting T2 = 0
    for (i, j), v in F.c.items():
        if j == 0:
            assert (i, v) == (1, 1)


def _subst2(F, f, g):
    """F(f, g) for bivariate F and multivariate f, g (test-local helper;
    the library version only substitutes univariate series)."""
    D = min(F.trunc, f.trunc, g.trunc)
    rows = {}
    for (i, j), v in F.c.items():
        rows.setdefault(i, {})[j] = v
    out = Series(f.nvars, D)
    for i in range(max(rows), -1, -1):
        out = out * f
        for j, v in rows.get(i, {}).items():
            out = out + (g ** j).scale(v)
    return out


def test_formal_sum_associative_small():
    # [DERIVED] F(F(S,T), U) = F(S, F(T,U)) through total degree 6
    D = 6
    F = formal_sum(GENERIC_A, D)
    S = Series.variable(3, D, 0)
    T = Series.variable(3, D, 1)
    U = Series.variable(3, D, 2)
    assert _subst2(F, _subst2(F, S, T), U) == _subst2(F, S, _subst2(F, T, U))


def inverse_series(a, D):
    """i(t) with F(t, i(t)) = 0: the negation of the point (t, w(t)),
    -(t, w) = (t, w)/(a1*t + a3*w - 1), so i(T) = T/(a1*T + a3*w(T) - 1)."""
    T = Series.variable(1, D, 0)
    return T * (a[0] * T + a[2] * w_series(a, D) - 1).invert_unit(-1)


def test_inverse_series():
    # [DERIVED] F(T, i(T)) = 0
    D = 9
    F = formal_sum(GENERIC_A, D)
    t = Series.variable(1, D, 0)
    inv = inverse_series(GENERIC_A, D)
    assert _subst2(F, t, inv) == Series(1, D)


def test_chord_sum_inverts_one_unit(monkeypatch):
    # [DERIVED] the sum on a chord is (N, V)/Q over the one denominator
    # Q = A + a1*N + a3*V, not -B/A followed by a negation's own division
    from e0struct import formal_group

    K = LocalField.unramified(5, 1, 8)
    a = tuple(K.element([5 * c]) for c in (1, 2, 3, 4, 1))
    calls = []
    inverse = formal_group._unit_inverse
    monkeypatch.setattr(formal_group, "_unit_inverse",
                        lambda x, r: calls.append(x) or inverse(x, r))
    formal_group._chord_sum(a, K.element([2]), K.element([15]),
                            K.element([1]), K.element([2]))
    assert len(calls) == 1


def test_generic_mult_by_2_leading_terms():
    # [PAPER] [2](T) through degree 5
    m2 = generic_mult_by_n(2, 5)
    assert m2.pretty(["T"]) == (
        "2*T - a1*T^2 - 2*a2*T^3 + (a1*a2 - 7*a3)*T^4"
        " + (-6*a1*a3 + 2*a2^2 - 12*a4)*T^5")


def test_generic_mult_by_7_degree_7_coefficient():
    # [PAPER] the a6 and a1^6 monomials of the T^7 coefficient of [7]
    c = generic_mult_by_n(7, 7).coefficient((7,))
    assert c.coefficient((0, 0, 0, 0, 1)) == -352944
    assert c.coefficient((6, 0, 0, 0, 0)) == 1


def test_mult_by_n_additivity():
    # [DERIVED] [n] = F([n-1], T) in the generic ring: the ladder checked
    # against the chord-law F by plain substitution
    D = 10
    F = formal_sum(GENERIC_A, D)
    t = Series.variable(1, D, 0)
    prev = t
    for n in range(2, 9):
        mn = generic_mult_by_n(n, D)
        assert _subst2(F, prev, t) == mn, n
        prev = mn


def test_log_linearizes_group_law():
    # [DERIVED] log F(S, T) = log S + log T
    D = 8
    F = formal_sum(GENERIC_A, D)
    F = Series(2, D, {k: v.map_coeffs(Fraction) if isinstance(v, WPoly)
                      else Fraction(v) for k, v in F.c.items()})
    lg = formal_log(GENERIC_A, D)
    S = Series.variable(2, D, 0)
    T = Series.variable(2, D, 1)
    logF = lg.compose(F)
    logS = Series(2, D, {k: v for k, v in logF.c.items() if k[1] == 0})
    assert logF == lg.compose(S) + lg.compose(T)
    assert logS == lg.compose(S)
    assert lg.coefficient((1,)) == 1


def test_specialized_routes_agree(Q3):
    # [DERIVED] direct specialization of the generic [3] matches the
    # specialized fast path
    E = make_curve(Q3, FIXTURE_COEFFS["E3"][1])
    D = 8
    fast = specialized_mult_by_n(E.a, 3, D)
    generic = specialize(generic_mult_by_n(3, D), E.a, Q3.one())
    for k in set(fast.c) | set(generic.c):
        diff = fast.coefficient(k) - generic.coefficient(k)
        v = diff.valuation_or_none()
        assert v is None or v >= 10


# Q_3 and Eisenstein fields over 2, 5, 7, one with a non-pure polynomial
ROUTE_FIELDS = [(3, None), (2, (-2, 0, 1)), (2, (-2, 2, 1)),
                (5, (-5, 0, 0, 1)), (7, (-7, 0, 1))]


def _route_curve(p, poly):
    if poly is None:
        K = LocalField.unramified(p, 1, 14)
        return make_curve(K, FIXTURE_COEFFS["E3"][1])
    K = LocalField.eisenstein(p, poly, 12 * (len(poly) - 1))
    return random_normalized_curve(K, random.Random(p))


def _agree(x, y, field, min_prec):
    """x == y at their shared precision, and that precision is not tiny."""
    x, y = (v * field.one() if isinstance(v, int) else v for v in (x, y))
    assert min(x.prec, y.prec) >= min_prec
    assert x == y


@pytest.mark.parametrize("p,poly", ROUTE_FIELDS[1:])
def test_specialized_routes_agree_eisenstein(p, poly):
    # [DERIVED] as above, over Eisenstein fields: the chord law on (t, w)
    # pairs matches the specialized generic [p] coefficient by coefficient
    E = _route_curve(p, poly)
    D = 10
    fast = specialized_mult_by_n(E.a, p, D)
    generic = specialize(generic_mult_by_n(p, D), E.a, E.field.one())
    assert fast.trunc == generic.trunc == D
    for k in range(1, D + 1):
        _agree(fast.coefficient(k), generic.coefficient(k), E.field,
               E.field.M - 4)


def test_ladder_mult_by_9_eisenstein():
    # [DERIVED] [9] over Q_7(sqrt 7) matches the specialized generic [9]:
    # a chord through P and [8]P would divide by 9 - 2 = p, while the
    # ladder's chords divide only by units
    E = _route_curve(7, (-7, 0, 1))
    D = 10
    fast = specialized_mult_by_n(E.a, 9, D)
    generic = specialize(generic_mult_by_n(9, D), E.a, E.field.one())
    assert fast.trunc == generic.trunc == D
    for k in range(1, D + 1):
        _agree(fast.coefficient(k), generic.coefficient(k), E.field,
               E.field.M - 4)


@pytest.mark.parametrize("p,poly", ROUTE_FIELDS)
def test_specialized_log_matches_generic(p, poly):
    # [DERIVED] the integral of the invariant differential over O_K equals
    # the specialized generic logarithm, coefficient by coefficient
    E = _route_curve(p, poly)
    D = 12
    fast = formal_log(E.a, D)
    one = E.field.one().as_k()
    generic = specialize(formal_log(GENERIC_A, D),
                         tuple(ai.as_k() for ai in E.a), one)
    assert fast.trunc == generic.trunc == D
    for k in range(1, D + 1):
        _agree(fast.coefficient(k), generic.coefficient(k), E.field,
               E.field.M - 4 * E.field.e)


def test_ramified_path_composes_nothing(monkeypatch):
    # [DERIVED] the ramified path reads no generic table, substitutes no
    # series into another and builds no [n] series: t([p]P) comes from
    # the ladder on points
    from e0struct import formal_group

    K = LocalField.eisenstein(5, (-5, 0, 0, 1), 36)
    E = random_normalized_curve(K, random.Random(5))
    caches = [formal_group._GEN_F, formal_group._GEN_MULT,
              formal_group._GEN_LOG]
    before = [dict(c) for c in caches]
    calls = []
    compose = Series.compose
    monkeypatch.setattr(Series, "compose",
                        lambda *args: calls.append("compose")
                        or compose(*args))
    mult = formal_group.specialized_mult_by_n
    monkeypatch.setattr(formal_group, "specialized_mult_by_n",
                        lambda *args: calls.append("mult") or mult(*args))
    report = classify_general(E)
    assert report.method == "ramified-exploratory"
    assert [dict(c) for c in caches] == before
    assert calls == []


def test_specialized_mult_by_2_fixture(Q2):
    # [DERIVED] for Y^2 + 2Y = X^3 - 2, [2](T) = 2T - 14T^4 + O(T^7)
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    m = specialized_mult_by_n(E.a, 2, 6)
    def as_residue(v):
        if isinstance(v, int):
            return v % 2 ** 10
        return v.coeffs[0] % 2 ** 10 if not v.is_zero_at_precision() else 0

    nonzero = {k: as_residue(v) for k, v in m.c.items() if as_residue(v)}
    assert nonzero == {(1,): 2, (4,): (-14) % 2 ** 10}


@pytest.mark.parametrize("name,expect", [
    ("E3", [1, 2]), ("E5", [1, 4]), ("E7", [1, 6])])
def test_g_polynomial_fixtures(name, expect, Q2, Q3, Q5, Q7):
    # [DERIVED] g has the additive form T + c*T^p with nontrivial kernel
    fields = {2: Q2, 3: Q3, 5: Q5, 7: Q7}
    p, a = FIXTURE_COEFFS[name]
    E = make_curve(fields[p], a)
    g = g_polynomial(E)
    assert [c.as_int() for c in g.coeffs] == expect


def test_g_polynomial_large_p_is_identity():
    # [DERIVED] for p > 7 additive reduction forces g = T
    Q11 = LocalField.unramified(11, 1, 10)
    E = make_curve(Q11, (0, 0, 0, 11, 11))
    g = g_polynomial(E)
    assert [c.as_int() for c in g.coeffs] == [1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_g_table_is_the_linear_part_of_generic_mult(p):
    # [DERIVED] after division by p, only monomials linear in one a_j can
    # survive mod m_K (b_i has weight i - 1); their coefficients are the
    # table's at p-power degrees and divisible by p everywhere else
    mp = generic_mult_by_n(p, 8)
    table = {(e, j): c for e, j, c in G_TABLE[p]}
    for i in range(1, 9):
        b = mp.coefficient((i,))
        for idx, j in enumerate((1, 2, 3, 4, 6)):
            exps = tuple(int(k == idx) for k in range(5))
            c = b.coefficient(exps) if isinstance(b, WPoly) else 0
            if (i, j) in table:
                assert c == table[(i, j)] and c % p, (i, j)
            else:
                assert c % p == 0, (i, j, c)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_g_polynomial_matches_specialized_generic_mult(p):
    # [DERIVED] the old computation as reference: residues of b_i/p read
    # from the generic [p] specialized at the curve
    mp = generic_mult_by_n(p, 8)
    for n in (1, 2):
        K = LocalField.unramified(p, n, 12)
        rng = random.Random(100 * p + n)
        for _ in range(20):
            E = random_normalized_curve(K, rng)
            s = specialize(mp, E.a, K.one())
            residues = {}
            for i in range(1, 9):
                r = s.coefficient((i,)).shift_down(1).reduce()
                if r:
                    residues[i] = r
            powers = [q for q in (1, p, p * p, p ** 3) if q <= 8]
            assert set(residues) <= set(powers)
            expect = [residues.get(q, K.residue.zero) for q in powers]
            while len(expect) > 1 and not expect[-1]:
                expect.pop()
            assert list(g_polynomial(E).coeffs) == expect


@pytest.mark.parametrize("p, n", [(3, 1), (2, 2), (7, 2)])
def test_unramified_classify_reads_no_generic_table(p, n, monkeypatch):
    # [DERIVED] g comes from G_TABLE: no generic table is built or
    # specialized on the unramified path
    from e0struct import formal_group

    K = LocalField.unramified(p, n, 12)
    caches = [formal_group._GEN_F, formal_group._GEN_MULT,
              formal_group._GEN_LOG]
    before = [dict(c) for c in caches]
    calls = []
    monkeypatch.setattr(formal_group, "specialize",
                        lambda *args: calls.append(1) or specialize(*args))
    rng = random.Random(p + n)
    for _ in range(5):
        classify_general(random_normalized_curve(K, rng))
    assert [dict(c) for c in caches] == before
    assert calls == []


LADDER_FIELDS = [(2, 1, None), (5, 1, None), (3, 2, None), (2, 1, (-2, 0, 1)),
                 (7, 1, (-7, 0, 1))]


@pytest.mark.parametrize("p,n,poly", LADDER_FIELDS)
def test_ladder_on_a_point_matches_the_series(p, n, poly):
    # [DERIVED] t([n]P) from the ladder on the point P with t(P) = t, on
    # the chart rescaled so that t/pi^v(t) is a unit, is the [n] series
    # evaluated at t, for points of levels 0-3 and n = p, p^2; the
    # ladder knows every digit of t.  eval_at is the reference, at the
    # least degree whose tail bound covers the precision M = 8
    M = 8
    K = (LocalField.unramified(p, n, M) if poly is None
         else LocalField.eisenstein(p, poly, M))
    rng = random.Random(f"ladder/{p}/{n}/{poly}")
    for _ in range(3):
        E = random_normalized_curve(K, rng)
        for r in range(4):
            u = K.element([rng.randrange(1, p)]
                          + [rng.randrange(p) for _ in range(K.deg - 1)])
            t = u * K.uniformizer ** r
            D = 1
            while tail_valuation(E.a, D, r) < M:
                D += 1
            for m in (p, p * p):
                series = eval_at(E.a, specialized_mult_by_n(E.a, m, D), t, M)
                ladder = t_of_multiple(E.a, m, t)
                assert ladder.prec >= t.prec and ladder == series, (r, m)


def test_eval_at_stable_under_degree(Q2):
    # [DERIVED] the tail bound makes the result independent of the
    # series truncation once it covers the target precision
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    x = Q2.element([6], 12)
    lo = eval_at(E.a, specialized_mult_by_n(E.a, 2, 6), x, 5)
    hi = eval_at(E.a, specialized_mult_by_n(E.a, 2, 12), x, 5)
    v = (lo - hi).valuation_or_none()
    assert v is None or v >= 5
