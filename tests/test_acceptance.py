"""Acceptance gate: end-to-end checks of the published tables, the
structure theorems, and the brute-force oracle, with runtime budgets.
Everything here is exact or property-based; the only tolerances are
wall-clock limits."""

import random
import time
from fractions import Fraction

import pytest

from e0struct.classifier import (classify_congruence, classify_general,
                                 classify_unramified)
from e0struct.curve import INFINITY, reduce_point
from e0struct.formal_group import formal_sum, generic_mult_by_n
from e0struct.local_field import LocalField
from e0struct.oracle import compare
from e0struct.residue_field import AdditivePoly, FiniteField, additive_poly_roots, ff_norm
from e0struct.series import GENERIC_A, Series

from conftest import (FIXTURE_COEFFS, contains, divisible_by_int,
                      field_gen, is_homogeneous_of_weight, make_curve,
                      point_mul, random_normalized_curve, truncate)


# -- 1. symbolic multiplication tables --------------------------------------

def test_symbolic_tables():
    t0 = time.monotonic()
    tables = {p: generic_mult_by_n(p, 20) for p in (2, 3, 5, 7)}
    elapsed = time.monotonic() - t0
    assert truncate(tables[2], 4).pretty(["T"]) == \
        "2*T - a1*T^2 - 2*a2*T^3 + (a1*a2 - 7*a3)*T^4"
    assert truncate(tables[3], 4).pretty(["T"]) == \
        "3*T - 3*a1*T^2 + (a1^2 - 8*a2)*T^3 + (12*a1*a2 - 39*a3)*T^4"
    # [5] and [7]: leading term and the a4 monomial of the T^5 coefficient
    for p, c5 in ((5, -1248), (7, -6720)):
        assert tables[p].coefficient((1,)) == p
        assert tables[p].coefficient((5,)).coefficient((0, 0, 0, 1, 0)) == c5
    # degree-7 term of [7]: the a6 monomial
    assert tables[7].coefficient((7,)).coefficient((0, 0, 0, 0, 1)) == -352944
    assert elapsed < 10, f"table computation took {elapsed:.1f} s"


# -- 2. formal group expansion ----------------------------------------------

def _subst2(F, f, g):
    D = min(F.trunc, f.trunc, g.trunc)
    rows = {}
    for (i, j), v in F.c.items():
        rows.setdefault(i, {})[j] = v
    powers = {}
    out = Series(f.nvars, D)
    for i in range(max(rows), -1, -1):
        out = out * f
        for j, v in rows.get(i, {}).items():
            if j not in powers:
                powers[j] = g ** j
            out = out + powers[j].scale(v)
    return out


def test_formal_group_expansion():
    F4 = formal_sum(GENERIC_A, 4)
    assert F4.pretty(["X", "Y"]) == (
        "X + Y - a1*X*Y - a2*X^2*Y - a2*X*Y^2 - 2*a3*X^3*Y"
        " + (a1*a2 - 3*a3)*X^2*Y^2 - 2*a3*X*Y^3")
    D = 10
    F = formal_sum(GENERIC_A, D)
    for (i, j), v in F.c.items():
        assert F.coefficient((j, i)) == v, "F is not symmetric"
    S = Series.variable(3, D, 0)
    T = Series.variable(3, D, 1)
    U = Series.variable(3, D, 2)
    assert _subst2(F, _subst2(F, S, T), U) == _subst2(F, S, _subst2(F, T, U))


# -- 3. divisibility and homogeneity of [p] ---------------------------------

def test_mult_p_coefficient_structure():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7, 11):
        D = 2 * p + 6
        mp = generic_mult_by_n(p, D)
        for i in range(1, D + 1):
            b = mp.coefficient((i,))
            if isinstance(b, int):
                if i % p:
                    assert b % p == 0
                continue
            assert is_homogeneous_of_weight(b, i - 1), (p, i)
            if i % p:
                assert divisible_by_int(b, p), (p, i)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"divisibility suite took {elapsed:.1f} s"


# -- 4. worked-example fixtures ---------------------------------------------

def _timed_classify(E):
    t0 = time.monotonic()
    r = classify_general(E)
    assert time.monotonic() - t0 < 5
    return r


def _is_torsion(E, P, m):
    return point_mul(E, m, P).is_infinity


def test_fixture_E2_over_Q2(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    r = _timed_classify(E)
    assert str(r.structure) == "Z_2 x Z/2Z" and r.certified
    P = E.point(1, -1)
    assert contains(E, P) and reduce_point(E, P)[1]
    assert _is_torsion(E, P, 2)


def test_fixture_E2_over_Q4(Q4):
    # over Q_2(zeta_3) the full 2-torsion (x^3 = 1, y = -1) sits in E_0
    E = make_curve(Q4, FIXTURE_COEFFS["E2"][1])
    r = _timed_classify(E)
    assert str(r.structure) == "Z_2^2 x (Z/2Z)^2" and r.certified
    # Hensel-lift the cube root of unity from the residue field F_4
    w = Q4.element(list(field_gen(Q4.residue).coeffs)).as_k()
    one = Q4.one().as_k()
    for _ in range(6):
        w = w - (w * w + w + one) / (2 * w + one)
    assert (w * w + w + one).is_zero_at_precision()
    minus_one = -one
    points = [E.point(1, -1),
              E.point(w, minus_one),
              E.point(-one - w, minus_one),
              INFINITY]
    for P in points:
        assert contains(E, P)
        assert reduce_point(E, P)[1], "2-torsion point must lie in E_0"
        assert point_mul(E, 2, P).is_infinity
    # and they are pairwise distinct on the special fiber
    images = {reduce_point(E, P)[0] for P in points}
    assert len(images) == 4


@pytest.mark.parametrize("name,coords,expect", [
    ("E3", (1, 1), "Z_3 x Z/3Z"),
    ("E5", (1, -1), "Z_5 x Z/5Z"),
    ("E7", (2, 1), "Z_7 x Z/7Z"),
])
def test_fixture_torsion_points(name, coords, expect, Q3, Q5, Q7):
    fields = {3: Q3, 5: Q5, 7: Q7}
    p, a = FIXTURE_COEFFS[name]
    E = make_curve(fields[p], a)
    r = _timed_classify(E)
    assert str(r.structure) == expect and r.certified
    P = E.point(*coords)
    assert contains(E, P) and reduce_point(E, P)[1]
    assert _is_torsion(E, P, p)


def test_fixture_E8_two_torsion_excluded(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E8"][1])
    r = _timed_classify(E)
    assert str(r.structure) == "Z_2" and r.certified
    for x in (0, 2, 4):
        P = E.point(x, 0)
        assert contains(E, P)
        assert not reduce_point(E, P)[1], f"({x},0) must be outside E_0"


@pytest.mark.parametrize("name,coords", [("E9", (3, 5)), ("E10", (1, 2))])
def test_fixture_infinite_order(name, coords, Q2, Q3):
    p, a = FIXTURE_COEFFS[name]
    E = make_curve({2: Q2, 3: Q3}[p], a)
    r = _timed_classify(E)
    assert r.certified and r.structure.torsion == ()
    P = E.point(*coords)
    assert contains(E, P) and reduce_point(E, P)[1]
    # nonidentity point of a certified torsion-free group
    assert not P.is_infinity


# -- 5. theorem vs congruence over Q_p --------------------------------------

def test_theorem_congruence_equivalence(Q2, Q3, Q5, Q7):
    t0 = time.monotonic()
    disagreements = 0
    for f in (Q2, Q3, Q5, Q7):
        rng = random.Random(1000 + f.p)
        for _ in range(1000):
            E = random_normalized_curve(f, rng)
            a = classify_unramified(E)
            b = classify_congruence(E)
            if str(a.structure) != str(b.structure):
                disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 120, f"equivalence suite took {elapsed:.1f} s"


# -- 6. oracle equivalence --------------------------------------------------

# brute-force level per (p, n), keeping every model at order <= 2^16
MCHOICE = {(2, 1): 4, (2, 2): 4, (3, 1): 4, (3, 2): 3,
           (5, 1): 3, (5, 2): 2, (7, 1): 3, (7, 2): 2}


def test_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    for (p, n), M in sorted(MCHOICE.items()):
        field = LocalField.unramified(p, n, 12)
        rng = random.Random(6000 + 10 * p + n)
        for i in range(200):
            E = random_normalized_curve(field, rng)
            report = classify_general(E)
            assert report.certified
            verdict = compare(E, report, M)
            if verdict["verdict"] != "pass":
                failures.append((p, n, i, verdict))
    elapsed = time.monotonic() - t0
    assert not failures, failures[:3]
    assert elapsed < 600, f"oracle suite took {elapsed:.1f} s"


# -- 7. norm criterion, exhaustively ----------------------------------------

def test_norm_criterion_exhaustive():
    for p in (3, 5, 7):
        for f in (1, 2, 3):
            k = FiniteField(p, f)
            for c in k:
                poly = AdditivePoly(k, [k.one, -c])  # T - c*T^p
                dim, _roots = additive_poly_roots(poly)
                expect = 1 if (c and ff_norm(c).as_int() == 1) else 0
                assert dim == expect, (p, f, c)


# -- 8. certified fast path for 6e < p - 1 ----------------------------------

def test_large_p_ramified_fast_path():
    rng = random.Random(8)
    primes = (17, 19, 23, 29, 31, 37)
    for i in range(50):
        p = primes[i % len(primes)]
        field = LocalField.eisenstein(p, (-p, 0, 1), 8)
        E = random_normalized_curve(field, rng)
        r = classify_general(E)
        assert r.certified and r.method == "6e<p-1"
        assert str(r.structure) == f"Z_{p}^2"
        verdict = compare(E, r, 3)
        assert verdict["verdict"] == "pass", (p, i, verdict)


# -- 9. ramified exploration over Q_2(sqrt 2) -------------------------------

def _commensurability_product(rows):
    """[L : L cap O] * [O : L cap O] for a 2x2 basis with denominators
    dividing 2, computed over Q."""
    a, b = rows
    det = abs(a[0] * b[1] - a[1] * b[0])
    integral = 0
    for x0 in (0, 1):
        for x1 in (0, 1):
            v = (x0 * a[0] + x1 * b[0], x0 * a[1] + x1 * b[1])
            if all(Fraction(c).denominator == 1 for c in v):
                integral += 1
    idx_l = 4 // integral          # [L : L cap O]
    idx_o = det * idx_l            # [O : L cap O]
    assert idx_o.denominator == 1
    return idx_l * int(idx_o)


def test_ramified_exploration(Q2sqrt2):
    rng = random.Random(9)
    seen = set()
    for _ in range(30):
        E = random_normalized_curve(Q2sqrt2, rng)
        r = classify_general(E)
        assert not r.certified
        coords = r.evidence["g_image_coords"]
        assert len(coords) == 2 and all(c in (0, 1) for c in coords)
        assert r.structure.torsion in ((), (2,))
        seen.add(r.structure.torsion)
        if r.structure.torsion == ():
            lat = r.lattice
            assert lat is not None and len(lat) == 2
            for row in lat:
                assert all(Fraction(v).denominator in (1, 2) for v in row)
            prod = _commensurability_product(lat)
            assert 4 % prod == 0, (lat, prod)
        else:
            assert r.lattice is None
    assert seen == {(), (2,)}
