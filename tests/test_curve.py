import random

import pytest

from e0struct import curve
from e0struct.classifier import (classify_congruence, classify_general,
                                 classify_unramified, ramified_g_map)
from e0struct.curve import (INFINITY, CurvePoint, NotInE0, Transform,
                            WeierstrassCurve, filtration_level,
                            normalize_additive, psi_E0, reduce_point,
                            reduction_type)
from e0struct.formal_group import g_polynomial, t_of_multiple
from e0struct.local_field import LocalField, PrecisionExhausted
from e0struct.oracle import finite_model
from e0struct.residue_field import frobenius_inverse

from conftest import (FIXTURE_COEFFS, contains, make_curve, point_add,
                      point_mul, point_neg)


def test_invariants_fixture(Q2):
    # [DERIVED] b-invariants of Y^2 + 2Y = X^3 - 2
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    assert E.b2.is_zero_at_precision()
    assert E.b4.is_zero_at_precision()
    assert (E.b6 - Q2.element([-4])).is_zero_at_precision()
    # the constructor already asserts 1728*disc = c4^3 - c6^2
    assert E.disc.valuation() == 4  # disc = -27*b6^2 = -432 = -2^4*27


def test_reduction_type_good(Q5):
    E = make_curve(Q5, (0, 0, 1, 0, 0))  # Y^2 + Y = X^3, disc = -27
    assert reduction_type(E).tag == "good"


def test_reduction_type_additive_fixtures(fixture_curves):
    for name, E in fixture_curves.items():
        rt = reduction_type(E)
        assert rt.tag == "additive", name


def test_reduction_type_multiplicative_split(Q5):
    # [DERIVED] Y^2 = X^3 + X^2 + 5: node at (0,0), tangents z = +-1
    E = make_curve(Q5, (0, 1, 0, 0, 5))
    assert reduction_type(E).tag == "multiplicative"


def test_reduction_type_multiplicative_nonsplit(Q5):
    # [DERIVED] Y^2 = X^3 + 2X^2 + 5: tangent slopes z^2 = 2, and 2 is
    # not a square mod 5
    E = make_curve(Q5, (0, 2, 0, 0, 5))
    assert reduction_type(E).tag == "multiplicative"


def test_multiplicative_model_gets_the_additive_refusal(Q5):
    # no node point is computed: reduce_point and filtration_level give
    # the one refusal of every command for a multiplicative fibre
    E = make_curve(Q5, (0, 1, 0, 0, 5))
    P = E.point(0, 0)
    for fn in (reduce_point, filtration_level):
        with pytest.raises(ValueError) as info:
            fn(E, P)
        assert str(info.value) == ("reduction type: multiplicative "
                                   "(additive required)"), fn


def test_normalize_fixture_already_normal(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E8"][1])
    assert E.is_normalized()
    E2, tr = normalize_additive(E)
    assert tr.is_identity
    assert all((x - y).is_zero_at_precision() for x, y in zip(E.a, E2.a))


def test_normalize_after_translation(Q3):
    # shift a normalized model off the origin, then normalize it back
    E = make_curve(Q3, FIXTURE_COEFFS["E3"][1])
    shift = Transform(Q3, 1, 1, 2)
    E_shifted = shift.apply(E)
    assert not E_shifted.is_normalized()
    E_norm, tr = normalize_additive(E_shifted)
    assert E_norm.is_normalized()
    assert (E_shifted.disc - E_norm.disc).is_zero_at_precision()


def test_transform_point_roundtrip(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    tr = Transform(Q2, 3, 1, -2)
    P = E.point(1, -1)
    assert contains(E, P)
    Q = tr.forward(P)
    assert contains(tr.apply(E), Q)
    # X = X' + r, Y = Y' + s X' + t is the transform (-r, -s, rs - t)
    back = Transform(Q2, -3, -1, 5).forward(Q)
    assert (back.x - P.x).is_zero_at_precision()
    assert (back.y - P.y).is_zero_at_precision()
    assert tr.forward(INFINITY).is_infinity


def test_two_torsion_arithmetic(Q2):
    # [DERIVED] Y^2 = X^3 - 6X^2 + 8X has 2-torsion (0,0), (2,0), (4,0)
    E = make_curve(Q2, FIXTURE_COEFFS["E8"][1])
    P, Q, R = E.point(0, 0), E.point(2, 0), E.point(4, 0)
    for pt in (P, Q, R):
        assert contains(E, pt)
        assert point_add(E, pt, pt).is_infinity
    S = point_add(E, P, Q)
    assert (S.x - R.x).is_zero_at_precision()
    assert (S.y - R.y).is_zero_at_precision()


def test_point_mul_torsion(Q2):
    # [PAPER] (1, -1) is 2-torsion on Y^2 + 2Y = X^3 - 2
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    P = E.point(1, -1)
    assert contains(E, P)
    assert point_mul(E, 2, P).is_infinity
    assert point_add(E, P, point_neg(E, P)).is_infinity


def test_reduce_point_flags(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E8"][1])
    k = Q2.residue
    img, smooth = reduce_point(E, E.point(0, 0))
    assert img == (k.zero, k.zero, k.one) and not smooth
    img, smooth = reduce_point(E, E.point(2, 0))
    assert img == (k.zero, k.zero, k.one) and not smooth
    img, smooth = reduce_point(E, INFINITY)
    assert img == (k.zero, k.one, k.zero) and smooth


def test_filtration_and_psi(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    P = E.point(1, -1)
    assert filtration_level(E, P) == 0
    assert filtration_level(E, INFINITY) is None
    z = psi_E0(E, P)
    assert (z - Q2.one()).is_zero_at_precision()
    assert psi_E0(E, P).reduce() == Q2.residue.one
    assert psi_E0(E, INFINITY).is_zero_at_precision()


def test_filtration_positive_level(Q3):
    # [DERIVED] on Y^2 = X^3 + 3X + 3 over Q_3 the point (1/9, w/27)
    # with w^2 = 1 + 3*81 + 3*729 = 2431 lies in E_1 \ E_2
    E = make_curve(Q3, (0, 0, 0, 3, 3))
    assert reduction_type(E).tag == "additive"
    # Hensel-lift sqrt(2431) in Z_3 (2431 = 1 mod 3); extra digits so
    # the embedded point is exact at the field's working precision
    mod = 3 ** 20
    w = 1
    for _ in range(6):
        w = (w - (w * w - 2431) * pow(2 * w, -1, mod)) % mod
    assert (w * w - 2431) % mod == 0
    from fractions import Fraction
    P = E.point(Fraction(1, 9), Fraction(w, 27))
    assert contains(E, P)
    assert filtration_level(E, P) == 1
    assert psi_E0(E, P).valuation() == 1
    assert psi_E0(E, P).reduce() == Q3.residue.zero


def test_not_in_e0_raises(Q2):
    E = make_curve(Q2, FIXTURE_COEFFS["E8"][1])
    with pytest.raises(NotInE0, match="^point reduces to the singular locus$"):
        filtration_level(E, E.point(0, 0))
    with pytest.raises(NotInE0, match="^point reduces to the singular locus$"):
        psi_E0(E, E.point(0, 0))


NOT_NORMALIZED = ("model is not normalized (some a_i is a unit); "
                  "normalize_additive moves every a_i into m_K")


@pytest.mark.parametrize("entry", [
    lambda E3, _: classify_unramified(E3),
    lambda E3, _: classify_congruence(E3),
    lambda _, E2: ramified_g_map(E2),
    lambda E3, _: g_polynomial(E3),
    lambda E3, _: psi_E0(E3, INFINITY),
    lambda E3, _: finite_model(E3, 2),
], ids=["classify_unramified", "classify_congruence", "ramified_g_map",
        "g_polynomial", "psi_E0", "finite_model"])
def test_unnormalized_model_is_refused_in_one_place(Q3, Q2sqrt2, entry):
    # E3 over Q_3 and E2 over Q_2(sqrt 2), each moved by X = X' + 1,
    # Y = Y' + X' + 2: a1 = 2 over Q_3 and a4 = -3 over Q_2(sqrt 2) are units
    E3, E2 = (Transform(K, 1, 1, 2).apply(make_curve(K, FIXTURE_COEFFS[n][1]))
              for K, n in ((Q3, "E3"), (Q2sqrt2, "E2")))
    assert not (E3.is_normalized() or E2.is_normalized())
    with pytest.raises(ValueError) as exc:
        entry(E3, E2)
    assert str(exc.value) == NOT_NORMALIZED


def test_normalize_rejects_multiplicative(Q5):
    E = make_curve(Q5, (0, 1, 0, 0, 5))
    with pytest.raises(ValueError, match=r"^reduction type: multiplicative "
                       r"\(additive required\)$"):
        normalize_additive(E)


def _normalize_in_two_steps(E):
    """The cusp to the origin by (r, 0, t), then the tangent to Y = 0 by
    (0, s, 0) on that intermediate curve."""
    f = E.field
    x0, y0 = reduction_type(E).singular_point
    tr1 = Transform(f, f.element(x0.coeffs), 0, f.element(y0.coeffs))
    E1 = tr1.apply(E)
    a1b, a2b = E1.a[0].reduce(), E1.a[1].reduce()
    z0 = frobenius_inverse(a2b) if f.p == 2 else -a1b / 2
    if not z0:
        return E1, tr1
    tr2 = Transform(f, 0, f.element(z0.coeffs), 0)
    return tr2.apply(E1), Transform(f, tr1.r, tr2.s, tr1.t)


MOVES = [(0, 0, 0), (1, 1, 2), (0, 1, 0), (3, 0, 1), (2, 1, 0), (0, 3, 5),
         (5, 7, 0), (-4, 2, 9)]


@pytest.mark.parametrize("M", [1, 2, 3, 14])
@pytest.mark.parametrize("name", sorted(FIXTURE_COEFFS))
def test_normalize_is_the_two_step_construction(name, M):
    # [DERIVED] the composed change (r, s, t) gives the curve of the two
    # changes, coefficient for coefficient and precision for precision,
    # and the same transform, on each fixture moved by (r, s, t) and
    # known mod m^M
    p, a = FIXTURE_COEFFS[name]
    for field in (LocalField.unramified(p, 1, M),
                  LocalField.unramified(p, 2, M)):
        for move in MOVES:
            try:
                E = Transform(field, *move).apply(make_curve(field, a))
            except PrecisionExhausted:
                continue
            E2, tr = normalize_additive(E)
            E2_ref, tr_ref = _normalize_in_two_steps(E)
            assert [(x.coeffs, x.prec) for x in E2.a] == [
                (x.coeffs, x.prec) for x in E2_ref.a], (field, move)
            assert tr.to_json() == tr_ref.to_json(), (field, move)


def test_reduction_type_is_computed_once_per_curve(Q3, monkeypatch):
    # [DERIVED] classify's reduction_type and normalize_additive's read
    # one computation of the special fibre
    calls = []
    compute = curve._reduction_type
    monkeypatch.setattr(curve, "_reduction_type",
                        lambda E: calls.append(E) or compute(E))
    E = Transform(Q3, 1, 1, 2).apply(make_curve(Q3, FIXTURE_COEFFS["E3"][1]))
    assert reduction_type(E).tag == "additive"
    assert classify_general(E).structure.torsion == (3,)
    assert calls == [E]


# fixture points of E_0: the torsion points of test_acceptance.py and two
# of infinite order
FIXTURE_POINTS = [("E2", (1, -1)), ("E3", (1, 1)), ("E5", (1, -1)),
                  ("E5", (-11, 38)), ("E7", (2, 1)), ("E9", (3, 5)),
                  ("E10", (1, 2))]


@pytest.mark.parametrize("name, coords", FIXTURE_POINTS)
def test_ladder_matches_the_affine_law(name, coords, fixture_curves):
    # [DERIVED] t([n]P) from the ladder is -x/y of the affine n*P, at
    # the precision both know; [n]P = O exactly when the ladder's t is 0
    E = fixture_curves[name]
    P = E.point(*coords)
    t = psi_E0(E, P)
    p = E.field.p
    for n in sorted({2, 3, p, p * p}):
        ladder = t_of_multiple(E.a, n, t)
        Q = point_mul(E, n, P)
        if Q.is_infinity:
            assert ladder.valuation_or_none() is None, n
            continue
        ref = (-(Q.x / Q.y)).integral_part()
        assert ladder.valuation_or_none() is not None, n
        assert min(ladder.prec, ref.prec) >= E.field.M // 2, n
        assert ladder == ref, n


# -- brute-force special fibre: the test oracle for the closed forms --------

def brute_special_fibre(E):
    """(tag, cusp or None) by exhaustive search: the singular point over
    k x k, and its tangent directions, the roots of z^2 + a1 z - (a2 + 3 x0)
    in k.  A monic quadratic with exactly one root in k has a double
    root there, the cusp's one tangent; a node has two roots or none."""
    k = E.field.residue
    a1, a2, a3, a4, a6 = E.reduced_coeffs()
    singular = [
        (x, y) for x in k for y in k
        if not (y * y + a1 * x * y + a3 * y - (((x + a2) * x + a4) * x + a6)
                or 2 * y + a1 * x + a3
                or a1 * y - (3 * x * x + 2 * a2 * x + a4))]
    assert len(singular) == 1, singular
    x0, y0 = singular[0]
    roots = [z for z in k if z * z + a1 * z - (a2 + 3 * x0) == k.zero]
    if len(roots) == 1:
        return "additive", (x0, y0)
    return "multiplicative", None


def _singular_model(field, kind, rng):
    """Y^2 + A1 XY = X^3 + A2 X^2 + p, whose fibre is singular at the
    origin with tangent directions the roots of z^2 + A1 z - A2, moved
    by a random coordinate change."""
    k = field.residue
    elems = list(k)
    if kind == "split":
        z1, z2 = rng.sample(elems, 2)
        A1, A2 = -(z1 + z2), -z1 * z2
    elif kind == "cusp":
        z0 = rng.choice(elems)
        A1, A2 = -2 * z0, -z0 * z0
    else:
        while True:
            A1, A2 = rng.choice(elems), rng.choice(elems)
            if all(z * z + A1 * z - A2 for z in elems):
                break
    E = WeierstrassCurve(field, field.element(list(A1.coeffs)),
                         field.element(list(A2.coeffs)), 0, 0, field.p)
    r, s, t = (field.element([rng.randrange(field.p ** 3)
                              for _ in range(field.deg)]) for _ in range(3))
    return Transform(field, r, s, t).apply(E)


# every field of order <= 49, plus F_11 and F_13
CLOSED_FORM_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1),
                      (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2),
                      (11, 1), (13, 1)]


@pytest.mark.parametrize("p, n", CLOSED_FORM_FIELDS)
def test_reduction_type_matches_brute_force(p, n):
    field = LocalField.unramified(p, n, 10)
    k = field.residue
    rng = random.Random(100 * p + n)
    expected = {"split": "multiplicative", "nonsplit": "multiplicative",
                "cusp": "additive"}
    for kind, tag in expected.items():
        for _ in range(2):
            E = _singular_model(field, kind, rng)
            brute = brute_special_fibre(E)
            assert brute[0] == tag, (kind, brute)
            rt = reduction_type(E)
            assert (rt.tag, rt.singular_point) == brute, kind
            if tag != "additive":
                continue
            E2, tr = normalize_additive(E)
            assert (tr.r.reduce(), tr.t.reduce()) == brute[1]
            # the tangent after the translation, found by search
            E1 = Transform(field, tr.r, 0, tr.t).apply(E)
            a1b, a2b = E1.a[0].reduce(), E1.a[1].reduce()
            tangent = [z for z in k if z * z + a1b * z - a2b == k.zero]
            assert tangent == [tr.s.reduce()]
            assert all((x - y).is_zero_at_precision()
                       for x, y in zip(tr.apply(E).a, E2.a))
