import itertools
import random
from fractions import Fraction

import pytest

from e0struct.classifier import (GroupStructure, _m_mod_coords,
                                 _ramified_lattice, classify_congruence,
                                 classify_general, classify_unramified,
                                 ramified_g_map)
from e0struct.cli import build_curve, build_field
from e0struct.curve import Transform
from e0struct.formal_group import (eval_at, formal_log, log_degree,
                                   specialized_mult_by_n, t_of_multiple)
from e0struct.local_field import LocalField, PrecisionExhausted, _vp
from e0struct.oracle import finite_model

from conftest import (FIXTURE_COEFFS, change_coords, make_curve,
                      random_normalized_curve)


def test_group_structure_str_and_json():
    s = GroupStructure(2, 2, (2, 2))
    assert str(s) == "Z_2^2 x (Z/2Z)^2"
    assert str(GroupStructure(5, 1, ())) == "Z_5"
    assert str(GroupStructure(3, 1, (3,))) == "Z_3 x Z/3Z"
    j = s.to_json()
    assert j["free_rank"] == 2 and j["torsion"] == [2, 2]
    assert s.torsion_rank == 2


# [PAPER] congruence outcomes for the worked examples: torsion appears
# exactly when a1+a3 = 2 mod 4 (p=2), a2 = 6 mod 9, a4 = 10 mod 25,
# a6 = 14 mod 49 -- each verifiable by hand from FIXTURE_COEFFS
EXPECTED = {
    "E2": ("Z_2 x Z/2Z", "corollary-i"),
    "E3": ("Z_3 x Z/3Z", "corollary-ii"),
    "E5": ("Z_5 x Z/5Z", "corollary-iii"),
    "E7": ("Z_7 x Z/7Z", "corollary-iv"),
    "E8": ("Z_2", "corollary-i"),
    "E9": ("Z_2", "corollary-i"),
    "E10": ("Z_3", "corollary-ii"),
}


def test_classify_fixtures(fixture_curves):
    for name, E in fixture_curves.items():
        r = classify_general(E)
        assert (str(r.structure), r.method) == EXPECTED[name], name
        assert r.certified
        assert r.curve is E and r.transform is None, name


def test_classify_handles_unnormalized_model(Q3):
    E = make_curve(Q3, FIXTURE_COEFFS["E3"][1])
    shifted = Transform(Q3, 2, 1, 1).apply(E)
    r = classify_general(shifted)
    assert str(r.structure) == "Z_3 x Z/3Z"
    assert r.transform is not None and not r.transform.is_identity
    assert r.curve.is_normalized()
    assert r.curve.a == r.transform.apply(shifted).a


def test_congruence_matches_unramified_path(Q2, Q3, Q5, Q7):
    # [DERIVED] over Q_p both certified routes must agree
    rng = random.Random(7)
    for f in (Q2, Q3, Q5, Q7):
        for _ in range(25):
            E = random_normalized_curve(f, rng)
            a = classify_congruence(E)
            b = classify_unramified(E)
            assert str(a.structure) == str(b.structure)


def test_unramified_extension_free_rank(Q4):
    # [DERIVED] over the unramified quadratic extension of Q_2 the free
    # rank is n = 2 and 2-torsion rank is at most 2
    rng = random.Random(11)
    for _ in range(20):
        E = random_normalized_curve(Q4, rng)
        r = classify_unramified(E)
        assert r.structure.free_rank == 2
        assert r.structure.torsion_rank <= 2
        assert r.certified


def test_large_p_fast_path():
    # [DERIVED] 6e < p-1 certifies Z_p^n with no torsion
    f = LocalField.unramified(13, 1, 8)
    E = make_curve(f, (0, 0, 0, 13, 13))
    r = classify_general(E)
    assert str(r.structure) == "Z_13"
    assert r.method == "6e<p-1" and r.certified


def test_p_gt_7_unramified():
    f = LocalField.unramified(11, 1, 8)
    E = make_curve(f, (0, 0, 0, 11, 11))
    r = classify_general(E)
    assert str(r.structure) == "Z_11" and r.certified


def test_ramified_exploratory(Q2sqrt2):
    rng = random.Random(3)
    seen_torsion = set()
    for _ in range(12):
        E = random_normalized_curve(Q2sqrt2, rng)
        r = classify_general(E)
        assert not r.certified
        assert r.method == "ramified-exploratory"
        assert r.structure.free_rank == 2
        assert r.structure.torsion_rank in (0, 1)
        seen_torsion.add(r.structure.torsion_rank)
        if r.structure.torsion_rank == 0:
            lat = r.lattice
            assert lat is not None
            # 2x2 basis over Q with denominators dividing p
            for row in lat:
                for v in row:
                    assert Fraction(v).denominator in (1, 2)
    assert seen_torsion == {0, 1}


def test_ramified_g_map_refuses_a_short_value(Q2sqrt2, monkeypatch):
    # [DERIVED] a t([p]P) known only mod m^2 leaves log t([p]P) short of
    # the m/m^{1+e} = m/m^3 the coordinates are read from
    import e0struct.classifier as classifier

    E = random_normalized_curve(Q2sqrt2, random.Random(3))
    t_of_multiple = classifier.t_of_multiple

    def short_t_of_multiple(*args):
        v = t_of_multiple(*args)
        return v.field.element(v.coeffs, 2)

    monkeypatch.setattr(classifier, "t_of_multiple", short_t_of_multiple)
    with pytest.raises(PrecisionExhausted, match=r"known mod m\^2"):
        ramified_g_map(E)


def test_random_normalized_curve_is_normalized(Q5):
    rng = random.Random(1)
    for _ in range(10):
        E = random_normalized_curve(Q5, rng)
        assert E.is_normalized()


def _monotonicity_models():
    """(p, n, a, rst) integer models: the fixtures over their Q_p, E2, E3
    and E7 over F_{p^2}, and three seeded a_i = p*r, r < p^3, per (p, n);
    then each again under a seeded coordinate change rst = (r, s, t)
    with unit entries, which classify has to undo."""
    models = [(p, 1, a, name) for name, (p, a) in FIXTURE_COEFFS.items()]
    for name in ("E2", "E3", "E7"):
        p, a = FIXTURE_COEFFS[name]
        models.append((p, 2, a, f"{name}-n2"))
    rng = random.Random(12)
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            K = LocalField.unramified(p, n, 12)
            for i in range(3):
                while True:
                    a = tuple(p * rng.randrange(p ** 3) for _ in range(5))
                    try:
                        make_curve(K, a)
                        break
                    except PrecisionExhausted:
                        continue
                models.append((p, n, a, f"p{p}-n{n}-{i}"))
    params = [pytest.param(p, n, a, None, id=name)
              for p, n, a, name in models]
    for p, n, a, name in models:
        rst = tuple(p * rng.randrange(p) + rng.randrange(1, p) for _ in "rst")
        params.append(pytest.param(p, n, a, rst, id=f"{name}-rst"))
    return params


@pytest.mark.parametrize("p, n, a, rst", _monotonicity_models())
def test_certified_answer_is_monotone_in_precision(p, n, a, rst):
    # [DERIVED] a certified answer at precision M is the one at M = 12,
    # or the classifier says the digits are not there; an unnormalized
    # presentation gives the normalized model's answer
    def classify(M, coeffs):
        return classify_general(
            make_curve(LocalField.unramified(p, n, M), coeffs))

    top = classify(12, a)
    assert top.certified
    given = a if rst is None else change_coords(a, *rst)
    for M in range(1, 13):
        try:
            r = classify(M, given)
        except PrecisionExhausted:
            continue
        assert (r.structure, r.method) == (top.structure, top.method), M


def _lift_models(rng, p, n, count):
    """count seeded pairs of integer models over F_{p^n}, as coefficient
    vectors: a normalized one, each a_i = p*r (r < p^3) or, one time in
    four, 0, then the same curve moved by a seeded unit change (r, s, t),
    read back from its coefficients mod p^30."""
    K = LocalField.unramified(p, n, 30)
    models = []
    while len(models) < 2 * count:
        a = [[p * rng.randrange(p ** 3) for _ in range(n)]
             if rng.randrange(4) else [0] * n for _ in range(5)]
        try:
            E = make_curve(K, a)
        except PrecisionExhausted:
            continue
        rst = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)]
               for _ in "rst"]
        moved = Transform(K, *rst).apply(E)
        models += [a, [list(ai.coeffs) for ai in moved.a]]
    return models


def _random_lift(a, M, p, rng):
    """A random curve that the integer model a at precision M describes,
    by the precision rule: a nonzero a_i of valuation v is known mod
    p^max(M, v + 1), a zero one mod p^M; the digits past those are
    redrawn."""
    lift = []
    for ai in a:
        v = min((_vp(c, p) for c in ai if c), default=None)
        k = M if v is None else max(M, v + 1)
        lift.append([c + p ** k * rng.randrange(p ** 3) for c in ai])
    return lift


def test_certified_answer_holds_on_random_lifts():
    # [DERIVED] a certified answer at precision M is the answer of every
    # curve the input describes: each random lift of the digits the input
    # left open, classified at M + 10, has the same structure
    rng = random.Random(15)
    answers = {False: 0, True: 0}  # by whether classify had to normalize
    for p, n in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (3, 3)):
        fields = {M: LocalField.unramified(p, n, M)
                  for M in (*range(1, 5), *range(11, 15))}
        for a in _lift_models(rng, p, n, 10):
            for M in range(1, 5):
                try:
                    r = classify_general(make_curve(fields[M], a))
                except PrecisionExhausted:
                    continue
                if not r.certified:
                    continue
                answers[r.transform is not None] += 1
                for _ in range(4):
                    lift = _random_lift(a, M, p, rng)
                    s = classify_general(make_curve(fields[M + 10], lift))
                    assert s.certified and s.structure == r.structure, (
                        p, n, a, M, lift)
    assert sum(answers.values()) >= 200 and all(answers.values())


# one curve over each Eisenstein field of the ramified benchmark, in the
# descriptor form (a_i as coefficient vectors in pi); the first has
# torsion Z/2Z, the others are torsion-free
RAMIFIED_MODELS = [
    (2, [-2, 0, 1], [[6, 7], [10, 4], [0, 4], [12, 2], [4, 5]]),
    (2, [-2, 2, 1], [[6, 0], [8, 0], [0, 1], [12, 0], [0, 0]]),
    (5, [-5, 0, 0, 1], [[615, 2, 36], [530, 67, 86], [365, 17, 39],
                        [185, 100, 80], [20, 61, 6]]),
    (7, [-7, 0, 1], [[322, 68], [196, 45], [364, 39], [224, 50],
                     [217, 197]]),
]


def test_ramified_answer_is_monotone_in_precision():
    # [DERIVED] at every precision M up to 12e the exploratory answer is
    # the one at 12e, or a clean refusal for want of digits; classify
    # truncates the log at a proven degree, so TruncationInsufficient
    # would fail the test
    for p, poly, a in RAMIFIED_MODELS:
        desc = {"p": p, "field": {"kind": "eisenstein", "poly": poly},
                "a": a}
        e = len(poly) - 1

        def answer(M):
            r = classify_general(build_curve(build_field(desc, M), desc))
            return (r.structure, r.evidence["g_image_coords"],
                    r.evidence.get("lattice_basis"))

        top = answer(12 * e)
        answered = 0
        for M in range(1, 12 * e):
            try:
                got = answer(M)
            except PrecisionExhausted:
                continue
            assert got == top, (poly, M)
            answered += 1
        assert answered >= 6 * e, poly  # not vacuous: most M answer


def _oracle_rank_mismatches(curves):
    """The curves whose exploratory rank n + torsion rank differs from the
    p-rank of the oracle's O_K/m^M0, M0 = e + floor(e/(p - 1)) + 1 the
    least M with (M - e)(p - 1) > e.  [p] maps the formal group's m^r onto
    m^(r+e) for r > e/(p - 1) (Silverman, AEC IV.6.4), so m^M0 lies in
    p E_0(K), and that p-rank is n + torsion rank."""
    out = []
    for E in curves:
        K = E.field
        s = classify_general(E).structure
        rank = finite_model(E, K.e + K.e // (K.p - 1) + 1).p_rank()
        if rank != s.free_rank + s.torsion_rank:
            out.append((K.poly, [list(a.coeffs) for a in E.a], str(s), rank))
    return out


def test_ramified_rank_matches_the_oracle_at_m0():
    # [DERIVED] the RAMIFIED_MODELS curves, and the first three span-3
    # draws over each field that are not Q_2 curves with v(a1) = 1
    curves = []
    for p, poly, a in RAMIFIED_MODELS:
        desc = {"p": p, "field": {"kind": "eisenstein", "poly": poly},
                "a": a}
        curves.append(build_curve(build_field(desc, 12 * (len(poly) - 1)),
                                  desc))
    for p, poly in [(5, (-5, 0, 0, 1)), (7, (-7, 0, 1)),
                    (2, (-2, 0, 1)), (2, (-2, 2, 1))]:
        K, rng, kept = LocalField.eisenstein(p, poly), random.Random(1), 0
        while kept < 3:
            E = random_normalized_curve(K, rng, span=3)
            # a1 lies in m, so v(a1) != 1 means v(a1) >= 2 or a1 = 0
            if p > 2 or E.a[0].valuation_or_none() != 1:
                curves.append(E)
                kept += 1
    assert _oracle_rank_mismatches(curves) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: over Q_2 with "
                   "e = 2 and v(a1) = 1, E_1 can hold 2-torsion that the "
                   "g-map does not see")
def test_ramified_rank_matches_the_oracle_at_m0_when_v_a1_is_1(Q2sqrt2):
    # draws 1 and 2 over Q_2(sqrt 2) are reported with rank 3 and 2, the
    # oracle reads 4 and 3; draw 5 over x^2 + 2x - 2 reads 2 against 3
    rng = random.Random(1)
    curves = [random_normalized_curve(Q2sqrt2, rng, span=3)
              for _ in range(2)]
    K, rng = LocalField.eisenstein(2, (-2, 2, 1), 16), random.Random(1)
    curves.append([random_normalized_curve(K, rng, span=3)
                   for _ in range(5)][-1])
    assert all(E.a[0].valuation() == 1 for E in curves)
    assert _oracle_rank_mismatches(curves) == []


def test_ramified_truncation_over_x5_plus_7():
    # [DERIVED] over Q_7(pi), pi^5 = -7, the span-1 curves have v(a_j) = 1,
    # not e = 5, so [7](1) needs degree 31 rather than 24 to be known mod
    # m^6; the coordinates are those of a degree-96 truncation
    K = LocalField.eisenstein(7, (7, 0, 0, 0, 0, 1), 60)
    expect = [[4, 4, 0, 5, 2], [2, 0, 0, 6, 3], [3, 3, 6, 6, 1],
              [5, 0, 5, 3, 1], [6, 2, 1, 0, 3]]
    for s, coords in enumerate(expect):
        E = random_normalized_curve(K, random.Random(s), span=1)
        r = classify_general(E)
        assert r.evidence["g_image_coords"] == coords, s
        assert r.evidence["log_value"]["prec"] == 1 + K.e


def _ramified_curves():
    """The RAMIFIED_MODELS curves at precision 12e, then the five span-1
    curves over x^5 + 7 of test_ramified_truncation_over_x5_plus_7."""
    curves = []
    for p, poly, a in RAMIFIED_MODELS:
        desc = {"p": p, "field": {"kind": "eisenstein", "poly": poly},
                "a": a}
        curves.append(build_curve(build_field(desc, 12 * (len(poly) - 1)),
                                  desc))
    K = LocalField.eisenstein(7, (7, 0, 0, 0, 0, 1), 60)
    curves += [random_normalized_curve(K, random.Random(s), span=1)
               for s in range(5)]
    return curves


def _cut(E, prec):
    return tuple(E.field.element(a.coeffs, min(a.prec, prec)) for a in E.a)


def test_ladder_matches_the_mult_by_p_series():
    # [DERIVED] t([p]P) from the ladder on the point with t(P) = 1 is the
    # [p] series evaluated at T = 1, mod the m^{1+e} the g-map reads;
    # with the a_j cut to m^{1+e} the ladder still knows every digit.
    # Degree 31 bounds the tail at a unit for every curve here (eval_at
    # checks it): v(a_j) >= 1 and 1 + e <= 6
    for E in _ramified_curves():
        K = E.field
        p, target, one = K.p, 1 + K.e, K.one()
        series = eval_at(E.a, specialized_mult_by_n(E.a, p, 31), one, target)
        cut = t_of_multiple(_cut(E, target), p, one)
        assert cut.prec == target and cut == series, K.poly
        assert t_of_multiple(E.a, p, one) == series, K.poly


def _g_coords_from_the_ladder(E):
    """g(1) in m/m^{1+e}, read from the ladder alone: for the point P with
    t(P) = 1, y = log t([p]P) = t([p^{k+1}]P)/p^k mod m^{1+e}, with k = 1
    for p >= 3 and k = 2 for p = 2, and t([p^{k+1}]P) known mod
    m^{1+e+k*e} from the a_j cut there (ROADMAP item 10)."""
    K = E.field
    p, e = K.p, K.e
    k = 2 if p == 2 else 1
    target = 1 + e
    z = t_of_multiple(_cut(E, target + k * e), p ** (k + 1), K.one())
    # p^k = pi^(k*e) * u for the unit u = p^k / pi^(k*e)
    u = K.element([p ** k]).shift_down(k * e)
    y = z.shift_down(k * e) * u.invert()
    assert y.prec >= target
    return _m_mod_coords(y.as_k(), K)


def test_ramified_g_map_matches_the_ladder_alone():
    # [DERIVED] log is an isometry on [p]Ehat(m) (AEC IV.6.4 for p >= 3,
    # e < p - 1; for p = 2, e = 2, on m^3, which [2] maps m into), so
    # log t([p]P) = t([p^{k+1}]P)/p^k mod m^{1+e}.  That shares only the
    # ladder with ramified_g_map: it checks formal_log, log_degree's tail
    # bound and the log's evaluation over K.  The RAMIFIED_MODELS and
    # x^5 + 7 curves, then eleven seeded span-3 curves per field
    curves = _ramified_curves()
    rng = random.Random(10)
    for p, poly in [(2, (-2, 0, 1)), (2, (-2, 2, 1)), (5, (-5, 0, 0, 1)),
                    (7, (-7, 0, 1)), (7, (7, 0, 0, 0, 0, 1))]:
        K = LocalField.eisenstein(p, poly, 12 * (len(poly) - 1))
        curves += [random_normalized_curve(K, rng, span=3) for _ in range(11)]
    for E in curves:
        coords = ramified_g_map(E).evidence["g_image_coords"]
        assert coords == _g_coords_from_the_ladder(E), (
            E.field.poly, [list(a.coeffs) for a in E.a])


def _hnf(rows):
    """Row-style Hermite normal form of an integer matrix (list of row
    vectors); returns the nonzero rows, lower-triangular, positive pivots."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    col = 0
    while col < ncols and rows:
        rows.sort(key=lambda r: (r[col] == 0, abs(r[col]) if r[col] else 0))
        if rows[0][col] == 0:
            col += 1
            continue
        while True:
            pivot = rows[0]
            done = True
            for r in rows[1:]:
                if r[col]:
                    k = r[col] // pivot[col]
                    for j in range(ncols):
                        r[j] -= k * pivot[j]
                    done = False
            rows.sort(key=lambda r: (r[col] == 0,
                                     abs(r[col]) if r[col] else 0))
            if done or all(r[col] == 0 for r in rows[1:]):
                break
        pivot = rows.pop(0)
        if pivot[col] < 0:
            pivot = [-v for v in pivot]
        for r in out:
            k = r[col] // pivot[col]
            if k:
                for j in range(ncols):
                    r[j] -= k * pivot[j]
        out.append(pivot)
        col += 1
    return out


def _hnf_lattice(coords, field):
    """The reference for _ramified_lattice: the integer Hermite normal
    form of the rows p*pi^(i+1), i < e, and the lift of the image vector,
    divided by p."""
    e, p = field.e, field.p
    rows = [[p * v for v in field.pi_power(i + 1)] for i in range(e)]
    lift = [p * coords[-1]] + list(coords[:-1])
    return [[Fraction(v, p) for v in row] for row in _hnf(rows + [lift])]


def _zp_coordinates(row, basis):
    """The coordinates of row on an echelon basis (row i pivots in column
    i), or None when row is not in its Q-span."""
    row, out = list(row), []
    for i, b in enumerate(basis):
        c = row[i] / b[i]
        out.append(c)
        row = [x - c * y for x, y in zip(row, b)]
    return out if not any(row) else None


def _same_zp_lattice(A, B, p):
    return all(c is not None and all(x.denominator % p for x in c)
               for X, Y in ((A, B), (B, A)) for c in
               (_zp_coordinates(row, Y) for row in X))


@pytest.mark.parametrize("p,poly", [
    (2, (-2, 0, 1)), (2, (-2, 2, 1)), (5, (-5, 0, 0, 1)), (7, (-7, 0, 1)),
    (7, (7, 0, 0, 0, 0, 1))])
def test_closed_form_lattice_is_the_hnf(p, poly):
    # [DERIVED] when h_0 = +-p, the closed form is the integer Hermite
    # normal form, row for row, on every nonzero image vector
    K = LocalField.eisenstein(p, poly)
    for coords in itertools.product(range(p), repeat=K.e):
        if any(coords):
            assert _ramified_lattice(list(coords), K) == _hnf_lattice(
                list(coords), K), coords


def test_closed_form_lattice_is_the_hnf_up_to_a_unit():
    # [DERIVED] over Q_2 with h = x^2 - 6, the integer HNF carries the
    # 2-adic unit 3 = -h_0/p (its row p*pi^2 has the entry -2*h_0 = 12);
    # the closed form does not, and both bases span one Z_2-lattice
    K = LocalField.eisenstein(2, (-6, 0, 1))
    differ = 0
    for coords in ([0, 1], [1, 0], [1, 1]):
        closed, hnf = _ramified_lattice(coords, K), _hnf_lattice(coords, K)
        differ += closed != hnf
        assert _same_zp_lattice(closed, hnf, 2), coords
    assert differ


def test_log_degree_bounds_the_tail():
    # [DERIVED] past log_degree the log of t([p]P) adds nothing mod
    # m^{1+e}: the sum to degree 3D, over the a_j at full precision, is
    # the same y
    for E in _ramified_curves():
        K = E.field
        p, target, one = K.p, 1 + K.e, K.one().as_k()
        a = _cut(E, target)
        x = t_of_multiple(a, p, K.one())
        D = log_degree(p, K.e, x._vmin(), target)
        y = formal_log(a, D).evaluate_univar(x.as_k(), one)
        y3 = formal_log(E.a, 3 * D).evaluate_univar(x.as_k(), one)
        assert y.prec == y3.prec == target and y == y3, K.poly


def test_log_degree_is_the_last_term_short_of_the_target():
    # [DERIVED] against the bound n*v - e*v_p(n) term by term, n < 400
    def vp(n, p):
        return 0 if n % p else 1 + vp(n // p, p)

    for p in (2, 3, 5, 7):
        for e in (1, 2, 3, 4, 5, 6, 12):
            for v in (1, 2, 3, 9):
                for target in range(1, 9):
                    last = max([1] + [n for n in range(1, 400)
                                      if n * v - e * vp(n, p) < target])
                    assert log_degree(p, e, v, target) == last
    with pytest.raises(ValueError):
        log_degree(2, 2, 0, 3)


@pytest.mark.parametrize("n", [1, 2])
def test_E2_at_precision_1_is_exhausted(n):
    # a1 = 0 is known mod 2 only; corollary (i) over Q_2 and g over Q_4
    # read a1/2 mod 2
    E = make_curve(LocalField.unramified(2, n, 1), FIXTURE_COEFFS["E2"][1])
    with pytest.raises(PrecisionExhausted, match=r"a1 mod 2\^2"):
        classify_general(E)
