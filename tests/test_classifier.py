import random
from fractions import Fraction

import pytest

from e0struct.classifier import (GroupStructure, classify_congruence,
                                 classify_general, classify_unramified,
                                 filtration_base_index, ramified_g_map,
                                 random_normalized_curve, splitting_torsion)
from e0struct.cli import build_curve, build_field
from e0struct.curve import Transform
from e0struct.formal_group import TruncationInsufficient
from e0struct.local_field import LocalField, PrecisionExhausted

from conftest import FIXTURE_COEFFS, make_curve


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


def test_classify_handles_unnormalized_model(Q3):
    E = make_curve(Q3, FIXTURE_COEFFS["E3"][1])
    shifted = Transform(Q3, 2, 1, 1).apply(E)
    r = classify_general(shifted)
    assert str(r.structure) == "Z_3 x Z/3Z"
    assert r.transform is not None and not r.transform.is_identity


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


def test_filtration_base_index(Q2, Q3, Q2sqrt2):
    assert filtration_base_index(Q2) == 1
    assert filtration_base_index(Q3) == 1
    assert filtration_base_index(Q2sqrt2) == 2
    assert filtration_base_index(LocalField.eisenstein(3, (-3, 0, 1), 10)) == 2


def test_splitting_torsion_basic():
    # [DERIVED] map to (Z/p^2)^2 with matrix diag(p, p^2): the kernel of
    # the induced map on p-torsion has dimension 1
    dim, basis, cols = splitting_torsion([[3, 0], [0, 9]], 3, 2)
    assert dim == 1
    assert len(basis) == 1
    assert basis[0][0] == 0 and basis[0][1] != 0
    assert cols == [[3, 0], [0, 0]]


def test_splitting_torsion_rejects_bad_columns():
    # columns must be divisible by p^(N-1) for the p-torsion map to be
    # well defined
    with pytest.raises((ValueError, AssertionError)):
        splitting_torsion([[1, 0], [0, 3]], 3, 2)


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
            lat = getattr(r, "lattice", None)
            assert lat is not None
            # 2x2 basis over Q with denominators dividing p
            for row in lat:
                for v in row:
                    assert Fraction(v).denominator in (1, 2)
    assert seen_torsion == {0, 1}


def test_ramified_g_map_refuses_a_short_value(Q2sqrt2, monkeypatch):
    # [DERIVED] a [p](1) known only mod m^2 leaves log([p](1)) short of
    # the m/m^{1+e} = m/m^3 the coordinates are read from
    import e0struct.classifier as classifier

    E = random_normalized_curve(Q2sqrt2, random.Random(3))
    eval_at = classifier.eval_at

    def short_eval_at(s, x, target):
        v = eval_at(s, x, target)
        return v.field.element(v.coeffs, 2)

    monkeypatch.setattr(classifier, "eval_at", short_eval_at)
    with pytest.raises(PrecisionExhausted):
        ramified_g_map(E)


def test_random_normalized_curve_is_normalized(Q5):
    rng = random.Random(1)
    for _ in range(10):
        E = random_normalized_curve(Q5, rng)
        assert E.is_normalized()


def _monotonicity_models():
    """(p, n, a) integer models: the fixtures over their Q_p, E2, E3 and
    E7 over F_{p^2}, and three seeded a_i = p*r, r < p^3, per (p, n)."""
    models = [pytest.param(p, 1, a, id=name)
              for name, (p, a) in FIXTURE_COEFFS.items()]
    for name in ("E2", "E3", "E7"):
        p, a = FIXTURE_COEFFS[name]
        models.append(pytest.param(p, 2, a, id=f"{name}-n2"))
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
                models.append(pytest.param(p, n, a, id=f"p{p}-n{n}-{i}"))
    return models


@pytest.mark.parametrize("p, n, a", _monotonicity_models())
def test_certified_answer_is_monotone_in_precision(p, n, a):
    # [DERIVED] a certified answer at precision M is the one at M = 12,
    # or the classifier says the digits are not there
    def classify(M):
        return classify_general(make_curve(LocalField.unramified(p, n, M), a))

    top = classify(12)
    assert top.certified
    for M in range(1, 12):
        try:
            r = classify(M)
        except PrecisionExhausted:
            continue
        assert (r.structure, r.method) == (top.structure, top.method), M


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
    # the one at 12e, or a clean refusal for want of digits or degree
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
            except (PrecisionExhausted, TruncationInsufficient):
                continue
            assert got == top, (poly, M)
            answered += 1
        assert answered >= 6 * e, poly  # not vacuous: most M answer


@pytest.mark.parametrize("n", [1, 2])
def test_E2_at_precision_1_is_exhausted(n):
    # a1 = 0 is known mod 2 only; corollary (i) over Q_2 and g over Q_4
    # read a1/2 mod 2
    E = make_curve(LocalField.unramified(2, n, 1), FIXTURE_COEFFS["E2"][1])
    with pytest.raises(PrecisionExhausted, match=r"a1 mod 2\^2"):
        classify_general(E)
