import itertools
import random

import numpy as np
import pytest

from e0struct import oracle
from e0struct.classifier import (ClassificationReport, GroupStructure,
                                 classify_general)
from e0struct.curve import WeierstrassCurve
from e0struct.formal_group import specialized_mult_by_n
from e0struct.local_field import LocalField
from e0struct.oracle import (FiniteModel, ModelTooLarge, _numeric_chord,
                             _numeric_w, _Ring, compare, finite_model)

from conftest import FIXTURE_COEFFS, make_curve, random_normalized_curve


def _engine_mult_p_series(m):
    """[p](T) from the engine's specialized tangent-chord route, in the
    array shape of FiniteModel.mult_p_series."""
    mp = specialized_mult_by_n(m.E.a, m.field.p, m.D)
    out = np.zeros((m.D + 1, m.ring.d), dtype=np.int64)
    for (e,), c in mp.c.items():
        vec = list(c.coeffs) if hasattr(c, "coeffs") else [c]
        vec += [0] * (m.ring.d - len(vec))
        out[e] = [v % m.ring.q for v in vec]
    return out


def test_level_one_model_is_residue_group(Q3):
    # [DERIVED] at M = 1 the model is k^+: F = S + T mod m
    E = make_curve(Q3, FIXTURE_COEFFS["E3"][1])
    m = finite_model(E, 1)
    assert m.order == 3
    assert m.p_rank() == 1
    assert m.kernel_count() == 3  # [p] kills everything in k^+


# [DERIVED] brute-force counts on the worked examples; predicted rank
# n + torsion_rank is 2 for the curves with a p-torsion point, 1 for
# the torsion-free ones
ORACLE_EXPECT = {
    "E2": (4, 16, 2, 4),
    "E8": (4, 16, 1, 2),
    "E3": (3, 27, 2, 9),
    "E9": (4, 16, 1, 2),
    "E10": (3, 27, 1, 3),
}


@pytest.mark.parametrize("name", sorted(ORACLE_EXPECT))
def test_fixture_models(name, Q2, Q3):
    fields = {2: Q2, 3: Q3}
    p, a = FIXTURE_COEFFS[name]
    E = make_curve(fields[p], a)
    M, order, rank, kernel = ORACLE_EXPECT[name]
    m = finite_model(E, M)
    assert m.order == order
    assert m.p_rank() == rank
    assert m.kernel_count() == kernel


def test_engine_and_chain_mult_p_agree(Q2, Q3):
    for name in ("E2", "E3"):
        p, a = FIXTURE_COEFFS[name]
        E = make_curve({2: Q2, 3: Q3}[p], a)
        m = finite_model(E, 3)
        assert np.array_equal(m.mult_p_series(), _engine_mult_p_series(m))


def test_stabilization(Q3):
    # [DERIVED] rank and kernel size stop changing once M is moderate
    E = make_curve(Q3, FIXTURE_COEFFS["E3"][1])
    stats = [(finite_model(E, M).p_rank(), finite_model(E, M).kernel_count())
             for M in (3, 4, 5)]
    assert stats == [stats[0]] * 3


def test_group_axioms_spot_checked(Q2):
    # FiniteModel._spot_checks runs at construction: identity,
    # commutativity, associativity, canonical-lift independence
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    m = finite_model(E, 4)
    z = m.canonical(np.zeros((1, E.field.deg), dtype=np.int64))
    assert m.is_zero(z).all()


def test_compare_pass(Q2, Q3):
    for name in ("E2", "E3", "E8"):
        p, a = FIXTURE_COEFFS[name]
        E = make_curve({2: Q2, 3: Q3}[p], a)
        verdict = compare(E, classify_general(E), ORACLE_EXPECT[name][0])
        assert verdict["verdict"] == "pass", (name, verdict)


def _recorded(monkeypatch, *names):
    """Patch the named _Ring primitives to log (name, arguments) per
    call, keyword values after the positional ones."""
    calls = []
    for name in names:
        def wrapper(self, *args, _inner=getattr(_Ring, name), _name=name,
                    **kwargs):
            calls.append((_name, args + tuple(kwargs.values())))
            return _inner(self, *args, **kwargs)
        monkeypatch.setattr(_Ring, name, wrapper)
    return calls


def test_compare_fail_with_witness(Q2, monkeypatch):
    # corrupt the predicted structure: claim E_2 is torsion-free
    E = make_curve(Q2, FIXTURE_COEFFS["E2"][1])
    report = classify_general(E)
    bad = ClassificationReport(
        GroupStructure(2, 1, ()), report.method, report.evidence, True,
        report.transform)
    models = []
    monkeypatch.setattr(oracle, "finite_model", lambda *args: (
        models.append(FiniteModel(*args)) or models[-1]))
    calls = _recorded(monkeypatch, "contract")
    verdict = compare(E, bad, 4)
    assert verdict["verdict"] == "fail"
    assert verdict["kernel_size"] == 4
    assert verdict["witness"] == [[0], [1], [8], [9]]
    # the witnesses reuse the kernel flags: [p](T) is evaluated at the
    # residues once
    m, = models
    assert sum(C is m.mult_p_series() and P is m.residue_powers
               for _, (C, P) in calls) == 1


@pytest.mark.parametrize("name", ["E5", "E10"])
def test_compare_refuses_a_level_below_m0(fixture_curves, name, monkeypatch):
    # [DERIVED] e = 1, so M0 = 2; at M = 1 the model O_K/m has order p and
    # p-rank 1, which fails E5 (Z_5 x Z/5Z) and passes E10 (Z_3) whatever
    # the group is.  The refusal comes before any model is built
    E = fixture_curves[name]
    report = classify_general(E)
    monkeypatch.setattr(oracle, "finite_model", None)
    with pytest.raises(ValueError, match=r"M = 1 is below M0 = 1 \+ e = 2"):
        compare(E, report, 1)


def test_compare_requires_certified(Q2sqrt2):
    E = random_normalized_curve(Q2sqrt2, random.Random(0))
    report = classify_general(E)
    assert not report.certified
    with pytest.raises(ValueError):
        compare(E, report, 3)


def test_model_too_large():
    f = LocalField.unramified(7, 2, 10)
    E = make_curve(f, (0, 0, 0, 7, 7))
    with pytest.raises(ModelTooLarge):
        finite_model(E, 4)


def test_ramified_model(Q2sqrt2):
    # [DERIVED] over Q_2(sqrt 2), O/m^4 has order 2^4; the curve
    # Y^2 + 2Y = X^3 - 2 embeds with a 2-torsion point
    E = make_curve(Q2sqrt2, FIXTURE_COEFFS["E2"][1])
    m = finite_model(E, 4)
    assert m.order == 16
    # a finite abelian p-group has |G[p]| = p^dim(G/pG)
    assert m.field.p ** m.p_rank() == m.kernel_count()


def test_level_one_model_over_cubic_eisenstein():
    # [DERIVED] at M = 1 the model is k^+ = F_3, so order 3, p-rank 1 and
    # kernel 3
    f = LocalField.eisenstein(3, (-3, 3, -3, 1), 9)
    pi = f.element((0, 1))
    E = WeierstrassCurve(f, pi, f.zero(), f.zero(), f.zero(), pi)
    m = finite_model(E, 1)
    assert (m.order, m.p_rank(), m.kernel_count()) == (3, 1, 3)
    assert np.array_equal(m.mult_p_series(), _engine_mult_p_series(m))


@pytest.mark.parametrize("nvars", [1, 2])
def test_unit_inversion_reaches_a_power_of_two_degree(nvars):
    # [DERIVED] 1/(1 - pi (S + T)) mod 3^3 over the cubic Eisenstein field
    # has pi^8 (S + T)^8 at degree D = 8, nonzero as v_3(pi^8) = 8/3 < 3:
    # Newton's steps reach degree 2, 4, 8, so one more step is needed once
    # degree 8 is first reached, and the inverse must be right there
    ring = _Ring(LocalField.eisenstein(3, (-3, 3, -3, 1), 9), 3)
    D = 8
    one = np.zeros((D + 1,) * nvars + (ring.d,), dtype=np.int64)
    one[(0,) * (nvars + 1)] = 1
    A = one.copy()
    for axis in range(nvars):  # -pi at S and at T: coordinate 1 is pi
        A[tuple(np.eye(nvars, dtype=int)[axis]) + (1,)] = ring.q - 1
    z = ring.invert_unit(A)
    assert np.array_equal(ring.series_mul(A, z), one)
    top = np.indices(A.shape[:-1]).sum(axis=0) == D
    assert z[top].any()


@pytest.mark.parametrize("M", range(1, 11))
def test_truncation_degree_is_the_least_the_proof_allows(M):
    # [DERIVED] the least D >= 3 with ceil(D/6) >= M: a dropped coefficient
    # of weight >= D has at least ceil(D/6) factors a_j in m_K
    D = oracle.truncation_degree(M)
    assert -(-D // 6) >= M and D >= 3
    assert D == 3 or -(-(D - 1) // 6) < M
    E = make_curve(LocalField.unramified(2, 1, 12), FIXTURE_COEFFS["E2"][1])
    assert finite_model(E, M).D == D


def test_int64_bound_refuses_p1087():
    # [DERIVED] at M = 1 the ring is Z/1087^3 and D = 3: the series
    # product can sum (D + 2)^2 // 4 = 6 products below 1087^6, about
    # 2^63.1
    f = LocalField.unramified(1087, 1, 4)
    E = make_curve(f, (1087,) * 5)
    with pytest.raises(ModelTooLarge, match=r"2\^63\.1.*int64"):
        finite_model(E, 1)


def test_int64_bound_edge_at_level_one():
    # [DERIVED] at M = 1, D = 3 and the bound is 6 * (p^3 - 1)^2 for d = 1,
    # below 2^63 up to p = 1069 and past it from the next prime, 1087, on
    D = oracle.truncation_degree(1)
    assert [(D + 2) ** 2 // 4 * (p ** 3 - 1) ** 2 < 2 ** 63
            for p in (1069, 1087)] == [True, False]
    refused = LocalField.unramified(1087, 1, 4)
    with pytest.raises(ModelTooLarge):
        finite_model(make_curve(refused, (1087,) * 5), 1)
    f = LocalField.unramified(1069, 1, 4)
    m = finite_model(make_curve(f, (1069,) * 5), 1)
    assert (m.order, m.p_rank(), m.kernel_count()) == (1069, 1, 1069)


def _poly_mul_mod(u, v, poly, q):
    """u * v in Z[x]/(poly) mod q, in Python integers: schoolbook product,
    then long division by the monic poly."""
    d = len(poly) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        c, prod[k] = prod[k], 0
        for i in range(d):
            prod[k - d + i] -= c * poly[i]
    return [c % q for c in prod[:d]]


def _dict_series_mul(A, B, poly, q, bound):
    """Reference truncated product of series held as {exponents: coords}."""
    d = len(poly) - 1
    out = {}
    for ea, u in A.items():
        for eb, v in B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= bound:
                acc = out.setdefault(e, [0] * d)
                for k, c in enumerate(_poly_mul_mod(u, v, poly, q)):
                    acc[k] = (acc[k] + c) % q
    return out


def _random_series(rng, shape, q, low=0):
    """Random coefficients at total degrees low .. D, zero elsewhere."""
    D = shape[0] - 1
    A = rng.integers(0, q, size=shape, dtype=np.int64)
    idx = np.indices(shape[:-1]).sum(axis=0)
    A[(idx > D) | (idx < low)] = 0
    return A


def _as_dict(A):
    return {e: [int(c) for c in A[e]] for e in np.ndindex(A.shape[:-1])
            if A[e].any()}


@pytest.mark.parametrize("field", [
    LocalField.unramified(5, 1, 8),
    LocalField.unramified(7, 2, 8),
    LocalField.eisenstein(31, (-31, 0, 1), 8),
    LocalField.eisenstein(3, (-3, 3, -3, 1), 9),
], ids=["Q_5", "F_49", "x^2-31", "cubic"])
def test_series_mul_matches_dict_product(field):
    D, kd = 8, 4
    ring = _Ring(field, kd)
    assert ring.int64_bound(D) < 2 ** 63
    rng = np.random.default_rng(field.p)
    for shape in ((D + 1, D + 1, ring.d), (D + 1, ring.d)):
        # leading zero columns (low > 0) take the skipping path
        for bound, low_a, low_b in itertools.product(
                (None, 0, 3, D), (0, 2), (0, 1, 5)):
            A = _random_series(rng, shape, ring.q, low_a)
            B = _random_series(rng, shape, ring.q, low_b)
            want = _dict_series_mul(_as_dict(A), _as_dict(B), field.poly,
                                    ring.q, D if bound is None else bound)
            got = ring.series_mul(A, B, bound=bound)
            assert got.shape == A.shape
            assert _as_dict(got) == {e: c for e, c in want.items() if any(c)}


def test_evaluate_matches_horner():
    field = LocalField.eisenstein(3, (-3, 3, -3, 1), 9)
    ring = _Ring(field, 4)
    rng = np.random.default_rng(1)
    C = rng.integers(0, ring.q, size=(4, 9, ring.d), dtype=np.int64)
    X = rng.integers(0, ring.q, size=(5, ring.d), dtype=np.int64)
    # coefficients power-major: one polynomial per column
    got = ring.evaluate(C.transpose(1, 0, 2)[:, :, None], X)
    for r in range(4):
        for n in range(5):
            acc = [0] * ring.d
            for j in range(8, -1, -1):
                acc = _poly_mul_mod(acc, [int(c) for c in X[n]],
                                    field.poly, ring.q)
                acc = [(x + int(c)) % ring.q for x, c in zip(acc, C[r, j])]
            assert list(got[r, n]) == acc


# -- references for the p-fold sum and the negation ---------------------------

def _full_square_g_table(m, Y):
    """G_i(y) = sum_j F[i][j] y^j over the whole (D+1) x (D+1) square of F
    in one contraction, in the layout (D+1, N, d) of
    _Ring.contract_triangle."""
    return m.ring.evaluate(m.F.transpose(1, 0, 2)[:, :, None], Y)


def _p_fold_reference(m):
    """p*x at every residue by p - 1 additions of the fixed summand x,
    reusing one full-square G table."""
    X = m.residues
    G = _full_square_g_table(m, X)
    Z = X.copy()
    for _ in range(m.field.p - 1):
        Z = m.ring.evaluate(G, Z)
    return Z


def _F_by_inverse_series(m):
    """F = i(t3): the series i(t) = t (-1 + a1 t + a3 w(t))^{-1} evaluated
    at t3 through a power table of bivariate series products, with the
    chord's third point t3 = -B A^{-1} - S - T formed here from its own
    inversion of A, not from the model's common denominator."""
    ring, D = m.ring, m.D
    q = ring.q
    a = np.array([[c % q for c in ai.coeffs] for ai in m.E.a],
                 dtype=np.int64)
    w = _numeric_w(ring, a, D + 1)
    neg_den = -ring.mul(w[:D + 1], a[2])  # 1 - a1 t - a3 w(t)
    neg_den[0, 0] += 1
    neg_den[1] -= a[0]
    inv = -ring.invert_unit(neg_den % q) % q
    i_coeffs = np.zeros_like(inv)
    i_coeffs[1:] = inv[:-1]
    _, _, A, B = _numeric_chord(ring, a, D)
    t3 = -ring.series_mul(B, ring.invert_unit(A))
    t3[1, 0, 0] -= 1
    t3[0, 1, 0] -= 1
    return ring.evaluate(i_coeffs, t3 % q, series=True)


def _cubic_eisenstein_curve():
    f = LocalField.eisenstein(3, (-3, 3, -3, 1), 9)
    pi = f.element((0, 1))
    return WeierstrassCurve(f, pi, f.zero(), f.zero(), f.zero(), pi)


REFERENCE_MODELS = {
    "Q_2-M4": lambda: (make_curve(LocalField.unramified(2, 1, 12),
                                  FIXTURE_COEFFS["E2"][1]), 4),
    "F_4-M3": lambda: (random_normalized_curve(
        LocalField.unramified(2, 2, 12), random.Random(4)), 3),
    "F_27-M2": lambda: (random_normalized_curve(
        LocalField.unramified(3, 3, 12), random.Random(27)), 2),
    "Q_5-M6": lambda: (make_curve(LocalField.unramified(5, 1, 12),
                                  FIXTURE_COEFFS["E5"][1]), 6),
    "F_49-M2": lambda: (random_normalized_curve(
        LocalField.unramified(7, 2, 12), random.Random(49)), 2),
    "x^2-17-M3": lambda: (random_normalized_curve(
        LocalField.eisenstein(17, (-17, 0, 1), 8), random.Random(17)), 3),
    "cubic-M1": lambda: (_cubic_eisenstein_curve(), 1),
}


def _reference_model(name):
    E, M = REFERENCE_MODELS[name]()
    return finite_model(E, M)


@pytest.mark.parametrize("name", list(REFERENCE_MODELS))
def test_double_and_add_and_negation_match_references(name):
    # [DERIVED] the index ladder's p*x equals the p-fold sum at every
    # residue, and F by one negation equals F = i(t3) bit for bit
    m = _reference_model(name)
    assert np.array_equal(m.F, _F_by_inverse_series(m))
    assert np.array_equal(m.residues[m.p_multiples()],
                          m.canonical(_p_fold_reference(m)))
    # the residues keep the lexicographic order kernel_witnesses reports,
    # which is the order of the indices
    assert m.residues.tolist() == [
        list(r) for r in itertools.product(*(range(k) for k in m.moduli))]
    assert np.array_equal(m.index(m.residues), np.arange(m.order))


@pytest.mark.parametrize("name", list(REFERENCE_MODELS))
def test_model_build_inverts_one_unit(name, monkeypatch):
    # [DERIVED] t3 and the negation share the chord's denominator, so a
    # model build runs one Newton inversion; the residues' power table is
    # power-major, one contiguous (order, d) block per power
    calls = _recorded(monkeypatch, "invert_unit")
    m = _reference_model(name)
    assert len(calls) == 1
    assert m.residue_powers.shape == (m.D + 1, m.order, m.ring.d)
    assert m.residue_powers.flags.c_contiguous


@pytest.mark.parametrize("name", list(REFERENCE_MODELS))
def test_triangular_g_table_is_the_full_square(name):
    # [DERIVED] F is truncated at total degree D, so the entries of the
    # square past the triangle are zero and the two contractions agree
    m = _reference_model(name)
    assert np.array_equal(m.ring.contract_triangle(m.F, m.residue_powers),
                          _full_square_g_table(m, m.residues))


def _p31_model():
    field = LocalField.eisenstein(31, (-31, 0, 1), 8)
    m = finite_model(random_normalized_curve(field, random.Random(31)), 3)
    assert m.order == 31 ** 3
    return m


def test_p_rank_evaluation_count(monkeypatch):
    # [DERIVED] p = 31 = 0b11111: 4 doublings and 4 additions.  One power
    # table of the residues, one contraction of the diagonal for the
    # doubling map and one G table; a doubling is a lookup, so nothing is
    # evaluated, and at most popcount - 1 = 4 additions contract G
    m, p = _p31_model(), 31
    calls = _recorded(monkeypatch, "powers", "contract", "contract_triangle",
                      "evaluate")
    m.p_rank()
    names = [name for name, _ in calls]
    assert names.count("evaluate") == 0
    tables = [args[0] for name, args in calls if name == "powers"]
    assert len(tables) == 1 and tables[0] is m.residues
    assert names.count("contract_triangle") == 1
    contracted = [args for name, args in calls if name == "contract"]
    assert sum(C is m.diag and P is m.residue_powers
               for C, P in contracted) == 1
    additions = [C for C, _ in contracted if C.shape == m.residue_powers.shape]
    assert 0 < len(additions) <= bin(p).count("1") - 1
    assert len(contracted) == 1 + len(additions)


def test_kernel_count_evaluation_count(monkeypatch):
    # [DERIVED] [p](T) takes the ladder of p_rank on series: for
    # p = 31 = 0b11111, 4 doublings and 4 additions of T, so at most
    # bit_length + popcount - 2 = 8 series evaluations, then one
    # contraction with the residues' power table, which p_rank shares
    m, p = _p31_model(), 31
    calls = _recorded(monkeypatch, "powers", "contract", "evaluate")
    m.kernel_count()
    m.p_rank()
    assert sum(name == "powers" and args[0] is m.residues
               for name, args in calls) == 1
    evaluations = [args for name, args in calls if name == "evaluate"]
    assert all(args[2:] == (True,) for args in evaluations)  # series only
    assert len(evaluations) <= p.bit_length() + bin(p).count("1") - 2
    assert sum(name == "contract" and args[0] is m.mult_p_series()
               and args[1] is m.residue_powers for name, args in calls) == 1
