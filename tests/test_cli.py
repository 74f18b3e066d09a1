import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from e0struct.cli import main
from e0struct.curve import Transform
from e0struct.local_field import LocalField

from conftest import make_curve


@pytest.fixture
def runner():
    return CliRunner()


def write_desc(tmp_path, desc, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(desc))
    return str(path)


E5_DESC = {"p": 5, "field": {"kind": "unramified", "n": 1},
           "a": [0, 20, -5, -15, 0], "precision": 12}
E2_DESC = {"p": 2, "field": {"kind": "unramified", "n": 1},
           "a": [0, 0, 2, 0, -2], "precision": 12}
RAM_DESC = {"p": 2, "field": {"kind": "eisenstein", "poly": [-2, 0, 1]},
            "a": [0, 0, 2, 0, -2], "precision": 12}


def test_classify_text(runner, tmp_path):
    res = runner.invoke(main, ["classify", write_desc(tmp_path, E5_DESC)])
    assert res.exit_code == 0
    assert res.output == "Z_5 x Z/5Z, method: corollary-iii, certified\n"


def test_classify_json_deterministic(runner, tmp_path):
    path = write_desc(tmp_path, E5_DESC)
    outputs = {runner.invoke(main, ["classify", path, "--json"]).output
               for _ in range(3)}
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["structure"] == {"free_rank": 1, "torsion": [5]}
    assert payload["method"] == "corollary-iii"
    assert payload["certified"] is True


def test_classify_stdin(runner):
    res = runner.invoke(main, ["classify", "-"], input=json.dumps(E5_DESC))
    assert res.exit_code == 0
    assert res.output.startswith("Z_5 x Z/5Z")


def test_classify_exploratory_exit_code(runner, tmp_path):
    res = runner.invoke(main, ["classify", write_desc(tmp_path, RAM_DESC)])
    assert res.exit_code == 2
    assert "ramified-exploratory, exploratory" in res.output


def test_classify_rejects_multiplicative(runner, tmp_path):
    desc = {"p": 5, "field": {"kind": "unramified", "n": 1},
            "a": [0, 1, 0, 0, 5], "precision": 12}
    res = runner.invoke(main, ["classify", write_desc(tmp_path, desc)])
    assert res.exit_code == 1
    assert "reduction type: multiplicative (additive required)" in res.stderr


def test_classify_schema_error(runner, tmp_path):
    desc = {"p": 5, "field": {"kind": "unramified", "n": 1},
            "a": [0, 0, 0, 0], "precision": 12}
    res = runner.invoke(main, ["classify", write_desc(tmp_path, desc)])
    assert res.exit_code == 1
    assert "descriptor schema" in res.stderr


def test_classify_nonprime_p(runner, tmp_path):
    desc = {"p": 4, "field": {"kind": "unramified", "n": 1},
            "a": [0, 0, 0, 0, 4], "precision": 12}
    res = runner.invoke(main, ["classify", write_desc(tmp_path, desc)])
    assert res.exit_code == 1
    assert "not prime" in res.stderr


def test_normalize(runner, tmp_path):
    res = runner.invoke(main, ["normalize", write_desc(tmp_path, E5_DESC)])
    assert res.exit_code == 0
    assert res.output.startswith("normalized a-invariants")
    assert "transform (r, s, t):" in res.output


def test_formal_group_command(runner):
    res = runner.invoke(main, ["formal-group", "--p", "5", "--n-series", "5"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0].startswith(
        "F(X, Y) = X + Y - a1*X*Y - a2*X^2*Y - a2*X*Y^2")
    assert lines[1].startswith("[5](T) = 5*T - 10*a1*T^2")
    assert lines[-1] == "g = T - (3*a4/5)~ * T^5"


@pytest.mark.parametrize("p, line", [
    (2, "g = T - (a1/2)~ * T^2 - (a3/2)~ * T^4"),
    (3, "g = T - (2*a2/3)~ * T^3"),
    (5, "g = T - (3*a4/5)~ * T^5"),
    (7, "g = T - (4*a6/7)~ * T^7"),
    (11, "g = T (no torsion contribution for p > 7)"),
], ids=["p2", "p3", "p5", "p7", "p11"])
def test_formal_group_g_line(runner, p, line):
    # the output of the generic [p] route this table replaced
    res = runner.invoke(main, ["formal-group", "--p", str(p)])
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == line
    res = runner.invoke(main, ["formal-group", "--p", str(p), "--json"])
    assert json.loads(res.output)["g"] == ("T" if p > 7 else line[4:])


def test_formal_group_degree_cap(runner):
    res = runner.invoke(main, ["formal-group", "--p", "3", "--degree", "99"])
    assert res.exit_code == 1


def test_verify_point(runner, tmp_path):
    desc = dict(E2_DESC, points=[{"x": 1, "y": -1}, "infinity"])
    res = runner.invoke(main, ["verify-point", write_desc(tmp_path, desc)])
    assert res.exit_code == 0
    assert res.output == "in E_0, level 0, 2-torsion\ninfinity: identity\n"


def test_verify_point_infinite_order(runner, tmp_path):
    desc = {"p": 2, "field": {"kind": "unramified", "n": 1},
            "a": [0, 0, 0, 0, -2], "precision": 12,
            "points": [{"x": 3, "y": 5}]}
    res = runner.invoke(main, ["verify-point", write_desc(tmp_path, desc)])
    assert res.exit_code == 0
    assert res.output == "in E_0, level 0, infinite order (group is Z_2)\n"


def test_verify_point_certified_torsion_free_at_precision_1(runner, tmp_path):
    # the group Z_2 is certified torsion-free, so the [2^j] congruences
    # mod m^1 (which every point of E_1 satisfies) are not read
    desc = {"p": 2, "field": {"kind": "unramified", "n": 1},
            "a": [0, 0, 0, 0, -2], "precision": 12,
            "points": [{"x": 3, "y": 5}]}
    res = runner.invoke(main, ["verify-point", write_desc(tmp_path, desc),
                               "--precision", "1"])
    assert res.exit_code == 0
    assert res.output == "in E_0, level 0, infinite order (group is Z_2)\n"


@pytest.mark.parametrize("precision", ["1", "2"])
def test_verify_point_low_precision_congruence_is_not_torsion(
        runner, tmp_path, precision):
    # (-11, 38) on E5 has infinite order, but [5](T) = 0 mod m for every
    # T in m, so [5^j]P = O holds mod m^1 and m^2; the label needs the
    # congruence at the descriptor's precision 12, where it fails
    desc = dict(E5_DESC, points=[{"x": -11, "y": 38}])
    res = runner.invoke(main, ["verify-point", write_desc(tmp_path, desc),
                               "--precision", precision])
    assert res.exit_code == 0
    assert res.output == ("in E_0, level 0, not p^j-torsion for j <= 2 "
                          "(mod m^12)\n")


def _times_over_q(a, n, P):
    """[n]P on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q, by
    the chord-tangent formulas in Fractions, for P of infinite order."""
    a1, a2, a3, a4, _ = a
    x1, y1 = map(Fraction, P)
    x, y = x1, y1
    for _ in range(n - 1):
        if x == x1:
            lam = ((3 * x * x + 2 * a2 * x + a4 - a1 * y)
                   / (2 * y + a1 * x + a3))
        else:
            lam = (y - y1) / (x - x1)
        x3 = lam * lam + a1 * lam - a2 - x - x1
        x, y = x3, -(lam + a1) * x3 - (y1 - lam * x1) - a3
    return x, y


def test_verify_point_in_E1(runner):
    # [DERIVED] 5(-11, 38) on E5 has v_5(x) = -4, so it lies in E_2 and
    # its coordinates are not integral; like (-11, 38) it has infinite
    # order
    x, y = _times_over_q(E5_DESC["a"], 5, (-11, 38))
    desc = dict(E5_DESC, points=[{"x": str(x), "y": str(y)}])
    res = runner.invoke(main, ["verify-point", "-"], input=json.dumps(desc))
    assert res.exit_code == 0
    assert res.output == ("in E_0, level 2, not p^j-torsion for j <= 2 "
                          "(mod m^12)\n")


@pytest.mark.parametrize("a", [[0, 0, 2, 0, -2], [28, 14, 26, 14, 28]],
                         ids=["E2", "28-14-26-14-28"])
@pytest.mark.parametrize("precision", [1, 2])
def test_equal_integers_give_equal_answers(runner, a, precision):
    # [DERIVED] an integer c is one value whether it is written c, "c/1",
    # [c] or [c, 0], so it is known to the same precision each way
    outs = set()
    for spell in (lambda c: c, lambda c: f"{c}/1", lambda c: [c],
                  lambda c: [c, 0]):
        desc = dict(E2_DESC, a=[spell(c) for c in a], precision=precision)
        res = runner.invoke(main, ["classify", "--json", "-"],
                            input=json.dumps(desc))
        outs.add((res.exit_code, res.output))
    assert len(outs) == 1


def test_verify_point_singular(runner, tmp_path):
    desc = {"p": 2, "field": {"kind": "unramified", "n": 1},
            "a": [0, -6, 0, 8, 0], "precision": 12,
            "points": [{"x": 0, "y": 0}]}
    res = runner.invoke(main, ["verify-point", write_desc(tmp_path, desc)])
    assert res.exit_code == 0
    assert res.output == "not in E_0 (reduces to singular point)\n"


def test_verify_point_off_curve(runner, tmp_path):
    desc = dict(E2_DESC, points=[{"x": 1, "y": 1}])
    res = runner.invoke(main, ["verify-point", write_desc(tmp_path, desc)])
    assert res.exit_code == 1
    assert "not on curve" in res.stderr


def test_oracle_command(runner, tmp_path):
    res = runner.invoke(
        main, ["oracle", write_desc(tmp_path, E5_DESC), "-m", "3"])
    assert res.exit_code == 0
    assert res.output == "order 125, p_rank 2, kernel 25: pass\n"


def test_oracle_json(runner, tmp_path):
    res = runner.invoke(
        main, ["oracle", write_desc(tmp_path, E2_DESC), "-m", "4", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["verdict"] == "pass"
    assert payload["order"] == 16 and payload["kernel_size"] == 4


def test_rational_string_coefficients(runner, tmp_path):
    # "n/d" strings and coefficient vectors are accepted
    desc = {"p": 5, "field": {"kind": "unramified", "n": 1},
            "a": ["0", "100/5", "-5", "-15", 0], "precision": 12}
    res = runner.invoke(main, ["classify", write_desc(tmp_path, desc)])
    assert res.exit_code == 0
    assert res.output.startswith("Z_5 x Z/5Z")


@pytest.mark.parametrize("field", [{"kind": "unramified", "n": 2},
                                   {"kind": "eisenstein", "poly": [-5, 0, 1]}])
def test_coefficient_vector_entries_are_p_integral(runner, field):
    # [DERIVED] a vector entry is accepted exactly when it is p-integral,
    # the same rule over both kinds: a vector [c, 0] builds the same
    # curve as the scalar c, and a denominator divisible by p is refused
    scalars = {"p": 5, "field": field, "a": [0, "40/2", "-5/3", "-15/4", 0],
               "precision": 12}
    vectors = dict(scalars, a=[[c, 0] for c in scalars["a"]])
    outs = [runner.invoke(main, ["normalize", "--json", "-"],
                          input=json.dumps(desc)) for desc in (scalars, vectors)]
    assert [r.exit_code for r in outs] == [0, 0]
    assert outs[1].output == outs[0].output
    bad = dict(vectors, a=[[0], ["1/5", 0], [5], [5], [5]])
    res = runner.invoke(main, ["classify", "-"], input=json.dumps(bad))
    assert res.exit_code == 1
    assert res.stderr == "error: coefficient 1/5 in vector is not p-integral\n"


@pytest.mark.parametrize("field", [LocalField.unramified(5, 2),
                                   LocalField.eisenstein(2, (-2, 2, 1))])
def test_coefficient_vector_is_read_mod_h(field):
    # [DERIVED] a vector longer than the basis is the same polynomial in X
    # reduced mod h: X^deg = -(h_0 + h_1 X + ...)
    h = field.poly
    assert (field.embed_integral_rational([0] * field.deg + [1])
            == field.element([-c for c in h[:-1]]))


POINT_DESC = dict(E5_DESC, points=[{"x": 1, "y": 1}])


@pytest.mark.parametrize("edit", [
    # integral floats passed the old schema, then raised TypeError
    {"p": 5.0}, {"field": {"kind": "unramified", "n": 2.0}},
    {"precision": 4.0}, {"p": True},
    # a zero denominator, a trailing newline and non-ASCII digits
    {"a": [0, 20, "5/0", -15, 0]}, {"a": [0, 20, "-5\n", -15, 0]},
    {"a": [0, 20, "-\u0665", -15, 0]},
    # one case per rule
    {"p": 1}, {"field": {"kind": "ramified", "poly": [-5, 0, 1]}},
    {"field": {"kind": "unramified", "n": 0}},
    {"field": {"kind": "eisenstein", "poly": [-5]}},
    {"a": [0, 20, -5, -15]}, {"a": [0, 20, -5, -15, 0, 0]},
    {"a": [0, 20, "1/x", -15, 0]}, {"a": [0, 20, [], -15, 0]},
    {"precision": 0}, {"points": [{"x": 1}]}, {"points": ["zero"]},
    {"q": 1}, {"field": {"kind": "unramified", "n": 1, "m": 1}},
    {"points": [{"x": 1, "y": 1, "z": 1}]}, {"field": {"kind": "eisenstein"}},
], ids=["p-float", "n-float", "precision-float", "p-true", "zero-denominator",
        "trailing-newline", "non-ascii-digit", "p1", "kind", "n0", "poly1",
        "a4", "a6", "rational", "empty-vector", "precision0", "point-no-y",
        "point-string", "extra-top-key", "extra-field-key", "extra-point-key",
        "eisenstein-no-poly"])
def test_descriptor_rule_is_enforced(runner, edit):
    # [DERIVED] every broken rule ends in a message and exit code 1
    desc = json.dumps(dict(POINT_DESC, **edit))
    for argv in (["classify"], ["oracle", "-m", "2"], ["verify-point"]):
        res = runner.invoke(main, argv + ["-"], input=desc)
        assert res.exit_code == 1
        assert "descriptor schema: " in res.stderr
        assert "Traceback" not in res.output


@pytest.mark.parametrize("desc, expected", [
    ({"p": 3, "field": {"kind": "unramified", "n": 3},
      "a": [3, 3, 3, 3, 3]}, "order 729, p_rank 3, kernel 27: pass\n"),
    (dict(E2_DESC, field={"kind": "unramified", "n": 3}),
     "order 64, p_rank 4, kernel 16: pass\n"),
], ids=["F_27", "F_8"])
def test_oracle_command_cubic_residue_field(runner, desc, expected):
    # the oracle's ring product reduces by a defining polynomial of degree 3
    res = runner.invoke(main, ["oracle", "-", "-m", "2"],
                        input=json.dumps(desc))
    assert res.exit_code == 0
    assert res.output == expected


E7_F49_M1 = {"p": 7, "field": {"kind": "unramified", "n": 2},
             "a": [7, 0, -28, 7, -35], "precision": 1}


def test_classify_E7_over_F49_at_precision_1(runner):
    # g reads a6 = -35, which is known mod 49 even at precision 1
    res = runner.invoke(main, ["classify", "-"], input=json.dumps(E7_F49_M1))
    assert res.exit_code == 0
    assert res.output == "Z_7^2 x Z/7Z, method: theorem-unramified, certified\n"


def test_internal_inconsistency_is_a_clean_error(runner, monkeypatch):
    # a kernel dimension the norm criterion rules out raises
    # InternalInconsistency, an AssertionError, which ends as exit 1
    import e0struct.classifier as classifier

    monkeypatch.setattr(classifier, "additive_poly_roots",
                        lambda g: (2, []))
    desc = dict(E7_F49_M1, precision=12)
    res = runner.invoke(main, ["classify", "-"], input=json.dumps(desc))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: norm criterion (True) disagrees "
                                 "with kernel dimension 2")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("argv, desc, message", [
    (["oracle", "-", "-m", "1"],
     {"p": 1087, "field": {"kind": "unramified", "n": 1},
      "a": [1087] * 5, "precision": 4},
     "error: "),
], ids=["oracle-p1087-M1"])
def test_internal_failure_is_a_clean_error(runner, argv, desc, message):
    # the p = 1087 model is refused because its worst-case intermediate
    # exceeds int64
    res = runner.invoke(main, argv, input=json.dumps(desc))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(message)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("argv, message", [
    (["oracle", "-", "-m", "0"], "-m/--level must be >= 1"),
    (["oracle", "-", "-m", "-1"], "-m/--level must be >= 1"),
    (["formal-group", "--p", "4"], "--p 4 is not prime"),
    (["formal-group", "--p", "9"], "--p 9 is not prime"),
    (["formal-group", "--p", "1"], "--p 1 is not prime"),
    (["formal-group", "--p", "-3"], "--p -3 is not prime"),
    (["formal-group", "--degree", "-1"], "--degree must be >= 0"),
    (["verify-point", "-", "--precision", "0"],
     "--precision must be >= 1"),
], ids=["oracle-m0", "oracle-m-1", "p4", "p9", "p1", "p-3", "degree-1",
        "verify-precision0"])
def test_out_of_range_option_is_an_error(runner, argv, message):
    desc = dict(E2_DESC, points=[{"x": 1, "y": -1}])
    res = runner.invoke(main, argv, input=json.dumps(desc))
    assert res.exit_code == 1
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def _unnormalized(p, n, a, rst):
    """The descriptor of a normalized model moved by X = X' + r,
    Y = Y' + s X' + t with unit r, s, t."""
    field = LocalField.unramified(p, n, 12)
    E = Transform(field, *map(field.element, rst)).apply(make_curve(field, a))
    return {"p": p, "field": {"kind": "unramified", "n": n},
            "a": [list(ai.coeffs) for ai in E.a], "precision": 12}


@pytest.mark.parametrize("desc, expected", [
    (_unnormalized(1009, 1, (1009, 2018, 1009, 3027, 1009),
                   ([5], [7], [11])), "Z_1009"),
    (_unnormalized(11, 3, (11, 22, 11, 33, 11),
                   ([1, 2, 3], [4, 5, 6], [7, 8, 9])), "Z_11^3"),
], ids=["Q_1009", "F_1331"])
def test_classify_unnormalized_large_residue_field(runner, desc, expected):
    # both take the 6e < p - 1 path, so the time is the special-fibre
    # geometry of a model that must be normalized first
    t0 = time.perf_counter()
    res = runner.invoke(main, ["classify", "-"], input=json.dumps(desc))
    elapsed = time.perf_counter() - t0
    assert res.exit_code == 0
    assert res.output == f"{expected}, method: 6e<p-1, certified\n"
    assert elapsed < 2.0
