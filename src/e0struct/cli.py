"""Command-line front end: classify curves, normalize models, print
formal-group data, verify points, and run oracle comparisons.

The a_i and point coordinates go to the curve as written, so
LocalField.embed_rational alone decides their value and precision.

Exit codes: 0 = success/certified, 2 = exploratory result, 1 = error.
JSON output is deterministic (sorted keys)."""

from __future__ import annotations

import functools
import json
import re
import sys

import click

from .classifier import classify_general
from .curve import (INFINITY, WeierstrassCurve, normalize_additive,
                    psi_E0, reduce_point, reduction_type, filtration_level)
from .formal_group import (G_TABLE, eval_at, generic_group_law,
                           generic_mult_by_n, mult_degree,
                           specialized_mult_by_n)
from .local_field import LocalField
from .oracle import compare
from .residue_field import is_prime

EXIT_OK, EXIT_ERROR, EXIT_EXPLORATORY = 0, 1, 2
SYMBOLIC_DEGREE_BOUND = 24

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")  # d != 0


class DescriptorError(ValueError):
    pass


def _require(ok, rule):
    if not ok:
        raise DescriptorError(f"descriptor schema: {rule}")


def _has_keys(o, required, optional=frozenset()):
    return isinstance(o, dict) and required <= o.keys() <= required | optional


def _is_coeff(v):
    """A rational (an int or an "n/d" string) or a non-empty list of them."""
    return v != [] and all(
        type(c) is int or isinstance(c, str) and _RATIONAL.fullmatch(c)
        for c in (v if isinstance(v, list) else [v]))


def _check_descriptor(d):
    """Every rule a descriptor must meet, checked before anything is built."""
    _require(_has_keys(d, {"p", "field", "a"}, {"precision", "points"}),
             "keys are 'p', 'field', 'a' and optionally 'precision', 'points'")
    f, a, points = d["field"], d["a"], d.get("points", [])
    _require(_has_keys(f, {"kind"}, {"n", "poly"}),
             "'field' keys are 'kind' and optionally 'n', 'poly'")
    for obj, key, least in ((d, "p", 2), (d, "precision", 1), (f, "n", 1)):
        v = obj.get(key, least)
        _require(type(v) is int and v >= least,  # refuses true and 5.0
                 f"{key!r} must be an integer >= {least}")
    _require(f["kind"] in ("unramified", "eisenstein"),
             "'kind' must be 'unramified' or 'eisenstein'")
    _require("poly" in f or f["kind"] == "unramified",
             "eisenstein field needs a 'poly'")
    poly = f.get("poly", [0, 0])
    _require(isinstance(poly, list) and len(poly) >= 2
             and all(type(c) is int for c in poly),
             "'poly' must be a list of at least 2 integers")
    _require(isinstance(a, list) and len(a) == 5 and all(map(_is_coeff, a)),
             "'a' must hold 5 coefficients, each an integer, an \"n/d\" "
             "string or a non-empty list of them")
    _require(isinstance(points, list) and all(
        pt == "infinity" or _has_keys(pt, {"x", "y"})
        and _is_coeff(pt["x"]) and _is_coeff(pt["y"]) for pt in points),
        "each point must be \"infinity\" or {\"x\": ..., \"y\": ...}")


def load_descriptor(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON: {exc}") from exc
    _check_descriptor(data)
    return data


def build_field(desc: dict, precision=None) -> LocalField:
    p, f = desc["p"], desc["field"]
    M = precision if precision is not None else desc.get("precision")
    if f["kind"] == "unramified":
        return LocalField.unramified(p, f.get("n", 1), M)
    return LocalField.eisenstein(p, f["poly"], M)


def build_curve(field: LocalField, desc: dict) -> WeierstrassCurve:
    return WeierstrassCurve(field, *desc["a"])


def build_point(E: WeierstrassCurve, pt):
    if pt == "infinity":
        return INFINITY
    return E.point(pt["x"], pt["y"])


def _read_input(path):
    if path == "-" or path is None:
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(payload, text_lines, as_json):
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)


def _fail(message, as_json=False):
    if as_json:
        click.echo(json.dumps({"error": message}, sort_keys=True))
    else:
        click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_ERROR)


def _error_boundary(command):
    """Report every failure of a subcommand as `error: <message>` with
    exit code 1; AssertionError covers the internal consistency checks."""
    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ValueError, ArithmeticError, AssertionError) as exc:
            _fail(str(exc) or type(exc).__name__, kwargs.get("as_json"))
    return wrapper


@click.group()
def main():
    """Z_p-module structure of E_0(K) for additive reduction."""


@main.command()
@click.argument("input", default="-")
@click.option("--precision", type=int, default=None,
              help="Working precision (powers of m_K).")
@click.option("--json", "as_json", is_flag=True, help="JSON output only.")
@_error_boundary
def classify(input, precision, as_json):
    """Classify E_0(K) for the descriptor in INPUT (path or '-')."""
    desc = load_descriptor(_read_input(input))
    field = build_field(desc, precision)
    E = build_curve(field, desc)
    rt = reduction_type(E)
    if rt.tag != "additive":
        _fail(f"reduction type: {rt.tag} (additive required)", as_json)
    report = classify_general(E)
    tag = "certified" if report.certified else "exploratory"
    _emit(report.to_json(),
          [f"{report.structure}, method: {report.method}, {tag}"],
          as_json)
    sys.exit(EXIT_OK if report.certified else EXIT_EXPLORATORY)


@main.command()
@click.argument("input", default="-")
@click.option("--precision", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
@_error_boundary
def normalize(input, precision, as_json):
    """Translate the singular point to the origin and kill the tangent
    cross term; print the transformed model."""
    desc = load_descriptor(_read_input(input))
    field = build_field(desc, precision)
    E = build_curve(field, desc)
    E2, tr = normalize_additive(E)
    payload = {"curve": E2.to_json(), "transform": tr.to_json()}
    avals = [list(ai.coeffs) for ai in E2.a]
    lines = [f"normalized a-invariants (coefficient vectors): {avals}",
             f"transform (r, s, t): {json.dumps(tr.to_json(), sort_keys=True)}"]
    _emit(payload, lines, as_json)


@main.command("formal-group")
@click.option("--p", "p", type=int, default=None,
              help="Also print g = [p](T)/p mod m for a prime p, read "
                   "from the closed-form table (g = T for p > 7).")
@click.option("--n-series", type=int, default=2,
              help="Which multiplication series [n] to print.")
@click.option("--degree", type=int, default=6,
              help="Truncation degree for the printed series.")
@click.option("--json", "as_json", is_flag=True)
def formal_group(p, n_series, degree, as_json):
    """Print the generic group law F, the series [n], and g."""
    if degree > SYMBOLIC_DEGREE_BOUND:
        _fail(f"degree {degree} exceeds symbolic bound "
              f"{SYMBOLIC_DEGREE_BOUND}", as_json)
    if degree < 0:
        _fail("--degree must be >= 0", as_json)
    if n_series < 1:
        _fail("--n-series must be >= 1", as_json)
    if p is not None and not is_prime(p):
        _fail(f"--p {p} is not prime", as_json)
    F = generic_group_law(min(degree, 6))
    mn = generic_mult_by_n(n_series, degree)
    payload = {"F": F.pretty(("X", "Y")),
               "mult": {"n": n_series, "series": mn.pretty(("T",))}}
    lines = [f"F(X, Y) = {payload['F']} + O(deg {min(degree, 6) + 1})",
             f"[{n_series}](T) = {payload['mult']['series']}"
             f" + O(T^{degree + 1})"]
    if p is not None:
        g = "T"
        for e, j, c in G_TABLE.get(p, ()):
            r = -c % p
            head = f"{r}*" if r != 1 else ""
            g += f" - ({head}a{j}/{p})~ * T^{e}"
        payload["g"] = g
        lines.append(f"g = {g}" if p in G_TABLE
                     else "g = T (no torsion contribution for p > 7)")
    _emit(payload, lines, as_json)


@main.command("verify-point")
@click.argument("input", default="-")
@click.option("--precision", type=int, default=4,
              help="Precision (powers of m_K) for torsion checks.")
@click.option("--json", "as_json", is_flag=True)
@_error_boundary
def verify_point(input, precision, as_json):
    """Check each descriptor point: on-curve, E_0 membership, filtration
    level, and torsion order."""
    if precision < 1:
        _fail("--precision must be >= 1", as_json)
    desc = load_descriptor(_read_input(input))
    field = build_field(desc, None)
    E = build_curve(field, desc)
    if not desc.get("points"):
        _fail("descriptor has no points to verify", as_json)
    report = classify_general(E)
    tr = None
    if not E.is_normalized():
        E, tr = normalize_additive(E)
    results = [_verify_one(E, report, pt, precision, tr)
               for pt in desc["points"]]
    _emit({"points": results}, [r["text"] for r in results], as_json)
    sys.exit(EXIT_OK if report.certified else EXIT_EXPLORATORY)


def _verify_one(E, report, raw, precision, tr=None):
    field = E.field
    P = build_point(E, raw)
    if tr is not None:
        P = tr.forward(P)
    out = {"point": raw if raw == "infinity"
           else {"x": str(raw["x"]), "y": str(raw["y"])}}
    if P.is_infinity:
        out.update({"in_E0": True, "order": 1,
                    "text": "infinity: identity"})
        return out
    res = E.equation_residual(P)
    if not E.contains(P):
        v = None if res.is_zero_at_precision() else res.valuation()
        raise ValueError(f"point not on curve: residual valuation "
                         f"{v if v is not None else '>= prec'}")
    _, smooth = reduce_point(E, P)
    if not smooth:
        out.update({"in_E0": False,
                    "text": "not in E_0 (reduces to singular point)"})
        return out
    level = filtration_level(E, P)
    out.update({"in_E0": True, "level": level})
    if report.certified and not report.structure.torsion:
        # E_0(K) is pro-p, so in a certified torsion-free group every
        # point but the identity has infinite order
        out["order"] = "infinite"
        out["text"] = (f"in E_0, level {level}, infinite order "
                       f"(group is {report.structure})")
        return out
    order = _torsion_order(E, P, precision)
    if order is not None and precision < field.M:
        # [p](T) is 0 mod m for every T in m, so a congruence below the
        # descriptor's precision M holds for points of infinite order too:
        # a torsion label needs the congruence at M
        precision = field.M
        order = _torsion_order(E, P, precision)
    if order is not None:
        out["order"] = order
        out["text"] = f"in E_0, level {level}, {order}-torsion"
        return out
    out["order"] = f"not p^j-torsion for j <= 2 (mod m^{precision})"
    out["text"] = f"in E_0, level {level}, {out['order']}"
    return out


def _torsion_order(E, P, precision):
    """p^j for the least j <= 2 with [p^j]P = O mod m^precision, or None."""
    p = E.field.p
    val = psi_E0(E, P)
    # [p] raises valuations, so the degree that serves psi(P) serves [p]psi(P)
    mp = specialized_mult_by_n(E.a, p, mult_degree(E.a, val, precision))
    for j in (1, 2):
        val = eval_at(E.a, mp, val, precision)
        if val.is_zero_at_precision():
            return p ** j
    return None


@main.command()
@click.argument("input", default="-")
@click.option("-m", "--level", type=int, default=4,
              help="Quotient level M for the finite model.")
@click.option("--precision", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
@_error_boundary
def oracle(input, level, precision, as_json):
    """Compare the certified classification against the brute-force
    finite-quotient oracle at level M."""
    if level < 1:
        _fail("-m/--level must be >= 1", as_json)
    desc = load_descriptor(_read_input(input))
    field = build_field(desc, precision)
    E = build_curve(field, desc)
    report = classify_general(E)
    if not report.certified:
        _fail("oracle comparison requires a certified classification",
              as_json)
    if report.transform is not None and not report.transform.is_identity:
        E, _ = normalize_additive(E)
    verdict = compare(E, report, level)
    lines = [f"order {verdict['order']}, p_rank {verdict['p_rank']}, "
             f"kernel {verdict['kernel_size']}: {verdict['verdict']}"]
    _emit(verdict, lines, as_json)
    sys.exit(EXIT_OK if verdict["verdict"] == "pass" else EXIT_ERROR)


if __name__ == "__main__":
    main()
