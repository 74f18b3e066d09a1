"""Command-line front end: classify curves, normalize models, print
formal-group data, verify points, and run oracle comparisons.

The a_i and point coordinates go to the curve as written, so
LocalField.embed_rational alone decides their value and precision.

Each subcommand is a plain function that returns its exit code and
raises on failure; main is the one place that catches a failure, prints
it (one `error:` line on stderr, or a JSON object under --json) and
exits.  Exit codes: 0 = success/certified, 2 = exploratory result,
1 = error, a usage error or unreadable input included.  JSON output is
deterministic (sorted keys)."""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .classifier import classify_general
from .curve import (INFINITY, NotInE0, WeierstrassCurve,
                    normalize_additive, psi_E0, reduction_type,
                    filtration_level, require_additive)
from .formal_group import (G_TABLE, generic_group_law, generic_mult_by_n,
                           t_of_multiple)
from .local_field import LocalField, PrecisionExhausted
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
    kind = f.get("kind") if isinstance(f, dict) else None
    _require(kind in ("unramified", "eisenstein"),
             "'kind' must be 'unramified' or 'eisenstein'")
    _require(_has_keys(f, {"kind"}, {"n"}) if kind == "unramified"
             else _has_keys(f, {"kind", "poly"}),
             "an unramified 'field' has 'kind' and optionally 'n', "
             "an eisenstein one 'kind' and 'poly'")
    for obj, key, least in ((d, "p", 2), (d, "precision", 1), (f, "n", 1)):
        v = obj.get(key, least)
        _require(type(v) is int and v >= least,  # refuses true and 5.0
                 f"{key!r} must be an integer >= {least}")
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
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc.strerror}") from exc


def _emit(payload, text_lines, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _curve(input):
    """The descriptor in INPUT (a path or '-') and its curve, over the
    field at the descriptor's precision."""
    desc = load_descriptor(_read_input(input))
    return desc, build_curve(build_field(desc), desc)


def classify(input, as_json):
    """Classify E_0(K) for the descriptor in INPUT (path or '-')."""
    _, E = _curve(input)
    require_additive(reduction_type(E))
    report = classify_general(E)
    tag = "certified" if report.certified else "exploratory"
    _emit(report.to_json(),
          [f"{report.structure}, method: {report.method}, {tag}"],
          as_json)
    return EXIT_OK if report.certified else EXIT_EXPLORATORY


def normalize(input, as_json):
    """Translate the singular point to the origin and kill the tangent
    cross term; print the transformed model."""
    _, E = _curve(input)
    E2, tr = normalize_additive(E)
    payload = {"curve": E2.to_json(), "transform": tr.to_json()}
    avals = [list(ai.coeffs) for ai in E2.a]
    lines = [f"normalized a-invariants (coefficient vectors): {avals}",
             f"transform (r, s, t): {json.dumps(tr.to_json(), sort_keys=True)}"]
    _emit(payload, lines, as_json)
    return EXIT_OK


def formal_group(p, n_series, degree, as_json):
    """Print the generic group law F, the series [n], and g."""
    if degree > SYMBOLIC_DEGREE_BOUND:
        raise ValueError(f"degree {degree} exceeds symbolic bound "
                         f"{SYMBOLIC_DEGREE_BOUND}")
    if degree < 0:
        raise ValueError("--degree must be >= 0")
    if n_series < 1:
        raise ValueError("--n-series must be >= 1")
    if p is not None and not is_prime(p):
        raise ValueError(f"--p {p} is not prime")
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
    return EXIT_OK


def verify_point(input, precision, as_json):
    """Check each descriptor point: on-curve, E_0 membership, filtration
    level, and torsion order."""
    if precision < 1:
        raise ValueError("--precision must be >= 1")
    desc, E = _curve(input)
    if not desc.get("points"):
        raise ValueError("descriptor has no points to verify")
    report = classify_general(E)
    results = [_verify_one(report, pt, precision) for pt in desc["points"]]
    _emit({"points": results}, [r["text"] for r in results], as_json)
    return EXIT_OK if report.certified else EXIT_EXPLORATORY


def _verify_one(report, raw, precision):
    E, tr = report.curve, report.transform
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
    if not res.is_zero_at_precision():
        raise ValueError(f"point not on curve: residual valuation "
                         f"{res.valuation()}")
    try:
        level = filtration_level(E, P)
    except NotInE0:
        out.update({"in_E0": False,
                    "text": "not in E_0 (reduces to singular point)"})
        return out
    out.update({"in_E0": True, "level": level})
    if report.certified and not report.structure.torsion:
        # E_0(K) is pro-p, so in a certified torsion-free group every
        # point but the identity has infinite order
        out["order"] = "infinite"
        out["text"] = (f"in E_0, level {level}, infinite order "
                       f"(group is {report.structure})")
        return out
    t = psi_E0(E, P)
    t_mult = functools.cache(
        lambda j: t_of_multiple(E.a, field.p ** j, t))
    order = _torsion_order(t_mult, field.p, precision)
    if order is not None and precision < field.M:
        # [p](T) is 0 mod m for every T in m, so a congruence below the
        # descriptor's precision M holds for points of infinite order too:
        # a torsion label needs the congruence at M, which the t([p^j]P)
        # in hand decide, known as they are to the precision of t(P)
        precision = field.M
        order = _torsion_order(t_mult, field.p, precision)
    if order is not None:
        out["order"] = order
        out["text"] = f"in E_0, level {level}, {order}-torsion"
        return out
    out["order"] = f"not p^j-torsion for j <= 2 (mod m^{precision})"
    out["text"] = f"in E_0, level {level}, {out['order']}"
    return out


def _torsion_order(t_mult, p, precision):
    """p^j for the least j <= 2 with [p^j]P = O mod m^precision, or None.
    t_mult(j) is t([p^j]P), from the ladder on the point P itself
    (formal_group.t_of_multiple), known to the precision of t(P); a
    value known below m^precision decides nothing and is refused."""
    for j in (1, 2):
        tj = t_mult(j)
        if tj.prec < precision:
            raise PrecisionExhausted(
                f"t([{p}^{j}]P) known mod m^{tj.prec}; the torsion check "
                f"needs m^{precision}")
        v = tj.valuation_or_none()
        if v is None or v >= precision:
            return p ** j
    return None


def oracle(input, level, as_json):
    """Compare the certified classification against the brute-force
    finite-quotient oracle at level M."""
    if level < 1:
        raise ValueError("-m/--level must be >= 1")
    _, E = _curve(input)
    report = classify_general(E)
    verdict = compare(report.curve, report, level)
    lines = [f"order {verdict['order']}, p_rank {verdict['p_rank']}, "
             f"kernel {verdict['kernel_size']}: {verdict['verdict']}"]
    _emit(verdict, lines, as_json)
    return EXIT_OK if verdict["verdict"] == "pass" else EXIT_ERROR


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Hands a usage error to main, which reports it with exit code 1
    (argparse itself prints the usage and exits with 2, the code of an
    exploratory result)."""

    def error(self, message):
        raise UsageError(message)


def _parser(prog):
    parser = _Parser(prog=prog, allow_abbrev=False, description=(
        "Z_p-module structure of E_0(K) for additive reduction."))
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)

    def command(name, run):
        doc = " ".join(run.__doc__.split())
        cmd = sub.add_parser(name, help=doc, description=doc,
                             allow_abbrev=False)
        cmd.set_defaults(run=run)
        return cmd

    def reads_input(cmd):
        cmd.add_argument("input", nargs="?", default="-", metavar="INPUT")
        return cmd

    reads_input(command("classify", classify))
    reads_input(command("normalize", normalize))
    fg = command("formal-group", formal_group)
    fg.add_argument("--p", type=int, default=None, help=(
        "Also print g = [p](T)/p mod m for a prime p, read from the "
        "closed-form table (g = T for p > 7)."))
    fg.add_argument("--n-series", type=int, default=2,
                    help="Which multiplication series [n] to print.")
    fg.add_argument("--degree", type=int, default=6,
                    help="Truncation degree for the printed series.")
    reads_input(command("verify-point", verify_point)).add_argument(
        "--precision", type=int, default=4, help=(
            "Least precision (powers of m_K) of a torsion check; a torsion "
            "label is checked again at the descriptor's precision."))
    reads_input(command("oracle", oracle)).add_argument(
        "-m", "--level", type=int, default=4,
        help="Quotient level M for the finite model.")
    for cmd in sub.choices.values():
        cmd.add_argument("--json", dest="as_json", action="store_true",
                         help="JSON output only.")
    return parser


def main(argv=None, prog_name=None):
    """Run one subcommand on argv (sys.argv[1:] by default) and exit with
    its code, through SystemExit.  Every failure ends here as one error
    with exit code 1; AssertionError covers the internal consistency
    checks.  A usage error comes before --json is read, so it is always
    an `error:` line."""
    as_json = False
    try:
        args = vars(_parser(prog_name or "e0struct").parse_args(argv))
        del args["command"]
        as_json = args["as_json"]
        code = args.pop("run")(**args)
    except (UsageError, ValueError, ArithmeticError,
            AssertionError) as exc:
        message = str(exc) or type(exc).__name__
        if as_json:
            print(json.dumps({"error": message}, sort_keys=True))
        else:
            print(f"error: {message}", file=sys.stderr)
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
