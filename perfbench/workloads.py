"""Seeded inputs, the operation each workload times, and the checks on
its answers.

Inputs are descriptor JSON texts; the program sees nothing else.  Every
expected answer comes from perfbench.checks (the paper's closed forms on
the exact integer coefficients), from the program's brute-force oracle
where the paper has no closed form (p = 2, n >= 2), or from properties
the answer must have.  No expected answer is stored.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from checks import (Ring, change_coordinates, discriminant, residue_modulus,
                    structure_str, torsion_rank, valuation_eisenstein,
                    valuation_unramified)

PRECISION = 12  # descriptor precision of every seeded unramified model
ORACLE_CHECK_LEVEL = 4  # level of the oracle check where no closed form exists


class Case:
    """One descriptor and what the checks need to know about it."""

    def __init__(self, desc, p, n, a_norm=None, fault=None, twin=None,
                 level=None, e=1):
        self.desc = desc
        self.text = json.dumps(desc, sort_keys=True)
        self.p, self.n, self.e = p, n, e
        self.a_norm = a_norm  # normalized integer model behind the descriptor
        self.fault = fault  # name of a known program fault, or None
        self.twin = twin  # index of the same curve in the other presentation
        self.level = level  # oracle level M


def _coeffs(a, n):
    return [list(ai) if n > 1 else ai[0] for ai in a]


def _normalized_model(rng, R, p):
    """Random a_i in pZ[X]/(f), f unramified, with v(Delta) well inside
    the descriptor precision."""
    while True:
        a = tuple(tuple(p * rng.randrange(p ** 4) for _ in range(R.d))
                  for _ in range(5))
        v = valuation_unramified(discriminant(R, a), p)
        if v is not None and v <= PRECISION - 4:
            return a


def _eisenstein_model(rng, R, p, size, max_v):
    """Random a_i = p*r_0 + r_1*pi + ... in m_K, r_i < size, with
    v(Delta) <= max_v."""
    while True:
        a = tuple((p * rng.randrange(size),)
                  + tuple(rng.randrange(size) for _ in range(R.d - 1))
                  for _ in range(5))
        v = valuation_eisenstein(R, discriminant(R, a), p)
        if v is not None and v <= max_v:
            return a


def _unit(rng, p, n):
    while True:
        x = tuple(rng.randrange(p ** 2) for _ in range(n))
        if any(c % p for c in x):
            return x


# -- unram ---------------------------------------------------------------------

# (p, n, curves); each curve is presented normalized and, through a
# random coordinate change with a unit s, unnormalized
UNRAM_FIELDS = [(2, 1, 2), (3, 1, 2), (5, 1, 2), (7, 1, 2),
                (2, 2, 1), (3, 2, 1), (3, 3, 1), (5, 2, 1), (7, 2, 1),
                (11, 1, 1), (13, 1, 1)]
# the largest residue field, |k| = 121, only unnormalized: there the
# enumeration runs twice, once in reduction_type and once more when
# normalize_additive calls it again
UNRAM_LARGE = [(11, 2, 1)]
UNRAM_TINY = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (11, 1, 1)]

# descriptors that fail today because certified paths read digits the
# precision does not give; a correct outcome is the true structure or a
# clean PrecisionExhausted
KNOWN_FAULTS = [
    ("E2/Q2 precision 1", 2, 1, (0, 0, 2, 0, -2)),
    ("E2/Q4 precision 1", 2, 2, (0, 0, 2, 0, -2)),
    ("E7/F49 precision 1", 7, 2, (7, 0, -28, 7, -35)),
]


def unram_cases(seed, tiny=False):
    rng = random.Random(f"unram/{seed}")
    cases = []
    fields = [(f, True) for f in (UNRAM_TINY if tiny else UNRAM_FIELDS)]
    fields += [] if tiny else [(f, False) for f in UNRAM_LARGE]
    for (p, n, count), both in fields:
        R = Ring(residue_modulus(p, n))
        for _ in range(count):
            a = _normalized_model(rng, R, p)
            r = tuple(rng.randrange(p ** 2) for _ in range(n))
            t = tuple(rng.randrange(p ** 2) for _ in range(n))
            moved = change_coordinates(R, a, r, _unit(rng, p, n), t)
            i = len(cases)
            pairs = [(a, i + 1), (moved, i)] if both else [(moved, None)]
            for model, twin in pairs:
                desc = {"p": p, "field": {"kind": "unramified", "n": n},
                        "a": _coeffs(model, n), "precision": PRECISION}
                cases.append(Case(desc, p, n, a_norm=a, twin=twin))
    for name, p, n, a in KNOWN_FAULTS:
        desc = {"p": p, "field": {"kind": "unramified", "n": n},
                "a": list(a), "precision": 1}
        a_norm = tuple((c,) + (0,) * (n - 1) for c in a)
        cases.append(Case(desc, p, n, a_norm=a_norm, fault=name))
    return cases


# -- ramified ------------------------------------------------------------------

# Eisenstein polynomials, ascending coefficients, and curves per field
RAMIFIED_FIELDS = [((2, (-2, 0, 1)), 1), ((2, (-2, 2, 1)), 1),
                   ((5, (-5, 0, 0, 1)), 1), ((7, (-7, 0, 1)), 1)]
RAMIFIED_TINY = [((2, (-2, 0, 1)), 2)]


def ramified_cases(seed, tiny=False):
    rng = random.Random(f"ramified/{seed}")
    cases = []
    for (p, poly), count in (RAMIFIED_TINY if tiny else RAMIFIED_FIELDS):
        R = Ring(poly)
        e = R.d
        M = 12 * e
        for _ in range(count):
            a = _eisenstein_model(rng, R, p, p ** 3, M - 4 * e)
            desc = {"p": p, "field": {"kind": "eisenstein", "poly": list(poly)},
                    "a": [list(ai) for ai in a], "precision": M}
            cases.append(Case(desc, p, e, a_norm=a, e=e))
    return cases


# -- oracle --------------------------------------------------------------------

# unramified (p, n, M) with |O_K/m^M| = p^(nM) <= 2^16, then Eisenstein
# x^2 - p for 6e < p - 1 at M = 3 (order p^3)
ORACLE_UNRAM = [(2, 2, 4), (3, 2, 3), (5, 1, 6), (7, 2, 2)]
ORACLE_EIS = [17, 23, 31]
ORACLE_TINY_UNRAM = [(3, 1, 3)]
ORACLE_TINY_EIS = [17]


def oracle_cases(seed, tiny=False):
    rng = random.Random(f"oracle/{seed}")
    cases = []
    for p, n, M in (ORACLE_TINY_UNRAM if tiny else ORACLE_UNRAM):
        R = Ring(residue_modulus(p, n))
        a = _normalized_model(rng, R, p)
        desc = {"p": p, "field": {"kind": "unramified", "n": n},
                "a": _coeffs(a, n), "precision": PRECISION}
        cases.append(Case(desc, p, n, a_norm=a, level=M))
    for p in (ORACLE_TINY_EIS if tiny else ORACLE_EIS):
        a = _eisenstein_model(rng, Ring((-p, 0, 1)), p, p ** 2, 4)
        desc = {"p": p, "field": {"kind": "eisenstein", "poly": [-p, 0, 1]},
                "a": [list(ai) for ai in a], "precision": 8}
        cases.append(Case(desc, p, 2, a_norm=a, level=3, e=2))
    return cases


# -- cli -----------------------------------------------------------------------

# one `classify` of a Q_5 model and one `oracle -m 3` of a Q_7 model
CLI_RUNS = [("classify", 5), ("oracle", 7)]
CLI_LEVEL = 3


def cli_cases(seed, tiny=False):
    """(argv tail, Case) pairs for sequential subcommand processes."""
    rng = random.Random(f"cli/{seed}")
    out = []
    for command, p in (CLI_RUNS[:1] if tiny else CLI_RUNS):
        R = Ring((0, 1))
        a = _normalized_model(rng, R, p)
        desc = {"p": p, "field": {"kind": "unramified", "n": 1},
                "a": _coeffs(a, 1), "precision": PRECISION}
        if command == "classify":
            out.append((["classify", "-"], Case(desc, p, 1, a_norm=a)))
        else:
            out.append((["oracle", "-", "-m", str(CLI_LEVEL)],
                        Case(desc, p, 1, a_norm=a, level=CLI_LEVEL)))
    return out


def cli_expected_line(argv, case):
    b = torsion_rank(case.p, 1, case.a_norm)
    if argv[0] == "classify":
        return structure_str(case.p, 1, b)
    rank = 1 + b
    return (f"order {case.p ** case.level}, p_rank {rank}, "
            f"kernel {case.p ** rank}: pass")


def check_cli(argv, case, code, stdout):
    """None when the process answered correctly, else the reason."""
    if code != 0:
        return f"exit code {code}"
    line = stdout.strip()
    want = cli_expected_line(argv, case)
    if argv[0] == "classify":
        head, sep, tail = line.partition(", method: ")
        if head != want or not sep or not tail.endswith(", certified"):
            return f"printed {line!r}, want {want!r} and certified"
    elif line != want:
        return f"printed {line!r}, want {want!r}"
    return None


# -- the operations ------------------------------------------------------------

def classify_op(cli, text, precision=None):
    """The path of `e0struct classify`, minus process start and printing.
    Names are looked up on the cli module, as the subcommand does."""
    desc = cli.load_descriptor(text)
    field = cli.build_field(desc, precision)
    E = cli.build_curve(field, desc)
    rt = cli.reduction_type(E)
    if rt.tag != "additive":
        raise ValueError(f"reduction type: {rt.tag} (additive required)")
    return cli.classify_general(E)


def oracle_op(cli, text, level):
    """The path of `e0struct oracle -m level`."""
    desc = cli.load_descriptor(text)
    field = cli.build_field(desc, None)
    E = cli.build_curve(field, desc)
    report = cli.classify_general(E)
    if not report.certified:
        raise ValueError("oracle comparison requires a certified classification")
    if report.transform is not None and not report.transform.is_identity:
        E, _ = cli.normalize_additive(E)
    return report, cli.compare(E, report, level)


def _summary(report):
    s = report.structure
    out = {"free_rank": s.free_rank, "torsion": list(s.torsion),
           "certified": report.certified, "method": report.method}
    if "g_image_coords" in report.evidence:
        out["coords"] = list(report.evidence["g_image_coords"])
        lat = getattr(report, "lattice", None)
        out["lattice"] = (None if lat is None
                          else [[str(x) for x in row] for row in lat])
    return out


def run_case(workload, cli, case):
    """Run one operation; return a JSON-able outcome.  Any exception is an
    outcome too: the benchmark must keep going to count it."""
    try:
        if workload == "oracle":
            report, verdict = oracle_op(cli, case.text, case.level)
            out = _summary(report)
            out["verdict"] = verdict
            return out
        return _summary(classify_op(cli, case.text))
    except Exception as exc:  # counted as a failed operation
        return {"error": type(exc).__name__, "message": str(exc)[:200]}


# warm-up: cases whose classification fills the program's generic caches.
# Unramified paths read the generic [p] table for each p <= 7 (larger p
# take the 6e < p - 1 path, which reads none), so one case per such
# prime, on its smallest field.  Every Eisenstein field here truncates
# the generic logarithm at the same degree, so one ramified curve does.
def warmup_cases(workload, cases):
    if workload == "ramified":
        return cases[:1]
    seen, out = set(), []
    for c in sorted(cases, key=lambda c: c.p ** c.n):
        if c.p <= 7 and c.e == 1 and c.p not in seen and c.fault is None:
            seen.add(c.p)
            out.append(c)
    return out


# -- checks --------------------------------------------------------------------

class Checker:
    """Checks outcomes against answers computed apart from the code under
    test.  Expected values are computed once per case, lazily, and always
    outside the timed region."""

    def __init__(self, workload, cases, cli):
        self.workload, self.cases, self.cli = workload, cases, cli
        self._rank = {}  # by curve, so twins share it

    def expected_torsion_rank(self, c):
        key = (c.p, c.n, c.e, c.a_norm)
        if key not in self._rank:
            if c.e > 1:  # only the 6e < p - 1 oracle models are certified
                b = 0
            else:
                b = torsion_rank(c.p, c.n, c.a_norm)
                if b is None:
                    b = self._oracle_torsion_rank(c)
            self._rank[key] = b
        return self._rank[key]

    def _oracle_torsion_rank(self, c):
        """No closed form for p = 2, n >= 2: count with the brute-force
        oracle on the exact normalized model at full precision."""
        from e0struct.curve import WeierstrassCurve
        from e0struct.local_field import LocalField
        from e0struct.oracle import finite_model
        field = LocalField.unramified(c.p, c.n, PRECISION)
        E = WeierstrassCurve(field, *(field.element(list(ai)) for ai in c.a_norm))
        return finite_model(E, ORACLE_CHECK_LEVEL).p_rank() - c.n

    def problem(self, i, out, outs):
        """None when outcome `out` of case i is right, else the reason.
        `outs` is the whole round, for the twin check."""
        c = self.cases[i]
        if "error" in out:
            if c.fault and out["error"] == "PrecisionExhausted":
                return None
            return f"{out['error']}: {out['message']}"
        if self.workload == "ramified":
            return self._ramified_problem(c, out)
        b = self.expected_torsion_rank(c)
        want = (c.n, [c.p] * b)
        got = (out["free_rank"], out["torsion"])
        if got != want or not out["certified"]:
            return (f"got {got} certified={out['certified']}, "
                    f"want {want} certified")
        if c.twin is not None:
            other = outs[c.twin]
            if "error" in other or (other["free_rank"], other["torsion"]) != got:
                return "structure changed under a change of coordinates"
        if self.workload == "oracle":
            return self._verdict_problem(c, out["verdict"], c.n + b)
        return None

    @staticmethod
    def _verdict_problem(c, v, rank):
        f = c.n // c.e
        if v["order"] != c.p ** (f * c.level):
            return f"order {v['order']} != p^(f*M) = {c.p ** (f * c.level)}"
        if v["p_rank"] != v["predicted_rank"] or v["p_rank"] != rank:
            return (f"p_rank {v['p_rank']}, predicted {v['predicted_rank']}, "
                    f"closed form {rank}")
        if v["kernel_size"] != c.p ** rank or v["verdict"] != "pass":
            return f"kernel {v['kernel_size']}, verdict {v['verdict']}"
        return None

    @staticmethod
    def _ramified_problem(c, out):
        p, e = c.p, c.e
        coords, torsion = out["coords"], out["torsion"]
        if out["certified"] or out["free_rank"] != e:
            return f"free rank {out['free_rank']}, certified {out['certified']}"
        if len(coords) != e or any(not 0 <= x < p for x in coords):
            return f"g-image coordinates {coords} not in F_{p}^{e}"
        # one generator of k = F_p: torsion iff its image vanishes
        if torsion != ([p] if not any(coords) else []):
            return f"torsion {torsion} for g-image {coords}"
        lat = out["lattice"]
        if torsion:
            return None if lat is None else "lattice reported with torsion"
        if lat is None or len(lat) != e:
            return f"lattice {lat} has not {e} rows"
        if any(p % Fraction(x).denominator for row in lat for x in row):
            return f"lattice denominators do not divide {p}: {lat}"
        return None

    def count(self, rounds):
        """(failed, unexpected failures as (case index, reason))."""
        failed, unexpected = 0, []
        for outs in rounds:
            for i, out in enumerate(outs):
                why = self.problem(i, out, outs)
                if why is not None:
                    failed += 1
                    if not self.cases[i].fault:
                        unexpected.append((i, why))
        return failed, unexpected

    def precision_stability(self, first_round):
        """Re-run the first curve of each p = 2 field at precision M + 6
        (the p = 5, 7 curves cost 2 s each); the answer must not change."""
        bad = []
        seen = set()
        for i, c in enumerate(self.cases):
            key = tuple(c.desc["field"]["poly"])
            if c.p != 2 or key in seen or "error" in first_round[i]:
                continue
            seen.add(key)
            hi = classify_op(self.cli, c.text, c.desc["precision"] + 6)
            again = _summary(hi)
            if (again["torsion"], again["coords"]) != (
                    first_round[i]["torsion"], first_round[i]["coords"]):
                bad.append((i, f"precision M+6 gives {again}"))
        return bad
