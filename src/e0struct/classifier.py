"""Decide the Z_p-module structure of E_0(K) for additive reduction:
the unramified path through the g polynomial, the Q_p congruence
shortcuts, the 6e < p-1 fast path, and the exploratory ramified
computation: the ladder on one point of E(K) gives t([p]P), and a
logarithm truncated by a proven tail bound maps it to m/m^{1+e}."""

from __future__ import annotations

from fractions import Fraction

from .curve import WeierstrassCurve, normalize_additive, require_normalized
from .formal_group import (G_TABLE, a_mod_p2, formal_log, g_polynomial,
                           log_degree, t_of_multiple)
from .local_field import PrecisionExhausted
from .residue_field import additive_poly_roots, ff_norm


class InternalInconsistency(AssertionError):
    """A cross-check that must never fail did fail."""


class GroupStructure:
    """free_rank copies of Z_p plus p-power torsion orders."""

    __slots__ = ("p", "free_rank", "torsion")

    def __init__(self, p, free_rank, torsion=()):
        self.p = p
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    def __eq__(self, other):
        return (isinstance(other, GroupStructure)
                and (self.p, self.free_rank, self.torsion)
                == (other.p, other.free_rank, other.torsion))

    def __repr__(self):
        return f"GroupStructure({self})"

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append(f"Z_{self.p}")
        elif self.free_rank:
            parts.append(f"Z_{self.p}^{self.free_rank}")
        counts = {}
        for q in self.torsion:
            counts[q] = counts.get(q, 0) + 1
        for q, c in sorted(counts.items()):
            s = f"Z/{q}Z"
            parts.append(s if c == 1 else f"({s})^{c}")
        return " x ".join(parts) if parts else "0"

    @property
    def torsion_rank(self):
        return len(self.torsion)

    def to_json(self):
        return {"free_rank": self.free_rank,
                "torsion": list(self.torsion)}


class ClassificationReport:
    def __init__(self, structure, method, evidence, certified,
                 transform=None):
        self.structure = structure
        self.method = method
        self.evidence = evidence
        self.certified = certified
        self.transform = transform
        self.curve = None  # the normalized model, set by classify_general
        self.lattice = None  # set by ramified_g_map when torsion-free

    def __repr__(self):
        tag = "certified" if self.certified else "exploratory"
        return f"ClassificationReport({self.structure}, {self.method}, {tag})"

    def to_json(self):
        out = {"structure": self.structure.to_json(),
               "method": self.method,
               "evidence": self.evidence,
               "certified": self.certified}
        if self.transform is not None and not self.transform.is_identity:
            out["transform"] = self.transform.to_json()
        return out


def classify_unramified(E: WeierstrassCurve) -> ClassificationReport:
    f = E.field
    p, n = f.p, f.deg
    g = g_polynomial(E)  # refuses a ramified field or an unnormalized model
    b, _ = additive_poly_roots(g)
    evidence = {"g": [list(c.coeffs) for c in g.coeffs],
                "kernel_dim": b}
    if p > 2:  # g = T - c*T^p has a nonzero root iff N_{k/F_p}(c) = 1
        c = -g.coeffs[1] if len(g.coeffs) > 1 else f.residue.zero
        norm_is_one = bool(c) and ff_norm(c).as_int() == 1
        evidence["norm_criterion"] = norm_is_one
        if norm_is_one != (b == 1) or b > 1:
            raise InternalInconsistency(
                f"norm criterion ({norm_is_one}) disagrees with kernel "
                f"dimension {b} for p = {p}")
    else:  # p == 2: the kernel is the paper's quartic root count
        if b > 2 or (b == 2 and n < 2):
            raise InternalInconsistency(f"impossible 2-torsion rank {b}")
        evidence["quartic_roots"] = 2 ** b
    return ClassificationReport(
        GroupStructure(p, n, [p] * b), "theorem-unramified", evidence,
        certified=True)


def classify_congruence(E: WeierstrassCurve) -> ClassificationReport:
    f = E.field
    if f.kind != "unramified" or f.deg != 1:
        raise ValueError("classify_congruence requires K = Q_p")
    require_normalized(E)
    p = f.p
    if p not in G_TABLE:
        return ClassificationReport(GroupStructure(p, 1), "corollary-p>7",
                                    {}, certified=True)
    # over F_p, g = T + sum (c*a_j/p)~ * T^e has the root 1 iff
    # sum c*a_j = -p mod p^2.  The entries of one p share c mod p (odd p
    # has one entry, p = 2 has odd c), so that is sum a_j = -p/c mod p^2.
    terms = G_TABLE[p]
    mod, res = p * p, p * (-pow(terms[0][2], -1, p) % p)
    val = sum(a_mod_p2(E, j).coeffs[0] for _, j, _ in terms)
    name = "+".join(f"a{j}" for _, j, _ in terms)
    fired = val % mod == res
    tag = {2: "i", 3: "ii", 5: "iii", 7: "iv"}[p]
    evidence = {"congruence": f"{name} = {val % mod} mod {mod}",
                "fired": fired}
    return ClassificationReport(
        GroupStructure(p, 1, [p] if fired else []),
        f"corollary-{tag}", evidence, certified=True)


def classify_general(E: WeierstrassCurve) -> ClassificationReport:
    f = E.field
    transform = None
    if not E.is_normalized():
        E, transform = normalize_additive(E)
    p, n, e = f.p, f.deg, f.e
    if 6 * e < p - 1:
        report = ClassificationReport(
            GroupStructure(p, n), "6e<p-1",
            {"e": e, "inequality": f"6*{e} < {p} - 1"}, certified=True)
    elif f.kind == "unramified" and n == 1:
        report = classify_congruence(E)
    elif f.kind == "unramified":
        report = classify_unramified(E)
    else:
        report = ramified_g_map(E)
    report.curve, report.transform = E, transform
    return report


def ramified_g_map(E: WeierstrassCurve) -> ClassificationReport:
    """Exploratory classification over a totally ramified K: compute the
    induced map g: k -> m_K/m_K^{1+e}, split off the torsion, and (when
    torsion-free) report the lattice (1/p) * preimage(im g).  certified
    is always False.

    k = F_p has the single generator 1, the class of the point P with
    t(P) = 1, so im(g) is spanned by y = log t([p]P) mod m^{1+e}.
    t([p]P) comes from the ladder on points of E(K) (t_of_multiple) with
    the a_j cut to m^{1+e}: every divisor there is a unit, so no digit
    is lost.  The log is truncated where its tail provably vanishes mod
    m^{1+e} (log_degree)."""
    f = E.field
    if f.kind != "eisenstein":
        raise ValueError("ramified_g_map requires an Eisenstein field")
    require_normalized(E)
    p, e = f.p, f.e
    if not (p - 1 > e or (p == 2 and e <= 2)):
        raise ValueError(
            f"hypothesis-violated: p - 1 = {p - 1} <= e = {e}")
    target = 1 + e
    a = tuple(f.element(aj.coeffs, min(aj.prec, target)) for aj in E.a)
    px = t_of_multiple(a, p, f.one())
    if px.prec < target:
        raise PrecisionExhausted(
            f"t([p]P) known mod m^{px.prec}; m/m^{target} needs {target}")
    px = f.element(px.coeffs, target)
    v = px._vmin()
    if v == 0:
        raise InternalInconsistency("t([p]P) is a unit")
    D = log_degree(p, e, v, target)
    y = formal_log(a, D).evaluate_univar(px.as_k(), f.one().as_k())
    if y.prec < target:
        raise PrecisionExhausted(
            f"g-map value known mod m^{y.prec}; m/m^{target} needs {target}")
    coords = _m_mod_coords(y, f)
    # g(1) spans im(g), and each basis line pi^i Z_p / p pi^i Z_p of
    # m/m^{1+e} is a copy of F_p: the kernel is k or 0 as g(1) is 0 or not
    dim = 0 if any(coords) else 1
    evidence = {"g_image_coords": coords,
                "basis": "pi^1..pi^{e-1}, p",
                "log_value": y.to_json(),
                "kernel_dim": dim}
    report = ClassificationReport(
        GroupStructure(p, f.deg, [p] * dim), "ramified-exploratory",
        evidence, certified=False)
    if dim == 0:
        report.lattice = _ramified_lattice(coords, f)
        evidence["lattice_basis"] = [[str(x) for x in row]
                                     for row in report.lattice]
    return report


def _m_mod_coords(y, field):
    """Coordinates of y in m/m^{1+e} on the basis pi, ..., pi^{e-1}, p,
    each line a copy of F_p."""
    e, p = field.e, field.p
    yi = y.integral_part()
    v = yi.valuation_or_none()
    if v is not None and v < 1:
        raise InternalInconsistency("g-map value is not in m_K")
    coeffs = yi.coeffs
    coords = [coeffs[i] % p for i in range(1, e)]
    coords.append((coeffs[0] // p) % p)
    return coords


def _ramified_lattice(coords, field):
    """Basis of (1/p)*(preimage of im g) as rows of Fractions over the
    O_K-basis 1, pi, ..., pi^{e-1}, in echelon form with entries in
    [0, p) off the diagonal.

    The preimage is p*m + Z_p*y for y = c_e*p + sum c_i*pi^i (i < e), and
    p*m = p^2 Z_p + sum p*pi^i Z_p.  When c_e != 0, y/c_e reduces to the
    row (p, c_i/c_e mod p, ...), which also gives p^2; otherwise, with j
    the first c_j != 0, y/c_j reduces to pi^j + sum_{i>j} (c_i/c_j mod p)
    pi^i and takes the place of p*pi^j."""
    e, p = field.e, field.p
    *c, ce = coords  # c[i - 1] is the coordinate on pi^i
    rows = [[0] * i + [p] + [0] * (e - 1 - i) for i in range(e)]
    rows[0][0] = p * p
    if ce:
        inv = pow(ce, -1, p)
        rows[0] = [p] + [ci * inv % p for ci in c]
    else:
        j = next(i for i, ci in enumerate(c, 1) if ci)
        inv = pow(c[j - 1], -1, p)
        rows[j] = [0] * j + [1] + [ci * inv % p for ci in c[j:]]
    return [[Fraction(v, p) for v in row] for row in rows]
