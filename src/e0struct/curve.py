"""Weierstrass models over O_K: invariants, reduction types, the
normalization of Lemma-3.1 type (all a_i into m_K), the filtration,
and the maps psi / reduction.
The a_i are OElements and point coordinates KElements, or either is
anything LocalField.embed_rational reads: a rational or a coefficient
vector."""

from __future__ import annotations

from .local_field import LocalField, OElement, KElement, PrecisionExhausted
from .residue_field import frobenius_inverse


class NotInE0(ValueError):
    pass


def _embed(field, v):
    if isinstance(v, OElement):
        return v
    return field.embed_integral_rational(v)


def _embed_k(field, v):
    if isinstance(v, KElement):
        return v
    return field.embed_rational(v)


class WeierstrassCurve:
    """Y^2 + a1 XY + a3 Y = X^3 + a2 X^2 + a4 X + a6 over O_K."""

    def __init__(self, field: LocalField, a1, a2, a3, a4, a6):
        self.field = field
        self.a = tuple(_embed(field, v) for v in (a1, a2, a3, a4, a6))
        self._reduction = None  # reduction_type, computed once
        a1, a2, a3, a4, a6 = self.a
        # each shared product once, in the left-associated order of the
        # textbook formulas, so every precision is theirs (x**3 is
        # x * (x * x), as residue_field.power computes it)
        a11, a13 = a1 * a1, a1 * a3
        self.b2 = b2 = a11 + 4 * a2
        self.b4 = b4 = 2 * a4 + a13
        self.b6 = b6 = a3 * a3 + 4 * a6
        self.b8 = b8 = (a11 * a6 + 4 * a2 * a6 - a13 * a4
                        + a2 * a3 * a3 - a4 * a4)
        b22, b44 = b2 * b2, b4 * b4
        self.c4 = c4 = b22 - 24 * b4
        self.c6 = c6 = -b22 * b2 + 36 * b2 * b4 - 216 * b6
        self.disc = (-b22 * b8 - 8 * (b4 * b44)
                     - 27 * b6 * b6 + 9 * b2 * b4 * b6)
        if self.disc.is_zero_at_precision():
            raise PrecisionExhausted("zero-discriminant-at-precision")
        assert 4 * b8 == b2 * b6 - b44
        assert 1728 * self.disc == c4 * (c4 * c4) - c6 * c6

    def __repr__(self):
        return f"WeierstrassCurve({self.field!r}, a={list(self.a)})"

    def is_normalized(self):
        """All a_i in m_K."""
        return all(ai.valuation_or_none() != 0 for ai in self.a)

    def equation_residual(self, P: "CurvePoint"):
        """y^2 + a1 xy + a3 y - (x^3 + a2 x^2 + a4 x + a6) at an affine
        P; zero at precision iff the point is on the curve."""
        a1, a2, a3, a4, a6 = self.a
        x, y = P.x, P.y
        return y * y + a1 * x * y + a3 * y - (((x + a2) * x + a4) * x + a6)

    def point(self, x, y) -> "CurvePoint":
        return CurvePoint(_embed_k(self.field, x), _embed_k(self.field, y))

    def reduced_coeffs(self):
        return tuple(ai.reduce() for ai in self.a)

    def to_json(self):
        f = self.field
        field_json = {"kind": f.kind, "p": f.p}
        if f.kind == "unramified":
            field_json["n"] = f.deg
        else:
            field_json["poly"] = list(f.poly)
        return {"field": field_json,
                "a": [ai.to_json() for ai in self.a],
                "precision": f.M}


class CurvePoint:
    """Affine point (x, y) with K-coordinates, or the point at infinity."""

    __slots__ = ("x", "y", "is_infinity")

    def __init__(self, x=None, y=None):
        self.is_infinity = x is None
        self.x = x
        self.y = y

    def __repr__(self):
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x!r}, {self.y!r})"

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y


INFINITY = CurvePoint()


class ReductionType:
    """Tag in {good, multiplicative, additive}; for additive reduction,
    the cusp: the unique singular point of the special fiber."""

    def __init__(self, tag, singular_point=None):
        self.tag = tag
        self.singular_point = singular_point

    def __repr__(self):
        extra = f", singular={self.singular_point}" if self.singular_point else ""
        return f"ReductionType({self.tag}{extra})"


def reduction_type(E: WeierstrassCurve) -> ReductionType:
    """Classify the special fiber of THIS model (no minimality search),
    once per curve: good for a unit discriminant, multiplicative (a node,
    given by its tag alone) for c4bar != 0, and additive otherwise.

    The cusp is a closed form in the reduced coefficients (Silverman,
    Advanced Topics IV.9; Cremona, Algorithms for Modular Elliptic Curves
    3.2): x0 = sqrt(a4) for p = 2, cbrt(-b6) for p = 3 and -b2/12 for
    p > 3."""
    if E._reduction is None:
        E._reduction = _reduction_type(E)
    return E._reduction


def require_additive(rt: ReductionType) -> ReductionType:
    """rt when it is additive; else the refusal that every command gives
    for a curve whose reduction is not additive."""
    if rt.tag != "additive":
        raise ValueError(f"reduction type: {rt.tag} (additive required)")
    return rt


def require_normalized(E: WeierstrassCurve) -> WeierstrassCurve:
    """E if all its a_i lie in m_K; else the one normalized-model refusal."""
    if not E.is_normalized():
        raise ValueError("model is not normalized (some a_i is a unit); "
                         "normalize_additive moves every a_i into m_K")
    return E


def _reduction_type(E):
    if E.disc.valuation_or_none() == 0:
        return ReductionType("good")
    if E.c4.reduce():
        return ReductionType("multiplicative")
    a1, a2, a3, a4, a6 = E.reduced_coeffs()
    if E.field.p == 2:  # c4bar = a1^4 = 0, so the x-partial is x^2 + a4
        x0 = frobenius_inverse(a4)
        y0 = frobenius_inverse(((x0 + a2) * x0 + a4) * x0 + a6)
    else:
        # reduction is a ring map, so b2 and b6 reduce to those of the a_i
        x0 = (frobenius_inverse(-E.b6.reduce()) if E.field.p == 3
              else -E.b2.reduce() / 12)
        y0 = -(a1 * x0 + a3) / 2
    eq = y0 * y0 + a1 * x0 * y0 + a3 * y0 - (((x0 + a2) * x0 + a4) * x0 + a6)
    dy = 2 * y0 + a1 * x0 + a3
    dx = a1 * y0 - (3 * x0 * x0 + 2 * a2 * x0 + a4)
    assert not (eq or dy or dx), f"({x0}, {y0}) is not a singular point"
    return ReductionType("additive", (x0, y0))


class Transform:
    """Coordinate change X = X' + r, Y = Y' + s X' + t (u = 1), O_K-
    invertible.  forward maps points of the old model to the new one."""

    def __init__(self, field, r, s, t):
        self.field = field
        self.r = _embed(field, r)
        self.s = _embed(field, s)
        self.t = _embed(field, t)

    @property
    def is_identity(self):
        return not (self.r or self.s or self.t)

    def forward(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        x = P.x - self.r
        return CurvePoint(x, P.y - self.s * x - self.t)

    def apply(self, E: WeierstrassCurve) -> WeierstrassCurve:
        a1, a2, a3, a4, a6 = E.a
        r, s, t = self.r, self.s, self.t
        rr = r * r
        return WeierstrassCurve(
            E.field,
            a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r
            - 2 * s * t,
            a6 + r * a4 + rr * a2 + r * rr - t * a3 - t * t - r * t * a1,
        )

    def to_json(self):
        return {"r": self.r.to_json(), "s": self.s.to_json(),
                "t": self.t.to_json()}


def normalize_additive(E: WeierstrassCurve):
    """Move the cusp to the origin and its tangent to Y = 0, producing a
    model with all a_i in m_K.  Returns (new curve, transform).

    X = X' + r, Y = Y' + t with (r, t) the cusp gives a'_1 = a1 and
    a'_2 = a2 + 3r; the tangent's slope s is then the double root of
    z^2 + a'_1 z - a'_2 mod m, and the one change (r, s, t) does both."""
    rt = require_additive(reduction_type(E))
    f = E.field
    x0, y0 = rt.singular_point
    r = f.element(x0.coeffs)
    a1b = E.a[0].reduce()
    a2b = (E.a[1] + 3 * r).reduce()
    z0 = frobenius_inverse(a2b) if f.p == 2 else -a1b / 2
    tr = Transform(f, r, f.element(z0.coeffs), f.element(y0.coeffs))
    E2 = tr.apply(E)
    assert E2.is_normalized()
    return E2, tr


# -- reduction and filtration ----------------------------------------------

def reduce_point(E: WeierstrassCurve, P: CurvePoint):
    """The image on the special fiber as a projective triple over k, plus
    a flag telling whether it avoids the singular locus (P in E_0).  The
    reduction must be good or additive."""
    k = E.field.residue
    if P.is_infinity:
        image = (k.zero, k.one, k.zero)
    else:
        vx = P.x.prec if P.x.is_zero_at_precision() else P.x.valuation()
        vy = P.y.prec if P.y.is_zero_at_precision() else P.y.valuation()
        m = max(0, -min(vx, vy))
        scale = E.field.uniformizer.as_k() ** m
        coords = (P.x * scale, P.y * scale, scale)
        image = tuple(c.integral_part().reduce() for c in coords)
    assert any(image), "projective reduction has no unit coordinate"
    rt = reduction_type(E)
    if rt.tag == "good":
        return image, True
    sx, sy = require_additive(rt).singular_point
    return image, image != (sx, sy, k.one)


def _require_E0(E: WeierstrassCurve, P: CurvePoint):
    if not reduce_point(E, P)[1]:
        raise NotInE0("point reduces to the singular locus")


def filtration_level(E: WeierstrassCurve, P: CurvePoint):
    """Largest i with P in E_i(K); None encodes infinity (P = infinity).
    Both displayed valuation conditions are checked and must agree."""
    if P.is_infinity:
        return None
    _require_E0(E, P)
    vx = P.x.valuation() if not P.x.is_zero_at_precision() else 0
    if vx >= 0:
        return 0
    vy = P.y.valuation()
    if 2 * vy != 3 * vx:
        raise AssertionError(
            f"filtration conditions disagree: v(x) = {vx}, v(y) = {vy}")
    return (-vx) // 2


def psi_E0(E: WeierstrassCurve, P: CurvePoint) -> OElement:
    """Psi: E_0(K) -> Ehat(O_K), (x, y) -> -x/y; infinity -> 0."""
    require_normalized(E)
    if P.is_infinity:
        return E.field.zero()
    _require_E0(E, P)
    val = -(P.x / P.y)
    return val.integral_part()
