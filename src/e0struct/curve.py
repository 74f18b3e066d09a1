"""Weierstrass models over O_K: invariants, reduction types, the
normalization of Lemma-3.1 type (all a_i into m_K), the chord-tangent
group law over K, the filtration, and the maps psi / reduction.
The a_i (integral) and point coordinates are elements or anything
LocalField.embed_rational reads: a rational or a coefficient vector."""

from __future__ import annotations

from .local_field import LocalField, OElement, KElement, PrecisionExhausted
from .residue_field import ff_trace, frobenius_inverse


class NotInE0(ValueError):
    pass


def _embed(field, v):
    if isinstance(v, OElement):
        return v
    if isinstance(v, KElement):
        return v.integral_part()
    return field.embed_integral_rational(v)


def _embed_k(field, v):
    if isinstance(v, KElement):
        return v
    if isinstance(v, OElement):
        return v.as_k()
    return field.embed_rational(v)


class WeierstrassCurve:
    """Y^2 + a1 XY + a3 Y = X^3 + a2 X^2 + a4 X + a6 over O_K."""

    def __init__(self, field: LocalField, a1, a2, a3, a4, a6):
        self.field = field
        self.a = tuple(_embed(field, v) for v in (a1, a2, a3, a4, a6))
        a1, a2, a3, a4, a6 = self.a
        self.b2 = a1 * a1 + 4 * a2
        self.b4 = 2 * a4 + a1 * a3
        self.b6 = a3 * a3 + 4 * a6
        self.b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4
                   + a2 * a3 * a3 - a4 * a4)
        self.c4 = self.b2 * self.b2 - 24 * self.b4
        self.c6 = (-self.b2 * self.b2 * self.b2 + 36 * self.b2 * self.b4
                   - 216 * self.b6)
        self.disc = (-self.b2 * self.b2 * self.b8 - 8 * self.b4 ** 3
                     - 27 * self.b6 * self.b6 + 9 * self.b2 * self.b4 * self.b6)
        if self.disc.is_zero_at_precision():
            raise PrecisionExhausted("zero-discriminant-at-precision")
        assert 4 * self.b8 == self.b2 * self.b6 - self.b4 * self.b4
        assert 1728 * self.disc == self.c4 ** 3 - self.c6 * self.c6

    @property
    def a1(self):
        return self.a[0]

    @property
    def a2(self):
        return self.a[1]

    @property
    def a3(self):
        return self.a[2]

    @property
    def a4(self):
        return self.a[3]

    @property
    def a6(self):
        return self.a[4]

    def __repr__(self):
        return f"WeierstrassCurve({self.field!r}, a={list(self.a)})"

    def is_normalized(self):
        """All a_i in m_K."""
        return all(ai.valuation_or_none() != 0 for ai in self.a)

    def rhs(self, x):
        a1, a2, a3, a4, a6 = self.a
        return ((x + a2) * x + a4) * x + a6

    def equation_residual(self, P: "CurvePoint"):
        """y^2 + a1 xy + a3 y - (x^3 + a2 x^2 + a4 x + a6); zero at
        precision iff the point is on the curve."""
        if P.is_infinity:
            return self.field.zero().as_k()
        a1, a2, a3, a4, a6 = self.a
        x, y = P.x, P.y
        lhs = y * y + a1 * x * y + a3 * y
        return lhs - self.rhs(x)

    def contains(self, P: "CurvePoint") -> bool:
        return P.is_infinity or self.equation_residual(P).is_zero_at_precision()

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

    @classmethod
    def infinity(cls):
        return cls()

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

    def to_json(self):
        if self.is_infinity:
            return "infinity"
        return {"x": self.x.to_json(), "y": self.y.to_json()}


INFINITY = CurvePoint.infinity()


class ReductionType:
    """Tag in {good, multiplicative, additive}; for bad reduction, the
    unique singular point of the special fiber and (for nodes) whether
    the tangents are rational."""

    def __init__(self, tag, singular_point=None, split=None):
        self.tag = tag
        self.singular_point = singular_point
        self.split = split

    def __repr__(self):
        extra = f", singular={self.singular_point}" if self.singular_point else ""
        return f"ReductionType({self.tag}{extra})"


def reduction_type(E: WeierstrassCurve) -> ReductionType:
    """Classify the special fiber of THIS model (no minimality search).

    The singular point and its tangent directions are closed forms in the
    reduced coefficients (Silverman, Advanced Topics IV.9; Cremona,
    Algorithms for Modular Elliptic Curves 3.2): the fiber is nodal iff
    c4bar != 0, and at (x0, y0) the tangent directions are the roots of
    z^2 + a1 z - (a2 + 3 x0), of discriminant b2 + 12 x0 for odd p."""
    vd = E.disc.valuation_or_none()
    if vd == 0:
        return ReductionType("good")
    k = E.field.residue
    p = k.p
    a1, a2, a3, a4, a6 = E.reduced_coeffs()
    # reduction is a ring map, so these are the invariants of the reduced a_i
    b2, b4, b6, c4, c6 = (v.reduce() for v in (E.b2, E.b4, E.b6, E.c4, E.c6))
    node = bool(c4)
    if p == 2:
        if node:
            x0 = a3 / a1
            y0 = (x0 * x0 + a4) / a1
        else:
            x0 = frobenius_inverse(a4)
            y0 = frobenius_inverse(((x0 + a2) * x0 + a4) * x0 + a6)
    else:
        if p == 3:
            x0 = -b4 / b2 if node else frobenius_inverse(-b6)
        elif node:
            x0 = -(c6 / c4 + b2) / 12
        else:
            x0 = -b2 / 12
        y0 = -(a1 * x0 + a3) / 2
    eq = y0 * y0 + a1 * x0 * y0 + a3 * y0 - (((x0 + a2) * x0 + a4) * x0 + a6)
    dy = 2 * y0 + a1 * x0 + a3
    dx = a1 * y0 - (3 * x0 * x0 + 2 * a2 * x0 + a4)
    assert not (eq or dy or dx), f"({x0}, {y0}) is not a singular point"
    if not node:
        return ReductionType("additive", (x0, y0))
    if p == 2:  # z = a1 w turns the tangent cone into w^2 + w = (a2 + x0)/a1^2
        split = not ff_trace((a2 + x0) / (a1 * a1))
    else:
        split = (b2 + 12 * x0) ** ((k.order - 1) // 2) == k.one
    return ReductionType("multiplicative", (x0, y0), split=split)


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
        return WeierstrassCurve(
            E.field,
            a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r
            - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
        )

    def to_json(self):
        return {"r": self.r.to_json(), "s": self.s.to_json(),
                "t": self.t.to_json()}


def normalize_additive(E: WeierstrassCurve):
    """Move the cusp to the origin and its tangent to Y = 0, producing a
    model with all a_i in m_K.  Returns (new curve, transform)."""
    rt = reduction_type(E)
    if rt.tag != "additive":
        raise ValueError(f"reduction type: {rt.tag}; additive required")
    x0, y0 = rt.singular_point
    r = E.field.element(x0.coeffs)
    t = E.field.element(y0.coeffs)
    tr1 = Transform(E.field, r, 0, t)
    E1 = tr1.apply(E)
    # tangent direction: the double root of z^2 + a1bar z - a2bar
    a1b = E1.a1.reduce()
    a2b = E1.a2.reduce()
    z0 = frobenius_inverse(a2b) if E.field.p == 2 else -a1b / 2
    if not z0:
        E2, tr = E1, tr1
    else:
        tr2 = Transform(E.field, 0, E.field.element(z0.coeffs), 0)
        E2 = tr2.apply(E1)
        tr = Transform(E.field, tr1.r, tr2.s, tr1.t)
    assert E2.is_normalized()
    return E2, tr


# -- group law over K -------------------------------------------------------

def point_neg(E: WeierstrassCurve, P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y - E.a1 * P.x - E.a3)


def point_add(E: WeierstrassCurve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a1, a2, a3, a4, a6 = E.a
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        num = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1
        den = 2 * y1 + a1 * x1 + a3
        lam = num / den
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def point_mul(E: WeierstrassCurve, m: int, P: CurvePoint) -> CurvePoint:
    if m < 0:
        return point_mul(E, -m, point_neg(E, P))
    result = INFINITY
    base = P
    while m:
        if m & 1:
            result = point_add(E, result, base)
        m >>= 1
        if m:
            base = point_add(E, base, base)
    return result


# -- reduction and filtration ----------------------------------------------

def reduce_point(E: WeierstrassCurve, P: CurvePoint):
    """The image on the special fiber as a projective triple over k, plus
    a flag telling whether it avoids the singular locus (P in E_0)."""
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
    sx, sy = rt.singular_point
    smooth = image != (sx, sy, k.one)
    return image, smooth


def filtration_level(E: WeierstrassCurve, P: CurvePoint):
    """Largest i with P in E_i(K); None encodes infinity (P = infinity).
    Both displayed valuation conditions are checked and must agree."""
    if P.is_infinity:
        return None
    _, smooth = reduce_point(E, P)
    if not smooth:
        raise NotInE0("point reduces to the singular locus")
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
    if not E.is_normalized():
        raise ValueError("psi requires a normalized model (a_i in m_K)")
    if P.is_infinity:
        return E.field.zero()
    _, smooth = reduce_point(E, P)
    if not smooth:
        raise NotInE0("point reduces to the singular locus")
    val = -(P.x / P.y)
    return val.integral_part()
