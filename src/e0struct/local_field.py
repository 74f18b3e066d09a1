"""Truncated-precision exact arithmetic in finite extensions of Q_p.

Supports unramified extensions and totally ramified (Eisenstein)
extensions.  Elements of the valuation ring are stored as polynomial
representatives in the defining generator with an explicit known
precision, measured in powers of the maximal ideal so both kinds share
one contract.  Precision propagation is never optimistic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .residue_field import FiniteField, FFElement, is_prime

INFINITY = math.inf


class PrecisionExhausted(ArithmeticError):
    """An element is indistinguishable from zero at its known precision."""


class NotInvertible(ArithmeticError):
    pass


def _vp(c: int, p: int) -> float:
    if c == 0:
        return INFINITY
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class LocalField:
    """A finite extension K/Q_p, either unramified or Eisenstein.

    M is the default working precision: elements are known modulo m_K^M
    unless stated otherwise.
    """

    def __init__(self, p, kind, M=None, n=None, eisenstein_poly=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.kind = kind
        if kind == "unramified":
            if n is None or n < 1:
                raise ValueError("unramified field needs a degree n >= 1")
            self.e = 1
            self.f = n
            self.residue = FiniteField(p, n)
            # defining polynomial: the residue modulus lifted with
            # coefficients in [0, p)
            self.poly = tuple(int(c) for c in self.residue.modulus)
        elif kind == "eisenstein":
            h = tuple(int(c) for c in eisenstein_poly)
            e = len(h) - 1
            if e < 1 or h[-1] != 1:
                raise ValueError("Eisenstein polynomial must be monic")
            if any(c % p for c in h[:-1]) or (h[0] // p) % p == 0:
                raise ValueError(
                    "not Eisenstein: need p | all lower coefficients and v_p(h(0)) = 1")
            self.e = e
            self.f = 1
            self.residue = FiniteField(p, 1)
            self.poly = h
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.n = self.e * self.f
        self.deg = len(self.poly) - 1
        self._moduli = {}
        self.M = M if M is not None else 12 * self.e
        if self.M < 1:
            raise ValueError("working precision must be >= 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def unramified(cls, p, n=1, M=None):
        return cls(p, "unramified", M=M, n=n)

    @classmethod
    def eisenstein(cls, p, poly, M=None):
        return cls(p, "eisenstein", M=M, eisenstein_poly=poly)

    # -- basic data ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LocalField)
                and (self.p, self.kind, self.poly, self.M)
                == (other.p, other.kind, other.poly, other.M))

    def __hash__(self):
        return hash((self.p, self.kind, self.poly, self.M))

    def __repr__(self):
        if self.kind == "unramified":
            return f"LocalField(Q_{self.p}, unramified deg {self.n}, M={self.M})"
        return f"LocalField(Q_{self.p}, eisenstein {list(self.poly)}, M={self.M})"

    def int_prec(self, prec) -> int:
        """Integer (p-adic) precision needed to hold elements mod m_K^prec."""
        return -(-prec // self.e)

    def coeff_modulus(self, i, prec):
        """Modulus for coefficient i of an element known mod m_K^prec."""
        return self.coeff_moduli(prec)[i]

    def coeff_moduli(self, prec):
        """The coefficient moduli of an element known mod m_K^prec,
        computed once per prec.

        Unramified basis powers are units, so every coefficient carries the
        full integer precision; Eisenstein basis powers are uniformizer
        powers, so coefficient i is only determined mod p^ceil((prec-i)/e).
        """
        mods = self._moduli.get(prec)
        if mods is None:
            shifts = (range(self.deg) if self.kind == "eisenstein"
                      else [0] * self.deg)
            mods = self._moduli[prec] = tuple(
                self.p ** max(0, -(-(prec - i) // self.e)) for i in shifts)
        return mods

    def p_unit(self, prec):
        """The unit u = p / pi^e of an Eisenstein field, known mod
        m_K^prec: the Eisenstein relation pi^e = -(h_0 + h_1 pi + ... +
        h_{e-1} pi^{e-1}) makes 1/u = -(h_0 + h_1 pi + ...)/p."""
        return self.element([-(c // self.p) for c in self.poly[:-1]],
                            prec=prec).invert()

    @property
    def uniformizer(self) -> "OElement":
        if self.kind == "unramified":
            return self.element([self.p])
        return self.element([0, 1])

    def zero(self, prec=None):
        return self.element([0], prec=prec)

    def one(self, prec=None):
        return self.element([1], prec=prec)

    # -- element construction ----------------------------------------------

    def element(self, coeffs, prec=None) -> "OElement":
        if isinstance(coeffs, OElement):
            if coeffs.field != self:
                raise ValueError("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        coeffs = list(coeffs)
        if len(coeffs) > self.deg:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.deg - len(coeffs))
        return OElement(self, coeffs, self.M if prec is None else prec)

    def embed_rational(self, q, prec=None) -> "KElement":
        """Canonical image of a rational number in K."""
        q = Fraction(q)
        if q == 0:
            return KElement.zero(self, self.M if prec is None else prec)
        prec = self.M if prec is None else prec
        num, den = q.numerator, q.denominator
        vn, vd = _vp(num, self.p), _vp(den, self.p)
        shift = self.e * (vn - vd)
        num //= self.p ** vn
        den //= self.p ** vd
        # prec is absolute: the result is known modulo m_K^prec
        unit_prec = max(1, prec - shift)
        mod = self.p ** self.int_prec(unit_prec + self.e)
        unit = self.element([(num * pow(den, -1, mod)) % mod], prec=unit_prec)
        # p^k = pi^(e*k) * u^k with u = p / pi^e
        if vn != vd and self.kind == "eisenstein":
            u = self.p_unit(unit_prec)
            unit = unit * (u ** (vn - vd) if vn > vd else u.invert() ** (vd - vn))
        return KElement(unit, shift)

    def embed_integral_rational(self, q, prec=None) -> "OElement":
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ValueError(f"{q} is not integral at p={self.p}")
        return self.embed_rational(q, prec=prec).integral_part()

    # -- reduction of polynomial representatives ---------------------------

    def _reduce_poly(self, coeffs):
        """Reduce an integer coefficient list modulo the defining polynomial."""
        coeffs = list(coeffs)
        d = self.deg
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(d + 1):
                    coeffs[i - d + j] -= c * self.poly[j]
                coeffs[i] = 0
        return coeffs[:d] + [0] * max(0, d - len(coeffs))


class OElement:
    """Element of O_K known modulo m_K^prec.

    coeffs is a length-[K:Q_p-generator-degree] integer vector in the
    power basis of the defining generator, canonically reduced.
    """

    __slots__ = ("field", "coeffs", "prec")

    def __init__(self, field: LocalField, coeffs, prec):
        if prec < 0:
            prec = 0
        self.field = field
        self.prec = prec
        self.coeffs = tuple(
            c % m for c, m in zip(coeffs, field.coeff_moduli(prec)))

    # -- inspection ---------------------------------------------------------

    def __repr__(self):
        return f"O{list(self.coeffs)}+O(m^{self.prec})"

    def __bool__(self):
        return any(self.coeffs)

    def is_zero_at_precision(self):
        return not any(self.coeffs)

    def valuation_or_none(self):
        """v_K of the element, or None when it vanishes at known precision."""
        f = self.field
        best = INFINITY
        for i, c in enumerate(self.coeffs):
            if c:
                # unramified basis powers are units; Eisenstein ones carry
                # valuation i
                off = i if f.kind == "eisenstein" else 0
                best = min(best, f.e * _vp(c, f.p) + off)
        if best >= self.prec:
            return None
        return best

    def valuation(self) -> int:
        v = self.valuation_or_none()
        if v is None:
            raise PrecisionExhausted(
                f"element is 0 mod m^{self.prec}; valuation unknown")
        return v

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.embed_integral_rational(other, prec=self.prec)
        if isinstance(other, KElement):
            return other.__eq__(self)
        if not isinstance(other, OElement) or other.field != self.field:
            return NotImplemented
        prec = min(self.prec, other.prec)
        f = self.field
        return all((a - b) % m == 0 for a, b, m in zip(
            self.coeffs, other.coeffs, f.coeff_moduli(prec)))

    def __hash__(self):
        raise TypeError("OElement compares at shared precision; not hashable")

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, OElement):
            return other if other.field is self.field or other.field == self.field else None
        if isinstance(other, int):
            return self.field.element([other], prec=max(self.prec, self.field.M))
        if isinstance(other, Fraction):
            return self.field.embed_integral_rational(other, prec=max(self.prec, self.field.M))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OElement(self.field,
                        [a + b for a, b in zip(self.coeffs, o.coeffs)],
                        min(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        return OElement(self.field, [-a for a in self.coeffs], self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        prod = [0] * (2 * f.deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    prod[i + j] += a * b
        coeffs = f._reduce_poly(prod)
        va = self.valuation_or_none()
        va = self.prec if va is None else va
        vb = o.valuation_or_none()
        vb = o.prec if vb is None else vb
        prec = min(self.prec + vb, o.prec + va)
        return OElement(f, coeffs, prec)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("use invert/KElement for negative powers")
        result = self.field.one(prec=self.prec + self.field.e * 2)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- reduction, units, division ----------------------------------------

    def reduce(self) -> FFElement:
        """Image in the residue field k; kernel of this map is m_K."""
        if self.prec < 1:
            raise PrecisionExhausted("no digits known; cannot reduce")
        f = self.field
        if f.kind == "unramified":
            return f.residue.element([c % f.p for c in self.coeffs])
        return f.residue.element(self.coeffs[0] % f.p)

    def is_unit(self):
        return bool(self.reduce())

    def invert(self) -> "OElement":
        """Inverse of a unit, by Hensel/Newton iteration from the residue
        field inverse."""
        f = self.field
        if self.is_zero_at_precision():
            raise NotInvertible(f"0 mod m^{self.prec} is not invertible")
        if not self.is_unit():
            raise NotInvertible("non-unit of O_K; invert via KElement")
        r = self.reduce().inverse()
        if f.kind == "unramified":
            z = f.element(list(r.coeffs), prec=self.prec)
        else:
            z = f.element([r.as_int()], prec=self.prec)
        # quadratic convergence: precision doubles each step
        steps = max(1, math.ceil(math.log2(max(2, self.prec))) + 1)
        two = f.element([2], prec=self.prec)
        for _ in range(steps):
            z = z * (two - self * z)
        return OElement(f, z.coeffs, self.prec)

    def shift_down(self, k: int) -> "OElement":
        """Exact division by the k-th power of the uniformizer.

        Requires v_K(self) >= k (or apparent zero); precision drops by k.
        """
        f = self.field
        if k == 0:
            return self
        v = self.valuation_or_none()
        if v is not None and v < k:
            raise ValueError(f"valuation {v} < {k}; not divisible")
        if f.kind == "unramified":
            q = f.p ** k
            return OElement(f, [c // q for c in self.coeffs], self.prec - k)
        out = self
        # peel one power of pi at a time: x/pi = x * pi^(e-1) / pi^e, and
        # pi^e = p / u with u = p_unit from the Eisenstein relation
        u = f.p_unit(max(1, self.prec))
        for _ in range(k):
            # multiply by pi^(e-1): shift up, then reduce mod poly
            red = f._reduce_poly([0] * (f.e - 1) + list(out.coeffs))
            tmp = OElement(f, red, out.prec + f.e - 1) * u
            if any(c % f.p for c in tmp.coeffs):
                # only possible through precision loss; treat as inexact zero digits
                raise PrecisionExhausted("division by uniformizer lost all digits")
            out = OElement(f, [c // f.p for c in tmp.coeffs], tmp.prec - f.e)
        return out

    def shift_up(self, k: int) -> "OElement":
        """Multiplication by the k-th power of the uniformizer."""
        f = self.field
        if k == 0:
            return self
        if f.kind == "unramified":
            q = f.p ** k
            return OElement(f, [c * q for c in self.coeffs], self.prec + k)
        out = self.coeffs
        for _ in range(k):
            out = f._reduce_poly([0] + list(out))
        return OElement(f, out, self.prec + k)

    def as_k(self) -> "KElement":
        v = self.valuation_or_none()
        if v is None:
            return KElement.zero(self.field, self.prec)
        return KElement(self.shift_down(v), v)

    def to_json(self):
        return {"shift": 0, "coeffs": list(self.coeffs), "prec": self.prec}


class KElement:
    """Element of K in normalized form pi^shift * unit_part.

    unit_part is an OElement of valuation 0; an apparent zero is carried
    as an explicit marker with the precision at which it vanished.
    """

    __slots__ = ("unit_part", "shift", "_zero_prec", "_field")

    def __init__(self, unit_part, shift, _zero_prec=None):
        self.unit_part = unit_part
        self.shift = shift
        self._zero_prec = _zero_prec
        self._field = None
        if unit_part is not None and not unit_part.is_unit():
            raise ValueError("unit_part must have valuation 0")

    @classmethod
    def zero(cls, field, prec):
        z = cls.__new__(cls)
        z.unit_part = None
        z.shift = None
        z._zero_prec = prec
        z._field = field
        return z

    @property
    def field(self):
        if self.unit_part is not None:
            return self.unit_part.field
        return self._field

    def is_zero_at_precision(self):
        return self.unit_part is None

    def valuation(self):
        if self.unit_part is None:
            raise PrecisionExhausted(
                f"element is 0 mod m^{self._zero_prec}; valuation unknown")
        return self.shift

    @property
    def prec(self):
        """Absolute precision: the element is known modulo m_K^prec."""
        if self.unit_part is None:
            return self._zero_prec
        return self.shift + self.unit_part.prec

    def __repr__(self):
        if self.unit_part is None:
            return f"K(0+O(m^{self._zero_prec}))"
        return f"K(pi^{self.shift}*{list(self.unit_part.coeffs)}+O(m^{self.prec}))"

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.embed_rational(Fraction(other), prec=self.field.M)
        if isinstance(other, OElement):
            return other.as_k()
        if isinstance(other, KElement) and other.field == self.field:
            return other
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self - o
        return d.is_zero_at_precision()

    def __hash__(self):
        raise TypeError("KElement compares at shared precision; not hashable")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.unit_part is None:
            if o.unit_part is None:
                return KElement.zero(self.field, min(self.prec, o.prec))
            if o.shift >= self.prec:
                return KElement.zero(self.field, self.prec)
            return KElement(OElement(o.unit_part.field, o.unit_part.coeffs,
                                     min(o.unit_part.prec, self.prec - o.shift)),
                            o.shift)
        if o.unit_part is None:
            return o + self
        t = min(self.shift, o.shift)
        a = self.unit_part.shift_up(self.shift - t)
        b = o.unit_part.shift_up(o.shift - t)
        s = a + b
        v = s.valuation_or_none()
        if v is None:
            return KElement.zero(self.field, t + s.prec)
        return KElement(s.shift_down(v), t + v)

    __radd__ = __add__

    def __neg__(self):
        if self.unit_part is None:
            return self
        return KElement(-self.unit_part, self.shift)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.unit_part is None or o.unit_part is None:
            zp = min(a.prec for a in (self, o) if a.unit_part is None)
            other_v = [a.shift for a in (self, o) if a.unit_part is not None]
            return KElement.zero(self.field, zp + (other_v[0] if other_v else 0))
        return KElement(self.unit_part * o.unit_part, self.shift + o.shift)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        result = self.field.one().as_k()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def invert(self) -> "KElement":
        if self.unit_part is None:
            raise NotInvertible(f"0 mod m^{self._zero_prec} is not invertible")
        return KElement(self.unit_part.invert(), -self.shift)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def integral_part(self) -> OElement:
        """The element as an OElement; requires valuation >= 0."""
        if self.unit_part is None:
            return OElement(self.field, [0] * self.field.deg, self._zero_prec)
        if self.shift < 0:
            raise ValueError(f"valuation {self.shift} < 0; not integral")
        return self.unit_part.shift_up(self.shift)

    def reduce(self) -> FFElement:
        return self.integral_part().reduce()

    def to_json(self):
        if self.unit_part is None:
            return {"shift": None, "coeffs": [0] * self.field.deg,
                    "prec": self._zero_prec}
        return {"shift": self.shift, "coeffs": list(self.unit_part.coeffs),
                "prec": self.prec}


def valuation(x):
    return x.valuation()
