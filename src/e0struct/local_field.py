"""Truncated-precision exact arithmetic in finite extensions of Q_p.

Supports unramified and totally ramified (Eisenstein) extensions, both
presented as O_K = Z_p[X]/(h).  Elements of the valuation ring are stored
as polynomial representatives in X with an explicit known precision,
measured in powers of the maximal ideal so both kinds share one contract.
An element of K is x / pi^s for such an x and an integer s >= 0, so K
has the same precision rule.  Precision propagation is never optimistic.

The kinds differ in three facts, set once in LocalField.__init__: the
valuation of each basis vector X^i (0 unramified, i Eisenstein), the
uniformizer pi (p, or X), and 1/pi = B/d with B exact and d an integer
of valuation e (1/p, or -(h_1 + ... + X^{e-1})/h_0), so that the unit
u = p/pi^e = p B^e/d^e is exact too.  Element operations read these
through the exact vectors pi^k and (d/pi)^k (pi_power).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .residue_field import FiniteField, FFElement, is_prime, power

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


def product_prec(pa, va, pb, vb):
    """Known precision of a*b, for a known mod m_K^pa with v_K(a) = va
    and b likewise: a*b is known mod m_K^min(pa + vb, pb + va).  An
    apparent zero enters with its precision as its valuation."""
    return min(pa + vb, pb + va)


def _add_product(acc, xs, ys):
    """acc += xs * ys, as polynomials in the generator (no reduction)."""
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                acc[i + j] += x * y


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
            self.basis_valuations = (0,) * n
            pi, d_over_pi, d = (p,), (1,), p
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
            self.basis_valuations = tuple(range(e))
            pi, d_over_pi, d = (0, 1), tuple(-c for c in h[1:]), h[0]
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.deg = len(self.poly) - 1
        self._pi_powers = [tuple(self._reduce_poly(c)) for c in ((1,), pi)]
        self._pi_inverse_powers = [self._pi_powers[0],
                                   tuple(self._reduce_poly(d_over_pi))]
        self._d_unit = d // p
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

    def __repr__(self):
        if self.kind == "unramified":
            return f"LocalField(Q_{self.p}, unramified deg {self.deg}, M={self.M})"
        return f"LocalField(Q_{self.p}, eisenstein {list(self.poly)}, M={self.M})"

    def int_prec(self, prec) -> int:
        """Integer (p-adic) precision needed to hold elements mod m_K^prec."""
        return -(-prec // self.e)

    def coeff_moduli(self, prec):
        """The coefficient moduli of an element known mod m_K^prec,
        computed once per prec: coefficient i, on a basis vector of
        valuation v_i, is only determined mod p^ceil((prec - v_i)/e)."""
        mods = self._moduli.get(prec)
        if mods is None:
            mods = self._moduli[prec] = tuple(
                self.p ** max(0, -(-(prec - v) // self.e))
                for v in self.basis_valuations)
        return mods

    def pi_power(self, k):
        """pi^k as an exact integer vector in the power basis, memoized;
        for k < 0, the vector of (d/pi)^-k = d^-k pi^k."""
        powers = self._pi_powers if k >= 0 else self._pi_inverse_powers
        while len(powers) <= abs(k):
            powers.append(tuple(self._times(powers[-1], powers[1])))
        return powers[abs(k)]

    @property
    def uniformizer(self) -> "OElement":
        return self.element(self.pi_power(1))

    def zero(self, prec=None):
        return self.element([0], prec=prec)

    def one(self, prec=None):
        return self.element([1], prec=prec)

    # -- element construction ----------------------------------------------

    def element(self, coeffs, prec=None) -> "OElement":
        coeffs = list(coeffs)
        if len(coeffs) > self.deg:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.deg - len(coeffs))
        return OElement(self, coeffs, self.M if prec is None else prec)

    def embed_rational(self, q, prec=None) -> "KElement":
        """The exact value in K of a rational q (an int, a Fraction or an
        "n/d" string) or of a vector [c_0, c_1, ...] of them, which means
        sum c_i X^i mod h.  The one precision rule: a nonzero value of
        valuation v is known mod m_K^max(prec, v + 1), and zero mod
        m_K^prec; prec defaults to M."""
        prec = self.M if prec is None else prec
        cs = [Fraction(c) if isinstance(c, str) else c
              for c in (q if isinstance(q, list) else (q,))]
        den = math.lcm(*(c.denominator for c in cs))
        y = self._reduce_poly([c.numerator * (den // c.denominator)
                               for c in cs])
        v = min((self.e * _vp(c, self.p) + b
                 for c, b in zip(y, self.basis_valuations) if c), default=None)
        if v is None:
            return KElement(self.zero(prec))
        # q = y / (p^k d') with p ∤ d' is x / pi^s for s = max(0, -v) and
        # x = (y pi^s / p^k) / d': the X^i are a Z_p-basis of O_K, so
        # v_K(y pi^s) >= e k makes each coefficient divisible by p^k
        k = _vp(den, self.p)
        v -= self.e * k
        s = max(0, -v)
        if s:
            y = self._times(y, self.pi_power(s))
        x_prec = max(prec, v + 1) + s
        pk = self.p ** k
        w = pow(den // pk, -1, self.coeff_moduli(x_prec)[0])
        return KElement(OElement(self, [c // pk * w for c in y], x_prec), s)

    def embed_integral_rational(self, q, prec=None) -> "OElement":
        """embed_rational(q, prec) in O_K; a value outside O_K is refused
        with the first rational that is not p-integral."""
        z = self.embed_rational(q, prec)
        if z.s:
            if not isinstance(q, list):
                raise ValueError(f"{Fraction(q)} is not integral at p={self.p}")
            c = next(c for c in map(Fraction, q) if c.denominator % self.p == 0)
            raise ValueError(f"coefficient {c} in vector is not p-integral")
        return z.x

    # -- sums of products ---------------------------------------------------

    def dot(self, pairs):
        """sum(a * b for a, b in pairs), for OElements and ints, as one
        OElement: the raw integer products are added up and reduced
        modulo the defining polynomial once, and the precision is the
        least product_prec over the pairs, as a fold of OElement products
        would give when no partial sum cancels.  An int product has
        OElement * int's precision (int_product_prec); a sum of int
        products alone stays an int."""
        acc = [0] * (2 * self.deg - 1)
        prec = None
        exact = 0
        for a, b in pairs:
            if type(a) is int:
                if type(b) is int:
                    exact += a * b
                    continue
                a, b = b, a
            if type(b) is int:
                q = self.int_product_prec(a, b)
                for i, x in enumerate(a.coeffs):
                    acc[i] += b * x
            else:
                q = product_prec(a.prec, a._vmin(), b.prec, b._vmin())
                _add_product(acc, a.coeffs, b.coeffs)
            if prec is None or q < prec:
                prec = q
        if prec is None:
            return exact
        acc[0] += exact
        return OElement(self, self._reduce_poly(acc), prec)

    def int_product_prec(self, x, k):
        """Known precision of x * k for an OElement x and an int k: k is
        known mod m_K^max(x.prec, M), with valuation min(e*v_p(k), that)."""
        pk = max(x.prec, self.M)
        return product_prec(x.prec, x._vmin(),
                            pk, min(self.e * _vp(k, self.p), pk))

    # -- reduction of polynomial representatives ---------------------------

    def _times(self, xs, ys):
        """xs * ys reduced modulo the defining polynomial, exactly."""
        acc = [0] * (2 * self.deg - 1)
        _add_product(acc, xs, ys)
        return self._reduce_poly(acc)

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

    __slots__ = ("field", "coeffs", "prec", "_v")

    def __init__(self, field: LocalField, coeffs, prec):
        if prec < 0:
            prec = 0
        self.field = field
        self.prec = prec
        self.coeffs = tuple(
            [c % m for c, m in zip(coeffs, field.coeff_moduli(prec))])
        self._v = -1  # min(valuation, prec), filled in by _vmin

    # -- inspection ---------------------------------------------------------

    def __repr__(self):
        return f"O{list(self.coeffs)}+O(m^{self.prec})"

    def __bool__(self):
        return any(self.coeffs)

    def is_zero_at_precision(self):
        return not any(self.coeffs)

    def _vmin(self):
        """min(v_K, prec): the valuation, or prec for an apparent zero.
        An OElement never changes, so this is computed once."""
        v = self._v
        if v < 0:
            f = self.field
            v = self.prec
            for c, vb in zip(self.coeffs, f.basis_valuations):
                if c:
                    v = min(v, f.e * _vp(c, f.p) + vb)
            self._v = v
        return v

    def valuation_or_none(self):
        """v_K of the element, or None when it vanishes at known precision."""
        v = self._vmin()
        return None if v >= self.prec else v

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

    # -- ring operations ----------------------------------------------------

    # An int operand never becomes an OElement: it is known mod
    # m_K^max(prec, M), so a sum or difference keeps self.prec, and a
    # product has LocalField.int_product_prec.

    def _coerce(self, other):
        if isinstance(other, OElement):
            return other if other.field is self.field or other.field == self.field else None
        return None

    def _plus_int(self, coeffs, k):
        c = list(coeffs)
        c[0] += k
        return OElement(self.field, c, self.prec)

    def __add__(self, other):
        if isinstance(other, int):
            return self._plus_int(self.coeffs, other)
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
        if isinstance(other, int):
            return self._plus_int(self.coeffs, -other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OElement(self.field,
                        [a - b for a, b in zip(self.coeffs, o.coeffs)],
                        min(self.prec, o.prec))

    def __rsub__(self, other):
        if isinstance(other, int):
            return self._plus_int([-a for a in self.coeffs], other)
        return NotImplemented

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            return OElement(f, [other * a for a in self.coeffs],
                            f.int_product_prec(self, other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OElement(f, f._times(self.coeffs, o.coeffs),
                        product_prec(self.prec, self._vmin(),
                                     o.prec, o._vmin()))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("use invert/KElement for negative powers")
        return power(self, k, self.field.one(self.prec + 2 * self.field.e))

    # -- reduction, units, division ----------------------------------------

    def reduce(self) -> FFElement:
        """Image in the residue field k; kernel of this map is m_K."""
        if self.prec < 1:
            raise PrecisionExhausted("no digits known; cannot reduce")
        # the residue field keeps the first f coefficients: every
        # basis vector past them lies in m_K
        return self.field.residue.element(self.coeffs)

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
        mods = f.coeff_moduli(self.prec)
        z = list(self.reduce().inverse().coeffs)
        z += [0] * (f.deg - len(z))
        # the residue inverse is right mod m and each step doubles the right
        # digits; every product is a unit known mod m^prec, reduced there
        for _ in range((self.prec - 1).bit_length()):
            r = [-c for c in f._times(self.coeffs, z)]
            r[0] += 2
            z = [c % m for c, m in zip(f._times(z, r), mods)]
        return OElement(f, z, self.prec)

    def shift_down(self, k: int) -> "OElement":
        """Exact division by the k-th power of the uniformizer:
        x / pi^k = x * (d/pi)^k / d^k, with d/p an integer unit.

        Requires v_K(self) >= k (or apparent zero); precision drops by k.
        """
        f = self.field
        if k == 0:
            return self
        v = self.valuation_or_none()
        if v is not None and v < k:
            raise ValueError(f"valuation {v} < {k}; not divisible")
        y = f._times(self.coeffs, f.pi_power(-k))
        q = f.p ** k
        if any(c % q for c in y):
            # only possible through precision loss; treat as inexact zero digits
            raise PrecisionExhausted("division by uniformizer lost all digits")
        s = pow(f._d_unit, -k, f.coeff_moduli(self.prec - k)[0])
        return OElement(f, [c // q * s for c in y], self.prec - k)

    def shift_up(self, k: int) -> "OElement":
        """Multiplication by the k-th power of the uniformizer."""
        if k == 0:
            return self
        f = self.field
        return OElement(f, f._times(self.coeffs, f.pi_power(k)), self.prec + k)

    def as_k(self) -> "KElement":
        return KElement(self)

    def to_json(self):
        return {"shift": 0, "coeffs": list(self.coeffs), "prec": self.prec}


class KElement:
    """Element x / pi^s of K: x is an OElement of any valuation, an
    apparent zero included, and s >= 0 an integer.

    Each operation is one O_K operation on the x's after aligning the
    shifts, so K shares O_K's precision rule (product_prec) and its
    apparent zeros.  The element is known modulo m_K^(x.prec - s).
    """

    __slots__ = ("x", "s")

    def __init__(self, x, s=0):
        self.x = x
        self.s = s

    @property
    def field(self):
        return self.x.field

    def is_zero_at_precision(self):
        return self.x.is_zero_at_precision()

    def valuation(self):
        v = self.x.valuation_or_none()
        if v is None:
            raise PrecisionExhausted(
                f"element is 0 mod m^{self.prec}; valuation unknown")
        return v - self.s

    @property
    def prec(self):
        """Absolute precision: the element is known modulo m_K^prec."""
        return self.x.prec - self.s

    def _normalized(self):
        """(v, u) with self = pi^v * u and u a unit, or None for an
        apparent zero."""
        v = self.x.valuation_or_none()
        if v is None:
            return None
        return v - self.s, self.x.shift_down(v)

    def __repr__(self):
        n = self._normalized()
        if n is None:
            return f"K(0+O(m^{self.prec}))"
        v, u = n
        return f"K(pi^{v}*{list(u.coeffs)}+O(m^{self.prec}))"

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.embed_rational(
                other, prec=max(self.prec, self.field.M))
        if isinstance(other, OElement):
            return KElement(other)
        if isinstance(other, KElement) and other.field == self.field:
            return other
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self - o
        return d.is_zero_at_precision()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = max(self.s, o.s)
        return KElement(self.x.shift_up(s - self.s) + o.x.shift_up(s - o.s), s)

    __radd__ = __add__

    def __neg__(self):
        return KElement(-self.x, self.s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        """One O_K product, kept in lowest terms: a known valuation of x
        is divided out of the shift, so a chain of products does not
        carry pi^s inside x.  An apparent zero keeps product_prec."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, s = self.x * o.x, self.s + o.s
        v = x.valuation_or_none() if s else None
        if v:
            k = min(v, s)
            x, s = x.shift_down(k), s - k
        return KElement(x, s)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        return power(self, k, self.field.one().as_k())

    def invert(self) -> "KElement":
        n = self._normalized()
        if n is None:
            raise NotInvertible(f"0 mod m^{self.prec} is not invertible")
        v, u = n
        w = u.invert()  # self^-1 = w / pi^v
        return KElement(w, v) if v >= 0 else KElement(w.shift_up(-v))

    def __truediv__(self, other):
        """self / other; a rational q divides exactly, as the product with
        1/q embedded just precisely enough to keep every digit of self:
        the quotient is known mod m^(self.prec - v(q))."""
        if isinstance(other, (int, Fraction)):
            f = self.field
            q = 1 / Fraction(other)
            v = f.e * (_vp(q.denominator, f.p) - _vp(q.numerator, f.p))
            return self * f.embed_rational(q, prec=self.x.prec - v)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def integral_part(self) -> OElement:
        """The element as an OElement; requires valuation >= 0."""
        v = self.x.valuation_or_none()
        if v is None and self.prec < 0:
            raise PrecisionExhausted(
                f"element is 0 mod m^{self.prec}; integrality unknown")
        if v is not None and v < self.s:
            raise ValueError(f"valuation {v - self.s} < 0; not integral")
        return self.x.shift_down(self.s)

    def to_json(self):
        n = self._normalized()
        if n is None:
            return {"shift": None, "coeffs": [0] * self.field.deg,
                    "prec": self.prec}
        v, u = n
        return {"shift": v, "coeffs": list(u.coeffs), "prec": self.prec}
