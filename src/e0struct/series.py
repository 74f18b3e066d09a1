"""Sparse exact truncated power series and the weighted coefficient ring
Z[a1,a2,a3,a4,a6] with wt(ai) = i.

Series coefficients are duck-typed: plain ints and Fractions, WPoly for
generic computations, finite-field elements after reduction.  int is
the universal scalar that every coefficient type accepts on either side.
Series.__mul__ has one product loop: it groups the term pairs by output
monomial, and only the sum of each group depends on the coefficients.
Coefficients in O_K (OElements, with ints beside them) are summed by
the kernel LocalField.dot, which adds the raw integer products, reduces
once and builds one OElement; others by a plain fold.  dot and
invert_unit sum their coefficients the same way.
The Series constructor is the one place that truncates and drops
exact zeros (_is_zero_coeff): +, add_const and map_coeffs hand it
their raw sums and images.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .local_field import OElement
from .residue_field import power

# packed monomial keys: 6 bits per exponent, variables a1,a2,a3,a4,a6
_BITS = 6
_MASK = (1 << _BITS) - 1
WEIGHTS = (1, 2, 3, 4, 6)
NVARS = 5


def pack(exps) -> int:
    key = 0
    for i, e in enumerate(exps):
        if e >= (1 << _BITS):
            raise OverflowError("monomial exponent too large for packed key")
        key |= e << (_BITS * i)
    return key


def unpack(key: int):
    return tuple((key >> (_BITS * i)) & _MASK for i in range(NVARS))


def key_weight(key: int) -> int:
    return sum(w * e for w, e in zip(WEIGHTS, unpack(key)))


def _sum_text(terms, names):
    """The sum of the ordered terms (exponents, coefficient text) in the
    variables names: a coefficient 1 or -1 shrinks to its sign before a
    monomial, and a negative term joins with ' - '."""
    parts = []
    for exps, coeff in terms:
        mono = "*".join(f"{n}^{e}" if e > 1 else n
                        for n, e in zip(names, exps) if e)
        if not mono:
            parts.append(coeff)
        elif coeff in ("1", "-1"):
            parts.append(coeff[:-1] + mono)
        else:
            parts.append(f"{coeff}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for s in parts[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


class WPoly:
    """Polynomial in a1,a2,a3,a4,a6 with int (or Fraction) coefficients."""

    __slots__ = ("d",)

    def __init__(self, d=None):
        self.d = {} if d is None else d

    @classmethod
    def const(cls, c):
        return cls({0: c} if c else {})

    @classmethod
    def var(cls, i):
        """Generator a_i for i in {1,2,3,4,6}."""
        idx = {1: 0, 2: 1, 3: 2, 4: 3, 6: 4}[i]
        return cls({pack(tuple(1 if j == idx else 0 for j in range(NVARS))): 1})

    def __bool__(self):
        return bool(self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WPoly.const(other)
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.d == other.d

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WPoly.const(other)
        if not isinstance(other, WPoly):
            return NotImplemented
        out = dict(self.d)
        for k, v in other.d.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return WPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return WPoly({k: -v for k, v in self.d.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WPoly.const(other)
        if not isinstance(other, WPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return WPoly()
            return WPoly({k: v * other for k, v in self.d.items()})
        if not isinstance(other, WPoly):
            return NotImplemented
        a, b = self.d, other.d
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + v1 * v2
        return WPoly({k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __repr__(self):
        return f"WPoly({self.pretty()})"

    # -- structure ----------------------------------------------------------

    def map_coeffs(self, fn):
        out = {}
        for k, v in self.d.items():
            w = fn(v)
            if w:
                out[k] = w
        return WPoly(out)

    def coefficient(self, exps):
        return self.d.get(pack(exps), 0)

    def items(self):
        return ((unpack(k), v) for k, v in self.d.items())

    def pretty(self):
        order = sorted(self.d, key=lambda k: (key_weight(k),
                                              tuple(-e for e in unpack(k))))
        return _sum_text(((unpack(k), str(self.d[k])) for k in order),
                         ("a1", "a2", "a3", "a4", "a6"))


A1, A2, A3, A4, A6 = (WPoly.var(i) for i in (1, 2, 3, 4, 6))
GENERIC_A = (A1, A2, A3, A4, A6)


def _fold(pairs):
    s = 0
    for a, b in pairs:
        s = s + a * b
    return s


def _dot_for(coeffs):
    """The sum of products for these coefficients: LocalField.dot when
    every coefficient is an OElement or an int and one is an OElement,
    a plain fold otherwise."""
    field = None
    for v in coeffs:
        if type(v) is OElement:
            field = v.field
        elif type(v) is not int:
            return _fold
    return _fold if field is None else field.dot


def dot(pairs):
    """sum(a * b for a, b in pairs): one LocalField.dot for O_K
    coefficients, a plain fold otherwise."""
    return _dot_for(x for pair in pairs for x in pair)(pairs)


def _is_zero_coeff(c):
    """An exact zero, which a series may drop.  An O_K element that reads
    0 is only known to vanish mod m^prec; dropping it would claim digits
    the input never gave, so it stays."""
    if isinstance(c, (int, Fraction)):
        return c == 0
    return type(c) is not OElement and not c


class Series:
    """Truncated multivariate power series: dict from exponent tuples to
    coefficients, with all kept terms of total degree <= trunc."""

    __slots__ = ("nvars", "trunc", "c")

    def __init__(self, nvars, trunc, coeffs=None):
        self.nvars = nvars
        self.trunc = trunc
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if sum(k) <= trunc and not _is_zero_coeff(v):
                    self.c[k] = v

    @classmethod
    def const(cls, nvars, trunc, v):
        return cls(nvars, trunc, {(0,) * nvars: v})

    @classmethod
    def variable(cls, nvars, trunc, i):
        key = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, trunc, {key: 1})

    def __repr__(self):
        return f"Series(nvars={self.nvars}, D={self.trunc}, {len(self.c)} terms)"

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        D = min(self.trunc, other.trunc)
        keys = {k for k in self.c if sum(k) <= D} | {k for k in other.c if sum(k) <= D}
        for k in keys:
            a = self.c.get(k, 0)
            b = other.c.get(k, 0)
            if not (a == b):
                return False
        return True

    def coefficient(self, key):
        if isinstance(key, int):
            key = (key,)
        return self.c.get(tuple(key), 0)

    def constant_term(self):
        return self.c.get((0,) * self.nvars, 0)

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("series in different variable sets")

    def __add__(self, other):
        """A series, or a coefficient-ring scalar as a constant term."""
        if not isinstance(other, Series):
            return self.add_const(other)
        self._check(other)
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0) + v
        return Series(self.nvars, min(self.trunc, other.trunc), out)

    def __neg__(self):
        return Series(self.nvars, self.trunc, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        """Multiply by a scalar from the coefficient ring (or an int)."""
        if _is_zero_coeff(coeff):
            return Series(self.nvars, self.trunc)
        return Series(self.nvars, self.trunc,
                      {k: coeff * v for k, v in self.c.items()})

    __rmul__ = scale

    def add_const(self, v):
        key = (0,) * self.nvars
        return Series(self.nvars, self.trunc,
                      {**self.c, key: self.c.get(key, 0) + v})

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other):
        """Group the term pairs by output monomial; each group is one
        sum of products (_dot_for)."""
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        D = min(self.trunc, other.trunc)
        uni = self.nvars == 1
        items2 = sorted(((k, sum(k), v) for k, v in other.c.items()),
                        key=lambda t: t[1])
        pairs = {}
        for k1, v1 in self.c.items():
            d1 = sum(k1)
            room = D - d1
            for k2, d2, v2 in items2:
                if d2 > room:
                    break
                k = (d1 + d2,) if uni else tuple(a + b for a, b in zip(k1, k2))
                pairs.setdefault(k, []).append((v1, v2))
        sum_products = _dot_for(chain(self.c.values(), other.c.values()))
        return Series(self.nvars, D,
                      {k: sum_products(ps) for k, ps in pairs.items()})

    def __pow__(self, n):
        return power(self, n, Series.const(self.nvars, self.trunc, 1))

    def invert_unit(self):
        """Multiplicative inverse of a series with constant term 1.
        Solved from self*z = 1 monomial by monomial in order of degree,
        z_k = -sum s_j z_(k-j) over 0 < j <= k, each sum one dot."""
        uni = self.nvars == 1
        terms = sorted((sum(j), j, v) for j, v in self.c.items() if any(j))
        z = {(0,) * self.nvars: 1}
        for d in range(1, self.trunc + 1):
            for k in _monomials(self.nvars, d):
                pairs = []
                for dj, j, v in terms:
                    if dj > d:
                        break
                    r = z.get((d - dj,) if uni
                              else tuple(a - b for a, b in zip(k, j)))
                    if r is not None:
                        pairs.append((v, r))
                s = dot(pairs)
                if not _is_zero_coeff(s):
                    z[k] = -s
        return Series(self.nvars, self.trunc, z)

    # -- univariate helpers -------------------------------------------------

    def compose(self, sub):
        """self(sub) for univariate self; sub is a series with zero constant
        term (any variable count).  Horner evaluation in the series ring
        truncated at the lesser degree."""
        if self.nvars != 1:
            raise ValueError("compose only for univariate series")
        if not _is_zero_coeff(sub.constant_term()):
            raise ValueError("substituted series must have zero constant term")
        D = min(self.trunc, sub.trunc)
        return self.evaluate_univar(sub, Series.const(sub.nvars, D, 1))

    def integrate(self):
        """Antiderivative with zero constant term; divides by exponents, so
        coefficients leave their ring: ints and WPolys pick up Fractions,
        OElements become KElements."""
        if self.nvars != 1:
            raise ValueError("integrate only for univariate series")
        out = {}
        for (d,), v in self.c.items():
            out[(d + 1,)] = _div_int(v, d + 1)
        return Series(1, self.trunc + 1, out)

    def evaluate_univar(self, x, one):
        """Horner evaluation of a univariate series at a ring element."""
        if self.nvars != 1:
            raise ValueError("evaluate_univar only for univariate series")
        acc = 0 * one
        for d in range(self.trunc, -1, -1):
            acc = acc * x
            cd = self.c.get((d,), 0)
            if not _is_zero_coeff(cd):
                acc = acc + cd * one

        return acc

    def pretty(self, names):
        def text(v):
            coeff = v.pretty() if isinstance(v, WPoly) else str(v)
            return f"({coeff})" if " + " in coeff or " - " in coeff else coeff

        order = sorted(self.c, key=lambda k: (sum(k), tuple(-e for e in k)))
        return _sum_text(((k, text(self.c[k])) for k in order), names)


def _monomials(nvars, d):
    """Exponent tuples of total degree d in nvars variables."""
    if nvars == 1:
        return [(d,)]
    return [(i,) + rest for i in range(d, -1, -1)
            for rest in _monomials(nvars - 1, d - i)]


def _div_int(v, m):
    if isinstance(v, int):
        if v % m == 0:
            return v // m
        return Fraction(v, m)
    if isinstance(v, Fraction):
        return v / m
    if isinstance(v, WPoly):
        return v.map_coeffs(lambda c: _div_int(c, m))
    if isinstance(v, OElement):
        return v.as_k() / m
    raise TypeError(f"cannot divide {type(v)} by an int exactly")
