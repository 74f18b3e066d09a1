"""The formal group of a Weierstrass curve.

Generic computations happen over the weighted ring Z[a1,a2,a3,a4,a6]
(WPoly coefficients); everything is written against duck-typed
coefficient rings, so the same routines run on specialized O_K
coefficients.  The chart is (t, w) = (-x/y, -1/y), where the curve
equation becomes w = t^3 + a1*t*w + a2*t^2*w + a3*w^2 + a4*t*w^2 + a6*w^3.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .local_field import PrecisionExhausted
from .residue_field import AdditivePoly
from .series import (GENERIC_A, Series, WPoly, _is_zero_coeff,
                     newton_levels)


class TruncationInsufficient(ArithmeticError):
    pass


def w_series(a, D: int) -> Series:
    """w(t) = t^3 + ... solved degreewise from the curve equation."""
    a1, a2, a3, a4, a6 = a
    c = {3: 1}
    for n in range(4, D + 1):
        v = 0
        if n - 1 in c:
            v = v + a1 * c[n - 1]
        if n - 2 in c:
            v = v + a2 * c[n - 2]
        # (w^2)_n and (w^2)_{n-1}: lowest contributing index is 3
        for m, coeff in ((n, a3), (n - 1, a4)):
            s = 0
            for i in range(3, m - 2):
                if i in c and m - i in c:
                    s = s + c[i] * c[m - i]
            if not _is_zero_coeff(s):
                v = v + coeff * s
        # (w^3)_n
        s = 0
        for i in range(3, n - 5):
            for j in range(3, n - i - 2):
                kk = n - i - j
                if kk >= 3 and i in c and j in c and kk in c:
                    s = s + c[i] * c[j] * c[kk]
        if not _is_zero_coeff(s):
            v = v + a6 * s
        if not _is_zero_coeff(v):
            c[n] = v
    return Series(1, D, {(n,): v for n, v in c.items()})


def _negate(a, t: Series, w: Series):
    """-(t, w) = (t, w)/(a1*t + a3*w - 1)."""
    inv = (t.scale(a[0]) + w.scale(a[2])).add_const(-1).invert_unit(-1)
    return t * inv, w * inv


def _chord_sum(a, lam: Series, nu: Series, t1: Series, t2: Series):
    """(t, w) of P1 + P2, for points with t-coordinates t1, t2 on the line
    w = lam*t + nu (the tangent when they coincide).  Substituting the
    line into the w-equation gives a cubic A*t^3 + B*t^2 + ... whose
    roots t1, t2, t3 sum to -B/A; the sum is minus the third point."""
    a1, a2, a3, a4, a6 = a
    lam2 = lam * lam
    lamnu = lam * nu
    B = (lam.scale(a1) + lam2.scale(a3) + nu.scale(a2)
         + lamnu.scale(2 * a4) + (lam * lamnu).scale(3 * a6))
    A = (lam.scale(a2) + lam2.scale(a4) + (lam2 * lam).scale(a6)).add_const(1)
    t3 = -(B * A.invert_unit(1)) - t1 - t2
    return _negate(a, t3, lam * t3 + nu)


def inverse_series(a, D: int) -> Series:
    """i(t) with F(t, i(t)) = 0."""
    return _negate(a, Series.variable(1, D, 0), w_series(a, D))[0]


def formal_sum(a, D: int) -> Series:
    """The formal group law F(T1, T2) by the chord construction."""
    w = w_series(a, D + 1)
    S = Series.variable(2, D, 0)
    T = Series.variable(2, D, 1)
    # lambda = (w(t2) - w(t1))/(t2 - t1) = sum w_m * P_m with
    # P_m = (S^m - T^m)/(S - T), built by P_m = S*P_{m-1} + T^{m-1}
    lam = Series(2, D)
    P = S + T
    Tpow = T * T
    for m in range(3, D + 2):
        P = S * P + Tpow
        Tpow = Tpow * T
        cm = w.coefficient(m)
        if not _is_zero_coeff(cm):
            lam = lam + P.scale(cm)
    w_at_s = Series(2, D, {(m, 0): v for (m,), v in w.c.items()})
    return _chord_sum(a, lam, w_at_s - lam * S, S, T)[0]


def compose_bivariate(F: Series, f: Series, g: Series) -> Series:
    """F(f, g) for bivariate F and univariate f, g with zero constant
    term.  Horner in the first variable."""
    if not (_is_zero_coeff(f.constant_term())
            and _is_zero_coeff(g.constant_term())):
        raise ValueError("substituted series must have zero constant term")
    D = min(F.trunc, f.trunc, g.trunc)
    rows = {}
    for (i, j), v in F.c.items():
        rows.setdefault(i, {})[(j,)] = v
    result = Series(1, D)
    for i in range(max(rows, default=0), -1, -1):
        result = result * f
        if i in rows:
            result = result + Series(1, D, rows[i]).compose(g)
    return result


_GEN_F = {}
_GEN_MULT = {}
# above this truncation degree, [n] switches from the F-recursion to the
# logarithm route (both are exact; they are cross-checked in the tests)
_RECURSION_DEGREE_BOUND = 12


def generic_group_law(D: int) -> Series:
    if D not in _GEN_F:
        _GEN_F[D] = formal_sum(GENERIC_A, D)
    return _GEN_F[D]


def generic_mult_by_n(n: int, D: int) -> Series:
    if n < 1:
        raise ValueError("n must be >= 1")
    key = (n, D)
    if key in _GEN_MULT:
        return _GEN_MULT[key]
    T = Series.variable(1, D, 0)
    if n == 1:
        out = T
    elif D > _RECURSION_DEGREE_BOUND:
        # the bivariate chord law gets expensive at large degree; solve
        # log([n]) = n*log instead (agreement with the recursion is a test)
        out = _mult_via_log(n, D)
    elif n == 2:
        F = generic_group_law(D)
        out = compose_bivariate(F, T, T)
    elif n % 2 == 0:
        out = generic_mult_by_n(2, D).compose(generic_mult_by_n(n // 2, D))
    else:
        F = generic_group_law(D)
        out = compose_bivariate(F, generic_mult_by_n(n - 1, D), T)
    _GEN_MULT[key] = out
    return out


class _Scaled:
    """A series with integer (or integer-WPoly) coefficients divided by a
    single positive integer denominator.  Much faster than per-coefficient
    Fractions for the generic large-degree computations."""

    __slots__ = ("s", "den")

    def __init__(self, s, den=1, normalize=True):
        if den < 0:
            s, den = -s, -den
        if normalize and den != 1:
            g = den
            for v in s.c.values():
                if isinstance(v, WPoly):
                    for c in v.d.values():
                        g = gcd(g, c)
                else:
                    g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                s = s.map_coeffs(lambda v: _int_div(v, g))
                den //= g
        self.s = s
        self.den = den

    @classmethod
    def const(cls, nvars, trunc, num, den=1):
        return cls(Series.const(nvars, trunc, num), den)

    def truncate(self, D):
        return _Scaled(self.s.truncate(D), self.den, normalize=False)

    def __mul__(self, other):
        return _Scaled(self.s * other.s, self.den * other.den)

    def __add__(self, other):
        l = lcm(self.den, other.den)
        s = self.s.scale(l // self.den) + other.s.scale(l // other.den)
        return _Scaled(s, l)

    def __neg__(self):
        return _Scaled(-self.s, self.den, normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def add_const(self, c):
        """Add a plain integer constant."""
        return _Scaled(self.s.add_const(c * self.den), self.den,
                       normalize=False)

    def scale_rat(self, num, den=1):
        return _Scaled(self.s.scale(num), self.den * den)

    def invert_unit(self):
        c0 = self.s.constant_term()
        if not isinstance(c0, int) or c0 == 0:
            raise ValueError("need a nonzero integer constant term")
        z = _Scaled.const(self.s.nvars, 0, self.den, c0)
        for t2 in newton_levels(self.s.trunc):
            zt = _Scaled(Series(self.s.nvars, t2, z.s.c), z.den,
                         normalize=False)
            st = self.truncate(t2)
            z = zt * (-(st * zt)).add_const(2)
        return z

    def compose(self, g: "_Scaled") -> "_Scaled":
        if self.s.nvars != 1:
            raise ValueError("compose only for univariate series")
        D = min(self.s.trunc, g.s.trunc)
        result = _Scaled.const(g.s.nvars, D, 0)
        for d in range(D, -1, -1):
            result = result * g
            cd = self.s.c.get((d,), 0)
            if not _is_zero_coeff(cd):
                result = result + _Scaled(
                    Series.const(g.s.nvars, D, cd), self.den)
        return result

    def derivative(self):
        return _Scaled(self.s.derivative(), self.den, normalize=False)

    def to_series(self) -> Series:
        """Back to a plain Series with Fraction-free coefficients when the
        denominator is 1, Fractions otherwise."""
        if self.den == 1:
            return self.s
        d = self.den
        return self.s.map_coeffs(lambda v: _frac_div(v, d))


def _int_div(v, g):
    if isinstance(v, int):
        return v // g
    return v.map_coeffs(lambda c: c // g)


def _frac_div(v, d):
    if isinstance(v, int):
        q = Fraction(v, d)
        return int(q) if q.denominator == 1 else q
    return v.map_coeffs(lambda c: _frac_div(c, d))


def _log_scaled(a, D: int) -> _Scaled:
    a1, a2, a3, a4, a6 = a
    w = w_series(a, D + 3)
    t = Series.variable(1, D + 3, 0)
    num = w - t * w.derivative()
    den = w * (t.scale(a1).add_const(-2) + w.scale(a3))
    num3 = _Scaled(_shift_down(num, 3))
    den3 = _Scaled(_shift_down(den, 3))
    logder = (num3 * den3.invert_unit()).truncate(D - 1)
    # integrate: divide the degree-d coefficient by d+1
    l = lcm(*range(1, D + 1)) if D >= 1 else 1
    out = {}
    for (d,), v in logder.s.c.items():
        out[(d + 1,)] = (l // (d + 1)) * v
    return _Scaled(Series(1, D, out), logder.den * l)


_GEN_LOG = {}


def _log_scaled_cached(a, D: int) -> _Scaled:
    if a is not GENERIC_A:
        return _log_scaled(a, D)
    for D2, cached in _GEN_LOG.items():
        if D2 >= D:
            return _Scaled(Series(1, D, cached.s.c), cached.den,
                           normalize=False)
    _GEN_LOG[D] = _log_scaled(a, D)
    return _GEN_LOG[D]


def formal_log(a, D: int) -> Series:
    """log(T) = T + ... with log(F(X,Y)) = log X + log Y; coefficients
    are exact rationals (times weighted polynomials, generically)."""
    return _log_scaled_cached(a, D).to_series()


def _shift_down(s: Series, k: int) -> Series:
    out = {}
    for (d,), v in s.c.items():
        if d < k:
            raise ValueError(f"series not divisible by T^{k}")
        out[(d - k,)] = v
    return Series(1, s.trunc - k, out)


def formal_exp(a, D: int) -> Series:
    """Compositional inverse of formal_log, by Newton iteration with
    doubling truncation."""
    lg = _log_scaled_cached(a, D + 1)
    e = _Scaled(Series.variable(1, 1, 0))
    for t2 in newton_levels(D, start=1):
        lgt = _Scaled(Series(1, t2 + 1, lg.s.c), lg.den, normalize=False)
        lgpt = lgt.derivative()
        et = _Scaled(Series(1, t2, e.s.c), e.den, normalize=False)
        err = lgt.truncate(t2).compose(et) - _Scaled(
            Series.variable(1, t2, 0))
        e = et - err * lgpt.compose(et).invert_unit()
    return e.to_series()


def _mult_via_log(n: int, D: int) -> Series:
    """[n](T) solved from log([n](T)) = n*log(T) by Newton iteration;
    exact, and the integrality of the result is asserted."""
    lg = _log_scaled_cached(GENERIC_A, D + 1)
    u = _Scaled(Series.variable(1, 1, 0).scale(n))
    for t2 in newton_levels(D, start=1):
        lgt = _Scaled(Series(1, t2 + 1, lg.s.c), lg.den, normalize=False)
        lgpt = lgt.derivative()
        ut = _Scaled(Series(1, t2, u.s.c), u.den, normalize=False)
        err = lgt.truncate(t2).compose(ut) - lgt.truncate(t2).scale_rat(n)
        u = ut - err * lgpt.compose(ut).invert_unit()
    if u.den != 1:
        raise AssertionError(f"[{n}] came out non-integral (den {u.den})")
    return u.s


def specialized_mult_by_n(a, n: int, D: int, w=None) -> Series:
    """[n](T) for concrete O_K coefficients a, for 2 <= n <= p + 1.

    Carries the pair (t, w) of [m]P, P = (T, w(T)), as two series in T:
    [2] through the tangent slope w'(T), then [m] = [m-1] + P through the
    chord slope (w_{m-1} - w)/(t_{m-1} - T).  That division is exact
    because t_{m-1} - T = (m-2)T + ... and m - 2 is prime to p.  Each slope
    costs one degree, so the chain runs at D + n - 1; w, when the caller
    has it, is the w-series of a to at least that degree."""
    one = a[0].field.one()
    Dx = D + n - 1
    w = w_series(a, Dx) if w is None else w
    T = Series.variable(1, Dx, 0)
    t, wt = T, w
    for m in range(2, n + 1):
        if m == 2:
            lam = w.derivative()
        else:
            den = _shift_down(t - T, 1)
            c0inv = (den.constant_term() * one).invert()
            lam = _shift_down(wt - w, 1) * den.invert_unit(c0inv)
        t, wt = _chord_sum(a, lam, w - lam * T, t, T)
    return t.truncate(D)


def specialized_log(a, D: int, w=None) -> Series:
    """log(T) to degree D for concrete O_K coefficients a, as a series
    over K: the integral of the invariant differential

        omega = dT / (1 - a1*T - a2*T^2 - 2*a3*w - 2*a4*T*w - 3*a6*w^2),

    which is integral with unit constant term (Silverman AEC IV.1), so
    only the integration omega_d / (d+1) leaves O_K.  w, when the caller
    has it, is the w-series of a to at least degree D - 1."""
    one = a[0].field.one().as_k()
    a1, a2, a3, a4, a6 = a
    w = (w_series(a, D - 1) if w is None else w).truncate(D - 1)
    T = Series.variable(1, D - 1, 0)
    den = (T.scale(a1) + (T * T).scale(a2) + w.scale(2 * a3)
           + (T * w).scale(2 * a4) + (w * w).scale(3 * a6))
    omega = (-den).add_const(1).invert_unit(1)
    return Series(1, D, {(d + 1,): c * one / (d + 1)
                         for (d,), c in omega.c.items()})


def specialize(s: Series, a_values, one) -> Series:
    """Substitute concrete a_i into the WPoly coefficients of s.

    a_values: the five coefficient values in the target ring; one: the
    target ring's 1, which also embeds bare int/Fraction scalars."""
    powers = [[one] for _ in range(5)]

    def power(i, e):
        pl = powers[i]
        while len(pl) <= e:
            pl.append(pl[-1] * a_values[i])
        return pl[e]

    out = {}
    for key, v in s.c.items():
        if isinstance(v, WPoly):
            acc = None
            for exps, c in v.items():
                term = c * one
                for i, e in enumerate(exps):
                    if e:
                        term = term * power(i, e)
                acc = term if acc is None else acc + term
            if acc is None:
                continue
            out[key] = acc
        else:
            out[key] = v * one
    return Series(s.nvars, s.trunc, out)


def eval_at(s: Series, x, target_prec: int):
    """Evaluate a specialized univariate series at an integral x, correct
    modulo m_K^target_prec.  Checks the tail bound coming from
    wt(b_i) = i - 1 and v(a_j) >= e."""
    f = x.field
    D = s.trunc
    vx = x.valuation_or_none()
    vx = x.prec if vx is None else vx
    tail = f.e * (-(-D // 6)) + min(1, vx) * D
    if tail < target_prec:
        raise TruncationInsufficient(
            f"degree {D} gives tail valuation {tail} < target {target_prec}")
    one = f.one(prec=max(f.M, target_prec))
    acc = s.evaluate_univar(x, one)
    if acc.prec < target_prec:
        raise TruncationInsufficient(
            f"element precision {acc.prec} < target {target_prec}")
    return f.element(acc.coeffs, target_prec)


# g = [p](T)/p mod m_K in closed form.  b_i in [p](T) is homogeneous of
# weight i - 1 in Z[a1, ..., a6] and every a_j lies in m_K, so after the
# division by p only monomials linear in a single a_j can survive, and
# their integer coefficients are divisible by p except at the entries
# below (the tests check this against the generic [p]).
# p -> ((exponent, j, coefficient of a_j*T^exponent in [p]), ...); a prime
# not listed has g = T.
G_TABLE = {2: ((2, 1, -1), (4, 3, -7)), 3: ((3, 2, -8),),
           5: ((5, 4, -1248),), 7: ((7, 6, -352944),)}


def a_mod_p2(curve, j: int):
    """a_j of an unramified curve, checked to be known mod p^2: g reads
    its digit a_j/p mod p."""
    a = curve.a[(1, 2, 3, 4, 6).index(j)]
    p = curve.field.p
    if a.prec < 2:
        raise PrecisionExhausted(
            f"g reads a{j} mod {p}^2, but a{j} is known only mod {p}^{a.prec}")
    return a


def g_polynomial(curve) -> AdditivePoly:
    """g = [p](T)/p reduced mod m_K, as an additive polynomial over k:
    T plus (c*a_j/p)~ * T^e for each G_TABLE entry (e, j, c) of p.

    Requires an unramified base field, all a_i in m_K, and each a_j read
    known mod p^2 (PrecisionExhausted otherwise)."""
    f = curve.field
    p = f.p
    if f.kind != "unramified":
        raise ValueError("g_polynomial requires an unramified base field")
    for ai in curve.a:
        if ai.valuation_or_none() == 0:
            raise ValueError("g_polynomial requires all a_i in m_K")
    terms = {1: f.residue.one}
    for e, j, c in G_TABLE.get(p, ()):
        terms[e] = c * a_mod_p2(curve, j).shift_down(1).reduce()
    coeffs = []
    q = 1
    while q <= max(terms):
        coeffs.append(terms.get(q, f.residue.zero))
        q *= p
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return AdditivePoly(f.residue, coeffs)
