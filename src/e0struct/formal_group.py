"""The formal group of a Weierstrass curve.

Generic computations happen over the weighted ring Z[a1,a2,a3,a4,a6]
(WPoly coefficients); everything is written against duck-typed
coefficient rings, so the same routines run on specialized O_K
coefficients.  The chord law and the ladder also run on single points
of E(K), whose coordinates are elements of O_K.  The chart is
(t, w) = (-x/y, -1/y), where the curve equation becomes
w = t^3 + a1*t*w + a2*t^2*w + a3*w^2 + a4*t*w^2 + a6*w^3.
"""

from __future__ import annotations

from .local_field import PrecisionExhausted, _vp
from .residue_field import AdditivePoly
from .series import GENERIC_A, Series, WPoly, _is_zero_coeff, dot


class TruncationInsufficient(ArithmeticError):
    pass


def w_series(a, D: int) -> Series:
    """w(t) = t^3 + ... solved degreewise from the curve equation, with
    running coefficients of w^2 so that each coefficient of w^2, w^3 and
    w is one dot product."""
    a1, a2, a3, a4, a6 = a
    c = {3: 1}
    w2 = {}
    for n in range(4, D + 1):
        # w vanishes below degree 3 and w^2 below degree 6; c[n] is
        # still unknown, and w^2's degree-n coefficient does not need it
        s = dot([(c[i], c[n - i]) for i in range(3, n - 2)
                 if i in c and n - i in c])
        if not _is_zero_coeff(s):
            w2[n] = s
        s3 = dot([(c[i], w2[n - i]) for i in range(3, n - 5)
                  if i in c and n - i in w2])
        v = dot([(coeff, x) for coeff, x in (
            (a1, c.get(n - 1)), (a2, c.get(n - 2)), (a3, w2.get(n)),
            (a4, w2.get(n - 1)), (a6, s3))
            if x is not None and not _is_zero_coeff(x)])
        if not _is_zero_coeff(v):
            c[n] = v
    return Series(1, D, {(n,): v for n, v in c.items()})


def _unit_inverse(x, residue):
    """x^-1 for a unit x of the operand ring: a series over the
    coefficient ring whose constant term has the inverse `residue`, or an
    element of O_K, whose inverse then reduces to `residue`."""
    return x.invert_unit(residue) if isinstance(x, Series) else x.invert()


def _negate(a, t, w):
    """-(t, w) = (t, w)/(a1*t + a3*w - 1)."""
    inv = _unit_inverse(a[0] * t + a[2] * w - 1, -1)
    return t * inv, w * inv


def _chord_sum(a, lam, nu, t1, t2):
    """(t, w) of P1 + P2, for points with t-coordinates t1, t2 on the line
    w = lam*t + nu (the tangent when they coincide).  Substituting the
    line into the w-equation gives a cubic A*t^3 + B*t^2 + ... whose
    roots t1, t2, t3 sum to -B/A; the sum is minus the third point.

    The operands are series over the coefficient ring, or elements of
    O_K for the points of E(K) that t_of_multiple meets; A is a unit
    either way."""
    a1, a2, a3, a4, a6 = a
    lam2 = lam * lam
    lamnu = lam * nu
    B = (a1 * lam + a3 * lam2 + a2 * nu + (2 * a4) * lamnu
         + (3 * a6) * (lam * lamnu))
    A = a2 * lam + a4 * lam2 + a6 * (lam2 * lam) + 1
    t3 = -(B * _unit_inverse(A, 1)) - t1 - t2
    return _negate(a, t3, lam * t3 + nu)


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


_GEN_F = {}
_GEN_MULT = {}
_GEN_LOG = {}


def generic_group_law(D: int) -> Series:
    if D not in _GEN_F:
        _GEN_F[D] = formal_sum(GENERIC_A, D)
    return _GEN_F[D]


def generic_mult_by_n(n: int, D: int) -> Series:
    key = (n, D)
    if key not in _GEN_MULT:
        _GEN_MULT[key] = specialized_mult_by_n(GENERIC_A, n, D)
    return _GEN_MULT[key]


def _shift_down(s: Series, k: int) -> Series:
    out = {}
    for (d,), v in s.c.items():
        if d < k:
            raise ValueError(f"series not divisible by T^{k}")
        out[(d - k,)] = v
    return Series(1, s.trunc - k, out)


def _omega_den(a, t, w):
    """-G_w = 1 - a1*t - a2*t^2 - 2*a3*w - 2*a4*t*w - 3*a6*w^2 for the
    curve G(t, w) = 0 of the chart: the unit denominator of the
    invariant differential omega = dt/(-G_w)."""
    a1, a2, a3, a4, a6 = a
    return -(a1 * t + a2 * (t * t) + (2 * a3) * w + (2 * a4) * (t * w)
             + (3 * a6) * (w * w)) + 1


def _double(a, P, T=None):
    """2P for P = (t, w) by the tangent slope dw/dt = G_t/(-G_w); at
    P = (T, w(T)) that slope is just w'(T)."""
    t, w = P
    if t is T:
        lam = w.derivative()
    else:
        a1, a2, a3, a4, a6 = a
        G_t = 3 * (t * t) + a1 * w + (2 * a2) * (t * w) + a4 * (w * w)
        lam = G_t * _unit_inverse(_omega_den(a, t, w), 1)
    return _chord_sum(a, lam, w - lam * t, t, t)


def _add_next(a, P, Q, T=None):
    """[k]P + [k+1]P by the chord slope (w_Q - w_P)/(t_Q - t_P).  t is
    additive to first order, so t_Q - t_P is t(P) plus higher terms: for
    P = (T, w(T)) both differences are divisible by T and the quotient
    (t_Q - t_P)/T has constant term 1; for a point with t(P) = 1 the
    difference is a unit = 1 mod m.  Either way the slope stays integral."""
    (t1, w1), (t2, w2) = P, Q
    dt, dw = t2 - t1, w2 - w1
    if T is not None:
        dt, dw = _shift_down(dt, 1), _shift_down(dw, 1)
    lam = dw * _unit_inverse(dt, 1)
    return _chord_sum(a, lam, w1 - lam * t1, t1, t2)


def _ladder(a, n: int, P, T=None):
    """[n]P for n >= 2: a Montgomery ladder on the pair ([k]P, [k+1]P),
    read off the bits of n; each step either doubles the lower point and
    adds the two, or adds them and doubles the upper one.  No step
    divides by anything but a unit."""
    lo, hi = P, _double(a, P, T)
    bits = bin(n)[3:]
    for i, bit in enumerate(bits):
        last = i == len(bits) - 1
        if bit == "1":
            lo, hi = (_add_next(a, lo, hi, T),
                      None if last else _double(a, hi, T))
        else:
            # 2*[1]P is the [2]P already in hand
            lo, hi = (hi if lo is P else _double(a, lo, T),
                      None if last else _add_next(a, lo, hi, T))
    return lo


def specialized_mult_by_n(a, n: int, D: int) -> Series:
    """[n](T) to degree D over any coefficient ring: Z[a1..a6] for the
    generic tables, O_K for a concrete curve.

    The ladder runs on P = (T, w(T)), a pair of series in T.  Every
    addition's slope, and the first doubling's w'(T), costs one degree,
    so the ladder runs at D + bit_length(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Series.variable(1, D, 0)
    Dx = D + n.bit_length()
    T = Series.variable(1, Dx, 0)
    return _ladder(a, n, (T, w_series(a, Dx)), T)[0].truncate(D)


def _unit_point(a):
    """The point (1, w) of E(K) with t = -x/y = 1, over O_K coefficients
    a in m_K: w is the root = 1 mod m of the curve equation at t = 1,
    w = 1 + (a1 + a2)*w + (a3 + a4)*w^2 + a6*w^3, by Newton's method from
    1.  The derivative is -G_w(1, w), a unit, so each step doubles the
    number of digits of w that are right; the element arithmetic tracks
    what the a_j give."""
    a1, a2, a3, a4, a6 = a
    one = a1.field.one()
    w = one
    for _ in range(max(aj.prec for aj in a).bit_length()):
        G = 1 + (a1 + a2) * w + (a3 + a4) * (w * w) + a6 * (w * w * w) - w
        w = w + G * _unit_inverse(_omega_den(a, one, w), 1)
    return one, w


def t_of_multiple(a, n: int):
    """t([n]P) for the point P = (1, w) of _unit_point, n >= 2, by the
    ladder on points of E(K).  t is additive mod m, so t([k]P) = k mod m for every point the
    ladder meets: each chord's t-difference, each -G_w, each cubic's A and
    each negation's a1*t + a3*w - 1 is a unit, and the result is known to
    the precision of the a_j."""
    return _ladder(a, n, _unit_point(a))[0]


def log_degree(p: int, e: int, v: int, target: int) -> int:
    """The least D >= 1 such that every term of the formal logarithm past
    degree D, at an argument of valuation v >= 1, has valuation >= target.
    The degree-n term is b_(n-1) x^n / n with b_(n-1) integral, because
    omega is (Silverman AEC IV.1); so its valuation is at least
    n*v - e*v_p(n)."""
    if v < 1:
        raise ValueError(f"log argument of valuation {v} is not in m_K")
    # a failing n with v_p(n) = j has p^j <= n, so p^j*v - e*j < target;
    # once p^k*v - e*k >= 1 for some k >= 1, e < p^k*(p - 1)*v and it
    # grows from k on, so every failing n has v_p(n) < k
    k = 1
    while p ** k * v < target + e * k:
        k += 1
    top = (target + e * (k - 1) - 1) // v
    return max([1] + [n for n in range(1, top + 1)
                      if n * v - e * _vp(n, p) < target])


def formal_log(a, D: int) -> Series:
    """log(T) = T + ... to degree D, with log(F(X,Y)) = log X + log Y: the
    integral of the invariant differential omega = dT/(-G_w(T, w(T))),
    which is integral with unit constant term (Silverman AEC IV.1), so
    only the integration's division by d + 1 leaves the coefficient ring
    (Fractions over Z[a1..a6], K over O_K)."""
    if a is GENERIC_A and D in _GEN_LOG:
        return _GEN_LOG[D]
    T = Series.variable(1, D - 1, 0)
    log = _omega_den(a, T, w_series(a, D - 1)).invert_unit(1).integrate()
    if a is GENERIC_A:
        _GEN_LOG[D] = log
    return log


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


def tail_valuation(a, D: int, vx: int) -> int:
    """A lower bound on the valuation of every term beyond degree D of an
    [n] series over O_K coefficients a, at an argument of valuation vx.
    b_i is homogeneous of weight i - 1 in the a_j, whose weights are at
    most 6, so each of its monomials has at least ceil((i - 1)/6) factors
    a_j; a normalized curve has a_j in m_K but not always v(a_j) >= e."""
    vmin = min(aj._vmin() for aj in a)
    return vmin * -(-D // 6) + (D + 1) * vx


def mult_degree(a, x, target_prec: int) -> int:
    """The least truncation degree D of an [n] series over a whose tail
    at x has valuation >= target_prec (tail_valuation)."""
    vx = x._vmin()
    if vx == 0 and min(aj._vmin() for aj in a) == 0:
        raise TruncationInsufficient(
            "no truncation degree bounds the tail at a unit argument "
            "when some a_j is a unit")
    D = 0
    while tail_valuation(a, D, vx) < target_prec:
        D += 1
    return D


def eval_at(a, s: Series, x, target_prec: int):
    """Evaluate s, an [n] series specialized at the O_K coefficients a, at
    an integral x, correct modulo m_K^target_prec.  Checks tail_valuation
    at the truncation degree of s, and the digits of the result."""
    f = x.field
    D = s.trunc
    tail = tail_valuation(a, D, x._vmin())
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
