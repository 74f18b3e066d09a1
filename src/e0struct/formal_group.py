"""The formal group of a Weierstrass curve.

Generic computations happen over the weighted ring Z[a1,a2,a3,a4,a6]
(WPoly coefficients); everything is written against duck-typed
coefficient rings, so the same routines run on specialized O_K
coefficients.  The chart is (t, w) = (-x/y, -1/y), where the curve
equation becomes
w = t^3 + a1*t*w + a2*t^2*w + a3*w^2 + a4*t*w^2 + a6*w^3.

Every multiple [n] runs on one ladder of chords and tangents, on a
point whose t is a unit: the chart change t = u*t', w = u^3*w',
a_i' = u^i*a_i makes it one.  With u = pi^v(t) that is a
point of E(K) over O_K (t_of_multiple); with u = T it is the point
(1, w(T)/T^3) over the series in T, and [n](T) = T*t'([n]P')
(specialized_mult_by_n).
"""

from __future__ import annotations

from .curve import require_normalized
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


def _unit_inverse(x):
    """x^-1 for a unit x of the operand ring: a series over the
    coefficient ring with constant term 1 (each one the ladder inverts),
    or a unit of O_K."""
    return x.invert_unit() if isinstance(x, Series) else x.invert()


def _chord_sum(a, lam, nu, t1, t2):
    """(t, w) of P1 + P2, for points with t-coordinates t1, t2 on the line
    w = lam*t + nu (the tangent when they coincide).  Substituting the
    line into the w-equation gives a cubic A*t^3 + B*t^2 + ... whose
    roots t1, t2, t3 sum to -B/A, so t3 = -N/A and w3 = -V/A for
    N = B + (t1 + t2)*A and V = lam*N - nu*A.  The sum is minus the third
    point, -(t, w) = (t, w)/(a1*t + a3*w - 1), which is (N, V)/Q for
    Q = A + a1*N + a3*V: one denominator.

    The operands are series over the coefficient ring, or elements of
    O_K; Q has residue 1 either way (_ladder, or in formal_sum every term
    of Q but A's 1 has positive degree)."""
    a1, a2, a3, a4, a6 = a
    lam2 = lam * lam
    lamnu = lam * nu
    B = (a1 * lam + a3 * lam2 + a2 * nu + (2 * a4) * lamnu
         + (3 * a6) * (lam * lamnu))
    A = a2 * lam + a4 * lam2 + a6 * (lam2 * lam) + 1
    N = B + (t1 + t2) * A
    V = lam * N - nu * A
    inv = _unit_inverse(A + a1 * N + a3 * V)
    return N * inv, V * inv


def formal_sum(a, D: int) -> Series:
    """The formal group law F(T1, T2) by the chord construction."""
    w = w_series(a, D + 1)
    # the slope lambda = (w(S) - w(T))/(S - T) has w_{i+j+1} at S^i T^j,
    # and the intercept nu = w(S) - lambda*S has -w_{i+j} at i, j >= 1
    lam = Series(2, D, {(i, m - 1 - i): v for (m,), v in w.c.items()
                        for i in range(m)})
    nu = Series(2, D, {(i, m - i): -v for (m,), v in w.c.items()
                       for i in range(1, m)})
    return _chord_sum(a, lam, nu, Series.variable(2, D, 0),
                      Series.variable(2, D, 1))[0]


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


def _omega_den(a, t, w):
    """-G_w = 1 - a1*t - a2*t^2 - 2*a3*w - 2*a4*t*w - 3*a6*w^2 for the
    curve G(t, w) = 0 of the chart: the unit denominator of the
    invariant differential omega = dt/(-G_w)."""
    a1, a2, a3, a4, a6 = a
    return -(a1 * t + a2 * (t * t) + (2 * a3) * w + (2 * a4) * (t * w)
             + (3 * a6) * (w * w)) + 1


def _double(a, P):
    """2P for P = (t, w) by the tangent slope dw/dt = G_t/(-G_w)."""
    a1, a2, a3, a4, a6 = a
    t, w = P
    G_t = 3 * (t * t) + a1 * w + (2 * a2) * (t * w) + a4 * (w * w)
    lam = G_t * _unit_inverse(_omega_den(a, t, w))
    return _chord_sum(a, lam, w - lam * t, t, t)


def _add_next(a, P, Q):
    """[k]P + [k+1]P by the chord slope (w_Q - w_P)/(t_Q - t_P).  t is
    additive on the cusp, so t_Q - t_P = t(P) mod m, a unit."""
    (t1, w1), (t2, w2) = P, Q
    lam = (w2 - w1) * _unit_inverse(t2 - t1)
    return _chord_sum(a, lam, w1 - lam * t1, t1, t2)


def _ladder(a, n: int, P):
    """[n]P for n >= 2 and a point P whose t is a unit: a Montgomery
    ladder on the pair ([k]P, [k+1]P), read off the bits of n; each step
    either doubles the lower point and adds the two, or adds them and
    doubles the upper one.  With every a_j in m, t([k]P) = k*t(P) mod m,
    so each chord's t-difference, each -G_w and each chord's
    A + a1*N + a3*V = 1 mod m is a unit: no step divides by anything
    else, and the result is known to the precision of its inputs."""
    lo, hi = P, _double(a, P)
    bits = bin(n)[3:]
    for i, bit in enumerate(bits):
        last = i == len(bits) - 1
        if bit == "1":
            lo, hi = (_add_next(a, lo, hi),
                      None if last else _double(a, hi))
        else:
            # 2*[1]P is the [2]P already in hand
            lo, hi = (hi if lo is P else _double(a, lo),
                      None if last else _add_next(a, lo, hi))
    return lo


def specialized_mult_by_n(a, n: int, D: int) -> Series:
    """[n](T) to degree D over any coefficient ring: Z[a1..a6] for the
    generic tables, O_K for a concrete curve.

    The chart change t = T*t', w = T^3*w' takes the curve to the model
    a_i' = a_i*T^i and the point (T, w(T)) to P' = (1, w(T)/T^3), whose
    t' is a unit; so [n](T) = T*t'([n]P'), with t'([n]P') to degree
    D - 1 from the ladder."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or D == 0:
        return Series.variable(1, D, 0)
    w = Series(1, D - 1, {(d - 3,): v
                          for (d,), v in w_series(a, D + 2).c.items()})
    a = tuple(Series(1, D - 1, {(i,): aj})
              for i, aj in zip((1, 2, 3, 4, 6), a))
    t = _ladder(a, n, (Series.const(1, D - 1, 1), w))[0]
    return Series(1, D, {(d + 1,): v for (d,), v in t.c.items()})


def _unit_point(a, t):
    """The point (t, w) of E(K) for a unit t of O_K, over O_K
    coefficients a in m_K: the formal group is parametrized by t alone,
    and w is the root = t^3 mod m of the chart equation, by Newton's
    method from t^3.  The derivative is -G_w(t, w), a unit, so each step
    doubles the number of digits of w that are right; the element
    arithmetic tracks what t and the a_j give."""
    a1, a2, a3, a4, a6 = a
    tt = t * t
    w = tt * t
    for _ in range(min(t.prec, max(aj.prec for aj in a)).bit_length()):
        ww = w * w
        G = (tt * t + a1 * (t * w) + a2 * (tt * w) + a3 * ww
             + a4 * (t * ww) + a6 * (w * ww) - w)
        w = w + G * _unit_inverse(_omega_den(a, t, w))
    return t, w


def t_of_multiple(a, n: int, t):
    """t([n]P), n >= 2, for the point P of E(K) with t(P) = t, an element
    of O_K of known valuation r, over O_K coefficients a in m_K.

    The chart change t = pi^r*t', w = pi^(3r)*w' (AEC III.1 with
    u = pi^-r) takes the curve to the model a_i' = pi^(i*r)*a_i, on which
    P is the point of the unit t' = t/pi^r; the ladder runs there, and
    t([n]P) = pi^r*t'([n]P).  Every divisor is a unit (_ladder), so the
    result is known to the precision of t and the a_j."""
    r = t.valuation()
    a = tuple(aj.shift_up(i * r) for i, aj in zip((1, 2, 3, 4, 6), a))
    return _ladder(a, n, _unit_point(a, t.shift_down(r)))[0].shift_up(r)


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
    log = _omega_den(a, T, w_series(a, D - 1)).invert_unit().integrate()
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
    require_normalized(curve)
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
