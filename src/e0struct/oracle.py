"""Brute-force finite-quotient oracle: the group induced by the formal
sum F on O_K/m_K^M, its p-rank and its [p]-kernel count, compared
against a classification report.

The group law here is rebuilt numerically per curve (numpy integer
arithmetic over O_K/p^k), sharing no series code with formal_group: the
chord through two points of the w-series and its third point's negation,
both over the chord's denominator, so that F takes one Newton inversion.
F and [p](T) are truncated at total degree D = max(6M - 5, 3)
(truncation_degree): a dropped coefficient has weight at least D, so at
least ceil(D/6) >= M factors a_j, each in m_K.  The two counts check
each other: one double-and-add ladder over the bits of p runs on points
in p_rank (p*x at every residue) and on series in kernel_count ([p](T),
then evaluated at every residue), and the tests compare that [p](T) with
the engine's.  Both counts contract with one power-major table
x^0 ... x^D of the residues, one contiguous block per power.  On points
the ladder runs on row indices of the residues: a doubling is a lookup
in the doubling map x -> F(x, x), computed once from the diagonal, and
an addition of x contracts the table G_i(x) = sum_j F[i][j] x^j with the
power-table columns of the running sum.  All arithmetic runs through the
primitives of _Ring (a ring product, a truncated series product, a power
table and its contractions), whose worst-case int64 intermediate is
checked before a model is built."""

from __future__ import annotations

import functools
import importlib.util
import math
import sys

from .curve import require_normalized


def _lazy_import(name):
    """The module `name`, executed at its first attribute access: only the
    oracle needs numpy, and a classify process should not load it.  A
    module already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")

SIZE_BOUND = 2 ** 16


class ModelTooLarge(ValueError):
    pass


def _reduce_poly(coords, poly, q):
    """Reduce the 2d-1 coordinate arrays of a product by the monic
    defining polynomial (ascending coefficients); the low d coordinates
    come back mod q as one array (..., d)."""
    d = len(poly) - 1
    c = list(coords)
    for k in range(2 * d - 2, d - 1, -1):
        for i in range(d):
            c[k - d + i] = c[k - d + i] - c[k] * poly[i]
    out = np.empty(np.shape(c[0]) + (d,), dtype=np.int64)
    for k in range(d):
        np.remainder(c[k], q, out=out[..., k])
    return out


class _Ring:
    """O_K/p^kd on the power basis.  Elements are coordinate arrays
    (..., d) with entries in [0, q); a truncated series in one or two
    variables keeps its series axes in front of the coordinate axis:
    (D+1, d) or (D+1, D+1, d), the latter truncated at total degree D."""

    def __init__(self, field, kd):
        self.d = field.deg
        self.q = field.p ** kd
        self.poly = field.poly

    def int64_bound(self, D):
        """Largest intermediate of mul, series_mul and the contractions on
        series truncated at degree D.  A coordinate of an unreduced
        product sums d coordinate products below q^2 per term: one term in
        mul, (r+1)(c+1) <= (D+2)^2/4 at the coefficient (r, c), r + c <= D,
        of series_mul, and at most D+1 <= (D+2)^2/4 in contract and
        contract_triangle.  Each of the d-1 reduction steps by the defining
        polynomial grows the magnitude by at most a factor 1 + H, H its
        largest lower coefficient.  Every factor lies in [0, q), so this
        covers each product a model makes.  The chord: series_mul for
        lam^2, lam^2 (a4 + a6 lam) and nu (a2 + 2 a4 lam + 3 a6 lam^2), and
        mul by the a_j, each sum reduced before it is multiplied.  The
        one denominator: N = B + (S + T) A (reduced before it is
        multiplied), series_mul for lam N and nu A, mul by a1 and by a3 (of
        lam N - nu A, reduced first), invert_unit (2 - az is reduced
        first) on A + a1 N + a3 (lam N - nu A), and series_mul of N by the
        inverse.  Then the power tables, and every contraction over their
        power axis: a row of the triangular G table (D + 1 - i terms), an
        addition of a point (G against the power-table columns gathered at
        the running sum, D + 1 terms), the diagonal F(T, T) (up to D+1
        entries below q per coefficient, reduced mod q first) and [p](T)
        at the residues' power table, and the doublings and additions of
        series in mult_p_series."""
        d = self.d
        H = max(abs(c) for c in self.poly[:d])
        return (D + 2) ** 2 // 4 * d * (self.q - 1) ** 2 * (1 + H) ** (d - 1)

    def _product(self, coord_product):
        """A ring product from its coordinate products: coordinate k of
        the result sums coord_product(a, b) over a + b = k, reduced once."""
        d = self.d
        c = [0] * (2 * d - 1)
        for a in range(d):
            for b in range(d):
                c[a + b] = c[a + b] + coord_product(a, b)
        return _reduce_poly(c, self.poly, self.q)

    def mul(self, X, Y):
        """Ring product of coordinate arrays, broadcast over the leading
        axes (a series times a scalar is mul(A, c))."""
        return self._product(lambda a, b: X[..., a] * Y[..., b])

    def series_mul(self, A, B, bound=None):
        """Product of two truncated series of the same shape, truncated at
        total degree bound (default D).  Each row of coefficients is
        flattened with the coordinate axis at stride 2d - 1, so one
        np.convolve multiplies two rows, coordinates included; in two
        variables only the row pairs whose degrees sum to at most the
        bound are convolved, each cut to the columns it can reach.  There
        the leading zero columns of each row are skipped too, so a row
        pair whose first nonzero columns sum past the bound costs nothing
        (the powers X^j of a series without constant term start at
        total degree j)."""
        D = A.shape[0] - 1
        t = D if bound is None else min(bound, D)
        d, S = self.d, 2 * self.d - 1
        A2, B2 = (A, B) if A.ndim == 3 else (A[None], B[None])
        R = min(len(A2), t + 1)  # t + 1 rows in two variables, 1 in one

        def flat(X):
            rows = np.zeros((R, t + 1, S), dtype=np.int64)
            rows[..., :d] = X[:R, :t + 1]
            if R == 1:  # one row: the scan costs more than it saves
                return rows.reshape(R, -1), [0]
            nz = np.ones((R, t + 2), dtype=bool)  # column t + 1: zero rows
            nz[:, :t + 1] = X[:R, :t + 1].any(-1)
            return rows.reshape(R, -1), nz.argmax(-1).tolist()

        (Af, fa), (Bf, fb) = flat(A2), flat(B2)
        prod = np.zeros_like(Af)
        for i in range(R):
            for j in range(R - i):
                a, b, n = fa[i], fb[j], t + 1 - i - j
                if a + b < n:
                    prod[i + j, (a + b) * S:n * S] += np.convolve(
                        Af[i, a * S:(n - b) * S],
                        Bf[j, b * S:(n - a) * S])[:(n - a - b) * S]
        out = np.zeros_like(A2)
        out[:R, :t + 1] = _reduce_poly(
            np.moveaxis(prod.reshape(R, t + 1, S), -1, 0), self.poly, self.q)
        return out if A.ndim == 3 else out[0]

    def powers(self, X, D, series=False):
        """The power table X^0 ... X^D of ring elements X (..., d), or of
        one truncated series X, power-major: (D+1, ..., d), each power one
        contiguous block.  It takes D - 1 products (mul or series_mul)."""
        P = np.zeros((D + 1,) + X.shape, dtype=np.int64)
        if series:
            P[(0,) * P.ndim] = 1
        else:
            P[0, ..., 0] = 1
        P[1] = X % self.q
        product = self.series_mul if series else self.mul
        for j in range(2, D + 1):
            P[j] = product(P[j - 1], P[1])
        return P

    def contract(self, C, P):
        """sum_j C[j] P[j] over the power axis, the first axis of both the
        coefficients C (D+1, ..., d) and a power table P, summed before
        the one reduction.  The other axes of C broadcast against those of
        P, so C[:, :, None] gives one polynomial per column of C at every
        point of P."""
        return self._product(lambda a, b: np.einsum(
            "j...,j...->...", C[..., a], P[..., b]))

    def contract_triangle(self, C, P):
        """sum_{j <= D-i} C[i, j] P[j] for every row i of a coefficient
        square C (D+1, D+1, d) truncated at total degree D, at the points
        whose power table is P (D+1, N, d); returns (D+1, N, d), each row
        i one contiguous (N, d) block.  Row i stops at column D - i, so
        the triangle is half the square."""
        D = C.shape[0] - 1
        out = np.empty_like(P)
        for i in range(D + 1):
            n = D + 1 - i
            out[i] = self._product(lambda a, b: C[i, :n, a] @ P[:n, :, b])
        return out

    def evaluate(self, C, X, series=False):
        """sum_j C[j] X^j at ring elements X, or at one truncated series
        X: the contraction of the coefficients C (D+1, ..., d) with the
        power table of X."""
        return self.contract(C, self.powers(X, C.shape[0] - 1, series))

    def invert_unit(self, A):
        """Inverse of a series with constant term 1, by Newton iteration
        with doubling truncation.  z = 1 is right below the lowest total
        degree n of A - 1, and each step doubles n; the steps run until
        n passes D, so degree D is right even when D is a power of 2."""
        D = A.shape[0] - 1
        one = np.zeros_like(A)
        one[(0,) * A.ndim] = 1
        degs = sum(np.nonzero((A - one) % self.q)[:-1])
        z, n = one, int(degs.min()) if len(degs) else D + 1
        while n <= D:
            n *= 2
            t = min(n, D)
            az = self.series_mul(A, z, bound=t)
            z = self.series_mul(z, (2 * one - az) % self.q, bound=t)
        assert (self.series_mul(A, z) == one).all(), "unit inversion failed"
        return z


def _numeric_w(ring, a, D):
    """The w-series coefficients (D+1, d), solved degreewise from
    w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3 (the
    symbolic recurrence, in modular coordinate arithmetic)."""
    q, mul = ring.q, ring.mul
    a1, a2, a3, a4, a6 = a
    w = np.zeros((D + 1, ring.d), dtype=np.int64)
    w2 = np.zeros_like(w)  # the coefficients of w^2
    w[3, 0] = 1
    for n in range(4, D + 1):
        # w[n] is still 0, and w vanishes below degree 3
        w2[n] = mul(w[:n + 1], w[n::-1]).sum(0) % q
        w3 = mul(w[:n + 1], w2[n::-1]).sum(0) % q
        w[n] = (mul(a1, w[n - 1]) + mul(a2, w[n - 2]) + mul(a3, w2[n])
                + mul(a4, w2[n - 1]) + mul(a6, w3)) % q
    return w


def _numeric_chord(ring, a, D):
    """The chord through (S, w(S)) and (T, w(T)), as series
    (D+1, D+1, d) mod p^kd truncated at total degree D: its slope lam,
    its intercept nu, and the coefficients A of t^3 and B of t^2 in the
    cubic that w = lam t + nu makes of the w-equation.  The cubic's roots
    are S, T and the chord's third point t3 = -B/A - S - T."""
    a1, a2, a3, a4, a6 = a
    q, mul, smul = ring.q, ring.mul, ring.series_mul
    w = _numeric_w(ring, a, D + 1)
    # the slope lam = (w(S) - w(T))/(S - T) has w_{i+j+1} at S^i T^j,
    # and the intercept nu = w(S) - lam S has -w_{i+j} at i, j >= 1
    i = np.arange(D + 1)
    deg = i[:, None] + i
    kept = (deg <= D)[..., None]
    lam = np.where(kept, w[np.minimum(deg + 1, D + 1)], 0)
    inner = kept & ((i[:, None] > 0) & (i > 0))[..., None]
    nu = np.where(inner, -w[np.minimum(deg, D + 1)], 0) % q
    lam2 = smul(lam, lam)
    # A = 1 + a2 lam + lam^2 (a4 + a6 lam)
    u = mul(lam, a6)
    u[0, 0] += a4
    A = mul(lam, a2) + smul(lam2, u % q)
    A[0, 0, 0] += 1
    # B = a1 lam + a3 lam^2 + nu (a2 + 2 a4 lam + 3 a6 lam^2)
    v = mul(lam, 2 * a4 % q) + mul(lam2, 3 * a6 % q)
    v[0, 0] += a2
    B = mul(lam, a1) + mul(lam2, a3) + smul(nu, v % q)
    return lam, nu, A % q, B % q


def _numeric_F(ring, a, D):
    """The group law F(T1, T2) mod p^kd, truncated at total degree D, as
    an array (D+1, D+1, d): the chord's third point negated,
    F = -t3 (1 - a1 t3 - a3 w3)^{-1} with w3 = lam t3 + nu.  Over the
    chord's denominator A, t3 = -N/A with N = B + (S + T) A, so
    F = N (A + a1 N + a3 (lam N - nu A))^{-1}: one unit inversion, as N,
    lam and nu have no constant term."""
    q, mul, smul = ring.q, ring.mul, ring.series_mul
    lam, nu, A, B = _numeric_chord(ring, a, D)
    # (S + T) A shifts A one degree up in each variable; its degree-D
    # terms would land past the truncation
    i = np.arange(D + 1)
    A_low = np.where((i[:, None] + i < D)[..., None], A, 0)
    N = B.copy()
    N[1:] += A_low[:-1]
    N[:, 1:] += A_low[:, :-1]
    N %= q
    den = A + mul(N, a[0]) + mul((smul(lam, N) - smul(nu, A)) % q, a[2])
    return smul(N, ring.invert_unit(den % q))


def truncation_degree(M):
    """The least D with ceil(D/6) >= M, and at least 3, where the w-series
    starts: F and [p](T) truncated at total degree D are exact mod m^M at
    every point of O_K.  A dropped coefficient has weight at least D in the
    a_j (AEC IV.1), so each of its monomials has at least ceil(D/6) factors
    a_j, of weight j <= 6, and a normalized model has every a_j in m_K."""
    return max(6 * M - 5, 3)


class FiniteModel:
    """The abelian group (O_K/m_K^M, x + y := F(x, y))."""

    def __init__(self, E, M):
        field = require_normalized(E).field
        self.E, self.field, self.M = E, field, M
        self.moduli = field.coeff_moduli(M)
        order = math.prod(self.moduli)
        if order > SIZE_BOUND:
            raise ModelTooLarge(f"|O_K/m^{M}| = {order} > {SIZE_BOUND}")
        self.order = order
        kd = field.int_prec(M)
        self.ring = _Ring(field, kd + 2)  # slack digits for lift checks
        D = self.D = truncation_degree(M)
        # truncation_degree's inequality, at the a_j's least valuation
        assert min(aj._vmin() for aj in E.a) * math.ceil(D / 6) >= M
        bound = self.ring.int64_bound(D)
        if bound >= 2 ** 63:
            raise ModelTooLarge(
                f"worst-case intermediate mod p^{kd + 2} at degree {D} is "
                f"2^{math.log2(bound):.1f}, past the int64 bound 2^63")
        q = self.ring.q
        a = np.array([[c % q for c in ai.coeffs] for ai in E.a],
                     dtype=np.int64)
        self.F = _numeric_F(self.ring, a, D)
        # the diagonal F(T, T): its degree-k coefficient sums F[i][k - i]
        self.diag = np.array([np.trace(self.F[:, ::-1], offset=D - k)
                              for k in range(D + 1)]) % q
        # residues: all canonical coordinate vectors, in lexicographic order
        self.residues = np.indices(self.moduli, dtype=np.int64).reshape(
            field.deg, -1).T
        self._mp_coeffs = None
        self._spot_checks()

    # -- element helpers ---------------------------------------------------

    def canonical(self, X):
        """Reduce coordinate arrays (..., d) to canonical residues."""
        return X % np.array(self.moduli)

    def index(self, X):
        """Row indices in self.residues of the residues of X (..., d): the
        residues are the canonical vectors in lexicographic order."""
        return np.ravel_multi_index(
            tuple(np.moveaxis(self.canonical(X), -1, 0)), self.moduli)

    @functools.cached_property
    def residue_powers(self):
        """x^0 ... x^D at every residue x, (D+1, order, d): the one power
        table that p_rank and kernel_count contract with."""
        return self.ring.powers(self.residues, self.D)

    def add_batch(self, X, Y):
        """F(x, y) = sum_i G_i(y) x^i for paired rows of X and Y
        (coordinates mod p^(kd+2)), with the table
        G_i(y) = sum_{j <= D-i} F[i][j] y^j contracted from F."""
        G = self.ring.contract_triangle(self.F, self.ring.powers(Y, self.D))
        return self.ring.evaluate(G, X)

    def is_zero(self, X):
        """Rows whose residue mod m^M is zero."""
        return ~self.canonical(X).any(-1)

    # -- group facts -------------------------------------------------------

    def _times_p(self, z, double, add_x):
        """p*x from z = x, by the left-to-right ladder over the bits of p:
        z -> 2z at every bit after the leading one, then z -> z + x at a 1."""
        for bit in bin(self.field.p)[3:]:
            z = double(z)
            if bit == "1":
                z = add_x(z)
        return z

    def p_multiples(self):
        """The row index of p*x for every residue x, by the ladder of
        _times_p on index vectors.  F is exact mod m^M at every point of
        O_K, so z + x depends only on the residues of z and x: a doubling
        is a lookup in the doubling map x -> F(x, x), contracted once from
        the diagonal, and an addition of x contracts the G table of the
        residues with the power-table columns gathered at z."""
        ring, P = self.ring, self.residue_powers
        dbl = self.index(ring.contract(self.diag, P))
        G = ring.contract_triangle(self.F, P) if self.field.p > 2 else None
        return self._times_p(
            np.arange(self.order), lambda z: dbl[z],
            lambda z: self.index(ring.contract(G, np.take(P, z, axis=1))))

    def p_rank(self):
        """log_p #{x : p*x = 0}, with p*x from p_multiples."""
        count = int((self.p_multiples() == 0).sum())
        rank = 0
        while self.field.p ** rank < count:
            rank += 1
        if self.field.p ** rank != count:
            raise AssertionError(
                f"p-fold kernel size {count} is not a power of p")
        return rank

    def mult_p_series(self):
        """[p](T) mod p^(kd+2), by the same double-and-add on series as
        p_multiples: a doubling is u -> F(u, u), the diagonal at u, and an
        addition of T is u -> F(u(T), T) = sum_j T^j G_j(u), with
        G_j(u) = sum_i F[i][j] u^i."""
        if self._mp_coeffs is None:
            D, ring = self.D, self.ring

            def add_t(u):
                G = ring.evaluate(self.F[:, :, None], u, series=True)
                v = np.zeros_like(u)
                for j in range(D + 1):
                    v[j:] += G[j, :D + 1 - j]
                return v % ring.q

            T = np.zeros((D + 1, ring.d), dtype=np.int64)
            T[1, 0] = 1
            self._mp_coeffs = self._times_p(
                T, lambda u: ring.evaluate(self.diag, u, series=True), add_t)
        return self._mp_coeffs

    @functools.cached_property
    def _kernel_flags(self):
        """[p](x) = 0 mod m^M at each residue: the series [p](T) of
        mult_p_series contracted with the residues' power table."""
        return self.is_zero(self.ring.contract(self.mult_p_series(),
                                               self.residue_powers))

    def kernel_count(self):
        """#{x : [p](x) = 0 mod m^M}, evaluating the series [p](T) of
        mult_p_series at every residue: a cross-check of p_rank, which
        adds points."""
        return int(self._kernel_flags.sum())

    def kernel_witnesses(self):
        idx = np.nonzero(self._kernel_flags)[0][:5]
        return [list(map(int, self.residues[i])) for i in idx]

    # -- verification ------------------------------------------------------

    def _spot_checks(self):
        """Identity, independence of the lift, associativity and
        commutativity on random residues, in two add_batch calls."""
        rng = np.random.default_rng(0)
        trials = 200
        R, q = len(self.residues), self.ring.q

        def draw(size):
            return self.residues[rng.integers(0, R, size=size)]

        sample = draw(min(30, R))
        X, Y = draw(trials), draw(trials)
        bumps_x = np.zeros_like(X)
        bumps_y = np.zeros_like(Y)
        for i, m in enumerate(self.moduli):
            bumps_x[:, i] = m * rng.integers(0, 4, size=trials)
            bumps_y[:, i] = m * rng.integers(0, 4, size=trials)
        k = min(40, R)
        A, B, C = draw(k), draw(k), draw(k)
        # one batch: x + 0, the sums x + y of residues and of random lifts
        # of them, and the pair sums of the triples
        lhs = [sample, X, (X + bumps_x) % q, A, B, B]
        rhs = [np.zeros_like(sample), Y, (Y + bumps_y) % q, B, C, A]
        cuts = np.cumsum([len(x) for x in lhs])[:-1]
        back, base, lifted, ab, bc, ba = np.split(
            self.add_batch(np.concatenate(lhs), np.concatenate(rhs)), cuts)
        assert (self.canonical(back) == sample).all(), "0 is not the identity"
        assert (self.canonical(lifted) == self.canonical(base)).all(), \
            "addition depends on the lift"
        # the second batch: (A + B) + C and A + (B + C)
        left, right = np.split(self.add_batch(np.concatenate([ab, A]),
                                              np.concatenate([C, bc])), [k])
        assert (self.canonical(left) == self.canonical(right)).all(), \
            "associativity spot-check failed"
        assert (self.canonical(ab) == self.canonical(ba)).all(), \
            "commutativity spot-check failed"


def finite_model(E, M) -> FiniteModel:
    return FiniteModel(E, M)


def compare(E, report, M):
    """Verdict dict comparing a certified report against the oracle.
    A certified report has e = 1 or 6e < p - 1, and there [p] maps the
    formal group's m^r onto m^(r+e) for r >= 1 (AEC IV.6.4; for e = 1
    because each b_i, i >= 2, of [p](T) lies in m).  So m^M lies in
    p E_0(K) from M0 = 1 + e on, and only there does the p-rank of
    O_K/m^M read that of E_0(K)."""
    if not report.certified:
        raise ValueError(
            "oracle comparison requires a certified classification")
    M0 = 1 + E.field.e
    if M < M0:
        raise ValueError(f"level M = {M} is below M0 = 1 + e = {M0}, "
                         f"so the oracle's count decides nothing")
    model = finite_model(E, M)
    predicted = report.structure.free_rank + report.structure.torsion_rank
    rank = model.p_rank()
    kernel = model.kernel_count()
    ok = rank == predicted and kernel == model.field.p ** predicted
    verdict = {"order": model.order,
               "p_rank": rank,
               "kernel_size": kernel,
               "predicted_rank": predicted,
               "verdict": "pass" if ok else "fail"}
    if not ok:
        verdict["witness"] = model.kernel_witnesses()
    return verdict
