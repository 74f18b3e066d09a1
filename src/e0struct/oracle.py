"""Brute-force finite-quotient oracle: the group induced by the formal
sum F on O_K/m_K^M, its p-rank and its [p]-kernel count, compared
against a classification report.

The group law here is rebuilt numerically per curve (numpy integer
arithmetic over O_K/p^k), sharing no series code with formal_group.
The two counts check each other: one double-and-add ladder over the
bits of p runs on points in p_rank (p*x at every residue) and on series
in kernel_count ([p](T), then evaluated at every residue), and the
tests compare that [p](T) with the engine's.  All arithmetic runs
through three primitives of _Ring (a ring product, a truncated series
product and a polynomial evaluation), whose worst-case int64
intermediate is checked before a model is built."""

from __future__ import annotations

import importlib.util
import math
import sys


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
        """Largest intermediate of mul, series_mul and evaluate on series
        truncated at degree D.  A coordinate of an unreduced product sums
        d coordinate products below q^2 per term: one term in mul,
        (r+1)(c+1) <= (D+2)^2/4 at the coefficient (r, c), r + c <= D, of
        series_mul, and D+1 <= (D+2)^2/4 in evaluate.  Each of the d-1
        reduction steps by the defining polynomial grows the magnitude by
        at most a factor 1 + H, H its largest lower coefficient.  Every
        factor lies in [0, q), so this covers each product a model makes:
        the chord's and the negation's series_mul (t3 by the unit inverse)
        and mul (a1 t3, a3 w3), invert_unit (2 - az is reduced first), and
        evaluate at the G table, at each addition or doubling of a point
        or series (the diagonal F(T, T) sums up to D+1 entries below q per
        coefficient, reduced mod q first) and at the series of [p]."""
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

    def evaluate(self, C, X, series=False):
        """sum_j C[..., j] X^j at ring elements X, or at one truncated
        series X.  The power table X^0 ... X^D takes D - 1 products (mul
        or series_mul), and its contraction with the coefficient rows
        C (..., D+1, d) sums over j before the one reduction.  The other
        leading axes of C broadcast against those of X, so C[:, None]
        gives one polynomial per row of C at every point of X."""
        D = C.shape[-2] - 1
        product = self.series_mul if series else self.mul
        P = np.zeros((D + 1,) + X.shape, dtype=np.int64)
        if series:
            P[(0,) * P.ndim] = 1
        else:
            P[0, ..., 0] = 1
        P[1] = X % self.q
        for j in range(2, D + 1):
            P[j] = product(P[j - 1], P[1])
        return self._product(lambda a, b: np.einsum(
            "...j,j...->...", C[..., a], P[..., b]))

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
    """The third point (t3, w3) of the chord through (S, w(S)) and
    (T, w(T)), as series (D+1, D+1, d) mod p^kd truncated at total
    degree D."""
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
    lamnu = smul(lam, nu)
    B = (mul(lam, a1) + mul(lam2, a3) + mul(nu, a2)
         + mul(lamnu, 2 * a4 % q) + mul(smul(lam, lamnu), 3 * a6 % q)) % q
    A = mul(lam, a2) + mul(lam2, a4) + mul(smul(lam2, lam), a6)
    A[0, 0, 0] += 1
    t3 = -smul(B, ring.invert_unit(A % q))
    t3[1, 0, 0] -= 1
    t3[0, 1, 0] -= 1
    t3 %= q
    return t3, (smul(lam, t3) + nu) % q


def _numeric_F(ring, a, D):
    """The group law F(T1, T2) mod p^kd, truncated at total degree D, as
    an array (D+1, D+1, d): the chord's third point negated,
    F = -t3 (1 - a1 t3 - a3 w3)^{-1}."""
    t3, w3 = _numeric_chord(ring, a, D)
    den = -(ring.mul(t3, a[0]) + ring.mul(w3, a[2]))
    den[0, 0, 0] += 1
    return -ring.series_mul(t3, ring.invert_unit(den % ring.q)) % ring.q


class FiniteModel:
    """The abelian group (O_K/m_K^M, x + y := F(x, y))."""

    def __init__(self, E, M):
        field = E.field
        if not E.is_normalized():
            raise ValueError("finite_model requires a normalized curve")
        self.E, self.field, self.M = E, field, M
        p, d = field.p, field.deg
        self.moduli = [field.coeff_modulus(i, M) for i in range(d)]
        order = math.prod(self.moduli)
        if order > SIZE_BOUND:
            raise ModelTooLarge(f"|O_K/m^{M}| = {order} > {SIZE_BOUND}")
        self.order = order
        kd = field.int_prec(M)
        self.ring = _Ring(field, kd + 2)  # slack digits for lift checks
        self.q = p ** kd
        D = 6 * M + 2
        self.D = D
        # truncation soundness: the first dropped coefficient has weight
        # >= D, so each of its monomials has at least ceil(D/6) factors
        # a_j, and every a_j lies in m_K (not always in m_K^e): the
        # dropped terms have valuation >= ceil(D/6) > M even at units
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
            d, -1).T
        self._mp_coeffs = None
        self._spot_checks()

    # -- element helpers ---------------------------------------------------

    def canonical(self, X):
        """Reduce coordinate arrays (..., d) to canonical residues."""
        out = X % self.q
        for i, m in enumerate(self.moduli):
            out[..., i] %= m
        return out

    def _g_rows(self, Y):
        """G_i(y) = sum_j F[i][j] y^j for all i, vectorized over rows of
        Y; returns array (D+1, len(Y), d)."""
        return self.ring.evaluate(self.F[:, None], Y)

    def add_batch(self, X, Y, G=None):
        """F(x, y) = sum_i G_i(y) x^i for paired rows of X and Y
        (coordinates mod p^(kd+2))."""
        if G is None:
            G = self._g_rows(Y)
        return self.ring.evaluate(G.transpose(1, 0, 2), X)

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

    def times_p(self, X):
        """p*x for the rows x of X: a doubling evaluates the diagonal
        F(T, T), an addition of x reuses one G table of X.  F is exact
        mod m^M at every point of O_K, so every bracketing of x + ... + x
        has the same residue."""
        G = self._g_rows(X) if self.field.p > 2 else None
        return self._times_p(X, lambda Z: self.ring.evaluate(self.diag, Z),
                             lambda Z: self.add_batch(Z, X, G=G))

    def p_rank(self):
        """log_p #{x : p*x = 0}, with p*x from times_p."""
        count = int(self.is_zero(self.times_p(self.residues)).sum())
        rank = 0
        while self.field.p ** rank < count:
            rank += 1
        if self.field.p ** rank != count:
            raise AssertionError(
                f"p-fold kernel size {count} is not a power of p")
        return rank

    def mult_p_series(self):
        """[p](T) mod p^(kd+2), by the same double-and-add on series as
        times_p: a doubling is u -> F(u, u), the diagonal at u, and an
        addition of T is u -> F(u(T), T) = sum_j T^j G_j(u), with
        G_j(u) = sum_i F[i][j] u^i."""
        if self._mp_coeffs is None:
            D, ring = self.D, self.ring
            C = self.F.transpose(1, 0, 2)[:, None]

            def add_t(u):
                G = ring.evaluate(C, u, series=True)
                v = np.zeros_like(u)
                for j in range(D + 1):
                    v[j:] += G[j, :D + 1 - j]
                return v % ring.q

            T = np.zeros((D + 1, ring.d), dtype=np.int64)
            T[1, 0] = 1
            self._mp_coeffs = self._times_p(
                T, lambda u: ring.evaluate(self.diag, u, series=True), add_t)
        return self._mp_coeffs

    def _kernel_flags(self):
        return self.is_zero(self.ring.evaluate(self.mult_p_series(),
                                               self.residues))

    def kernel_count(self):
        """#{x : [p](x) = 0 mod m^M}, evaluating the series [p](T) of
        mult_p_series at every residue: a cross-check of p_rank, which
        adds points."""
        return int(self._kernel_flags().sum())

    def kernel_witnesses(self, limit=5):
        idx = np.nonzero(self._kernel_flags())[0][:limit]
        return [list(map(int, self.residues[i])) for i in idx]

    # -- verification ------------------------------------------------------

    def _spot_checks(self, trials=200, seed=0):
        rng = np.random.default_rng(seed)
        R = len(self.residues)
        # identity
        zero = np.zeros((1, self.ring.d), dtype=np.int64)
        sample = self.residues[rng.integers(0, R, size=min(30, R))]
        back = self.canonical(self.add_batch(
            sample.copy(), np.repeat(zero, len(sample), axis=0)))
        assert (back == sample).all(), "0 is not the identity"
        # well-definedness: random lifts of the same residues agree
        X = self.residues[rng.integers(0, R, size=trials)].copy()
        Y = self.residues[rng.integers(0, R, size=trials)].copy()
        base = self.canonical(self.add_batch(X, Y))
        bumps_x = np.zeros_like(X)
        bumps_y = np.zeros_like(Y)
        for i, m in enumerate(self.moduli):
            bumps_x[:, i] = m * rng.integers(0, 4, size=trials)
            bumps_y[:, i] = m * rng.integers(0, 4, size=trials)
        lifted = self.canonical(self.add_batch((X + bumps_x) % self.ring.q,
                                               (Y + bumps_y) % self.ring.q))
        assert (lifted == base).all(), "addition depends on the lift"
        # associativity on random triples
        k = min(40, R)
        A = self.residues[rng.integers(0, R, size=k)].copy()
        B = self.residues[rng.integers(0, R, size=k)].copy()
        C = self.residues[rng.integers(0, R, size=k)].copy()
        left = self.canonical(self.add_batch(self.add_batch(A, B), C))
        right = self.canonical(self.add_batch(A, self.add_batch(B, C)))
        assert (left == right).all(), "associativity spot-check failed"
        # commutativity
        ab = self.canonical(self.add_batch(A, B))
        ba = self.canonical(self.add_batch(B, A))
        assert (ab == ba).all(), "commutativity spot-check failed"


def finite_model(E, M) -> FiniteModel:
    return FiniteModel(E, M)


def compare(E, report, M):
    """Verdict dict comparing a certified report against the oracle."""
    if not report.certified:
        raise ValueError("compare requires a certified report")
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
