"""Brute-force finite-quotient oracle: the group induced by the formal
sum F on O_K/m_K^M, its p-rank via iterated self-addition, and the
[p]-kernel count, compared against a classification report.

The group law here is rebuilt numerically per curve (numpy integer
convolutions over O_K/p^k), sharing no series code with formal_group;
only the [p]-kernel count reuses the engine's specialized [p] series,
deliberately cross-validating the two."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.signal import convolve2d

from .formal_group import specialized_mult_by_n

SIZE_BOUND = 2 ** 16


class ModelTooLarge(ValueError):
    pass


def _vec_mul(u, v, poly, q):
    """Product of two O_K/p^q-elements as coefficient tuples, reduced by
    the monic defining polynomial (ascending coefficients)."""
    d = len(u)
    prod = [0] * (2 * d - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(d):
                prod[k - d + i] -= c * poly[i]
    return tuple(c % q for c in prod[:d])


def _reduce_poly(prod, poly, q):
    """Reduce product coefficients (..., 2d-1) by the monic defining
    polynomial on the last axis; the full width holds the intermediate
    high terms, and the low d coefficients are returned mod q."""
    d = len(poly) - 1
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[..., k]
        for i in range(d):
            prod[..., k - d + i] -= c * poly[i]
    return prod[..., :d] % q


class _Ring:
    """O_K/p^kd with numpy-array series arithmetic."""

    def __init__(self, field, kd):
        self.field = field
        self.d = field.deg
        self.q = field.p ** kd
        self.poly = field.poly

    def vmul(self, u, v):
        return _vec_mul(u, v, self.poly, self.q)

    def mulmat(self, c):
        """d x d integer matrix of multiplication by c on the power basis."""
        d = self.d
        cols = []
        for i in range(d):
            basis = tuple(1 if j == i else 0 for j in range(d))
            cols.append(self.vmul(c, basis))
        return np.array(cols, dtype=np.int64).T  # row k, col i

    def biv_zero(self, D):
        return np.zeros((D + 1, D + 1, self.d), dtype=np.int64)

    def _mask(self, A):
        D = A.shape[0] - 1
        i = np.arange(D + 1)
        bad = i[:, None] + i[None, :] > D
        A[bad] = 0
        return A

    def biv_mul(self, A, B, bound=None):
        """Product truncated at total degree bound (default: array size).
        A smaller bound lets the convolutions run on trimmed arrays."""
        D = A.shape[0] - 1
        d = self.d
        t = D if bound is None else min(bound, D)
        out = np.zeros((t + 1, t + 1, 2 * d - 1), dtype=np.int64)
        As, Bs = A[: t + 1, : t + 1], B[: t + 1, : t + 1]
        for i in range(d):
            for j in range(d):
                out[:, :, i + j] += convolve2d(
                    As[:, :, i], Bs[:, :, j])[: t + 1, : t + 1]
        res = _reduce_poly(out, self.poly, self.q)
        i = np.arange(t + 1)
        res[i[:, None] + i[None, :] > t] = 0
        if t == D:
            return res
        full = np.zeros_like(A)
        full[: t + 1, : t + 1] = res
        return full

    def biv_scalar(self, A, c):
        return np.tensordot(A, self.mulmat(c), axes=([2], [1])) % self.q

    def biv_shift(self, A, axis):
        out = np.zeros_like(A)
        if axis == 0:
            out[1:] = A[:-1]
        else:
            out[:, 1:] = A[:, :-1]
        return self._mask(out)

    def biv_invert_unit(self, A):
        """Inverse of a series with constant term 1, by Newton iteration
        with doubling truncation."""
        D = A.shape[0] - 1
        z = self.biv_zero(D)
        z[0, 0, 0] = 1
        t = 1
        while True:
            t = min(2 * t, D)
            az = self.biv_mul(A, z, bound=t)
            az = (-az) % self.q
            az[0, 0, 0] = (az[0, 0, 0] + 2) % self.q
            z = self.biv_mul(z, az, bound=t)
            if t == D:
                break
        check = self.biv_mul(A, z)
        check[0, 0, 0] -= 1
        assert not check.any(), "unit inversion failed"
        return z


def _numeric_w(ring, a, D):
    """The w-series coefficient vectors, solved degreewise (mirrors the
    symbolic recurrence but in modular vector arithmetic)."""
    d = ring.d
    zero = tuple([0] * d)
    one = tuple([1] + [0] * (d - 1))
    a1, a2, a3, a4, a6 = a
    c = {3: one}

    def vadd(u, v):
        return tuple((x + y) % ring.q for x, y in zip(u, v))

    for n in range(4, D + 1):
        v = zero
        if n - 1 in c:
            v = vadd(v, ring.vmul(a1, c[n - 1]))
        if n - 2 in c:
            v = vadd(v, ring.vmul(a2, c[n - 2]))
        for m, coeff in ((n, a3), (n - 1, a4)):
            s = zero
            for i in range(3, m - 2):
                if i in c and m - i in c:
                    s = vadd(s, ring.vmul(c[i], c[m - i]))
            v = vadd(v, ring.vmul(coeff, s))
        s = zero
        for i in range(3, n - 5):
            for j in range(3, n - i - 2):
                kk = n - i - j
                if kk >= 3 and i in c and j in c and kk in c:
                    s = vadd(s, ring.vmul(c[i], ring.vmul(c[j], c[kk])))
        v = vadd(v, ring.vmul(a6, s))
        if any(v):
            c[n] = v
    return c


def _numeric_F(ring, a, D):
    """The group law F(T1, T2) mod p^kd, truncated at total degree D, as
    an array (D+1, D+1, d): the chord construction in modular arithmetic."""
    a1, a2, a3, a4, a6 = a
    q, d = ring.q, ring.d
    w = _numeric_w(ring, a, D + 1)
    S = ring.biv_zero(D)
    S[1, 0, 0] = 1
    T = ring.biv_zero(D)
    T[0, 1, 0] = 1
    lam = ring.biv_zero(D)
    P = S + T
    Tpow = ring.biv_shift(T, 1)
    for m in range(3, D + 2):
        P = ring.biv_shift(P, 0) + Tpow
        P %= q
        Tpow = ring.biv_shift(Tpow, 1)
        if m in w:
            lam = (lam + ring.biv_scalar(P, w[m])) % q
    w_at_s = ring.biv_zero(D)
    for m, v in w.items():
        if m <= D:
            w_at_s[m, 0] = v
    nu = (w_at_s - ring.biv_shift(lam, 0)) % q
    lam2 = ring.biv_mul(lam, lam)
    lamnu = ring.biv_mul(lam, nu)
    two_a4 = ring.vmul(tuple((2 * x) % q for x in a4),
                       tuple([1] + [0] * (d - 1)))
    three_a6 = tuple((3 * x) % q for x in a6)
    B = (ring.biv_scalar(lam, a1) + ring.biv_scalar(lam2, a3)
         + ring.biv_scalar(nu, a2) + ring.biv_scalar(lamnu, two_a4)
         + ring.biv_scalar(ring.biv_mul(lam, lamnu), three_a6)) % q
    A = (ring.biv_scalar(lam, a2) + ring.biv_scalar(lam2, a4)
         + ring.biv_scalar(ring.biv_mul(lam2, lam), a6)) % q
    A[0, 0, 0] = (A[0, 0, 0] + 1) % q
    t3 = (-(ring.biv_mul(B, ring.biv_invert_unit(A))) - S - T) % q
    # i(t) = t * (-1 + a1 t + a3 w)^{-1}, composed with t3 by Horner;
    # at step m the accumulator is later multiplied by t3^(m-1), whose
    # minimum total degree is m-1, so degree D-m+1 truncation is safe
    inv_coeffs = _numeric_inverse(ring, a, w, D)
    result = ring.biv_zero(D)
    for m in range(D, 0, -1):
        result = ring.biv_mul(result, t3, bound=D - m + 1)
        if m in inv_coeffs:
            result[0, 0] = (result[0, 0] + inv_coeffs[m]) % q
    # the loop leaves sum_m inv_m * t3^(m-1); one more factor of t3
    return ring.biv_mul(result, t3)


def _numeric_inverse(ring, a, w, D):
    """Coefficients of i(t) = t*(-1 + a1 t + a3 w(t))^{-1} mod p^kd."""
    q, d = ring.q, ring.d
    a1, a2, a3, a4, a6 = a
    den = {0: tuple([q - 1] + [0] * (d - 1)), 1: a1}
    for m, v in w.items():
        if m <= D:
            acc = ring.vmul(a3, v)
            if m in den:
                acc = tuple((x + y) % q for x, y in zip(acc, den[m]))
            den[m] = acc
    # invert the unit series by the triangular recurrence
    c0 = den[0][0]
    assert c0 == q - 1 and not any(den[0][1:])
    inv0 = tuple([q - 1] + [0] * (d - 1))  # 1/(-1) = -1
    inv = {0: inv0}
    for m in range(1, D + 1):
        s = tuple([0] * d)
        for k in range(1, m + 1):
            if k in den and m - k in inv:
                t = ring.vmul(den[k], inv[m - k])
                s = tuple((x + y) % q for x, y in zip(s, t))
        inv[m] = ring.vmul(inv0, tuple((-x) % q for x in s))
    # i(t) = t * inv: shift by one
    return {m + 1: np.array(v, dtype=np.int64)
            for m, v in inv.items() if any(v) and m + 1 <= D}


class FiniteModel:
    """The abelian group (O_K/m_K^M, x + y := F(x, y))."""

    def __init__(self, E, M, size_bound=SIZE_BOUND):
        field = E.field
        if not E.is_normalized():
            raise ValueError("finite_model requires a normalized curve")
        self.E, self.field, self.M = E, field, M
        p, e, d = field.p, field.e, field.deg
        self.moduli = [field.coeff_modulus(i, M) for i in range(d)]
        order = 1
        for m in self.moduli:
            order *= m
        if order > size_bound:
            raise ModelTooLarge(f"|O_K/m^{M}| = {order} > {size_bound}")
        self.order = order
        kd = field.int_prec(M)
        self.ring = _Ring(field, kd + 2)  # slack digits for lift checks
        self.q = field.p ** kd
        D = 6 * M + 2
        self.D = D
        # truncation soundness: the first dropped coefficient has weight
        # >= D, so valuation >= e*ceil(D/6) >= M even at unit arguments
        assert e * (-(-D // 6)) >= M
        avec = [tuple(c % self.ring.q for c in ai.coeffs) for ai in E.a]
        self.F = _numeric_F(self.ring, avec, D)
        # residues: all canonical coordinate vectors
        self.residues = np.array(
            list(itertools.product(*(range(m) for m in self.moduli))),
            dtype=np.int64)
        self._mp_coeffs = None
        self._spot_checks()

    # -- element helpers ---------------------------------------------------

    def canonical(self, X):
        """Reduce coordinate arrays (..., d) to canonical residues."""
        out = X % self.q
        for i, m in enumerate(self.moduli):
            out[..., i] %= m
        return out

    def _batch_mul(self, X, Y):
        """Elementwise ring product of (..., d) coordinate arrays."""
        d = self.ring.d
        prod = np.zeros(X.shape[:-1] + (2 * d - 1,), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                prod[..., i + j] += X[..., i] * Y[..., j]
        return _reduce_poly(prod, self.ring.poly, self.ring.q)

    def _g_rows(self, Y):
        """G_i(y) = sum_j F[i][j] y^j for all i, vectorized over rows of
        Y; returns array (D+1, len(Y), d)."""
        D = self.D
        G = np.zeros((D + 1,) + Y.shape, dtype=np.int64)
        for i in range(D + 1):
            acc = np.zeros_like(Y)
            for j in range(D, -1, -1):
                acc = self._batch_mul(acc, Y)
                acc[..., :] = (acc + self.F[i, j]) % self.ring.q
            G[i] = acc
        return G

    def add_batch(self, X, Y, G=None):
        """F(x, y) for paired rows of X and Y (coordinates mod p^(kd+2))."""
        if G is None:
            G = self._g_rows(Y)
        acc = np.zeros_like(X)
        for i in range(self.D, -1, -1):
            acc = (self._batch_mul(acc, X) + G[i]) % self.ring.q
        return acc

    def add(self, x, y):
        X = np.array([x], dtype=np.int64)
        Y = np.array([y], dtype=np.int64)
        return tuple(self.canonical(self.add_batch(X, Y))[0])

    def is_zero(self, X):
        """Rows whose residue mod m^M is zero."""
        Z = X % self.q
        flags = np.ones(X.shape[:-1], dtype=bool)
        for i, m in enumerate(self.moduli):
            flags &= Z[..., i] % m == 0
        return flags

    # -- group facts -------------------------------------------------------

    def p_rank(self):
        """log_p #{x : x + ... + x (p times) = 0}, by iterated addition."""
        X = self.residues
        G = self._g_rows(X)
        Z = X.copy()
        for _ in range(self.field.p - 1):
            Z = self.add_batch(Z, X, G=G)
        count = int(self.is_zero(Z).sum())
        rank = 0
        while self.field.p ** rank < count:
            rank += 1
        if self.field.p ** rank != count:
            raise AssertionError(
                f"p-fold kernel size {count} is not a power of p")
        return rank

    def _uni_mul(self, A, B):
        """Product of univariate series arrays (D+1, d), truncated at D."""
        d, D = self.ring.d, self.D
        prod = np.zeros((D + 1, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                prod[:, i + j] += np.convolve(A[:, i], B[:, j])[: D + 1]
        return _reduce_poly(prod, self.ring.poly, self.ring.q)

    def mult_p_series(self):
        """[p](T) mod p^(kd+2) by iterating u -> F(u(T), T)."""
        if self._mp_coeffs is None:
            D, q = self.D, self.ring.q
            u = np.zeros((D + 1, self.ring.d), dtype=np.int64)
            u[1, 0] = 1
            for _ in range(self.field.p - 1):
                acc = np.zeros_like(u)
                for i in range(D, -1, -1):
                    acc = (self._uni_mul(acc, u) + self.F[i]) % q
                u = acc
            self._mp_coeffs = u
        return self._mp_coeffs

    def engine_mult_p_series(self):
        """[p](T) from the engine's specialized tangent-chord route, in
        the same array shape; fixture tests assert it matches
        mult_p_series."""
        mp = specialized_mult_by_n(self.E.a, self.field.p, self.D)
        d, D = self.ring.d, self.D
        out = np.zeros((D + 1, d), dtype=np.int64)
        for (m,), c in mp.c.items():
            vec = list(c.coeffs) if hasattr(c, "coeffs") else [c]
            vec += [0] * (d - len(vec))
            out[m] = [v % self.ring.q for v in vec]
        return out

    def _kernel_flags(self):
        u = self.mult_p_series()
        X = self.residues
        acc = np.zeros_like(X)
        for m in range(self.D, -1, -1):
            acc = (self._batch_mul(acc, X) + u[m]) % self.ring.q
        return self.is_zero(acc)

    def kernel_count(self):
        """#{x : [p](x) = 0 mod m^M}; [p] is built from F by repeated
        composition, cross-checking iterated addition (p_rank) against
        composition."""
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


def finite_model(E, M, size_bound=SIZE_BOUND) -> FiniteModel:
    return FiniteModel(E, M, size_bound=size_bound)


def p_rank(model: FiniteModel) -> int:
    return model.p_rank()


def compare(E, report, M, size_bound=SIZE_BOUND):
    """Verdict dict comparing a certified report against the oracle."""
    if not report.certified:
        raise ValueError("compare requires a certified report")
    model = finite_model(E, M, size_bound=size_bound)
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
