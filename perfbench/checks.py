"""Exact arithmetic and closed forms written apart from e0struct.

The benchmark checks the program's answers against these.  Nothing here
imports e0struct: curves are integer coefficient vectors over
Z[X]/(f), with f monic, and every fact below is computed from those
integers directly.
"""

from __future__ import annotations

from itertools import product


def vp(c: int, p: int) -> int | None:
    """p-adic valuation of an integer; None for 0."""
    if c == 0:
        return None
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


# -- polynomials over F_p, coefficient lists low-to-high ---------------------

def _divides(g, f, p):
    """True when the monic g divides f over F_p."""
    r = [c % p for c in f]
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return not any(r[:dg])


def is_irreducible(f, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg f / 2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            if _divides(list(low) + [1], f, p):
                return False
    return True


def residue_modulus(p: int, n: int) -> tuple:
    """The modulus of F_{p^n} in the descriptor format: the monic
    irreducible of degree n with nonzero constant term whose coefficient
    vector, read as a base-p integer (constant term lowest), is least."""
    if n == 1:
        return (0, 1)
    for code in range(p ** n):
        low = [(code // p ** i) % p for i in range(n)]
        if low[0] and is_irreducible(low + [1], p):
            return tuple(low + [1])
    raise ValueError(f"no irreducible of degree {n} over F_{p}")


# -- the ring Z[X]/(f) --------------------------------------------------------

class Ring:
    """Z[X]/(f) for a monic integer f; elements are integer tuples of
    length deg f in the power basis."""

    def __init__(self, f):
        self.f = tuple(f)
        self.d = len(f) - 1

    def add(self, *xs):
        return tuple(sum(cs) for cs in zip(*xs))

    def neg(self, x):
        return tuple(-c for c in x)

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def scale(self, c, x):
        return tuple(c * a for a in x)

    def mul(self, x, y, *more):
        d, f = self.d, self.f
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] += a * b
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(d):
                    prod[k - d + i] -= c * f[i]
        out = tuple(prod[:d])
        return self.mul(out, *more) if more else out

    def mul_matrix(self, x):
        """Matrix of multiplication by x: column j is x * X^j."""
        cols = [self.mul(x, tuple(int(i == j) for i in range(self.d)))
                for j in range(self.d)]
        return [[cols[j][i] for j in range(self.d)] for i in range(self.d)]

    def norm(self, x) -> int:
        """Norm down to Z: the determinant of multiplication by x."""
        return det(self.mul_matrix(x))


def det(m) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# -- Weierstrass models over Z[X]/(f) -----------------------------------------

def discriminant(R: Ring, a):
    a1, a2, a3, a4, a6 = a
    m = R.mul
    b2 = R.add(m(a1, a1), R.scale(4, a2))
    b4 = R.add(R.scale(2, a4), m(a1, a3))
    b6 = R.add(m(a3, a3), R.scale(4, a6))
    b8 = R.sub(R.add(m(a1, a1, a6), R.scale(4, m(a2, a6)), m(a2, a3, a3)),
               R.add(m(a1, a3, a4), m(a4, a4)))
    return R.add(R.neg(m(b2, b2, b8)), R.scale(-8, m(b4, b4, b4)),
                 R.scale(-27, m(b6, b6)), R.scale(9, m(b2, b4, b6)))


def change_coordinates(R: Ring, a, r, s, t):
    """The model after X = X' + r, Y = Y' + s X' + t (Silverman III.1)."""
    a1, a2, a3, a4, a6 = a
    m = R.mul
    return (
        R.add(a1, R.scale(2, s)),
        R.add(R.sub(a2, m(s, a1)), R.scale(3, r), R.neg(m(s, s))),
        R.add(a3, m(r, a1), R.scale(2, t)),
        R.add(R.sub(a4, m(s, a3)), R.scale(2, m(r, a2)),
              R.neg(m(R.add(t, m(r, s)), a1)), R.scale(3, m(r, r)),
              R.scale(-2, m(s, t))),
        R.add(a6, m(r, a4), m(r, r, a2), m(r, r, r), R.neg(m(t, a3)),
              R.neg(m(t, t)), R.neg(m(r, t, a1))),
    )


def valuation_unramified(x, p):
    """v_p on Z[X]/(f) with f irreducible mod p: the least coefficient
    valuation, since the power basis reduces to a basis of the residue
    field."""
    vs = [v for v in (vp(c, p) for c in x) if v is not None]
    return min(vs) if vs else None


def valuation_eisenstein(R: Ring, x, p):
    """v_pi on a totally ramified ring: v_p of the norm (f = 1)."""
    return vp(R.norm(x), p)


# -- the paper's closed forms -------------------------------------------------

# Q_p congruences on a normalized model: torsion iff the quantity lies in
# the residue class, Corollaries (i)-(iv)
CONGRUENCES = {2: ("a1+a3", 4, 2), 3: (1, 9, 6), 5: (3, 25, 10),
               7: (4, 49, 14)}
# norm criterion over F_{p^n}: torsion iff N(factor * a_idx / p) = 1
NORM_CRITERION = {3: (8, 1), 5: (3, 3), 7: (4, 4)}


def torsion_rank(p: int, n: int, a) -> int | None:
    """dim_{F_p} of the torsion of E_0(K) for a normalized model a (all
    a_i in pZ[X]/(f)) over the unramified K of degree n; None where the
    paper gives no closed form (p = 2, n >= 2)."""
    if p > 7:  # 6e < p - 1 with e = 1: torsion-free
        return 0
    if n == 1:
        which, mod, res = CONGRUENCES[p]
        val = a[0][0] + a[2][0] if which == "a1+a3" else a[which][0]
        return int(val % mod == res)
    if p in NORM_CRITERION:
        factor, idx = NORM_CRITERION[p]
        c = tuple((factor * ci // p) % p for ci in a[idx])
        if not any(c):
            return 0
        R = Ring(residue_modulus(p, n))
        return int(R.norm(c) % p == 1)
    return None


def structure_str(p: int, free_rank: int, torsion_rank: int) -> str:
    """The CLI's text for Z_p^free_rank x (Z/pZ)^torsion_rank."""
    parts = [f"Z_{p}" if free_rank == 1 else f"Z_{p}^{free_rank}"]
    if torsion_rank == 1:
        parts.append(f"Z/{p}Z")
    elif torsion_rank:
        parts.append(f"(Z/{p}Z)^{torsion_rank}")
    return " x ".join(parts)
