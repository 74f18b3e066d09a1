"""Exact arithmetic in finite fields F_{p^n}.

Provides the inverse Frobenius, the norm and trace maps down to the prime
field, and kernel computation for additive polynomials (polynomials
supported on p-power exponents only), which induce F_p-linear
endomorphisms of the field.
"""

from __future__ import annotations

import itertools


def power(x, k: int, one):
    """x^k for k >= 0 by square-and-multiply from one, for any ring with
    a `*`: one * x^(2^i) over the set bits i of k, lowest first."""
    if k < 0:
        raise ValueError("negative exponent")
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


# -- dense polynomials over F_p, coefficient lists low-to-high --------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, f, p):
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _poly_trim([c % p for c in a[:df]])


def _poly_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _poly_mod(out, f, p)


def _poly_powmod(a, k, f, p):
    result = [1]
    base = _poly_mod(a, f, p)
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        k >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim([c % p for c in a]), _poly_trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b):
            if not (r := _poly_trim(r)):
                break
            if len(r) < len(b):
                break
            c = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - c * b[j]) % p
            r = _poly_trim(r)
        a, b = b, _poly_trim(r)
    return a


def _is_irreducible(modulus, p):
    """Check irreducibility of a monic polynomial over F_p.

    Uses gcd(X^{p^i} - X, f) = 1 for 1 <= i <= deg/2, which rules out
    irreducible factors of any degree up to deg/2.
    """
    n = len(modulus) - 1
    if n == 1:
        return True
    x = [0, 1]
    xp = x
    for _ in range(n // 2):
        xp = _poly_powmod(xp, p, modulus, p)
        diff = [(a - b) % p for a, b in itertools.zip_longest(xp, x, fillvalue=0)]
        g = _poly_gcd(modulus, diff, p)
        if len(g) > 1:
            return False
    return True


def smallest_irreducible(p: int, n: int):
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Candidates are ordered by their coefficient vector read as a base-p
    integer, which is deterministic and reproducible across runs.
    """
    if n == 1:
        return (0, 1)
    for code in range(p ** n):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % p)
            c //= p
        candidate = coeffs + [1]
        if candidate[0] == 0:
            continue
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over F_{p}")


class FiniteField:
    """The field F_{p^n} presented as F_p[X]/(modulus), the modulus being
    smallest_irreducible(p, n)."""

    def __init__(self, p: int, n: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.modulus = smallest_irreducible(p, n)
        self.order = p ** n

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, n={self.n})"

    def element(self, coeffs) -> "FFElement":
        if isinstance(coeffs, FFElement):
            if coeffs.parent != self:
                raise ValueError("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        coeffs = list(coeffs)[: self.n]
        coeffs += [0] * (self.n - len(coeffs))
        return FFElement(self, tuple(c % self.p for c in coeffs))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    @property
    def gen(self):
        """Class of X; a root of the modulus (not 1 unless n == 1)."""
        return self.element([0, 1])

    def prime_field(self) -> "FiniteField":
        return self if self.n == 1 else FiniteField(self.p, 1)

    def __iter__(self):
        for tup in itertools.product(range(self.p), repeat=self.n):
            yield FFElement(self, tup)


class FFElement:
    """Element of F_{p^n}, stored as a length-n coefficient vector."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: FiniteField, coeffs):
        self.parent = parent
        self.coeffs = tuple(coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.parent.element(other)
        return (isinstance(other, FFElement)
                and self.parent == other.parent and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.parent.p, self.parent.modulus, self.coeffs))

    def __repr__(self):
        return f"FF{list(self.coeffs)}"

    def _coerce(self, other):
        if isinstance(other, int):
            return self.parent.element(other)
        if isinstance(other, FFElement) and other.parent == self.parent:
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.parent.p
        return FFElement(self.parent, ((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.parent.p
        return FFElement(self.parent, ((-a) % p for a in self.coeffs))

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
        k = self.parent
        prod = _poly_mulmod(list(self.coeffs), list(o.coeffs), list(k.modulus), k.p)
        prod = list(prod) + [0] * (k.n - len(prod))
        return FFElement(k, prod)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.parent.one)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self ** (self.parent.order - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def is_in_prime_field(self):
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        """Value as an integer in [0, p) for prime-field elements."""
        if not self.is_in_prime_field():
            raise ValueError("element is not in the prime field")
        return self.coeffs[0]


def frobenius(a: FFElement) -> FFElement:
    """The p-power Frobenius x -> x^p."""
    return a ** a.parent.p


def frobenius_inverse(a: FFElement) -> FFElement:
    """The p-th root x -> x^(q/p), inverse of Frobenius on F_q."""
    k = a.parent
    return a ** (k.order // k.p)


def ff_trace(a: FFElement) -> FFElement:
    """Trace from F_{p^n} down to F_p: the sum of the Frobenius
    conjugates a + a^p + ... + a^(p^(n-1))."""
    acc = conj = a
    for _ in range(a.parent.n - 1):
        conj = frobenius(conj)
        acc = acc + conj
    return a.parent.prime_field().element(acc.as_int())


def ff_norm(a: FFElement) -> FFElement:
    """Norm from F_{p^n} down to F_p: the product of all Frobenius
    conjugates, equal to a^((p^n - 1)/(p - 1)).  Norm of 0 is 0."""
    k = a.parent
    if not a:
        return k.prime_field().zero
    exp = (k.order - 1) // (k.p - 1)
    val = a ** exp
    return k.prime_field().element(val.as_int())


class AdditivePoly:
    """An additive polynomial sum_j c_j X^{p^j} over F_{p^n}.

    Induces an F_p-linear endomorphism of the field; only p-power
    exponents occur.
    """

    def __init__(self, parent: FiniteField, coeffs):
        self.parent = parent
        self.coeffs = tuple(parent.element(c) for c in coeffs)

    def __repr__(self):
        return f"AdditivePoly({list(self.coeffs)})"

    def __call__(self, x: FFElement) -> FFElement:
        k = self.parent
        acc = k.zero
        xq = x
        for c in self.coeffs:
            acc = acc + c * xq
            xq = xq ** k.p
        return acc

    def matrix(self):
        """Matrix over F_p of the induced linear map on the basis 1, X, ...,
        X^{n-1}; column j is the image of the j-th basis vector."""
        k = self.parent
        cols = []
        for j in range(k.n):
            basis = k.element([0] * j + [1])
            cols.append(self(basis).coeffs)
        # rows indexed by coordinate, columns by basis vector
        return [[cols[j][i] for j in range(k.n)] for i in range(k.n)]


def _fp_kernel(mat, p):
    """Kernel basis of an nrows x n matrix over F_p by Gaussian elimination:
    one vector per free column, with a 1 there."""
    nrows, n = len(mat), len(mat[0])
    m = [row[:] for row in mat]
    pivots = {}
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, nrows):
            if m[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(c * inv) % p for c in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] % p:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for col, r in pivots.items():
            vec[col] = (-m[r][fc]) % p
        basis.append(vec)
    return basis


def additive_poly_roots(f: AdditivePoly):
    """Kernel of the F_p-linear map induced by f.

    Returns (kernel_dimension, roots).  Computed by linear algebra on the
    matrix of f; every root is then checked against f itself.
    """
    k = f.parent
    p = k.p
    basis = _fp_kernel(f.matrix(), p)
    dim = len(basis)
    roots = []
    for combo in itertools.product(range(p), repeat=dim):
        vec = [0] * k.n
        for c, b in zip(combo, basis):
            for i in range(k.n):
                vec[i] = (vec[i] + c * b[i]) % p
        roots.append(k.element(vec))
    if len(roots) != p ** dim:
        raise AssertionError("kernel size is not p^dimension")
    if any(f(r) for r in roots):
        raise AssertionError(
            "a kernel vector of an additive polynomial is not a root")
    return dim, roots
