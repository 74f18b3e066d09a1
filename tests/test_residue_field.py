import itertools
import random

import pytest

from e0struct.residue_field import (AdditivePoly, FiniteField, _fp_kernel,
                                    additive_poly_roots, ff_norm, frobenius,
                                    is_prime)

from conftest import field_gen


def test_prime_field_arithmetic():
    # [TRIVIAL] F_7 is Z/7
    k = FiniteField(7, 1)
    a, b = k.element(3), k.element(5)
    assert (a + b).as_int() == 1
    assert (a * b).as_int() == 1
    assert (a - b).as_int() == 5
    assert (a.inverse() * a).as_int() == 1


def test_f4_structure():
    # [DERIVED] F_4 = F_2[w]/(w^2 + w + 1): w^2 = w + 1, w^3 = 1
    k = FiniteField(2, 2)
    w = field_gen(k)
    assert w * w == w + k.one
    assert w ** 3 == k.one
    assert len(list(k)) == 4


def test_frobenius_is_additive_and_fixes_prime_field():
    # [TRIVIAL] x -> x^p is a field automorphism fixing F_p
    k = FiniteField(3, 2)
    rng = random.Random(1)
    elems = list(k)
    for _ in range(20):
        a, b = rng.choice(elems), rng.choice(elems)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
    for c in range(3):
        assert frobenius(k.element(c)) == k.element(c)


def test_norm_is_product_of_conjugates():
    # [DERIVED] N(a) = a * a^p * ... * a^{p^{n-1}}, multiplicative,
    # lands in F_p
    k = FiniteField(5, 2)
    for a in k:
        conj = a
        prod = a
        for _ in range(k.n - 1):
            conj = frobenius(conj)
            prod = prod * conj
        n = ff_norm(a)
        assert prod.is_in_prime_field()
        assert n.as_int() == prod.as_int()


def test_norm_surjective_on_units():
    # [DERIVED] the norm maps k* onto F_p*; each fiber has size
    # (p^n - 1)/(p - 1)
    k = FiniteField(3, 2)
    counts = {}
    for a in k:
        if a:
            counts[ff_norm(a).as_int()] = counts.get(ff_norm(a).as_int(),
                                                     0) + 1
    assert counts == {1: 4, 2: 4}


def _span(k, basis):
    """The sorted coefficient vectors of the F_p-span of basis in k; the
    basis must be independent, so the span has p^len(basis) elements."""
    p = k.p
    span = set()
    for combo in itertools.product(range(p), repeat=len(basis)):
        x = k.zero
        for c, b in zip(combo, basis):
            x = x + k.element(c) * b
        span.add(x.coeffs)
    assert len(span) == p ** len(basis), "basis is not independent"
    return sorted(span)


def test_additive_poly_x4_minus_x_over_f4():
    # [PAPER] X^4 - X over F_4 has kernel dimension 2 (all of F_4)
    k = FiniteField(2, 2)
    # T - T^4 as coefficients on T^{p^j}: (1, 0, -1) = (1, 0, 1) mod 2
    f = AdditivePoly(k, [k.one, k.zero, k.one])
    dim, basis = additive_poly_roots(f)
    assert dim == 2
    assert _span(k, basis) == sorted(x.coeffs for x in k)


def test_additive_poly_artin_schreier():
    # [DERIVED] T - T^p over F_{p^n} has kernel exactly F_p
    for p, n in ((3, 1), (3, 2), (5, 2)):
        k = FiniteField(p, n)
        f = AdditivePoly(k, [k.one, k.element(p - 1)])
        dim, basis = additive_poly_roots(f)
        assert dim == 1
        assert _span(k, basis) == sorted(
            k.element(c).coeffs for c in range(p))


def test_additive_poly_linearity():
    # [TRIVIAL] additive polynomials induce F_p-linear maps
    k = FiniteField(2, 3)
    rng = random.Random(7)
    elems = list(k)
    f = AdditivePoly(k, [rng.choice(elems) for _ in range(3)])
    for a, b in itertools.product(elems[:4], elems[:4]):
        assert f(a + b) == f(a) + f(b)


def test_additive_poly_roots_checks_only_the_basis(monkeypatch):
    # [DERIVED] f is F_p-linear, so the matrix (n evaluations) and one
    # check per basis vector (b evaluations) settle the kernel: over
    # F_49, T - c*T^7 with N(c) = 1 has b = 1, so 2 + 1 evaluations, not
    # 2 + 7 from listing all 7 roots
    k = FiniteField(7, 2)
    c = next(x for x in k if x != k.one and ff_norm(x).as_int() == 1)
    f = AdditivePoly(k, [k.one, -c])
    calls = []
    call = AdditivePoly.__call__
    monkeypatch.setattr(AdditivePoly, "__call__",
                        lambda self, x: calls.append(x) or call(self, x))
    dim, basis = additive_poly_roots(f)
    assert dim == 1 and basis[0] and not call(f, basis[0])
    assert len(calls) == 3


def test_additive_poly_roots_rejects_a_non_root_basis(monkeypatch):
    # [DERIVED] the check on each basis vector stays a check: a kernel
    # that lies (here 1 for f = T, whose kernel is 0) raises
    import e0struct.residue_field as residue_field

    k = FiniteField(3, 2)
    monkeypatch.setattr(residue_field, "_fp_kernel", lambda mat, p: [[1, 0]])
    with pytest.raises(AssertionError, match="is not a root"):
        additive_poly_roots(AdditivePoly(k, [k.one]))


# every field of order <= 3^4 except the prime fields beyond F_7
SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1),
                (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)]


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_additive_poly_roots_match_exhaustive_search(p, n):
    # [TRIVIAL] the span of the linear-algebra kernel basis is the set of
    # roots found by evaluating f on the whole field
    k = FiniteField(p, n)
    elems = list(k)
    rng = random.Random(100 * p + n)
    polys = [AdditivePoly(k, [k.one, -c]) for c in elems]  # T - c T^p
    polys += [AdditivePoly(k, [rng.choice(elems)
                               for _ in range(rng.randint(1, n + 1))])
              for _ in range(10)]
    for f in polys:
        dim, basis = additive_poly_roots(f)
        brute = sorted(x.coeffs for x in elems if not f(x))
        assert dim == len(basis)
        assert _span(k, basis) == brute, f


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        FiniteField(6, 1)


@pytest.mark.parametrize("rows, cols", [(2, 1), (3, 1), (5, 1), (1, 2),
                                        (1, 4), (2, 2), (3, 3), (4, 4)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_kernel_of_rectangular_matrices(rows, cols, p):
    # [ORACLE] the kernel basis of a rows x cols matrix mod p spans
    # exactly the vectors that a brute-force search finds: e x 1 as the
    # ramified g-map uses it, 1 x f, and square
    rng = random.Random(f"kernel/{rows}/{cols}/{p}")
    for trial in range(8):
        # every fourth matrix has entries 0 and p - 1 only, so that zero
        # rows, zero columns and full kernels occur
        mat = [[rng.randrange(p) if trial % 4 else rng.randrange(2) * (p - 1)
                for _ in range(cols)] for _ in range(rows)]
        basis = _fp_kernel(mat, p)
        assert all(len(v) == cols for v in basis)
        kernel = {v for v in itertools.product(range(p), repeat=cols)
                  if all(sum(a * x for a, x in zip(row, v)) % p == 0
                         for row in mat)}
        span = {tuple(sum(c * b[i] for c, b in zip(combo, basis)) % p
                      for i in range(cols))
                for combo in itertools.product(range(p), repeat=len(basis))}
        assert span == kernel and len(kernel) == p ** len(basis)


INVERSE_FIELDS = [(p, n) for p in range(2, 50) if is_prime(p)
                  for n in range(1, 6) if p ** n <= 49] + [(11, 2)]


@pytest.mark.parametrize("p, n", INVERSE_FIELDS)
def test_inverse_is_the_power_q_minus_2(p, n):
    # [DERIVED] a^(q-1) = 1 on F_q^*, so the extended-Euclid inverse is
    # a^(q-2) for every nonzero element; 0 has none
    k = FiniteField(p, n)
    for a in k:
        if a:
            assert a.inverse() == a ** (k.order - 2)
    with pytest.raises(ZeroDivisionError):
        k.zero.inverse()
