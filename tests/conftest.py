import pytest

from e0struct.curve import WeierstrassCurve
from e0struct.local_field import LocalField, PrecisionExhausted
from e0struct.series import WPoly, key_weight


def make_curve(field, a):
    return WeierstrassCurve(
        field, *[field.embed_integral_rational(c) for c in a])


def random_normalized_curve(field, rng, span=6):
    """a_i drawn from m_K/m_K^span, Delta != 0 at precision."""
    while True:
        avals = []
        for _ in range(5):
            coeffs = [rng.randrange(field.p ** field.int_prec(span))
                      for _ in range(field.deg)]
            x = field.element(coeffs) * field.uniformizer
            avals.append(x)
        try:
            return WeierstrassCurve(field, *avals)
        except PrecisionExhausted:
            continue


# -- structure of WPoly coefficients --------------------------------------

def wpoly_weights(f: WPoly):
    return {key_weight(k) for k in f.d}


def is_homogeneous_of_weight(f: WPoly, w):
    return all(key_weight(k) == w for k in f.d)


def divisible_by_int(f: WPoly, m):
    return all(isinstance(v, int) and v % m == 0 for v in f.d.values())


def exact_div_int(f: WPoly, m):
    if not divisible_by_int(f, m):
        raise ValueError(f"polynomial not divisible by {m}")
    return WPoly({k: v // m for k, v in f.d.items()})


# fixture models from the worked examples: a = (a1, a2, a3, a4, a6)
FIXTURE_COEFFS = {
    "E2": (2, (0, 0, 2, 0, -2)),     # Y^2 + 2Y = X^3 - 2
    "E3": (3, (0, -3, 0, 3, 0)),     # Y^2 = X^3 - 3X^2 + 3X
    "E5": (5, (0, 20, -5, -15, 0)),  # Y^2 - 5Y = X^3 + 20X^2 - 15X
    "E7": (7, (7, 0, -28, 7, -35)),  # Y^2 + 7XY - 28Y = X^3 + 7X - 35
    "E8": (2, (0, -6, 0, 8, 0)),     # Y^2 = X^3 - 6X^2 + 8X
    "E9": (2, (0, 0, 0, 0, -2)),     # Y^2 = X^3 - 2
    "E10": (3, (0, 0, 0, 0, 3)),     # Y^2 = X^3 + 3
}


@pytest.fixture(scope="session")
def Q2():
    return LocalField.unramified(2, 1, 14)


@pytest.fixture(scope="session")
def Q3():
    return LocalField.unramified(3, 1, 14)


@pytest.fixture(scope="session")
def Q5():
    return LocalField.unramified(5, 1, 14)


@pytest.fixture(scope="session")
def Q7():
    return LocalField.unramified(7, 1, 14)


@pytest.fixture(scope="session")
def Q4():
    """The unramified quadratic extension Q_2(zeta_3)."""
    return LocalField.unramified(2, 2, 14)


@pytest.fixture(scope="session")
def Q2sqrt2():
    return LocalField.eisenstein(2, (-2, 0, 1), 16)


@pytest.fixture(scope="session")
def fixture_curves(Q2, Q3, Q5, Q7):
    fields = {2: Q2, 3: Q3, 5: Q5, 7: Q7}
    return {name: make_curve(fields[p], a)
            for name, (p, a) in FIXTURE_COEFFS.items()}
