import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from e0struct.cli import main
from e0struct.curve import INFINITY, CurvePoint, WeierstrassCurve
from e0struct.local_field import LocalField, PrecisionExhausted
from e0struct.residue_field import FiniteField
from e0struct.series import Series, WPoly, key_weight


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


class CliResult:
    """What one `e0struct` command left: its exit code, its two output
    streams, and the SystemExit that ended it."""

    def __init__(self, exit_code, stdout, stderr, exception):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.exception = exception

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(argv, input=None):
    """cli.main(argv) in this process, with `input` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(input or "")
    exception, code = None, 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(argv)
    except SystemExit as exc:
        exception, code = exc, exc.code or 0
    finally:
        sys.stdin = stdin
    return CliResult(code, out.getvalue(), err.getvalue(), exception)


# -- the affine chord-tangent law over K ------------------------------------
# The independent reference for formal_group's ladder: src/ computes every
# multiple of a point on the ladder alone.

def point_neg(E: WeierstrassCurve, P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y - E.a[0] * P.x - E.a[2])


def point_add(E: WeierstrassCurve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a1, a2, a3, a4, a6 = E.a
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        num = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1
        den = 2 * y1 + a1 * x1 + a3
        lam = num / den
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def point_mul(E: WeierstrassCurve, m: int, P: CurvePoint) -> CurvePoint:
    if m < 0:
        return point_mul(E, -m, point_neg(E, P))
    result = INFINITY
    base = P
    while m:
        if m & 1:
            result = point_add(E, result, base)
        m >>= 1
        if m:
            base = point_add(E, base, base)
    return result


def contains(E: WeierstrassCurve, P: CurvePoint) -> bool:
    """P lies on E to the working precision."""
    return P.is_infinity or E.equation_residual(P).is_zero_at_precision()


# -- test-only helpers on fields and series --------------------------------

def field_gen(k: FiniteField):
    """The class of X in k = F_p[X]/(modulus), a root of the modulus."""
    return k.element([0, 1])


def truncate(s: Series, D) -> Series:
    """s with its terms of total degree above D dropped."""
    return Series(s.nvars, min(s.trunc, D),
                  {k: v for k, v in s.c.items() if sum(k) <= D})


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
