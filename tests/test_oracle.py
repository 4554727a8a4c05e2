"""Differential oracle: the expression engine against sympy.

Random engine expressions are built side by side with the same expression in
sympy, from the same construction steps (polynomials, exp/sin/cos of linear
forms, parameters, function symbols of u0 and rational coefficients).  The
engine's canonical forms are read back into sympy by a translator that knows
only the term format, and every comparison is made in sympy: the difference
of two results must expand to 0, or vanish at several seeded numeric points.
Function symbols are evaluated as independent values per derivative order,
as the engine treats them.

The oracle checks construction, raw products of trigonometric units,
``differentiate``, ``substitute``, ``is_zero`` and the ``parse(str(e))``
round trip (McKeeman, "Differential Testing for Software", 1998), and the
exact linear algebra of ``_symint``:
``det`` and ``cramer`` against sympy's Berkowitz determinant and LU solve,
and ``rank`` against sympy's rank at a random rational point, evaluated to
50 digits.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.core.function import AppliedUndef  # noqa: E402

from symlab import _symint, expr as ex  # noqa: E402

U = sympy.symbols("u0:4")
K, ALPHA = sympy.symbols("k alpha")
_FUNCS = ("alpha0", "beta0")
_MAX_ORDER = 5
_FLAT = {(name, n): sympy.Symbol(f"{name}_{n}") for name in _FUNCS for n in range(_MAX_ORDER)}
_ARGS = list(U) + [K, ALPHA] + list(_FLAT.values())


def _fn(name):
    return sympy.Function(name)


# ---------------------------------------------------------------------------
# canonical form -> sympy, from the term format alone
# ---------------------------------------------------------------------------


def _rat(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _factor(key):
    kind = key[0]
    if kind == "u":
        return U[key[1]]
    if kind == "p":
        return sympy.Symbol(key[1])
    if kind == "tc":
        _, fn, base, r = key
        angle = _rat(r) * (sympy.Symbol(base) if base else 1)
        return sympy.sin(angle) if fn == "sin" else sympy.cos(angle)
    if kind == "f":
        f = _fn(key[1])(U[0])
        return sympy.Derivative(f, (U[0], key[2])) if key[2] else f
    raise AssertionError(f"unknown factor {key!r}")


def _linform(lf):
    # each coefficient is a sum of constant monomials
    return sympy.Add(*[sympy.Add(*map(_monomial, cp)) * U[i] for i, cp in enumerate(lf) if cp])


def _monomial(m):
    out = _rat(m.coeff)
    for key, n in m.pows:
        out *= _factor(key) ** n
    if any(m.expl):
        out *= sympy.exp(_linform(m.expl))
    for fn, lf, n in m.trig:
        out *= (sympy.sin if fn == "sin" else sympy.cos)(_linform(lf)) ** n
    return out


def to_sympy(e):
    num = sympy.Add(*[_monomial(m) for m in e.num])
    return num / sympy.Add(*[_monomial(m) for m in e.den])


# ---------------------------------------------------------------------------
# comparison in sympy
# ---------------------------------------------------------------------------


def _flatten(s):
    """Derivative orders of the function symbols as independent symbols."""
    s = s.xreplace({d: _FLAT[(d.expr.func.__name__, d.derivative_count)] for d in s.atoms(sympy.Derivative)})
    return s.xreplace({f: _FLAT[(f.func.__name__, 0)] for f in s.atoms(AppliedUndef)})


def _points(seed, count=6):
    rng = random.Random(seed)
    for _ in range(count):
        coords = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        rest = [rng.choice((-1, 1)) * rng.uniform(0.4, 1.5) for _ in range(len(_ARGS) - 4)]
        yield coords + rest


def _values(s, seed):
    """Values of ``s`` at the seeded points; None where it is not finite."""
    f = sympy.lambdify(_ARGS, _flatten(s), "math")
    out = []
    for p in _points(seed):
        try:
            v = complex(f(*p))
        except (ZeroDivisionError, OverflowError, ValueError):
            out.append(None)
            continue
        out.append(v if math.isfinite(abs(v)) else None)
    return out


def _agree(a, b, seed=20260818):
    """``a - b`` expands to 0, or vanishes at the seeded points."""
    if sympy.expand(a - b) == 0:
        return True
    checked = 0
    for va, vb in zip(_values(a, seed), _values(b, seed)):
        if va is None or vb is None:
            continue
        if abs(va - vb) > 1e-8 * (1.0 + abs(va) + abs(vb)):
            return False
        checked += 1
    assert checked >= 3, "too few points where both sides are finite"
    return True


def _vanishes(s, seed=20260818):
    """``s`` vanishes at every seeded point where it is finite."""
    values = [v for v in _values(s, seed) if v is not None]
    assert len(values) >= 3, "too few points where the expression is finite"
    return all(abs(v) <= 1e-9 for v in values)


# ---------------------------------------------------------------------------
# random expressions, built in the engine and in sympy side by side
# ---------------------------------------------------------------------------

_RATS = [Fraction(1, 2), Fraction(1, 3), Fraction(-7, 4), Fraction(2), Fraction(-1), Fraction(5, 6)]
_LEAVES = [
    *[(ex.coord(i), U[i]) for i in range(4)],
    (ex.param("k"), K),
    (ex.param("alpha"), ALPHA),
    (ex.func("alpha0"), _fn("alpha0")(U[0])),
    (ex.func("beta0", 1), sympy.Derivative(_fn("beta0")(U[0]), U[0])),
    (ex.sin(ex.param("alpha")), sympy.sin(ALPHA)),
    *[(ex.number(r), _rat(r)) for r in _RATS],
]
_DENOMINATORS = [
    (ex.coord(1), U[1]),
    (ex.param("k"), K),
    (ex.func("alpha0"), _fn("alpha0")(U[0])),
    (ex.sin(ex.coord(2)), sympy.sin(U[2])),
    (ex.coord(1) + 2, U[1] + 2),
    (1 + ex.param("k") ** 2, 1 + K**2),
]
_LINEAR_SCALES = [
    (ex.number(1), sympy.Integer(1)),
    (ex.param("k"), K),
    (ex.sin(ex.param("alpha")), sympy.sin(ALPHA)),
]
_ANGLES = [
    (ex.number(0), sympy.Integer(0)),
    (ex.number(Fraction(1, 2)), sympy.Rational(1, 2)),
    (ex.param("alpha"), ALPHA),
    (-2 * ex.param("alpha"), -2 * ALPHA),
]

_rats = st.sampled_from(_RATS)
_coord_index = st.integers(min_value=0, max_value=3)


@st.composite
def linear_forms(draw):
    """c1*u_i + c2*u_j, times 1, k or sin(alpha)."""
    (c1, c2), (i, j) = draw(st.tuples(_rats, _rats)), draw(st.tuples(_coord_index, _coord_index))
    scale_e, scale_s = draw(st.sampled_from(_LINEAR_SCALES))
    e = (ex.number(c1) * ex.coord(i) + ex.number(c2) * ex.coord(j)) * scale_e
    return e, (_rat(c1) * U[i] + _rat(c2) * U[j]) * scale_s


@st.composite
def transcendental(draw):
    lf_e, lf_s = draw(linear_forms())
    kind = draw(st.sampled_from(["exp", "sin", "cos"]))
    if kind == "exp":
        return ex.exp(lf_e), sympy.exp(lf_s)
    angle_e, angle_s = draw(st.sampled_from(_ANGLES))
    fn_e, fn_s = (ex.sin, sympy.sin) if kind == "sin" else (ex.cos, sympy.cos)
    return fn_e(lf_e + angle_e), fn_s(lf_s + angle_s)


@st.composite
def pairs(draw, depth=2):
    """An engine expression and the same expression in sympy."""
    if depth == 0:
        return draw(st.one_of(st.sampled_from(_LEAVES), transcendental()))
    op = draw(st.sampled_from(["add", "sub", "mul", "mul", "neg", "scale", "div", "square"]))
    a_e, a_s = draw(pairs(depth=depth - 1))
    if op == "neg":
        return -a_e, -a_s
    if op == "scale":
        r = draw(_rats)
        return a_e * r, a_s * _rat(r)
    if op == "div":
        d_e, d_s = draw(st.sampled_from(_DENOMINATORS))
        return a_e / d_e, a_s / d_s
    if op == "square":
        return a_e**2, a_s**2
    b_e, b_s = draw(pairs(depth=depth - 1))
    if op == "add":
        return a_e + b_e, a_s + b_s
    if op == "sub":
        return a_e - b_e, a_s - b_s
    return a_e * b_e, a_s * b_s


_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@_SETTINGS
@given(p=pairs())
def test_construction_matches_sympy(p):
    e, s = p
    assert _agree(to_sympy(e), s), str(e)


# one raw product of trig units over a few linear forms: u1, u2 and u3
# appear with positive leading coefficients, as in a canonical trig argument
_UNIT_FORMS = [
    (ex.coord(1), U[1]),
    (ex.coord(2), U[2]),
    (ex.coord(1) + ex.coord(2), U[1] + U[2]),
    (2 * ex.coord(1) - ex.coord(3), 2 * U[1] - U[3]),
    (ex.number(Fraction(1, 2)) * ex.coord(2) + ex.coord(3), U[2] / 2 + U[3]),
]


def _unit(fn, lf_e):
    """The trig key (fn, linear form) of ``fn(lf_e)``."""
    (m,) = ex.sin(lf_e).num
    return fn, m.trig[0][1]


@st.composite
def trig_products(draw):
    """One ``_mono_mul`` of up to 8 trig units over two or three linear forms
    by cos(alpha)^m (m <= 6), sometimes times a negative power of sin(u1)."""
    forms = draw(st.lists(st.sampled_from(_UNIT_FORMS), min_size=2, max_size=3, unique_by=lambda f: str(f[1])))
    unit = st.tuples(st.sampled_from(["sin", "cos"]), st.sampled_from(forms))
    units = draw(st.lists(unit, min_size=1, max_size=8))
    m, n = draw(st.integers(min_value=0, max_value=6)), draw(st.sampled_from([0, 0, 1, 3]))
    a = ex.Mono(1, (), ex.LF_ZERO, tuple((*_unit(fn, f[0]), 1) for fn, f in units))
    pows = ((("tc", "cos", "alpha", 1), m),) if m else ()
    b = ex.Mono(1, pows, ex.LF_ZERO, ((*_unit("sin", ex.coord(1)), -n),) if n else ())
    want = sympy.cos(ALPHA) ** m / sympy.sin(U[1]) ** n
    for fn, f in units:
        want *= (sympy.sin if fn == "sin" else sympy.cos)(f[1])
    return ex.Expr(ex._combine(ex._mono_mul(a, b))), want


@_SETTINGS
@given(p=trig_products())
def test_trig_product_matches_sympy(p):
    e, s = p
    assert _agree(to_sympy(e), s), str(e)


@_SETTINGS
@given(p=pairs(), i=_coord_index)
def test_differentiate_matches_sympy(p, i):
    e, s = p
    assert _agree(to_sympy(ex.differentiate(e, i)), sympy.diff(s, U[i])), (str(e), i)


_COORD_SUBS = [
    (ex.coord(2) - ex.coord(3), U[2] - U[3]),
    (2 * ex.coord(1), 2 * U[1]),
    (ex.number(Fraction(-1, 3)) * ex.coord(3), -U[3] / 3),
    (ex.param("k") * ex.coord(2), K * U[2]),
]
_FUNC_SUBS = [
    (ex.sin(ex.coord(0)), sympy.sin),
    (ex.exp(2 * ex.coord(0)), lambda x: sympy.exp(2 * x)),
    (ex.coord(0) ** 2 + ex.number(Fraction(1, 3)), lambda x: x**2 + sympy.Rational(1, 3)),
]
_PARAM_SUBS = [
    (ex.number(Fraction(1, 3)), sympy.Rational(1, 3)),
    (ex.number(-2), sympy.Integer(-2)),
    (ex.param("alpha") ** 2, ALPHA**2),
]


@_SETTINGS
@given(
    p=pairs(),
    coords=st.dictionaries(st.integers(min_value=1, max_value=3), st.sampled_from(_COORD_SUBS), max_size=2),
    funcs=st.dictionaries(st.sampled_from(_FUNCS), st.sampled_from(_FUNC_SUBS), max_size=2),
    k=st.one_of(st.none(), st.sampled_from(_PARAM_SUBS)),
)
def test_substitute_matches_sympy(p, coords, funcs, k):
    # u0 is never replaced: the engine's function symbols are functions of u0
    # and keep their name under a u0 substitution, where sympy's would not
    e, s = p
    params = {} if k is None else {"k": k[0]}
    got = ex.substitute(
        e, coords={i: v[0] for i, v in coords.items()}, funcs={n: v[0] for n, v in funcs.items()}, params=params
    )
    reps = {U[i]: v[1] for i, v in coords.items()}
    if k is not None:
        reps[K] = k[1]
    want = s.subs(reps, simultaneous=True)
    x = sympy.Dummy("x")
    for name, (_e, build) in funcs.items():
        want = want.subs(_fn(name), sympy.Lambda(x, build(x)))
    assert _agree(to_sympy(got), want.doit()), str(e)


def _identities(a, b, lf):
    """Expressions that are identically zero, each built in a different way."""
    a_e, a_s = a
    b_e, b_s = b
    lf_e, lf_s = lf
    return [
        ((a_e + b_e) ** 2 - a_e**2 - 2 * a_e * b_e - b_e**2, (a_s + b_s) ** 2 - a_s**2 - 2 * a_s * b_s - b_s**2),
        (a_e * (ex.sin(lf_e) ** 2 + ex.cos(lf_e) ** 2) - a_e, a_s * (sympy.sin(lf_s) ** 2 + sympy.cos(lf_s) ** 2) - a_s),
        (
            ex.sin(lf_e + ex.coord(1)) - ex.sin(lf_e) * ex.cos(ex.coord(1)) - ex.cos(lf_e) * ex.sin(ex.coord(1)),
            sympy.sin(lf_s + U[1]) - sympy.sin(lf_s) * sympy.cos(U[1]) - sympy.cos(lf_s) * sympy.sin(U[1]),
        ),
        (
            ex.differentiate(a_e * b_e, 1) - ex.differentiate(a_e, 1) * b_e - a_e * ex.differentiate(b_e, 1),
            sympy.diff(a_s * b_s, U[1]) - sympy.diff(a_s, U[1]) * b_s - a_s * sympy.diff(b_s, U[1]),
        ),
        (ex.exp(lf_e) * ex.exp(-lf_e) - 1, sympy.exp(lf_s) * sympy.exp(-lf_s) - 1),
    ]


@_SETTINGS
@given(a=pairs(depth=1), b=pairs(depth=1), lf=linear_forms(), c=st.sampled_from(_LEAVES[:8]))
def test_is_zero_on_identities_and_non_identities(a, b, lf, c):
    for z_e, z_s in _identities(a, b, lf):
        assert _vanishes(z_s)
        assert ex.is_zero(z_e), str(z_e)
        # a nonzero monomial added to an identity is not an identity
        off_e, off_s = z_e + c[0] / 3, z_s + c[1] / 3
        assert not _vanishes(off_s)
        assert not ex.is_zero(off_e), str(off_e)


@_SETTINGS
@given(a=pairs(), b=pairs())
def test_is_zero_agrees_with_sympy(a, b):
    d_e, d_s = a[0] - b[0], a[1] - b[1]
    assert ex.is_zero(d_e) == _vanishes(d_s), (str(a[0]), str(b[0]))


@_SETTINGS
@given(p=pairs())
def test_print_parse_round_trip(p):
    e, s = p
    back = ex.parse(str(e))
    assert back == e
    assert _agree(to_sympy(back), s)


# ---------------------------------------------------------------------------
# det, cramer and rank
# ---------------------------------------------------------------------------

# integer, parameter, coordinate, function, exp and trig entries; zeros are
# common, so minors vanish and the expansion skips entries
_ENTRIES = [
    *[(ex.number(n), sympy.Integer(n)) for n in (0, 0, 0, 1, -1, 2, 3)],
    (ex.param("k"), K),
    (ex.coord(1), U[1]),
    (ex.coord(3), U[3]),
    (ex.func("alpha0"), _fn("alpha0")(U[0])),
    (ex.exp(ex.coord(1) - ex.coord(2)), sympy.exp(U[1] - U[2])),
    (ex.exp(ex.param("k") * ex.coord(3)), sympy.exp(K * U[3])),
    (ex.sin(ex.coord(2)), sympy.sin(U[2])),
    (ex.cos(ex.coord(2)), sympy.cos(U[2])),
    (ex.cos(ex.coord(1) + ex.param("alpha")), sympy.cos(U[1] + ALPHA)),
    (ex.sin(ex.param("alpha")), sympy.sin(ALPHA)),
]
_size = st.integers(min_value=1, max_value=4)


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix as engine rows and a sympy Matrix."""
    cells = [[draw(st.sampled_from(_ENTRIES)) for _ in range(cols)] for _ in range(rows)]
    return [[e for e, _s in row] for row in cells], sympy.Matrix([[s for _e, s in row] for row in cells])


@st.composite
def square_matrices(draw):
    n = draw(_size)
    return draw(matrices(n, n))


@st.composite
def low_rank_matrices(draw):
    """P Q for P of shape rows x k and Q of shape k x cols: rank at most k."""
    rows, cols = draw(_size), draw(_size)
    k = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    if k == 0:
        return [[ex.number(0)] * cols for _ in range(rows)], sympy.zeros(rows, cols)
    p_e, p_s = draw(matrices(rows, k))
    q_e, q_s = draw(matrices(k, cols))
    m_e = [[sum((p_e[i][t] * q_e[t][j] for t in range(k)), ex.number(0)) for j in range(cols)] for i in range(rows)]
    return m_e, p_s * q_s


def _numeric_rank(m_s, seed):
    """Rank of ``m_s`` at a random rational point, in 50-digit arithmetic."""
    rng = random.Random(seed)
    point = {a: sympy.Rational(rng.choice((-1, 1)) * rng.randint(3, 17), rng.randint(5, 13)) for a in _ARGS}
    values = m_s.applyfunc(lambda s: _flatten(s).xreplace(point).evalf(50))
    return values.rank(iszerofunc=lambda v: abs(v) < sympy.Float("1e-30", 50))


_LINALG_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@_LINALG_SETTINGS
@given(m=square_matrices())
def test_det_matches_sympy(m):
    m_e, m_s = m
    assert _agree(to_sympy(_symint.det(m_e)), m_s.det(method="berkowitz")), [[str(e) for e in row] for row in m_e]


@_LINALG_SETTINGS
@given(n=_size, data=st.data())
def test_det_of_floats_matches_sympy(n, data):
    values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    m = [[data.draw(values) for _ in range(n)] for _ in range(n)]
    got = _symint.det(m)
    assert isinstance(got, float)
    want = float(sympy.Matrix(m).det(method="berkowitz"))
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (m, got, want)


@_LINALG_SETTINGS
@given(m=square_matrices(), data=st.data())
def test_cramer_matches_sympy(m, data):
    m_e, m_s = m
    d = _symint.det(m_e)
    if not d:
        return  # a singular system has no Cramer solution
    n = len(m_e)
    rhs_e, rhs_s = data.draw(matrices(n, 1))
    got = _symint.cramer(m_e, [row[0] for row in rhs_e], d)
    # sympy's LU solve of the system evaluated at the seeded points
    system = m_s.row_join(rhs_s)
    cells = [[_values(system[i, j], seed=20261020) for j in range(n + 1)] for i in range(n)]
    solutions = [_values(to_sympy(x), seed=20261020) for x in got]
    checked = 0
    for k, x in enumerate(zip(*solutions)):
        at = sympy.Matrix(n, n + 1, lambda i, j: cells[i][j][k])
        if None in x or any(v is None for v in at) or abs(complex(at[:, :n].det())) < 1e-6:
            continue
        want = at[:, :n].LUsolve(at[:, n])
        assert all(abs(x[j] - complex(want[j])) <= 1e-7 * (1.0 + abs(x[j])) for j in range(n)), (k, x, want)
        checked += 1
    assert checked >= 3, "too few points where the system is solvable"


@st.composite
def rectangular_matrices(draw):
    return draw(matrices(draw(_size), draw(_size)))


@_LINALG_SETTINGS
@given(m=st.one_of(low_rank_matrices(), rectangular_matrices()))
def test_rank_matches_sympy(m):
    m_e, m_s = m
    assert _symint.rank(m_e) == _numeric_rank(m_s, seed=20261020), [[str(e) for e in row] for row in m_e]
