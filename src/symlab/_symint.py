"""Closed-form antiderivatives, the exponential of a constant matrix whose
nonzero entries form one 2x2 block, and the package's exact linear algebra:
``det``, ``cramer`` and ``rank`` for matrices of any size, and ``row_reduce``
for rational ones.

Internal helpers shared by the metric determinant, the coframe
construction, the structure-constant derivation and the field-tensor
solver.  Everything stays inside the expression engine's closed class:
polynomials times one exponential of a linear form times at most one sine
or cosine of a linear form.  An exact scalar -- a linear-form coefficient,
or an entry of a constant matrix -- is a constant ``Expr``, or the
canonical monomial sum it holds as ``num``.  An antiderivative's scalars
may also carry a constant-sum denominator, such as 1/(k^2 + 9); a
linear-form coefficient cannot, and ``fundamental_matrix`` raises for a
matrix entry with one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .expr import (
    CP_ZERO,
    ONE,
    ZERO,
    Expr,
    LF_ZERO,
    Mono,
    SUM_ONE,
    UnsupportedExpressionError,
    _combine,
    _expand_raw,
    _mono_inv,
    _q,
    _sorted,
    _sum_str,
    coord,
    cos,
    exp,
    is_zero,
    number,
    sin,
    substitute,
)

# ---------------------------------------------------------------------------
# exact scalars: canonical sums of constant monomials
# ---------------------------------------------------------------------------


def cp_invert(cp) -> tuple:
    """Inverse of a one-term scalar sum; raises for a sum of more terms."""
    if not cp:
        raise ZeroDivisionError("inverting the zero scalar")
    if len(cp) != 1:
        raise UnsupportedExpressionError(f"cannot invert scalar sum {_sum_str(cp)}")
    return (_mono_inv(cp[0]),)


def cp_sqrt(cp) -> Optional[tuple]:
    """Exact square root of a scalar sum of at most one term, or None."""
    if not cp:
        return CP_ZERO
    if len(cp) != 1:
        return None
    m = cp[0]
    if m.coeff < 0 or any(e % 2 for _k, e in m.pows):
        return None
    num = _isqrt_exact(m.coeff.numerator)
    den = _isqrt_exact(m.coeff.denominator)
    if num is None or den is None:
        return None
    half = tuple((key, e // 2) for key, e in m.pows)
    return (Mono(_q(Fraction(num, den)), half, LF_ZERO, ()),)


def _isqrt_exact(n: int) -> Optional[int]:
    r = math.isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# antiderivatives
# ---------------------------------------------------------------------------


def antiderivative(e: Expr, i: int) -> Expr:
    """An antiderivative of ``e`` in coordinate ``u_i`` (integration constant 0).

    Supports the closed class (polynomial x exponential x single trig factor
    in ``u_i``); for ``i == 0`` a monomial containing an abstract function is
    integrated by lowering the derivative order, which requires order >= 1.
    The rates lam of the exponential and mu of the trig factor may be any
    constant scalars.  For ``u_i^n`` the result divides n + 1 times by lam
    (no trig factor) or by lam^2 + mu^2; when that scalar is a constant sum
    such as k^2 + 9, its power becomes the result's denominator.  A
    constant-sum denominator of ``e`` stays one: the integral of N/D is (the
    integral of N)/D.  A non-constant denominator, a negative power of
    ``u_i``, a trig power or product in ``u_i``, and an abstract function of
    ``u0`` times any other ``u0`` factor raise UnsupportedExpressionError.
    """
    if e.den != SUM_ONE:
        den = Expr(e.den)
        if not den.is_constant():
            raise UnsupportedExpressionError("cannot integrate over a non-constant denominator")
        return antiderivative(Expr(e.num), i) / den
    return sum((_mono_antiderivative(m, i) for m in e.num), ZERO)


def definite_integral(e: Expr, i: int, upper: Expr) -> Expr:
    """Integral of ``e`` d(u_i) from 0 to ``upper`` (an Expr, often u_i)."""
    anti = antiderivative(e, i)
    hi = substitute(anti, coords={i: upper})
    lo = substitute(anti, coords={i: number(0)})
    return hi - lo


def _mono_antiderivative(m: Mono, i: int) -> Expr:
    # split off the u_i-dependent structure
    power = 0
    rest_pows = {}
    for key, ex in m.pows:
        if key == ("u", i):
            power = ex
        else:
            rest_pows[key] = ex
    if power < 0:
        raise UnsupportedExpressionError("negative coordinate powers cannot be integrated")

    lam = m.expl[i]
    trig_dep = [(fn, lf, ex) for fn, lf, ex in m.trig if lf[i]]
    trig_rest = tuple((fn, lf, ex) for fn, lf, ex in m.trig if not lf[i])

    if i == 0 and any(k[0] == "f" for k in rest_pows):
        # abstract functions of u0: integrate by lowering one derivative order
        fkeys = [(k, ex) for k, ex in rest_pows.items() if k[0] == "f"]
        if power or lam or trig_dep or len(fkeys) != 1 or fkeys[0][1] != 1:
            raise UnsupportedExpressionError(
                "cannot integrate this combination of u0-dependent factors"
            )
        key, _ = fkeys[0]
        if key[2] < 1:
            raise UnsupportedExpressionError(
                f"no antiderivative symbol for order-0 function {key[1]!r}"
            )
        d = dict(rest_pows)
        del d[key]
        lowered = ("f", key[1], key[2] - 1)
        d[lowered] = d.get(lowered, 0) + 1
        return Expr(_combine(_expand_raw(m.coeff, d, m.expl, {(fn, lf): ex for fn, lf, ex in m.trig})))

    if len(trig_dep) > 1 or (trig_dep and trig_dep[0][2] != 1):
        raise UnsupportedExpressionError("cannot integrate trig powers in the integration variable")

    rest = Expr((Mono(m.coeff, _sorted(rest_pows.items()), m.expl, trig_rest),))
    t = coord(i)
    if not trig_dep and not lam:
        # plain power rule
        return rest * t ** (power + 1) * Fraction(1, power + 1)

    # t^n exp(lam t) [trig(mu t + rho)] integrates to exp(lam t) (p sin + q
    # cos) with (p, q) = w_n, where [[lam, -mu], [mu, lam]] w_k = t^k e -
    # k w_(k-1), e is the trig function's unit vector and w_(-1) = 0.  Without
    # a trig factor mu = 0, "sin" is 1 and the inverse is 1/lam: lam/lam^2
    # would turn cos(alpha)^2 into the sum 1 - sin(alpha)^2.  Each step divides
    # by inv's scalar once, so a constant sum there is one power in the
    # denominator.
    lam = Expr(lam)
    if trig_dep:
        fn, lf, _ = trig_dep[0]
        mu = Expr(lf[i])
        l, inv = lam, ONE / (lam * lam + mu * mu)
        sin_t, cos_t = (Expr((Mono(1, (), LF_ZERO, ((name, lf, 1),)),)) for name in ("sin", "cos"))
    else:
        fn, mu, l, inv = "sin", ZERO, ONE, ONE / lam
        sin_t, cos_t = ONE, ZERO
    e_s, e_c = (ONE, ZERO) if fn == "sin" else (ZERO, ONE)
    p = q = ZERO
    for k in range(power + 1):
        r_s, r_c = t ** k * e_s - p * k, t ** k * e_c - q * k
        # inverse matrix: inv [[l, mu], [-mu, l]]
        p, q = inv * (l * r_s + mu * r_c), inv * (l * r_c - mu * r_s)
    return (p * sin_t + q * cos_t) * rest


# ---------------------------------------------------------------------------
# exponentials of constant matrices with one 2x2 block
# ---------------------------------------------------------------------------


def fundamental_matrix(N: Sequence[Sequence[Expr]], i: int) -> list:
    """E(u_i) = exp(u_i N), so E' = N E and E(0) = I, for an exact constant N
    whose nonzero entries lie in one 2x2 principal block.

    That is the shape of the invariance system of every frame with a pair of
    coordinate translations (Bianchi I-VII; Ellis & MacCallum 1969).  The
    block's exponential is written in closed form for a double root, a real
    pair, or a complex pair whose imaginary part is an exact square root
    (e.g. trace -2*cos(a) and determinant 1).  Nonzero entries on three
    indices, or a block whose eigenvalues are not exactly representable,
    raise UnsupportedExpressionError.
    """
    n = len(N)
    if any(x.den != SUM_ONE or not x.is_constant() for row in N for x in row):
        raise UnsupportedExpressionError("matrix entries must be constants, not quotients of sums")
    support = [r for r in range(n) if any(N[r][c] or N[c][r] for c in range(n))]
    if len(support) > 2:
        raise UnsupportedExpressionError(
            f"nonzero entries on {len(support)} indices are outside one 2x2 block"
        )
    block = sorted((support + [r for r in range(n) if r not in support])[:2])
    block_exp = _block_exponential([[N[r][c] for c in block] for r in block], i)
    E = [[number(1 if r == c else 0) for c in range(n)] for r in range(n)]
    for p, r in enumerate(block):
        for q, c in enumerate(block):
            E[r][c] = block_exp[p][q]
    return E


def _block_exponential(A, i):
    """exp(u_i A) for an exact 2x2 block: e^{mu t} (c0 I + c1 (A - mu I)) with
    mu half the trace and c0, c1 fixed by the discriminant mu^2 - det."""
    t = coord(i)
    mu = (A[0][0] + A[1][1]) * Fraction(1, 2)
    disc = mu * mu - (A[0][0] * A[1][1] - A[0][1] * A[1][0])  # (lam1-lam2)^2/4

    B = [
        [A[0][0] - mu, A[0][1]],
        [A[1][0], A[1][1] - mu],
    ]
    scale = exp(mu * t) if mu else number(1)
    if not disc:
        # double root: exp = e^{mu t} (I + t B)
        c0, c1 = number(1), t
    elif (root := cp_sqrt(disc.num)) is not None:
        w = Expr(root)
        # real pair mu +- w: cosh/sinh written with exponentials
        ep, em = exp(w * t), exp(-(w * t))
        c0 = (ep + em) * Fraction(1, 2)
        c1 = (ep - em) * Fraction(1, 2) / w
    elif (root := cp_sqrt((-disc).num)) is not None:
        w = Expr(root)
        c0 = cos(w * t)
        c1 = sin(w * t) / w
    else:
        raise UnsupportedExpressionError("block eigenvalues are not exactly representable")
    return [
        [scale * (c0 + c1 * B[0][0]), scale * c1 * B[0][1]],
        [scale * c1 * B[1][0], scale * (c0 + c1 * B[1][1])],
    ]


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def det(m: Sequence[Sequence]):
    """Determinant of a square matrix of ``Expr`` or float entries, by
    expansion along the first row; a zero entry contributes no minor."""
    if len(m) == 1:
        return m[0][0]
    total = m[0][0] * 0
    for j, x in enumerate(m[0]):
        if x:
            term = x * det([row[:j] + row[j + 1:] for row in m[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def cramer(m: Sequence[Sequence], rhs: Sequence, d) -> list:
    """Solution x of the square system sum_j m[i][j] x_j = rhs[i] by Cramer's
    rule, where ``d`` is det(m) and is not zero."""
    n = len(m)
    return [
        det([[rhs[i] if c == j else m[i][c] for c in range(n)] for i in range(n)]) / d
        for j in range(n)
    ]


def rank(m: Sequence[Sequence]) -> int:
    """Rank of an m x n matrix of ``Expr`` entries at a generic point: the
    size of its largest minor that is not identically zero."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    for size in range(min(n_rows, n_cols), 0, -1):
        for rows in itertools.combinations(range(n_rows), size):
            for cols in itertools.combinations(range(n_cols), size):
                if not is_zero(det([[m[r][c] for c in cols] for r in rows])):
                    return size
    return 0


def row_reduce(matrix: Sequence[Sequence]) -> tuple:
    """(rref, pivots): the reduced row echelon form of a rational matrix, as
    Fraction rows, and the pivot column of each nonzero row in order; the
    rank is ``len(pivots)``."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[c]:
                f = row[c]
                rows[k] = [v - f * w for v, w in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots
