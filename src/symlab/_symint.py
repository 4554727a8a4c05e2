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
canonical monomial sum it holds as ``num``.
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
    _mono_mul,
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

_ONE = Fraction(1)


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
    """
    if e.den != SUM_ONE:
        raise UnsupportedExpressionError("cannot integrate a quotient of sums")
    out = []
    for m in e.num:
        out.extend(_mono_antiderivative(m, i).num)
    return Expr(_combine(out))


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
    func_key = None
    for key, ex in m.pows:
        if key[0] == "u" and key[1] == i:
            power = ex
        else:
            rest_pows[key] = ex
            if key[0] == "f" and i == 0:
                func_key = key if func_key is None or ex != 0 else func_key
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

    rest = Mono(m.coeff, _sorted(rest_pows.items()), _strip_lf(m.expl, i), trig_rest)

    if not trig_dep and not lam:
        # plain power rule
        t_new = Mono(_ONE / (power + 1), ((("u", i), power + 1),), LF_ZERO, ())
        return Expr(_combine(_mono_mul(rest, t_new)))

    if not trig_dep:
        # t^m exp(lam t): downward recursion in the power
        lam_inv = Expr(cp_invert(lam))
        terms = []
        coeff = ONE
        for j in range(power, -1, -1):
            coeff = coeff * lam_inv
            terms.append((j, coeff.num))
            coeff = coeff * -j
        out = []
        for j, cpc in terms:
            t_part = Mono(1, ((("u", i), j),) if j else (), _lf_with(i, lam), ())
            for s in cpc:
                for x in _mono_mul(s, t_part):
                    out.extend(_mono_mul(x, rest))
        # drop factorial-style falling coefficients that vanished
        return Expr(_combine(out))

    # t^m exp(lam t) trig(mu t + rho): solve the two-dimensional recursion
    fn, lf, _ = trig_dep[0]
    lam_e, mu = Expr(lam), Expr(lf[i])
    # D = lam^2 + mu^2 must be exactly invertible (rational after the
    # sin^2+cos^2 reduction in the catalog's cases)
    D_inv = Expr(cp_invert((lam_e * lam_e + mu * mu).num))
    ps = [ZERO] * (power + 1)
    qs = [ZERO] * (power + 1)
    want_sin = fn == "sin"
    for j in range(power, -1, -1):
        if j == power:
            r_s = ONE if want_sin else ZERO
            r_c = ZERO if want_sin else ONE
        else:
            r_s = ps[j + 1] * -(j + 1)
            r_c = qs[j + 1] * -(j + 1)
        # [[lam, -mu], [mu, lam]] (p_j, q_j)^T = (r_s, r_c)^T
        ps[j] = D_inv * (lam_e * r_s + mu * r_c)
        qs[j] = D_inv * (lam_e * r_c - mu * r_s)
    out = []
    for j in range(power + 1):
        for trig_fn, c in (("sin", ps[j]), ("cos", qs[j])):
            base = Mono(
                1,
                ((("u", i), j),) if j else (),
                _lf_with(i, lam),
                ((trig_fn, lf, 1),),
            )
            for s in c.num:
                for x in _mono_mul(s, base):
                    out.extend(_mono_mul(x, rest))
    return Expr(_combine(out))


def _strip_lf(lf, i):
    return tuple(CP_ZERO if j == i else cp for j, cp in enumerate(lf))


def _lf_with(i, cp):
    return tuple(cp if j == i else CP_ZERO for j in range(4))


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
