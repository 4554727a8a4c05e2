"""Residual checks for electromagnetic fields that keep the group's motion
integrals intact.

Every condition is implemented as a computable residual: identically-zero
residuals certify that the field admits the symmetry operators.  Symbolic
residuals use the exact engine.  The two second-order scalar conditions,
which involve the inverse metric, are checked numerically at sample points;
their derivatives along a generator are exact (the chain rule applied to
compiled first and second derivatives of g and A), not finite differences.
Only that numeric check uses numpy: ``KgfChecker`` loads it when it first
evaluates a point, so the symbolic residuals run without it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

from . import expr as ex
from ._symint import rank
from .expr import Expr, Assignment, differentiate, evaluate, free_symbols, is_zero
from .geometry import Coframe, Metric, StructureConstants, VectorField, _lie_derivative

__all__ = [
    "Potential",
    "FieldTensor",
    "SymmetryIntegral",
    "field_from_potential",
    "bianchi_residual",
    "bianchi_satisfied",
    "admissibility_residual",
    "compatibility_residual",
    "gamma_of",
    "algebraic_constraint_residual",
    "central_terms",
    "KgfChecker",
    "kgf_extra_residual_at",
]


@dataclass(frozen=True)
class Potential:
    """Covector potential A_i; the working gauge keeps A_0 = 0."""

    components: Tuple[Expr, Expr, Expr, Expr]

    @staticmethod
    def make(a0, a1, a2, a3) -> "Potential":
        return Potential(tuple(ex.Expr._coerce(c) for c in (a0, a1, a2, a3)))

    @staticmethod
    def on_coframe(coframe: Coframe, coeffs) -> "Potential":
        """A = c_a omega^a with A_0 = 0, for coefficients c_a of the forms
        omega^a of the coframe."""
        zero = ex.number(0)
        A = [zero, zero, zero]
        for c, form in zip(coeffs, coframe.forms):
            for i in range(3):
                if c and form[i]:
                    A[i] = A[i] + c * form[i]
        return Potential((zero,) + tuple(A))

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def shifted_by_gradient(self, f: Expr) -> "Potential":
        return Potential(tuple(self.components[i] + differentiate(f, i) for i in range(4)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


class FieldTensor:
    """Antisymmetric field strength F_ij."""

    def __init__(self, entries):
        self.entries = tuple(tuple(ex.Expr._coerce(v) for v in row) for row in entries)
        for i in range(4):
            if self.entries[i][i]:
                raise ValueError("field tensor must have zero diagonal")
            for j in range(i + 1, 4):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ValueError("field tensor must be antisymmetric")

    @staticmethod
    def from_upper(components) -> "FieldTensor":
        """Build from a dict {(i, j): Expr} with i < j."""
        entries = [[ex.number(0)] * 4 for _ in range(4)]
        for (i, j), v in components.items():
            v = ex.Expr._coerce(v)
            entries[i][j] = v
            entries[j][i] = -v
        return FieldTensor(entries)

    def __getitem__(self, idx) -> Expr:
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, FieldTensor) and self.entries == other.entries

    def upper_components(self):
        return {(i, j): self.entries[i][j] for i in range(4) for j in range(i + 1, 4)}

    def __str__(self) -> str:
        parts = [
            f"F{i}{j} = {v}" for (i, j), v in self.upper_components().items() if v
        ]
        return "; ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SymmetryIntegral:
    """A generator paired with its scalar correction gamma = -xi^b A_b."""

    xi: VectorField
    gamma: Expr


def field_from_potential(A: Potential) -> FieldTensor:
    """F_ij = d_i A_j - d_j A_i."""
    entries = [[ex.number(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            v = differentiate(A[j], i) - differentiate(A[i], j)
            entries[i][j] = v
            entries[j][i] = -v
    return FieldTensor(entries)


def bianchi_residual(F: FieldTensor):
    """B_ijk = d_i F_jk + d_j F_ki + d_k F_ij, fully antisymmetric."""
    res = {}
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                res[(i, j, k)] = (
                    differentiate(F[j, k], i)
                    + differentiate(F[k, i], j)
                    + differentiate(F[i, j], k)
                )
    return res


def bianchi_satisfied(F: FieldTensor) -> bool:
    return all(is_zero(v) for v in bianchi_residual(F).values())


def _contract(X: VectorField, A: Sequence[Expr]) -> Expr:
    acc = ex.number(0)
    for i in range(4):
        if X[i] and A[i]:
            acc = acc + X[i] * A[i]
    return acc


def admissibility_residual(A: Potential, F: FieldTensor, X: VectorField):
    """R_i = d_i(xi^j A_j) - xi^j F_ij; zero iff the field is admissible."""
    scalar = _contract(X, A)
    out = []
    for i in range(4):
        acc = differentiate(scalar, i)
        for j in range(4):
            if X[j]:
                acc = acc - X[j] * F[i, j]
        out.append(acc)
    return tuple(out)


def compatibility_residual(F: FieldTensor, X: VectorField):
    """(L_X F)_ij: the Lie derivative of the field tensor along X."""
    return _lie_derivative(F.entries, X)


def gamma_of(X: VectorField, A: Potential) -> Expr:
    """The scalar correction gamma = -xi^b A_b of the symmetry operator."""
    return -_contract(X, A)


def algebraic_constraint_residual(
    A: Potential, fields: Sequence[VectorField], C: StructureConstants
):
    """res[a][b] = xi_a^i d_i(xi_b^j A_j) - C^g_ab xi_g^j A_j: the algebraic
    constraints in A's gauge, which no command runs.  With C from the frame
    it is xi_b . (L_xi_a A), so it holds whenever A is admissible and can
    fail for A + d lambda; ``central_terms`` is the gauge-free test."""
    scalars = [_contract(f, A) for f in fields]
    res = []
    for a in range(3):
        row = []
        for b in range(3):
            acc = ex.number(0)
            for i in range(4):
                if fields[a][i]:
                    acc = acc + fields[a][i] * differentiate(scalars[b], i)
            for g in range(3):
                if C[a, b, g]:
                    acc = acc - C[a, b, g] * scalars[g]
            row.append(acc)
        res.append(tuple(row))
    return tuple(res)


def central_terms(
    C: StructureConstants, fields: Sequence[VectorField], tensors: Sequence[FieldTensor]
) -> int:
    """How many independent central terms the invariant fields ``tensors``
    give the algebra [X_a, X_b] = C^g_ab X_g; zero means none.

    With d mu_a = xi_a . F the central term is c_ab = -F(xi_a, xi_b) -
    C^g_ab mu_g, and shifting mu by constants moves c within the span of
    C's columns (C^g_ab)_ab.  So the count is the rank the vectors
    (F(xi_a, xi_b))_ab add, pointwise, to that span: the 2-cocycle test of
    Chevalley and Eilenberg (1948), with no potential, gauge or integration.
    """
    pairs = ((0, 1), (0, 2), (1, 2))
    columns = [[C[a, b, g] for a, b in pairs] for g in range(3)]
    # F(xi_a, xi_b) = xi_a^i F_ij xi_b^j
    cocycles = [
        [_contract(fields[a], [_contract(fields[b], row) for row in F.entries]) for a, b in pairs]
        for F in tensors
    ]
    return rank(columns + cocycles) - rank(columns)


# ---------------------------------------------------------------------------
# numeric second-order conditions
# ---------------------------------------------------------------------------

_UPPER = tuple((i, j) for i in range(4) for j in range(i, 4))
_FULL = [[_UPPER.index((min(i, j), max(i, j))) for j in range(4)] for i in range(4)]


@functools.lru_cache(maxsize=1)
def _sym_index():
    """The compiled values start with 17 symmetric matrices of 10 upper
    entries each (g, d_l g, d_k d_l g); this indexes them as 17 full 4x4
    matrices.  Built on first use, so that importing emfield loads no numpy."""
    import numpy as np

    return 10 * np.arange(17)[:, None, None] + np.array(_FULL)


class KgfChecker:
    """Numeric residuals of the two scalar consequences of admissibility.

    Checks xi^k d_k(A_l A^l) and xi^k d_k(d_l A^l + A^l chi_,l) at points,
    with chi = (1/2) ln|det g|.  The outer derivative is exact: g, A and
    their first and second derivatives are differentiated symbolically and
    compiled once, and the chain rule is applied numerically at the point
    (forward-mode differentiation by hand).  With G = g^-1 and v = G A:

        d_k f1 = 2 d_kA . v - v . d_kg . v
        d_l v = G (d_lA - d_lg v)
        d_k d_l v = G (d_kd_lA - d_kd_lg v - d_lg d_kv - d_kg d_lv)
        chi_,l = 1/2 tr(G d_lg)            (Jacobi's formula)
        d_k chi_,l = 1/2 tr(G d_kd_lg - G d_kg G d_lg)

    Generators have no u0 component, so only k = 1..3 is compiled.
    """

    def __init__(self, metric: Metric, A: Potential):
        self.metric = metric
        self.A = A
        g = [metric[i, j] for i, j in _UPPER]
        dg = [[differentiate(e, l) for e in g] for l in range(4)]
        ddg = [[differentiate(e, k) for e in dg[l]] for k in range(1, 4) for l in range(4)]
        a = list(A.components)
        da = [[differentiate(e, l) for e in a] for l in range(4)]
        dda = [[differentiate(e, k) for e in da[l]] for k in range(1, 4) for l in range(4)]
        exprs = g + [e for row in dg + ddg for e in row] + a + [e for row in da + dda for e in row]
        params, funcs = set(), set()
        for e in exprs:
            sym = free_symbols(e)
            params |= sym["params"]
            funcs |= sym["funcs"]
        self.symbols = tuple(sorted(params)) + tuple(sorted(funcs))
        # most second derivatives vanish; only the others are compiled
        self._size = len(exprs)
        self._nonzero = [i for i, e in enumerate(exprs) if e]
        self._fn = ex.compile_numeric([exprs[i] for i in self._nonzero], {}, self.symbols)
        self._last = (None, None)

    def required_symbols(self):
        return self.symbols

    def _values(self, point: Assignment):
        vals = []
        for s in self.symbols:
            if isinstance(s, str):
                if s not in point.params:
                    raise ex.EvaluationError(f"unbound parameter {s!r}")
                vals.append(point.params[s])
            else:
                key = (s.name, s.order)
                if key not in point.funcs:
                    raise ex.EvaluationError(f"unbound function symbol {s}")
                vals.append(point.funcs[key])
        return vals

    def _derivatives(self, coords, vals):
        """(d1, d2, s1, s2): d_k f1 and d_k f2 for k = 1..3, and the
        magnitudes of the terms f1 and f2 are assembled from (cancellation
        scales)."""
        import numpy as np

        # overflow at a point gives non-finite residuals, which the caller
        # counts; numpy need not warn about them as well
        with np.errstate(all="ignore"):
            out = np.zeros(self._size)
            out[self._nonzero] = self._fn(*coords, *vals)
            mats = out[_sym_index()]
            vecs = out[170:].reshape(17, 4)  # A, d_l A, d_k d_l A
            g, dg, ddg = mats[0], mats[1:5], mats[5:].reshape(3, 4, 4, 4)
            a, da, dda = vecs[0], vecs[1:5], vecs[5:].reshape(3, 4, 4)
            if abs(np.linalg.det(g)) < 1e-12:
                raise ex.EvaluationError("metric singular at a sample point")
            ginv = np.linalg.inv(g)
            v = ginv @ a
            gdg = ginv @ dg  # G d_l g
            chi = 0.5 * np.trace(gdg, axis1=1, axis2=2)
            dv = (da - dg @ v) @ ginv  # row l: d_l v (G is symmetric)
            d1 = 2.0 * da[1:] @ v - (dg[1:] @ v) @ v
            ddv = (
                dda
                - ddg @ v
                - np.einsum("lmn,kn->klm", dg, dv[1:])
                - np.einsum("kmn,ln->klm", dg[1:], dv)
            )
            dchi = 0.5 * (
                np.einsum("ij,klji->kl", ginv, ddg)
                - np.einsum("kij,lji->kl", gdg[1:], gdg)
            )
            d2 = np.einsum("lm,klm->k", ginv, ddv) + dv[1:] @ chi + dchi @ v
            aginv = np.abs(ginv)
            aa = np.abs(a)
            dginv_diag = np.einsum("llm->lm", gdg @ ginv)  # row l of G d_lg G
            s1 = aa @ aginv @ aa
            s2 = (
                np.sum(np.abs(dginv_diag) @ aa)
                + np.sum(aginv * np.abs(da))
                + (aginv @ aa) @ np.abs(chi)
            )
            return d1.tolist(), d2.tolist(), float(s1), float(s2)

    def residuals(self, X: VectorField, point: Assignment) -> Tuple[float, float]:
        """The two directional residuals for generator X at the point.

        Each residual is normalized by the magnitude of the scalar being
        differentiated (plus one), making it a dimensionless zero-test that
        stays meaningful when the inverse metric is large at the point.

        The derivatives of the last point are kept, keyed by the point's
        values (an ``Assignment`` is mutable), so the generators of one point
        share one evaluation.
        """
        if not X.is_group_generator():
            raise ex.InputError("generator must have zero u0 component")
        vals = self._values(point)
        xi = [evaluate(X[i], point) for i in range(1, 4)]
        key = (point.coords, tuple(vals))
        last_key, derivs = self._last
        if last_key != key:
            derivs = self._derivatives(point.coords, vals)
            self._last = (key, derivs)
        d1, d2, m1, m2 = derivs
        r1 = r2 = 0.0
        s1 = s2 = 1.0
        for x, e1, e2 in zip(xi, d1, d2):
            if abs(x) < 1e-15:
                continue
            r1 += x * e1
            r2 += x * e2
            s1 += abs(x) * m1
            s2 += abs(x) * m2
        return r1 / s1, r2 / s2


def kgf_extra_residual_at(
    g: Metric, A: Potential, X: VectorField, point: Assignment
) -> Tuple[float, float]:
    """One-shot version of KgfChecker for a single generator and point."""
    return KgfChecker(g, A).residuals(X, point)
