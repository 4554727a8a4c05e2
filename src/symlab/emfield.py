"""Residual checks for electromagnetic fields that keep the group's motion
integrals intact.

Every condition is implemented as a computable residual: identically-zero
residuals certify that the field admits the symmetry operators.  Symbolic
residuals use the exact engine; the two second-order scalar conditions that
involve the inverse metric are checked numerically at sample points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import expr as ex
from .expr import Expr, Assignment, differentiate, evaluate, free_symbols, is_zero
from .geometry import Metric, StructureConstants, VectorField, _lie_derivative_2tensor

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

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def in_working_gauge(self) -> bool:
        return not self.components[0]

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


def _contract(X: VectorField, A: Potential) -> Expr:
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
    return _lie_derivative_2tensor(F, X, -1)


def gamma_of(X: VectorField, A: Potential) -> Expr:
    """The scalar correction gamma = -xi^b A_b of the symmetry operator."""
    return -_contract(X, A)


def algebraic_constraint_residual(
    A: Potential, fields: Sequence[VectorField], C: StructureConstants
):
    """res[a][b] = xi_a^i d_i(xi_b^j A_j) - C^g_ab xi_g^j A_j."""
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


# ---------------------------------------------------------------------------
# numeric second-order conditions
# ---------------------------------------------------------------------------

_FD_H = 1e-5
_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h)


class KgfChecker:
    """Numeric residuals of the two scalar consequences of admissibility.

    Checks xi^i d_i(A_l A^l) and xi^k d_k(d_l A^l + A^l chi_,l) at points,
    raising indices with the numeric inverse metric and taking the outer
    directional derivative by fourth-order central differences (h = 1e-5).
    Compiles every needed component once so sweeps over many points are cheap.
    """

    def __init__(self, metric: Metric, A: Potential):
        self.metric = metric
        self.A = A
        g = [metric[i, j] for i in range(4) for j in range(4)]
        dg = [
            differentiate(metric[i, j], l)
            for l in range(4)
            for i in range(4)
            for j in range(4)
        ]
        a = list(A.components)
        da = [differentiate(A[m], l) for l in range(4) for m in range(4)]
        det = metric.determinant()
        ddet = list(metric.determinant_gradient())
        self._exprs = g + dg + a + da + [det] + ddet
        params, funcs = set(), set()
        for e in self._exprs:
            sym = free_symbols(e)
            params |= sym["params"]
            funcs |= sym["funcs"]
        self.symbols = tuple(sorted(params)) + tuple(sorted(funcs))
        self._fn = ex.compile_numeric(self._exprs, {}, self.symbols)
        self._last = (None, {})

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

    def _scalars(self, coords, vals):
        """(f1, f2, scale1, scale2): the two scalars and the magnitudes of
        the terms they are assembled from (cancellation scales)."""
        out = self._fn(*coords, *vals)
        g = np.array(out[0:16]).reshape(4, 4)
        dg = np.array(out[16:80]).reshape(4, 4, 4)
        a = np.array(out[80:84])
        da = np.array(out[84:100]).reshape(4, 4)
        det = out[100]
        ddet = np.array(out[101:105])
        if abs(det) < 1e-12:
            raise ex.EvaluationError("metric singular at a stencil point")
        ginv = np.linalg.inv(g)
        aginv = np.abs(ginv)
        aa = np.abs(a)
        chi = 0.5 * ddet / det
        f1 = a @ ginv @ a
        s1 = aa @ aginv @ aa
        div = 0.0
        sdiv = 0.0
        for l in range(4):
            dginv_l = -ginv @ dg[l] @ ginv
            div += dginv_l[l] @ a + ginv[l] @ da[l]
            sdiv += np.abs(dginv_l[l]) @ aa + aginv[l] @ np.abs(da[l])
        f2 = div + (ginv @ a) @ chi
        s2 = sdiv + (aginv @ aa) @ np.abs(chi)
        return f1, f2, s1, s2

    def _stencil(self, coords, vals, i):
        """(d1, d2, m1, m2) along axis i: the 4-point stencil sums of the two
        scalars (before the 1/(12 h) factor) and their largest cancellation
        scales.  The same for every generator; only the weight xi^i differs."""
        d1 = d2 = 0.0
        m1 = m2 = 0.0
        for off, w in _STENCIL:
            shifted = list(coords)
            shifted[i] += off * _FD_H
            f1, f2, fs1, fs2 = self._scalars(shifted, vals)
            d1 += w * f1
            d2 += w * f2
            m1 = max(m1, fs1)
            m2 = max(m2, fs2)
        return d1, d2, m1, m2

    def residuals(self, X: VectorField, point: Assignment) -> Tuple[float, float]:
        """The two directional residuals for generator X at the point.

        Each residual is normalized by the magnitude of the scalar being
        differentiated (plus one), making it a dimensionless zero-test that
        stays meaningful when the inverse metric is large at the point.

        The stencils of the last point are kept, keyed by the point's values
        (an ``Assignment`` is mutable), so the generators of one point share
        them; an axis is filled when first needed.
        """
        vals = self._values(point)
        xi0 = evaluate(X[0], point)
        if abs(xi0) > 1e-13:
            raise ValueError("generator must have zero u0 component")
        xi = [evaluate(X[i], point) for i in range(4)]
        key = (point.coords, tuple(vals))
        last_key, stencils = self._last
        if last_key != key:
            stencils = {}
            self._last = (key, stencils)
        r1 = r2 = 0.0
        s1 = s2 = 1.0
        # overflow at a point gives non-finite residuals, which the caller
        # counts; numpy need not warn about them as well
        with np.errstate(all="ignore"):
            for i in range(1, 4):
                if abs(xi[i]) < 1e-15:
                    continue
                if i not in stencils:
                    stencils[i] = self._stencil(point.coords, vals, i)
                d1, d2, m1, m2 = stencils[i]
                r1 += xi[i] * d1 / (12.0 * _FD_H)
                r2 += xi[i] * d2 / (12.0 * _FD_H)
                s1 += abs(xi[i]) * m1
                s2 += abs(xi[i]) * m2
            return r1 / s1, r2 / s2


def kgf_extra_residual_at(
    g: Metric, A: Potential, X: VectorField, point: Assignment
) -> Tuple[float, float]:
    """One-shot version of KgfChecker for a single generator and point."""
    return KgfChecker(g, A).residuals(X, point)
