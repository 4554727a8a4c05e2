"""Lie-algebra and metric machinery on a four-dimensional chart.

Coordinate ``u0`` is the non-ignorable direction; a three-parameter symmetry
group acts on the ``u1..u3`` slice, so group generators have vanishing ``u0``
component.  Invariant metrics are assembled from an invariant coframe with
abstract coefficient functions of ``u0``.  The exact determinant and Cramer
solve that the frame and metric code use are ``_symint``'s ``det`` and
``cramer``.

Only ``metric_sample`` uses numpy, and it loads numpy when it is called, so
the symbolic machinery runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from . import expr as ex
from ._symint import cramer, det, fundamental_matrix
from .expr import Expr, Assignment, is_zero, differentiate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "VectorField",
    "StructureConstants",
    "Coframe",
    "Metric",
    "MetricSample",
    "GeometryError",
    "DegenerateFrameError",
    "NonClosingFrameError",
    "SingularMetricError",
    "lie_bracket",
    "structure_constants_from_frame",
    "jacobi_residual",
    "jacobi_satisfied",
    "killing_residual",
    "killing_satisfied",
    "lie_derivative_vanishes",
    "invariant_coframe",
    "coframe_is_invariant",
    "metric_from_coframe",
    "metric_sample",
]


class GeometryError(Exception):
    pass


class DegenerateFrameError(GeometryError):
    """The fields are not three generators acting simply transitively on the
    group slice."""


class NonClosingFrameError(GeometryError):
    """Brackets leave the span of the frame or have non-constant coefficients."""


class SingularMetricError(GeometryError):
    """The metric determinant vanishes at the requested point."""


@dataclass(frozen=True)
class VectorField:
    """Contravariant components over (u0, u1, u2, u3)."""

    components: Tuple[Expr, Expr, Expr, Expr]

    @staticmethod
    def make(c0, c1, c2, c3) -> "VectorField":
        return VectorField(tuple(ex.Expr._coerce(c) for c in (c0, c1, c2, c3)))

    @staticmethod
    def spatial(c1, c2, c3) -> "VectorField":
        return VectorField.make(0, c1, c2, c3)

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def is_group_generator(self) -> bool:
        return not self.components[0]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, exact and canonical."""
    comps = []
    for i in range(4):
        acc = ex.number(0)
        for j in range(4):
            if X[j]:
                acc = acc + X[j] * differentiate(Y[i], j)
            if Y[j]:
                acc = acc - Y[j] * differentiate(X[i], j)
        comps.append(acc)
    return VectorField(tuple(comps))


class StructureConstants:
    """Exact constants c[a][b][g] with [xi_a, xi_b] = sum_g c[a][b][g] xi_g.

    Entries are exact scalars: rationals, or constant-angle combinations for
    the one family whose algebra carries an angle parameter.
    """

    def __init__(self, c):
        self.c = tuple(
            tuple(tuple(ex.Expr._coerce(c[a][b][g]) for g in range(3)) for b in range(3))
            for a in range(3)
        )
        for a in range(3):
            for b in range(3):
                for g in range(3):
                    if not is_zero(self.c[a][b][g] + self.c[b][a][g]):
                        raise NonClosingFrameError("structure constants must be antisymmetric")

    def __getitem__(self, idx):
        a, b, g = idx
        return self.c[a][b][g]

    def __eq__(self, other):
        return isinstance(other, StructureConstants) and self.c == other.c

    def nonzero_entries(self):
        out = []
        for a in range(3):
            for b in range(a + 1, 3):
                for g in range(3):
                    if self.c[a][b][g]:
                        out.append((a, b, g, self.c[a][b][g]))
        return out

    def __str__(self) -> str:
        parts = [
            f"C^{g + 1}_{{{a + 1}{b + 1}}} = {v}" for a, b, g, v in self.nonzero_entries()
        ]
        return "; ".join(parts) if parts else "all zero"


def _frame_matrix(fields: Sequence[VectorField]):
    """(matrix, det) of three group generators: their components on d1..d3,
    one column per generator, and its exact determinant.  The group must act
    simply transitively on the slice, so fewer or more than three fields, a
    nonzero u0 component, or a determinant that is identically zero raises
    DegenerateFrameError."""
    if len(fields) != 3:
        raise DegenerateFrameError("need exactly three generators")
    if not all(f.is_group_generator() for f in fields):
        raise DegenerateFrameError("group generators must have zero u0 component")
    mat = [[f[i] for f in fields] for i in (1, 2, 3)]
    d = det(mat)
    if is_zero(d):
        raise DegenerateFrameError(
            "the group does not act simply transitively: the frame determinant is identically zero"
        )
    return mat, d


def structure_constants_from_frame(fields: Sequence[VectorField]) -> StructureConstants:
    """Exact structure constants of a simply transitive frame.

    Each pairwise bracket is expanded in the frame by one Cramer solve
    against the frame matrix; a coefficient that is not constant raises
    NonClosingFrameError.
    """
    fields = list(fields)
    mat, d = _frame_matrix(fields)
    c = [[[ex.number(0)] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        for b in range(a + 1, 3):
            br = lie_bracket(fields[a], fields[b])
            coeffs = cramer(mat, [br[i + 1] for i in range(3)], d)
            for g in range(3):
                cg = coeffs[g]
                if not cg.is_constant():
                    raise NonClosingFrameError(
                        f"bracket [{a + 1},{b + 1}] has non-constant coefficient {cg}"
                    )
                c[a][b][g] = cg
                c[b][a][g] = -cg
    return StructureConstants(c)


def jacobi_residual(C: StructureConstants):
    """Exact residual array of the Jacobi identity, indexed [a][b][g][s].

    The constants of a G3 are mostly zero, so only products of two nonzero
    constants are formed; a zero product is never built.
    """
    res = []
    for a in range(3):
        plane = []
        for b in range(3):
            row = []
            for g in range(3):
                entry = []
                for s in range(3):
                    acc = ex.number(0)
                    for t in range(3):
                        for x, y in (
                            (C[a, b, t], C[g, t, s]),
                            (C[b, g, t], C[a, t, s]),
                            (C[g, a, t], C[b, t, s]),
                        ):
                            if x and y:
                                acc = acc + x * y
                    entry.append(acc)
                row.append(tuple(entry))
            plane.append(tuple(row))
        res.append(tuple(plane))
    return tuple(res)


def jacobi_satisfied(C: StructureConstants) -> bool:
    res = jacobi_residual(C)
    return all(
        is_zero(res[a][b][g][s])
        for a in range(3)
        for b in range(3)
        for g in range(3)
        for s in range(3)
    )


# ---------------------------------------------------------------------------
# coframes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coframe:
    """Three invariant one-forms; components over (du1, du2, du3)."""

    forms: Tuple[Tuple[Expr, Expr, Expr], ...]

    def component(self, a: int, i: int) -> Expr:
        """Component of form ``a`` (0-based) on du_i (i in 1..3)."""
        return self.forms[a][i - 1]

    def matrix(self):
        return [[self.forms[a][i] for i in range(3)] for a in range(3)]


def _lie_derivative(T, X: VectorField, cleared: bool = False):
    """Covariant Lie derivative along X of a covector (four entries) or of a
    2-tensor (4x4 rows) with T_ji = +-T_ij, which the result shares:

        (L_X T)_I = X^k d_k T_I + sum over slots s of T_(I, k in slot s) d_(I_s) X^k

    A term whose X^k or d_(I_s) X^k is zero is skipped, so no zero product
    is formed.

    With ``cleared`` the result is D_X D_T (L_X T), with the denominators
    cleared before the products: X and dX are multiplied first by the
    monomial D_X that clears every negative power in their numerators, and
    T and dT by D_T (``ex.clearing_monomial``).  For entries without a sum
    denominator the factors then carry no negative power (trig polynomials
    for IX), and neither does each entry, whose canonical form is the empty
    sum exactly when the entry of L_X T is zero.  The plain residual instead
    multiplies the quotients out term by term, and its sum of trig
    quotients need not collapse before ``is_zero`` clears and samples it.
    When D_X = D_T = 1 both do the same work.
    """
    vector = isinstance(T[0], Expr)
    if vector:
        entries = {(i,): T[i] for i in range(4)}
        comps = list(entries)
    else:
        entries = {(i, j): T[i][j] for i in range(4) for j in range(4)}
        symmetric = all(T[i][j] == T[j][i] for i in range(4) for j in range(i))
        comps = [(i, j) for i in range(4) for j in range(i if symmetric else i + 1, 4)]
    Xs = X.components
    dX = [[differentiate(X[k], i) for i in range(4)] for k in range(4)]
    dT = {I: [differentiate(entries[I], k) if X[k] else None for k in range(4)] for I in comps}
    if cleared:
        D = ex.clearing_monomial(Xs + tuple(d for row in dX for d in row))
        if D is not ex.ONE:
            Xs = tuple(D * x for x in Xs)
            dX = [[D * d for d in row] for row in dX]
        D = ex.clearing_monomial(
            list(entries.values()) + [d for row in dT.values() for d in row if d is not None]
        )
        if D is not ex.ONE:
            entries = {I: D * e for I, e in entries.items()}
            dT = {I: [d if d is None else D * d for d in row] for I, row in dT.items()}

    def component(I):
        acc = ex.number(0)
        for k in range(4):
            if Xs[k]:
                acc = acc + Xs[k] * dT[I][k]
            for s, i in enumerate(I):
                if dX[k][i]:
                    acc = acc + entries[I[:s] + (k,) + I[s + 1:]] * dX[k][i]
        return acc

    if vector:
        return tuple(component(I) for I in comps)
    res = [[ex.number(0)] * 4 for _ in range(4)]
    for i, j in comps:
        res[i][j] = component((i, j))
        res[j][i] = res[i][j] if symmetric else -res[i][j]
    return tuple(tuple(row) for row in res)


def lie_derivative_vanishes(T, X: VectorField) -> bool:
    """L_X T = 0 for a covector or 2-tensor T as ``_lie_derivative`` takes
    it, tested on the cleared form: a zero entry is the empty sum, so
    ``is_zero`` returns at once, and only a nonzero one is sampled.  The
    verdict is that of ``is_zero`` on every entry of the plain residual."""
    res = _lie_derivative(T, X, cleared=True)
    if isinstance(res[0], Expr):
        return all(is_zero(c) for c in res)
    return all(is_zero(res[i][j]) for i in range(4) for j in range(i, 4))


def coframe_is_invariant(cf: Coframe, fields: Sequence[VectorField]) -> bool:
    """L_X s = 0 on du1..du3 for every form s and generator X, tested on the
    cleared Lie derivative as ``lie_derivative_vanishes`` tests it."""
    for X in fields:
        for form in cf.forms:
            res = _lie_derivative((ex.number(0),) + form, X, cleared=True)
            if any(not is_zero(c) for c in res[1:]):
                return False
    return True


def _is_translation(f: VectorField) -> Optional[int]:
    """Coordinate index j (1..3) when the field is exactly d/du_j."""
    for j in range(1, 4):
        if f[j] == ex.number(1) and all(not f[i] for i in range(4) if i != j):
            return j
    return None


def _closed_form_candidates():
    """Verified invariant coframes for the two frame shapes that have no
    pair of coordinate translations."""
    u1, u3 = ex.coord(1), ex.coord(3)
    em = ex.exp(-u3)
    s1, c1 = ex.sin(u1), ex.cos(u1)
    s3, c3 = ex.sin(u3), ex.cos(u3)
    return [
        Coframe(
            (
                (ex.number(1), u1 * u1 * em, -u1),
                (ex.number(0), em, ex.number(0)),
                (ex.number(0), -2 * u1 * em, ex.number(1)),
            )
        ),
        Coframe(
            (
                (c3, s3 * s1, ex.number(0)),
                (-s3, c3 * s1, ex.number(0)),
                (ex.number(0), c1, ex.number(1)),
            )
        ),
    ]


def invariant_coframe(fields: Sequence[VectorField]) -> Coframe:
    """Invariant coframe of a simply transitive frame on the group slice.

    A frame that is not simply transitive raises the same
    DegenerateFrameError as ``structure_constants_from_frame``.  A frame
    with two coordinate translations d_p, d_q and a third field X with
    constant X_r != 0 and constant gradient reduces the invariance equations
    to E' = N E in u_r, with N = -grad(X)/X_r; the coframe is E = exp(u_r N)
    (types I-VII, where N is zero or one 2x2 block; any other N raises
    UnsupportedExpressionError).  The two classical frames without such a
    pair (VIII, IX) are matched against verified closed forms; any other
    frame raises GeometryError.  Everything returned has been checked to
    satisfy L_X s = 0 for every generator.
    """
    fields = list(fields)
    _frame_matrix(fields)

    translations = {}
    others = []
    for f in fields:
        j = _is_translation(f)
        if j is not None and j not in translations:
            translations[j] = f
        else:
            others.append(f)

    if len(translations) == 2 and len(others) == 1:
        r = next(j for j in range(1, 4) if j not in translations)
        X = others[0]
        xr = X[r]
        if xr.is_constant() and xr:
            grad = [[differentiate(X[b + 1], g + 1) for b in range(3)] for g in range(3)]
            if all(e.is_constant() for row in grad for e in row):
                scale = ex.number(-1) / xr
                N = [[grad[g][b] * scale for b in range(3)] for g in range(3)]
                E = fundamental_matrix(N, r)
                cf = Coframe(tuple(tuple(E[g][a] for g in range(3)) for a in range(3)))
                if not coframe_is_invariant(cf, fields):
                    raise GeometryError("constructed coframe failed the invariance check")
                if is_zero(det(cf.matrix())):
                    raise DegenerateFrameError("constructed coframe is degenerate")
                return cf

    for cand in _closed_form_candidates():
        if coframe_is_invariant(cand, fields):
            return cand

    raise GeometryError("no invariant coframe construction available for this frame shape")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class Metric:
    """Symmetric metric; catalog metrics have g00 = e and g0a = 0."""

    def __init__(self, entries, sign: Expr):
        self.entries = tuple(tuple(ex.Expr._coerce(v) for v in row) for row in entries)
        self.sign = ex.Expr._coerce(sign)
        for i in range(4):
            for j in range(i + 1, 4):
                if self.entries[i][j] != self.entries[j][i]:
                    raise GeometryError("metric entries must be symmetric")
        self._det: Optional[Expr] = None
        self._ddet: Optional[Tuple[Expr, ...]] = None

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Metric) and self.entries == other.entries

    def determinant(self) -> Expr:
        if self._det is None:
            self._det = det(self.entries)
        return self._det

    def determinant_gradient(self) -> Tuple[Expr, ...]:
        if self._ddet is None:
            det = self.determinant()
            self._ddet = tuple(differentiate(det, i) for i in range(4))
        return self._ddet


_SPATIAL_FUNCTIONS = (
    ("a11", "a12", "a13"),
    ("a12", "a22", "a23"),
    ("a13", "a23", "a33"),
)


def metric_from_coframe(cf: Coframe) -> Metric:
    """Invariant metric a_st(u0) s^s s^t + e (du0)^2 from a coframe."""
    sign = ex.param("e")
    a = [[ex.func(_SPATIAL_FUNCTIONS[s][t]) for t in range(3)] for s in range(3)]
    entries = [[ex.number(0)] * 4 for _ in range(4)]
    entries[0][0] = sign
    for i in range(1, 4):
        for j in range(i, 4):
            acc = ex.number(0)
            for s in range(3):
                for t in range(3):
                    acc = acc + a[s][t] * cf.component(s, i) * cf.component(t, j)
            entries[i][j] = acc
            entries[j][i] = acc
    return Metric(entries, sign)


def killing_residual(g: Metric, X: VectorField):
    """(L_X g)_ij as a symmetric 4x4 array of canonical expressions: the
    plain residual, which a failing check prints."""
    return _lie_derivative(g.entries, X)


def killing_satisfied(g: Metric, X: VectorField) -> bool:
    """L_X g = 0, with the denominators cleared before the products
    (``lie_derivative_vanishes``); the verdict is that of ``is_zero`` on
    every entry of ``killing_residual``."""
    return lie_derivative_vanishes(g.entries, X)


@dataclass
class MetricSample:
    """Numeric snapshot of a metric at one point."""

    point: Assignment
    g: np.ndarray
    ginv: np.ndarray
    chi_grad: np.ndarray


def metric_sample(metric: Metric, point: Assignment) -> MetricSample:
    """Numeric metric, inverse, and the gradient of chi = (1/2) ln|det g|.

    The determinant is differentiated exactly; only the final ratio is
    evaluated in floating point.
    """
    import numpy as np

    g = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            g[i, j] = ex.evaluate(metric[i, j], point)
    det_val = ex.evaluate(metric.determinant(), point)
    if abs(det_val) < 1e-12:
        raise SingularMetricError(f"metric is singular at {point.coords}")
    ginv = np.linalg.inv(g)
    ddet = metric.determinant_gradient()
    chi = np.array([0.5 * ex.evaluate(ddet[i], point) / det_val for i in range(4)])
    return MetricSample(point, g, ginv, chi)
