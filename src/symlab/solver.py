"""Closed-form solution of the field-tensor system for the nine types.

Every model carries an invariant coframe omega^a, and an invariant 2-form
has constant coefficients in it (Ellis and MacCallum, 1969).  So the closed
invariant fields are F = d(f_a(u0) omega^a) plus the closed constant
2-forms that are not exact, the Lie-algebra cohomology H^2 (Chevalley and
Eilenberg, 1948).  There is no ODE to integrate and no case split by type.
The constants of the H^2 part give the algebra central terms
(``emfield.central_terms``), so the algebraic constraints then eliminate them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from . import expr as ex
from .expr import Expr, differentiate, is_zero
from ._symint import antiderivative, cramer, definite_integral, det
from .catalog import get_model
from .geometry import StructureConstants, VectorField, structure_constants_from_frame
from .emfield import (
    FieldTensor,
    Potential,
    bianchi_residual,
    bianchi_satisfied,
    central_terms,
    compatibility_residual,
    field_from_potential,
)

__all__ = [
    "PAIRS",
    "FieldSystem",
    "SolutionFamily",
    "SolverError",
    "UnsupportedGroupError",
    "build_field_system",
    "solve_solvable",
    "apply_algebraic_constraints",
    "reconstruct_potential",
    "catalog_witness",
]

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class SolverError(Exception):
    pass


class UnsupportedGroupError(SolverError):
    """A group the solver cannot handle.  Every catalog type is solved, so
    nothing raises it today; callers may still catch it."""


@dataclass(frozen=True)
class FieldSystem:
    """The equations on the six field components: closure dF = 0 and
    invariance L_xi F = 0 under every generator of the frame.  Invariance
    alone fixes every first derivative of F along the group orbits."""

    frame: Tuple[VectorField, ...]
    constants: StructureConstants

    def residuals(self, F: FieldTensor) -> List[Tuple[str, Expr]]:
        """Every equation applied to a candidate tensor, as named residuals."""
        out = [(f"closure {i}{j}{k}", v) for (i, j, k), v in bianchi_residual(F).items()]
        for a, X in enumerate(self.frame):
            comp = compatibility_residual(F, X)
            for i in range(4):
                for j in range(i + 1, 4):
                    out.append((f"L_xi{a + 1} F[{i}{j}]", comp[i][j]))
        return out

    def satisfied_by(self, F: FieldTensor) -> bool:
        return all(is_zero(v) for _n, v in self.residuals(F))


def build_field_system(C: StructureConstants, frame: Sequence[VectorField]) -> FieldSystem:
    """The closure and invariance equations of a frame with constants C.

    Kept for the public API and its tests: ``solve_solvable`` builds its
    system from a catalog model, whose constants already come from the frame.
    """
    frame = tuple(frame)
    derived = structure_constants_from_frame(frame)
    if derived != C:
        raise SolverError("structure constants do not match the frame")
    return FieldSystem(frame=frame, constants=derived)


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

_FUNC_POOL = ("f1", "f2", "f3")
_CONST_POOL = ("ta", "tb", "tc")
_SPATIAL = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class SolutionFamily:
    """General solution of a field system, parametrized by free functions of
    u0 and free constants."""

    type_tag: str
    components: Dict[Tuple[int, int], Expr]
    free_functions: Tuple[str, ...]
    free_constants: Tuple[str, ...]
    system: FieldSystem

    def as_field_tensor(self) -> FieldTensor:
        return FieldTensor.from_upper(self.components)

    def substitute(self, funcs=None, consts=None) -> Dict[Tuple[int, int], Expr]:
        params = {name: ex.Expr._coerce(v) for name, v in (consts or {}).items()}
        out = {}
        for pair, e in self.components.items():
            out[pair] = ex.substitute(e, funcs=funcs or {}, params=params)
        return out

    def __str__(self) -> str:
        lines = [f"type {self.type_tag} field family:"]
        for (i, j) in PAIRS:
            lines.append(f"  F{i}{j} = {self.components[(i, j)]}")
        if self.free_functions:
            lines.append("  free functions of u0: " + ", ".join(self.free_functions))
        if self.free_constants:
            lines.append("  free constants: " + ", ".join(self.free_constants))
        return "\n".join(lines)


def solve_solvable(type_tag: str, q=None) -> SolutionFamily:
    """General closed invariant field family for any of the nine types.

    In the model's invariant coframe omega^a an invariant field has constant
    coefficients, so F = d(f_a(u0) omega^a) + sum_k t_k Omega_k.  The Omega_k
    are the wedges omega^b ^ omega^c that are closed and give the algebra
    independent central terms (``emfield.central_terms``): an exact form
    d(c_a omega^a) gives none, so these are the constants that survive
    dF = 0 without coming from a potential.  ``q`` is type VI's free
    structure constant; any other type rejects it.
    """
    model = get_model(type_tag, q=q)
    system = FieldSystem(frame=model.frame, constants=model.constants)
    omega = model.coframe.forms
    A = Potential.on_coframe(model.coframe, [ex.func(name) for name in _FUNC_POOL])
    comps = field_from_potential(A).upper_components()
    wedges: List[FieldTensor] = []
    for b, c in ((0, 1), (0, 2), (1, 2)):
        wedge = FieldTensor.from_upper({
            (i, j): omega[b][i - 1] * omega[c][j - 1] - omega[b][j - 1] * omega[c][i - 1]
            for (i, j) in _SPATIAL
        })
        closed = is_zero(bianchi_residual(wedge)[(1, 2, 3)])
        if closed and central_terms(system.constants, system.frame, wedges + [wedge]) > len(wedges):
            name = _CONST_POOL[len(wedges)]
            wedges.append(wedge)
            for pair in _SPATIAL:
                comps[pair] = comps[pair] + ex.param(name) * wedge[pair]
    return SolutionFamily(
        type_tag=model.type_tag,
        components=comps,
        free_functions=_FUNC_POOL,
        free_constants=_CONST_POOL[: len(wedges)],
        system=system,
    )


# ---------------------------------------------------------------------------
# potential reconstruction and constraint elimination
# ---------------------------------------------------------------------------


def reconstruct_potential(F: FieldTensor) -> Potential:
    """Potential with A_0 = 0 and dA = F, by coordinate-path integration.

    The spatial part integrates along the axis path from the origin of the
    group slice; the u0 dependence is then matched by integrating the time
    rows, lowering derivative orders of the abstract functions.  Closure of
    F is required and the result is verified exactly before returning.
    """
    if not bianchi_satisfied(F):
        raise SolverError("field tensor is not closed; no potential exists")
    zero = ex.number(0)
    u = [ex.coord(i) for i in range(4)]

    phi = [zero, zero, zero, zero]
    for j in (2, 3):
        phi[j] = phi[j] + definite_integral(F[1, j], 1, u[1])
    f23_slice = ex.substitute(F[2, 3], coords={1: zero})
    phi[3] = phi[3] + definite_integral(f23_slice, 2, u[2])

    A = [zero, zero, zero, zero]
    for a in (1, 2, 3):
        h = F[0, a] - differentiate(phi[a], 0)
        try:
            w = antiderivative(h, 0) if h else zero
        except ex.UnsupportedExpressionError as err:
            raise SolverError(
                f"time row F_0{a} is not integrable in the function class: {err}"
            ) from None
        A[a] = phi[a] + w

    out = Potential(tuple(A))
    rebuilt = field_from_potential(out)
    bad = [
        (i, j)
        for i in range(4)
        for j in range(i + 1, 4)
        if not is_zero(rebuilt[i, j] - F[i, j])
    ]
    if bad:
        raise SolverError(f"reconstruction failed the closure check at {bad}")
    return out


def apply_algebraic_constraints(fam: SolutionFamily) -> SolutionFamily:
    """Eliminate the free constants through the algebraic constraints.

    The constraints say that the symmetry operators close with no central
    term, which ``central_terms`` decides from F and C alone.  Each constant
    must be forced to zero: the wedges the constants multiply add one
    central term each.  The family with every constant at zero must then
    add none.
    """
    zeros = dict.fromkeys(fam.free_constants, 0)
    base = fam.substitute(consts=zeros)
    wedges = []
    for name in fam.free_constants:
        unit = fam.substitute(consts={**zeros, name: 1})
        wedges.append(FieldTensor.from_upper({pair: unit[pair] - base[pair] for pair in unit}))
    frame, C = fam.system.frame, fam.system.constants
    if central_terms(C, frame, wedges) != len(wedges):
        raise SolverError("algebraic constraints do not determine the constants")
    if central_terms(C, frame, [FieldTensor.from_upper(base)]):
        raise SolverError("constraints remain violated after elimination")
    return replace(fam, components=base, free_constants=())


# ---------------------------------------------------------------------------
# catalog reproduction witnesses
# ---------------------------------------------------------------------------


def catalog_witness(fam: SolutionFamily) -> Dict[str, Expr]:
    """Explicit assignment of the family's free functions reproducing the
    catalog field tensor (free constants at zero): the coefficients of the
    catalog potential in the invariant coframe, A_i = sum_a f_a omega^a_i."""
    # recover the free structure constant a type VI family was solved with
    q = fam.system.constants[1, 2, 1].as_rational() if fam.type_tag == "VI" else None
    model = get_model(fam.type_tag, q=q)
    mat = [[model.coframe.forms[a][i] for a in range(3)] for i in range(3)]
    coeffs = cramer(mat, [model.potential[i] for i in (1, 2, 3)], det(mat))
    return dict(zip(fam.free_functions, coeffs))
