"""Closed-form solution of the field-tensor system for the solvable types.

For the seven solvable types the generator frame contains the Abelian pair
of coordinate translations, so the invariance conditions plus the exterior
identities reduce to a first-order linear system in u3 with exact constant
coefficients.  The general solution is the fundamental matrix applied to
free functions of u0; the cross identities then tie the time derivatives
together, and the leftover integration constants are eliminated through the
algebraic constraints on the reconstructed potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from .expr import Expr, FuncSymbol, differentiate, is_zero
from ._symint import antiderivative, definite_integral, fundamental_matrix, row_reduce
from .geometry import (
    StructureConstants,
    VectorField,
    _is_translation,
    structure_constants_from_frame,
)
from .emfield import (
    FieldTensor,
    Potential,
    algebraic_constraint_residual,
    bianchi_residual,
    bianchi_satisfied,
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
    """The frame lacks the Abelian translation pair the solver relies on."""


@dataclass(frozen=True)
class FieldSystem:
    """The reduced linear system for the six field components.

    ``ode_matrix[m][n]`` gives d(F_m)/du3 = sum_n ode_matrix[m][n] F_n over
    the component order ``PAIRS``; all u1 and u2 derivatives vanish.  The
    exterior identities couple the u0 and u3 derivatives across components.
    """

    frame: Tuple[VectorField, ...]
    constants: StructureConstants
    ode_matrix: Tuple[Tuple[Expr, ...], ...]
    vanishing_directions: Tuple[int, ...]

    def residuals(self, F: FieldTensor) -> List[Tuple[str, Expr]]:
        """Every equation applied to a candidate tensor, as named residuals."""
        out: List[Tuple[str, Expr]] = []
        for d in self.vanishing_directions:
            for (i, j) in PAIRS:
                out.append((f"dF{i}{j}/du{d}", differentiate(F[i, j], d)))
        for m, (i, j) in enumerate(PAIRS):
            acc = differentiate(F[i, j], 3)
            for n, (k, l) in enumerate(PAIRS):
                if self.ode_matrix[m][n]:
                    acc = acc - self.ode_matrix[m][n] * F[k, l]
            out.append((f"dF{i}{j}/du3 system row", acc))
        for (i, j, k), v in bianchi_residual(F).items():
            out.append((f"closure {i}{j}{k}", v))
        for a, X in enumerate(self.frame):
            comp = compatibility_residual(F, X)
            for i in range(4):
                for j in range(i + 1, 4):
                    out.append((f"L_xi{a + 1} F[{i}{j}]", comp[i][j]))
        return out

    def satisfied_by(self, F: FieldTensor) -> bool:
        return all(is_zero(v) for _n, v in self.residuals(F))


def build_field_system(C: StructureConstants, frame: Sequence[VectorField]) -> FieldSystem:
    """Reduce the invariance conditions to the constant-coefficient system.

    Requires the frame to contain the translations d/du1 and d/du2 and a
    third generator with constant gradient and constant nonzero u3
    component; the two non-solvable catalog frames do not have this shape
    and raise UnsupportedGroupError.
    """
    frame = tuple(frame)
    derived = structure_constants_from_frame(frame)
    if derived != C:
        raise SolverError("structure constants do not match the frame")
    translations = [_is_translation(f) for f in frame]
    if 1 not in translations or 2 not in translations:
        raise UnsupportedGroupError(
            "frame has no Abelian translation pair (d/du1, d/du2); "
            "the closed forms for this shape are verified, not derived"
        )
    d1, d2 = translations.index(1), translations.index(2)
    third = next(f for idx, f in enumerate(frame) if idx not in (d1, d2))
    x3 = third[3]
    if not (x3.is_constant() and x3):
        raise UnsupportedGroupError("third generator needs a constant nonzero u3 component")
    grad = [[differentiate(third[k], i) for k in range(4)] for i in range(4)]
    for i in range(4):
        for k in range(4):
            if not grad[i][k].is_constant():
                raise UnsupportedGroupError("third generator must have a constant gradient")

    inv = ex.number(-1) / x3
    rows = []
    for (i, j) in PAIRS:
        row = [ex.number(0)] * 6
        # from xi^k dF_ij/du_k + (d_i xi^k) F_kj + (d_j xi^k) F_ik = 0
        for k in range(4):
            if grad[i][k]:
                row = _add_component(row, k, j, grad[i][k] * inv)
            if grad[j][k]:
                row = _add_component(row, i, k, grad[j][k] * inv)
        rows.append(tuple(row))
    return FieldSystem(
        frame=frame,
        constants=derived,
        ode_matrix=tuple(rows),
        vanishing_directions=(1, 2),
    )


def _add_component(row, k, l, coeff):
    """Add coeff * F_kl to an ode row, respecting antisymmetry."""
    row = list(row)
    if k == l:
        return row
    if (k, l) in PAIRS:
        row[PAIRS.index((k, l))] = row[PAIRS.index((k, l))] + coeff
    else:
        row[PAIRS.index((l, k))] = row[PAIRS.index((l, k))] - coeff
    return row


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

_FUNC_POOL = ("f1", "f2", "f3", "f4", "f5", "f6")
_CONST_POOL = ("ta", "tb", "tc", "td", "te", "tf")


@dataclass(frozen=True)
class SolutionFamily:
    """General solution of a field system, parametrized by free functions of
    u0 and free constants.  ``origins`` records, for each free function, the
    component pair it parametrizes at u3 = 0 and whether it enters through
    its derivative ("lifted") or directly."""

    type_tag: str
    components: Dict[Tuple[int, int], Expr]
    free_functions: Tuple[str, ...]
    free_constants: Tuple[str, ...]
    origins: Dict[str, Tuple[Tuple[int, int], bool]]
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
    """General admissible field family for a solvable type (I..VII).

    The u3 system is integrated through its exact fundamental matrix; the
    exterior identities then eliminate or constrain the integration
    functions.  Free functions that survive only up to an additive constant
    are promoted to named free constants.
    """
    from .catalog import SOLVABLE, get_model

    tag = str(type_tag).strip().upper()
    if tag not in SOLVABLE:
        raise UnsupportedGroupError(
            f"type {type_tag!r} is not solvable; closed forms are verified, not derived"
        )
    model = get_model(tag, q=q) if tag == "VI" else get_model(tag)
    system = build_field_system(model.constants, model.frame)

    # general solution of the u3 block: F = E(u3) c(u0)
    E = fundamental_matrix([list(r) for r in system.ode_matrix], 3)
    cnames = [f"c{i}{j}" for (i, j) in PAIRS]
    comps: Dict[Tuple[int, int], Expr] = {}
    for m, pair in enumerate(PAIRS):
        acc = ex.number(0)
        for n in range(6):
            if E[m][n]:
                acc = acc + E[m][n] * ex.func(cnames[n])
        comps[pair] = acc

    free = dict.fromkeys(cnames)
    consts: List[str] = []
    const_pool = list(_CONST_POOL)

    # eliminate through the remaining identities
    for _round in range(12):
        constraints = _extract_constraints(system, comps, set(free), set(consts))
        if not constraints:
            break
        if _apply_single_unknown_rules(constraints, comps, free, consts, const_pool):
            continue
        if not _solve_order_zero_block(constraints, comps, free):
            raise SolverError("elimination stalled; system outside the supported shape")
    else:
        raise SolverError("elimination did not converge")

    # rename survivors: functions feeding the time row enter via derivatives
    comps, names, origins = _rename_survivors(comps, free, cnames)
    return SolutionFamily(
        type_tag=tag,
        components=comps,
        free_functions=tuple(names),
        free_constants=tuple(consts),
        origins=origins,
        system=system,
    )


def _extract_constraints(system, comps, func_unknowns, const_unknowns):
    """Linear constraints over the unknowns from the residual equations.

    Each constraint is a dict {FuncSymbol or constant name: scalar Expr}
    collected from one u3-profile of one residual.
    """
    F = FieldTensor.from_upper(comps)
    constraints = []
    for name, e in system.residuals(F):
        if not e:
            continue
        try:
            terms = ex.linear_terms(e, func_unknowns, const_unknowns, split_constants=True)
        except ex.UnsupportedExpressionError as err:
            raise SolverError(f"residual {name}: {err}") from None
        groups: Dict[Expr, Dict] = {}
        for unknown, coeff, profile in terms:
            if unknown is None:
                raise SolverError("residual term without any unknown cannot vanish")
            g = groups.setdefault(profile, {})
            g[unknown] = g.get(unknown, ex.number(0)) + coeff
        for g in groups.values():
            g = {k: v for k, v in g.items() if not is_zero(v)}
            if g:
                constraints.append(g)
    return constraints


def _apply_single_unknown_rules(constraints, comps, free, consts, const_pool):
    """c^(d) = 0 rules: order 0 kills the function, order 1 makes it a
    constant (drawn from the tilde pool)."""
    for g in constraints:
        if len(g) != 1:
            continue
        (unknown, _coeff), = g.items()
        if isinstance(unknown, str):
            if unknown in consts:
                _substitute_everywhere(comps, params={unknown: ex.number(0)})
                consts.remove(unknown)
                return True
            continue
        name, order = unknown
        if name not in free:
            continue
        if order == 0:
            _substitute_everywhere(comps, funcs={name: ex.number(0)})
            del free[name]
            return True
        if order == 1:
            cname = const_pool.pop(0)
            _substitute_everywhere(comps, funcs={name: ex.param(cname)})
            del free[name]
            consts.append(cname)
            return True
        raise SolverError(f"unsupported constraint {name}^({order}) = 0")
    return False


def _solve_order_zero_block(constraints, comps, free):
    """Solve the linear block for functions that occur undifferentiated."""
    def undifferentiated(u):
        return isinstance(u, FuncSymbol) and u.order == 0 and u.name in free

    targets = []
    for g in constraints:
        for unknown in g:
            if undifferentiated(unknown) and unknown.name not in targets:
                targets.append(unknown.name)
    if not targets:
        return False
    rows = [g for g in constraints if any(undifferentiated(u) for u in g)]
    solution: Dict[str, Expr] = {}
    remaining = list(rows)
    for name in targets:
        pivot_row = None
        for g in remaining:
            c = g.get((name, 0))
            if c is not None and not is_zero(c):
                pivot_row = g
                break
        if pivot_row is None:
            continue
        c0 = pivot_row[(name, 0)]
        rhs = ex.number(0)
        for unknown, coeff in pivot_row.items():
            if unknown == (name, 0):
                continue
            if isinstance(unknown, str):
                rhs = rhs - coeff * ex.param(unknown)
            else:
                rhs = rhs - coeff * ex.func(unknown.name, unknown.order)
        value = rhs / c0
        new_remaining = []
        for g in remaining:
            if g is pivot_row:
                continue
            c = g.get((name, 0))
            if c is None or is_zero(c):
                new_remaining.append(g)
                continue
            g2 = dict(g)
            del g2[(name, 0)]
            for unknown, coeff in _linear_terms(value, free):
                g2[unknown] = g2.get(unknown, ex.number(0)) + c * coeff
            g2 = {k: v for k, v in g2.items() if not is_zero(v)}
            if g2:
                new_remaining.append(g2)
        remaining = new_remaining
        solution[name] = value
    if not solution:
        return False
    for name in list(solution):
        solution[name] = ex.substitute(
            solution[name], funcs={k: v for k, v in solution.items() if k != name}
        )
    _substitute_everywhere(comps, funcs=solution)
    for name in solution:
        free.pop(name, None)
    return True


def _linear_terms(value: Expr, func_unknowns):
    """Decompose a linear expression into [(unknown, scalar coeff)]."""
    try:
        terms = ex.linear_terms(value, func_unknowns, split_constants=True)
    except ex.UnsupportedExpressionError as err:
        raise SolverError(f"substitution value: {err}") from None
    if any(unknown is None for unknown, _c, _r in terms):
        raise SolverError("substitution value has a term without unknowns")
    return [(unknown, coeff * rest) for unknown, coeff, rest in terms]


def _substitute_everywhere(comps, funcs=None, params=None):
    for pair in list(comps):
        comps[pair] = ex.substitute(comps[pair], funcs=funcs or {}, params=params or {})


def _rename_survivors(comps, free, cnames):
    """Give surviving functions their public names; functions that appear
    undifferentiated in a time-row component are replaced by the derivative
    of a fresh function so potentials can be reconstructed."""
    time_pairs = [(0, 1), (0, 2), (0, 3)]
    names = []
    origins: Dict[str, Tuple[Tuple[int, int], bool]] = {}
    pool = list(_FUNC_POOL)
    ordered = [c for c in cnames if c in free]
    for cname in ordered:
        pair = PAIRS[cnames.index(cname)]
        fresh = pool.pop(0)
        lifted = False
        for tp in time_pairs:
            sym = ex.free_symbols(comps[tp])
            if FuncSymbol(cname, 0) in sym["funcs"]:
                lifted = True
                break
        target = ex.func(fresh, 1) if lifted else ex.func(fresh, 0)
        _substitute_everywhere(comps, funcs={cname: target})
        names.append(fresh)
        origins[fresh] = (pair, lifted)
    return comps, names, origins


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


def apply_algebraic_constraints(
    fam: SolutionFamily,
    frame: Optional[Sequence[VectorField]] = None,
    C: Optional[StructureConstants] = None,
    A: Optional[Potential] = None,
) -> SolutionFamily:
    """Eliminate free constants that violate the algebraic constraints.

    The constraints act on the reconstructed potential; constants whose
    coefficients cannot cancel are forced to zero, and the reduced family is
    verified to satisfy the constraints identically.
    """
    frame = tuple(frame) if frame is not None else fam.system.frame
    C = C if C is not None else fam.system.constants
    if A is None:
        A = reconstruct_potential(fam.as_field_tensor())
    res = algebraic_constraint_residual(A, frame, C)

    rows: List[Dict[str, Fraction]] = []
    for a in range(3):
        for b in range(3):
            try:
                terms = ex.linear_terms(res[a][b], params=fam.free_constants)
            except ex.UnsupportedExpressionError as err:
                raise SolverError(f"algebraic constraint [{a}][{b}]: {err}") from None
            groups: Dict[Expr, Dict[str, Fraction]] = {}
            for name, coeff, profile in terms:
                if name is not None:
                    g = groups.setdefault(profile, {})
                    g[name] = g.get(name, 0) + coeff.as_rational()
            rows.extend({n: r for n, r in g.items() if r} for g in groups.values())

    forced = _solve_homogeneous_rational(rows, fam.free_constants)
    if forced is None:
        raise SolverError("algebraic constraints do not determine the constants")
    subs = {name: ex.number(0) for name in forced}
    comps = {pair: ex.substitute(e2, params=subs) for pair, e2 in fam.components.items()}
    reduced = SolutionFamily(
        type_tag=fam.type_tag,
        components=comps,
        free_functions=fam.free_functions,
        free_constants=tuple(n for n in fam.free_constants if n not in forced),
        origins=fam.origins,
        system=fam.system,
    )
    A2 = reconstruct_potential(reduced.as_field_tensor())
    res2 = algebraic_constraint_residual(A2, frame, C)
    for a in range(3):
        for b in range(3):
            if not is_zero(res2[a][b]):
                raise SolverError("constraints remain violated after elimination")
    return reduced


def _solve_homogeneous_rational(rows, unknowns):
    """Names forced to zero by the homogeneous system, or None when a
    nontrivial combination remains free (not expected for these groups)."""
    unknowns = list(unknowns)
    _rref, pivots = row_reduce([[row.get(u, 0) for u in unknowns] for row in rows])
    return unknowns if len(pivots) == len(unknowns) else None


# ---------------------------------------------------------------------------
# catalog reproduction witnesses
# ---------------------------------------------------------------------------


def catalog_witness(fam: SolutionFamily) -> Dict[str, Expr]:
    """Explicit assignment of the family's free functions reproducing the
    catalog field tensor (free constants at zero)."""
    from .catalog import get_model

    if fam.type_tag == "VI":
        # recover the free structure constant the family was solved with
        q = fam.system.constants[1, 2, 1].as_rational()
        model = get_model(fam.type_tag, q=q)
    else:
        model = get_model(fam.type_tag)
    zero = ex.number(0)
    witness: Dict[str, Expr] = {}
    for name in fam.free_functions:
        pair, lifted = fam.origins[name]
        target = ex.substitute(model.field[pair], coords={3: zero})
        witness[name] = antiderivative(target, 0) if lifted else target
    return witness
