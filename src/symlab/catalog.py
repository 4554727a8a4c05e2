"""The nine built-in homogeneous models.

Each model bundles a generator frame, frame-derived structure constants, an
invariant metric built from an invariant coframe, the admissible potential
in the A_0 = 0 gauge, the induced field tensor, and the three motion
integrals.  Types I-VII share one frame, xi1 = d1, xi2 = d2 and
xi3 = (M u).(d1, d2) + s d3 with u = (u1, u2), and differ in the 2x2 matrix
M and the sign s; VIII and IX are written out.  Every potential is
A = c_a(u0) omega^a on the invariant coframe omega^a, with one row of
coefficients c_a per type, so L_xi A = 0 for every generator: the catalog
gauge is the invariant gauge.  The frame is the source of truth: printed
tables that fail the bracket, Jacobi, or exterior-derivative checks are
recorded as errata with a reproducible evidence check rather than silently
transcribed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from . import expr as ex
from .expr import Expr, FuncSymbol, InputError, is_zero, differentiate, parse
from ._symint import det
from .geometry import (
    Coframe,
    Metric,
    StructureConstants,
    VectorField,
    invariant_coframe,
    jacobi_satisfied,
    killing_satisfied,
    lie_bracket,
    lie_derivative_vanishes,
    metric_from_coframe,
    structure_constants_from_frame,
)
from .emfield import (
    FieldTensor,
    Potential,
    SymmetryIntegral,
    field_from_potential,
    gamma_of,
)

__all__ = [
    "TAGS",
    "BianchiModel",
    "ErrataNote",
    "ModelDescriptor",
    "build_model",
    "get_model",
    "list_models",
    "printed_vs_consistent",
    "random_model_assignment",
]

TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")
SOLVABLE = ("I", "II", "III", "IV", "V", "VI", "VII")


@dataclass(frozen=True)
class ErrataNote:
    """One divergence between a printed formula and the consistent form."""

    location: str
    printed_form: str
    consistent_form: str
    evidence: str
    check: Optional[Callable[[], bool]] = dataclass_field(
        default=None, repr=False, compare=False
    )

    def reproduce(self) -> bool:
        """Run the evidence check: True when the printed form fails and the
        consistent form passes.  Notes without a machine-parseable printed
        form return True vacuously."""
        if self.check is None:
            return True
        return self.check()

    def as_dict(self) -> Dict[str, str]:
        """The note's four text fields, in report order."""
        return {
            "location": self.location,
            "printed_form": self.printed_form,
            "consistent_form": self.consistent_form,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class BianchiModel:
    type_tag: str
    params: Dict[str, object]
    frame: Tuple[VectorField, VectorField, VectorField]
    constants: StructureConstants
    coframe: Optional[Coframe]  # None for a manifest that gives the metric entrywise
    metric: Metric
    potential: Potential
    field: FieldTensor
    errata: Tuple[ErrataNote, ...]

    @property
    def integrals(self) -> Tuple[SymmetryIntegral, ...]:
        """One integral per generator xi_a, with gamma_a = -xi_a . A."""
        return tuple(SymmetryIntegral(X, gamma_of(X, self.potential)) for X in self.frame)

    @property
    def solvable(self) -> bool:
        return self.type_tag in SOLVABLE


@dataclass(frozen=True)
class ModelDescriptor:
    type_tag: str
    solvable: bool
    note: str


# ---------------------------------------------------------------------------
# frames and potentials (consistent forms)
# ---------------------------------------------------------------------------


def _vf(c1: str, c2: str, c3: str) -> VectorField:
    return VectorField.spatial(parse(c1), parse(c2), parse(c3))


# (k, n, eps) of types I-V, whose third generator is
# (k u1 + eps u2) d1 + n u2 d2 - d3; type VI has (1, q, 0)
_KNE = {"I": (0, 0, 0), "II": (0, 0, 1), "III": (1, 0, 0), "IV": (1, 1, 1), "V": (1, 1, 0)}


def _params_for(tag: str, q: Fraction) -> Dict[str, object]:
    if tag in _KNE:
        return dict(zip(("k", "n", "eps"), map(Fraction, _KNE[tag])))
    if tag == "VI":
        return {"k": Fraction(1), "n": Fraction(q), "eps": Fraction(0), "q": Fraction(q)}
    if tag == "VII":
        return {"alpha": "symbolic", "q": "2*cos(alpha)"}
    return {}


def _solvable_frame(M, s):
    """Generators (d1, d2, (M u).(d1, d2) + s d3) with u = (u1, u2)."""
    u1, u2 = ex.coord(1), ex.coord(2)
    Mu = [row[0] * u1 + row[1] * u2 for row in M]
    return (_vf("1", "0", "0"), _vf("0", "1", "0"), VectorField.spatial(*Mu, s))


def _frame_for(tag: str, params: Dict[str, object]):
    if tag == "VII":
        return _solvable_frame([[0, -1], [1, parse("2*cos(alpha)")]], 1)
    if tag in SOLVABLE:
        return _solvable_frame([[params["k"], params["eps"]], [0, params["n"]]], -1)
    if tag == "VIII":
        return (
            _vf("0", "1", "0"),
            _vf("0", "u2", "1"),
            _vf("exp(u3)", "u2^2", "2*u2"),
        )
    return (
        _vf("0", "1", "0"),
        _vf("cos(u2)", "-cos(u1)*sin(u2)/sin(u1)", "sin(u2)/sin(u1)"),
        _vf("-sin(u2)", "-cos(u1)*cos(u2)/sin(u1)", "cos(u2)/sin(u1)"),
    )


def _coefficients(tag: str) -> Tuple[Expr, Expr, Expr]:
    """The c_a(u0) of the catalog potential A = c_a omega^a; types I-VI
    share the row (alpha0, beta0, gamma0)."""
    a0, b0, g0 = ex.func("alpha0"), ex.func("beta0"), ex.func("gamma0")
    rows = {
        "VII": (a0 * parse("sin(alpha)") + b0 * parse("cos(alpha)"), b0, g0),
        "VIII": (a0, g0, -b0),
        # gamma0 is set to zero here; on the invariant form
        # omega^3 = cos(u1) du2 + du3 it would be admissible as well (the
        # solver keeps it), see the type-IX errata note
        "IX": (a0, b0, ex.number(0)),
    }
    return rows.get(tag, (a0, b0, g0))


# ---------------------------------------------------------------------------
# errata ledger
# ---------------------------------------------------------------------------


def _ode_residual_vii(f13: Expr) -> Expr:
    """Residual of f'' + 2 cos(alpha) f' + f = 0 in u3, which the four
    oscillating components of the type-VII system must satisfy."""
    c = parse("cos(alpha)")
    d1 = differentiate(f13, 3)
    d2 = differentiate(d1, 3)
    return d2 + 2 * c * d1 + f13


def _errata_for(tag: str) -> Tuple[ErrataNote, ...]:
    notes = []

    def superscript_note():
        return ErrataNote(
            location=f"appendix metric block, type {tag}",
            printed_form="line element ending in 'du^{32} a_33 + e du^{32}'",
            consistent_form="a_33 (du^3)^2 + e (du^0)^2",
            evidence="reading both terms as (du^3)^2 leaves g_00 = 0, a singular metric",
            check=lambda: is_zero(_degenerate_reading_det(tag)),
        )

    if tag in ("II", "III", "IV", "V", "VI", "VII"):
        notes.append(superscript_note())
    if tag == "II":
        notes.append(
            ErrataNote(
                location="per-type system listing, type II",
                printed_form="F_{23,3} + F_{13} = 0",
                consistent_form="F_{23,3} - F_{13} = 0 (generic reduction with eps = 1)",
                evidence="the closed-form solution satisfies the generic sign only",
                check=_check_ii_system_sign,
            )
        )
    if tag == "III":
        notes.append(
            ErrataNote(
                location="solvable-group walkthrough, type III parameters",
                printed_form="'k = 0, n = eps = 0'",
                consistent_form="k = 1, n = eps = 0 (parameter table and frame)",
                evidence="with k = 0 the frame degenerates to the type-I algebra",
                check=_check_iii_parameter_typo,
            )
        )
    if tag == "V":
        notes.append(
            ErrataNote(
                location="appendix metric block, type V cross term",
                printed_form="2 du^2 du^3 a_23 u^3 exp u^3",
                consistent_form="2 du^2 du^3 a_23 exp u^3",
                evidence="killing_residual is nonzero with the spurious u^3 factor",
                check=lambda: _check_spurious_u3("V"),
            )
        )
    if tag == "VI":
        notes.append(
            ErrataNote(
                location="appendix metric block, type VI cross term",
                printed_form="2 du^2 du^3 a_23 u^3 exp 2u^3",
                consistent_form="2 du^2 du^3 a_23 exp 2u^3",
                evidence="killing_residual is nonzero with the spurious u^3 factor",
                check=lambda: _check_spurious_u3("VI"),
            )
        )
    if tag == "VII":
        notes.append(
            ErrataNote(
                location="structure-constant table, type VII line",
                printed_form="C_13 = delta_1, C_23 = 2 delta_2 cos(alpha)",
                consistent_form=(
                    "frame brackets give [xi1,xi3] = xi2 and "
                    "[xi2,xi3] = -xi1 + 2 cos(alpha) xi2"
                ),
                evidence="structure_constants_from_frame disagrees with the printed line",
                check=_check_vii_constants,
            )
        )
        notes.append(
            ErrataNote(
                location="type VII field-tensor block, oscillatory arguments",
                printed_form="cos(u3 cos(alpha)) mixed with sin(u3 sin(alpha))",
                consistent_form="all oscillatory arguments are u3 sin(alpha)",
                evidence="the printed argument fails the second-order component equation",
                check=_check_vii_trig,
            )
        )
        notes.append(
            ErrataNote(
                location="type VII field-tensor block, F_03",
                printed_form="F_03 = gamma_0",
                consistent_form="F_03 = gamma_0' (time derivative), matching F = dA",
                evidence="field_from_potential gives the derivative form",
                check=_check_vii_f03,
            )
        )
    if tag == "VIII":
        notes.append(
            ErrataNote(
                location="structure-constant list, type VIII",
                printed_form="C_23 = -delta_3",
                consistent_form="C_23 = +delta_3 (bracket expansion and Jacobi identity)",
                evidence="jacobi_residual is nonzero for the printed sign",
                check=_check_viii_constants,
            )
        )
    if tag == "IX":
        notes.append(
            ErrataNote(
                location="final-solution block, type IX",
                printed_form=(
                    "F_01 = gamma_0' + alpha_0' cos u^3 - beta_0' sin u^3 and "
                    "A_1 = gamma_0 + alpha_0 cos u^3 - beta_0 sin u^3"
                ),
                consistent_form=(
                    "gamma_0 on the invariant form omega^3 = cos u^1 du^2 + du^3, "
                    "not on du^1: type IX keeps three free functions (the "
                    "catalog potential sets gamma_0 = 0)"
                ),
                evidence=(
                    "admissibility_residual is nonzero for the second generator "
                    "with gamma_0 on du^1, as printed, and zero for every "
                    "generator with gamma_0 on omega^3"
                ),
                check=_check_ix_potential,
            )
        )
        notes.append(
            ErrataNote(
                location="appendix metric block, type IX",
                printed_form="grouping-ambiguous superscripts (cos u^{1^2}, ...)",
                consistent_form="metric assembled from the invariant coframe",
                evidence="killing_residual vanishes for the coframe-built metric",
                check=None,
            )
        )
    return tuple(notes)


def _degenerate_reading_det(tag: str) -> Expr:
    """Determinant of the metric under the printed '(du^3)^2' reading."""
    m = get_model(tag).metric
    entries = [list(row) for row in m.entries]
    entries[3][3] = entries[3][3] + m.sign
    entries[0][0] = ex.number(0)
    bad = Metric(entries, ex.number(0))
    return bad.determinant()


def _check_spurious_u3(tag: str) -> bool:
    m = get_model(tag)
    u3 = ex.coord(3)
    entries = [list(row) for row in m.metric.entries]
    entries[2][3] = entries[2][3] * u3
    entries[3][2] = entries[2][3]
    bad = Metric(entries, m.metric.sign)
    return not killing_satisfied(bad, m.frame[2]) and killing_satisfied(m.metric, m.frame[2])


def _check_ii_system_sign() -> bool:
    # the discrepancy involves tb, whose closed wedge would give the algebra a
    # central term and which the solver then eliminates; check the family
    # before that elimination
    from .solver import solve_solvable

    fam = solve_solvable("II")
    f23, f13 = fam.components[(2, 3)], fam.components[(1, 3)]
    generic = differentiate(f23, 3) - f13
    printed = differentiate(f23, 3) + f13
    return is_zero(generic) and not is_zero(printed)


def _check_iii_parameter_typo() -> bool:
    frame = _solvable_frame([[0, 0], [0, 0]], -1)
    degenerate = structure_constants_from_frame(frame)
    derived = get_model("III").constants
    return degenerate != derived and bool(derived.nonzero_entries())


def _check_vii_constants() -> bool:
    z = ex.number(0)
    printed = StructureConstants(
        [
            [[z] * 3, [z] * 3, [ex.number(1), z, z]],
            [[z] * 3, [z] * 3, [z, parse("2*cos(alpha)"), z]],
            [[ex.number(-1), z, z], [z, parse("-2*cos(alpha)"), z], [z] * 3],
        ]
    )
    model = get_model("VII")
    derived = model.constants
    bracket13 = lie_bracket(model.frame[0], model.frame[2])
    matches_xi2 = all(
        is_zero(bracket13[i] - model.frame[1][i]) for i in range(4)
    )
    return printed != derived and matches_xi2


def _check_vii_trig() -> bool:
    printed = parse(
        "(alpha0*sin(sin(alpha)*u3) + beta0*cos(cos(alpha)*u3))*exp(-cos(alpha)*u3)"
    )
    consistent = get_model("VII").field[1, 3]
    return not is_zero(_ode_residual_vii(printed)) and is_zero(
        _ode_residual_vii(consistent)
    )


def _check_vii_f03() -> bool:
    derived = get_model("VII").field[0, 3]
    return is_zero(derived - ex.func("gamma0", 1)) and not is_zero(
        derived - ex.func("gamma0", 0)
    )


def _check_viii_constants() -> bool:
    z = ex.number(0)
    one = ex.number(1)
    printed = StructureConstants(
        [
            [[z] * 3, [one, z, z], [z, ex.number(2), z]],
            [[-one, z, z], [z] * 3, [z, z, -one]],
            [[z, ex.number(-2), z], [z, z, one], [z] * 3],
        ]
    )
    model = get_model("VIII")
    return (not jacobi_satisfied(printed)) and jacobi_satisfied(model.constants)


def _check_ix_potential() -> bool:
    model = get_model("IX")
    printed = Potential.make(
        0,
        ex.func("gamma0") + model.potential[1],
        model.potential[2],
        0,
    )
    # L_xi A = 0, the admissibility residual, by the cleared zero test
    printed_fails = not lie_derivative_vanishes(printed.components, model.frame[1])
    good_passes = lie_derivative_vanishes(model.potential.components, model.frame[1])
    # the same function on the invariant form omega^3 is admissible
    kept = Potential.on_coframe(model.coframe, (0, 0, ex.func("gamma0")))
    kept_passes = all(lie_derivative_vanishes(kept.components, X) for X in model.frame)
    return printed_fails and good_passes and kept_passes


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

_CACHE: Dict[Tuple[str, Fraction], BianchiModel] = {}


def build_model(
    type_tag: str, params: Dict[str, object], frame: Tuple[VectorField, ...],
    coframe: Optional[Coframe], metric: Metric, potential: Potential,
    errata: Tuple[ErrataNote, ...] = (),
) -> BianchiModel:
    """Model from a generator frame, an invariant metric and a potential.

    The structure constants are derived from the frame and the field is
    F = dA; the integrals follow the potential (``BianchiModel.integrals``).
    Raises ``GeometryError`` when the frame does not define an algebra.
    """
    return BianchiModel(
        type_tag=type_tag,
        params=params,
        frame=frame,
        constants=structure_constants_from_frame(frame),
        coframe=coframe,
        metric=metric,
        potential=potential,
        field=field_from_potential(potential),
        errata=errata,
    )


def get_model(type_tag: str, q=None) -> BianchiModel:
    """Fully populated model for the given type.

    ``q`` selects the free structure constant of type VI (default 2; any
    rational except 0 and 1).  The type-VII angle stays symbolic, entering
    expressions through sin(alpha) and cos(alpha) with the unit-circle
    relation applied during canonicalization.
    """
    tag = str(type_tag).strip().upper()
    if tag not in TAGS:
        raise InputError(f"unknown type tag {type_tag!r}; expected one of {TAGS}")
    if q is not None and tag != "VI":
        raise InputError("parameter q only applies to type VI")
    qv = Fraction(q) if q is not None else Fraction(2)
    if tag == "VI" and qv in (0, 1):
        raise InputError("type VI requires q outside {0, 1}")
    key = (tag, qv if tag == "VI" else Fraction(0))
    if key in _CACHE:
        return _CACHE[key]

    params = _params_for(tag, qv)
    frame = _frame_for(tag, params)
    coframe = invariant_coframe(frame)
    metric = metric_from_coframe(coframe)
    potential = Potential.on_coframe(coframe, _coefficients(tag))
    model = build_model(tag, params, frame, coframe, metric, potential, _errata_for(tag))
    _CACHE[key] = model
    return model


def list_models() -> Tuple[ModelDescriptor, ...]:
    """Descriptors of the nine built-in types, solvable first."""
    out = []
    for tag in TAGS:
        if tag in SOLVABLE:
            note = "solvable; contains the Abelian translation pair"
        else:
            note = "not solvable; does not contain the Abelian translation pair"
        out.append(ModelDescriptor(tag, tag in SOLVABLE, note))
    return tuple(out)


def printed_vs_consistent(type_tag: str) -> Tuple[ErrataNote, ...]:
    """Errata ledger for one type; empty when nothing diverges."""
    return get_model(type_tag).errata


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_A_NAMES = ("a11", "a12", "a13", "a22", "a23", "a33")


def random_model_assignment(
    model: BianchiModel, rng, symbols=None
) -> ex.Assignment:
    """Random evaluation point for a model's expressions.

    Coordinates are uniform in [-1, 1] (type IX resamples away from
    sin(u1) = 0); metric coefficient functions get a random symmetric matrix
    with |det| > 0.1; other function values are uniform in [-2, 2]; the
    signature parameter e is +-1 and the type-VII angle stays clear of the
    degenerate sin(alpha) = 0.
    """
    if symbols is None:
        params, funcs = ex._params_and_funcs(
            [model.metric[i, j] for i in range(4) for j in range(i, 4)]
            + list(model.potential)
            + [model.field[i, j] for i in range(4) for j in range(i + 1, 4)]
            + [c for f in model.frame for c in f]
        )
        funcs |= {FuncSymbol(f.name, f.order + 1) for f in funcs}
        symbols = tuple(sorted(params)) + tuple(sorted(funcs))

    while True:
        coords = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        if model.type_tag != "IX" or abs(math.sin(coords[1])) >= 0.1:
            break

    params_out: Dict[str, float] = {}
    funcs_out: Dict[Tuple[str, int], float] = {}
    a_vals = _random_spatial_matrix(rng)
    for s in symbols:
        if isinstance(s, str):
            if s == "e":
                params_out[s] = rng.choice((1.0, -1.0))
            elif s == "alpha":
                params_out[s] = rng.uniform(0.3, 1.25)
            else:
                params_out[s] = _nonzero_uniform(rng)
        else:
            name, order = s.name, s.order
            if name in _A_NAMES and order == 0:
                funcs_out[(name, 0)] = a_vals[name]
            else:
                funcs_out[(name, order)] = rng.uniform(-2.0, 2.0)
    return ex.Assignment(coords, params_out, funcs_out)


def _nonzero_uniform(rng):
    while True:
        v = rng.uniform(-2.0, 2.0)
        if abs(v) >= 0.2:
            return v


def _random_spatial_matrix(rng):
    while True:
        vals = {name: rng.uniform(-2.0, 2.0) for name in _A_NAMES}
        m = [
            [vals["a11"], vals["a12"], vals["a13"]],
            [vals["a12"], vals["a22"], vals["a23"]],
            [vals["a13"], vals["a23"], vals["a33"]],
        ]
        if abs(det(m)) > 0.1:  # the cofactor expansion, in floats
            return vals
