"""Field-system construction, closed-form families, constraint elimination
and potential reconstruction."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from symlab import catalog, cli, dynamics, emfield, expr as ex, solver
from symlab._symint import row_reduce
from symlab.emfield import FieldTensor, Potential, field_from_potential
from symlab.expr import is_zero, parse
from symlab.solver import (
    PAIRS,
    SolverError,
    UnsupportedGroupError,
    apply_algebraic_constraints,
    build_field_system,
    catalog_witness,
    reconstruct_potential,
    solve_solvable,
)

SOLVABLE = catalog.SOLVABLE


@pytest.fixture(scope="module")
def families():
    return {tag: solve_solvable(tag) for tag in SOLVABLE}


@pytest.fixture(scope="module")
def reduced_families(families):
    return {tag: apply_algebraic_constraints(fam) for tag, fam in families.items()}


class TestBuildFieldSystem:
    def test_all_nine_frames_accepted(self, models):
        for tag, m in models.items():
            system = build_field_system(m.constants, m.frame)
            assert system.frame == m.frame, tag
            assert system.constants == m.constants, tag

    def test_non_solvable_catalog_fields_satisfy_their_systems(self, models):
        for tag in ("VIII", "IX"):
            m = models[tag]
            system = build_field_system(m.constants, m.frame)
            assert system.satisfied_by(m.field), tag

    def test_perturbed_field_fails_its_system(self, models):
        for tag, m in models.items():
            system = build_field_system(m.constants, m.frame)
            comps = m.field.upper_components()
            comps[(1, 2)] = comps[(1, 2)] + ex.coord(1)
            assert not system.satisfied_by(FieldTensor.from_upper(comps)), tag

    def test_catalog_fields_satisfy_their_systems(self, models):
        for tag in SOLVABLE:
            m = models[tag]
            system = build_field_system(m.constants, m.frame)
            assert system.satisfied_by(m.field), tag


class TestSolveSolvable:
    def test_three_free_functions_each(self, families):
        for tag, fam in families.items():
            assert len(fam.free_functions) == 3, tag

    def test_families_satisfy_their_systems(self, families):
        for tag, fam in families.items():
            assert fam.system.satisfied_by(fam.as_field_tensor()), tag

    def test_translation_family_shape(self, families):
        fam = families["I"]
        # time row carries derivatives; spatial row carries free constants
        assert set(fam.free_constants) == {"ta", "tb", "tc"}
        for pair in ((0, 1), (0, 2), (0, 3)):
            sym = ex.free_symbols(fam.components[pair])["funcs"]
            assert all(f.order == 1 for f in sym)

    def test_shear_family_keeps_coupled_constant(self, families):
        fam = families["II"]
        # the constant surviving in F13 also feeds F23 linearly in u3
        f13 = fam.components[(1, 3)]
        f23 = fam.components[(2, 3)]
        names = {p for p in ex.free_symbols(f13)["params"]}
        assert names and names <= set(fam.free_constants)
        const = names.pop()
        coupled = ex.substitute(
            f23, params={c: ex.number(0) for c in fam.free_constants if c != const}
        )
        assert not is_zero(ex.differentiate(coupled, 3))

    def test_oscillatory_family_structure(self, families):
        # with the angle at a right angle the damping factor degenerates to 1
        fam = families["VII"]
        f13 = fam.components[(1, 3)]
        a = ex.Assignment(
            (0.0, 0.0, 0.0, 0.7),
            {"alpha": math.pi / 2},
            {("f1", 0): 1.3, ("f2", 0): -0.4},
        )
        undamped = parse("f1*sin(u3) + f2*cos(u3)")
        assert abs(ex.evaluate(f13, a) - ex.evaluate(undamped, a)) < 1e-12

    def test_non_solvable_types_solve(self):
        for tag in ("VIII", "IX"):
            fam = solve_solvable(tag)
            assert fam.free_functions == ("f1", "f2", "f3"), tag
            assert fam.free_constants == (), tag
            assert fam.system.satisfied_by(fam.as_field_tensor()), tag

    def test_q_family_with_generic_parameter(self):
        fam = solve_solvable("VI", q=3)
        f23 = fam.components[(2, 3)]
        assert fam.system.satisfied_by(fam.as_field_tensor())
        # growth rate follows the free structure constant
        assert ex.substitute(f23, coords={3: ex.number(0)}) == -3 * ex.func("f2")

    def test_q_rejected_off_type_vi(self):
        with pytest.raises(ex.InputError, match="only applies to type VI"):
            solve_solvable("V", q=3)


class TestRowReduce:
    def test_rank_and_form_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            # few distinct entries, so rank deficiency is common
            matrix = [[rng.choice((-2, -1, 0, 0, 0, 1, 3)) for _ in range(cols)] for _ in range(rows)]
            rref, pivots = row_reduce(matrix)
            want, want_pivots = sympy.Matrix(matrix).rref()
            assert len(pivots) == sympy.Matrix(matrix).rank()
            assert tuple(pivots) == tuple(want_pivots)
            assert rref == [
                [Fraction(int(want[r, c].p), int(want[r, c].q)) for c in range(cols)]
                for r in range(rows)
            ]

    def test_empty_matrix_has_rank_zero(self):
        assert row_reduce([]) == ([], [])


class TestApplyAlgebraicConstraints:
    def test_constants_eliminated(self, families, reduced_families):
        expected_eliminated = {
            "I": 3,   # three spatial constants
            "II": 2,  # one in F12, one coupling F13 to F23
            "III": 1,
            "IV": 0,
            "V": 0,
            "VI": 0,
            "VII": 0,
        }
        for tag, fam in families.items():
            reduced = reduced_families[tag]
            assert len(fam.free_constants) == expected_eliminated[tag], tag
            assert reduced.free_constants == (), tag
            assert len(reduced.free_functions) == 3, tag

    def test_reduced_families_still_solve(self, reduced_families):
        for tag, fam in reduced_families.items():
            assert fam.system.satisfied_by(fam.as_field_tensor()), tag

    def test_undetermined_constant_rejected(self, families):
        # ta * d(f1 du1) is closed and admissible for every ta
        fam = dataclasses.replace(
            families["I"],
            components={(0, 1): ex.param("ta") * ex.func("f1", 1)},
            free_constants=("ta",),
        )
        with pytest.raises(SolverError, match="do not determine the constants"):
            apply_algebraic_constraints(fam)

    def test_violation_left_after_elimination_rejected(self, families):
        # F12 = 1 + ta forces ta = 0, and F12 = 1 still violates the constraints
        fam = dataclasses.replace(
            families["I"],
            components={(1, 2): 1 + ex.param("ta")},
            free_constants=("ta",),
        )
        with pytest.raises(SolverError, match="remain violated after elimination"):
            apply_algebraic_constraints(fam)

    @pytest.mark.parametrize("tag", ["I", "II", "III"])
    def test_reconstruction_is_linear_in_the_constants(self, families, tag):
        # a potential of the family with its constants at zero is the
        # family's potential with the zeros substituted
        fam = families[tag]
        A = reconstruct_potential(fam.as_field_tensor())
        for zeros in [{t: 0} for t in fam.free_constants] + [dict.fromkeys(fam.free_constants, 0)]:
            reduced = FieldTensor.from_upper(fam.substitute(consts=zeros))
            want = reconstruct_potential(reduced)
            assert [ex.substitute(c, params=zeros) for c in A] == list(want), zeros

    @pytest.mark.parametrize("tag", ["II", "IX"])
    def test_no_potential_is_reconstructed(self, monkeypatch, tag):
        # the central terms are read off F and C; no potential is involved
        fam = solve_solvable(tag)

        def forbidden(*args):
            raise AssertionError("the algebraic constraints need no potential")

        monkeypatch.setattr(solver, "reconstruct_potential", forbidden)
        monkeypatch.setattr(emfield, "algebraic_constraint_residual", forbidden)
        monkeypatch.setattr(solver, "algebraic_constraint_residual", forbidden, raising=False)
        assert apply_algebraic_constraints(fam).free_constants == ()


class TestCatalogReproduction:
    def test_witness_reproduces_catalog(self, models, reduced_families):
        for tag in SOLVABLE:
            fam = reduced_families[tag]
            witness = catalog_witness(fam)
            got = fam.substitute(funcs=witness)
            for pair, value in got.items():
                assert is_zero(value - models[tag].field[pair]), (tag, pair)

    def test_witness_tracks_generic_q(self):
        fam = apply_algebraic_constraints(solve_solvable("VI", q=3))
        witness = catalog_witness(fam)
        got = fam.substitute(funcs=witness)
        model = catalog.get_model("VI", q=3)
        for pair, value in got.items():
            assert is_zero(value - model.field[pair]), pair


class TestReconstructPotential:
    def test_zero_field(self):
        A = reconstruct_potential(FieldTensor.from_upper({}))
        assert all(is_zero(c) for c in A)

    def test_round_trip_all_models(self, models):
        for m in models.values():
            A = reconstruct_potential(m.field)
            assert is_zero(A[0])
            assert field_from_potential(A) == m.field, m.type_tag

    def test_gauge_agreement_with_catalog(self, models):
        # reconstruction reproduces the catalog potentials up to a gradient:
        # the difference must have a vanishing exterior derivative
        for tag in ("II", "VI"):
            m = models[tag]
            A = reconstruct_potential(m.field)
            diff = Potential(tuple(A[i] - m.potential[i] for i in range(4)))
            D = field_from_potential(diff)
            assert all(is_zero(D[i, j]) for i in range(4) for j in range(4)), tag

    def test_exact_catalog_match_for_unsolvable(self, models):
        m = models["VIII"]
        A = reconstruct_potential(m.field)
        gauge = field_from_potential(
            Potential(tuple(A[i] - m.potential[i] for i in range(4)))
        )
        assert all(is_zero(gauge[i, j]) for i in range(4) for j in range(4))

    def test_non_closed_rejected(self):
        with pytest.raises(SolverError):
            reconstruct_potential(FieldTensor.from_upper({(1, 2): parse("u3")}))

    def test_time_row_outside_function_class_rejected(self):
        # closed, but the time row carries an underived function of u0 whose
        # antiderivative has no symbol in the class
        F = FieldTensor.from_upper({(0, 3): ex.func("alpha0")})
        with pytest.raises(SolverError):
            reconstruct_potential(F)

    @pytest.mark.parametrize(
        "a2", ["beta0*exp(k*u1)*sin(3*u1)", "beta0*exp(k*u1)*sin(3*u1) + gamma0"]
    )
    def test_constant_sum_denominator(self, a2):
        # the u1 integral divides by k^2 + 9; with gamma0 the u0 row then
        # integrates a quotient by a power of that sum
        F = field_from_potential(Potential((ex.ZERO, ex.ZERO, parse(a2), parse("u1*u2"))))
        A = reconstruct_potential(F)
        rebuilt = field_from_potential(A)
        assert all(is_zero(rebuilt[i, j] - F[i, j]) for i in range(4) for j in range(4))
        # A2 keeps the one sum 1 + k^2/9 as its denominator: a quotient whose
        # denominator does not depend on u_i differentiates to N'/D, not N'D/D^2
        assert len(A[2].den) == 2

    def test_family_round_trip(self, reduced_families):
        for tag, fam in reduced_families.items():
            F = fam.as_field_tensor()
            A = reconstruct_potential(F)
            assert field_from_potential(A) == F, tag


class TestEveryType:
    """The families of the two types outside SOLVABLE, against the catalog."""

    @pytest.mark.parametrize("tag", ["VIII", "IX"])
    def test_witness_and_round_trip(self, models, tag):
        fam = apply_algebraic_constraints(solve_solvable(tag))
        assert fam.free_constants == ()
        got = fam.substitute(funcs=catalog_witness(fam))
        for pair, value in got.items():
            assert is_zero(value - models[tag].field[pair]), pair
        F = fam.as_field_tensor()
        assert field_from_potential(reconstruct_potential(F)) == F

    def test_type_ix_keeps_a_third_function(self):
        # gamma0 on the invariant form omega^3 = cos(u1) du2 + du3 is admissible;
        # the catalog potential sets it to zero, so its witness is f3 = 0
        fam = apply_algebraic_constraints(solve_solvable("IX"))
        assert fam.free_functions == ("f1", "f2", "f3")
        assert ex.free_symbols(fam.components[(0, 3)])["funcs"] == {ex.FuncSymbol("f3", 1)}
        assert is_zero(catalog_witness(fam)["f3"])


# ---------------------------------------------------------------------------
# the loop solve -> verify -> integrate
# ---------------------------------------------------------------------------

_CATALOG_NAMES = {"f1": ex.func("alpha0"), "f2": ex.func("beta0"), "f3": ex.func("gamma0")}
# criterion 7's operating point; VIII's chart only holds on [0, 1]
_LOOP_SPAN = {"VIII": (0.0, 1.0)}


def _solved_model(m, fam):
    """The catalog model with its potential replaced by the family's
    reconstructed potential, free functions named as the catalog's."""
    A = reconstruct_potential(fam.as_field_tensor())
    A = Potential(tuple(ex.substitute(c, funcs=_CATALOG_NAMES) for c in A))
    return catalog.build_model(m.type_tag, m.params, m.frame, m.coframe, m.metric, A)


class TestClosedLoop:
    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_solved_family_verifies_and_conserves(self, models, tag):
        m = models[tag]
        solved = _solved_model(m, apply_algebraic_constraints(solve_solvable(tag)))
        report = cli.run_verification(solved, samples=5)
        assert report.passed, [c.name for c in report.checks if c.verdict != "pass"]
        inst = dynamics.standard_instance(solved)
        span = _LOOP_SPAN.get(tag, (0.0, 10.0))
        for st in dynamics.random_initial_states(solved, 5, seed=2026, radius=0.3):
            traj = dynamics.integrate(inst, st, span, 1e-10, max_steps=2500)
            assert max(dynamics.conserved_drift(traj, inst).values()) < 1e-8

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_perturbed_potential_fails(self, models, tag):
        m = models[tag]
        solved = _solved_model(m, apply_algebraic_constraints(solve_solvable(tag)))
        A = list(solved.potential)
        A[2] = A[2] + ex.coord(1) * ex.coord(1)
        bad = catalog.build_model(tag, m.params, m.frame, m.coframe, m.metric, Potential(tuple(A)))
        assert not cli.run_verification(bad, samples=5).passed

    @pytest.mark.parametrize("tag", ["I", "II", "III"])
    def test_family_before_constraints_fails(self, models, tag):
        fam = solve_solvable(tag)
        assert fam.free_constants
        comps = fam.substitute(consts={name: 1 for name in fam.free_constants})
        unconstrained = dataclasses.replace(fam, components=comps, free_constants=())
        solved = _solved_model(models[tag], unconstrained)
        assert not cli.run_verification(solved, samples=5).passed
