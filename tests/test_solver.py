"""Field-system construction, closed-form families, constraint elimination
and potential reconstruction."""

import math
import random
from fractions import Fraction

import pytest

from symlab import catalog, expr as ex, solver
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
    def test_translation_model_system_is_trivial(self, models):
        m = models["I"]
        system = build_field_system(m.constants, m.frame)
        assert all(
            is_zero(system.ode_matrix[r][c]) for r in range(6) for c in range(6)
        )
        assert system.vanishing_directions == (1, 2)

    def test_shear_model_rows(self, models):
        m = models["II"]
        system = build_field_system(m.constants, m.frame)
        # dF02/du3 = F01 and dF23/du3 = F13; everything else vanishes
        expected = {((0, 2), (0, 1)): 1, ((2, 3), (1, 3)): 1}
        for r, pr in enumerate(PAIRS):
            for c, pc in enumerate(PAIRS):
                want = expected.get((pr, pc), 0)
                assert system.ode_matrix[r][c] == ex.number(want), (pr, pc)

    def test_angle_model_rows(self, models):
        m = models["VII"]
        system = build_field_system(m.constants, m.frame)
        r01, r02 = PAIRS.index((0, 1)), PAIRS.index((0, 2))
        assert system.ode_matrix[r01][r02] == ex.number(-1)
        assert system.ode_matrix[r02][r01] == ex.number(1)
        assert system.ode_matrix[r02][r02] == parse("-2*cos(alpha)")

    def test_unsolvable_frames_rejected(self, models):
        for tag in ("VIII", "IX"):
            m = models[tag]
            with pytest.raises(UnsupportedGroupError):
                build_field_system(m.constants, m.frame)

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
            {("f2", 0): 1.3, ("f3", 0): -0.4},
        )
        undamped = parse("f2*cos(u3) + f3*(-1)*sin(u3)")
        assert abs(ex.evaluate(f13, a) - ex.evaluate(undamped, a)) < 1e-12

    def test_unsolvable_rejected(self):
        for tag in ("VIII", "IX"):
            with pytest.raises(UnsupportedGroupError):
                solve_solvable(tag)

    def test_q_family_with_generic_parameter(self):
        fam = solve_solvable("VI", q=3)
        f23 = fam.components[(2, 3)]
        sym = ex.free_symbols(f23)
        assert fam.system.satisfied_by(fam.as_field_tensor())
        # growth rate follows the free structure constant
        assert ex.substitute(f23, coords={3: ex.number(0)}) == ex.func("f3")


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

    def test_family_round_trip(self, reduced_families):
        for tag, fam in reduced_families.items():
            F = fam.as_field_tensor()
            A = reconstruct_potential(F)
            assert field_from_potential(A) == F, tag
