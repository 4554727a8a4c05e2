"""Catalog construction, the parameter table, and the errata ledger."""

import dataclasses
from fractions import Fraction

import pytest

from symlab import catalog, expr as ex, solver
from symlab.catalog import get_model, list_models, printed_vs_consistent
from symlab.emfield import Potential, field_from_potential, gamma_of
from symlab.expr import is_zero, parse
from symlab.geometry import jacobi_satisfied, killing_satisfied


class TestListModels:
    def test_count(self):
        assert len(list_models()) == 9

    def test_solvable_split(self):
        solvable = {d.type_tag for d in list_models() if d.solvable}
        assert solvable == {"I", "II", "III", "IV", "V", "VI", "VII"}

    def test_unsolvable_note(self):
        notes = {d.type_tag: d.note for d in list_models()}
        for tag in ("VIII", "IX"):
            assert "not solvable" in notes[tag]
            assert "Abelian" in notes[tag]


class TestGetModel:
    def test_flat_potential(self):
        m = get_model("I")
        assert is_zero(m.potential[0])
        assert m.potential[1] == ex.func("alpha0")
        assert m.potential[2] == ex.func("beta0")
        assert m.potential[3] == ex.func("gamma0")

    def test_q_family_default(self):
        m = get_model("VI", q=2)
        assert m.potential[1] == parse("alpha0*exp(u3)")
        assert m.potential[2] == parse("beta0*exp(2*u3)")
        assert m.potential[3] == ex.func("gamma0")
        assert m.constants[1, 2, 1] == ex.number(2)

    def test_q_family_generic(self):
        m = get_model("VI", q=Fraction(3))
        assert m.constants[1, 2, 1] == ex.number(3)
        assert m.potential[2] == ex.func("beta0") * ex.exp(3 * ex.coord(3))
        assert killing_satisfied(m.metric, m.frame[2])

    def test_q_validation(self):
        with pytest.raises(ValueError):
            get_model("VI", q=0)
        with pytest.raises(ValueError):
            get_model("VI", q=1)
        with pytest.raises(ValueError):
            get_model("V", q=2)

    def test_rotation_model_potential(self):
        m = get_model("IX")
        assert is_zero(m.potential[3])
        assert m.potential[1] == parse("alpha0*cos(u3) - beta0*sin(u3)")
        assert is_zero(m.potential[2] - parse("(alpha0*sin(u3) + beta0*cos(u3))*sin(u1)"))

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            get_model("X")

    def test_parameter_table(self, models):
        expected = {
            "I": (0, 0, 0),
            "II": (0, 0, 1),
            "III": (1, 0, 0),
            "IV": (1, 1, 1),
            "V": (1, 1, 0),
            "VI": (1, 2, 0),
        }
        for tag, (k, n, eps) in expected.items():
            p = models[tag].params
            assert (p["k"], p["n"], p["eps"]) == (k, n, eps), tag
        assert models["VII"].params["q"] == "2*cos(alpha)"

    def test_field_is_exterior_derivative(self, models, rng):
        # F_ij = d_i A_j - d_j A_i against central differences of the potential,
        # with concrete functions of u0 bound so that A varies with u0 too
        bound = {"alpha0": parse("sin(u0)"), "beta0": parse("exp(u0/2)"), "gamma0": parse("u0^2 - u0")}
        h = 1e-5
        for m in models.values():
            A = [ex.substitute(c, funcs=bound) for c in m.potential]
            F = {(i, j): ex.substitute(m.field[i, j], funcs=bound) for i in range(4) for j in range(i + 1, 4)}
            for _ in range(5):
                at = catalog.random_model_assignment(m, rng)
                u, params = at.coords, at.params

                def d(i, j):
                    """d_i A_j by a central difference."""
                    up = [c + h * (k == i) for k, c in enumerate(u)]
                    dn = [c - h * (k == i) for k, c in enumerate(u)]
                    ahead = ex.evaluate(A[j], ex.Assignment(up, params))
                    return (ahead - ex.evaluate(A[j], ex.Assignment(dn, params))) / (2 * h)

                for (i, j), f in F.items():
                    want = d(i, j) - d(j, i)
                    got = ex.evaluate(f, ex.Assignment(u, params))
                    assert abs(got - want) < 1e-6 * (1.0 + abs(want)), (m.type_tag, i, j, got, want)

    def test_integrals_definition(self, models, rng):
        # gamma_a = -xi_a^i A_i, evaluated term by term at random points
        for m in models.values():
            for a, integral in enumerate(m.integrals):
                assert integral.xi == m.frame[a]
                for _ in range(5):
                    at = catalog.random_model_assignment(m, rng)
                    want = -sum(ex.evaluate(m.frame[a][i], at) * ex.evaluate(m.potential[i], at) for i in range(4))
                    got = ex.evaluate(integral.gamma, at)
                    assert abs(got - want) < 1e-9 * (1.0 + abs(want)), (m.type_tag, a, got, want)

    def test_integrals_follow_a_replaced_potential(self, models):
        # criterion 7's perturbed IX: every gamma changes with A2 + u1
        m = models["IX"]
        pert = Potential.make(0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3])
        pm = dataclasses.replace(m, potential=pert, field=field_from_potential(pert))
        for a, integral in enumerate(pm.integrals):
            assert is_zero(integral.gamma - gamma_of(m.frame[a], pert)), a
            assert not is_zero(integral.gamma - m.integrals[a].gamma), a

    def test_no_leftover_free_constants(self, models):
        # the eliminated integration constants never appear in the catalog
        for m in models.values():
            for e in list(m.potential) + [
                m.field[i, j] for i in range(4) for j in range(i + 1, 4)
            ]:
                params = ex.free_symbols(e)["params"]
                assert not (params - {"alpha", "e"}), (m.type_tag, params)

    def test_constants_pass_jacobi(self, models):
        for m in models.values():
            assert jacobi_satisfied(m.constants)


# the coefficients c_a(u0) of each catalog potential A = c_a omega^a in the
# invariant coframe, written out here once more; type VI's row holds for every q
_ROWS = dict.fromkeys(catalog.SOLVABLE, ("alpha0", "beta0", "gamma0"))
_ROWS.update(
    VII=("alpha0*sin(alpha) + beta0*cos(alpha)", "beta0", "gamma0"),
    VIII=("alpha0", "gamma0", "-beta0"),
    IX=("alpha0", "beta0", "0"),
)


@pytest.mark.parametrize(
    "tag, q",
    [(tag, None) for tag in catalog.TAGS]
    + [("VI", q) for q in (2, 3, -1, Fraction(1, 2), Fraction(-3, 7))],
)
def test_coefficient_rows_are_the_solver_witness(tag, q):
    # catalog_witness solves A_i = f_a omega^a_i for the f_a by Cramer's rule
    fam = solver.solve_solvable(tag, q)
    row = [parse(c) for c in _ROWS[tag]]
    assert solver.catalog_witness(fam) == dict(zip(fam.free_functions, row))


class TestErrata:
    def test_flat_model_has_none(self):
        assert printed_vs_consistent("I") == ()

    def test_unsolvable_sign_note(self):
        notes = printed_vs_consistent("VIII")
        assert len(notes) == 1
        assert "jacobi" in notes[0].evidence
        assert notes[0].reproduce()

    def test_angle_table_note(self):
        notes = printed_vs_consistent("VII")
        locations = [n.location for n in notes]
        assert any("structure-constant" in loc for loc in locations)
        for n in notes:
            assert n.reproduce(), n.location

    def test_rotation_potential_note(self):
        notes = printed_vs_consistent("IX")
        assert any("final-solution" in n.location for n in notes)
        for n in notes:
            assert n.reproduce(), n.location

    def test_every_note_reproduces(self, models):
        for tag in catalog.TAGS:
            for note in printed_vs_consistent(tag):
                assert note.reproduce(), (tag, note.location)


class TestSampling:
    def test_rotation_chart_avoids_singularity(self, models, rng):
        import math

        m = models["IX"]
        for _ in range(50):
            a = catalog.random_model_assignment(m, rng)
            assert abs(math.sin(a.coords[1])) >= 0.1

    def test_spatial_matrix_nonsingular(self, models, rng):
        import numpy as np

        m = models["III"]
        for _ in range(20):
            a = catalog.random_model_assignment(m, rng)
            vals = {name: a.funcs[(name, 0)] for name in ("a11", "a12", "a13", "a22", "a23", "a33")}
            mat = np.array(
                [
                    [vals["a11"], vals["a12"], vals["a13"]],
                    [vals["a12"], vals["a22"], vals["a23"]],
                    [vals["a13"], vals["a23"], vals["a33"]],
                ]
            )
            assert abs(np.linalg.det(mat)) > 0.1
