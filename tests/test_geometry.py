"""Lie-algebra, coframe and metric machinery tests."""

import math
import random

import numpy as np
import pytest

from symlab import _symint, catalog, expr as ex, geometry
from symlab.expr import is_zero, parse
from symlab.geometry import (
    Coframe,
    DegenerateFrameError,
    Metric,
    NonClosingFrameError,
    StructureConstants,
    VectorField,
    coframe_is_invariant,
    invariant_coframe,
    jacobi_residual,
    jacobi_satisfied,
    killing_residual,
    killing_satisfied,
    lie_bracket,
    metric_sample,
    structure_constants_from_frame,
)
from test_cli import _FAILING_INPUTS

D1 = VectorField.spatial(1, 0, 0)
D2 = VectorField.spatial(0, 1, 0)
D3 = VectorField.spatial(0, 0, 1)
U1_D1 = VectorField.spatial(parse("u1"), 0, 0)


def vanishes(field: VectorField) -> bool:
    return all(is_zero(c) for c in field)


class TestLieBracket:
    def test_translations_commute(self):
        assert vanishes(lie_bracket(D1, D2))

    def test_translation_pair_bracket(self, models):
        m = models["II"]
        br = lie_bracket(m.frame[1], m.frame[2])
        assert all(is_zero(br[i] - m.frame[0][i]) for i in range(4))

    def test_unsolvable_bracket_sign(self, models):
        # the second and third generators close on +xi3, not -xi3
        m = models["VIII"]
        br = lie_bracket(m.frame[1], m.frame[2])
        assert all(is_zero(br[i] - m.frame[2][i]) for i in range(4))

    def test_antisymmetry_on_catalog_frames(self, models):
        for m in models.values():
            for a in range(3):
                for b in range(3):
                    s = lie_bracket(m.frame[a], m.frame[b])
                    t = lie_bracket(m.frame[b], m.frame[a])
                    assert all(is_zero(s[i] + t[i]) for i in range(4))

    def test_jacobi_identity_on_catalog_frames(self, models):
        for m in models.values():
            X, Y, Z = m.frame
            for i in range(4):
                total = (
                    lie_bracket(X, lie_bracket(Y, Z))[i]
                    + lie_bracket(Y, lie_bracket(Z, X))[i]
                    + lie_bracket(Z, lie_bracket(X, Y))[i]
                )
                assert is_zero(total)


class TestStructureConstants:
    def test_translations_give_zero(self):
        C = structure_constants_from_frame([D1, D2, D3])
        assert not C.nonzero_entries()

    def test_affine_frame_values(self, models):
        C = models["IV"].constants
        assert C[0, 2, 0] == ex.number(1)
        assert C[1, 2, 0] == ex.number(1)
        assert C[1, 2, 1] == ex.number(1)
        assert len(C.nonzero_entries()) == 3

    def test_angle_frame_differs_from_printed_table(self, models):
        C = models["VII"].constants
        assert C[0, 2, 1] == ex.number(1)  # [xi1, xi3] = xi2
        assert C[1, 2, 0] == ex.number(-1)
        assert C[1, 2, 1] == parse("2*cos(alpha)")
        assert is_zero(C[0, 2, 0])  # the printed line puts this at 1

    def test_reexpansion_reproduces_brackets(self, models):
        for m in models.values():
            C = m.constants
            for a in range(3):
                for b in range(3):
                    br = lie_bracket(m.frame[a], m.frame[b])
                    for i in range(4):
                        acc = br[i]
                        for g in range(3):
                            acc = acc - C[a, b, g] * m.frame[g][i]
                        assert is_zero(acc)

    def test_non_closing_frame(self):
        bad = VectorField.spatial(parse("u2^2"), 0, parse("u1"))
        with pytest.raises((NonClosingFrameError, DegenerateFrameError)):
            structure_constants_from_frame([D1, D2, bad])

    @pytest.mark.parametrize(
        "frame",
        [
            [D1, D2, U1_D1],
            [VectorField.spatial(1, 1, 0), VectorField.spatial(1, -1, 0), U1_D1],
            [D1, VectorField.spatial(0, parse("u1^2"), 0), D2],
            [D1, VectorField.spatial(2, 0, 0), D2],
            [D1, VectorField.spatial(parse("u2"), 0, 0), VectorField.spatial(parse("u2^2"), 0, 0)],
        ],
        ids=["unique_span", "coupled_rows", "bracket_outside_span", "no_unique_expansion",
             "one_dimensional"],
    )
    def test_not_simply_transitive_frame_rejected(self, frame):
        # an identically zero frame determinant is one fault with one message,
        # whether the bracket expansions in the span are unique or not
        messages = []
        for build in (structure_constants_from_frame, invariant_coframe):
            with pytest.raises(DegenerateFrameError) as err:
                build(frame)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "simply transitively" in messages[0]

    @pytest.mark.parametrize("build", [structure_constants_from_frame, invariant_coframe])
    def test_u0_component_is_one_error_everywhere(self, build):
        # both frame functions share one check, so the same fault raises alike
        tilted = VectorField.make(1, 0, 0, 1)
        with pytest.raises(DegenerateFrameError, match="zero u0 component"):
            build([D1, D2, tilted])


class TestJacobi:
    def test_rotation_algebra(self):
        z = ex.number(0)
        o = ex.number(1)
        C = StructureConstants(
            [
                [[z] * 3, [z, z, o], [z, -o, z]],
                [[z, z, -o], [z] * 3, [o, z, z]],
                [[z, o, z], [-o, z, z], [z] * 3],
            ]
        )
        assert jacobi_satisfied(C)

    def test_printed_unsolvable_constants_fail(self):
        z, o = ex.number(0), ex.number(1)
        printed = StructureConstants(
            [
                [[z] * 3, [o, z, z], [z, ex.number(2), z]],
                [[-o, z, z], [z] * 3, [z, z, -o]],
                [[z, ex.number(-2), z], [z, z, o], [z] * 3],
            ]
        )
        res = jacobi_residual(printed)
        nonzero = [
            res[a][b][g][s]
            for a in range(3)
            for b in range(3)
            for g in range(3)
            for s in range(3)
            if res[a][b][g][s]
        ]
        assert nonzero
        # the residual contains the characteristic coefficient 4
        assert any(v.as_rational() in (4, -4) for v in nonzero)

    def test_corrected_constants_pass(self, models):
        assert jacobi_satisfied(models["VIII"].constants)

    def test_all_catalog_constants(self, models):
        for m in models.values():
            assert jacobi_satisfied(m.constants)


class TestKilling:
    def test_translation_is_isometry(self, models):
        res = killing_residual(models["I"].metric, D1)
        assert all(is_zero(res[i][j]) for i in range(4) for j in range(4))

    def test_scaling_is_not_an_isometry_of_generic_metric(self, models):
        X = VectorField.spatial(parse("u1"), 0, 0)
        res = killing_residual(models["I"].metric, X)
        assert any(not is_zero(res[i][j]) for i in range(4) for j in range(4))

    def test_all_catalog_metrics_symbolically(self, models):
        for m in models.values():
            for X in m.frame:
                assert killing_satisfied(m.metric, X), m.type_tag

    def test_exponential_metric_numerically(self, models, rng):
        from symlab.cli import NUMERIC_TOL

        m = models["V"]
        res = killing_residual(m.metric, m.frame[2])
        exprs = [res[i][j] for i in range(4) for j in range(4)]
        for _ in range(100):
            a = catalog.random_model_assignment(m, rng)
            for e in exprs:
                assert abs(ex.evaluate(e, a)) < NUMERIC_TOL


def _lie_cases(models):
    """(label, tag, T, X): g, F and each coframe form, padded as
    ``coframe_is_invariant`` pads it, under every generator of the nine
    models; g and F of every _FAILING_INPUTS mutant; a covector with a
    negative coordinate power and one with a sum denominator."""
    cases = []
    for tag, m in models.items():
        for a, X in enumerate(m.frame):
            cases.append((f"g xi{a + 1}", tag, m.metric.entries, X))
            cases.append((f"F xi{a + 1}", tag, m.field.entries, X))
            for s, form in enumerate(m.coframe.forms):
                cases.append((f"s{s + 1} xi{a + 1}", tag, (ex.number(0),) + form, X))
    for tag, mutate, _failing in _FAILING_INPUTS:
        m = mutate(models[tag])
        for a, X in enumerate(m.frame):
            cases.append((f"{mutate.__name__} g xi{a + 1}", tag, m.metric.entries, X))
            cases.append((f"{mutate.__name__} F xi{a + 1}", tag, m.field.entries, X))
    z = ex.number(0)
    for label, T in (("1/u1", (z, parse("u2/u1"), z, z)), ("1/(1 + u1^2)", (z, parse("1/(1 + u1^2)"), z, z))):
        for name, X in (("d2", D2), ("u1 d1", U1_D1), ("IX xi2", models["IX"].frame[1])):
            cases.append((f"{label} {name}", None, T, X))
    return cases


class TestLieDerivativeZeroTest:
    def test_agrees_with_plain_residual(self, models):
        # the cleared zero test against is_zero on every plain entry
        verdicts = {}
        for label, tag, T, X in _lie_cases(models):
            res = geometry._lie_derivative(T, X)
            plain = all(is_zero(c) for c in (res if isinstance(res[0], ex.Expr) else sum(res, ())))
            assert geometry.lie_derivative_vanishes(T, X) == plain, (tag, label)
            verdicts.setdefault(tag, set()).add(plain)
        assert verdicts["IX"] == {True, False}
        assert verdicts[None] == {True, False}

    def test_clearing_reaches_the_zero_sum(self, models):
        # IX's quotient generators: the plain Killing residual does not
        # collapse, the cleared one is the empty sum
        m = models["IX"]
        plain = killing_residual(m.metric, m.frame[1])
        cleared = geometry._lie_derivative(m.metric.entries, m.frame[1], cleared=True)
        assert any(plain[i][j] for i in range(4) for j in range(4))
        assert not any(cleared[i][j] for i in range(4) for j in range(4))


class TestCoframe:
    def test_translation_frame_gives_identity(self, models):
        cf = models["I"].coframe
        expected = Coframe(
            tuple(tuple(ex.number(1 if i == a else 0) for i in range(3)) for a in range(3))
        )
        assert cf == expected

    def test_exponential_coframe(self, models):
        cf = models["V"].coframe
        assert cf.component(0, 1) == parse("exp(u3)")
        assert cf.component(1, 2) == parse("exp(u3)")
        assert cf.component(2, 3) == ex.number(1)

    def test_shear_coframe(self, models):
        cf = models["II"].coframe
        assert cf.component(0, 1) == ex.number(1)
        assert cf.component(0, 2) == parse("u3")

    def test_invariance_for_all_models(self, models):
        for m in models.values():
            assert coframe_is_invariant(m.coframe, m.frame), m.type_tag

    def test_unit_coframe_is_not_invariant_under_a_rotation_frame(self, models):
        assert not coframe_is_invariant(models["I"].coframe, models["VIII"].frame)

    def test_degenerate_frame_rejected(self):
        f3 = VectorField.spatial(parse("u1"), 0, 0)
        with pytest.raises(geometry.GeometryError):
            invariant_coframe([D1, D2, f3])


class TestMetric:
    def test_flat_block_structure(self, models):
        g = models["I"].metric
        assert g[1, 2] == ex.func("a12")
        assert g[0, 0] == ex.param("e")
        assert is_zero(g[0, 1])

    def test_exponential_pattern(self, models):
        g = models["V"].metric
        assert g[1, 1] == parse("a11*exp(2*u3)")
        assert g[2, 3] == parse("a23*exp(u3)")

    def test_minkowski_sample(self, models):
        m = models["I"]
        a = ex.Assignment(
            (0, 0, 0, 0),
            {"e": 1.0},
            {(f"a{s}{t}", 0): (-1.0 if s == t else 0.0) for s in range(1, 4) for t in range(s, 4)}
            | {(f"a{s}{t}", 1): 0.0 for s in range(1, 4) for t in range(s, 4)},
        )
        sample = metric_sample(m.metric, a)
        assert np.allclose(sample.ginv, np.diag([1.0, -1.0, -1.0, -1.0]))
        assert np.allclose(sample.chi_grad, 0.0)

    def test_exponential_sample_chi(self, models):
        m = models["V"]
        funcs = {(f"a{s}{t}", 0): (-1.0 if s == t else 0.0) for s in range(1, 4) for t in range(s, 4)}
        funcs |= {(f"a{s}{t}", 1): 0.0 for s in range(1, 4) for t in range(s, 4)}
        a = ex.Assignment((0, 0, 0, 0), {"e": 1.0}, funcs)
        sample = metric_sample(m.metric, a)
        # determinant carries exp(4 u3), so d(chi)/du3 = 2 at u3 = 0
        assert abs(sample.chi_grad[3] - 2.0) < 1e-12
        assert abs(sample.chi_grad[0]) < 1e-12

    def test_zero_time_entry_gives_zero_determinant(self, models, monkeypatch):
        entries = [list(row) for row in models["IX"].metric.entries]
        entries[0][0] = ex.number(0)
        coupled = [list(row) for row in entries]
        coupled[0][1] = coupled[1][0] = ex.coord(1)
        assert not is_zero(Metric(coupled, ex.number(0)).determinant())

        det = _symint.det

        def no_spatial_det(m):
            if len(m) == 3:
                raise AssertionError("built the spatial determinant of a zero product")
            return det(m)

        monkeypatch.setattr(_symint, "det", no_spatial_det)
        assert Metric(entries, ex.number(0)).determinant() == ex.ZERO

    def test_determinant_matches_the_three_branch_formula(self, models):
        cases = []
        for m in models.values():
            entries = [list(row) for row in m.metric.entries]
            cases.append(entries)
            cases.append([[ex.number(0)] + row[1:] if i == 0 else row for i, row in enumerate(entries)])
        coupled = [list(row) for row in models["V"].metric.entries]
        coupled[0][1] = coupled[1][0] = ex.coord(2)
        cases.append(coupled)
        for entries in cases:
            assert Metric(entries, entries[0][0]).determinant() == _three_branch_determinant(entries)

    def test_inverse_and_chi_at_random_points(self, models, rng):
        for m in models.values():
            dets = m.metric.determinant()
            for _ in range(20):
                a = catalog.random_model_assignment(m, rng)
                sample = metric_sample(m.metric, a)
                assert np.max(np.abs(sample.g @ sample.ginv - np.eye(4))) < 1e-10
            # finite-difference cross-check of chi on the last sample
            h = 1e-6
            for i in range(1, 4):
                up = list(a.coords)
                up[i] += h
                dn = list(a.coords)
                dn[i] -= h
                dv = (
                    math.log(abs(ex.evaluate(dets, ex.Assignment(up, a.params, a.funcs))))
                    - math.log(abs(ex.evaluate(dets, ex.Assignment(dn, a.params, a.funcs))))
                ) / (2 * h)
                assert abs(0.5 * dv - sample.chi_grad[i]) < 1e-6, (m.type_tag, i)


def _det3(m):
    """The 3x3 cofactor formula, written out so the reference does not use
    the determinant it checks."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _three_branch_determinant(g):
    """Reference: the full first-row expansion when some g0a is nonzero, g00
    itself when it is zero, and otherwise g00 times the spatial determinant."""
    if any(g[0][a] for a in range(1, 4)):
        total = ex.number(0)
        for j in range(4):
            minor = [[g[r][c] for c in range(4) if c != j] for r in (1, 2, 3)]
            term = g[0][j] * _det3(minor)
            total = total + term if j % 2 == 0 else total - term
        return total
    if not g[0][0]:
        return g[0][0]
    return g[0][0] * _det3([[g[i][j] for j in range(1, 4)] for i in range(1, 4)])


# third generator (X1, X2, X3) next to d1 and d2 -> the printed invariant coframe
OUTSIDE_CATALOG = {
    ("2*u1 + 3*u2", "-u2", "-1"): [
        ["exp(2*u3)", "-exp(-u3) + exp(2*u3)", "0"],
        ["0", "exp(-u3)", "0"],
        ["0", "0", "1"],
    ],
    ("u2", "u1", "-1"): [
        ["(1/2)*exp(-u3) + (1/2)*exp(u3)", "(-1/2)*exp(-u3) + (1/2)*exp(u3)", "0"],
        ["(-1/2)*exp(-u3) + (1/2)*exp(u3)", "(1/2)*exp(-u3) + (1/2)*exp(u3)", "0"],
        ["0", "0", "1"],
    ],
    ("u1 + u2", "2*u2", "-1"): [
        ["exp(u3)", "-exp(u3) + exp(2*u3)", "0"],
        ["0", "exp(2*u3)", "0"],
        ["0", "0", "1"],
    ],
    ("3*u1", "u2", "2"): [
        ["exp((-3/2)*u3)", "0", "0"],
        ["0", "exp((-1/2)*u3)", "0"],
        ["0", "0", "1"],
    ],
    ("1", "1", "1"): [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}


@pytest.mark.parametrize("third", list(OUTSIDE_CATALOG), ids=lambda t: ",".join(t))
def test_coframe_outside_catalog_is_pinned(third):
    cf = invariant_coframe([D1, D2, VectorField.spatial(*map(parse, third))])
    printed = [[str(cf.component(a, i)) for i in (1, 2, 3)] for a in range(3)]
    assert printed == OUTSIDE_CATALOG[third]


def test_coframe_without_a_closed_form_is_rejected():
    with pytest.raises(ex.UnsupportedExpressionError, match="not exactly representable"):
        invariant_coframe([D1, D2, VectorField.spatial(parse("u1 + u2"), parse("u1"), -1)])
    with pytest.raises(geometry.GeometryError, match="no invariant coframe construction"):
        invariant_coframe(
            [VectorField.spatial(1, 1, 0), VectorField.spatial(1, -1, 0), D3]
        )


def _embed(block, rows):
    """3x3 matrix with the 2x2 ``block`` (texts) on the indices ``rows``."""
    N = [[ex.number(0)] * 3 for _ in range(3)]
    for p, r in enumerate(rows):
        for q, c in enumerate(rows):
            N[r][c] = parse(block[p][q])
    return N


class TestFundamentalMatrix:
    """exp(u_i N) from the one 2x2 closed form: E' = N E and E = I at u_i = 0."""

    @pytest.mark.parametrize(
        "block",
        [
            (("0", "1"), ("1", "0")),  # real pair +-1
            (("1", "0"), ("1", "1")),  # double root 1
            (("0", "-1"), ("1", "-2*cos(alpha)")),  # complex pair -cos(a) +- i sin(a)
            (("0", "0"), ("0", "3")),  # one nonzero index, padded to a block
            (("0", "0"), ("0", "0")),
        ],
        ids=["real-pair", "double-root", "complex-pair", "single-index", "zero"],
    )
    @pytest.mark.parametrize("rows", [(0, 1), (0, 2), (1, 2)], ids=str)
    def test_solves_the_system(self, block, rows):
        N = _embed(block, rows)
        E = _symint.fundamental_matrix(N, 3)
        for r in range(3):
            for c in range(3):
                flow = sum((N[r][k] * E[k][c] for k in range(3)), ex.number(0))
                assert is_zero(ex.differentiate(E[r][c], 3) - flow), (r, c)
                start = ex.substitute(E[r][c], coords={3: ex.number(0)})
                assert is_zero(start - ex.number(1 if r == c else 0)), (r, c)

    def test_three_indices_raise(self):
        N = _embed((("0", "1"), ("0", "0")), (0, 1))
        N[1][2] = ex.number(1)
        with pytest.raises(ex.UnsupportedExpressionError, match="3 indices"):
            _symint.fundamental_matrix(N, 3)

    def test_irrational_eigenvalues_raise(self):
        N = _embed((("1", "1"), ("1", "0")), (0, 1))
        with pytest.raises(ex.UnsupportedExpressionError, match="not exactly representable"):
            _symint.fundamental_matrix(N, 3)
