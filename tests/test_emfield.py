"""Residual checks for admissible electromagnetic fields."""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import catalog, expr as ex
from symlab.emfield import (
    FieldTensor,
    KgfChecker,
    Potential,
    admissibility_residual,
    algebraic_constraint_residual,
    bianchi_residual,
    bianchi_satisfied,
    central_terms,
    compatibility_residual,
    field_from_potential,
    gamma_of,
    kgf_extra_residual_at,
)
from symlab.expr import is_zero, parse
from symlab.geometry import VectorField
from symlab.solver import solve_solvable


def all_zero(matrix) -> bool:
    return all(is_zero(v) for row in matrix for v in row)


class TestFieldFromPotential:
    def test_zero_potential(self):
        F = field_from_potential(Potential.make(0, 0, 0, 0))
        assert all(is_zero(F[i, j]) for i in range(4) for j in range(4))

    def test_exponential_model(self, models):
        F = field_from_potential(models["V"].potential)
        assert F[0, 1] == parse("alpha0'*exp(u3)")
        assert F[1, 3] == parse("-alpha0*exp(u3)")
        assert is_zero(F[1, 2])
        assert F[2, 3] == parse("-beta0*exp(u3)")

    def test_rotation_model_component_table(self, models):
        F = field_from_potential(models["IX"].potential)
        assert F[0, 1] == parse("alpha0'*cos(u3) - beta0'*sin(u3)")
        assert is_zero(F[0, 2] - parse("(alpha0'*sin(u3) + beta0'*cos(u3))*sin(u1)"))
        assert is_zero(F[0, 3])
        assert is_zero(F[1, 2] - parse("(alpha0*sin(u3) + beta0*cos(u3))*cos(u1)"))
        assert is_zero(F[1, 3] - parse("alpha0*sin(u3) + beta0*cos(u3)"))
        assert is_zero(F[2, 3] - parse("(-alpha0*cos(u3) + beta0*sin(u3))*sin(u1)"))

    def test_gauge_covariance(self, models):
        f = parse("u1*u3")
        for tag in ("II", "V", "IX"):
            m = models[tag]
            shifted = m.potential.shifted_by_gradient(f)
            F2 = field_from_potential(shifted)
            assert all(
                is_zero(F2[i, j] - m.field[i, j]) for i in range(4) for j in range(4)
            )


class TestBianchi:
    def test_derived_fields_are_closed(self, models):
        for m in models.values():
            assert bianchi_satisfied(m.field)

    def test_non_closed_counterexample(self):
        F = FieldTensor.from_upper({(1, 2): parse("u3")})
        res = bianchi_residual(F)
        assert res[(1, 2, 3)] == ex.number(1)
        assert not bianchi_satisfied(F)


class TestAdmissibility:
    def test_all_models_all_generators(self, models):
        for m in models.values():
            for X in m.frame:
                res = admissibility_residual(m.potential, m.field, X)
                assert all(is_zero(r) for r in res), m.type_tag

    def test_zero_potential(self, models):
        A = Potential.make(0, 0, 0, 0)
        F = field_from_potential(A)
        for X in models["III"].frame:
            assert all(is_zero(r) for r in admissibility_residual(A, F, X))

    def test_perturbation_detected(self, models):
        m = models["I"]
        A = Potential.make(0, m.potential[1], m.potential[2] + parse("u1^2"), m.potential[3])
        F = field_from_potential(A)
        res = admissibility_residual(A, F, m.frame[0])
        assert any(not is_zero(r) for r in res)


class TestCompatibility:
    def test_catalog_fields_invariant(self, models):
        for tag in ("III", "VIII"):
            m = models[tag]
            for X in m.frame:
                assert all_zero(compatibility_residual(m.field, X)), tag

    def test_crafted_field_not_invariant(self, models):
        m = models["III"]
        F = FieldTensor.from_upper({(0, 1): parse("u3")})
        res = compatibility_residual(F, m.frame[2])
        assert any(not is_zero(v) for row in res for v in row)


class TestGamma:
    def test_zero_potential(self):
        X = VectorField.spatial(1, 0, 0)
        assert is_zero(gamma_of(X, Potential.make(0, 0, 0, 0)))

    def test_translation_contraction(self, models):
        m = models["I"]
        assert is_zero(gamma_of(m.frame[0], m.potential) + parse("alpha0"))

    def test_shear_generator(self, models):
        m = models["II"]
        gam = gamma_of(m.frame[2], m.potential)
        assert is_zero(gam - parse("-u2*alpha0 + gamma0"))

    def test_reduction_identity(self, models):
        # d_i gamma = xi^j F_ji for every catalog pair
        for m in models.values():
            for integral in m.integrals:
                for i in range(4):
                    lhs = ex.differentiate(integral.gamma, i)
                    rhs = sum(
                        (integral.xi[j] * m.field[j, i] for j in range(4)),
                        ex.number(0),
                    )
                    assert is_zero(lhs - rhs), m.type_tag


class TestAlgebraicConstraints:
    def test_catalog_potentials_satisfy(self, models):
        for m in models.values():
            res = algebraic_constraint_residual(m.potential, m.frame, m.constants)
            assert all_zero(res), m.type_tag

    def test_shear_model_with_leftover_constant(self, models):
        # re-introducing the eliminated constant violates the constraints
        m = models["II"]
        A = Potential.make(
            0, m.potential[1], m.potential[2] + parse("u1"), m.potential[3]
        )
        res = algebraic_constraint_residual(A, m.frame, m.constants)
        assert any(not is_zero(v) for row in res for v in row)


@st.composite
def gauge_functions(draw):
    """lambda in the engine's closed class: one or two terms, each an integer
    times a monomial in u0..u3 times 1, exp, sin or cos of a linear form."""
    lam = ex.number(0)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        term = ex.number(draw(st.integers(min_value=-3, max_value=3).filter(bool)))
        form = ex.number(0)
        for i in range(4):
            term = term * ex.coord(i) ** draw(st.integers(min_value=0, max_value=2))
            form = form + draw(st.integers(min_value=-1, max_value=1)) * ex.coord(i)
        kind = draw(st.sampled_from([None, ex.exp, ex.sin, ex.cos]))
        lam = lam + (term * kind(form) if kind else term)
    return lam


def _a2_plus_u1(A):
    # a uniform magnetic field F12 = 1 added to the catalog field
    return Potential.make(0, A[1], A[2] + ex.coord(1), A[3])


# the unreduced families; I-III and VI at q = -1 keep their H^2 constants
_FAMILIES = [(tag, None) for tag in catalog.TAGS] + [("VI", -1)]
_H2 = {("I", None): 3, ("II", None): 2, ("III", None): 1, ("VI", -1): 1}


@functools.lru_cache(maxsize=None)
def _family(tag, q):
    return solve_solvable(tag, q=q)


class TestCentralTerms:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(lam=gauge_functions())
    def test_verdict_is_gauge_free(self, lam):
        # the catalog fields pass and their A2 + u1 shifts fail on I-VII, in
        # every gauge
        for tag in catalog.TAGS:
            m = catalog.get_model(tag)
            for A, want in ((m.potential, 0), (_a2_plus_u1(m.potential), int(tag in catalog.SOLVABLE))):
                F = field_from_potential(A.shifted_by_gradient(lam))
                assert central_terms(m.constants, m.frame, [F]) == want, (tag, str(lam))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_unreduced_families_fail_exactly_with_a_constant(self, data):
        values = st.one_of(st.just(0), st.fractions(-5, 5, max_denominator=7))
        for tag, q in _FAMILIES:
            fam = _family(tag, q)
            assert len(fam.free_constants) == _H2.get((tag, q), 0), (tag, q)
            consts = {name: data.draw(values) for name in fam.free_constants}
            F = FieldTensor.from_upper(fam.substitute(consts=consts))
            C, frame = fam.system.constants, fam.system.frame
            assert central_terms(C, frame, [F]) == int(any(consts.values())), (tag, q, consts)


class TestSecondOrderConditions:
    def test_one_shot_wrapper(self, models, rng):
        from symlab.emfield import kgf_extra_residual_at

        m = models["I"]
        checker = KgfChecker(m.metric, m.potential)
        point = catalog.random_model_assignment(m, rng, symbols=checker.required_symbols())
        r1, r2 = kgf_extra_residual_at(m.metric, m.potential, m.frame[0], point)
        assert abs(r1) < 1e-8 and abs(r2) < 1e-8

    def test_tiny_u0_component_is_not_a_generator(self, models, rng):
        # 1e-15 evaluates below any float threshold; the test is exact
        m = models["I"]
        checker = KgfChecker(m.metric, m.potential)
        point = catalog.random_model_assignment(m, rng, symbols=checker.required_symbols())
        X = VectorField.make(Fraction(1, 10**15), 1, 0, 0)
        with pytest.raises(ex.InputError, match="zero u0 component"):
            kgf_extra_residual_at(m.metric, m.potential, X, point)

    def test_all_models_small_residuals(self, models, rng):
        for m in models.values():
            checker = KgfChecker(m.metric, m.potential)
            for _ in range(15):
                point = catalog.random_model_assignment(
                    m, rng, symbols=checker.required_symbols()
                )
                for X in m.frame:
                    r1, r2 = checker.residuals(X, point)
                    assert abs(r1) < 1e-8 and abs(r2) < 1e-8, m.type_tag

    def test_zero_potential_exact(self, models, rng):
        m = models["II"]
        checker = KgfChecker(m.metric, Potential.make(0, 0, 0, 0))
        point = catalog.random_model_assignment(m, rng, symbols=checker.required_symbols())
        r1, r2 = checker.residuals(m.frame[2], point)
        assert r1 == 0.0 and r2 == 0.0

    def test_non_admissible_perturbation_detected(self, models, rng):
        m = models["V"]
        pert = Potential.make(
            0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3]
        )
        checker = KgfChecker(m.metric, pert)
        big = 0.0
        for _ in range(10):
            point = catalog.random_model_assignment(
                m, rng, symbols=checker.required_symbols()
            )
            r1, _r2 = checker.residuals(m.frame[2], point)
            big = max(big, abs(r1))
        assert big > 1e-3

    def test_admissible_symbolic_implies_numeric(self, models, rng):
        # the consequence structure: symbolic admissibility propagates to the
        # second-order conditions at every sampled point
        m = models["VII"]
        for X in m.frame:
            res = admissibility_residual(m.potential, m.field, X)
            assert all(is_zero(r) for r in res)
        checker = KgfChecker(m.metric, m.potential)
        for _ in range(20):
            point = catalog.random_model_assignment(m, rng, symbols=checker.required_symbols())
            for X in m.frame:
                r1, r2 = checker.residuals(X, point)
                assert abs(r1) < 1e-8 and abs(r2) < 1e-8


class TestStencilReuse:
    """A checker reused across a point's generators shares their stencils;
    its residuals must equal those of a fresh checker, bit for bit."""

    def test_reused_checker_matches_fresh_checker(self, models):
        rng = random.Random(4099)
        for m in models.values():
            checker = KgfChecker(m.metric, m.potential)
            for _ in range(3):
                point = catalog.random_model_assignment(
                    m, rng, symbols=checker.required_symbols()
                )
                for X in m.frame:
                    fresh = kgf_extra_residual_at(m.metric, m.potential, X, point)
                    assert checker.residuals(X, point) == fresh, m.type_tag

    def test_new_function_values_at_same_coordinates_recompute(self, models):
        # a non-admissible potential, so the residuals depend on the values
        m = models["V"]
        pert = Potential.make(
            0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3]
        )
        checker = KgfChecker(m.metric, pert)
        point = catalog.random_model_assignment(
            m, random.Random(77), symbols=checker.required_symbols()
        )
        X = m.frame[2]
        before = checker.residuals(X, point)
        for key in point.funcs:
            point.funcs[key] += 0.5  # same Assignment object, same coordinates
        after = checker.residuals(X, point)
        assert after != before
        assert after == kgf_extra_residual_at(m.metric, pert, X, point)
        doubled = {k: 2 * v for k, v in point.funcs.items()}
        moved = ex.Assignment(point.coords, point.params, doubled)
        assert checker.residuals(X, moved) == kgf_extra_residual_at(m.metric, pert, X, moved)

    def test_new_coordinates_with_same_function_values_recompute(self, models):
        m = models["V"]
        pert = Potential.make(
            0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3]
        )
        checker = KgfChecker(m.metric, pert)
        point = catalog.random_model_assignment(
            m, random.Random(78), symbols=checker.required_symbols()
        )
        X = m.frame[2]
        before = checker.residuals(X, point)
        shifted = ex.Assignment(
            [c + 0.25 for c in point.coords], point.params, point.funcs
        )
        after = checker.residuals(X, shifted)
        assert after != before
        assert after == kgf_extra_residual_at(m.metric, pert, X, shifted)


# The finite-difference derivative the exact one replaced, kept as its
# reference: the two scalars at four points along each axis, combined by the
# fourth-order central stencil.  It takes the cancellation scales at the
# sample point, as `KgfChecker` does; the stencil itself took their largest
# value over the four shifted points, which moved the normalized residuals
# of the test below by a relative 2e-5 to 5e-5.
_FD_H = 1e-5
_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h)


class _StencilReference:
    def __init__(self, metric, A):
        g = [metric[i, j] for i in range(4) for j in range(4)]
        dg = [ex.differentiate(metric[i, j], l) for l in range(4) for i in range(4) for j in range(4)]
        a = list(A.components)
        da = [ex.differentiate(A[m], l) for l in range(4) for m in range(4)]
        exprs = g + dg + a + da + [metric.determinant()] + list(metric.determinant_gradient())
        params, funcs = set(), set()
        for e in exprs:
            sym = ex.free_symbols(e)
            params |= sym["params"]
            funcs |= sym["funcs"]
        self.symbols = tuple(sorted(params)) + tuple(sorted(funcs))
        self._fn = ex.compile_numeric(exprs, {}, self.symbols)

    def _scalars(self, coords, vals):
        out = self._fn(*coords, *vals)
        g = np.array(out[0:16]).reshape(4, 4)
        dg = np.array(out[16:80]).reshape(4, 4, 4)
        a = np.array(out[80:84])
        da = np.array(out[84:100]).reshape(4, 4)
        det = out[100]
        ddet = np.array(out[101:105])
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

    def residuals(self, X, point):
        vals = [
            point.params[s] if isinstance(s, str) else point.funcs[(s.name, s.order)]
            for s in self.symbols
        ]
        xi = [ex.evaluate(X[i], point) for i in range(4)]
        _f1, _f2, m1, m2 = self._scalars(point.coords, vals)
        r1 = r2 = 0.0
        s1 = s2 = 1.0
        for i in range(1, 4):
            if abs(xi[i]) < 1e-15:
                continue
            d1 = d2 = 0.0
            for off, w in _STENCIL:
                shifted = list(point.coords)
                shifted[i] += off * _FD_H
                f1, f2, _s1, _s2 = self._scalars(shifted, vals)
                d1 += w * f1
                d2 += w * f2
            r1 += xi[i] * d1 / (12.0 * _FD_H)
            r2 += xi[i] * d2 / (12.0 * _FD_H)
            s1 += abs(xi[i]) * m1
            s2 += abs(xi[i]) * m2
        return r1 / s1, r2 / s2


class TestExactDerivative:
    """The chain-rule derivative against the finite-difference stencil it
    replaced, on potentials whose second-order residuals are not zero."""

    @staticmethod
    def non_admissible(m):
        A = m.potential
        return Potential.make(0, A[1], A[2] + parse("u1*u2"), A[3])

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_matches_stencil_reference(self, models, tag):
        m = models[tag]
        A = self.non_admissible(m)
        checker = KgfChecker(m.metric, A)
        reference = _StencilReference(m.metric, A)
        rng = random.Random(1601)
        largest = 0.0
        for _ in range(5):
            point = catalog.random_model_assignment(m, rng, symbols=checker.required_symbols())
            for X in m.frame:
                got = checker.residuals(X, point)
                want = reference.residuals(X, point)
                for r, ref in zip(got, want):
                    assert abs(r - ref) <= 1e-6 * abs(ref) + 1e-9, (tag, got, want)
                    largest = max(largest, abs(ref))
        assert largest > 0.1, tag

    def test_required_symbols_are_those_of_the_stencil(self, models):
        # the same symbols, so run_verification draws the same sample points
        for m in models.values():
            for A in (m.potential, self.non_admissible(m)):
                got = KgfChecker(m.metric, A).required_symbols()
                assert got == _StencilReference(m.metric, A).symbols, m.type_tag
