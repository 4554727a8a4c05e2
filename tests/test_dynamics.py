"""Trajectory integration and conservation monitoring.

The deterministic standard bindings are bounded, and conservation is
checked over short spans here (the full span is acceptance criterion 7).
A linear-in-u0 binding for gamma0 acts as a uniform field whose flow grows
like exp(2 tau); the tests that need a fast-growing flow name that binding,
and the step-budget guard turns its runaway regime into a clean diagnostic
instead of a hang.
"""

import dataclasses
import math

import numpy as np
import pytest

from symlab import catalog, dynamics, emfield, expr as ex
from symlab.dynamics import (
    IntegrationError,
    ModelInstance,
    PhaseState,
    conserved_drift,
    hamiltonian_at,
    integrate,
    random_initial_states,
    standard_instance,
    trajectory_rows,
)

# spans for the quick conservation sweep; VIII's is the span on which its
# local chart holds (its trajectories leave the chart at finite tau)
TRACTABLE_SPAN = {
    "I": 2.0,
    "II": 2.0,
    "III": 2.0,
    "IV": 2.0,
    "V": 2.0,
    "VI": 2.0,
    "VII": 2.0,
    "VIII": 1.0,
    "IX": 10.0,
}

ZERO_POTENTIAL = {
    "alpha0": ex.number(0),
    "beta0": ex.number(0),
    "gamma0": ex.number(0),
}

# a uniform field: its exact flow grows like exp(2 tau)
RUNAWAY_GAMMA = {"gamma0": ex.parse("u0")}


class TestHamiltonian:
    def test_timelike_momentum(self, models):
        inst = standard_instance(models["I"], bindings=ZERO_POTENTIAL)
        assert hamiltonian_at(inst, PhaseState((0, 0, 0, 0), (1, 0, 0, 0))) == 1.0

    def test_spacelike_momentum(self, models):
        inst = standard_instance(models["I"], bindings=ZERO_POTENTIAL)
        assert hamiltonian_at(inst, PhaseState((0, 0, 0, 0), (0, 1, 0, 0))) == -1.0

    def test_potential_contribution(self, models):
        # with the first function equal to one at u0 = 0, the vanishing
        # momentum component still contributes A_1^2 g^11 = -1
        inst = standard_instance(
            models["V"],
            bindings={"alpha0": ex.parse("cos(u0)"), "beta0": ex.number(0), "gamma0": ex.number(0)},
        )
        h = hamiltonian_at(inst, PhaseState((0, 0, 0, 0), (0.5, 0, 0, 0)))
        assert abs(h - (0.25 - 1.0)) < 1e-14

    def test_unbound_function_rejected(self, models):
        with pytest.raises(IntegrationError):
            ModelInstance(models["V"], bindings={}, params={"e": 1.0})


def _reference_flow(inst):
    """y -> (du, dp, H, Y) from ``evaluate`` on the bound entries, with a
    numpy inverse and einsum contractions, independent of the kernel."""
    m = inst.model

    def bind(e):
        return ex.substitute(e, funcs=inst.bindings)

    g = [[bind(m.metric[i, j]) for j in range(4)] for i in range(4)]
    pot = [bind(e) for e in m.potential]
    dg = [[[ex.differentiate(e, k) for e in row] for row in g] for k in range(4)]
    da = [[ex.differentiate(e, k) for e in pot] for k in range(4)]
    xi = [[bind(c) for c in f] for f in m.frame]

    def flow(y):
        a = ex.Assignment(tuple(y[:4]), inst.params)
        value = np.vectorize(lambda e: ex.evaluate(e, a), otypes=[float])
        ginv = np.linalg.inv(value(g))
        P = y[4:] + value(pot)
        du = 2.0 * ginv @ P
        dp = np.einsum("a,ab,kbc,cd,d->k", P, ginv, value(dg), ginv, P) - 2.0 * value(da) @ (ginv @ P)
        return du, dp, float(P @ ginv @ P), value(xi) @ y[4:]

    return flow


class TestKernel:
    """The generated kernel against the numpy reference."""

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_matches_numpy_reference(self, models, tag):
        # VIII has the densest metric derivatives (13 of the 64 are nonzero)
        m = models[tag]
        inst = standard_instance(m)
        reference = _reference_flow(inst)
        rng = np.random.default_rng(404)
        for _ in range(4):
            y = rng.uniform(-0.8, 0.8, size=8)
            if tag == "IX":
                y[1] += math.pi / 2  # away from the chart's pole u1 = 0
            du, dp, h, ys = reference(y)
            got = inst.rhs(y)
            for name, value, ref in (("du", got[:4], du), ("dp", got[4:], dp), ("Y", inst.integrals(y), ys)):
                scale = np.max(np.abs(ref))
                np.testing.assert_allclose(value, ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name)
            assert inst.hamiltonian(y) == pytest.approx(h, rel=1e-12, abs=1e-12)

    def test_exp_overflow_raises_integration_error(self, models):
        # type V's metric and potential carry exp(2*u3) and exp(u3)
        inst = standard_instance(models["V"])
        y = np.array([0.0, 0.0, 0.0, 800.0, 0.1, 0.1, 0.1, 0.1])
        for evaluate in (inst.rhs, inst.hamiltonian, inst.integrals):
            with pytest.raises(IntegrationError, match="representable domain"):
                evaluate(y)

    def test_non_finite_determinant_raises_integration_error(self, models):
        # type V's g11 and g22 carry exp(2*u3): finite entries, infinite product
        inst = standard_instance(models["V"])
        y = np.array([0.0, 0.0, 0.0, 200.0, 0.1, 0.1, 0.1, 0.1])
        with pytest.raises(IntegrationError, match="non-finite metric determinant"):
            inst.rhs(y)


class TestFreeMotion:
    def test_momenta_exactly_constant(self, models):
        inst = standard_instance(models["I"], bindings=ZERO_POTENTIAL)
        st = PhaseState((0, 0, 0, 0), (0.3, 0.2, -0.1, 0.4))
        traj = integrate(inst, st, (0, 10.0), 1e-10)
        for y in traj.states:
            assert np.array_equal(y[4:], np.array(st.momenta))

    def test_coordinates_linear_in_tau(self, models):
        inst = standard_instance(models["I"], bindings=ZERO_POTENTIAL)
        st = PhaseState((0, 0, 0, 0), (0.3, 0.2, -0.1, 0.4))
        traj = integrate(inst, st, (0, 10.0), 1e-10)
        v0 = inst.rhs(st.as_vector())[:4]
        for t, y in zip(traj.taus, traj.states):
            assert np.max(np.abs(y[:4] - t * v0)) < 1e-9


class TestConservation:
    def test_all_models_on_tractable_spans(self, models):
        for tag, m in models.items():
            inst = standard_instance(m)
            span = (0.0, TRACTABLE_SPAN[tag])
            for st in random_initial_states(m, 2, seed=5, radius=0.3):
                traj = integrate(inst, st, span, 1e-10)
                drifts = conserved_drift(traj, inst)
                assert max(drifts.values()) < 1e-8, (tag, drifts)

    def test_rotation_model_full_span(self, models):
        # the one catalog model with bounded potentials holds the stated
        # tolerance over the full span
        m = models["IX"]
        inst = standard_instance(m)
        for st in random_initial_states(m, 5, seed=2026, radius=0.3):
            traj = integrate(inst, st, (0.0, 10.0), 1e-10)
            drifts = conserved_drift(traj, inst)
            assert max(drifts.values()) < 1e-8, drifts

    def test_rotation_chart_completes_from_regular_start(self, models):
        m = models["IX"]
        inst = standard_instance(m)
        st = PhaseState((0, math.pi / 2, 0, 0), (0.2, 0.1, -0.15, 0.05))
        traj = integrate(inst, st, (0.0, 5.0), 1e-10)
        assert traj.taus[-1] == pytest.approx(5.0)


class TestOrderAndReversal:
    def test_halving_tolerance_cuts_drift(self, models):
        # on the exponential-metric benchmark, under the fast-growing
        # uniform-field flow, the drift must fall by at least a factor of
        # four per tolerance halving
        m = models["V"]
        inst = standard_instance(m, bindings=RUNAWAY_GAMMA)
        st = random_initial_states(m, 1, seed=5, radius=0.3)[0]
        drifts = []
        for tol in (1e-10, 5e-11):
            traj = integrate(inst, st, (0.0, 2.0), tol)
            drifts.append(conserved_drift(traj, inst)["H"])
        assert drifts[0] >= 4.0 * drifts[1], drifts

    def test_time_reversal(self, models):
        m = models["IX"]
        inst = standard_instance(m)
        st = random_initial_states(m, 1, seed=5, radius=0.3)[0]
        forward = integrate(inst, st, (0.0, 10.0), 1e-10)
        back = integrate(inst, forward.final_state(), (10.0, 0.0), 1e-10)
        assert np.max(np.abs(back.states[-1] - st.as_vector())) < 1e-6


class TestPower:
    def test_non_admissible_perturbation_breaks_integrals(self, models):
        m = models["V"]
        pert = emfield.Potential.make(
            0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3]
        )
        pm = dataclasses.replace(
            m, potential=pert, field=emfield.field_from_potential(pert)
        )
        inst = standard_instance(pm)
        st = random_initial_states(pm, 1, seed=3)[0]
        traj = integrate(inst, st, (0.0, 2.0), 1e-10)
        drifts = conserved_drift(traj, inst)
        assert drifts["Y3"] > 1e-3
        # the perturbed flow is still Hamiltonian, so H stays conserved
        assert drifts["H"] < 1e-8


class TestDiagnostics:
    def test_runaway_flow_raises_instead_of_hanging(self, models):
        # the uniform-field binding drives hyperbolic growth; past the
        # representable regime the integrator reports instead of spinning
        inst = standard_instance(models["V"], bindings=RUNAWAY_GAMMA)
        st = random_initial_states(models["V"], 1, seed=7, radius=0.3)[0]
        with pytest.raises(IntegrationError):
            integrate(inst, st, (0.0, 10.0), 1e-10, max_steps=3000)

    def test_singular_metric_raises_integration_error(self, models):
        # the rotation chart's metric is singular at its origin
        inst = standard_instance(models["IX"])
        with pytest.raises(IntegrationError, match="metric singular"):
            inst.rhs(np.zeros(8))

    def test_step_statistics(self, models):
        m = models["IX"]
        inst = standard_instance(m)
        st = random_initial_states(m, 1, seed=1)[0]
        traj = integrate(inst, st, (0.0, 2.0), 1e-10)
        assert traj.rhs_evals == 1 + 8 * (traj.accepted + traj.rejected)
        steps = np.abs(np.diff(traj.taus))
        assert traj.h_min == pytest.approx(steps.min(), rel=1e-9)
        assert traj.h_max == pytest.approx(steps.max(), rel=1e-9)
        assert 0.0 < traj.h_min <= traj.h_max <= dynamics._hmax(1e-10)

    def test_bad_tolerance(self, models):
        inst = standard_instance(models["I"], bindings=ZERO_POTENTIAL)
        with pytest.raises(ValueError):
            integrate(inst, PhaseState((0, 0, 0, 0), (0, 0, 0, 0)), (0, 1), -1.0)

    def test_trajectory_rows_shape(self, models):
        m = models["IX"]
        inst = standard_instance(m)
        st = random_initial_states(m, 1, seed=1)[0]
        traj = integrate(inst, st, (0.0, 1.0), 1e-8)
        rows = trajectory_rows(traj, inst)
        assert len(rows) == len(traj.taus)
        assert all(len(r) == 13 for r in rows)
        assert rows[0][0] == 0.0
