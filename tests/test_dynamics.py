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
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_generated_code_has_distinct_filenames(self, models):
        # profiles key functions by (filename, line, name)
        kernels = [standard_instance(models[tag])._kernel.__code__.co_filename for tag in catalog.TAGS]
        assert kernels == [f"<kernel {tag}>" for tag in catalog.TAGS]
        others = [
            dynamics._verner_step().__code__.co_filename,
            ex.compile_numeric([ex.number(1)]).__code__.co_filename,
        ]
        assert others == ["<verner step>", "<compile_numeric>"]

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

    @pytest.mark.parametrize(
        "u3, match",
        [
            (200.0, r"non-finite metric determinant \(det g overflows while the entries of g are still"),
            (-300.0, r"metric singular at u = \[0\.0, 0\.0, 0\.0, -300\.0\]: det g is 0, or underflowed"),
        ],
    )
    def test_determinant_leaves_double_range_first(self, models, u3, match):
        # type V's det g carries exp(4*u3); its entries exp(2*u3) stay normal doubles
        inst = standard_instance(models["V"])
        y = np.array([0.0, 0.0, 0.0, u3, 0.1, 0.1, 0.1, 0.1])
        metric = [e for name, e in inst._entries().items() if name.startswith("g")]
        values = ex.compile_numeric(metric, inst.params)(*y[:4])
        assert all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in values)
        for evaluate in (inst.rhs, inst.invariants):
            with pytest.raises(IntegrationError, match=match):
                evaluate(y)


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

    def test_timelike_orbits(self, models):
        # e = -1 and a11 = 1 make each orbit's metric Lorentzian; criterion 7's
        # states, tolerance, spans and step budget.  Type V state 2 runs off
        # to infinity (|u1| near 8e2) and stops before tau = 10, its step
        # size following the blow-up
        for tag, m in models.items():
            bindings = dict(dynamics.standard_bindings(), a11=ex.number(1))
            params = {"e": -1.0, "alpha": math.pi / 3.0} if tag == "VII" else {"e": -1.0}
            inst = ModelInstance(m, bindings, params)
            span = (0.0, 1.0) if tag == "VIII" else (0.0, 10.0)
            for idx, st in enumerate(random_initial_states(m, 5, seed=2026, radius=0.3)):
                if (tag, idx) == ("V", 2):
                    with pytest.raises(IntegrationError, match=r"step size underflow at tau = 4\.97.*\|y\| up to"):
                        integrate(inst, st, span, 1e-10, max_steps=2500)
                    continue
                traj = integrate(inst, st, span, 1e-10, max_steps=2500)
                drifts = conserved_drift(traj, inst)
                assert max(drifts.values()) < 1e-8, (tag, idx, drifts)

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

    def test_negative_seed_is_an_input_error(self, models):
        with pytest.raises(ex.InputError, match="seed must be non-negative, got -1"):
            random_initial_states(models["I"], 1, seed=-1)

    def test_trajectory_rows_shape(self, models):
        m = models["IX"]
        inst = standard_instance(m)
        st = random_initial_states(m, 1, seed=1)[0]
        traj = integrate(inst, st, (0.0, 1.0), 1e-8)
        rows = trajectory_rows(traj, inst)
        assert len(rows) == len(traj.taus)
        assert all(len(r) == 13 for r in rows)
        assert rows[0][0] == 0.0


def _reference_integrate(inst, state0, tau_span, tol=1e-10, max_steps=200_000):
    """``integrate`` with the numpy stage loop it was written with: each stage
    point, ynew and err are running sums of float64 arrays, k_j from
    ``inst.rhs``."""
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    direction = 1.0 if t1 > t0 else -1.0
    y = state0.as_vector()
    t = t0
    hmax = dynamics._hmax(tol)
    h = direction * min(hmax, abs(t1 - t0) / 10.0)
    traj = dynamics.Trajectory(taus=[t0], states=[y.copy()], tolerance=tol, rhs_evals=1)
    k = [None] * 9
    k0 = inst.rhs(y)
    span = abs(t1 - t0)
    end_eps = 1e-12 * max(1.0, span)
    min_step = 1e-13 * max(1.0, span)
    while (t1 - t) * direction > end_eps:
        if abs(h) >= abs(t1 - t):
            h = t1 - t
        k[0] = k0
        for s in range(1, 9):
            ys = y.copy()
            for j, a in enumerate(dynamics._V65_A[s]):
                if a:
                    ys += (h * a) * k[j]
            k[s] = inst.rhs(ys)
        traj.rhs_evals += 8
        ynew = y.copy()
        for j, b in enumerate(dynamics._V65_B):
            if b:
                ynew += (h * b) * k[j]
        err = np.zeros_like(y)
        for j, e in enumerate(dynamics._V65_E):
            if e:
                err += (h * e) * k[j]
        err_norm = _reference_error_norm(err, y, ynew, tol)
        if err_norm <= 1.0:
            t += h
            y = ynew
            k0 = k[8]
            traj.taus.append(t)
            traj.states.append(y.copy())
            traj.accepted += 1
            traj.h_min = min(traj.h_min, abs(h))
            traj.h_max = max(traj.h_max, abs(h))
        else:
            traj.rejected += 1
        factor = 0.9 * err_norm ** (-1.0 / 6.0) if err_norm > 0 else 5.0
        h = direction * min(abs(h) * min(5.0, max(0.2, factor)), hmax)
        if abs(h) < min_step and (t1 - t) * direction > abs(h):
            raise IntegrationError(
                f"step size underflow at tau = {t}: the trajectory has "
                f"become numerically intractable (|y| up to {float(np.max(np.abs(y))):.3g})"
            )
        if traj.accepted + traj.rejected > max_steps:
            raise IntegrationError(
                f"step budget exhausted at tau = {t:.6g}: the trajectory has "
                f"become numerically intractable (|y| up to {float(np.max(np.abs(y))):.3g})"
            )
    return traj


def _reference_error_norm(err, y, ynew, tol):
    with np.errstate(invalid="ignore", over="ignore"):
        scale = tol + tol * np.maximum(np.abs(y), np.abs(ynew))
        return float(np.max(np.abs(err) / scale))


def _raising_on_call(kernel, n, exc):
    """``kernel`` that raises ``exc`` on its n-th call."""
    calls = [0]

    def patched(*args):
        calls[0] += 1
        if calls[0] == n:
            raise exc
        return kernel(*args)

    return patched


# components that stress the error norm: NaN, infinities, signed zeros and subnormals
_NORM_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_NORM_VECTORS = st.lists(_NORM_FLOATS, min_size=8, max_size=8)


class TestStep:
    """The generated Verner attempt against the numpy stage loop."""

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_bit_identical_to_numpy_reference(self, models, tag):
        m = models[tag]
        inst = standard_instance(m)
        span = (0.0, min(TRACTABLE_SPAN[tag], 2.0))
        for st0 in random_initial_states(m, 2, seed=2026, radius=0.3):
            got = integrate(inst, st0, span, 1e-10)
            ref = _reference_integrate(inst, st0, span, 1e-10)
            assert got.taus == ref.taus
            assert len(got.states) == len(ref.states)
            for a, b in zip(got.states, ref.states):
                assert isinstance(a, np.ndarray) and a.dtype == np.float64
                assert np.array_equal(a, b)
            assert (got.accepted, got.rejected, got.rhs_evals) == (ref.accepted, ref.rejected, ref.rhs_evals)
            assert (got.h_min, got.h_max) == (ref.h_min, ref.h_max)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        err=_NORM_VECTORS,
        y=_NORM_VECTORS,
        ynew=_NORM_VECTORS,
        tol=st.one_of(st.sampled_from([1e-10, 5e-324]), st.floats(min_value=5e-324, max_value=1e300)),
    )
    def test_error_norm_matches_numpy(self, err, y, ynew, tol):
        got = dynamics._verner_scope()["_error_norm"](err, y, ynew, tol)
        want = _reference_error_norm(np.array(err), np.array(y), np.array(ynew), tol)
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "exc, match",
        [(ZeroDivisionError("float division by zero"), "metric singular at u = "),
         (OverflowError("math range error"), "representable domain: math range error")],
    )
    def test_stage_error_messages(self, models, exc, match):
        # the 5th kernel call is stage 4 of the first attempt: its point is
        # not the start state
        m = models["IX"]
        inst = standard_instance(m)
        st0 = random_initial_states(m, 1, seed=2026, radius=0.3)[0]
        kernel = inst._kernel
        messages = []
        for run in (_reference_integrate, integrate):
            inst._kernel = _raising_on_call(kernel, 5, exc)
            with pytest.raises(IntegrationError, match=match) as info:
                run(inst, st0, (0.0, 2.0), 1e-10)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert str(list(st0.coordinates)) not in messages[1]

    @pytest.mark.parametrize(
        "max_steps, match",
        # the runaway flow leaves double range after about 300 steps
        [(3000, "non-finite metric determinant"), (100, r"step budget exhausted .*\|y\| up to")],
    )
    def test_runaway_messages(self, models, max_steps, match):
        inst = standard_instance(models["V"], bindings=RUNAWAY_GAMMA)
        st0 = random_initial_states(models["V"], 1, seed=7, radius=0.3)[0]
        messages = []
        for run in (_reference_integrate, integrate):
            with pytest.raises(IntegrationError, match=match) as info:
                run(inst, st0, (0.0, 10.0), 1e-10, max_steps=max_steps)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _reference_conserved_drift(traj, inst):
    """``conserved_drift`` as a loop over the states, one ``invariants`` call each."""
    names = ("H", "Y1", "Y2", "Y3")
    ref = None
    worst = dict.fromkeys(names, 0.0)
    for y in traj.states:
        vals = inst.invariants(y)
        if ref is None:
            ref = vals
            continue
        for name, v, v0 in zip(names, vals, ref):
            drift = abs(v - v0) / max(1.0, abs(v0))
            if drift > worst[name]:
                worst[name] = drift
    return worst


def _reference_trajectory_rows(traj, inst):
    """``trajectory_rows`` as a loop over the states, one ``invariants`` call each."""
    rows = []
    for t, y in zip(traj.taus, traj.states):
        rows.append((t, *y.tolist(), *inst.invariants(y)))
    return rows


class TestDriftAndRows:
    """``conserved_drift`` and ``trajectory_rows`` against the per-state loops
    they replaced."""

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_drift_and_rows_match_per_state_loops(self, models, tag):
        m = models[tag]
        inst = standard_instance(m)
        st0 = random_initial_states(m, 1, seed=2026, radius=0.3)[0]
        traj = integrate(inst, st0, (0.0, min(TRACTABLE_SPAN[tag], 2.0)), 1e-10)
        got, want = conserved_drift(traj, inst), _reference_conserved_drift(traj, inst)
        assert list(got) == list(want)
        assert all(type(v) is float for v in got.values())
        assert _bits(list(got.values())) == _bits(list(want.values()))
        got, want = trajectory_rows(traj, inst), _reference_trajectory_rows(traj, inst)
        assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
        assert _bits(got) == _bits(want)

    def test_drift_passes_over_nan_as_the_loop_does(self, models):
        # the second state's H and Y1 are NaN; the third state's drifts count
        inst = standard_instance(models["I"], bindings=ZERO_POTENTIAL)
        momenta = ((0.5, 0.1, 0.2, 0.3), (0.5, math.nan, 0.2, 0.3), (0.25, 0.15, 0.2, 0.4))
        states = [PhaseState((0, 0, 0, 0), p).as_vector() for p in momenta]
        traj = dynamics.Trajectory(taus=[0.0, 1.0, 2.0], states=states)
        got, want = conserved_drift(traj, inst), _reference_conserved_drift(traj, inst)
        assert _bits(list(got.values())) == _bits(list(want.values()))
        assert got["H"] > 0.0 and got["Y1"] > 0.0 and got["Y2"] == 0.0


# -- entries evaluated in place, each transcendental call once ---------------


def _unhoisted_compile(exprs, param_values=None, symbols=()):
    """``compile_numeric`` as it was before it bound each distinct exp, sin
    and cos call to a local: every call is evaluated where it appears."""
    param_values = dict(param_values or {})
    slot = {}
    for idx, s in enumerate(symbols):
        if isinstance(s, ex.FuncSymbol):
            key = ("f", s.name, s.order)
        elif isinstance(s, str):
            key = ("p", s)
        else:
            key = tuple(s)
        slot[key] = f"s{idx}"

    def factor_src(key, e):
        kind = key[0]
        if key in slot:
            s = slot[key]
            return None, (s if e == 1 else f"{s}**{e}")
        if kind == "u":
            s = f"u{key[1]}"
            return None, (s if e == 1 else f"{s}**{e}")
        if kind == "p":
            return param_values[key[1]] ** e, None
        if kind == "tc":
            _, fn, base, rr = key
            if base and ("p", base) in slot:
                s = f"{fn}({float(rr)!r}*{slot[('p', base)]})"
                return None, (s if e == 1 else f"{s}**{e}")
            ang = float(rr) * (param_values[base] if base else 1.0)
            return (math.sin(ang) if fn == "sin" else math.cos(ang)) ** e, None
        raise ex.UnsupportedExpressionError(f"cannot compile factor {key!r}")

    def cp_src(cp):
        parts = []
        for m in cp:
            v = float(m.coeff)
            srcs = []
            for key, e in m.pows:
                c, s = factor_src(key, e)
                if c is not None:
                    v *= c
                else:
                    srcs.append(s)
            parts.append("*".join([repr(v)] + srcs))
        return "+".join(parts) if parts else "0.0"

    def lf_src(lf):
        parts = [f"({cp_src(cp)})*u{i}" for i, cp in enumerate(lf) if cp]
        return "+".join(parts) if parts else "0.0"

    def mono_src(m):
        factors = []
        const = float(m.coeff)
        for key, e in m.pows:
            c, s = factor_src(key, e)
            if c is not None:
                const *= c
            else:
                factors.append(s)
        if not ex.lf_is_zero(m.expl):
            factors.append(f"exp({lf_src(m.expl)})")
        for fn, lf, e in m.trig:
            t = f"{fn}({lf_src(lf)})"
            factors.append(f"{t}**{e}" if e != 1 else t)
        src = repr(const)
        if factors:
            src += "*" + "*".join(factors)
        return src

    def sum_src(monos):
        if not monos:
            return "0.0"
        return "+".join(mono_src(m) for m in monos)

    body = []
    for idx, e in enumerate(exprs):
        if e.den == ex.SUM_ONE:
            body.append(f"    v{idx} = {sum_src(e.num)}")
        else:
            body.append(f"    v{idx} = ({sum_src(e.num)})/({sum_src(e.den)})")
    names = ", ".join(f"v{idx}" for idx in range(len(exprs)))
    args = ", ".join(["u0", "u1", "u2", "u3"] + [f"s{i}" for i in range(len(symbols))])
    src = f"def _compiled({args}):\n" + "\n".join(body) + f"\n    return [{names}]\n"
    scope = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
    exec(src, scope)
    return scope["_compiled"]


def _unhoisted_instance(inst):
    """A copy of ``inst`` whose flow and invariants kernels each unpack their
    entries from a separate ``_values`` function built by ``_unhoisted_compile``."""
    entries = inst._entries()
    kernels = []
    for flow in (True, False):
        names = dynamics._kernel_names(entries, flow)
        unpack = f"    {', '.join(names)}, = _values(u0, u1, u2, u3)"
        scope = {
            "_values": _unhoisted_compile([entries[n] for n in names], inst.params),
            "isfinite": math.isfinite,
            "IntegrationError": IntegrationError,
        }
        exec(dynamics._kernel_source(names, [unpack], flow), scope)
        kernels.append(scope["_flow" if flow else "_invariants"])
    ref = dataclasses.replace(inst)
    ref._kernel, ref._invariants_kernel = kernels
    return ref


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _kernel_states(tag, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        y = rng.uniform(-0.8, 0.8, size=8)
        if tag == "IX":
            y[1] += math.pi / 2  # away from the chart's pole u1 = 0
        yield y


class TestUnhoistedReference:
    """Entries evaluated in place, each distinct call once, against the kernel
    that evaluated every call where it appears in a separate function."""

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_kernel_bit_identical_to_unhoisted(self, models, tag):
        inst = standard_instance(models[tag])
        ref = _unhoisted_instance(inst)
        for y in _kernel_states(tag, 8, 2207):
            assert _bits(inst.rhs(y)) == _bits(ref.rhs(y))
            assert _bits(inst.invariants(y)) == _bits(ref.invariants(y))

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_trajectory_bit_identical_to_unhoisted(self, models, tag):
        m = models[tag]
        inst = standard_instance(m)
        ref = _unhoisted_instance(inst)
        st0 = random_initial_states(m, 1, seed=2207, radius=0.3)[0]
        got = integrate(inst, st0, (0.0, 0.5), 1e-10)
        want = integrate(ref, st0, (0.0, 0.5), 1e-10)
        assert got.taus == want.taus
        assert _bits(got.states) == _bits(want.states)
        assert (got.accepted, got.rejected) == (want.accepted, want.rejected)
        assert conserved_drift(got, inst) == conserved_drift(want, ref)

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_compile_numeric_bit_identical_to_unhoisted(self, models, tag, monkeypatch):
        # the second-order checker compiles the most expressions: g, A and
        # their first and second derivatives, over parameters and functions
        m = models[tag]
        compiled = []
        real = ex.compile_numeric

        def spy(exprs, param_values=None, symbols=()):
            compiled.append((list(exprs), param_values, tuple(symbols)))
            return real(exprs, param_values, symbols)

        monkeypatch.setattr(ex, "compile_numeric", spy)
        emfield.KgfChecker(m.metric, m.potential)
        ((exprs, params, symbols),) = compiled
        got, want = real(exprs, params, symbols), _unhoisted_compile(exprs, params, symbols)
        rng = np.random.default_rng(2207)
        for _ in range(8):
            args = rng.uniform(0.2, 1.2, size=4 + len(symbols)).tolist()
            assert _bits(got(*args)) == _bits(want(*args))

    @pytest.mark.parametrize(
        "tag, u3, cause, match",
        [
            ("V", 800.0, OverflowError, "math range error"),
            ("V", 200.0, type(None), "non-finite metric determinant"),
            ("IX", 0.0, ZeroDivisionError, "divides by zero"),  # u1 = 0, the chart's pole
        ],
    )
    def test_singular_state_errors_match_unhoisted(self, models, tag, u3, cause, match):
        inst = standard_instance(models[tag])
        ref = _unhoisted_instance(inst)
        y = np.array([0.0, 0.0, 0.0, u3, 0.1, 0.1, 0.1, 0.1])
        for evaluate in ("rhs", "invariants"):
            want = (cause, match)
            if (tag, evaluate) == ("IX", "rhs"):
                # the frame divides by zero at the pole, and only the
                # invariants kernel reads it; the flow kernel finds det g = 0
                want = (type(None), r"metric singular at u = .*: det g is 0")
            errors = []
            for each in (inst, ref):
                with pytest.raises(IntegrationError, match=want[1]) as info:
                    getattr(each, evaluate)(y)
                # the kernel error is raised from None; its context keeps the cause
                errors.append((type(info.value.__context__), str(info.value)))
            assert errors[0] == errors[1]
            assert errors[0][0] is want[0]

    @pytest.mark.parametrize("tag", catalog.TAGS)
    def test_kernel_lines_write_no_identity_factors(self, models, tag):
        # 1.0*x, -1.0*x and a+-b are written x, -x and a-b; the bit-identical
        # tests above show that the floats do not change
        inst = standard_instance(models[tag])
        entries = inst._entries()
        for flow in (True, False):
            names = dynamics._kernel_names(entries, flow)
            for line in ex.numeric_lines([entries[n] for n in names], names, inst.params):
                assert not re.search(r"(?<![\w.])1\.0\*|\((-)?1\.0\)\*|\+-", line), line

    @pytest.mark.parametrize(
        "tag, calls, unhoisted_calls",
        [("VII", (8, 7), (57, 24)), ("IX", (8, 11), (13, 18))],
        ids=["VII", "IX"],
    )
    def test_each_transcendental_runs_once(self, models, monkeypatch, tag, calls, unhoisted_calls):
        # the generated scopes bind math's functions when the code is
        # compiled; the flow and invariants kernels are counted apart
        counts = dict.fromkeys(("exp", "sin", "cos"), 0)
        for name in counts:

            def counted(x, _name=name, _fn=getattr(math, name)):
                counts[_name] += 1
                return _fn(x)

            monkeypatch.setattr(math, name, counted)
        inst = standard_instance(models[tag])
        ref = _unhoisted_instance(inst)
        y = next(_kernel_states(tag, 1, 2207))
        for each, want in ((inst, calls), (ref, unhoisted_calls)):
            got = []
            for kernel in (each.rhs, each.invariants):
                counts.update(dict.fromkeys(counts, 0))
                kernel(y)
                got.append(sum(counts.values()))
            assert tuple(got) == want
