"""The three benchmark workloads: their inputs, one pass each, and checks.

Every workload is a closed loop with one caller: a pass starts when the
previous one has returned.  A pass is one whole round of the workload's
operations, so every run attempts the same operations in the same
proportions.  ``run_pass`` is the only code the benchmark times;
``check_pass`` and ``check_once`` run outside the timed sections and test
the outputs against properties of the paper's result and against
computations made apart from the code under test, never against a stored
copy of earlier output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import time
from typing import Dict, List, Tuple

from symlab import catalog, cli, dynamics, emfield, geometry, solver
from symlab import expr as ex

REPORT_SCHEMA = "symlab-report/1"
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclasses.dataclass
class PassResult:
    attempted: int
    failed: int
    outputs: list  # what check_pass inspects; dropped after the check
    steps: Tuple[int, int] = (0, 0)  # integrator steps accepted, rejected


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """``symlab <argv>`` through ``cli.main``, with stdout captured.

    Returns the exit status and the standard output.  An exception from the
    program reaches the caller, which counts it as a failed operation.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def perturbed_ix():
    """Type IX with A2 + u1: a potential that is not admissible."""
    m = catalog.get_model("IX")
    pot = emfield.Potential.make(
        0, m.potential[1], m.potential[2] + ex.coord(1), m.potential[3]
    )
    return dataclasses.replace(m, potential=pot, field=emfield.field_from_potential(pot))


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

SAMPLES = 100
FD_STEP = 1e-5
FD_TOL = 1e-6
FD_POINTS = 4


def _killing_fd(metric, frame_field, point: ex.Assignment) -> Tuple[float, float]:
    """(max |(L_X g)_ij|, scale) by central differences of ``evaluate``.

    (L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k.  The generators
    have no u0 component and do not depend on u0, so only the differences
    along u1..u3 are needed.
    """

    def at(coords):
        a = ex.Assignment(coords, point.params, point.funcs)
        g = [[ex.evaluate(metric[i, j], a) for j in range(4)] for i in range(4)]
        x = [ex.evaluate(frame_field[k], a) for k in range(4)]
        return g, x

    base = list(point.coords)
    g0, x0 = at(base)
    dg = [[[0.0] * 4 for _ in range(4)] for _ in range(4)]  # dg[k][i][j]
    dx = [[0.0] * 4 for _ in range(4)]  # dx[i][k] = d_i X^k
    for k in (1, 2, 3):
        plus, minus = list(base), list(base)
        plus[k] += FD_STEP
        minus[k] -= FD_STEP
        gp, xp = at(plus)
        gm, xm = at(minus)
        for i in range(4):
            for j in range(4):
                dg[k][i][j] = (gp[i][j] - gm[i][j]) / (2 * FD_STEP)
            dx[k][i] = (xp[i] - xm[i]) / (2 * FD_STEP)
    worst, scale = 0.0, 1.0
    for i in range(4):
        for j in range(i, 4):
            terms = [x0[k] * dg[k][i][j] for k in range(4)]
            terms += [g0[k][j] * dx[i][k] for k in range(4)]
            terms += [g0[i][k] * dx[j][k] for k in range(4)]
            worst = max(worst, abs(math.fsum(terms)))
            scale = max(scale, sum(abs(t) for t in terms))
    return worst, scale


class VerifyAll:
    """``symlab verify --group all --samples 100 --format json``."""

    name = "verify-all"
    default_seed = 0
    ops_per_pass = len(catalog.TAGS)  # one verification report per model

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = [
            "verify", "--group", "all", "--samples", str(SAMPLES),
            "--seed", str(seed), "--format", "json",
        ]
        self._first_output = None

    def run_pass(self) -> PassResult:
        try:
            out = call_cli(self.argv)
        except Exception as err:  # the program failed: every report is missing
            return PassResult(self.ops_per_pass, self.ops_per_pass, [repr(err)])
        return PassResult(self.ops_per_pass, 0, [out])

    def serial_pass(self) -> Dict[str, float]:
        """Seconds of ``run_verification`` per model, one model at a time,
        with the seeds ``verify`` gives them."""
        times = {}
        for i, tag in enumerate(catalog.TAGS):
            model = catalog.get_model(tag)
            t0 = time.perf_counter()
            cli.run_verification(model, SAMPLES, self.seed + i)
            times[tag] = time.perf_counter() - t0
        return times

    def check_pass(self, result: PassResult) -> List[str]:
        if result.failed:
            return [f"verify raised {result.outputs[0]}"]
        code, text = result.outputs[0]
        problems = []
        if self._first_output is None:
            self._first_output = text
        elif text != self._first_output:
            problems.append("verify output differs between passes of one seed")
        if code != 0:
            problems.append(f"verify exit status {code}, expected 0")
        doc = json.loads(text)
        if doc.get("schema") != REPORT_SCHEMA or doc.get("passed") is not True:
            problems.append("verify document is not a passing symlab-report/1")
        reports = doc.get("reports", [])
        if [r.get("model") for r in reports] != list(catalog.TAGS):
            problems.append(f"expected the nine reports {catalog.TAGS}")
        for r in reports:
            tag = r.get("model")
            if r.get("schema") != REPORT_SCHEMA or r.get("samples") != SAMPLES:
                problems.append(f"{tag}: wrong schema or sample count")
            for c in r.get("checks", []):
                if c["verdict"] != "pass":
                    problems.append(f"{tag}: check {c['name']!r} is {c['verdict']}")
            second = [c for c in r.get("checks", []) if c["name"] == "second-order scalar conditions"]
            # the numeric check must have evaluated every point, not passed vacuously
            if len(second) != 1 or second[0].get("detail") != f"max over {SAMPLES} points x 3 generators":
                problems.append(f"{tag}: second-order check did not report {SAMPLES} points")
        return problems

    def check_once(self) -> List[str]:
        problems = []
        # negative control: the engine must reject a non-admissible potential
        pm = perturbed_ix()
        rejected = any(
            not ex.is_zero(r)
            for X in pm.frame
            for r in emfield.admissibility_residual(pm.potential, pm.field, X)
        )
        if not rejected:
            problems.append("IX with A2 + u1 passed admissibility")
        # Killing equations by finite differences, apart from `differentiate`
        rng = random.Random(self.seed)
        for tag in catalog.TAGS:
            m = catalog.get_model(tag)
            bumped = [list(row) for row in m.metric.entries]
            bumped[1][1] = bumped[1][1] + ex.coord(2)  # breaks invariance along d2
            bad = geometry.Metric(bumped, m.metric.sign)
            for _ in range(FD_POINTS):
                point = catalog.random_model_assignment(m, rng)
                control = 0.0
                for a, X in enumerate(m.frame):
                    worst, scale = _killing_fd(m.metric, X, point)
                    if worst > FD_TOL * scale:
                        problems.append(
                            f"{tag} generator {a + 1}: Killing residual {worst:.2e} "
                            f"by finite differences at {point.coords}"
                        )
                    control = max(control, _killing_fd(bad, X, point)[0])
                if control < 1e-3:
                    problems.append(f"{tag}: finite-difference Killing check missed g11 + u2")
        return problems


# ---------------------------------------------------------------------------
# solve-errata
# ---------------------------------------------------------------------------

# concrete functions of u0 for the free functions when the potential is
# checked by finite differences
_FD_FUNCS = ("sin(u0)", "cos(u0)", "sin(2*u0)")
_VII_ALPHA = math.pi / 3


class SolveErrata:
    """``solve --format json`` for I..VII and ``errata --format json`` for I..IX."""

    name = "solve-errata"
    default_seed = 0
    ops_per_pass = len(catalog.SOLVABLE) + len(catalog.TAGS)

    def __init__(self, seed: int):
        self.seed = seed
        commands = [("solve", tag) for tag in catalog.SOLVABLE]
        commands += [("errata", tag) for tag in catalog.TAGS]
        # the outputs do not depend on the order; the seed only shuffles it
        random.Random(seed).shuffle(commands)
        self.commands = commands
        self._families: Dict[str, dict] = {}

    def run_pass(self) -> PassResult:
        outputs, failed = [], 0
        for command, tag in self.commands:
            try:
                code, text = call_cli([command, "--group", tag, "--format", "json"])
            except Exception as err:
                failed += 1
                outputs.append((command, tag, None, repr(err)))
                continue
            failed += code != 0
            outputs.append((command, tag, code, text))
        return PassResult(self.ops_per_pass, failed, outputs)

    def check_pass(self, result: PassResult) -> List[str]:
        problems = []
        for command, tag, code, text in result.outputs:
            if code != 0:
                problems.append(f"{command} {tag}: exit status {code} ({text[:200]})")
                continue
            doc = json.loads(text)
            if doc.get("schema") != REPORT_SCHEMA or doc.get("model") != tag:
                problems.append(f"{command} {tag}: wrong schema or model")
            if command == "solve":
                problems += self._check_family(tag, doc)
            else:
                for note in doc.get("errata", []):
                    if note.get("reproduced") is not True:
                        problems.append(f"errata {tag}: {note.get('location')} not reproduced")
        return problems

    def _check_family(self, tag: str, doc: dict) -> List[str]:
        problems = []
        if len(doc.get("free_functions", [])) != 3 or doc.get("free_constants") != []:
            problems.append(
                f"solve {tag}: expected three free functions and no constants, got "
                f"{doc.get('free_functions')} and {doc.get('free_constants')}"
            )
        family = doc.get("family", {})
        if sorted(family) != [f"F{i}{j}" for i, j in PAIRS]:
            problems.append(f"solve {tag}: family lacks components")
        seen = self._families.setdefault(tag, family)
        if seen != family:
            problems.append(f"solve {tag}: family differs between passes")
        return problems

    def check_once(self) -> List[str]:
        """Re-derive each family through the solver's public functions and
        test it against the catalog and against its own potential."""
        problems = []
        rng = random.Random(self.seed)
        for tag in catalog.SOLVABLE:
            fam = solver.apply_algebraic_constraints(solver.solve_solvable(tag))
            printed = self._families.get(tag, {})
            if {f"F{i}{j}": str(fam.components[(i, j)]) for i, j in PAIRS} != printed:
                problems.append(f"solve {tag}: the printed family is not the solver's")
            # the family with the catalog witness is the hand-written catalog field
            model = catalog.get_model(tag)
            rebuilt = fam.substitute(funcs=solver.catalog_witness(fam))
            for pair in PAIRS:
                if not ex.is_zero(rebuilt[pair] - model.field[pair]):
                    problems.append(f"solve {tag}: witness misses catalog F{pair}")
            # dA = F for the reconstructed potential, by central differences
            funcs = {name: ex.parse(src) for name, src in zip(fam.free_functions, _FD_FUNCS)}
            potential = solver.reconstruct_potential(fam.as_field_tensor())
            a_num = [ex.substitute(potential[i], funcs=funcs) for i in range(4)]
            f_num = {p: ex.substitute(fam.components[p], funcs=funcs) for p in PAIRS}
            if any(ex.free_symbols(e)["funcs"] for e in a_num + list(f_num.values())):
                problems.append(f"solve {tag}: free functions left after binding")
                continue
            params = {"alpha": _VII_ALPHA}
            for _ in range(FD_POINTS):
                coords = [rng.uniform(-1.0, 1.0) for _ in range(4)]
                worst = _exterior_derivative_gap(a_num, f_num, coords, params)
                if worst > FD_TOL:
                    problems.append(
                        f"solve {tag}: dA - F = {worst:.2e} by finite differences at {coords}"
                    )
        return problems


def _exterior_derivative_gap(a_exprs, f_exprs, coords, params) -> float:
    """max over pairs of |d_i A_j - d_j A_i - F_ij| / (1 + |F_ij|)."""

    def value(e, c):
        return ex.evaluate(e, ex.Assignment(c, params))

    grad = [[0.0] * 4 for _ in range(4)]  # grad[i][j] = d_i A_j
    for i in range(4):
        plus, minus = list(coords), list(coords)
        plus[i] += FD_STEP
        minus[i] -= FD_STEP
        for j in range(4):
            grad[i][j] = (value(a_exprs[j], plus) - value(a_exprs[j], minus)) / (2 * FD_STEP)
    worst = 0.0
    for (i, j), f in f_exprs.items():
        fv = value(f, coords)
        worst = max(worst, abs(grad[i][j] - grad[j][i] - fv) / (1.0 + abs(fv)))
    return worst


# ---------------------------------------------------------------------------
# conserve
# ---------------------------------------------------------------------------

STATES = 5
RADIUS = 0.3
TOL = 1e-10
MAX_STEPS = 2500
DRIFT_LIMIT = 1e-8
POWER_LIMIT = 1e-3
CRITERION_SEED = 2026
SPAN = (0.0, 10.0)
# Type VIII's chart is local: criterion 7 checks it on its in-chart span.
SPANS = {"VIII": (0.0, 1.0)}


class Conserve:
    """Acceptance criterion 7's operating point through ``dynamics``.

    The states are criterion 7's: five per model from seed 2026.  States
    drawn from other seeds fail the drift limit on some seeds, because the
    VIII and IX charts are local (VIII: seed 19, state 1; IX: seed
    1869065923, state 1, which passes within 5e-5 of the pole u1 = 0 of the
    Euler-angle chart).  The benchmark seed only shuffles the order of the
    45 trajectories, which no output depends on.
    """

    name = "conserve"
    default_seed = CRITERION_SEED
    ops_per_pass = STATES * len(catalog.TAGS)  # one trajectory with its drift

    def __init__(self, seed: int):
        self.seed = seed
        models = {tag: catalog.get_model(tag) for tag in catalog.TAGS}
        cases = [
            (tag, idx, state)
            for tag, m in models.items()
            for idx, state in enumerate(
                dynamics.random_initial_states(m, STATES, seed=CRITERION_SEED, radius=RADIUS)
            )
        ]
        random.Random(seed).shuffle(cases)
        self.models = models
        self.cases = cases

    def run_pass(self) -> PassResult:
        outputs, failed, acc, rej = [], 0, 0, 0
        instances = {tag: dynamics.standard_instance(m) for tag, m in self.models.items()}
        for tag, idx, state in self.cases:
            inst = instances[tag]
            try:
                traj = dynamics.integrate(inst, state, SPANS.get(tag, SPAN), TOL, max_steps=MAX_STEPS)
            except dynamics.IntegrationError as err:
                failed += 1
                outputs.append((tag, idx, None, str(err)))
                continue
            acc += traj.accepted
            rej += traj.rejected
            drift = dynamics.conserved_drift(traj, inst)
            outputs.append((tag, idx, traj.taus[-1], drift))
        return PassResult(self.ops_per_pass, failed, outputs, (acc, rej))

    def check_pass(self, result: PassResult) -> List[str]:
        problems = []
        for tag, idx, end, drift in result.outputs:
            if end is None:
                problems.append(f"{tag} state {idx}: {drift}")
            elif abs(end - SPANS.get(tag, SPAN)[1]) > 1e-9:
                problems.append(f"{tag} state {idx}: stopped at tau = {end}")
            elif max(drift.values()) >= DRIFT_LIMIT:
                problems.append(f"{tag} state {idx}: drift {drift}")
        return problems

    def check_once(self) -> List[str]:
        # power: the monitor must see the integrals break without admissibility
        pm = perturbed_ix()
        inst = dynamics.standard_instance(pm)
        state = dynamics.random_initial_states(pm, 1, seed=CRITERION_SEED, radius=RADIUS)[0]
        traj = dynamics.integrate(inst, state, SPAN, TOL)
        drift = dynamics.conserved_drift(traj, inst)
        y_drift = max(drift["Y1"], drift["Y2"], drift["Y3"])
        if y_drift <= POWER_LIMIT:
            return [f"IX with A2 + u1: integral drift {y_drift:.2e} <= {POWER_LIMIT}"]
        return []


WORKLOADS = {w.name: w for w in (VerifyAll, SolveErrata, Conserve)}
