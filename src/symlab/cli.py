"""Command-line front end: verify, solve, simulate, export, errata.

Verification runs every residual check against a built-in or manifest model
and emits a deterministic report (text or versioned JSON, schema
``symlab-report/1``).  Exit status 0 means every check passed and 1 that a
check failed; errata are informational and do not affect the status.  An
input error exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from .expr import Expr, is_zero, parse
from . import geometry
from .geometry import (
    Coframe,
    Metric,
    VectorField,
    jacobi_residual,
    killing_residual,
    metric_from_coframe,
)
from .emfield import (
    KgfChecker,
    Potential,
    admissibility_residual,
    central_terms,
    compatibility_residual,
)
from . import catalog
from .catalog import BianchiModel, get_model, random_model_assignment

__all__ = [
    "Report",
    "CheckResult",
    "ManifestError",
    "run_verification",
    "load_manifest",
    "export_manifest",
    "emit_report",
    "main",
]

REPORT_SCHEMA = "symlab-report/1"
NUMERIC_TOL = 1e-9  # a symbolic residual evaluated at a point (the checks are exact)
KGF_TOL = 1e-8  # second-order scalar conditions and dynamics drift


class ManifestError(Exception):
    pass


# input errors: main prints each as one line and exits 2; any other
# exception is an engine defect and keeps its traceback
_USER_ERRORS = (ManifestError, ex.ParseError, OSError, ex.InputError, ex.IntegrationError)


@dataclass
class CheckResult:
    name: str
    mode: str  # "symbolic" | "numeric"
    residual: str  # "zero" or formatted max-abs
    verdict: str  # "pass" | "fail"
    detail: str = ""

    def as_dict(self):
        d = {
            "name": self.name,
            "mode": self.mode,
            "residual": self.residual,
            "verdict": self.verdict,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class Report:
    model: str
    params: Dict[str, str]
    checks: List[CheckResult] = field(default_factory=list)
    errata: List[Dict[str, str]] = field(default_factory=list)
    seed: int = 0
    samples: int = 0
    timing_seconds: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def as_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "model": self.model,
            "params": self.params,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [c.as_dict() for c in self.checks],
            "errata": self.errata,
            # no report carries solver text; the key keeps the document's shape
            "solver_output": None,
            "passed": self.passed,
            # kept null so identical inputs give byte-identical documents
            "timing_seconds": None,
        }


def _sym_check(name: str, residual_exprs, detail: str = "") -> CheckResult:
    bad = []
    for label, e in residual_exprs:
        if not is_zero(e):
            bad.append(f"{label}: {e}")
    if bad:
        return CheckResult(name, "symbolic", bad[0], "fail", detail)
    return CheckResult(name, "symbolic", "zero", "pass", detail)


def run_verification(model: BianchiModel, samples: int = 100, seed: int = 0) -> Report:
    """Run every residual check on a model; failures become report entries.

    What ``build_model`` derives is not checked again: the structure
    constants come from the frame (a frame that does not close is a load
    error), the field is F = dA and each integral's gamma is -xi . A.
    Killing, admissibility and "no central term" are the independent
    checks.  Admissibility tests L_xi A = 0 in the potential's own gauge
    (ROADMAP direction 11 gives the gauge-free form).  "No central term"
    tests the algebraic constraints [X_a, X_b] = C^g_ab X_g on F and C
    alone, so it does not depend on the gauge (``central_terms``).  Field
    invariance and the second-order scalar conditions follow from
    admissibility and stay as cross-checks on other code.
    """
    if samples < 1:
        # the sampled checks would pass with no point evaluated
        raise ex.InputError(f"samples must be at least 1, got {samples}")
    # the numeric check loads numpy; load it before the clock starts, so that
    # the first report's time does not carry the import
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = Report(
        model=model.type_tag,
        params={k: str(v) for k, v in model.params.items()},
        seed=seed,
        samples=samples,
    )
    checks = report.checks

    # the Jacobi identity, on the constants build_model derived from the frame
    jac = jacobi_residual(model.constants)
    entries = [
        (f"[{a + 1}{b + 1}{g + 1}]^{s + 1}", jac[a][b][g][s])
        for a in range(3)
        for b in range(3)
        for g in range(3)
        for s in range(3)
    ]
    checks.append(_sym_check("jacobi identity", entries, str(model.constants)))

    # Killing equations, symbolically
    for a, X in enumerate(model.frame):
        res = killing_residual(model.metric, X)
        entries = [(f"g[{i}{j}]", res[i][j]) for i in range(4) for j in range(i, 4)]
        checks.append(_sym_check(f"killing equations, generator {a + 1}", entries))

    # admissibility, the central term, invariance of F
    for a, X in enumerate(model.frame):
        res = admissibility_residual(model.potential, model.field, X)
        checks.append(
            _sym_check(
                f"admissibility, generator {a + 1}",
                [(f"R[{i}]", res[i]) for i in range(4)],
            )
        )
    central = central_terms(model.constants, model.frame, [model.field])
    checks.append(_sym_check("no central term", [("central terms", ex.number(central))]))
    for a, X in enumerate(model.frame):
        comp = compatibility_residual(model.field, X)
        checks.append(
            _sym_check(
                f"field invariance, generator {a + 1}",
                [(f"F[{i}{j}]", comp[i][j]) for i in range(4) for j in range(i + 1, 4)],
            )
        )

    # second-order scalar conditions, numerically; a point-generator pair
    # that is non-finite or cannot be evaluated fails the check
    checker = KgfChecker(model.metric, model.potential)
    worst, bad = 0.0, 0
    for _ in range(samples):
        point = random_model_assignment(model, rng, symbols=checker.required_symbols())
        for X in model.frame:
            try:
                r1, r2 = checker.residuals(X, point)
            except ex.EvaluationError:
                r1 = r2 = math.nan
            if math.isfinite(r1) and math.isfinite(r2):
                worst = max(worst, abs(r1), abs(r2))
            else:
                bad += 1
    detail = f"max over {samples} points x 3 generators"
    if bad:
        detail += f"; {bad} of {3 * samples} point-generator pairs non-finite or not evaluable"
    checks.append(
        CheckResult(
            "second-order scalar conditions",
            "numeric",
            "nan" if bad else f"{worst:.3e}",
            "pass" if worst < KGF_TOL and not bad else "fail",
            detail,
        )
    )

    report.errata.extend(note.as_dict() for note in model.errata)
    report.timing_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

_MANIFEST_HEADER = "# symlab manifest 1"


def export_manifest(model: BianchiModel) -> str:
    lines = [_MANIFEST_HEADER, "", "[model]", f"name = {model.type_tag}", "", "[params]"]
    for k, v in model.params.items():
        lines.append(f"{k} = {v}")
    lines += ["", "[frame]"]
    for a, f in enumerate(model.frame):
        comps = ", ".join(str(c) for c in f)
        lines.append(f"xi{a + 1} = {comps}")
    lines += ["", "[coframe]"]
    for a, form in enumerate(model.coframe.forms):
        comps = ", ".join(str(c) for c in form)
        lines.append(f"s{a + 1} = {comps}")
    lines += ["", "[potential]"]
    for i in range(4):
        lines.append(f"A{i} = {model.potential[i]}")
    return "\n".join(lines) + "\n"


def _read_sections(path: str) -> Dict[str, Dict[str, Tuple[str, int]]]:
    """Section name -> {key: (value, line number)}; a repeated key keeps its
    last value."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ManifestError(f"{path}: not UTF-8 text (byte {err.start})") from None
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ManifestError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        sections[current][key.strip()] = (value.strip(), lineno)
    return sections


def _components(sections, section: str, key: str, count: int, parameters) -> List[Expr]:
    """Entry ``key`` of ``[section]`` as ``count`` comma-separated
    expressions; an error in the entry names its line."""
    if key not in sections[section]:
        raise ManifestError(f"[{section}] has no entry {key}")
    value, lineno = sections[section][key]
    comps = value.split(",")
    if len(comps) != count:
        raise ManifestError(f"line {lineno}: {key} has {len(comps)} components, expected {count}")
    try:
        return [parse(c, parameters=parameters) for c in comps]
    except ex.ParseError as err:
        raise ManifestError(f"line {lineno}: {err}") from None


def load_manifest(path: str) -> Tuple[BianchiModel, Dict[str, Expr]]:
    """Build a model from a manifest file.

    Returns the model together with any [bindings] section entries (used by
    the simulate command).  Structure constants are always derived from the
    declared frame; a frame that does not close is a load error.  A manifest
    that gives the metric entrywise in [metric] carries no coframe.
    """
    sections = _read_sections(path)
    for required in ("model", "frame", "potential"):
        if required not in sections:
            raise ManifestError(f"missing required section [{required}]")
    name = sections["model"].get("name", ("custom", 0))[0]
    params_raw = {k: v for k, (v, _ln) in sections.get("params", {}).items()}
    parameters = set(ex.DEFAULT_PARAMETERS) | set(params_raw)

    fields = (_components(sections, "frame", f"xi{a}", 4, parameters) for a in (1, 2, 3))
    frame = tuple(VectorField(tuple(f)) for f in fields)
    if "coframe" in sections:
        forms = (_components(sections, "coframe", f"s{a}", 3, parameters) for a in (1, 2, 3))
        coframe = Coframe(tuple(tuple(f) for f in forms))
        metric = metric_from_coframe(coframe)
    elif "metric" in sections:
        g = [[ex.number(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                if f"g{i}{j}" in sections["metric"]:
                    (g[i][j],) = _components(sections, "metric", f"g{i}{j}", 1, parameters)
                    g[j][i] = g[i][j]
        metric = Metric(g, g[0][0])
        coframe = None
    else:
        raise ManifestError("need a [coframe] or [metric] section")
    comps = [_components(sections, "potential", f"A{i}", 1, parameters)[0] for i in range(4)]
    potential = Potential(tuple(comps))
    params: Dict[str, object] = {}
    for k, v in params_raw.items():
        try:
            params[k] = Fraction(v)
        except (ValueError, ZeroDivisionError):
            params[k] = v
    try:
        model = catalog.build_model(name, params, frame, coframe, metric, potential)
    except geometry.GeometryError as err:
        raise ManifestError(f"frame does not define an algebra: {err}") from None
    bindings = sections.get("bindings", {})
    return model, {k: _components(sections, "bindings", k, 1, parameters)[0] for k in bindings}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2) + "\n"
    lines = [f"model {report.model}  (seed={report.seed}, samples={report.samples})"]
    if report.params:
        lines.append("  params: " + ", ".join(f"{k}={v}" for k, v in report.params.items()))
    for c in report.checks:
        status = "PASS" if c.verdict == "pass" else "FAIL"
        lines.append(f"  [{status}] {c.name} ({c.mode}): {c.residual}")
        if c.detail and c.verdict != "pass":
            lines.append(f"         {c.detail}")
    if report.errata:
        lines.append("  errata:")
        for note in report.errata:
            lines.append(f"    - {note['location']}")
            lines.append(f"      printed:    {note['printed_form']}")
            lines.append(f"      consistent: {note['consistent_form']}")
            lines.append(f"      evidence:   {note['evidence']}")
    if report.timing_seconds is not None:
        lines.append(f"  time: {report.timing_seconds:.2f} s")
    lines.append("  result: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _emit_many(reports: Sequence[Report], fmt: str) -> str:
    if fmt == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "reports": [r.as_dict() for r in reports],
            "passed": all(r.passed for r in reports),
        }
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(emit_report(r, "text") for r in reports)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise ex.InputError(f"--samples must be at least 1, got {args.samples}")
    if args.manifest:
        model, _bindings = load_manifest(args.manifest)
        models = [model]
    elif args.group.lower() == "all":
        models = [get_model(tag) for tag in catalog.TAGS]
    else:
        models = [get_model(args.group)]
    reports = [run_verification(m, args.samples, args.seed + i) for i, m in enumerate(models)]
    sys.stdout.write(_emit_many(reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_solve(args) -> int:
    # only solve needs the solver; verify and export never load it
    from .solver import PAIRS, apply_algebraic_constraints, solve_solvable

    fam = solve_solvable(args.group, q=args.q)
    reduced = apply_algebraic_constraints(fam)
    if args.format == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "model": reduced.type_tag,
            "family": {f"F{i}{j}": str(reduced.components[(i, j)]) for (i, j) in PAIRS},
            "free_functions": list(reduced.free_functions),
            "free_constants": list(reduced.free_constants),
            "pre_constraint_constants": list(fam.free_constants),
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(str(reduced) + "\n")
        if fam.free_constants:
            sys.stdout.write(
                "constants eliminated by the algebraic constraints: "
                + ", ".join(fam.free_constants)
                + "\n"
            )
    return 0


def load_bindings(path: str) -> Dict[str, Expr]:
    """Read a [bindings] section from a manifest or a bindings-only file."""
    sections = _read_sections(path)
    if "bindings" not in sections:
        raise ManifestError(f"{path}: no [bindings] section")
    params = ex.DEFAULT_PARAMETERS
    return {k: _components(sections, "bindings", k, 1, params)[0] for k in sections["bindings"]}


def _cmd_simulate(args) -> int:
    # dynamics loads numpy, which no other command needs
    from .dynamics import (
        conserved_drift,
        integrate,
        random_initial_states,
        standard_instance,
        trajectory_rows,
    )

    bindings = {}
    if args.bindings:
        bindings = load_bindings(args.bindings)
    model = get_model(args.group)
    inst = standard_instance(model, bindings=bindings or None)
    states = random_initial_states(model, 1, seed=args.seed)
    traj = integrate(inst, states[0], (0.0, args.tau), args.tol, args.max_steps)
    rows = trajectory_rows(traj, inst)
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        out.write("# tau u0 u1 u2 u3 p0 p1 p2 p3 H Y1 Y2 Y3\n")
        for row in rows:
            out.write(" ".join(repr(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    drifts = conserved_drift(traj, inst)
    sys.stderr.write(
        "drift: " + ", ".join(f"{k}={v:.3e}" for k, v in drifts.items()) + "\n"
    )
    sys.stderr.write(
        f"steps: accepted={traj.accepted}, rejected={traj.rejected}, "
        f"rhs_evals={traj.rhs_evals}, h_min={traj.h_min:.3e}, h_max={traj.h_max:.3e}\n"
    )
    return 0


def _cmd_export(args) -> int:
    model = get_model(args.group)
    text = export_manifest(model)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_errata(args) -> int:
    notes = catalog.printed_vs_consistent(args.group)
    if args.format == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "model": args.group.upper(),
            "errata": [dict(n.as_dict(), reproduced=n.reproduce()) for n in notes],
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        if not notes:
            sys.stdout.write(f"type {args.group.upper()}: no divergences recorded\n")
        for n in notes:
            ok = "reproduced" if n.reproduce() else "NOT reproduced"
            sys.stdout.write(f"{n.location} [{ok}]\n")
            sys.stdout.write(f"  printed:    {n.printed_form}\n")
            sys.stdout.write(f"  consistent: {n.consistent_form}\n")
            sys.stdout.write(f"  evidence:   {n.evidence}\n")
    return 0


def _fraction(text: str) -> Fraction:
    """``Fraction`` as an argparse type: '1/0' raises ZeroDivisionError, which
    argparse would not report as a usage error, so it gets the message that
    argparse gives a ValueError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="symlab",
        description="verify, solve and simulate the built-in homogeneous models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the residual checks")
    p.add_argument("--group", default="all", help="I..IX or 'all'")
    p.add_argument("--manifest", help="verify a manifest file instead of a built-in")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="closed-form field family of a type")
    p.add_argument("--group", required=True, help="I..IX")
    p.add_argument("--q", type=_fraction, default=None, help="free constant of type VI")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="integrate a charged test particle")
    p.add_argument("--group", required=True)
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-steps", type=int, default=20_000,
        help="step budget (accepted plus rejected); exceeding it exits 2",
    )
    p.add_argument("--bindings", help="manifest whose [bindings] section overrides the standard ones")
    p.add_argument("--out", help="write the trajectory table to this file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export", help="write a built-in model as a manifest")
    p.add_argument("--group", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("errata", help="printed-versus-consistent divergences")
    p.add_argument("--group", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_errata)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ModuleNotFoundError as err:
        # only verify and simulate load numpy; any other missing module is
        # a broken install and keeps its traceback
        if err.name != "numpy":
            raise
        sys.stderr.write(f"error: {args.command} needs numpy, which cannot be imported\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
