"""What the traced run wraps in symlab, and how its spans become metrics.

Each traced function is named ``<module>.<function>`` after the module that
defines it; a method is named ``<module>.<Class>.<method>``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from symlab import _symint, catalog, cli, dynamics, emfield, expr, geometry, solver

from spans import Span, Tracer, self_times

MODULES = (expr, _symint, geometry, emfield, catalog, solver, dynamics, cli)

FUNCTIONS = {
    "expr.is_zero": expr.is_zero,
    "expr.differentiate": expr.differentiate,
    "expr.substitute": expr.substitute,
    "expr.compile_numeric": expr.compile_numeric,
    "_symint.definite_integral": _symint.definite_integral,
    "_symint.fundamental_matrix": _symint.fundamental_matrix,
    "geometry.structure_constants_from_frame": geometry.structure_constants_from_frame,
    "geometry.jacobi_residual": geometry.jacobi_residual,
    "geometry.killing_residual": geometry.killing_residual,
    "emfield.field_from_potential": emfield.field_from_potential,
    "emfield.bianchi_residual": emfield.bianchi_residual,
    "emfield.admissibility_residual": emfield.admissibility_residual,
    "emfield.compatibility_residual": emfield.compatibility_residual,
    "emfield.algebraic_constraint_residual": emfield.algebraic_constraint_residual,
    "catalog.get_model": catalog.get_model,
    "solver.solve_solvable": solver.solve_solvable,
    "solver.apply_algebraic_constraints": solver.apply_algebraic_constraints,
    "solver.reconstruct_potential": solver.reconstruct_potential,
    "dynamics.standard_instance": dynamics.standard_instance,
    "dynamics.integrate": dynamics.integrate,
    "dynamics.conserved_drift": dynamics.conserved_drift,
    "cli.main": cli.main,
    "cli.run_verification": cli.run_verification,
}

METHODS = {
    "emfield.KgfChecker.__init__": (emfield.KgfChecker, "__init__"),
    "emfield.KgfChecker.residuals": (emfield.KgfChecker, "residuals"),
    "catalog.ErrataNote.reproduce": (catalog.ErrataNote, "reproduce"),
    "dynamics.ModelInstance.rhs": (dynamics.ModelInstance, "rhs"),
}

SYMBOLIC_RESIDUALS = (
    "emfield.field_from_potential",
    "emfield.bianchi_residual",
    "emfield.admissibility_residual",
    "emfield.compatibility_residual",
    "emfield.algebraic_constraint_residual",
)

# (name, unit, better); the names start with a letter, so the _symint
# module's figures are named symint.*
PER_LAYER: List[Tuple[str, str, str]] = [
    ("catalog.get_model_s", "s", "lower"),
    ("catalog.errata_reproduce_s", "s", "lower"),
    ("expr.is_zero_calls", "count", "lower"),
    ("expr.is_zero_s", "s", "lower"),
    ("expr.differentiate_calls", "count", "lower"),
    ("expr.differentiate_s", "s", "lower"),
    ("expr.substitute_s", "s", "lower"),
    ("expr.compile_numeric_calls", "count", "lower"),
    ("expr.compile_numeric_s", "s", "lower"),
    ("geometry.structure_constants_s", "s", "lower"),
    ("geometry.jacobi_residual_s", "s", "lower"),
    ("geometry.killing_residual_s", "s", "lower"),
    ("emfield.symbolic_residuals_s", "s", "lower"),
    ("emfield.kgf_init_s", "s", "lower"),
    ("emfield.kgf_residual_calls", "count", "lower"),
    ("emfield.kgf_residual_us", "us", "lower"),
    ("solver.solve_solvable_s", "s", "lower"),
    ("solver.apply_constraints_s", "s", "lower"),
    ("solver.reconstruct_potential_s", "s", "lower"),
    ("symint.definite_integral_calls", "count", "lower"),
    ("symint.definite_integral_s", "s", "lower"),
    ("symint.fundamental_matrix_s", "s", "lower"),
    ("dynamics.instance_build_s", "s", "lower"),
    ("dynamics.rhs_calls", "count", "lower"),
    ("dynamics.rhs_us", "us", "lower"),
    ("dynamics.steps_accepted", "count", "lower"),
    ("dynamics.steps_rejected", "count", "lower"),
    ("dynamics.steps_per_s", "1/s", "higher"),
    ("dynamics.drift_s", "s", "lower"),
    *[(f"cli.run_verification.{tag}_s", "s", "lower") for tag in catalog.TAGS],
    ("cli.verify_serial_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def install(tracer: Tracer) -> None:
    for name, fn in FUNCTIONS.items():
        tracer.trace_function(fn, name)
    for name, (cls, attr) in METHODS.items():
        tracer.trace_method(cls, attr, name)


def per_layer(
    setup_spans: Sequence[Span],
    pass_spans: Sequence[Span],
    passes: int,
    steps: Tuple[int, int],
    serial: Mapping[str, float],
    overhead_pct: float,
) -> Dict[str, float]:
    """Per-layer figures for one cold invocation of the workload.

    Times and calls are self times and call counts of the traced build of
    the nine models plus the mean over the traced passes.  ``steps`` is
    (accepted, rejected) integrator steps of one pass, ``serial`` the
    untraced time of ``run_verification`` per model tag.
    """
    setup, work = self_times(setup_spans), self_times(pass_spans)

    def calls(name: str) -> float:
        return setup.get(name, (0, 0.0))[0] + work.get(name, (0, 0.0))[0] / passes

    def secs(*names: str) -> float:
        return sum(setup.get(n, (0, 0.0))[1] + work.get(n, (0, 0.0))[1] / passes for n in names)

    def per_call_us(name: str) -> float:
        n = calls(name)
        return secs(name) * 1e6 / n if n else 0.0

    integrate_s = sum(s.cpu_end - s.cpu_start for s in pass_spans if s.name == "dynamics.integrate")
    integrate_s /= passes
    out = {
        "catalog.get_model_s": secs("catalog.get_model"),
        "catalog.errata_reproduce_s": secs("catalog.ErrataNote.reproduce"),
        "expr.is_zero_calls": calls("expr.is_zero"),
        "expr.is_zero_s": secs("expr.is_zero"),
        "expr.differentiate_calls": calls("expr.differentiate"),
        "expr.differentiate_s": secs("expr.differentiate"),
        "expr.substitute_s": secs("expr.substitute"),
        "expr.compile_numeric_calls": calls("expr.compile_numeric"),
        "expr.compile_numeric_s": secs("expr.compile_numeric"),
        "geometry.structure_constants_s": secs("geometry.structure_constants_from_frame"),
        "geometry.jacobi_residual_s": secs("geometry.jacobi_residual"),
        "geometry.killing_residual_s": secs("geometry.killing_residual"),
        "emfield.symbolic_residuals_s": secs(*SYMBOLIC_RESIDUALS),
        "emfield.kgf_init_s": secs("emfield.KgfChecker.__init__"),
        "emfield.kgf_residual_calls": calls("emfield.KgfChecker.residuals"),
        "emfield.kgf_residual_us": per_call_us("emfield.KgfChecker.residuals"),
        "solver.solve_solvable_s": secs("solver.solve_solvable"),
        "solver.apply_constraints_s": secs("solver.apply_algebraic_constraints"),
        "solver.reconstruct_potential_s": secs("solver.reconstruct_potential"),
        "symint.definite_integral_calls": calls("_symint.definite_integral"),
        "symint.definite_integral_s": secs("_symint.definite_integral"),
        "symint.fundamental_matrix_s": secs("_symint.fundamental_matrix"),
        "dynamics.instance_build_s": secs("dynamics.standard_instance"),
        "dynamics.rhs_calls": calls("dynamics.ModelInstance.rhs"),
        "dynamics.rhs_us": per_call_us("dynamics.ModelInstance.rhs"),
        "dynamics.steps_accepted": steps[0],
        "dynamics.steps_rejected": steps[1],
        "dynamics.steps_per_s": (steps[0] + steps[1]) / integrate_s if integrate_s else 0.0,
        "dynamics.drift_s": secs("dynamics.conserved_drift"),
    }
    for tag in catalog.TAGS:
        out[f"cli.run_verification.{tag}_s"] = serial.get(tag, 0.0)
    out["cli.verify_serial_s"] = sum(serial.values(), 0.0)
    out["trace.overhead_pct"] = overhead_pct
    return out
