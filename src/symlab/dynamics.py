"""Charged test-particle trajectories and conservation checks.

The canonical equations of H = g^ij P_i P_j, P = p + A, are integrated with
an embedded Verner 6(5) pair.  Metric and potential derivatives are exact:
after concrete bindings are substituted for the abstract functions of u0,
each instance generates two straight-line kernels that compute the
symbolically nonzero entries they read in place (``expr.numeric_lines``,
which evaluates each distinct exp, sin and cos once per call): the flow
kernel reads g, A, dg and dA, and the invariants kernel reads g, A and the
frame xi.  Each kernel inverts g by cofactors with every zero entry folded
away at generation time; the flow uses the closed form
d(g^-1) = -g^-1 dg g^-1, so dp_k = v.(d_k g).v - 2 v.(d_k A) with
v = g^-1 P.  The monitored quantities are the Hamiltonian and the three
generator contractions xi_a^i p_i.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .expr import Expr, InputError, IntegrationError, differentiate, free_symbols, parse, substitute
from .catalog import BianchiModel

__all__ = [
    "ModelInstance",
    "PhaseState",
    "Trajectory",
    "IntegrationError",
    "standard_bindings",
    "standard_instance",
    "hamiltonian_at",
    "integrate",
    "conserved_drift",
    "trajectory_rows",
    "random_initial_states",
]


def standard_bindings() -> Dict[str, Expr]:
    """The deterministic bindings used by the conservation suite.

    The admissible fields leave alpha0, beta0 and gamma0 free, so any
    choice tests conservation; these are bounded.  An unbounded gamma0 = u0
    makes A_3 a uniform field whose exact flow grows like exp(2 tau) and
    leaves double range before tau = 10.
    """
    return dict(_standard_binding_items())


@functools.lru_cache(maxsize=1)
def _standard_binding_items() -> Tuple[Tuple[str, Expr], ...]:
    # parsed once: every standard_instance starts from these
    b = {
        "alpha0": parse("sin(u0)"),
        "beta0": parse("cos(u0)"),
        "gamma0": parse("sin(2*u0)"),
    }
    for s in range(1, 4):
        for t in range(s, 4):
            b[f"a{s}{t}"] = ex.number(-1 if s == t else 0)
    return tuple(b.items())


# -- the kernels -------------------------------------------------------------
#
# The bound g, A and frame are sparse (g has 4-10 nonzero entries of 16), so
# each instance generates its kernels as straight-line source in which every
# symbolically zero entry is folded away.  Entry names in that source:
# g01 = g_01 (upper triangle only, g is symmetric), a1 = A_1,
# dg2_01 = d_2 g_01, da2_1 = d_2 A_1, xi0_3 = component 3 of the first
# generator.


def _kernel_names(names: Iterable[str], flow: bool) -> List[str]:
    """The entries among ``names`` that the flow kernel (g, A, dg, dA) or the
    invariants kernel (g, A, xi) reads, in the order given."""
    prefixes = ("g", "a", "dg", "da") if flow else ("g", "a", "xi")
    return [name for name in names if name.startswith(prefixes)]


def _product(*factors: Optional[str]) -> Optional[str]:
    """Source of a product, or None when a factor is zero."""
    if None in factors:
        return None
    return "*".join(factors)


def _signed_sum(terms) -> Optional[str]:
    """Source of a sum of (sign, source or None) terms, or None when all are zero."""
    out = ""
    for sign, src in terms:
        if src is not None:
            out += ("-" if sign < 0 else "+" if out else "") + src
    return out or None


# the permutations of three with their signs, for 3x3 minors
_PERMUTATIONS = tuple(
    (perm, -1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 else 1)
    for perm in itertools.permutations(range(3))
)


def _kernel_source(names: Sequence[str], entry_lines: Sequence[str], flow: bool) -> str:
    """Source of ``_flow`` or ``_invariants`` over the nonzero entries ``names``.

    The kernel ``(u0..u3, p0..p3)`` first runs ``entry_lines``, which
    assign every entry in ``names`` from u0..u3 (see ``expr.numeric_lines``).
    It starts from v = g^-1 P with P = p + A,
    where g^-1 is the adjugate (cofactors) over the determinant.  ``_flow``
    returns the canonical flow du = 2v, dp_k = v.(d_k g).v - 2 v.(d_k A);
    ``_invariants`` returns H = P.v and Y_b = xi_b.p.  ``names`` holds the
    entries that kernel reads (see ``_kernel_names``).  The kernel expects
    ``isfinite``, ``IntegrationError`` and the functions the entry lines
    call in its globals.
    """
    present = set(names)

    def entry(name: str) -> Optional[str]:
        return name if name in present else None

    g = [[entry(f"g{min(i, j)}{max(i, j)}") for j in range(4)] for i in range(4)]
    lines = [f"def {'_flow' if flow else '_invariants'}(u0, u1, u2, u3, p0, p1, p2, p3):", *entry_lines]

    def assign(name: str, src: Optional[str]) -> Optional[str]:
        if src is not None:
            lines.append(f"    {name} = {src}")
            return name
        return None

    # a non-finite entry makes the sum non-finite; so does a sum that
    # overflows, which needs entries near the double limit
    metric = [n for n in names if n.startswith(("g", "dg"))]
    lines += [
        f"    if not isfinite({'+'.join(metric) or '0.0'}):",
        "        raise IntegrationError('state left the representable domain: non-finite metric')",
    ]
    # adj_ij = (-1)^(i+j) times the minor of g without row j and column i
    adj = {}
    for i in range(4):
        for j in range(i, 4):
            rows = [g[r] for r in range(4) if r != j]
            cols = [c for c in range(4) if c != i]
            terms = (
                (sign * (-1) ** (i + j), _product(*(row[cols[c]] for row, c in zip(rows, perm))))
                for perm, sign in _PERMUTATIONS
            )
            adj[i, j] = adj[j, i] = assign(f"b{i}{j}", _signed_sum(terms))
    det = _signed_sum((1, _product(g[0][j], adj[j, 0])) for j in range(4))
    lines += [
        f"    det = {det or '0.0'}",
        "    if det == 0.0:",
        "        raise IntegrationError(f'metric singular at u = {[u0, u1, u2, u3]}: det g is 0,"
        " or underflowed to 0 while the entries of g are still in double range')",
        "    if not isfinite(det):",
        "        raise IntegrationError('state left the representable domain: non-finite metric determinant"
        " (det g overflows while the entries of g are still in double range)')",
    ]
    P = [assign(f"P{i}", f"p{i}+a{i}") if entry(f"a{i}") else f"p{i}" for i in range(4)]
    v = []
    for i in range(4):
        src = _signed_sum((1, _product(adj[i, j], P[j])) for j in range(4))
        v.append(assign(f"v{i}", src and f"({src})/det"))
    if not flow:
        h = _signed_sum((1, _product(P[i], v[i])) for i in range(4))
        ys = [_signed_sum((1, _product(entry(f"xi{b}_{i}"), f"p{i}")) for i in range(4)) for b in range(3)]
        lines.append(f"    return [{', '.join(src or '0.0' for src in [h] + ys)}]")
        return "\n".join(lines) + "\n"
    w = [assign(f"w{i}", _product("2.0", v[i])) for i in range(4)]  # w = 2v = du
    dp = []
    for k in range(4):
        terms = []
        for i in range(4):
            terms.append((1, _product(entry(f"dg{k}_{i}{i}"), v[i], v[i])))
            terms += [(1, _product(entry(f"dg{k}_{i}{j}"), w[i], v[j])) for j in range(i + 1, 4)]
            terms.append((-1, _product(entry(f"da{k}_{i}"), w[i])))
        dp.append(_signed_sum(terms))
    lines.append(f"    return [{', '.join(src or '0.0' for src in w + dp)}]")
    return "\n".join(lines) + "\n"


# the exceptions a kernel evaluation turns into IntegrationError
_KERNEL_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


def _kernel_error(err: Exception, u: List[float]) -> IntegrationError:
    """The IntegrationError for ``err``, raised by a kernel evaluated at coordinates u."""
    if isinstance(err, ZeroDivisionError):
        # an entry may divide by zero where the chart degenerates: the
        # invariants kernel's frame does at the rotation chart's pole u1 = 0,
        # where the flow kernel, which reads no frame, finds det g = 0
        return IntegrationError(f"metric singular at u = {u}: a metric or frame entry divides by zero")
    return IntegrationError(f"state left the representable domain: {err}")


def _evaluate(kernel, args: List[float]) -> list:
    """``kernel(*args)`` on the 8 floats of a state, a kernel error raised as
    IntegrationError."""
    try:
        return kernel(*args)
    except _KERNEL_ERRORS as err:
        raise _kernel_error(err, args[:4]) from None


@dataclass
class ModelInstance:
    """A model with concrete function bindings and parameter values.

    ``bindings`` maps abstract-function names to expressions in u0 (their
    derivatives are taken symbolically); ``params`` binds the signature e
    and, for the angle-carrying type, the angle itself.
    """

    model: BianchiModel
    bindings: Dict[str, Expr]
    params: Dict[str, float]

    def __post_init__(self):
        # the kernel differentiates the bound functions in u0 alone
        for name, e in self.bindings.items():
            if free_symbols(e)["coords"] - {0}:
                raise InputError(f"binding {name} = {e} is not a function of u0 alone")
        entries = self._entries()
        needed = set()
        for e in entries.values():
            sym = free_symbols(e)
            if sym["funcs"]:
                missing = sorted(str(f) for f in sym["funcs"])
                raise IntegrationError(f"unbound function symbols: {missing}")
            needed |= sym["params"]
        missing = needed - set(self.params)
        if missing:
            raise IntegrationError(f"unbound parameters: {sorted(missing)}")
        source = ""
        for flow in (True, False):
            names = _kernel_names(entries, flow)
            lines = ex.numeric_lines([entries[n] for n in names], names, self.params)
            source += _kernel_source(names, lines, flow)
        scope = {
            "exp": math.exp,
            "sin": math.sin,
            "cos": math.cos,
            "isfinite": math.isfinite,
            "IntegrationError": IntegrationError,
        }
        code = compile(source, f"<kernel {self.model.type_tag}>", "exec")
        exec(code, scope)  # noqa: S102 - generated from the bound entries
        self._kernel, self._invariants_kernel = scope["_flow"], scope["_invariants"]

    def _entries(self) -> Dict[str, Expr]:
        """The bound, symbolically nonzero kernel entries by name, in kernel order."""
        metric = self.model.metric
        fields = {f"g{i}{j}": self._bind(metric[i, j]) for i in range(4) for j in range(i, 4)}
        fields.update((f"a{i}", self._bind(e)) for i, e in enumerate(self.model.potential))
        entries = dict(fields)
        for name, e in fields.items():
            if e:
                entries.update((f"d{name[0]}{k}_{name[1:]}", differentiate(e, k)) for k in range(4))
        for b, f in enumerate(self.model.frame):
            entries.update((f"xi{b}_{i}", self._bind(c)) for i, c in enumerate(f))
        return {name: e for name, e in entries.items() if e}

    def _bind(self, e: Expr) -> Expr:
        return substitute(e, funcs=self.bindings)

    def rhs(self, y) -> np.ndarray:
        """The canonical flow (du, dp) at the phase-space point y = (u, p)."""
        return np.array(_evaluate(self._kernel, np.asarray(y, dtype=float).tolist()))

    def invariants(self, y) -> List[float]:
        """[H, Y1, Y2, Y3] at y, from one invariants-kernel evaluation."""
        return _evaluate(self._invariants_kernel, np.asarray(y, dtype=float).tolist())

    def hamiltonian(self, y) -> float:
        return self.invariants(y)[0]

    def integrals(self, y) -> np.ndarray:
        return np.array(self.invariants(y)[1:])


def standard_instance(model: BianchiModel,
                      bindings: Optional[Mapping[str, Expr]] = None) -> ModelInstance:
    """Instance with the deterministic standard bindings (overridable), e = 1
    and, for type VII, alpha = pi/3.  A binding that names none of the
    model's functions raises InputError."""
    b = standard_bindings()
    if bindings:
        metric = (model.metric[i, j] for i in range(4) for j in range(i, 4))
        known = {f.name for f in ex._params_and_funcs(itertools.chain(metric, model.potential))[1]}
        unknown = sorted(set(bindings) - known)
        if unknown:
            raise InputError(
                f"binding {unknown[0]} names no function of the type {model.type_tag} model"
                f" (its functions: {', '.join(sorted(known))})"
            )
        b.update(bindings)
    pr = {"e": 1.0}
    if model.type_tag == "VII":
        pr["alpha"] = math.pi / 3.0
    return ModelInstance(model, b, pr)


@dataclass(frozen=True)
class PhaseState:
    coordinates: Tuple[float, float, float, float]
    momenta: Tuple[float, float, float, float]

    def as_vector(self) -> np.ndarray:
        return np.array(self.coordinates + self.momenta, dtype=float)

    @staticmethod
    def from_vector(y) -> "PhaseState":
        return PhaseState(tuple(float(v) for v in y[:4]), tuple(float(v) for v in y[4:]))


@dataclass
class Trajectory:
    """Accepted states with the integrator's statistics.

    ``rhs_evals`` counts right-hand-side evaluations (one, then eight per
    attempted step); ``h_min`` and ``h_max`` bound |h| over the accepted
    steps.
    """

    taus: List[float]
    states: List[np.ndarray]
    accepted: int = 0
    rejected: int = 0
    tolerance: float = 0.0
    rhs_evals: int = 0
    h_min: float = math.inf
    h_max: float = 0.0

    def final_state(self) -> PhaseState:
        return PhaseState.from_vector(self.states[-1])


def hamiltonian_at(inst: ModelInstance, state: PhaseState) -> float:
    """H = g^{ij} (p_i + A_i)(p_j + A_j) at the state."""
    return inst.hamiltonian(state.as_vector())


# Verner 6(5) embedded pair: 9 stages, FSAL, 6th-order propagation.
# The flow is autonomous, so the stage times are not needed.
_V65_A = (
    (),
    (9 / 50,),
    (29 / 324, 25 / 324),
    (1 / 16, 0.0, 3 / 16),
    (79129 / 250000, 0.0, -261237 / 250000, 19663 / 15625),
    (1336883 / 4909125, 0.0, -25476 / 30875, 194159 / 185250, 8225 / 78546),
    (-2459386 / 14727375, 0.0, 19504 / 30875, 2377474 / 13615875, -6157250 / 5773131, 902 / 735),
    (2699 / 7410, 0.0, -252 / 1235, -1393253 / 3993990, 236875 / 72618, -135 / 49, 15 / 22),
    (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72),
)
_V65_B = (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72, 0.0)
_V65_BHAT = (
    28 / 477, 0.0, 0.0, 212 / 441, -312500 / 366177, 2125 / 1764, 0.0,
    -2105 / 35532, 2995 / 17766,
)
_V65_E = tuple(b - bh for b, bh in zip(_V65_B, _V65_BHAT))

# Cap on the step length as a function of the tolerance.  The pair's local
# error at these step sizes is far below the tolerance, so the cap is what
# links the tolerance to the observed drift: drift ~ h^6 ~ tol^3.6, which
# makes tolerance-halving convergence checks decisive.
_HMAX_REF = 0.04
_HMAX_EXPONENT = 0.6


def _hmax(tol: float) -> float:
    return _HMAX_REF * (tol / 1e-10) ** _HMAX_EXPONENT


def _names(prefix: str) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(8))


def _norm_lines() -> List[str]:
    """Lines that set ``norm`` to max_i |e_i| / (tol + tol * max(|y_i|, |s_i|))
    over the 8 floats e (error estimate), y (start) and s (new state), or to
    NaN when any term is NaN, as numpy's max and maximum give it.

    A term r_i is NaN when e_i or s_i is NaN; the sum of the r_i and |y_i|,
    all in [0, inf] or NaN, is NaN exactly when some term or some y_i is.
    Otherwise Python's max of the r_i is the largest.
    """
    lines = []
    for i in range(8):
        lines += [
            f"    a{i} = abs(y{i})",
            f"    b{i} = abs(s{i})",
            f"    r{i} = abs(e{i}) / (tol + tol * (a{i} if a{i} >= b{i} else b{i}))",
        ]
    terms = [f"r{i}" for i in range(8)] + [f"a{i}" for i in range(8)]
    return lines + [
        f"    norm = max({_names('r')})",
        f"    nan = {' + '.join(terms)}",
        "    if nan != nan:",
        "        norm = nan",
    ]


def _step_source() -> str:
    """Source of ``_step(kernel, h, y, k0, tol) -> (ynew, err_norm, k8)``,
    one Verner attempt of length h from the 8 floats y, whose derivative is
    k0, and of ``_error_norm``.

    Stage s calls ``kernel(s0..s7)`` at y + sum_j (h*a_sj) k_j.  The pair
    is FSAL: b is the last stage's row, so ynew is that stage's point.  The
    error estimate is sum_j (h*e_j) k_j.  Zero coefficients are left out,
    and each sum adds its terms left to right in j order, which is how a
    running sum of float64 arrays rounds: the step equals an elementwise
    numpy stage loop bit for bit.  (That loop starts the estimate from
    0.0, which can change only the sign of a zero; the norm reads its
    absolute value.)  err_norm is the estimate's norm by the same lines as
    ``_error_norm`` (see ``_norm_lines``).  A kernel error is reported at
    the coordinates s0..s3 of the stage that raised it.  Expects
    ``_KERNEL_ERRORS`` and ``_kernel_error`` in its globals.
    """
    lines = [
        "def _step(kernel, h, y, k0, tol):",
        f"    {_names('y')}, = y",
        f"    {_names('k0_')}, = k0",
        "    try:",
    ]

    def combination(indent: str, tag: str, coeffs) -> List[str]:
        # binds h*c_j to {tag}j once; returns the sums sum_j {tag}j*k_j_i
        used = [j for j, c in enumerate(coeffs) if c]
        lines.extend(f"{indent}{tag}{j} = h * {coeffs[j]!r}" for j in used)
        return [" + ".join(f"{tag}{j}*k{j}_{i}" for j in used) for i in range(8)]

    for s in range(1, 9):
        point = combination("        ", f"c{s}_", _V65_A[s])
        lines += [f"        s{i} = y{i} + {src}" for i, src in enumerate(point)]
        lines += [f"        k{s} = kernel({_names('s')})", f"        {_names(f'k{s}_')}, = k{s}"]
    lines += [
        "    except _KERNEL_ERRORS as err:",
        "        raise _kernel_error(err, [s0, s1, s2, s3]) from None",
    ]
    lines += [f"    e{i} = {src}" for i, src in enumerate(combination("    ", "he", _V65_E))]
    lines += _norm_lines()
    lines.append(f"    return ({_names('s')}), norm, k8")
    lines += [
        "def _error_norm(err, y, ynew, tol):",
        f"    {_names('e')}, = err",
        f"    {_names('y')}, = y",
        f"    {_names('s')}, = ynew",
        *_norm_lines(),
        "    return norm",
    ]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=1)
def _verner_scope() -> dict:
    """The globals of the generated ``_step`` and ``_error_norm``, built on
    first use rather than at import.

    ``_error_norm(err, y, ynew, tol)`` runs the step's norm lines (see
    ``_norm_lines``) on 8 floats each, and equals numpy's
    ``max(abs(err) / (tol + tol * maximum(abs(y), abs(ynew))))`` for every
    input.
    """
    scope = {"_KERNEL_ERRORS": _KERNEL_ERRORS, "_kernel_error": _kernel_error}
    code = compile(_step_source(), "<verner step>", "exec")
    exec(code, scope)  # noqa: S102 - generated from the coefficient tuples
    return scope


def _verner_step():
    return _verner_scope()["_step"]


def _intractable(y) -> str:
    """The tail of the message for a trajectory that ran off to infinity."""
    return f"the trajectory has become numerically intractable (|y| up to {float(np.max(np.abs(y))):.3g})"


def integrate(
    inst: ModelInstance,
    state0: PhaseState,
    tau_span: Tuple[float, float] = (0.0, 10.0),
    tol: float = 1e-10,
    max_steps: int = 200_000,
) -> Trajectory:
    """Adaptive embedded Runge-Kutta trajectory with local error <= tol.

    The error estimate uses a mixed absolute/relative norm with the
    tolerance as both floors; the step length is additionally capped by a
    tolerance-dependent bound (see _hmax).  Trajectories whose stiffness
    exhausts the step budget raise IntegrationError instead of spinning.
    Each attempt is one generated, numpy-free function on plain floats
    (see _step_source) that calls the instance's flow kernel directly and
    returns the error norm; it is bit-identical to the numpy stage loop it
    replaced.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if max_steps < 1:
        raise InputError(f"step budget must be at least 1, got {max_steps}")
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InputError(f"integration span must be finite, got ({t0}, {t1})")
    if t0 == t1:
        raise InputError("empty integration span")
    direction = 1.0 if t1 > t0 else -1.0
    taus, states = [t0], [state0.as_vector()]
    y = states[0].tolist()
    t = t0
    hmax = _hmax(tol)
    h = direction * min(hmax, abs(t1 - t0) / 10.0)
    step = _verner_step()
    kernel = inst._kernel
    k0 = _evaluate(kernel, y)
    accepted = rejected = 0
    h_min, h_max = math.inf, 0.0
    span = abs(t1 - t0)
    end_eps = 1e-12 * max(1.0, span)
    min_step = 1e-13 * max(1.0, span)
    while (t1 - t) * direction > end_eps:
        if abs(h) >= abs(t1 - t):
            h = t1 - t
        ynew, err_norm, k8 = step(kernel, h, y, k0, tol)
        if err_norm <= 1.0:
            t += h
            y = ynew
            k0 = k8  # FSAL: the last stage is the derivative at the new point
            taus.append(t)
            states.append(np.array(y))
            accepted += 1
            h_min = min(h_min, abs(h))
            h_max = max(h_max, abs(h))
        else:
            rejected += 1
        factor = 0.9 * err_norm ** (-1.0 / 6.0) if err_norm > 0 else 5.0
        h = direction * min(abs(h) * min(5.0, max(0.2, factor)), hmax)
        if abs(h) < min_step and (t1 - t) * direction > abs(h):
            raise IntegrationError(f"step size underflow at tau = {t}: {_intractable(y)}")
        if accepted + rejected > max_steps:
            raise IntegrationError(f"step budget exhausted at tau = {t:.6g}: {_intractable(y)}")
    return Trajectory(
        taus=taus, states=states, accepted=accepted, rejected=rejected, tolerance=tol,
        rhs_evals=1 + 8 * (accepted + rejected), h_min=h_min, h_max=h_max,
    )


def _invariant_rows(inst: ModelInstance, rows: List[List[float]]) -> List[list]:
    """[H, Y1, Y2, Y3] at each state row, one invariants-kernel call per row."""
    kernel = inst._invariants_kernel
    return [_evaluate(kernel, row) for row in rows]


def conserved_drift(traj: Trajectory, inst: ModelInstance) -> Dict[str, float]:
    """Max relative drift of H and the three generator integrals.

    The drift of a state is |v - v0| / max(1.0, |v0|) against the first
    state; a NaN drift is passed over, as Python's ``max`` does.
    """
    values = np.array(_invariant_rows(inst, np.asarray(traj.states, dtype=float).tolist()))
    drifts = (np.abs(values[1:] - values[0]) / np.maximum(1.0, np.abs(values[0]))).T.tolist()
    return {name: max([0.0, *column]) for name, column in zip(("H", "Y1", "Y2", "Y3"), drifts)}


def trajectory_rows(traj: Trajectory, inst: ModelInstance):
    """Rows (tau, u0..u3, p0..p3, H, Y1..Y3) for delimited-text export."""
    states = np.asarray(traj.states, dtype=float).tolist()
    return [(t, *y, *vals) for t, y, vals in zip(traj.taus, states, _invariant_rows(inst, states))]


def random_initial_states(model: BianchiModel, count: int, seed: int, radius: float = 0.3):
    """Deterministic random initial states with |p| bounded by the radius.

    Starting coordinates sit at the chart origin, except the rotation-type
    chart which starts away from its coordinate singularity.  A negative
    seed raises InputError.
    """
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    u0 = (0.0, math.pi / 2, 0.0, 0.0) if model.type_tag == "IX" else (0.0, 0.0, 0.0, 0.0)
    states = []
    for _ in range(count):
        p = rng.uniform(-1.0, 1.0, size=4)
        norm = np.linalg.norm(p)
        if norm > 0:
            p = p / norm * rng.uniform(0.1, 1.0) * radius
        states.append(PhaseState(u0, tuple(p.tolist())))
    return states
