"""Exact symbolic expressions for homogeneous-spacetime verification.

The engine works on a deliberately closed class: finite sums of monomials,
each a rational coefficient times a product of

* integer powers of the coordinates ``u0..u3``,
* integer powers of named parameters (``k``, ``n``, ``eps``, ``q``, ``alpha``, ...),
* integer powers of sines/cosines of constant angles (``sin(alpha)`` and
  ``cos(alpha)`` are kept as paired symbols subject to ``sin^2 + cos^2 = 1``),
* integer powers of abstract functions of ``u0`` tagged with a derivative
  order (``alpha0``, ``alpha0'``, ``alpha0''`` are independent symbols),
* one exponential of a linear form in the coordinates,
* sines/cosines of linear forms in the coordinates.

The coefficient of a coordinate in such a linear form is a constant of the
same class, held as the canonical monomial sum that a constant expression
has, and sorted, printed and compiled by the same code.

Products of trigonometric factors are rewritten into sums (product-to-sum),
so a canonical monomial carries at most one positive trigonometric power.
Because of that, structural equality of canonical forms is a sound equality
test, and an expression is identically zero exactly when its canonical sum
is empty (after clearing single-monomial denominators).  One rewrite loop
reduces every product, and each of its rounds adds up equal terms, so a
power of n trigonometric units costs work polynomial in n.

Quotients are kept as ``numerator / denominator`` pairs.  A denominator that
canonicalizes to a single monomial is folded into the numerator as negative
powers; anything else stays as a guard that must be nonzero when evaluating.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Union

__all__ = [
    "Expr",
    "Assignment",
    "FuncSymbol",
    "ExprError",
    "ParseError",
    "UnsupportedExpressionError",
    "EvaluationError",
    "InternalInconsistencyError",
    "InputError",
    "parse",
    "differentiate",
    "canonicalize",
    "is_zero",
    "clearing_monomial",
    "evaluate",
    "coord",
    "param",
    "func",
    "number",
    "exp",
    "sin",
    "cos",
    "substitute",
    "free_symbols",
    "linear_terms",
    "random_assignment",
    "compile_numeric",
    "numeric_lines",
]

NCOORDS = 4
COORD_NAMES = ("u0", "u1", "u2", "u3")

_ONE = Fraction(1)
_HALF = Fraction(1, 2)

Number = Union[int, Fraction]


def _q(c):
    """A coefficient in stored form: an ``int`` when integral, else the
    ``Fraction``.  Both hash, compare and sort alike, and ints do it in C."""
    if type(c) is int:
        return c
    return c.numerator if c.denominator == 1 else c


class InputError(ValueError):
    """A value given by the user is out of its domain: an unknown type tag,
    a bad option or a bad integration request.  The command line reports
    it as an input error; a plain ``ValueError`` stays a defect."""


class IntegrationError(Exception):
    """A trajectory cannot go on: it left the representable domain, met a
    singular metric or used up its step budget.  ``dynamics`` raises and
    exports it; it lives here so that the command line can catch it without
    loading ``dynamics`` and numpy."""


class ExprError(Exception):
    """Base class for expression-engine errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedExpressionError(ExprError):
    """The operation would leave the supported expression class."""


class EvaluationError(ExprError):
    """Unbound symbol or zero denominator at the evaluation point."""


class InternalInconsistencyError(ExprError):
    """Symbolic and numeric zero-verdicts disagree: canonicalization defect."""


class FuncSymbol(NamedTuple):
    """Abstract function of u0; distinct derivative orders are independent."""

    name: str
    order: int

    def __str__(self) -> str:
        return self.name + "'" * self.order


# ---------------------------------------------------------------------------
# sort keys: every canonical container is a sorted tuple, so all factor keys
# need a total order built from plain (int, str) tuples.  Rationals order by
# (numerator, denominator), not by value, so native tuple order would differ.
#
# The key of a tuple is computed once and cached.  This is exact because
# canonical containers are immutable and the key is a function of the value:
# tuples that compare equal (and so share a cache slot) hold equal leaves, and
# equal leaves (1, True, Fraction(1)) already have equal keys.  Only the
# bound on the cache size is a tuning choice; it changes no result.  (A tuple
# equal to a cached one is not re-checked, so a float leaf equal to a cached
# rational gets its key instead of a TypeError; canonical forms hold no
# floats.)
#
# A monomial sorts by its factors first and its coefficient last, the order a
# linear-form coefficient had when it was a sum of (factors, coefficient)
# pairs; ``_mono_sort_key`` drops the coefficient, which a canonical sum never
# needs, as its factors are distinct.
# ---------------------------------------------------------------------------

_SKEY_CACHE_SIZE = 1 << 16


def _skey(obj):
    # exact types first: isinstance(x, Fraction) goes through ABCMeta
    t = type(obj)
    if t is tuple:
        return _tuple_skey(obj)
    if t is Mono:
        return _tuple_skey((obj.pows, obj.expl, obj.trig, obj.coeff))
    if t is str:
        return (1, obj, 0, 0)
    if t is int:
        return (0, "", obj, 1)
    if t is Fraction:
        return (0, "", obj.numerator, obj.denominator)
    if isinstance(obj, Fraction):
        return (0, "", obj.numerator, obj.denominator)
    if isinstance(obj, int):
        return (0, "", obj, 1)
    if isinstance(obj, str):
        return (1, obj, 0, 0)
    if isinstance(obj, tuple):
        return _tuple_skey(obj)
    raise TypeError(f"unsortable {obj!r}")


@functools.lru_cache(maxsize=_SKEY_CACHE_SIZE)
def _tuple_skey(obj):
    return (2, "", 0, 0) + tuple(_skey(x) for x in obj)


def _sorted(items):
    return tuple(sorted(items, key=_skey))


# ---------------------------------------------------------------------------
# linear forms in the coordinates, with no constant part (constant pieces of
# trig arguments are split off at construction).  A linear form holds one
# coefficient per coordinate: a canonical sum of constant monomials, the form
# ``Expr.num`` has for a constant, so the monomial code below adds,
# multiplies, evaluates, prints and compiles it.  The empty sum is zero.
# ---------------------------------------------------------------------------

CP_ZERO = ()
LF_ZERO = (CP_ZERO,) * NCOORDS


def cp_from_rat(r: Number) -> tuple:
    """The coefficient sum of the rational ``r``."""
    return (Mono(_q(Fraction(r)), (), LF_ZERO, ()),) if r else CP_ZERO


def cp_rational(a) -> Optional[Fraction]:
    """The value of a coefficient sum if it is a plain rational, else None."""
    if not a:
        return Fraction(0)
    c = _scalar(a)
    return None if c is None else Fraction(c)


def lf_add(a, b):
    # the operands are canonical, so adding the zero form returns the other;
    # in _mono_mul almost every operand is zero (no exp factor)
    if b == LF_ZERO:
        return a
    if a == LF_ZERO:
        return b
    # likewise per coordinate: a canonical sum plus the empty sum is itself
    return tuple(_combine(x + y) if x and y else x or y for x, y in zip(a, b))


def lf_neg(a):
    return tuple(_sum_scale(x, -1) for x in a)


def lf_is_zero(a) -> bool:
    return all(not x for x in a)


def _lf_norm_sign(a):
    """Canonical sign for trig arguments: returns (sign, normalized form)."""
    for cp in a:
        if cp:
            if cp[0].coeff < 0:
                return -1, lf_neg(a)
            return 1, a
    return 1, a


def _lf_str(a) -> str:
    parts = []
    for i, cp in enumerate(a):
        if not cp:
            continue
        r = cp_rational(cp)
        if r == 1:
            parts.append(COORD_NAMES[i])
        elif r == -1:
            parts.append("-" + COORD_NAMES[i])
        elif r is not None:
            parts.append(_rat_str(r) + "*" + COORD_NAMES[i])
        elif len(cp) == 1:
            parts.append(_sum_str(cp) + "*" + COORD_NAMES[i])
        else:
            parts.append("(" + _sum_str(cp) + ")*" + COORD_NAMES[i])
    return _signed_join(parts)


# ---------------------------------------------------------------------------
# monomials
#
# coeff: int, or Fraction when not integral (see _q); so is a 'tc' multiple
# pows: sorted tuple of (key, exponent) with key one of
#       ('u', i) | ('p', name) | ('tc', fn, base, rational) | ('f', name, order)
# expl: linear form, the argument of a single exponential factor
# trig: sorted tuple of (fn, linform, exponent); at most one positive exponent
#       survives normalization and it is always 1.
# ---------------------------------------------------------------------------


class Mono(NamedTuple):
    coeff: Number
    pows: tuple
    expl: tuple
    trig: tuple

    def key(self):
        return (self.pows, self.expl, self.trig)


MONO_ONE = Mono(1, (), LF_ZERO, ())


def _mono_sort_key(m: Mono):
    return _skey((m.pows, m.expl, m.trig))


def _due(pows, trig):
    """The rewrite a raw product is due for, or None when it is canonical:
    the first constant-angle ``cos(x)^m`` with m >= 2 (its factor key), else
    the first two positive trig units in item order, one unit twice when its
    power is at least 2 (a pair of trig keys)."""
    for key, e in pows.items():
        if e >= 2 and key[0] == "tc" and key[1] == "cos":
            return key
    units = [k for k, e in trig.items() if e > 0]
    if units and trig[units[0]] >= 2:
        return units[0], units[0]
    return (units[0], units[1]) if len(units) > 1 else None


@functools.lru_cache(maxsize=_SKEY_CACHE_SIZE)
def _unit_product(ka, kb):
    """Product-to-sum of the trig units ``ka`` and ``kb``: two (sign, unit)
    pairs, read as sign/2 times the unit, where a unit of None is cos(0) = 1
    and sin(0) is left out.  A pure function of canonical keys, cached as
    ``_tuple_skey`` is; equal keys hold equal leaves, so a hit returns what
    the call would."""
    (fa, la), (fb, lb) = ka, kb
    plus = lf_add(la, lb)
    minus = lf_add(la, lf_neg(lb))
    if fa == "sin" and fb == "sin":
        combos = [(1, "cos", minus), (-1, "cos", plus)]
    elif fa == "cos" and fb == "cos":
        combos = [(1, "cos", minus), (1, "cos", plus)]
    elif fa == "sin":
        combos = [(1, "sin", plus), (1, "sin", minus)]
    else:  # cos * sin
        combos = [(1, "sin", plus), (-1, "sin", minus)]
    out = []
    for sg, fn, lf in combos:
        s, lf = _lf_norm_sign(lf)
        if not lf_is_zero(lf):
            out.append((-sg if s < 0 and fn == "sin" else sg, (fn, lf)))
        elif fn == "cos":
            out.append((sg, None))
    return tuple(out)


def _rewrite(coeff, pows, trig, due):
    """The terms, with zero powers dropped, of one rewrite of a raw product:
    cos(x)^m = cos(x)^(m-2) * (1 - sin(x)^2) for a constant angle, or
    product-to-sum of two trig units, the new unit appended last.  The sums
    and differences of the two units' arguments are formed once per pair of
    units (``_unit_product``)."""
    if due[0] == "tc":
        sin_key = ("tc", "sin", due[2], due[3])
        p = {**pows, due: pows[due] - 2}
        s = {**p, sin_key: p.get(sin_key, 0) + 2}
        return [(c, {k: e for k, e in d.items() if e}, trig) for c, d in ((coeff, p), (-coeff, s))]
    ka, kb = due
    base = dict(trig)
    base[ka] -= 1
    base[kb] -= 1
    # an even int halves to an int; Fraction arithmetic costs far more
    half = coeff // 2 if type(coeff) is int and not coeff % 2 else coeff * _HALF
    out = []
    for sg, unit in _unit_product(ka, kb):
        d = dict(base)
        if unit is not None:
            d[unit] = d.get(unit, 0) + 1
        out.append((half if sg > 0 else -half, pows, {k: e for k, e in d.items() if e}))
    return out


def _expand_raw(coeff, powdict, expl, trigdict):
    """Normalize one raw monomial into canonical monomials (list).

    A worklist: each round applies one rewrite (``_due``, ``_rewrite``) to
    every pending term, then adds up the coefficients of equal new terms, the
    same factor items in the same order.  The order is kept because it picks
    the pair to rewrite, and with negative trig powers the canonical form
    depends on that choice.  A term with nothing left to rewrite is emitted
    at once.  Merging keeps the work polynomial in the number of units.
    """
    out = []
    if not coeff:
        return out
    fresh = [(coeff, {k: e for k, e in powdict.items() if e}, {k: e for k, e in trigdict.items() if e})]
    while fresh:
        pending = {}
        for c, pows, trig in fresh:
            due = _due(pows, trig)
            if due is None:
                out.append(Mono(c, _sorted(pows.items()), expl, _sorted((fn, lf, e) for (fn, lf), e in trig.items())))
                continue
            # a lone term has nothing to merge with, so its items go unhashed:
            # the frequent product of two units is one term in its only round
            key = (tuple(pows.items()), tuple(trig.items())) if len(fresh) > 1 else None
            prev = pending.get(key)
            pending[key] = (c if prev is None else prev[0] + c, pows, trig, due)
        fresh = [t for c, pows, trig, due in pending.values() if c for t in _rewrite(c, pows, trig, due)]
    return out


def _combine(monos: Iterable[Mono]):
    acc = {}
    for m in monos:
        k = m.key()
        acc[k] = acc.get(k, 0) + m.coeff
    out = [Mono(_q(c), *k) for k, c in acc.items() if c]
    out.sort(key=_mono_sort_key)
    return tuple(out)


def _mono_mul(a: Mono, b: Mono):
    d = dict(a.pows)
    for key, e in b.pows:
        e2 = d.get(key, 0) + e
        if e2:
            d[key] = e2
        else:
            del d[key]
    trig = {}
    for fn, lf, e in a.trig + b.trig:
        k = (fn, lf)
        trig[k] = trig.get(k, 0) + e
    return _expand_raw(a.coeff * b.coeff, d, lf_add(a.expl, b.expl), trig)


def _mono_inv(m: Mono) -> Mono:
    pows = tuple((k, -e) for k, e in m.pows)
    trig = tuple((fn, lf, -e) for fn, lf, e in m.trig)
    return Mono(_q(_ONE / m.coeff), pows, lf_neg(m.expl), trig)


def _sum_scale(xs, c):
    """The canonical sum ``xs`` times the non-zero rational ``c``.  Only the
    coefficients change, and the sort key holds none, so the order stands."""
    if c == 1:
        return xs
    return tuple(Mono(_q(m.coeff * c), m.pows, m.expl, m.trig) for m in xs)


def _scalar(xs):
    """The coefficient of a one-monomial sum with no other factor, else None."""
    if len(xs) == 1:
        m = xs[0]
        if not m.pows and not m.trig and m.expl == LF_ZERO:
            return m.coeff
    return None


def _sum_mul(xs, ys):
    c = _scalar(xs)
    if c is not None:
        return _sum_scale(ys, c)
    c = _scalar(ys)
    if c is not None:
        return _sum_scale(xs, c)
    out = []
    for a in xs:
        for b in ys:
            out.extend(_mono_mul(a, b))
    return _combine(out)


SUM_ONE = (MONO_ONE,)


# ---------------------------------------------------------------------------
# Expr
# ---------------------------------------------------------------------------


class Expr:
    """Immutable canonical expression: a sum of monomials over a denominator.

    All arithmetic keeps the canonical form, so ``canonicalize`` is the
    identity on ``Expr`` values and structural equality is meaningful.

    Every stored monomial is canonical, with its coefficient in stored form
    (see ``_q``), and every stored sum is combined and sorted.  Arithmetic
    relies on this: a numerator over the denominator 1 is kept as it is, and
    a product by a non-zero rational scalar only rescales the coefficients,
    because the sort key holds no coefficient and so the order stands.  A
    zero operand short-circuits: ``x + 0`` is ``x`` and ``x * 0`` is the
    shared ``ZERO``, the forms the general paths would store.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=SUM_ONE):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(num, den) -> "Expr":
        if not den:
            raise ZeroDivisionError("denominator is identically zero")
        if not num:
            return ZERO
        if den == SUM_ONE:
            return Expr(num, SUM_ONE)
        if len(den) == 1:
            inv = _mono_inv(den[0])
            num = _combine(m2 for m in num for m2 in _mono_mul(m, inv))
            return Expr(num, SUM_ONE)
        lead = den[0].coeff
        if lead != 1:
            scale = _ONE / lead
            num = _sum_scale(num, scale)
            den = _sum_scale(den, scale)
        return Expr(num, den)

    @staticmethod
    def from_number(value: Number) -> "Expr":
        r = _q(Fraction(value))
        if not r:
            return ZERO
        return Expr((Mono(r, (), LF_ZERO, ()),))

    # -- basic protocol -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                other = Expr.from_number(other)
            else:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Expr({self})"

    def __str__(self) -> str:
        return _expr_str(self)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, Fraction)):
            return Expr.from_number(value)
        raise TypeError(f"cannot use {type(value).__name__} in Expr arithmetic")

    def __add__(self, other):
        other = Expr._coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return Expr._make(_combine(self.num + other.num), self.den)
        num = _combine(
            list(_sum_mul(self.num, other.den)) + list(_sum_mul(other.num, self.den))
        )
        return Expr._make(num, _sum_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple(Mono(-m.coeff, m.pows, m.expl, m.trig) for m in self.num), self.den)

    def __sub__(self, other):
        return self + (-Expr._coerce(other))

    def __rsub__(self, other):
        return (-self) + Expr._coerce(other)

    def __mul__(self, other):
        other = Expr._coerce(other)
        if not self.num or not other.num:
            return ZERO
        return Expr._make(_sum_mul(self.num, other.num), _sum_mul(self.den, other.den))

    __rmul__ = __mul__

    def reciprocal(self) -> "Expr":
        if not self.num:
            raise ZeroDivisionError("division by the zero expression")
        return Expr._make(self.den, self.num)

    def __truediv__(self, other):
        return self * Expr._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return Expr._coerce(other) * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise UnsupportedExpressionError("only integer powers are supported")
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Expr.from_number(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- inspection -----------------------------------------------------------

    def as_rational(self) -> Optional[Fraction]:
        """The exact rational value, or None when not a plain number."""
        if self.den != SUM_ONE:
            return None
        if not self.num:
            return Fraction(0)
        if len(self.num) == 1 and self.num[0].key() == ((), LF_ZERO, ()):
            return Fraction(self.num[0].coeff)
        return None

    def is_constant(self) -> bool:
        """True when no coordinate, function, exp or trig factor occurs."""
        for part in (self.num, self.den):
            for m in part:
                if m.trig or not lf_is_zero(m.expl):
                    return False
                if any(k[0] in ("u", "f") for k, _ in m.pows):
                    return False
        return True


# ---------------------------------------------------------------------------
# symbol constructors
# ---------------------------------------------------------------------------


def number(value: Number) -> Expr:
    return Expr.from_number(value)


ZERO = Expr(())
ONE = number(1)


def coord(i: int) -> Expr:
    if not 0 <= i < NCOORDS:
        raise ValueError(f"coordinate index out of range: {i}")
    return Expr((Mono(1, ((("u", i), 1),), LF_ZERO, ()),))


def param(name: str) -> Expr:
    return Expr((Mono(1, ((("p", name), 1),), LF_ZERO, ()),))


def func(name: str, order: int = 0) -> Expr:
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    return Expr((Mono(1, ((("f", name, order), 1),), LF_ZERO, ()),))


def _linear_parts(e: Expr):
    """Split an expression into (linear form, constant pieces).

    Accepts sums of ``c * u_i`` terms with constant-factor coefficients plus
    purely constant terms.  The constant part is returned as a list of
    (rational multiple, base name or '') pieces suitable for angle addition.
    Raises UnsupportedExpressionError otherwise.
    """
    if e.den != SUM_ONE:
        raise UnsupportedExpressionError("argument must be polynomial, not a quotient")
    lf = [[] for _ in range(NCOORDS)]
    const_acc = {}
    for m in e.num:
        if m.trig or not lf_is_zero(m.expl):
            raise UnsupportedExpressionError("argument must be linear in the coordinates")
        coords = [(k, ex) for k, ex in m.pows if k[0] == "u"]
        others = [(k, ex) for k, ex in m.pows if k[0] != "u"]
        if any(k[0] == "f" for k, _ in others):
            raise UnsupportedExpressionError("abstract functions cannot appear in exp/sin/cos arguments")
        if len(coords) > 1 or (coords and coords[0][1] != 1):
            raise UnsupportedExpressionError("argument must be linear in the coordinates")
        factors = _sorted(others)
        if coords:
            lf[coords[0][0][1]].append(Mono(m.coeff, factors, LF_ZERO, ()))
        else:
            const_acc[factors] = const_acc.get(factors, 0) + m.coeff
    pieces = []
    for factors, r in const_acc.items():
        if not r:
            continue
        if factors == ():
            pieces.append((r, ""))
        elif len(factors) == 1 and factors[0][0][0] == "p" and factors[0][1] == 1:
            pieces.append((r, factors[0][0][1]))
        else:
            raise UnsupportedExpressionError(
                "constant part of a trig/exp argument must be rational or a rational multiple of a single parameter"
            )
    return tuple(_combine(cp) for cp in lf), pieces


def exp(e: Expr) -> Expr:
    lf, pieces = _linear_parts(Expr._coerce(e))
    if pieces:
        raise UnsupportedExpressionError("exp argument must have no constant part")
    return Expr((Mono(1, (), lf, ()),))


def _tc_factor(fn: str, r: Number, base: str) -> Expr:
    """sin/cos of the constant angle r*base, reduced for integer multiples."""
    if r < 0:
        inner = _tc_factor(fn, -r, base)
        return -inner if fn == "sin" else inner
    if not r:
        return ZERO if fn == "sin" else ONE
    if base and r.denominator == 1 and r > 1:
        # multiple-angle expansion keeps all integer multiples comparable
        n = int(r)
        s1 = _tc_factor("sin", 1, base)
        c1 = _tc_factor("cos", 1, base)
        s_prev, c_prev = s1, c1
        for _ in range(n - 1):
            s_prev, c_prev = s_prev * c1 + c_prev * s1, c_prev * c1 - s_prev * s1
        return s_prev if fn == "sin" else c_prev
    return Expr((Mono(1, ((("tc", fn, base, _q(r)), 1),), LF_ZERO, ()),))


def _trig(fn: str, e: Expr) -> Expr:
    lf, pieces = _linear_parts(Expr._coerce(e))
    sign, lf = _lf_norm_sign(lf)
    # accumulate sin/cos of the constant part by angle addition
    s_acc, c_acc = ZERO, ONE
    for r, base in pieces:
        s_p = _tc_factor("sin", r, base)
        c_p = _tc_factor("cos", r, base)
        s_acc, c_acc = s_acc * c_p + c_acc * s_p, c_acc * c_p - s_acc * s_p
    if lf_is_zero(lf):
        return s_acc if fn == "sin" else c_acc
    sin_l = Expr((Mono(sign, (), LF_ZERO, (("sin", lf, 1),)),))
    cos_l = Expr((Mono(1, (), LF_ZERO, (("cos", lf, 1),)),))
    if fn == "sin":
        return s_acc * cos_l + c_acc * sin_l
    return c_acc * cos_l - s_acc * sin_l


def sin(e: Expr) -> Expr:
    return _trig("sin", e)


def cos(e: Expr) -> Expr:
    return _trig("cos", e)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _mono_diff(m: Mono, i: int):
    """Exact partial derivative of one monomial; returns raw monomial list."""
    out = []
    pows = dict(m.pows)
    base_trig = {(fn, lf): e for fn, lf, e in m.trig}
    for key, e in m.pows:
        if key[0] == "u" and key[1] == i:
            d = dict(pows)
            d[key] = e - 1
            out.extend(_expand_raw(m.coeff * e, d, m.expl, dict(base_trig)))
        elif key[0] == "f" and i == 0:
            up = ("f", key[1], key[2] + 1)
            d = dict(pows)
            d[key] = e - 1
            d[up] = d.get(up, 0) + 1
            out.extend(_expand_raw(m.coeff * e, d, m.expl, dict(base_trig)))
    for c in m.expl[i]:
        d = dict(pows)
        for key, e in c.pows:
            d[key] = d.get(key, 0) + e
        out.extend(_expand_raw(m.coeff * c.coeff, d, m.expl, dict(base_trig)))
    for fn, lf, e in m.trig:
        other = "cos" if fn == "sin" else "sin"
        sgn = 1 if fn == "sin" else -1
        for c in lf[i]:
            d = dict(pows)
            for key, ex in c.pows:
                d[key] = d.get(key, 0) + ex
            trig = dict(base_trig)
            trig[(fn, lf)] -= 1
            trig[(other, lf)] = trig.get((other, lf), 0) + 1
            out.extend(_expand_raw(m.coeff * e * sgn * c.coeff, d, m.expl, trig))
    return out


def differentiate(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate ``u_i``."""
    if not 0 <= i < NCOORDS:
        raise ValueError(f"coordinate index out of range: {i}")
    dnum = Expr(_combine(x for m in e.num for x in _mono_diff(m, i)))
    if e.den == SUM_ONE:
        return dnum
    dden = Expr(_combine(x for m in e.den for x in _mono_diff(m, i)))
    if not dden:
        return Expr._make(dnum.num, e.den)
    den = Expr(e.den)
    return (dnum * den - Expr(e.num) * dden) / (den * den)


def canonicalize(e: Expr) -> Expr:
    """Identity on Expr values: every Expr is kept in canonical form."""
    return Expr._coerce(e)


# ---------------------------------------------------------------------------
# zero-testing and evaluation
# ---------------------------------------------------------------------------


def clearing_monomial(exprs: Iterable[Expr]) -> Expr:
    """The monomial D with the least positive powers for which the numerator
    of D*e has no negative power, for every e in ``exprs``; ONE when none
    has one.  Its factors are sorted, so it does not depend on the order in
    which they were met.  D is nonzero wherever the expressions are defined,
    so D times an expression is zero exactly when the expression is."""
    need_pows: dict = {}
    need_trig: dict = {}
    for e in exprs:
        for m in e.num:
            for key, n in m.pows:
                if n < 0:
                    need_pows[key] = max(need_pows.get(key, 0), -n)
            for fn, lf, n in m.trig:
                if n < 0:
                    need_trig[(fn, lf)] = max(need_trig.get((fn, lf), 0), -n)
    if not need_pows and not need_trig:
        return ONE
    trig = _sorted((fn, lf, n) for (fn, lf), n in need_trig.items())
    return Expr((Mono(1, _sorted(need_pows.items()), LF_ZERO, trig),))


def _clear_negative_powers(num) -> tuple:
    """Multiply through by enough positive powers to clear negative exponents."""
    d = clearing_monomial([Expr(num)])
    return num if d is ONE else _sum_mul(num, d.num)


class Assignment:
    """Numeric bindings for coordinates, parameters and function symbols."""

    def __init__(
        self,
        coords: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
        params: Optional[Mapping[str, float]] = None,
        funcs: Optional[Mapping] = None,
    ):
        if len(coords) != NCOORDS:
            raise ValueError("need exactly four coordinate values")
        self.coords = tuple(float(c) for c in coords)
        self.params = dict(params or {})
        self.funcs = {(name, order): float(v) for (name, order), v in (funcs or {}).items()}

    def _factor(self, key) -> float:
        kind = key[0]
        if kind == "u":
            return self.coords[key[1]]
        if kind == "p":
            try:
                return self.params[key[1]]
            except KeyError:
                raise EvaluationError(f"unbound parameter {key[1]!r}") from None
        if kind == "tc":
            _, fn, base, r = key
            angle = float(r) * (self._factor(("p", base)) if base else 1.0)
            return math.sin(angle) if fn == "sin" else math.cos(angle)
        if kind == "f":
            try:
                return self.funcs[(key[1], key[2])]
            except KeyError:
                raise EvaluationError(
                    f"unbound function symbol {key[1]}{'′' * key[2]}"
                ) from None
        raise EvaluationError(f"unknown factor {key!r}")

    def __repr__(self):
        return f"Assignment(coords={self.coords}, params={self.params}, funcs={self.funcs})"


def _lf_eval(lf, a: Assignment) -> float:
    terms = []
    for i, cp in enumerate(lf):
        if cp:
            # summed from 0.0 left to right, not with fsum, as the compiled
            # kernels of ``numeric_lines`` add it
            c = 0.0
            for m in cp:
                c += _mono_eval(m, a)
            terms.append(c * a.coords[i])
    return sum(terms)


def _mono_eval(m: Mono, a: Assignment) -> float:
    v = float(m.coeff)
    for key, e in m.pows:
        v *= a._factor(key) ** e
    if m.expl != LF_ZERO:
        v *= math.exp(_lf_eval(m.expl, a))
    for fn, lf, e in m.trig:
        x = _lf_eval(lf, a)
        t = math.sin(x) if fn == "sin" else math.cos(x)
        v *= t**e
    return v


def _sum_eval(monos, a: Assignment) -> float:
    return math.fsum(_mono_eval(m, a) for m in monos)


def evaluate(e: Expr, a: Assignment) -> float:
    """Floating-point value of ``e`` under the assignment."""
    try:
        num = _sum_eval(e.num, a)
    except (ZeroDivisionError, OverflowError) as err:
        raise EvaluationError(str(err)) from None
    if e.den == SUM_ONE:
        return num
    den = _sum_eval(e.den, a)
    if abs(den) < 1e-300:
        raise EvaluationError("denominator vanishes at the evaluation point")
    return num / den


def free_symbols(e: Expr):
    """All factor keys appearing in the expression (params, funcs, tc bases)."""
    coords, params, funcs = set(), set(), set()
    def visit_lf(lf):
        for i, cp in enumerate(lf):
            if cp:
                coords.add(i)
                for c in cp:
                    for key, _e in c.pows:
                        if key[0] == "p":
                            params.add(key[1])
                        elif key[0] == "tc" and key[2]:
                            params.add(key[2])
    for part in (e.num, e.den):
        for m in part:
            for key, _ex in m.pows:
                if key[0] == "u":
                    coords.add(key[1])
                elif key[0] == "p":
                    params.add(key[1])
                elif key[0] == "tc" and key[2]:
                    params.add(key[2])
                elif key[0] == "f":
                    funcs.add(FuncSymbol(key[1], key[2]))
            visit_lf(m.expl)
            for _fn, lf, _ex in m.trig:
                visit_lf(lf)
    return {"coords": coords, "params": params, "funcs": funcs}


def linear_terms(e: Expr, params: Iterable[str] = ()) -> list:
    """One ``(unknown, coeff, rest)`` per numerator term, in canonical order,
    with ``e == sum(coeff * unknown * rest)`` (an unknown of None counts as 1).

    ``unknown`` is the term's factor that is a parameter named in ``params``
    (its name), or None.  ``coeff`` is the rational coefficient over the
    constant denominator of ``e``.  ``rest`` holds the remaining factors, so
    terms that differ only in unknown and coefficient share it.  Raises
    UnsupportedExpressionError when the denominator is not constant or a term
    is not linear in the unknowns.
    """
    params = frozenset(params)
    inv = None
    if e.den != SUM_ONE:
        den = Expr(e.den)
        if not den.is_constant():
            raise UnsupportedExpressionError("denominator is not constant")
        inv = ONE / den
    out = []
    for m in e.num:
        unknown = None
        rest_pows = []
        for key, n in m.pows:
            if key[0] == "p" and key[1] in params:
                if unknown is not None or n != 1:
                    raise UnsupportedExpressionError("term is not linear in the unknowns")
                unknown = key[1]
            else:
                rest_pows.append((key, n))
        coeff = Expr((Mono(m.coeff, (), LF_ZERO, ()),))
        if inv is not None:
            coeff = coeff * inv
        out.append((unknown, coeff, Expr((Mono(1, tuple(rest_pows), m.expl, m.trig),))))
    return out


def random_assignment(exprs: Iterable[Expr], rng) -> Assignment:
    """Generic random binding for every free symbol of the expressions.

    Nonzero magnitudes are enforced on parameters and function values so that
    denominators and cancellation checks stay well-conditioned.
    """
    return _draw_assignment(*_params_and_funcs(exprs), rng)


def _params_and_funcs(exprs: Iterable[Expr]):
    """The parameters and function symbols of the expressions, as two sets."""
    params, funcs = set(), set()
    for e in exprs:
        sym = free_symbols(e)
        params |= sym["params"]
        funcs |= sym["funcs"]
    return params, funcs


def _draw_assignment(params, funcs, rng) -> Assignment:
    """One random point: the coordinates, then ``params`` and ``funcs`` in
    their iteration order, each away from zero."""

    def draw():
        while True:
            v = rng.uniform(-2.0, 2.0)
            if abs(v) >= 0.15:
                return v

    coords = [rng.uniform(-1.0, 1.0) for _ in range(NCOORDS)]
    return Assignment(
        coords,
        {p: draw() for p in params},
        {f: draw() for f in funcs},
    )


_ZERO_TEST_SAMPLES = 8


def is_zero(e: Expr) -> bool:
    """True iff the canonical form is the empty sum (after clearing
    single-factor denominators), cross-checked numerically at random points.

    A disagreement between the symbolic and numeric verdicts raises
    InternalInconsistencyError: it would mean the canonical form is broken.
    """
    e = Expr._coerce(e)
    if not e.num:
        # the value is 0 at every point, so no sample can disagree
        return True
    cleared = _clear_negative_powers(e.num)
    verdict = not cleared
    rng = random.Random(0xC0FFEE)
    symbols = _params_and_funcs([e])
    checked = 0
    tries = 0
    while checked < _ZERO_TEST_SAMPLES and tries < _ZERO_TEST_SAMPLES * 20:
        tries += 1
        a = _draw_assignment(*symbols, rng)
        try:
            terms = [_mono_eval(m, a) for m in e.num]
            scale = math.fsum(map(abs, terms)) + 1.0
            value = math.fsum(terms)
            if e.den != SUM_ONE:
                den = _sum_eval(e.den, a)
                if abs(den) < 1e-6:
                    continue
        except (EvaluationError, OverflowError, ZeroDivisionError):
            continue
        checked += 1
        if verdict and abs(value) > 1e-8 * scale:
            raise InternalInconsistencyError(
                f"symbolically zero but evaluates to {value!r} at {a!r}"
            )
        if not verdict and abs(value) > 1e-12 * scale:
            return False
    if not verdict and checked == _ZERO_TEST_SAMPLES and len(e.num) > 1:
        # a multi-term sum that cancels numerically at every sample point
        # means the canonical form failed to collapse an identity
        raise InternalInconsistencyError(
            "canonical form is nonempty but vanishes at all sample points"
        )
    return verdict


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def substitute(
    e: Expr,
    coords: Optional[Mapping[int, Union[Expr, Number]]] = None,
    funcs: Optional[Mapping[str, Expr]] = None,
    params: Optional[Mapping[str, Union[Expr, Number]]] = None,
) -> Expr:
    """Symbolic substitution, rebuilding the expression through the algebra.

    ``funcs`` maps base names to replacement expressions in ``u0``; a symbol
    of derivative order k is replaced by the k-th derivative of the
    replacement.  Substituted coordinate values inside exp/sin/cos arguments
    must keep the argument in the supported linear class.  With nothing to
    substitute, ``e`` itself is returned.
    """
    coords = {i: Expr._coerce(v) for i, v in (coords or {}).items()}
    funcs = dict(funcs or {})
    params = {k: Expr._coerce(v) for k, v in (params or {}).items()}
    if not (coords or funcs or params):
        return e

    func_cache: dict = {}

    def func_value(name, order):
        if (name, order) not in func_cache:
            if order == 0:
                func_cache[(name, 0)] = Expr._coerce(funcs[name])
            else:
                func_cache[(name, order)] = differentiate(func_value(name, order - 1), 0)
        return func_cache[(name, order)]

    def rebuild_lf(lf) -> Expr:
        out = ZERO
        for i, cp in enumerate(lf):
            if cp:
                base = coords.get(i, coord(i))
                out = out + rebuild_sum(cp) * base
        return out

    def rebuild_key(key) -> Expr:
        kind = key[0]
        if kind == "u":
            return coords.get(key[1], coord(key[1]))
        if kind == "p":
            return params.get(key[1], param(key[1]))
        if kind == "tc":
            _, fn, base, r = key
            if base in params or base == "":
                arg = number(r) * (params.get(base) if base else ONE)
            else:
                arg = number(r) * param(base)
            return _trig(fn, arg)
        if kind == "f":
            _, name, order = key
            if name in funcs:
                return func_value(name, order)
            return func(name, order)
        raise ExprError(f"unknown factor {key!r}")

    def rebuild_sum(monos) -> Expr:
        out = ZERO
        for m in monos:
            term = number(m.coeff)
            for key, ex in m.pows:
                term = term * rebuild_key(key) ** ex
            if not lf_is_zero(m.expl):
                term = term * exp(rebuild_lf(m.expl))
            for fn, lf, ex in m.trig:
                term = term * _trig(fn, rebuild_lf(lf)) ** ex
            out = out + term
        return out

    num = rebuild_sum(e.num)
    if e.den == SUM_ONE:
        return num
    return num / rebuild_sum(e.den)


# ---------------------------------------------------------------------------
# numeric compilation (used heavily by the trajectory integrator)
# ---------------------------------------------------------------------------


def numeric_lines(
    exprs: Sequence[Expr],
    targets: Sequence[str],
    param_values: Optional[Mapping[str, float]] = None,
    symbols: Sequence = (),
) -> List[str]:
    """Function-body lines that assign each expression to its target name.

    The lines read the coordinates ``u0..u3`` and the extra symbols as
    ``s0, s1, ...``, and call ``exp``, ``sin`` and ``cos`` by those names.
    ``param_values`` are folded in as floating constants.  ``symbols`` is an
    ordered sequence of remaining free symbols: parameter names and
    FuncSymbol instances.  Each distinct ``exp``/``sin``/``cos``
    call is bound once to a local ``_t0, _t1, ...``, numbered in order of
    first use and assigned just before the first statement that reads it.
    A monomial keeps its factor order and its powers (``_t3**-1``), so every
    target gets the float that evaluating the calls in place would give.  A
    factor 1.0 or -1.0 is left out and a negative term is subtracted
    (``x``, ``-x``, ``a-b`` for ``1.0*x``, ``-1.0*x``, ``a+-b``), each exact
    in IEEE arithmetic.
    """
    param_values = dict(param_values or {})
    slot: dict = {}
    for idx, s in enumerate(symbols):
        key = ("p", s) if isinstance(s, str) else ("f", s.name, s.order)
        slot[key] = f"s{idx}"
    local: dict = {}  # call source -> its local name
    pending: list = []  # bindings the next statement needs first

    def call(fn: str, arg: str) -> str:
        src = f"{fn}({arg})"
        if src not in local:
            local[src] = f"_t{len(local)}"
            pending.append(f"    {local[src]} = {src}")
        return local[src]

    def power(s: str, e: int) -> str:
        return s if e == 1 else f"{s}**{e}"

    def scaled(const: float, factors) -> str:
        if not factors:
            return repr(const)
        prod = "*".join(factors)
        if const == 1.0:
            return prod
        if const == -1.0:
            return "-" + prod
        return f"{const!r}*{prod}"

    def terms_src(terms) -> str:
        if not terms:
            return "0.0"
        return terms[0] + "".join(t if t.startswith("-") else "+" + t for t in terms[1:])

    def factor_src(key, e: int):
        """Returns (constant factor or None, source or None)."""
        kind = key[0]
        if key in slot:
            return None, power(slot[key], e)
        if kind == "u":
            return None, power(f"u{key[1]}", e)
        if kind == "p":
            return param_values[key[1]] ** e, None
        if kind == "tc":
            _, fn, base, rr = key
            if base and ("p", base) in slot:
                return None, power(call(fn, scaled(float(rr), [slot[("p", base)]])), e)
            ang = float(rr) * (param_values[base] if base else 1.0)
            return (math.sin(ang) if fn == "sin" else math.cos(ang)) ** e, None
        raise UnsupportedExpressionError(
            f"cannot compile factor {key!r}: bind it via param_values or symbols"
        )

    def lf_src(lf) -> str:
        terms = []
        for i, cp in enumerate(lf):
            if cp:
                c = sum_src(cp)
                terms.append({"1.0": f"u{i}", "-1.0": f"-u{i}"}.get(c, f"({c})*u{i}"))
        return terms_src(terms)

    def mono_src(m: Mono) -> str:
        factors = []
        const = float(m.coeff)
        for key, e in m.pows:
            c, s = factor_src(key, e)
            if c is not None:
                const *= c
            else:
                factors.append(s)
        if not lf_is_zero(m.expl):
            factors.append(call("exp", lf_src(m.expl)))
        for fn, lf, e in m.trig:
            factors.append(power(call(fn, lf_src(lf)), e))
        return scaled(const, factors)

    def sum_src(monos) -> str:
        return terms_src([mono_src(m) for m in monos])

    lines = []
    for target, e in zip(targets, exprs):
        if e.den == SUM_ONE:
            src = sum_src(e.num)
        else:
            src = f"({sum_src(e.num)})/({sum_src(e.den)})"
        lines += pending
        pending.clear()
        lines.append(f"    {target} = {src}")
    return lines


def compile_numeric(
    exprs: Sequence[Expr],
    param_values: Optional[Mapping[str, float]] = None,
    symbols: Sequence = (),
) -> Callable[..., list]:
    """Compile expressions to one fast ``f(u0,u1,u2,u3, *symbols) -> [values]``.

    ``param_values`` are folded in as floating constants.  ``symbols`` is an
    ordered sequence of remaining free symbols, parameter names and
    FuncSymbol instances, exposed as extra positional arguments.
    The body is ``numeric_lines``: each distinct ``exp``/``sin``/``cos``
    call runs once per evaluation, and the values are the floats that
    evaluating every call in place would give.
    """
    names = [f"v{idx}" for idx in range(len(exprs))]
    args = ", ".join(["u0", "u1", "u2", "u3"] + [f"s{i}" for i in range(len(symbols))])
    body = numeric_lines(exprs, names, param_values, symbols)
    src = f"def _compiled({args}):\n" + "\n".join(body) + f"\n    return [{', '.join(names)}]\n"
    scope = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
    code = compile(src, "<compile_numeric>", "exec")
    exec(code, scope)  # noqa: S102 - source is generated from canonical forms
    return scope["_compiled"]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

DEFAULT_PARAMETERS = frozenset({"k", "n", "q", "eps", "alpha", "e", "m"})


class _Token(NamedTuple):
    kind: str
    value: object
    pos: int


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # ASCII digits only: Fraction rejects other characters str.isdigit accepts
        if "0" <= ch <= "9" or (ch == "." and i + 1 < n and "0" <= text[i + 1] <= "9"):
            j = i
            seen_dot = False
            while j < n and ("0" <= text[j] <= "9" or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(_Token("number", Fraction(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            primes = 0
            while j < n and text[j] == "'":
                primes += 1
                j += 1
            tokens.append(_Token("ident", (name, primes), i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    """Precedence-climbing parser for the expression grammar."""

    def __init__(self, tokens, parameters):
        self.tokens = tokens
        self.pos = 0
        self.parameters = parameters

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return tok

    def parse_expr(self, min_bp: int = 0) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            left = number(tok.value)
        elif tok.kind == "ident":
            left = self.resolve(tok)
        elif tok.kind == "(":
            left = self.parse_expr(0)
            self.expect(")")
        elif tok.kind == "-":
            left = -self.parse_expr(30)
        elif tok.kind == "+":
            left = self.parse_expr(30)
        else:
            raise ParseError(f"unexpected token {tok.kind!r}", tok.pos)
        while True:
            op = self.peek()
            if op.kind in ("+", "-") and min_bp <= 10:
                self.next()
                right = self.parse_expr(11)
                left = left + right if op.kind == "+" else left - right
            elif op.kind in ("*", "/") and min_bp <= 20:
                self.next()
                right = self.parse_expr(21)
                try:
                    left = left * right if op.kind == "*" else left / right
                except ZeroDivisionError:
                    raise ParseError("division by zero", op.pos) from None
            elif op.kind == "^" and min_bp <= 40:
                self.next()
                try:
                    left = left ** self.parse_exponent()
                except ZeroDivisionError:
                    raise ParseError("division by zero", op.pos) from None
            else:
                return left

    def parse_exponent(self) -> int:
        tok = self.next()
        sign = 1
        if tok.kind == "-":
            sign = -1
            tok = self.next()
        if tok.kind == "(":
            inner = self.parse_expr(0)
            self.expect(")")
            r = inner.as_rational()
            if r is None or r.denominator != 1:
                raise ParseError("exponent must be an integer", tok.pos)
            return sign * int(r)
        if tok.kind != "number" or tok.value.denominator != 1:
            raise ParseError("exponent must be an integer", tok.pos)
        return sign * int(tok.value)

    def resolve(self, tok: _Token) -> Expr:
        name, primes = tok.value
        if name in ("exp", "sin", "cos"):
            if primes:
                raise ParseError(f"{name} cannot carry derivative marks", tok.pos)
            self.expect("(")
            arg = self.parse_expr(0)
            self.expect(")")
            try:
                return {"exp": exp, "sin": sin, "cos": cos}[name](arg)
            except UnsupportedExpressionError as err:
                raise ParseError(str(err), tok.pos) from None
        if self.peek().kind == "(":
            raise ParseError(f"unknown function {name!r}", tok.pos)
        if name in COORD_NAMES:
            if primes:
                raise ParseError("coordinates cannot carry derivative marks", tok.pos)
            return coord(COORD_NAMES.index(name))
        if name in self.parameters:
            if primes:
                raise ParseError(f"parameter {name!r} cannot carry derivative marks", tok.pos)
            return param(name)
        # default classification: a trailing digit marks an abstract function
        # of u0 (alpha0, beta0, a11, ...); bare words are parameters.
        if name[-1].isdigit():
            return func(name, primes)
        if primes:
            raise ParseError(f"unknown function symbol {name!r}", tok.pos)
        return param(name)


def parse(text: str, parameters: Iterable[str] = DEFAULT_PARAMETERS) -> Expr:
    """Parse the expression grammar into a canonical Expr.

    ``parameters`` pre-classifies identifiers as parameters; anything else
    is classified by the trailing-digit convention.
    """
    parser = _Parser(_tokenize(text), frozenset(parameters))
    result = parser.parse_expr(0)
    end = parser.next()
    if end.kind != "end":
        raise ParseError("trailing input", end.pos)
    return result


# ---------------------------------------------------------------------------
# printing (grammar-compatible, round-trip stable)
# ---------------------------------------------------------------------------


def _rat_str(r: Number) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"({r.numerator}/{r.denominator})"


def _factor_str(key, e: int) -> str:
    kind = key[0]
    if kind == "u":
        base = COORD_NAMES[key[1]]
    elif kind == "p":
        base = key[1]
    elif kind == "tc":
        _, fn, name, r = key
        if not name:
            base = f"{fn}({_rat_str(r)})"
        elif r == 1:
            base = f"{fn}({name})"
        else:
            base = f"{fn}({_rat_str(r)}*{name})"
    elif kind == "f":
        base = key[1] + "'" * key[2]
    else:
        raise ExprError(f"unknown factor {key!r}")
    if e == 1:
        return base
    return f"{base}^({e})" if e < 0 else f"{base}^{e}"


def _mono_str(m: Mono) -> str:
    factors = [_factor_str(key, e) for key, e in m.pows]
    if not lf_is_zero(m.expl):
        factors.append(f"exp({_lf_str(m.expl)})")
    for fn, lf, e in m.trig:
        base = f"{fn}({_lf_str(lf)})"
        factors.append(base if e == 1 else f"{base}^({e})" if e < 0 else f"{base}^{e}")
    coeff = m.coeff
    if not factors:
        return _rat_str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return _rat_str(coeff) + "*" + body


def _signed_join(parts) -> str:
    """Terms joined by ' + ' and ' - ', a leading '-' becoming the operator;
    "0" when there are none."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _sum_str(monos) -> str:
    return _signed_join([_mono_str(m) for m in monos])


def _expr_str(e: Expr) -> str:
    if e.den == SUM_ONE:
        return _sum_str(e.num)
    return f"({_sum_str(e.num)}) / ({_sum_str(e.den)})"
