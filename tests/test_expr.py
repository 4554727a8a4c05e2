"""Expression-engine tests: parsing, differentiation, canonical forms,
zero-testing and evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symlab import expr as ex
from symlab._symint import antiderivative, cp_invert, cp_sqrt
from symlab.expr import (
    Assignment,
    EvaluationError,
    ParseError,
    UnsupportedExpressionError,
    differentiate,
    evaluate,
    is_zero,
    parse,
)


class TestParse:
    def test_sum_of_monomials(self):
        assert parse("u1 + 2*u2") == ex.coord(1) + 2 * ex.coord(2)

    def test_function_times_exponential(self):
        assert parse("alpha0 * exp(u3)") == ex.func("alpha0") * ex.exp(ex.coord(3))

    def test_derivative_marker(self):
        e = parse("beta0' * exp(2*u3)")
        assert e == ex.func("beta0", 1) * ex.exp(2 * ex.coord(3))

    def test_repeated_primes(self):
        assert parse("gamma0''") == ex.func("gamma0", 2)

    def test_decimal_rationals_are_exact(self):
        assert parse("0.125*u1").num[0].coeff == Fraction(1, 8)

    def test_precedence_and_unary_minus(self):
        assert parse("-u1^2 + 2*u1*u2") == -(ex.coord(1) ** 2) + 2 * ex.coord(1) * ex.coord(2)
        assert parse("2^3") == ex.number(8)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("u1 + * u2")
        assert "position" in str(err.value)

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            parse("tan(u1)")

    def test_round_trip(self):
        samples = [
            "u1 + 2*u2",
            "alpha0*exp(u3)",
            "beta0'*exp(2*u3)",
            "-3*u1^2*sin(u3)",
            "(1/3)*cos(2*u1 - u3)",
            "sin(alpha)*u3 - cos(alpha)",
            "a11*exp(-2*cos(alpha)*u3)*sin(sin(alpha)*u3)",
            "cos(u2)/sin(u1)",
        ]
        for text in samples:
            e = parse(text)
            assert parse(str(e)) == e, text


class TestCanonicalForm:
    def test_exponential_merge(self):
        assert parse("exp(u3)*exp(u3)") == parse("exp(2*u3)")

    def test_pythagorean_identity(self):
        assert parse("sin(u3)^2 + cos(u3)^2") == ex.number(1)

    def test_polynomial_cancellation(self):
        assert parse("(u1+u2)*u1 - u1^2") == parse("u1*u2")

    def test_product_to_sum(self):
        assert parse("sin(u3)*cos(u3)") == parse("(1/2)*sin(2*u3)")

    def test_expand_adds_up_equal_terms(self):
        # sin(u1)^16 cos(u1) is reduced pair by pair; adding up the equal
        # terms of each round keeps the raw terms polynomial in the power
        # (without that, each pair rewrite doubles them: 4,338 raw terms)
        (m,) = parse("sin(u1)").num
        lf = m.trig[0][1]
        raw = ex._expand_raw(1, {}, ex.LF_ZERO, {("sin", lf): 16, ("cos", lf): 1})
        assert len(raw) <= 200
        assert ex.Expr(ex._combine(raw)) == parse("sin(u1)^16*cos(u1)")
        assert len(ex._combine(raw)) == 9

    def test_expand_pairs_the_first_two_units(self):
        # with a negative trig power the canonical form depends on which two
        # positive units are rewritten first: the first two in item order,
        # here sin(u1) cos(u1) = (1/2) sin(2 u1), which then cancels against
        # sin(2 u1)^(-2); pairing the last two gives another form
        def key(text):
            (m,) = parse(text).num
            return m.trig[0][:2]

        trig = {key("sin(u1)"): 1, key("cos(u1)"): 1, key("sin(u1 + u3)"): 1, key("sin(2*u1)"): -2}
        e = ex.Expr(ex._combine(ex._expand_raw(1, {}, ex.LF_ZERO, trig)))
        assert str(e) == "(1/2)*sin(u1 + u3)*sin(2*u1)^(-1)"
        for u1, u3 in ((0.3, -0.7), (1.1, 0.4), (-0.8, 0.9)):
            point = ex.Assignment([0.0, u1, 0.0, u3], {}, {})
            value = math.sin(u1) * math.cos(u1) * math.sin(u1 + u3) / math.sin(2 * u1) ** 2
            assert ex.evaluate(e, point) == pytest.approx(value, rel=1e-12)

    def test_constant_angle_identity(self):
        assert is_zero(parse("sin(alpha)^2 + cos(alpha)^2 - 1"))

    def test_double_angle_of_parameter(self):
        assert is_zero(parse("sin(2*alpha) - 2*sin(alpha)*cos(alpha)"))
        assert is_zero(parse("cos(2*alpha) - cos(alpha)^2 + sin(alpha)^2"))

    def test_angle_addition_with_parameter(self):
        lhs = parse("sin(alpha + u3*sin(alpha))")
        rhs = parse("sin(alpha)*cos(u3*sin(alpha)) + cos(alpha)*sin(u3*sin(alpha))")
        assert lhs == rhs

    def test_idempotence_on_corpus(self, corpus):
        for e in corpus:
            assert ex.canonicalize(e) == e

    def test_exp_of_constant_rejected(self):
        with pytest.raises((UnsupportedExpressionError, ParseError)):
            parse("exp(u3 + 1)")

    def test_nonlinear_trig_argument_rejected(self):
        with pytest.raises((UnsupportedExpressionError, ParseError)):
            parse("sin(u1*u2)")
        with pytest.raises((UnsupportedExpressionError, ParseError)):
            parse("sin(alpha0)")


class TestDifferentiate:
    def test_exponential(self):
        assert differentiate(parse("exp(2*u3)"), 3) == parse("2*exp(2*u3)")

    def test_function_symbol_time_derivative(self):
        assert differentiate(parse("alpha0*u3"), 0) == parse("alpha0'*u3")

    def test_matches_catalog_factor(self):
        assert differentiate(parse("beta0*exp(2*u3)"), 3) == parse("2*beta0*exp(2*u3)")

    def test_spatial_derivative_of_function_vanishes(self):
        for i in (1, 2, 3):
            assert not differentiate(parse("alpha0"), i)

    def test_quotient_rule(self):
        e = parse("cos(u2)/sin(u1)")
        d = differentiate(e, 1)
        # -cos(u1) cos(u2) / sin(u1)^2, up to canonical product-to-sum form
        check = parse("-cos(u1)*cos(u2)") / parse("sin(u1)^2")
        assert is_zero(d - check)

    def test_commuting_partials_on_corpus(self, corpus):
        for e in corpus[::5]:
            for i in range(4):
                for j in range(i + 1, 4):
                    dij = differentiate(differentiate(e, i), j)
                    dji = differentiate(differentiate(e, j), i)
                    assert is_zero(dij - dji)

    def test_against_finite_differences_on_corpus(self, corpus, rng):
        checked = 0
        sampled = list(corpus)
        rng.shuffle(sampled)
        for raw in sampled[:50]:
            e = ex.substitute(
                raw,
                funcs={
                    name: parse(repl)
                    for name, repl in {
                        "alpha0": "sin(u0)",
                        "beta0": "cos(u0)",
                        "gamma0": "u0",
                        "a11": "-1 + 0*u0",
                        "a12": "0*u0",
                        "a13": "0*u0",
                        "a22": "-1 + 0*u0",
                        "a23": "0*u0",
                        "a33": "-1 + 0*u0",
                    }.items()
                },
            )
            derivs = [differentiate(e, i) for i in range(4)]
            for _ in range(10):
                a = ex.random_assignment([e] + derivs, rng)
                if abs(math.sin(a.coords[1])) < 0.2:
                    continue
                for i in range(4):
                    h = 1e-5
                    up = list(a.coords)
                    up[i] += h
                    dn = list(a.coords)
                    dn[i] -= h
                    fd = (
                        evaluate(e, Assignment(up, a.params, a.funcs))
                        - evaluate(e, Assignment(dn, a.params, a.funcs))
                    ) / (2 * h)
                    exact = evaluate(derivs[i], a)
                    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (str(raw), i)
                    checked += 1
        assert checked > 100


class TestIsZero:
    def test_examples(self):
        assert is_zero(parse("exp(u3)*exp(u3) - exp(2*u3)"))
        assert is_zero(parse("sin(u3)^2 + cos(u3)^2 - 1"))
        assert not is_zero(parse("alpha0*exp(u3) - alpha0"))

    def test_clears_single_monomial_denominators(self):
        assert is_zero(parse("(1 - cos(u1)^2)/sin(u1) - sin(u1)"))

    def test_soundness_by_evaluation(self, corpus, rng):
        zeros = []
        for e in corpus[::7]:
            zeros.append(e - ex.canonicalize(parse(str(e))))
            zeros.append(e * ex.number(2) - e - e)
        for z in zeros:
            assert is_zero(z)
            for _ in range(10):
                a = ex.random_assignment([z], rng)
                assert abs(evaluate(z, a)) < 1e-10

    def test_nonzero_corpus_expressions(self, corpus):
        for e in corpus[::7]:
            assert not is_zero(e)

    def test_empty_form_draws_no_sample(self, monkeypatch):
        def no_draw(*_args, **_kwargs):
            raise AssertionError("sampled an empty form")

        x = ex.coord(1)
        monkeypatch.setattr(ex, "_draw_assignment", no_draw)
        assert is_zero(ex.ZERO)
        assert is_zero(x - x)

    def test_form_that_clears_to_zero_is_still_sampled(self, monkeypatch):
        # non-empty, but empty once sin(u1) is cleared from the denominator
        draws = []
        draw = ex._draw_assignment

        def counted(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(ex, "_draw_assignment", counted)
        e = parse("sin(2*u1)/sin(u1)") - parse("2*cos(u1)")
        assert e.num
        assert is_zero(e)
        assert len(draws) == 8

    @pytest.mark.parametrize(
        "text", ["sin(2*u1)/sin(u1) - 2*cos(u1)", "u1 + u2*exp(u3) + 1"], ids=["zero", "nonzero"]
    )
    def test_each_monomial_is_evaluated_once_per_sample(self, monkeypatch, text):
        draws, evals = [], []
        draw, mono_eval = ex._draw_assignment, ex._mono_eval

        def counted_draw(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        def counted_eval(*args, **kwargs):
            evals.append(args)
            return mono_eval(*args, **kwargs)

        e = parse(text)
        monkeypatch.setattr(ex, "_draw_assignment", counted_draw)
        monkeypatch.setattr(ex, "_mono_eval", counted_eval)
        is_zero(e)
        monos = e.num + (e.den if e.den != ex.SUM_ONE else ())
        # the monomials of a linear-form coefficient are evaluated with the
        # monomial that holds them
        per_sample = len(monos) + sum(map(len, _linear_coefficients(monos)))
        assert draws and len(evals) == len(draws) * per_sample


class TestEvaluate:
    def test_exp_zero(self):
        assert evaluate(parse("exp(u3)"), Assignment()) == 1.0

    def test_linear(self):
        assert evaluate(parse("u1 + 2*u2"), Assignment((0, 1, 2, 0))) == 5.0

    def test_function_value(self):
        a = Assignment((0, 0, 0, math.log(2)), {}, {("alpha0", 0): 2.0})
        assert abs(evaluate(parse("alpha0*exp(u3)"), a) - 4.0) < 1e-12

    def test_unbound_symbol(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("alpha0"), Assignment())

    def test_guarded_denominator(self):
        e = parse("1/(u1 + u2)")
        assert abs(evaluate(e, Assignment((0, 2, 1, 0))) - 1 / 3) < 1e-15
        with pytest.raises(EvaluationError):
            evaluate(e, Assignment((0, 1, -1, 0)))

    def test_consistency_with_canonical_form(self, corpus, rng):
        # evaluating an expression and an algebraically rearranged copy
        # agrees to tight relative tolerance
        for e in corpus[::6]:
            spread = (e + ex.number(1)) * (e - ex.number(1)) - e * e + ex.number(1)
            assert is_zero(spread)
            a = ex.random_assignment([e], rng)
            v1 = evaluate(e * e, a)
            v2 = evaluate(e, a) ** 2
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))

    def test_randomized_arithmetic_consistency(self, corpus, rng):
        # canonical products of heavyweight corpus entries (trig-trig
        # expansions, quotients) evaluate consistently with their factors
        pool = list(corpus)
        checked = 0
        for _ in range(60):
            a = rng.choice(pool)
            b = rng.choice(pool)
            assert a * b == b * a
            s = a * b + a
            point = ex.random_assignment([s, a, b], rng)
            try:
                va = evaluate(a, point)
                vb = evaluate(b, point)
                vs = evaluate(s, point)
            except EvaluationError:
                continue
            scale = 1.0 + abs(va * vb) + abs(va)
            assert abs(vs - (va * vb + va)) <= 1e-9 * scale
            checked += 1
        assert checked > 30


# ---------------------------------------------------------------------------
# property-based checks over randomly generated class members
# ---------------------------------------------------------------------------

_coords = st.sampled_from([ex.coord(i) for i in range(4)])
_funcs = st.sampled_from([ex.func("alpha0"), ex.func("beta0", 1)])
_numbers = st.integers(min_value=-3, max_value=3).map(ex.number)


def _linear_form(draw):
    c1 = draw(st.integers(min_value=-2, max_value=2))
    c2 = draw(st.integers(min_value=-2, max_value=2))
    i = draw(st.integers(min_value=0, max_value=3))
    j = draw(st.integers(min_value=0, max_value=3))
    return ex.number(c1) * ex.coord(i) + ex.number(c2) * ex.coord(j)


@st.composite
def class_exprs(draw, depth=2):
    if depth == 0:
        return draw(st.one_of(_coords, _funcs, _numbers))
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return draw(class_exprs(depth=depth - 1)) + draw(class_exprs(depth=depth - 1))
    if kind == 1:
        return draw(class_exprs(depth=depth - 1)) * draw(class_exprs(depth=depth - 1))
    if kind == 2:
        return -draw(class_exprs(depth=depth - 1))
    if kind == 3:
        return ex.exp(_linear_form(draw))
    if kind == 4:
        return ex.sin(_linear_form(draw))
    return ex.cos(_linear_form(draw))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=class_exprs(), b=class_exprs())
def test_addition_commutes_structurally(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=class_exprs(), b=class_exprs(), c=class_exprs())
def test_multiplication_associates_structurally(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=class_exprs(), b=class_exprs(), i=st.integers(min_value=0, max_value=3))
def test_derivative_is_a_derivation(a, b, i):
    assert differentiate(a + b, i) == differentiate(a, i) + differentiate(b, i)
    lhs = differentiate(a * b, i)
    rhs = differentiate(a, i) * b + a * differentiate(b, i)
    assert lhs == rhs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=class_exprs())
def test_print_parse_round_trip(a):
    assert parse(str(a)) == a


# ---------------------------------------------------------------------------
# canonical sort order: the cached sort keys against a plain reference key
# ---------------------------------------------------------------------------


def _reference_key(obj):
    """The canonical order written out without a cache: numbers before
    strings before tuples; numbers by (numerator, denominator), not by value;
    tuples element by element, a prefix first."""
    if isinstance(obj, tuple):
        return (2, "", 0, 0) + tuple(_reference_key(x) for x in obj)
    if isinstance(obj, str):
        return (1, obj, 0, 0)
    q = Fraction(obj)
    return (0, "", q.numerator, q.denominator)


_sort_leaves = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from(["", "p", "u", "tc", "sin", "cos"]),
)
_sort_items = st.recursive(
    _sort_leaves, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(items=st.lists(_sort_items, max_size=8))
def test_sorted_matches_reference_order_cold_and_warm(items):
    expected = tuple(sorted(items, key=_reference_key))
    ex._tuple_skey.cache_clear()
    assert ex._sorted(items) == expected
    assert ex._sorted(items) == expected
    assert ex._sorted(reversed(expected)) == tuple(sorted(reversed(expected), key=_reference_key))


def test_sort_key_orders_rationals_by_numerator_then_denominator():
    assert ex._sorted([Fraction(1, 3), Fraction(1, 2), 1]) == (1, Fraction(1, 2), Fraction(1, 3))
    assert ex._sorted([(Fraction(1, 3),), (Fraction(1, 2),)]) == ((Fraction(1, 2),), (Fraction(1, 3),))


def test_sort_key_rejects_unseen_float_leaf():
    for _ in range(2):
        with pytest.raises(TypeError):
            ex._skey(("float leaf never sorted before", Fraction(1, 7), 0.25))
        with pytest.raises(TypeError):
            ex._sorted([(("nested float leaf",), (2.5,)), ("x",)])


def test_verify_output_independent_of_sort_key_cache(capsys):
    from symlab import cli

    ex._tuple_skey.cache_clear()
    assert cli.main(["verify", "--group", "VIII", "--format", "json"]) == 0
    cold = capsys.readouterr().out
    assert ex._tuple_skey.cache_info().currsize > 0
    assert cli.main(["verify", "--group", "VIII", "--format", "json"]) == 0
    warm = capsys.readouterr().out
    assert cold == warm


# ---------------------------------------------------------------------------
# linear term splitting
# ---------------------------------------------------------------------------

_LINEAR_PARAMS = ("ta", "tb")
_unknowns = st.sampled_from(
    [ex.func("f1"), ex.func("f1", 2), ex.func("f2", 1), ex.param("ta"), ex.number(1)]
)
_constants = st.sampled_from(
    [ex.number(1), ex.number(Fraction(-3, 2)), ex.param("k"), ex.param("q") ** -1,
     ex.sin(ex.param("alpha")), ex.cos(ex.param("alpha")) * ex.param("k")]
)


@st.composite
def linear_combinations(draw):
    e = ex.number(0)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        e = e + draw(_constants) * draw(_unknowns) * draw(class_exprs(depth=1))
    if draw(st.booleans()):
        e = e / (1 + ex.param("k") ** 2)
    return e


@settings(max_examples=80, deadline=None, derandomize=True)
@given(e=linear_combinations())
def test_linear_terms_rebuild_the_expression(e):
    terms = ex.linear_terms(e, params=_LINEAR_PARAMS)
    assert len(terms) == len(e.num)
    rebuilt = ex.number(0)
    for unknown, coeff, rest in terms:
        assert coeff.is_constant()
        assert not ex.free_symbols(rest)["params"] & set(_LINEAR_PARAMS)
        factor = ex.number(1) if unknown is None else ex.param(unknown)
        rebuilt = rebuilt + coeff * factor * rest
    assert rebuilt == e


def test_linear_terms_group_by_rest():
    e = parse("3*ta*exp(u3) - tb*exp(u3) + k*ta*u1 - f1'*exp(u3) + 5*u1")
    u3, u1 = ex.exp(ex.coord(3)), ex.coord(1)
    assert set(ex.linear_terms(e, params=_LINEAR_PARAMS)) == {
        ("ta", ex.number(3), u3),
        ("tb", ex.number(-1), u3),
        ("ta", ex.number(1), ex.param("k") * u1),
        (None, ex.number(-1), ex.func("f1", 1) * u3),
        (None, ex.number(5), u1),
    }


@pytest.mark.parametrize(
    "text", ["ta^2 + tb", "ta*tb", "ta*(tb + u1)", "ta/(u1 + 1)"], ids=["square", "product", "mixed", "denominator"]
)
def test_linear_terms_reject_nonlinear_input(text):
    with pytest.raises(UnsupportedExpressionError):
        ex.linear_terms(parse(text), params=_LINEAR_PARAMS)


# ---------------------------------------------------------------------------
# stored coefficients: an int when integral, an exact Fraction otherwise
# ---------------------------------------------------------------------------


def _exact(value, expected):
    """``value`` equals ``expected`` and has its stored type: a float equal in
    value, or a Fraction with denominator 1, fails."""
    assert value == expected
    assert type(value) is (int if Fraction(expected).denominator == 1 else Fraction)


class TestExactDivision:
    def test_cp_invert_of_an_integer(self):
        (m,) = cp_invert(ex.cp_from_rat(3))
        assert m.pows == ()
        _exact(m.coeff, Fraction(1, 3))

    def test_cp_invert_of_a_single_term(self):
        (m,) = cp_invert((3 * ex.param("k")).num)
        assert m.pows == ((("p", "k"), -1),)
        _exact(m.coeff, Fraction(1, 3))

    def test_cp_invert_of_a_unit_fraction_is_an_int(self):
        (m,) = cp_invert(ex.cp_from_rat(Fraction(1, 3)))
        _exact(m.coeff, 3)
        (m,) = cp_invert((Fraction(-1, 4) * ex.param("k") ** 2).num)
        _exact(m.coeff, -4)

    def test_number_quotient(self):
        q = ex.number(1) / ex.number(3)
        _exact(q.num[0].coeff, Fraction(1, 3))
        assert q.as_rational() == Fraction(1, 3)

    def test_parsed_quotient(self):
        (m,) = parse("u1/3").num
        _exact(m.coeff, Fraction(1, 3))

    def test_single_monomial_denominator(self):
        e = ex.ONE / (3 * ex.coord(1))
        assert e.den == ex.SUM_ONE
        (m,) = e.num
        assert m.pows == ((("u", 1), -1),)
        _exact(m.coeff, Fraction(1, 3))

    def test_sum_denominator_is_made_monic(self):
        e = ex.ONE / (3 * ex.coord(1) + 3 * ex.coord(2))
        assert e.den == (ex.coord(1) + ex.coord(2)).num
        (m,) = e.num
        _exact(m.coeff, Fraction(1, 3))

    def test_power_rule_and_square_root(self):
        (m,) = antiderivative(parse("u1^2"), 1).num
        _exact(m.coeff, Fraction(1, 3))
        (m,) = cp_sqrt(ex.cp_from_rat(Fraction(4, 9)))
        _exact(m.coeff, Fraction(2, 3))

    def test_public_rationals_stay_fractions(self):
        for value in (ex.number(3).as_rational(), ex.ZERO.as_rational(),
                      ex.cp_rational(ex.cp_from_rat(3)), ex.cp_rational(ex.CP_ZERO)):
            assert type(value) is Fraction


@pytest.mark.parametrize(
    "trig",
    ["", "*sin(3*u1 + alpha)", "*cos((k+2)*u1)", "*sin(3*u1)/(k^2 + 9)"],
    ids=["plain", "sin", "cos_k2", "over_sum"],
)
@pytest.mark.parametrize("lam", ["2", "-1/2", "k", "cos(alpha)", "(k+1)"])
@pytest.mark.parametrize("m", range(4))
def test_antiderivative_round_trip(m, lam, trig):
    """u1^m exp(lam u1) [trig factor]: the power recursion and, with the
    trig factor, the two-dimensional one; d/du1 of the antiderivative is
    exact.  Where the recursion divides by a constant sum (k + 1, k^2 + 9,
    (k+2)^2, cos(alpha)^2 + 9, ...), or the input has a constant-sum
    denominator, the antiderivative keeps it as its denominator."""
    e = parse(f"u1^{m}*exp({lam}*u1){trig}")
    assert is_zero(differentiate(antiderivative(e, 1), 1) - e)


def test_antiderivative_keeps_a_constant_sum_denominator_of_its_input():
    e = parse("beta0'*u1/(k^2 + 1)")
    assert antiderivative(e, 0) == parse("beta0*u1/(k^2 + 1)")
    with pytest.raises(UnsupportedExpressionError, match="non-constant denominator"):
        antiderivative(parse("1/(u1 + 1)"), 1)


def test_exponential_antiderivatives_divide_by_the_rate():
    """Without a trig factor each step divides by lam, never by lam^2: for
    lam = cos(alpha), lam^2 reduces to 1 - sin(alpha)^2 and would leave a
    sum in the denominator."""
    anti = antiderivative(parse("u1^2*exp(cos(alpha)*u1)"), 1)
    assert anti.den == ex.SUM_ONE
    assert str(anti) == (
        "2*cos(alpha)^(-3)*exp(cos(alpha)*u1) - 2*cos(alpha)^(-2)*u1*exp(cos(alpha)*u1)"
        " + cos(alpha)^(-1)*u1^2*exp(cos(alpha)*u1)"
    )
    anti = antiderivative(parse("u1*exp(k*u1)"), 1)
    assert anti.den == ex.SUM_ONE
    assert str(anti) == "-k^(-2)*exp(k*u1) + k^(-1)*u1*exp(k*u1)"


def test_constant_sum_antiderivative_is_pinned():
    """One shared power of k^2 + 9 as the denominator, whatever the set order."""
    assert str(antiderivative(parse("exp(k*u1)*sin(3*u1)"), 1)) == (
        "((-1/3)*exp(k*u1)*cos(3*u1) + (1/9)*k*exp(k*u1)*sin(3*u1)) / (1 + (1/9)*k^2)"
    )
    assert str(antiderivative(parse("u1*exp(k*u1)*sin(3*u1)"), 1)) == (
        "((1/9)*exp(k*u1)*sin(3*u1) + (2/27)*k*exp(k*u1)*cos(3*u1)"
        " + (1/9)*k*u1*exp(k*u1)*sin(3*u1) + (-1/81)*k^2*exp(k*u1)*sin(3*u1)"
        " + (-1/27)*k^2*u1*exp(k*u1)*cos(3*u1) + (1/81)*k^3*u1*exp(k*u1)*sin(3*u1)"
        " + (-1/3)*u1*exp(k*u1)*cos(3*u1)) / (1 + (2/9)*k^2 + (1/81)*k^4)"
    )


def _stored_rationals(e):
    """Every rational held by the canonical form of ``e``: monomial
    coefficients, the coefficients of the monomial sums in exp and trig
    linear forms, and the multiples of constant-angle factors."""
    def angles(pows):
        return [key[3] for key, _n in pows if key[0] == "tc"]

    def linear(lf):
        return [x for cp in lf for c in cp for x in [c.coeff] + angles(c.pows)]

    out = []
    for m in e.num + e.den:
        out += [m.coeff] + angles(m.pows) + linear(m.expl)
        for _fn, lf, _n in m.trig:
            out += linear(lf)
    return out


def _assert_normalized(e):
    for r in _stored_rationals(e):
        assert type(r) is int or (type(r) is Fraction and r.denominator > 1), (repr(r), str(e))


_scales = st.sampled_from([Fraction(1, 2), Fraction(-3, 4), Fraction(4, 3), Fraction(2)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=class_exprs(), b=linear_combinations(), r=_scales, i=st.integers(min_value=0, max_value=3))
def test_stored_coefficients_are_normalized(a, b, r, i):
    # every result goes through Fraction arithmetic that can land on an integer
    angle = ex.number(r) * ex.param("alpha") + ex.number(r) * ex.coord(i) + ex.number(1 - r)
    results = [
        a * r * (1 / r),
        a * r + a * (1 - r),
        (a * r) ** 2 - a * a * r * r,
        b / r,
        ex.differentiate(a * b * r, i),
        ex.substitute(b, params={"k": r, "ta": 1 / r}, coords={i: r * ex.coord(3)}),
        ex.sin(angle) * ex.cos(angle) * r,
        ex.exp(ex.coord(i) * r) * ex.exp(ex.coord(i) / r),
    ]
    if a:
        results.append(b / a)
    for e in results:
        _assert_normalized(e)
    for _u, coeff, rest in ex.linear_terms(b, params=_LINEAR_PARAMS):
        _assert_normalized(coeff)
        _assert_normalized(rest)


def test_catalog_coefficients_are_normalized(models, corpus):
    from symlab import solver

    for e in corpus:
        _assert_normalized(e)
    for m in models.values():
        for a in range(3):
            for b in range(3):
                for g in range(3):
                    _assert_normalized(m.constants[a, b, g])
        for integral in m.integrals:
            _assert_normalized(integral.gamma)
            for c in integral.xi.components:
                _assert_normalized(c)
    for tag in ("I", "II", "III", "IV", "V", "VI", "VII"):
        for e in solver.solve_solvable(tag).components.values():
            _assert_normalized(e)


# ---------------------------------------------------------------------------
# linear-form coefficients: the canonical monomial sums of constants
# ---------------------------------------------------------------------------


def _linear_coefficients(monos):
    """Every coefficient sum stored in the exp and trig linear forms of the
    monomials."""
    out = []
    for m in monos:
        out += m.expl
        for _fn, lf, _n in m.trig:
            out += lf
    return out


def test_linear_form_coefficient_is_the_constant_sum():
    (m,) = ex.exp(parse("sin(alpha)*u3")).num
    assert m.expl[3] == parse("sin(alpha)").num


def test_linear_form_coefficients_sort_by_factors_first():
    # a rational coefficient sorts before a parameter one, whatever the values
    assert str(parse("exp(k*u1) + exp(2*u1)")) == "exp(2*u1) + exp(k*u1)"
    assert str(parse("sin(k*u1) + sin(2*u1)")) == "sin(2*u1) + sin(k*u1)"
    assert str(parse("exp(3*k*u1) + exp((k + 2)*u1) + exp(-k*u1)")) == (
        "exp((2 + k)*u1) + exp(-k*u1) + exp(3*k*u1)"
    )


@st.composite
def _symbolic_linear_forms(draw):
    lf = ex.number(0)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lf = lf + draw(_constants) * draw(_coords)
    return lf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_symbolic_linear_forms(), b=_symbolic_linear_forms(), i=st.integers(min_value=0, max_value=3))
def test_linear_form_coefficients_are_canonical_constant_sums(a, b, i):
    e = ex.exp(a) * ex.sin(b) + ex.cos(a - b) * ex.param("k")
    results = [
        e,
        e * e,
        differentiate(e, i),
        ex.substitute(e, params={"k": Fraction(1, 2)}, coords={i: 2 * ex.coord(3)}),
    ]
    for r in results:
        for c in _linear_coefficients(r.num + r.den):
            assert ex._combine(c) == c, str(r)
            assert ex.Expr(c).is_constant(), str(r)
        _assert_normalized(r)


# ---------------------------------------------------------------------------
# the fast paths of canonical arithmetic against the general product loop
# they bypass, kept here as the reference
# ---------------------------------------------------------------------------


def _reference_sum_mul(xs, ys):
    out = []
    for a in xs:
        for b in ys:
            out.extend(ex._mono_mul(a, b))
    return ex._combine(out)


def _reference_make(num, den):
    if not den:
        raise ZeroDivisionError("denominator is identically zero")
    if not num:
        return ex.Expr((), ex.SUM_ONE)
    if len(den) == 1:
        inv = ex._mono_inv(den[0])
        return ex.Expr(_reference_sum_mul(num, (inv,)), ex.SUM_ONE)
    lead = den[0].coeff
    if lead != 1:
        scale = (ex.Mono(Fraction(1) / lead, (), ex.LF_ZERO, ()),)
        num, den = _reference_sum_mul(num, scale), _reference_sum_mul(den, scale)
    return ex.Expr(num, den)


def _stored(monos):
    """A sum with the type of each coefficient, which ``==`` does not see."""
    return [(m, type(m.coeff)) for m in monos]


def _assert_identity_pass(e):
    """Multiplying each stored monomial by 1 through the general loop, the
    pass that ``Expr._make`` no longer makes, leaves the sums as stored."""
    for part in (e.num, e.den):
        assert _stored(_reference_sum_mul(part, ex.SUM_ONE)) == _stored(part), str(e)


_SCALARS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(4, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=class_exprs(depth=3))
def test_identity_pass_is_the_identity_on_class_members(a):
    _assert_identity_pass(a)


def test_identity_pass_is_the_identity_on_catalog_and_families(corpus):
    from symlab import solver

    for e in corpus:
        _assert_identity_pass(e)
    for tag in ("I", "II", "III", "IV", "V", "VI", "VII"):
        fam = solver.solve_solvable(tag)
        for family in (fam, solver.apply_algebraic_constraints(fam)):
            for e in family.components.values():
                _assert_identity_pass(e)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=class_exprs(), b=linear_combinations(), c=st.sampled_from(_SCALARS))
def test_scalar_product_matches_general_loop(a, b, c):
    scalar = ex.number(c).num
    for xs in (a.num, b.num, b.den):
        for got in (ex._sum_mul(xs, scalar), ex._sum_mul(scalar, xs)):
            assert _stored(got) == _stored(_reference_sum_mul(xs, scalar))
            _assert_normalized(ex.Expr(got))
    for x, y in ((a, c), (b, c), (c, b), (a * c, Fraction(1) / c), (b, a)):
        x, y = ex.Expr._coerce(x), ex.Expr._coerce(y)
        got = x * y
        want = _reference_make(_reference_sum_mul(x.num, y.num), _reference_sum_mul(x.den, y.den))
        assert (_stored(got.num), _stored(got.den)) == (_stored(want.num), _stored(want.den))
        _assert_normalized(got)


def test_scalar_product_lands_on_int():
    half = ex.number(Fraction(1, 2))
    for e in (half * 2, 2 * half, ex.coord(1) * Fraction(1, 2) * 2, ex.coord(1) / 2 * 2):
        (m,) = e.num
        _exact(m.coeff, 1)
    # a sum denominator is made monic by the scalar path as well
    (m,) = (ex.ONE / (Fraction(2, 3) * ex.coord(1) + Fraction(2, 3))).num
    _exact(m.coeff, Fraction(3, 2))


def _reference_add(x, y):
    """``x + y`` through the general sum: over a shared denominator the
    numerators are combined, else both are cross-multiplied by the loop."""
    if x.den == y.den:
        return _reference_make(ex._combine(x.num + y.num), x.den)
    num = ex._combine(_reference_sum_mul(x.num, y.den) + _reference_sum_mul(y.num, x.den))
    return _reference_make(num, _reference_sum_mul(x.den, y.den))


def _reference_mul(x, y):
    return _reference_make(_reference_sum_mul(x.num, y.num), _reference_sum_mul(x.den, y.den))


def _assert_zero_operand_paths(x):
    """Adding, subtracting and multiplying by an exact zero store what the
    general paths store, and a zero product is the shared zero."""
    zero = ex.Expr(())  # a zero the short cuts do not know by identity
    cases = [
        (x + 0, _reference_add(x, zero)),
        (0 + x, _reference_add(zero, x)),
        (x + ex.ZERO, _reference_add(x, zero)),
        (x - 0, _reference_add(x, zero)),
        (0 - x, _reference_add(zero, -x)),
        (x * 0, _reference_mul(x, zero)),
        (0 * x, _reference_mul(zero, x)),
        (x * ex.number(0), _reference_mul(x, zero)),
        (zero * x, _reference_mul(zero, x)),
    ]
    for got, want in cases:
        assert (_stored(got.num), _stored(got.den)) == (_stored(want.num), _stored(want.den)), str(x)
        _assert_normalized(got)
    assert x + 0 is x and 0 + x is x
    for product in (x * 0, 0 * x, x * zero, zero * x):
        assert product is ex.ZERO


def test_zero_is_one_shared_value():
    assert ex.number(0) is ex.ZERO
    assert ex.Expr.from_number(Fraction(0, 3)) is ex.ZERO
    assert ex.ZERO.num == () and ex.ZERO.den == ex.SUM_ONE
    x = ex.coord(1)
    assert x - x == ex.ZERO and ex.ZERO + ex.ZERO is ex.ZERO


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=class_exprs(depth=3), b=linear_combinations())
def test_zero_operand_matches_general_paths(a, b):
    # b may carry the constant-sum denominator 1 + k^2
    for x in (a, b):
        _assert_zero_operand_paths(x)


def test_zero_operand_matches_general_paths_on_catalog(corpus):
    for e in corpus:
        _assert_zero_operand_paths(e)


# ---------------------------------------------------------------------------
# work guard: the checks form no product with an exact zero factor
# ---------------------------------------------------------------------------


@pytest.fixture()
def empty_products(monkeypatch):
    """Counts the canonical products formed, and those with an empty operand."""
    counts = {"all": 0, "empty": 0}
    general = ex._sum_mul

    def counted(xs, ys):
        counts["all"] += 1
        counts["empty"] += not xs or not ys
        return general(xs, ys)

    monkeypatch.setattr(ex, "_sum_mul", counted)
    return counts


@pytest.mark.parametrize("tag", ["I", "VIII", "IX"])
def test_verification_forms_no_zero_product(models, empty_products, tag):
    from symlab import cli

    assert cli.run_verification(models[tag], samples=5, seed=0).passed
    assert empty_products["all"] and not empty_products["empty"]


def test_solver_forms_no_zero_product(empty_products):
    from symlab import solver

    for tag in ("I", "II", "III", "IV", "V", "VI", "VII"):
        solver.solve_solvable(tag)
    assert empty_products["all"] and not empty_products["empty"]


def test_is_zero_reads_the_free_symbols_once(models, monkeypatch):
    from symlab import geometry

    m = models["IX"]
    # a Killing residual of IX: non-empty, zero once sin(u1) is cleared, so
    # every sample is drawn
    e = geometry.killing_residual(m.metric, m.frame[1])[1][1]
    assert e.num
    calls, draws = [], []
    free_symbols, draw = ex.free_symbols, ex._draw_assignment
    monkeypatch.setattr(ex, "free_symbols", lambda x: calls.append(x) or free_symbols(x))
    monkeypatch.setattr(ex, "_draw_assignment", lambda *args: draws.append(args) or draw(*args))
    assert is_zero(e)
    assert len(calls) == 1 and len(draws) == 8
