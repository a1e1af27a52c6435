"""Expression parser and built-in integrands."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from rii import ParseError, parse_integrand
from rii.integrands import BUILTINS


def value(text, x=0.0):
    return parse_integrand(text)(x)


def test_precedence_and_associativity():
    assert value("2+3*4") == 14
    assert value("2*3^2") == 18
    assert value("2^3^2") == 512            # right-associative power
    assert value("-x^2", 3.0) == -9.0       # unary minus binds looser than ^
    assert value("(-x)^2", 3.0) == 9.0
    assert value("2*-3") == -6
    assert value("6/3/2") == 1              # left-associative division
    assert value("1-2-3") == -4


def test_numbers_functions_constants():
    assert value("1.5e2") == 150.0
    assert value(".25") == 0.25
    assert abs(value("pi") - math.pi) < 1e-15
    assert abs(value("exp(1)") - math.e) < 1e-15
    assert value("abs(-3)") == 3
    assert abs(value("sin(pi)") - 0.0) < 1e-15
    assert abs(value("cos(0)") - 1.0) < 1e-15
    assert value("x", 2.5) == 2.5
    assert value("\u0663") == 3.0         # ARABIC-INDIC DIGIT THREE: any script's decimal digit


def test_parse_errors_carry_positions():
    for text, pos in (("2+", 2), ("(1+2", 4), ("sin 3", 4), ("1 @ 2", 2),
                      ("bogus(2)", 0), ("1 2", 2), ("", 0), ("   ", 0),
                      ("2\u00b2", 1)):    # a superscript two is no digit of a literal
        with pytest.raises(ParseError) as err:
            parse_integrand(text)(0.0)
        assert err.value.pos == pos, (text, err.value.pos)


def test_example3_embeds_the_rational_constant():
    f = BUILTINS["example3"]
    # at x = 0 the damping factors are 1, leaving exactly 22/7
    assert f(0.0) == 22.0 / 7.0
    assert BUILTINS["gauss-resolvent7"] is BUILTINS["example3"]
    assert parse_integrand("example3") is BUILTINS["example3"]


def test_builtin_is_not_the_parser_pi():
    f = BUILTINS["example3"]
    g = parse_integrand("pi*exp(-x^2)/(x^2+1)^7")
    # g uses the true pi; the builtin deliberately carries 22/7
    ratio = f(0.7) / g(0.7)
    assert abs(ratio - (22.0 / 7.0) / math.pi) < 1e-15


def test_parsed_expression_matches_manual():
    f = parse_integrand("exp(-x^2)/(x^2+1)^2")
    x = 0.83
    assert abs(f(x) - math.exp(-x * x) / (x * x + 1) ** 2) < 1e-15


_LEAVES = st.sampled_from([("x", "x"), ("pi", "math.pi"), ("2.5", "2.5"), ("3", "3.0"),
                           ("0.1", "0.1"), ("0", "0.0")])


def _extend(children):
    """(rii text, Python text) pairs one level up, each fully parenthesized."""
    unary = st.builds(lambda a: ("(-%s)" % a[0], "(-%s)" % a[1]), children)
    call = st.builds(lambda f, a: ("%s(%s)" % (f, a[0]), "%s(%s)" % (
        "abs" if f == "abs" else "math." + f, a[1])),
        st.sampled_from(["exp", "sin", "cos", "abs"]), children)
    binary = st.builds(lambda op, a, b: ("(%s%s%s)" % (a[0], op, b[0]),
                                         "(%s%s%s)" % (a[1], "**" if op == "^" else op, b[1])),
                       st.sampled_from("+-*/^"), children, children)
    return unary | call | binary


def _outcome(evaluate):
    try:
        return repr(evaluate())
    except (ArithmeticError, TypeError, ValueError) as exc:   # TypeError: exp of a complex
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(expr=st.recursive(_LEAVES, _extend, max_leaves=12),
       x=st.floats(-50, 50, allow_nan=False))
def test_the_compiled_evaluator_computes_what_python_computes(expr, x):
    # the closures do the same float operations in the same order as Python on
    # the same fully parenthesized expression: the same bits, or the same error
    text, python = expr
    compiled = parse_integrand(text)
    assert _outcome(lambda: compiled(x)) == _outcome(lambda: eval(python, {"math": math,
                                                                         "x": x}))


# ASCII expression pieces plus a superscript two, an Arabic-Indic three, a
# vulgar half, an accented letter, a Roman twelve, NBSP and a newline
_PIECES = list("0123456789.eE+-*/^() x_@") + ["pi", "exp", "sin", "cos", "abs"] + list(
    "\u00b2\u0663\u00bd\u00e9\u216b\u00a0\n")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
def test_any_text_compiles_or_is_a_positioned_parse_error(text):
    try:
        parse_integrand(text)
    except ParseError as err:
        assert 0 <= err.pos <= len(text), (text, err.pos)
