"""Expression parser and built-in integrands."""

import math

import pytest

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


def test_parse_errors_carry_positions():
    for text, pos in (("2+", 2), ("(1+2", 4), ("sin 3", 4), ("1 @ 2", 2),
                      ("bogus(2)", 0), ("1 2", 2), ("", 0), ("   ", 0)):
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
