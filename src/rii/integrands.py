"""Integrand expressions: a small Pratt parser plus built-in integrands.

Grammar over floats: binary + - * / ^ (power is right-associative and binds
tighter than unary minus, so -x^2 means -(x^2)), unary minus, parentheses,
the variable x, the constant pi, numeric literals in decimal digits (any
script's, as float() reads them), and the functions exp, sin, cos, abs.
One regular expression splits the text into tokens; a name or character
that starts no token is refused there.  Every rejection is a ParseError
carrying the character position.

An expression nested deeper than MAX_DEPTH levels is rejected, counting each
operator, function call and pair of parentheses as a level.  That bounds the
recursion of both the parser and the evaluator, so a deep input ends in a
ParseError rather than a RecursionError.  The parser returns the evaluator
itself, nested closures built as it reads, so a call walks no syntax tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError

MAX_DEPTH = 200

_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "abs": abs}
_CONSTANTS = {"pi": math.pi}

# \s, \d and \w are Unicode's: \d is exactly the decimal digits float() reads
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>[-+*/^])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<end>\Z)
  | (?P<bad>.))""", re.VERBOSE)


def _tokenize(text):
    """[(kind, text, pos)], kind in num | name | op | lparen | rparen, then end."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token = (kind, match.group(kind), match.start(kind))
        if kind == "bad":
            raise ParseError("unexpected character %r" % token[1], token[2])
        tokens.append(token)
        if kind == "end":
            return tokens


_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BINDING = 30  # between * / and ^, so -x^2 == -(x^2) and 2*-x works

# op -> (f, g) -> the closure of `f op g`, left operand first
_BINARY = {
    "+": lambda f, g: lambda x: f(x) + g(x),
    "-": lambda f, g: lambda x: f(x) - g(x),
    "*": lambda f, g: lambda x: f(x) * g(x),
    "/": lambda f, g: lambda x: f(x) / g(x),
    "^": lambda f, g: lambda x: f(x) ** g(x),
}


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        """The evaluator x -> value of the whole text."""
        f, _ = self.expression(0, 1)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input %r" % tok[1], tok[2])
        return f

    def expression(self, min_bp, depth):
        """(closure, height) of the expression that starts here, `depth` levels in."""
        start = self.peek()[2]
        _check_depth(depth, start)
        f, height = self.prefix(depth)
        _check_depth(height, start)
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or _BINDING[text] < min_bp:
                break
            self.advance()
            # right-associative power re-enters at its own binding power
            bp = _BINDING[text]
            g, rhs_height = self.expression(bp if text == "^" else bp + 1, depth + 1)
            f, height = _BINARY[text](f, g), 1 + max(height, rhs_height)
            _check_depth(height, pos)
        return f, height

    def prefix(self, depth):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            return (lambda x: value), 1
        if kind == "op" and text == "-":
            f, height = self.expression(_UNARY_BINDING, depth + 1)
            return (lambda x: -f(x)), height + 1
        if kind == "lparen":
            return self.parenthesized(depth)
        if kind == "name":
            if text == "x":
                return (lambda x: x), 1
            if text in _CONSTANTS:
                value = _CONSTANTS[text]
                return (lambda x: value), 1
            if text in _FUNCTIONS:
                fn = _FUNCTIONS[text]
                opening = self.advance()
                if opening[0] != "lparen":
                    raise ParseError("function %r needs parentheses" % text, opening[2])
                f, height = self.parenthesized(depth)
                return (lambda x: fn(f(x))), height + 1
            raise ParseError("unknown name %r" % text, pos)
        raise ParseError("expected a value", pos)

    def parenthesized(self, depth):
        """(closure, height) of the expression after a consumed '(' and its ')'."""
        inner = self.expression(0, depth + 1)
        closing = self.advance()
        if closing[0] != "rparen":
            raise ParseError("unbalanced parentheses", closing[2])
        return inner


def _check_depth(depth, pos):
    if depth > MAX_DEPTH:
        raise ParseError("expression nested deeper than %d levels" % MAX_DEPTH, pos)


@dataclass(frozen=True)
class Integrand:
    id: str
    evaluator: object
    description: str = ""

    def __call__(self, x):
        return self.evaluator(x)


# The bundled reference tables were generated with the rational constant
# 22/7 in place of pi (every tabulated value carries the uniform factor
# (22/7)/pi ~ 1.000402 relative to the pi version).  The builtin bakes in
# the same constant so that reproduced values line up digit-for-digit;
# the parser constant `pi` stays math.pi for user expressions.
_EXAMPLE3_EXPR = "(22/7)*exp(-x^2)/(x^2+1)^7"

BUILTINS = {}


def _register(name, expression, description, aliases=()):
    item = Integrand(name, _Parser(expression).parse(), description)
    BUILTINS[name] = item
    for alias in aliases:
        BUILTINS[alias] = item
    return item


_register(
    "example3",
    _EXAMPLE3_EXPR,
    "(22/7)*exp(-x^2)/(x^2+1)^7 — Gaussian damped by the resolvent factor, "
    "with the rational pi approximation the bundled reference tables embed",
    aliases=("gauss-resolvent7",),
)


def parse_integrand(text):
    """A built-in id, or a parsed expression in the variable x."""
    if not text or not text.strip():
        raise ParseError("empty integrand", 0)
    key = text.strip()
    if key in BUILTINS:
        return BUILTINS[key]
    return Integrand(key, _Parser(text).parse(), "parsed expression")
