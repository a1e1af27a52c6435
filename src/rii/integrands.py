"""Integrand expressions: a small Pratt parser plus built-in integrands.

Grammar over floats: binary + - * / ^ (power is right-associative and binds
tighter than unary minus, so -x^2 means -(x^2)), unary minus, parentheses,
the variable x, the constant pi, numeric literals, and the functions
exp, sin, cos, abs.  Every rejection carries the character position.

An expression nested deeper than MAX_DEPTH levels is rejected, counting each
operator, function call and pair of parentheses as a level.  That bounds the
recursion of both the parser and the evaluator, so a deep input ends in a
ParseError rather than a RecursionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError

MAX_DEPTH = 200

_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "abs": abs}
_CONSTANTS = {"pi": math.pi}

# token: (kind, text, pos) with kind in num | name | op | lparen | rparen | end


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                kk = j + 1
                if kk < n and text[kk] in "+-":
                    kk += 1
                if kk < n and text[kk].isdigit():
                    while kk < n and text[kk].isdigit():
                        kk += 1
                    j = kk
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BINDING = 30  # between * / and ^, so -x^2 == -(x^2) and 2*-x works


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        ast, _ = self.expression(0, 1)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input %r" % tok[1], tok[2])
        return ast

    def expression(self, min_bp, depth):
        """(ast, height) of the expression that starts here, `depth` levels in."""
        start = self.peek()[2]
        _check_depth(depth, start)
        ast, height = self.prefix(depth)
        _check_depth(height, start)
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in _BINDING:
                break
            bp = _BINDING[text]
            if bp < min_bp:
                break
            self.advance()
            # right-associative power re-enters at its own binding power
            rhs, rhs_height = self.expression(bp if text == "^" else bp + 1, depth + 1)
            ast, height = ("bin", text, ast, rhs), 1 + max(height, rhs_height)
            _check_depth(height, pos)
        return ast, height

    def prefix(self, depth):
        kind, text, pos = self.advance()
        if kind == "num":
            return ("num", float(text)), 1
        if kind == "op" and text == "-":
            operand, height = self.expression(_UNARY_BINDING, depth + 1)
            return ("neg", operand), height + 1
        if kind == "lparen":
            inner, height = self.expression(0, depth + 1)
            closing = self.advance()
            if closing[0] != "rparen":
                raise ParseError("unbalanced parentheses", closing[2])
            return inner, height
        if kind == "name":
            if text == "x":
                return ("var",), 1
            if text in _CONSTANTS:
                return ("const", text), 1
            if text in _FUNCTIONS:
                opening = self.advance()
                if opening[0] != "lparen":
                    raise ParseError("function %r needs parentheses" % text, opening[2])
                arg, height = self.expression(0, depth + 1)
                closing = self.advance()
                if closing[0] != "rparen":
                    raise ParseError("unbalanced parentheses", closing[2])
                return ("call", text, arg), height + 1
            raise ParseError("unknown name %r" % text, pos)
        raise ParseError("expected a value", pos)


def _check_depth(depth, pos):
    if depth > MAX_DEPTH:
        raise ParseError("expression nested deeper than %d levels" % MAX_DEPTH, pos)


def _eval_ast(ast, x):
    op = ast[0]
    if op == "num":
        return ast[1]
    if op == "var":
        return x
    if op == "const":
        return _CONSTANTS[ast[1]]
    if op == "neg":
        return -_eval_ast(ast[1], x)
    if op == "call":
        return _FUNCTIONS[ast[1]](_eval_ast(ast[2], x))
    _, name, lhs, rhs = ast
    a, b = _eval_ast(lhs, x), _eval_ast(rhs, x)
    if name == "+":
        return a + b
    if name == "-":
        return a - b
    if name == "*":
        return a * b
    if name == "/":
        return a / b
    return a ** b


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
    ast = _Parser(expression).parse()

    def evaluator(x, _ast=ast):
        return _eval_ast(_ast, x)

    item = Integrand(name, evaluator, description)
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
    ast = _Parser(text).parse()

    def evaluator(x, _ast=ast):
        return _eval_ast(_ast, x)

    return Integrand(key, evaluator, "parsed expression")
