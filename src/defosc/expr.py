"""A tiny analytic-expression language over one variable and named parameters.

Deformation functions are specified as text in a deliberately small grammar::

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'i' | IDENT | IDENT '(' sum ')' | '(' sum ')'

Precedence is ``^`` > unary minus > ``* /`` > ``+ -``.  ``i`` is the
imaginary unit, ``NUMBER`` is a non-negative decimal with optional
exponent, and the built-in functions are ``exp``, ``ln`` and ``sqrt``.
One identifier (``n`` by default, ``x`` for weight densities) is the
free variable; every other identifier is a named parameter that must be
bound at evaluation time.

Arithmetic is complex throughout.  Powers with an integer exponent are
computed by repeated multiplication, so negative real bases never touch
a branch cut and real inputs stay exactly real; non-integer exponents
use the principal branch.

Parsing, evaluation and unparsing recurse over the syntax tree, so the
parser refuses sources nested more than ``MAX_DEPTH`` levels deep
(parentheses, calls, unary minus and exponents each open a level) and
trees more than ``MAX_DEPTH`` operators high.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnboundParameterError,
    UnknownFunctionError,
)

Bindings = Mapping[str, complex]

FUNCTIONS = ("exp", "ln", "sqrt")

IMAGINARY_NAME = "i"


# --------------------------------------------------------------------------
# Syntax tree
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Literal, Var, Param, Neg, BinOp, Call]


@dataclass(frozen=True)
class Expression:
    """A parsed expression plus the source it came from.

    Immutable; evaluation is a pure function of ``(n, bindings)``, so
    expressions may be shared freely between threads.
    """

    root: Node
    source: str
    variable: str
    free_params: frozenset[str]

    def __str__(self) -> str:
        return self.source


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_OPERATORS = "+-*/^"


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | lparen | rparen | eof
    text: str
    pos: int  # character offset into the source


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> Iterator[_Token]:
    i, size = 0, len(source)
    while i < size:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPERATORS:
            yield _Token("op", ch, i)
            i += 1
        elif ch == "(":
            yield _Token("lparen", ch, i)
            i += 1
        elif ch == ")":
            yield _Token("rparen", ch, i)
            i += 1
        elif ch.isdigit() or (ch == "." and i + 1 < size and source[i + 1].isdigit()):
            start = i
            while i < size and source[i].isdigit():
                i += 1
            if i < size and source[i] == ".":
                i += 1
                while i < size and source[i].isdigit():
                    i += 1
            if i < size and source[i] in "eE":
                j = i + 1
                if j < size and source[j] in "+-":
                    j += 1
                if j < size and source[j].isdigit():
                    i = j
                    while i < size and source[i].isdigit():
                        i += 1
            yield _Token("number", source[start:i], start)
        elif ch.isalpha() or ch == "_":
            start = i
            while i < size and (source[i].isalnum() or source[i] == "_"):
                i += 1
            yield _Token("ident", source[start:i], start)
        else:
            raise ExprSyntaxError(
                "unexpected character",
                _byte_offset(source, i),
                expected=("number", "identifier", "operator", "'('", "')'"),
                found=repr(ch),
            )
    yield _Token("eof", "", size)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


# Nesting the parser may enter (parentheses, calls, signs, exponents) and
# height the syntax tree may reach; both bound the recursion of the parser,
# of evaluation and of unparsing.
MAX_DEPTH = 100

# A parsed subtree and its height: the operators on its longest path.
_Sub = tuple[Node, int]


class _Parser:
    def __init__(self, source: str, variable: str):
        self.source = source
        self.variable = variable
        self.tokens = list(_tokenize(source))
        self.pos = 0
        self.params: set[str] = set()
        self.level = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ExprSyntaxError:
        tok = self.current
        found = f"{tok.kind} {tok.text!r}" if tok.kind != "eof" else "end of input"
        return ExprSyntaxError(
            "syntax error",
            _byte_offset(self.source, tok.pos),
            expected=expected,
            found=found,
        )

    def too_deep(self, tok: _Token) -> ExprSyntaxError:
        return ExprSyntaxError(
            f"expression nested deeper than {MAX_DEPTH} levels",
            _byte_offset(self.source, tok.pos),
            found=f"{tok.kind} {tok.text!r}",
        )

    def nested(self, tok: _Token, parse_inner) -> _Sub:
        """Parse one nesting level opened by ``tok``."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise self.too_deep(tok)
        sub = parse_inner()
        self.level -= 1
        return sub

    def node(self, tok: _Token, node: Node, *children: _Sub) -> _Sub:
        """``node`` over ``children``, refused at ``tok`` if too high."""
        height = 1 + max(h for _, h in children)
        if height > MAX_DEPTH:
            raise self.too_deep(tok)
        return node, height

    def parse(self) -> Node:
        node, _ = self.sum()
        if self.current.kind != "eof":
            raise self.fail(("operator", "end of input"))
        return node

    def sum(self) -> _Sub:
        left = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            tok = self.advance()
            right = self.term()
            left = self.node(tok, BinOp(tok.text, left[0], right[0]), left, right)
        return left

    def term(self) -> _Sub:
        left = self.unary()
        while self.current.kind == "op" and self.current.text in "*/":
            tok = self.advance()
            right = self.unary()
            left = self.node(tok, BinOp(tok.text, left[0], right[0]), left, right)
        return left

    def unary(self) -> _Sub:
        if self.current.kind == "op" and self.current.text == "-":
            tok = self.advance()
            operand = self.nested(tok, self.unary)
            return self.node(tok, Neg(operand[0]), operand)
        return self.power()

    def power(self) -> _Sub:
        base = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            tok = self.advance()
            exponent = self.nested(tok, self.unary)
            return self.node(tok, BinOp("^", base[0], exponent[0]), base, exponent)
        return base

    def group(self) -> _Sub:
        """A parenthesized sum; the '(' is the current token."""
        self.advance()
        inner = self.sum()
        if self.current.kind != "rparen":
            raise self.fail(("')'",))
        self.advance()
        return inner

    def atom(self) -> _Sub:
        tok = self.current
        if tok.kind == "number":
            value = float(tok.text)
            if math.isinf(value):
                raise ExprSyntaxError(
                    "number out of double range",
                    _byte_offset(self.source, tok.pos),
                    found=repr(tok.text),
                )
            self.advance()
            return Literal(complex(value)), 0
        if tok.kind == "lparen":
            return self.nested(tok, self.group)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.current.kind == "lparen":
                if name not in FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function {name!r}",
                        _byte_offset(self.source, tok.pos),
                        expected=FUNCTIONS,
                        found=repr(name),
                    )
                arg = self.nested(self.current, self.group)
                return self.node(tok, Call(name, arg[0]), arg)
            if name == IMAGINARY_NAME:
                return Literal(1j), 0
            if name in FUNCTIONS:
                raise self.fail(("'('",))
            if name == self.variable:
                return Var(name), 0
            self.params.add(name)
            return Param(name), 0
        raise self.fail(("number", "identifier", "'('", "'-'"))


def parse(source: str, variable: str = "n") -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    ``variable`` names the free variable of the grammar; all other
    identifiers become parameters.

    Raises
    ------
    ExprSyntaxError
        On grammar violations, with the byte offset and expected tokens.
        Also when the source nests deeper than ``MAX_DEPTH`` levels or
        its tree would be more than ``MAX_DEPTH`` operators high; the
        offset is that of the token that goes one level too deep.
    UnknownFunctionError
        When a call names anything other than ``exp``, ``ln``, ``sqrt``.
    """
    parser = _Parser(source, variable)
    root = parser.parse()
    return Expression(root, source, variable, frozenset(parser.params))


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

_MAX_INT_EXPONENT = 2**31


def _int_pow(base: complex, k: int) -> complex:
    """base**k by binary exponentiation; exact for representable products."""
    if k < 0:
        try:
            positive = _int_pow(base, -k)
        except EvalDomainError:  # 2^-1074 is a double although 2^1074 is not
            return _int_pow(1 / base, -k)
        if positive == 0:
            raise EvalDomainError("zero raised to a negative power" if base == 0 else "overflow in integer power")
        return 1 / positive
    finite_base = math.isfinite(base.real) and math.isfinite(base.imag)
    result = complex(1)
    while k:
        if k & 1:
            result *= base
        k >>= 1
        if k:
            base *= base
    if finite_base and not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise EvalDomainError("overflow in integer power")
    return result


def _principal(z: complex) -> complex:
    # a negative-zero imaginary part would select the lower branch for
    # ln/sqrt/pow of negative reals; canonicalize to the principal one
    return complex(z.real, 0.0) if z.imag == 0.0 else z


def _pow(base: complex, exponent: complex) -> complex:
    if exponent.imag == 0.0 and float(exponent.real).is_integer() and abs(exponent.real) < _MAX_INT_EXPONENT:
        return _int_pow(base, int(exponent.real))
    if base == 0:
        if exponent.real > 0 and exponent.imag == 0:
            return complex(0)
        raise EvalDomainError("zero base with non-positive or complex exponent")
    try:
        return cmath.exp(exponent * cmath.log(_principal(base)))
    except OverflowError as exc:
        raise EvalDomainError("overflow in power") from exc


def _eval(node: Node, n: complex, bindings: Bindings) -> complex:
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Var):
        return complex(n)
    if isinstance(node, Param):
        try:
            return complex(bindings[node.name])
        except KeyError:
            raise UnboundParameterError(node.name) from None
    if isinstance(node, Neg):
        return -_eval(node.operand, n, bindings)
    if isinstance(node, Call):
        arg = _eval(node.arg, n, bindings)
        try:
            if node.func == "exp":
                return cmath.exp(arg)
            if node.func == "ln":
                if arg == 0:
                    raise EvalDomainError("ln of zero")
                return cmath.log(_principal(arg))
            return cmath.sqrt(_principal(arg))
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {node.func}") from exc
    left = _eval(node.left, n, bindings)
    right = _eval(node.right, n, bindings)
    op = node.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        try:
            return left / right
        except ZeroDivisionError:
            raise EvalDomainError("division by zero") from None
    return _pow(left, right)


def evaluate(expression: Expression, n: complex, bindings: Bindings | None = None) -> complex:
    """Evaluate ``expression`` at variable value ``n`` under ``bindings``.

    Every free parameter must be bound; nothing is guessed.

    Raises
    ------
    UnboundParameterError
        If a parameter in the expression has no binding.
    EvalDomainError
        On division by zero, ``ln`` of zero, or overflow.
    """
    return _eval(expression.root, n, bindings or {})


# --------------------------------------------------------------------------
# Unparsing
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _fmt_real(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt_literal(value: complex) -> str:
    if value == 1j:
        return "i"
    if value.imag == 0.0:
        real = value.real
        return _fmt_real(real) if real >= 0 else f"(-{_fmt_real(-real)})"
    # Programmatically built complex literal; emit an equivalent expression.
    return f"({_fmt_real(value.real)}+{_fmt_real(value.imag)}*i)"


def _render(node: Node) -> str:
    if isinstance(node, Literal):
        return _fmt_literal(node.value)
    if isinstance(node, (Var, Param)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg)})"
    if isinstance(node, Neg):
        inner = _render(node.operand)
        if _prec(node.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    prec = _BIN_PREC[node.op]
    left = _render(node.left)
    right = _render(node.right)
    if node.op == "^":
        # right-associative: parenthesize the left operand at equal precedence
        if _prec(node.left) <= prec:
            left = f"({left})"
        if _prec(node.right) < prec:
            right = f"({right})"
    else:
        if _prec(node.left) < prec:
            left = f"({left})"
        if _prec(node.right) <= prec:
            right = f"({right})"
    return f"{left}{node.op}{right}"


def unparse(expression: Expression) -> str:
    """Render the tree back to source text.

    Parenthesization follows operator precedence, so for any parsed
    source ``parse(unparse(parse(s)))`` is structurally identical to
    ``parse(s)``, unless the added parentheses take the rendering past
    ``MAX_DEPTH`` levels.
    """
    return _render(expression.root)

