"""A small expression language for superfunctions.

Grammar (whitespace-insensitive, case-sensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := power (('*' | 'star') power)*
    power  := factor ['^' NUMBER]
    factor := NUMBER | 'i' | x<k> | xi<k> | 'exp' '(' expr ')' | '(' expr ')'

where ``NUMBER`` is a decimal literal with optional exponent and optional
trailing ``i`` (``2``, ``0.5``, ``1e-3``, ``2i``, ``0.25i``), ``x<k>`` is the
k-th even coordinate (1-based, k up to twice the number of symplectic pairs of
the evaluation context) and ``xi<k>`` the k-th odd generator.  Only a
coordinate takes a power, and only 1 or 2: ``x1^2`` is ``x1 * x1``.  ``*`` is
the pointwise (supercommutative) product and ``star`` the deformed product of
the evaluation context; they share one precedence level and associate to the
left.  The argument of ``exp`` is a sum of monomials of degree at most 2 in
the even coordinates, written with ``+``, ``-``, a leading minus and
parentheses; a monomial is a product of numbers, ``i``, coordinates and their
powers (``-x1^2``, ``0.5*x1*x2``, ``2i*x2``, ``0.25``,
``-(x1^2 + x2^2)``).

``parse`` builds a position-carrying AST, ``print_expression`` renders it back
to canonical text, and ``evaluate`` turns it into a
:class:`~superstar.superfun.Superfunction` under a
:class:`~superstar.starprod.DeformationContext`.  Round trip:
``parse(print_expression(parse(s)))`` equals ``parse(s)`` node for node
(source positions are excluded from node equality).

Words in the supertorus generators are deliberately not part of this language;
they form a different algebra and are parsed by
:func:`superstar.supertorus.parse_torus_tokens`.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .starprod import DeformationContext, star
from .superfun import Superfunction, smul
from .exppoly import ExpPolyFunction

__all__ = [
    "ExpressionError",
    "ExprSyntaxError",
    "UnknownSymbolError",
    "Node",
    "Literal",
    "Coordinate",
    "OddGenerator",
    "Pow",
    "Exp",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "StarOp",
    "parse",
    "print_expression",
    "evaluate",
]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class ExpressionError(ValueError):
    """Base class for expression-language errors; carries line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ExprSyntaxError(ExpressionError):
    pass


class UnknownSymbolError(ExpressionError):
    pass


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)

_NAME_RE = re.compile(r"^(xi|x)(\d+)$")


@dataclass(frozen=True)
class _Token:
    kind: str          # "number" | "name" | one of "+-*^()" | "end"
    text: str
    value: complex | None
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        mo = _TOKEN_RE.match(src, pos)
        if mo is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        text = mo.group(0)
        if mo.lastgroup == "ws":
            for ch in text:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = mo.end()
            continue
        if mo.lastgroup == "number":
            imaginary = text.endswith("i")
            magnitude = float(text[:-1] if imaginary else text)
            if not cmath.isfinite(magnitude):
                raise ExpressionError(f"number {text} is not a finite float", line, col)
            value = complex(0.0, magnitude) if imaginary else complex(magnitude, 0.0)
            tokens.append(_Token("number", text, value, line, col))
        elif mo.lastgroup == "name":
            tokens.append(_Token("name", text, None, line, col))
        else:
            tokens.append(_Token(text, text, None, line, col))
        col += len(text)
        pos = mo.end()
    tokens.append(_Token("end", "", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    line: int = field(compare=False, default=0, kw_only=True)
    col: int = field(compare=False, default=0, kw_only=True)


@dataclass(frozen=True)
class Literal(Node):
    value: complex = 0j


@dataclass(frozen=True)
class Coordinate(Node):
    index: int = 1          # 1-based even coordinate


@dataclass(frozen=True)
class OddGenerator(Node):
    index: int = 1          # 1-based odd generator


@dataclass(frozen=True)
class Neg(Node):
    operand: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Add(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Sub(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Mul(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class StarOp(Node):
    lhs: Node = None  # type: ignore[assignment]
    rhs: Node = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Pow(Node):
    base: Node = None  # type: ignore[assignment]
    power: int = 1          # 1 or 2; the base is a Coordinate


@dataclass(frozen=True)
class Exp(Node):
    operand: Node = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.here
        if tok.kind != kind:
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ExprSyntaxError(f"expected {what}, found {got}", tok.line, tok.col)
        return self.advance()

    # -- expression level -------------------------------------------------

    def parse_expr(self) -> Node:
        tok = self.here
        if tok.kind == "-":
            self.advance()
            node: Node = Neg(self.parse_term(), line=tok.line, col=tok.col)
        else:
            node = self.parse_term()
        while self.here.kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            cls = Add if op.kind == "+" else Sub
            node = cls(node, rhs, line=op.line, col=op.col)
        return node

    def parse_term(self) -> Node:
        node = self.parse_power()
        while True:
            tok = self.here
            if tok.kind == "*":
                self.advance()
                node = Mul(node, self.parse_power(), line=tok.line, col=tok.col)
            elif tok.kind == "name" and tok.text == "star":
                self.advance()
                node = StarOp(node, self.parse_power(), line=tok.line, col=tok.col)
            else:
                return node

    def parse_power(self) -> Node:
        node = self.parse_factor()
        if self.here.kind != "^":
            return node
        caret = self.advance()
        p = self.expect("number", "an integer power")
        if not isinstance(node, Coordinate) or p.value not in (1, 2):
            raise ExprSyntaxError("a power is x<k>^1 or x<k>^2", caret.line, caret.col)
        return Pow(node, int(p.value.real), line=node.line, col=node.col)

    def parse_factor(self) -> Node:
        tok = self.here
        if tok.kind == "number":
            self.advance()
            return Literal(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "name":
            if tok.text == "i":
                self.advance()
                return Literal(1j, line=tok.line, col=tok.col)
            if tok.text == "exp":
                self.advance()
                self.expect("(", "'(' after exp")
                node = Exp(self.parse_expr(), line=tok.line, col=tok.col)
                _quadratic(node)
                self.expect(")", "')'")
                return node
            mo = _NAME_RE.match(tok.text)
            if mo is not None:
                self.advance()
                index = int(mo.group(2))
                if index == 0:
                    raise ExprSyntaxError("generator indices are 1-based",
                                          tok.line, tok.col)
                if mo.group(1) == "x":
                    return Coordinate(index, line=tok.line, col=tok.col)
                return OddGenerator(index, line=tok.line, col=tok.col)
            raise UnknownSymbolError(f"unknown symbol {tok.text!r}", tok.line, tok.col)
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(f"expected a factor, found {got}", tok.line, tok.col)


def parse(src: str) -> Node:
    """Parse a source string into an AST; raise with line/column on errors."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.here
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}",
                              tok.line, tok.col)
    return node


def _quadratic(node: Exp) -> tuple[tuple, tuple, complex]:
    """The exponent of ``exp`` as (quad, lin, const).

    ``quad`` holds ((mu, nu), c) with mu <= nu (1-based), ``lin`` holds
    (mu, c), both sorted and without zeros, and ``const`` is the scalar
    summand.  Monomials are summed in source order, each coefficient the
    product of its numbers from left to right times its sign.  Raises at the
    node that makes the exponent no sum of monomials of degree at most 2 with
    finite coefficients.
    """
    quad: dict[tuple[int, int], complex] = {}
    lin: dict[int, complex] = {}
    const = 0j
    summands = [(node.operand, 1.0)]
    while summands:
        nd, sign = summands.pop()
        if isinstance(nd, (Add, Sub)):
            summands += ((nd.rhs, -sign if isinstance(nd, Sub) else sign), (nd.lhs, sign))
            continue
        if isinstance(nd, Neg):
            summands.append((nd.operand, -sign))
            continue
        coeff = complex(1.0)
        axes: list[int] = []
        factors = [nd]
        while factors:
            f = factors.pop()
            if isinstance(f, Mul):
                factors += (f.rhs, f.lhs)
                continue
            if isinstance(f, Literal):
                coeff *= f.value
            elif isinstance(f, Coordinate):
                axes.append(f.index)
            elif isinstance(f, Pow):
                axes += [f.base.index] * f.power
            else:
                raise ExprSyntaxError("a monomial inside exp is a product of numbers "
                                      "and even coordinates", f.line, f.col)
            if len(axes) > 2:
                raise ExprSyntaxError("exp polynomials have degree at most 2", f.line, f.col)
        coeff *= sign
        if len(axes) == 2:
            key = (min(axes), max(axes))
            quad[key] = quad.get(key, 0j) + coeff
        elif len(axes) == 1:
            lin[axes[0]] = lin.get(axes[0], 0j) + coeff
        else:
            const += coeff
    if not all(map(cmath.isfinite, (*quad.values(), *lin.values(), const))):
        raise ExpressionError("a coefficient inside exp is not a finite float",
                              node.line, node.col)
    return (tuple(sorted((k, v) for k, v in quad.items() if v != 0)),
            tuple(sorted((k, v) for k, v in lin.items() if v != 0)),
            const)


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_number(v: complex) -> list[str]:
    """Render a complex number as one or two NUMBER-grammar summands."""
    parts = []
    if v.real != 0 or v.imag == 0:
        parts.append(_fmt_real(v.real))
    if v.imag != 0:
        parts.append(_fmt_real(v.imag) + "i")
    return parts


_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, StarOp: 2}


def _print_node(node: Node, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Literal):
        parts = _fmt_number(node.value)
        txt = parts[0] if len(parts) == 1 else "(" + " + ".join(parts) + ")"
        return txt
    if isinstance(node, Coordinate):
        return f"x{node.index}"
    if isinstance(node, OddGenerator):
        return f"xi{node.index}"
    if isinstance(node, Pow):
        return f"{_print_node(node.base, 3, False)}^{node.power}"
    if isinstance(node, Exp):
        return f"exp({_print_node(node.operand, 0, False)})"
    if isinstance(node, Neg):
        inner = _print_node(node.operand, 2, False)
        txt = f"-{inner}"
        return f"({txt})" if parent_prec > 1 or right_side else txt
    prec = _PRECEDENCE[type(node)]
    op = {Add: " + ", Sub: " - ", Mul: " * ", StarOp: " star "}[type(node)]
    txt = (_print_node(node.lhs, prec, False)
           + op
           + _print_node(node.rhs, prec, True))
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({txt})"
    return txt


def print_expression(node: Node) -> str:
    """Render an AST back to canonical source text (inverse of ``parse``)."""
    return _print_node(node, 0, False)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(node: Node, ctx: DeformationContext) -> Superfunction:
    """Evaluate an AST to a superfunction on the body R^{2m} of the context.

    Coordinates ``x1..x{2m}`` index the body, ``xi1..xi{n}`` the odd
    generators; ``star`` nodes multiply with the deformed product of ``ctx``.
    A subexpression whose value leaves the float range raises
    :class:`ExpressionError` at its position, so no infinity or NaN reaches
    the product.
    """
    d = 2 * ctx.m
    n = ctx.n

    def ev(nd: Node) -> Superfunction:
        out = value(nd)
        if not _is_finite(out):
            raise ExpressionError("the value here is not a finite float", nd.line, nd.col)
        return out

    def value(nd: Node) -> Superfunction:
        if isinstance(nd, Literal):
            return Superfunction.one(d, n).scale(nd.value)
        if isinstance(nd, Coordinate):
            if not 1 <= nd.index <= d:
                raise DimensionError(
                    f"coordinate x{nd.index} out of range for a body of "
                    f"dimension {d} (line {nd.line}, column {nd.col})")
            return Superfunction.coordinate(d, n, nd.index - 1)
        if isinstance(nd, OddGenerator):
            if not 1 <= nd.index <= n:
                raise DimensionError(
                    f"odd generator xi{nd.index} out of range for {n} odd "
                    f"generators (line {nd.line}, column {nd.col})")
            return Superfunction.xi(d, n, nd.index)
        if isinstance(nd, Pow):
            base = ev(nd.base)
            return smul(base, base) if nd.power == 2 else base
        if isinstance(nd, Exp):
            quad, lin, const = _quadratic(nd)
            outside = [nu for (_, nu), _ in quad if nu > d] + [mu for mu, _ in lin if mu > d]
            if outside:
                raise DimensionError(
                    f"coordinate x{outside[0]} out of range for a body of "
                    f"dimension {d} (line {nd.line}, column {nd.col})")
            A = np.zeros((d, d), dtype=complex)
            b = np.zeros(d, dtype=complex)
            for (mu, nu), v in quad:
                if mu == nu:
                    A[mu - 1, mu - 1] += v
                else:
                    A[mu - 1, nu - 1] += v / 2.0
                    A[nu - 1, mu - 1] += v / 2.0
            for mu, v in lin:
                b[mu - 1] += v
            try:
                scale = cmath.exp(const)
            except OverflowError:
                raise ExpressionError("the value here is not a finite float",
                                      nd.line, nd.col) from None
            fn = ExpPolyFunction.gaussian(d, A, b, scale)
            return Superfunction.from_even(fn, n)
        if isinstance(nd, Neg):
            return ev(nd.operand).scale(-1.0)
        if isinstance(nd, Add):
            return ev(nd.lhs) + ev(nd.rhs)
        if isinstance(nd, Sub):
            return ev(nd.lhs) + ev(nd.rhs).scale(-1.0)
        if isinstance(nd, Mul):
            return smul(ev(nd.lhs), ev(nd.rhs))
        if isinstance(nd, StarOp):
            return star(ctx, ev(nd.lhs), ev(nd.rhs))
        raise TypeError(f"cannot evaluate node of type {type(nd).__name__}")

    return ev(node)


def _is_finite(f: Superfunction) -> bool:
    return all(cmath.isfinite(z)
               for fn in f.terms.values()
               for (A_ut, b), poly in fn.keys.items()
               for z in (*A_ut, *b, *poly.values()))
