"""A small expression language for defining scalar fields from the command line.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right-associative exponent
    atom   := NUMBER | "x_" INDEX | "norm" "(" "x" ")"
            | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

``x_i`` is the i-th coordinate (1-based).  Calls: abs, sqrt, exp, log, sin,
cos, tanh (one argument), min and max (two or more), and norm, whose only
legal argument is the bare whole-vector token ``x``.  sqrt/log of a negative
number evaluate to a non-finite value rather than raising.  Parentheses,
call arguments, unary minus and exponents nest at most ``MAX_DEPTH`` deep;
a chain such as ``a + b - c`` may have any length.  Syntax and binding
errors carry a source offset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import FieldMeta, ScalarField, row_sumsq


class ExprError(ValueError):
    """Base for expression errors; carries a source offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class ExprBindError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    span: int = dataclass_field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    index: int = 1  # 1-based coordinate


@dataclass(frozen=True)
class VecRef(Node):
    """The whole input vector; only valid as the argument of norm()."""


@dataclass(frozen=True)
class Neg(Node):
    child: "Node" = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str = "+"
    left: "Node" = None
    right: "Node" = None


@dataclass(frozen=True)
class Call(Node):
    name: str = ""
    args: tuple = ()


_UNARY_FNS = ("abs", "sqrt", "exp", "log", "sin", "cos", "tanh")
_VARIADIC_FNS = ("min", "max")
FUNCTIONS = _UNARY_FNS + _VARIADIC_FNS + ("norm",)
MAX_DEPTH = 100  # deepest nesting the parser accepts


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<NUM>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<VAR>x_\d+)"
    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<OP>[-+*/^(),])"
    r")")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + (len(rest) - len(rest.lstrip()))
            raise ExprSyntaxError(f"unexpected character {source[bad]!r}", bad)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append(_Token(kind=kind, text=text, pos=m.end() - len(text)))
        pos = m.end()
    tokens.append(_Token(kind="EOF", text="", pos=len(source)))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0  # factors open on the stack

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error_at(self, tok: _Token, message: str):
        if tok.kind == "EOF" and self.i > 0:
            # anchor unexpected-end errors at the last real token
            tok = self.tokens[self.i - 1]
        raise ExprSyntaxError(message, tok.pos)

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            return self.advance()
        self.error_at(tok, f"expected {text!r}")

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            self.error_at(tok, f"unexpected {tok.text!r} after expression")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            node = BinOp(op=op.text, left=node, right=rhs, span=op.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.factor()
            node = BinOp(op=op.text, left=node, right=rhs, span=op.pos)
        return node

    def factor(self) -> Node:
        # every nesting (parenthesis, call argument, unary minus, exponent)
        # passes through here, so the cap here bounds the parser's stack
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error_at(tok, f"nesting deeper than {MAX_DEPTH} levels")
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            node = Neg(child=self.factor(), span=tok.pos)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exponent = self.factor()
            return BinOp(op="^", left=base, right=exponent, span=tok.pos)
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Num(value=float(tok.text), span=tok.pos)
        if tok.kind == "VAR":
            self.advance()
            return Var(index=int(tok.text[2:]), span=tok.pos)
        if tok.kind == "IDENT":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                return self.call(tok)
            if tok.text == "x":
                self.error_at(tok, "the vector token x is only valid inside norm()")
            self.error_at(tok, f"unknown identifier {tok.text!r}")
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.error_at(tok, "expected a number, variable, call, or parenthesis")

    def call(self, name_tok: _Token) -> Node:
        name = name_tok.text
        if name not in FUNCTIONS:
            self.error_at(name_tok, f"unknown function {name!r}")
        self.expect_op("(")
        if name == "norm":
            vec = self.peek()
            if vec.text != "x" or self.tokens[self.i + 1].text != ")":
                self.error_at(name_tok, "norm applies to the whole input vector: norm(x)")
            self.i += 2
            return Call(name=name, args=(VecRef(span=vec.pos),), span=name_tok.pos)
        args = [self.expr()]
        while self.peek().kind == "OP" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if name in _UNARY_FNS and len(args) != 1:
            self.error_at(name_tok, f"{name} takes exactly one argument")
        if name in _VARIADIC_FNS and len(args) < 2:
            self.error_at(name_tok, f"{name} takes at least two arguments")
        return Call(name=name, args=tuple(args), span=name_tok.pos)


def parse(source: str) -> Node:
    """Parse a source string to an AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# printing


_PREC_ATOM, _PREC_POW, _PREC_UNARY, _PREC_MUL, _PREC_ADD = 5, 4, 3, 2, 1


def _prec(node: Node) -> int:
    if isinstance(node, (Num, Var, VecRef, Call)):
        return _PREC_ATOM
    if isinstance(node, Neg):
        return _PREC_UNARY
    return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL,
            "/": _PREC_MUL, "^": _PREC_POW}[node.op]


def to_source(node: Node) -> str:
    """Render an AST back to source; parse(to_source(t)) == t."""
    def wrap(child: Node, minimum: int) -> str:
        text = to_source(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x_{node.index}"
    if isinstance(node, VecRef):
        return "x"
    if isinstance(node, Neg):
        return "-" + wrap(node.child, _PREC_UNARY)
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    if node.op == "^":
        left = wrap(node.left, _PREC_ATOM)
        right = wrap(node.right, _PREC_UNARY)
        return f"{left}^{right}"
    left = wrap(node.left, _prec(node))
    right = wrap(node.right, _prec(node) + 1)
    return f"{left} {node.op} {right}"


# ---------------------------------------------------------------------------
# evaluation


_BINARY_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply,
                  "/": np.divide, "^": np.power}


def _fold(first, steps):
    """Evaluator of ``first`` folded left through each (ufunc, evaluator)."""
    def fold(X):
        out = first(X)
        for ufunc, f in steps:
            out = ufunc(out, f(X))
        return out
    return fold


def _compile(node: Node, n: int):
    """Compile an AST to a batched numpy evaluator (N, n) -> (N,); each
    ``x_i`` is range-checked against ``n`` as it is compiled."""
    if isinstance(node, Num):
        v = node.value
        return lambda X: np.full(X.shape[0], v)
    if isinstance(node, Var):
        if not 1 <= node.index <= n:
            raise ExprBindError(
                f"variable x_{node.index} out of range for dimension {n}", node.span)
        i = node.index - 1
        return lambda X: X[:, i]
    if isinstance(node, Neg):
        c = _compile(node.child, n)
        return lambda X: -c(X)
    if isinstance(node, BinOp):
        # a left-associative chain a + b - c is one fold over its operands,
        # so its length does not deepen the stack
        steps = []
        while isinstance(node, BinOp):
            steps.append((_BINARY_UFUNCS[node.op], node.right))
            node = node.left
        first = _compile(node, n)
        return _fold(first, [(ufunc, _compile(right, n))
                             for ufunc, right in reversed(steps)])
    if isinstance(node, Call):
        if node.name == "norm":
            return lambda X: np.sqrt(row_sumsq(X))
        sub = [_compile(a, n) for a in node.args]
        if node.name in _VARIADIC_FNS:
            reducer = np.minimum if node.name == "min" else np.maximum
            return _fold(sub[0], [(reducer, f) for f in sub[1:]])
        fn = {"abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
              "sin": np.sin, "cos": np.cos, "tanh": np.tanh}[node.name]
        c = sub[0]
        return lambda X: fn(c(X))
    raise TypeError(f"cannot compile node {node!r}")


def bind(expr, n: int, x_star=None) -> ScalarField:
    """Bind an AST (or source string) to a dimension, yielding a ScalarField.

    Variable indexes are range-checked here; out-of-range indexes raise
    :class:`ExprBindError` with the source offset.
    """
    node = parse(expr) if isinstance(expr, str) else expr
    source = expr if isinstance(expr, str) else to_source(node)
    return ScalarField(n, _compile(node, n), x_star=x_star, vectorized=True,
                       meta=FieldMeta(name=source))


def eval_ast(node: Node, x) -> float:
    """Reference interpreter: direct recursive evaluation at one point.

    Mirrors IEEE semantics of the compiled evaluator (domain errors become
    nan, overflow becomes inf) so the two routes can be compared in tests.
    """
    x = np.asarray(x, dtype=float)

    def ev(t: Node) -> float:
        if isinstance(t, Num):
            return t.value
        if isinstance(t, Var):
            return float(x[t.index - 1])
        if isinstance(t, Neg):
            return -ev(t.child)
        if isinstance(t, BinOp):
            a = ev(t.left)
            if t.op == "^":
                b = ev(t.right)
                try:
                    return math.pow(a, b)
                except ValueError:
                    return math.nan
                except OverflowError:
                    return math.inf
            b = ev(t.right)
            try:
                if t.op == "+":
                    return a + b
                if t.op == "-":
                    return a - b
                if t.op == "*":
                    return a * b
                if b == 0.0:
                    return math.nan if (a == 0.0 or math.isnan(a)) else math.copysign(math.inf, a) * math.copysign(1.0, b)
                return a / b
            except OverflowError:
                return math.inf
        if isinstance(t, Call):
            if t.name == "norm":
                return float(np.linalg.norm(x))
            vals = [ev(a) for a in t.args]
            if t.name == "min":
                return math.nan if any(map(math.isnan, vals)) else min(vals)
            if t.name == "max":
                return math.nan if any(map(math.isnan, vals)) else max(vals)
            v = vals[0]
            try:
                if t.name == "abs":
                    return abs(v)
                if t.name == "sqrt":
                    return math.sqrt(v) if v >= 0 else math.nan
                if t.name == "exp":
                    return math.exp(v)
                if t.name == "log":
                    if v > 0:
                        return math.log(v)
                    return -math.inf if v == 0 else math.nan
                if t.name == "sin":
                    return math.sin(v)
                if t.name == "cos":
                    return math.cos(v)
                if t.name == "tanh":
                    return math.tanh(v)
            except OverflowError:
                return math.inf
            except ValueError:
                return math.nan
        raise TypeError(f"cannot evaluate node {t!r}")

    return ev(node)
