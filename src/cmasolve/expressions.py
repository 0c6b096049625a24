"""A small arithmetic expression language for problem data.

Grammar (precedence from loosest to tightest: + - , * /, unary -, ^ with
right association):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are the coordinates x1, y1, ..., xn, yn, the radius-squared
shorthand r2, the solution value t (right-hand sides only), and the
functions exp, log, sqrt, abs, min, max, pow.  Parse errors carry the byte
offset of the offending token; log/sqrt/division domain violations and
non-finite results raise at evaluation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class ExpressionError(ValueError):
    pass


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ExpressionError):
    pass


_FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "abs": 1,
              "min": 2, "max": 2, "pow": 2}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


# AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Num:
    value: float

    def ev(self, env):
        return self.value

    def walk(self):
        yield self


@dataclass(frozen=True)
class _Var:
    name: str

    def ev(self, env):
        return env[self.name]

    def walk(self):
        yield self


@dataclass(frozen=True)
class _Neg:
    arg: object

    def ev(self, env):
        return -self.arg.ev(env)

    def walk(self):
        yield self
        yield from self.arg.walk()


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object

    def ev(self, env):
        a = self.left.ev(env)
        b = self.right.ev(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(b == 0):
                raise EvalError("division by zero")
            return a / b
        # '^'
        return np.power(a, b)

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


@dataclass(frozen=True)
class _Call:
    fn: str
    args: tuple

    def ev(self, env):
        vals = [a.ev(env) for a in self.args]
        if self.fn == "exp":
            return np.exp(vals[0])
        if self.fn == "log":
            if np.any(np.asarray(vals[0]) <= 0):
                raise EvalError("log of a non-positive value")
            return np.log(vals[0])
        if self.fn == "sqrt":
            if np.any(np.asarray(vals[0]) < 0):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(vals[0])
        if self.fn == "abs":
            return np.abs(vals[0])
        if self.fn == "min":
            return np.minimum(vals[0], vals[1])
        if self.fn == "max":
            return np.maximum(vals[0], vals[1])
        # pow
        return np.power(vals[0], vals[1])

    def walk(self):
        yield self
        for a in self.args:
            yield from a.walk()


@dataclass(frozen=True)
class Expression:
    """A validated expression; evaluate with a variable environment."""

    source: str
    root: object
    variables: frozenset

    def __call__(self, env: dict) -> np.ndarray | float:
        # overflow and invalid operations surface as the non-finite result
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.root.ev(env)
        if not np.all(np.isfinite(out)):
            raise EvalError(f"expression {self.source!r} evaluated to a "
                            "non-finite value")
        return out

    @property
    def uses_t(self) -> bool:
        return "t" in self.variables


class _Parser:
    def __init__(self, tokens: list[_Token], allowed_vars: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars
        self.seen: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("syntax error", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = _Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = _Bin(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = _Bin("^", node, self.unary())
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return _Num(float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            if tok.text not in self.allowed:
                if tok.text == "t":
                    raise ParseError("variable 't' is only available in "
                                     "right-hand side expressions", tok.offset)
                if tok.text in _FUNCTIONS:
                    raise ParseError(f"function {tok.text!r} requires "
                                     "arguments", tok.offset)
                raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
            self.seen.add(tok.text)
            return _Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("syntax error", tok.offset)

    def call(self, name_tok: _Token):
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_tok.offset)
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != _FUNCTIONS[name]:
            raise ParseError(
                f"function {name!r} takes {_FUNCTIONS[name]} argument(s), "
                f"got {len(args)}", name_tok.offset)
        return _Call(name, tuple(args))


def variable_names(n: int) -> list[str]:
    names = []
    for j in range(1, n + 1):
        names += [f"x{j}", f"y{j}"]
    return names


def parse_expression(source: str, n: int, context: str = "spatial") -> Expression:
    """Parse and validate an expression for a problem in C^n.

    context "rhs" admits the solution variable t; "spatial" does not.
    n = 0 admits no coordinates, only r2: the form radial data take.
    """
    if context not in ("spatial", "rhs"):
        raise ValueError(f"unknown expression context {context!r}")
    allowed = set(variable_names(n)) | {"r2"}
    if context == "rhs":
        allowed.add("t")
    parser = _Parser(_tokenize(source), allowed)
    root = parser.parse()
    return Expression(source, root, frozenset(parser.seen))


def grid_env(grid, extra: dict | None = None, interior: bool = False) -> dict:
    """Variable environment of broadcastable coordinate arrays.

    With interior=True the axes are restricted to interior nodes, so
    extra entries (such as solution values t) may be interior-shaped.
    """
    axs = [ax[1:-1] if interior else ax for ax in grid.axes]
    mesh = np.meshgrid(*axs, indexing="ij", sparse=True)
    env = {}
    for a, name in enumerate(variable_names(grid.n)):
        env[name] = mesh[a]
    env["r2"] = sum(ax ** 2 for ax in mesh)
    if extra:
        env.update(extra)
    return env


def evaluate_on_grid(expr: Expression, grid, extra: dict | None = None,
                     interior: bool = False) -> np.ndarray:
    """Evaluate over the full node set (or the interior block) of a grid."""
    out = expr(grid_env(grid, extra, interior=interior))
    shape = grid.interior_shape if interior else grid.shape
    return np.array(np.broadcast_to(np.asarray(out, dtype=np.float64), shape))


def radial_env(r: np.ndarray, extra: dict | None = None) -> dict:
    """Environment for radially symmetric data: only r2 (and extras)."""
    env = {"r2": np.asarray(r) ** 2}
    if extra:
        env.update(extra)
    return env
