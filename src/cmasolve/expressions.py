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
functions exp, log, sqrt, abs, min, max, pow.

The parser builds the evaluator directly: each grammar rule returns a
function env -> value, and every operator and function is one entry of
the table _OPS (name -> arity, numpy function), whose log, sqrt and
division entries check their domain.  + - and * / chains fold left in a
loop, so a long sum costs no recursion.  Parentheses, unary minus, the
exponent of ^ and the arguments of a call each open a nesting level;
more than MAX_NESTING levels (the expression itself being the first) is
a parse error, which bounds the recursion of parsing and evaluation.
Parse errors carry the byte offset of the offending token; domain
violations and non-finite results raise EvalError at evaluation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

# deepest nesting accepted; parsing recurses about five frames per level
MAX_NESTING = 32


class ExpressionError(ValueError):
    pass


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ExpressionError):
    pass


def _divide(a, b):
    if np.any(b == 0):
        raise EvalError("division by zero")
    return np.divide(a, b)


def _log(a):
    if np.any(a <= 0):
        raise EvalError("log of a non-positive value")
    return np.log(a)


def _sqrt(a):
    if np.any(a < 0):
        raise EvalError("sqrt of a negative value")
    return np.sqrt(a)


# name -> (arity, function); identifiers name the callable functions
_OPS = {
    "+": (2, np.add), "-": (2, np.subtract),
    "*": (2, np.multiply), "/": (2, _divide),
    "^": (2, np.power), "unary -": (1, np.negative),
    "exp": (1, np.exp), "log": (1, _log), "sqrt": (1, _sqrt),
    "abs": (1, np.abs), "min": (2, np.minimum), "max": (2, np.maximum),
    "pow": (2, np.power),
}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples; an operator's kind is its text."""
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "op":
            kind = m.group()
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


def _apply(name: str, args: list) -> Callable:
    fn = _OPS[name][1]
    if len(args) == 1:
        (a,) = args
        return lambda env: fn(a(env))
    a, b = args
    return lambda env: fn(a(env), b(env))


def _fold(first: Callable, rest: list) -> Callable:
    """Left fold of first and (function, operand) pairs, in a loop."""
    if not rest:
        return first

    def ev(env):
        acc = first(env)
        for fn, operand in rest:
            acc = fn(acc, operand(env))
        return acc
    return ev


@dataclass(frozen=True)
class Expression:
    """A validated expression; evaluate with a variable environment."""

    source: str
    fn: Callable
    variables: frozenset

    def __call__(self, env: dict) -> np.ndarray | float:
        # every floating-point fault (overflow, 0 ^ -1, inf - inf)
        # surfaces as the non-finite result rejected below
        with np.errstate(all="ignore"):
            out = self.fn(env)
        if not np.all(np.isfinite(out)):
            raise EvalError(f"expression {self.source!r} evaluated to a "
                            "non-finite value")
        return out

    @property
    def uses_t(self) -> bool:
        return "t" in self.variables


class _Parser:
    """Recursive descent; each rule returns a function env -> value."""

    def __init__(self, source: str, allowed_vars: set[str]):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.allowed = allowed_vars
        self.seen: set[str] = set()
        self.depth = 1

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r}", self.tokens[self.pos][2])
        self.advance()

    def nested(self, rule, offset: int):
        """rule() one nesting level deeper; offset locates the opener."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} "
                             "levels", offset)
        self.depth += 1
        out = rule()
        self.depth -= 1
        return out

    def parse(self):
        fn = self.expr()
        kind, _, offset = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("syntax error", offset)
        return fn

    def chain(self, operand, ops: tuple[str, str]):
        first = operand()
        rest = []
        while self.peek() in ops:
            rest.append((_OPS[self.advance()[0]][1], operand()))
        return _fold(first, rest)

    def expr(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.unary, ("*", "/"))

    def unary(self):
        if self.peek() == "-":
            offset = self.advance()[2]
            return _apply("unary -", [self.nested(self.unary, offset)])
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        offset = self.advance()[2]
        return _apply("^", [base, self.nested(self.unary, offset)])

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            return lambda env: value
        if kind == "ident":
            if self.peek() == "(":
                return self.call(text, offset)
            if text not in self.allowed:
                if text == "t":
                    raise ParseError("variable 't' is only available in "
                                     "right-hand side expressions", offset)
                if text in _OPS:
                    raise ParseError(f"function {text!r} requires "
                                     "arguments", offset)
                raise ParseError(f"unknown identifier {text!r}", offset)
            self.seen.add(text)
            return lambda env: env[text]
        if kind == "(":
            inner = self.nested(self.expr, offset)
            self.expect(")")
            return inner
        raise ParseError("syntax error", offset)

    def call(self, name: str, offset: int):
        if name not in _OPS:
            raise ParseError(f"unknown function {name!r}", offset)
        self.expect("(")
        args = self.nested(self.arguments, offset)
        arity = _OPS[name][0]
        if len(args) != arity:
            raise ParseError(f"function {name!r} takes {arity} argument(s), "
                             f"got {len(args)}", offset)
        return _apply(name, args)

    def arguments(self):
        args = [self.expr()]
        while self.peek() == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        return args


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
    parser = _Parser(source, allowed)
    fn = parser.parse()
    return Expression(source, fn, frozenset(parser.seen))


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
    # an overflow surfaces as the non-finite value evaluation rejects
    with np.errstate(over="ignore"):
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


def radial_env(r: np.ndarray) -> dict:
    """Environment for radially symmetric data: only r2."""
    with np.errstate(over="ignore"):
        return {"r2": np.asarray(r) ** 2}
