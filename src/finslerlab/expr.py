"""Closed-form expression trees for metric profiles.

Grammar (precedence high to low: ``^``, unary ``-``, ``* /``, ``+ -``)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' signed_number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Identifiers are the variables ``r``, ``s``, ``w`` (whichever the caller
declares) and the functions ``sqrt exp log sin cos atan``.  Exponents are
restricted to integer and half-integer constants; anything else must be
spelled ``exp(y*log(x))``.

Trees evaluate to :class:`~finslerlab.jets.Jet3` (``eval_jet`` /
``eval_tree``) by Jet3 arithmetic node by node in post-order, on floats and
arrays alike; every node checks its exponent, then operates with its domain
guards, then checks that its jet is finite, and a ``DomainError`` names the
innermost subexpression it arose in.  A radius function's value is the value
of its order-2 jet.  ``eval_value`` walks a tree on floats with libm, a
reference that no evaluation path uses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifierError
from .jets import Jet3, ipow, is_finite

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "atan")
VARIABLES = ("r", "s", "w")


# -- tree nodes --------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float  # integer or half-integer


Node = Union[Const, Var, Unary, Binary, Pow]


@dataclass(frozen=True)
class ExpressionTree:
    root: Node
    variables: frozenset[str]

    def __str__(self) -> str:
        return to_string(self)


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed: frozenset[str]):
        self.text = text
        self.allowed = allowed
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos, expected=op)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Binary(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Binary(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> float:
        sign = 1.0
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1.0
            kind, val, pos = self.peek()
        if kind != "number":
            raise ParseError(
                f"expected a numeric exponent, found {val or 'end of input'!r}", pos,
                expected="number",
            )
        self.advance()
        q = sign * float(val)
        if (2.0 * q) != round(2.0 * q):
            raise ParseError(f"exponent {q} is neither integer nor half-integer", pos)
        return q

    def base(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            # Negation applies after any exponent: -x^2 means -(x^2).
            return Unary("neg", self.factor())
        if kind == "number":
            self.advance()
            return Const(float(val))
        if kind == "ident":
            self.advance()
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(val, arg)
            if val in self.allowed:
                return Var(val)
            raise UnknownIdentifierError(val, pos)
        if kind == "op" and val == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected an operand, found {val or 'end of input'!r}", pos)


def parse_expression(text: str, variables) -> ExpressionTree:
    """Parse text over the given subset of the variables r, s, w."""
    allowed = frozenset(variables)
    bad = allowed - set(VARIABLES)
    if bad:
        raise ValueError(f"unsupported variables {sorted(bad)}; choose from {VARIABLES}")
    root = _Parser(text, allowed).parse()
    return ExpressionTree(root, allowed)


# -- printing ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"] if node.op == "neg" else _PREC["atom"]
    if isinstance(node, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _unparse(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _unparse(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({_unparse(node.arg)})"
    if isinstance(node, Pow):
        base = _unparse(node.base)
        if _prec(node.base) < _PREC["atom"]:
            base = f"({base})"
        return f"{base}^{_fmt_number(node.exponent)}"
    left, right = _unparse(node.left), _unparse(node.right)
    p = _PREC[node.op]
    if _prec(node.left) < p:
        left = f"({left})"
    # Parenthesize a same-precedence right operand so left association survives.
    if _prec(node.right) < p or (isinstance(node.right, Binary) and _prec(node.right) == p):
        right = f"({right})"
    return f"{left} {node.op} {right}"


def to_string(tree: ExpressionTree | Node) -> str:
    node = tree.root if isinstance(tree, ExpressionTree) else tree
    return _unparse(node)


# -- evaluation --------------------------------------------------------------


def _check_exponent(q: float):
    if 2.0 * q != round(2.0 * q):  # parser guarantees this; guard direct construction
        raise DomainError(f"unsupported exponent {q}")


def _locate(err: DomainError, node: Node) -> None:
    """Name the subexpression a DomainError arose in, unless an inner one is named."""
    if err.subexpr is None:
        err.subexpr = _unparse(node)
        err.args = (f"{err.args[0]} in '{err.subexpr}'",)


def _eval_jet_node(node: Node, env: Mapping[str, Jet3]) -> Jet3:
    """Jet3 arithmetic on node's subtree, post-order; each node checks its
    exponent, operates and checks that its jet is finite."""
    try:
        kind = type(node)
        if kind is Binary:
            a = _eval_jet_node(node.left, env)
            b = _eval_jet_node(node.right, env)
            op = node.op
            if op == "+":
                out = a + b
            elif op == "-":
                out = a - b
            elif op == "*":
                out = a * b
            else:
                out = a / b
        elif kind is Var:
            return env[node.name]
        elif kind is Const:
            return Jet3.constant(node.value)
        elif kind is Pow:
            a = _eval_jet_node(node.base, env)
            q = node.exponent
            _check_exponent(q)
            out = a.powi(int(q)) if q == int(q) else a.powr(q)
        else:
            a = _eval_jet_node(node.arg, env)
            out = -a if node.op == "neg" else getattr(a, node.op)()
        if not is_finite(out.c):
            raise DomainError("non-finite result")
        return out
    except DomainError as err:
        _locate(err, node)
        raise


def eval_tree(tree: ExpressionTree, env: Mapping[str, Jet3]) -> Jet3:
    """Evaluate to a jet with caller-supplied jets bound to the variables."""
    missing = tree.variables - set(env)
    if missing:
        raise DomainError(f"no value bound for variable(s) {sorted(missing)}")
    return _eval_jet_node(tree.root, env)


def eval_jet(tree: ExpressionTree, r, s) -> Jet3:
    """Jet of a profile phi(r, s) at a point (scalars or broadcastable arrays)."""
    env = {"r": Jet3.seed(r, dr=1.0), "s": Jet3.seed(s, ds=1.0)}
    return eval_tree(tree, env)


def _eval_value_node(node: Node, env: Mapping[str, float]) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        a = _eval_value_node(node.arg, env)
        if node.op == "neg":
            return -a
        try:
            if node.op == "sqrt":
                if a <= 0.0:
                    raise DomainError(f"sqrt of non-positive value {a!r}")
                return math.sqrt(a)
            if node.op == "exp":
                v = math.exp(a)
            elif node.op == "log":
                if a <= 0.0:
                    raise DomainError(f"log of non-positive value {a!r}")
                v = math.log(a)
            elif node.op == "sin":
                v = math.sin(a)
            elif node.op == "cos":
                v = math.cos(a)
            else:
                v = math.atan(a)
        except OverflowError as exc:
            raise DomainError(f"overflow in {node.op}({a!r})") from exc
        return v
    if isinstance(node, Pow):
        a = _eval_value_node(node.base, env)
        q = node.exponent
        if q == int(q):
            k = int(q)
            if k < 0 and abs(a) < 1e-300:
                raise DomainError(f"division by (near-)zero value {a!r}")
            return ipow(a, k)
        if a <= 0.0:
            raise DomainError(f"power {q} of non-positive value {a!r}")
        return ipow(math.sqrt(a), int(2.0 * q))
    left = _eval_value_node(node.left, env)
    right = _eval_value_node(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if abs(right) < 1e-300:
        raise DomainError(f"division by (near-)zero value {right!r}")
    return left / right


def eval_value(tree: ExpressionTree, env: Mapping[str, float]) -> float:
    """The tree's value on floats, walked node by node with libm (a reference:
    evaluation goes through jets)."""
    missing = tree.variables - set(env)
    if missing:
        raise DomainError(f"no value bound for variable(s) {sorted(missing)}")
    v = _eval_value_node(tree.root, env)
    if not math.isfinite(v):
        raise DomainError(f"non-finite result in '{to_string(tree)}'")
    return v


# -- scalar functions of r ---------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """A closed-form function of the radius only."""

    tree: ExpressionTree

    @classmethod
    def from_text(cls, text: str) -> "ScalarFunction":
        return cls(parse_expression(text, {"r"}))

    @classmethod
    def constant(cls, value: float) -> "ScalarFunction":
        return cls(ExpressionTree(Const(float(value)), frozenset()))

    def value(self, r):
        """Value at a scalar r (a float) or at every element of an array of radii:
        the value of the order-2 jet, a bit-exact prefix of the order-3 one."""
        if np.ndim(r) == 0:
            return self.jet(float(r), 2).value
        r = np.asarray(r, dtype=float)
        return np.broadcast_to(self.jet(r, 2).value, r.shape).copy()

    def jet(self, r, order: int = 3, r_order: int = 3) -> Jet3:
        """Univariate jet in r (all s-partials are zero), truncated at order (and r_order)."""
        return eval_tree(self.tree, {"r": Jet3.seed(r, dr=1.0, order=order, r_order=r_order)})

    def __str__(self) -> str:
        return to_string(self.tree)

