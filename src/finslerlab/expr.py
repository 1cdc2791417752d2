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
``eval_tree``); a radius function's value is the value of its order-2 jet.
``tree_jet`` is Jet3 arithmetic on the tree node by node, with every node's
domain guards and finite check, as a jet program of the tree's shape (the
tree with its constants taken out) and input jet sizes; ``jets.run``
evaluates it (see :mod:`finslerlab.jets` for when it compiles a kernel), so
trees that differ only in their constants share a kernel.  The profile jets
of :mod:`finslerlab.geometry` record trees the same way.  ``eval_value``
walks a tree on floats with libm, a reference that no evaluation path uses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifierError
from .jets import Jet3, ipow, run

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

    def __getstate__(self):
        return state_without_kernels(self)


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


class Bound:
    """What evaluating some trees needs besides their shapes' kernel, kept on the
    object that owns the trees: their constants and post-order nodes, tree after
    tree, their shapes (each tree with its constants taken out) and the kernels
    ``jets.run`` called for them, by key."""

    __slots__ = ("names", "consts", "floats", "nodes", "shapes", "kernels")

    def __init__(self, trees, names=()):
        self.names = names
        consts: list = []
        self.nodes: list[Node] = []
        self.shapes = tuple(self._walk(tree.root, consts) for tree in trees)
        self.consts = tuple(consts)
        self.floats = all(type(k) is float for k in consts)
        self.kernels: dict = {}

    def _walk(self, node: Node, consts: list):
        """Shape key of node; appends its constants and nodes in post-order."""
        kind = type(node)
        if kind is Const:  # its shape key is None, a variable's is its name
            consts.append(node.value)
            key = None
        elif kind is Var:
            key = node.name
        elif kind is Unary:
            key = (node.op, self._walk(node.arg, consts))
        elif kind is Binary:
            key = (node.op, self._walk(node.left, consts), self._walk(node.right, consts))
        else:
            key = ("^", node.exponent, self._walk(node.base, consts))
        self.nodes.append(node)
        return key

    def locate(self, err: DomainError, index: int) -> None:
        _locate(err, self.nodes[index])


def bound_of(owner, trees=None) -> Bound:
    """owner's Bound, made on first use from the trees that trees() returns
    (default: owner itself, a tree)."""
    try:
        return owner._bound
    except AttributeError:
        bound = Bound([owner], tuple(sorted(owner.variables))) if trees is None else Bound(trees())
        object.__setattr__(owner, "_bound", bound)
        return bound


def state_without_kernels(self) -> dict:
    """The fields of a frozen dataclass: kernels kept on it are found again on use."""
    return {k: v for k, v in vars(self).items() if k != "_bound"}


def tree_jet(tape, key, env: Mapping[str, Jet3]) -> Jet3:
    """The jet of a tree of this shape key on the jets of env, recorded on a
    jets.Tape or computed at once by a jets.Eager.

    Jet3 arithmetic node by node in post-order, each constant the tape's next
    const(), and each node marked, then exponent-checked, guarded and
    finite-checked, so a DomainError names the subexpression of the node that
    raised it.
    """
    if key is None:
        tape.nodes += 1
        return Jet3.constant(tape.const())
    if isinstance(key, str):
        tape.nodes += 1
        return env[key]
    op = key[0]
    args = [tree_jet(tape, key[2], env)] if op == "^" else [tree_jet(tape, k, env)
                                                                for k in key[1:]]
    tape.mark()
    a = args[0]
    if op == "^":
        q = key[1]
        try:
            _check_exponent(q)
        except Exception:  # the kernel raises what the check raises, here
            tape.call(_check_exponent, q)
            out = a
        else:
            out = a.powi(int(q)) if q == int(q) else a.powr(q)
    elif op == "neg":
        out = -a
    elif op in FUNCTIONS:
        out = getattr(a, op)()
    elif op == "+":
        out = a + args[1]
    elif op == "-":
        out = a - args[1]
    elif op == "*":
        out = a * args[1]
    else:
        out = a / args[1]
    tape.check_finite(out.c)
    return out


def _tree_program(tape, shape, names: tuple[str, ...], sizes: tuple[int, ...]) -> tuple:
    """The coefficients of a tree's jet, its inputs jets of these sizes."""
    env = {v: Jet3(tape.param_jet(n)) for v, n in zip(names, sizes)}
    return tree_jet(tape, shape, env).c


def eval_tree(tree: ExpressionTree, env: Mapping[str, Jet3]) -> Jet3:
    """Evaluate to a jet with caller-supplied jets bound to the variables:
    ``jets.run`` of the tree's program, keyed on the tree by the input sizes."""
    bound = bound_of(tree)
    try:
        inputs = [env[v].c for v in bound.names]
    except KeyError:
        missing = tree.variables - set(env)
        raise DomainError(f"no value bound for variable(s) {sorted(missing)}") from None
    sizes = tuple(map(len, inputs))
    return Jet3(run(_tree_program, lambda: (bound.shapes[0], bound.names, sizes), bound, sizes,
                    inputs))


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

    def jet(self, r, order: int = 3) -> Jet3:
        """Univariate jet in r (all s-partials are zero), truncated at order."""
        return eval_tree(self.tree, {"r": Jet3.seed(r, dr=1.0, order=order)})

    def __str__(self) -> str:
        return to_string(self.tree)

