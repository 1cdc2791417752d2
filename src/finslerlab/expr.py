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
``eval_tree``) by a flat program over their distinct subtrees, in the
post-order of each subtree's first occurrence.  Subtrees with the same node
kind, operator or name, the same bits (``float.hex``) of their constants and
exponents and the same operand subtrees are computed once, and constants are
prebuilt jets.  Each step keeps a walk's per-node semantics, on floats and
arrays alike: it checks its exponent, operates by Jet3 arithmetic with its
domain guards, then checks that its jet is finite, and a ``DomainError``
names the innermost subexpression it arose in.  So a program gives the jets,
coefficient types and errors of a node-by-node walk, and of several trees
evaluated one by one in order.  A program is built at its trees' first
evaluation and kept by their identity in a bounded table, never on a tree,
which pickles, compares and hashes as its fields; a text parsed again gives
the tree parsed before, and with it its program.  A radius function's value
is the value of its order-2 jet.  ``eval_value`` walks a tree on floats with
libm, a reference that no evaluation path uses.

Radius functions, ScalarFunctions of r and tables with their own ``value``
and ``jet``, are lifted from numbers and strings by ``radius_function`` and
read by ``radial_jets``, their trees as one program on one seed of r: the
Randers profile jet, ``randers.randers_coefficients`` (every Randers
condition and closed form) and ``families.bh_solve_g`` read f, g, h there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import add, methodcaller, mul, neg, sub, truediv
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


#: parsed trees and programs kept per process; either table is emptied when full
KEPT = 256
#: the trees of the texts parsed last, by (text, variables): trees are immutable,
#: so a text parsed again gives the tree, and the program, it gave before
_PARSED: dict = {}


def parse_expression(text: str, variables) -> ExpressionTree:
    """Parse text over the given subset of the variables r, s, w."""
    allowed = frozenset(variables)
    bad = allowed - set(VARIABLES)
    if bad:
        raise ValueError(f"unsupported variables {sorted(bad)}; choose from {VARIABLES}")
    key = (text, allowed)
    tree = _PARSED.get(key)
    if tree is None:
        tree = ExpressionTree(_Parser(text, allowed).parse(), allowed)
        if len(_PARSED) >= KEPT:
            _PARSED.clear()
        _PARSED[key] = tree
    return tree


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


#: the Jet3 operation of each node: operators and method callers, which look the
#: method up on the operand's class at every call
_BINARY = {"+": add, "-": sub, "*": mul, "/": truediv}
_UNARY = {"neg": neg, **{name: methodcaller(name) for name in FUNCTIONS}}


def _bits(v):
    """A key that bit-identical floats share; any other value is a key of its own."""
    return v.hex() if type(v) is float else (type(v), id(v))


class _Emitter:
    """Builds a program: every distinct subtree once, in the post-order of its first
    occurrence.  Subtrees are the same when their node kind, operator or name, the
    bits of their constants and exponents and their operand slots are."""

    __slots__ = ("index", "init", "inputs", "steps")

    def __init__(self):
        self.index = {}   # structural key -> slot
        self.init = []    # per slot: a constant's prebuilt jet, else None
        self.inputs = []  # (variable name, slot)
        self.steps = []   # (operation, operand slot, second operand slot or None, node, slot)

    def _new_slot(self, key, jet=None) -> int:
        slot = self.index[key] = len(self.init)
        self.init.append(jet)
        return slot

    def emit(self, node: Node) -> int:
        """The slot of node's subtree, emitting the subtrees not emitted yet."""
        kind = type(node)
        if kind is Const:
            key = ("c", _bits(node.value))
            slot = self.index.get(key)
            return self._new_slot(key, Jet3.constant(node.value)) if slot is None else slot
        if kind is Var:
            key = ("v", node.name)
            slot = self.index.get(key)
            if slot is None:
                slot = self._new_slot(key)
                self.inputs.append((node.name, slot))
            return slot
        y = None
        if kind is Binary:
            x, y = self.emit(node.left), self.emit(node.right)
            key, operation = (node.op, x, y), _BINARY.get(node.op, truediv)
        elif kind is Pow:
            x, q = self.emit(node.base), node.exponent
            key, operation = ("^", _bits(q), x), _power(q)
        else:
            x = self.emit(node.arg)
            key, operation = (node.op, x), _UNARY.get(node.op) or methodcaller(node.op)
        slot = self.index.get(key)
        if slot is None:
            slot = self._new_slot(key)
            self.steps.append((operation, x, y, node, slot))
        return slot


def _power(q):
    """The operation of a Pow node of exponent q: the exponent check, then powi or powr."""
    def power(base: Jet3) -> Jet3:
        _check_exponent(q)
        return base.powi(int(q)) if q == int(q) else base.powr(q)

    return power


#: programs by the ids of their trees, which each entry holds, so an id stays its
#: tree's: tuple of ids -> (trees, program)
_PROGRAMS: dict = {}


def _program(trees: tuple) -> tuple:
    """The program of the trees, one output per tree: built now unless kept.

    A program is (init, inputs, steps, outputs): the slots' prebuilt constant
    jets, the variables' slots, the steps in evaluation order and the slot of
    each tree's root.
    """
    key = (id(trees[0]),) if len(trees) == 1 else tuple(map(id, trees))  # eval_tree's is hot
    kept = _PROGRAMS.get(key)
    if kept:
        return kept[1]
    out = _Emitter()
    outputs = [out.emit(tree.root) for tree in trees]
    program = out.init, out.inputs, out.steps, outputs
    if len(_PROGRAMS) >= KEPT:
        _PROGRAMS.clear()
    _PROGRAMS[key] = trees, program
    return program


def _run(program: tuple, env: Mapping[str, Jet3]) -> list:
    """The output jets of program, its variables bound to env's jets: each step operates,
    then checks that its jet is finite; a DomainError names the step's subexpression."""
    init, inputs, steps, outputs = program
    vals = init.copy()
    for name, slot in inputs:
        vals[slot] = env[name]
    try:
        for operation, x, y, node, slot in steps:
            out = operation(vals[x]) if y is None else operation(vals[x], vals[y])
            if not is_finite(out.c):
                raise DomainError("non-finite result")
            vals[slot] = out
    except DomainError as err:
        _locate(err, node)
        raise
    return [vals[slot] for slot in outputs]


def _check_bound(variables, env) -> None:
    missing = variables - set(env)
    if missing:
        raise DomainError(f"no value bound for variable(s) {sorted(missing)}")


def eval_tree(tree: ExpressionTree, env: Mapping[str, Jet3]) -> Jet3:
    """Evaluate to a jet with caller-supplied jets bound to the variables."""
    _check_bound(tree.variables, env)
    return _run(_program((tree,)), env)[0]


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
    _check_bound(tree.variables, env)
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


def radius_function(obj):
    """obj as a radius function: a number is a constant, a string an expression in r,
    and anything else (a ScalarFunction, a table with ``value`` and ``jet``) itself."""
    if isinstance(obj, (int, float)):
        return ScalarFunction.constant(float(obj))
    if isinstance(obj, str):
        return ScalarFunction.from_text(obj)
    return obj


def radial_jets(fns, r, order: int = 3, r_order: int = 3) -> list:
    """fn.jet(r, order, r_order) for each radius function fn: the trees among them as
    one program on one seed of r, a table by its own jet.  On an error, what
    evaluating the functions one by one in order raises first."""
    trees = tuple(fn.tree for fn in fns if type(fn) is ScalarFunction)
    try:
        jets = iter(_run(_program(trees),
                         {"r": Jet3.seed(r, dr=1.0, order=order, r_order=r_order)}))
        return [next(jets) if type(fn) is ScalarFunction else fn.jet(r, order, r_order)
                for fn in fns]
    except Exception:  # of any kind: a table ahead of the failing tree raises first
        for fn in fns:
            fn.jet(r, order, r_order)
        raise
