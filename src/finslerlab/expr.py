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

Trees evaluate either to floats (``eval_value``) or to :class:`~finslerlab.jets.Jet3`
(``eval_jet`` / ``eval_tree``).  Jet evaluation runs compiled kernels: one
straight-line Python function per tree shape (the tree with its constants
taken out) and input jet order, performing exactly the float operations of
Jet3 arithmetic on the tree node by node, with the same domain guards and
finite checks.  Trees that differ only in their constants share a kernel, and
a tree keeps the kernels it used, so evaluating it again walks no tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifierError
from .jets import (MUL_TERMS, ORDER, SIZE, TAYLOR, Jet3, ipow, is_finite, powr_taylor,
                   reciprocal_taylor)

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
        """The fields: the kernels eval_tree keeps on the tree are found again on use."""
        return {k: v for k, v in vars(self).items() if k != "_bound"}


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


# A kernel takes the constants as an argument and performs, in post-order, the
# float operations Jet3 arithmetic would: the Leibniz terms of jets.MUL_TERMS,
# Jet3.compose's Horner steps over the Taylor data of jets, every domain guard
# and every node's finite check.  Its coefficients are therefore bit-identical
# to Jet3's for floats and arrays alike, and a DomainError names the
# subexpression of the node that raised it.
#
# When every input coefficient and constant is a Python float, so is every
# intermediate, and the kernel's own arithmetic (it divides only by 6) neither
# warns nor raises; a node's finite check is then a plain sum of its
# coefficients, finite only if they all are, with is_finite deciding the rest.


class _Bound:
    """What evaluating one tree needs besides its shape's kernel, kept on the tree:
    input names, constants, post-order nodes and its kernels by input sizes."""

    __slots__ = ("names", "consts", "floats", "nodes", "shape", "kernels")

    def __init__(self, tree: ExpressionTree):
        self.names = tuple(sorted(tree.variables))
        consts: list = []
        self.nodes: list[Node] = []
        self.shape = self._walk(tree.root, consts)
        self.consts = tuple(consts)
        self.floats = all(type(k) is float for k in consts)
        self.kernels: list = []

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


class _Emitter:
    """Source lines of one kernel, one local name per jet coefficient."""

    def __init__(self, names, sizes):
        self.lines: list[str] = []
        self.made: list[str] = []  # locals t0, t1, ... that may still be read
        self.free: list[str] = []  # locals no later line reads
        self.index = 0  # post-order index of the next node
        self.consts = 0
        self.checks = 0
        self.exponents: dict[str, float] = {}
        # input i's coefficients, named apart from every other local whatever the variable
        self.inputs = {v: [f"i{i}_{j}" for j in range(n)]
                       for i, (v, n) in enumerate(zip(names, sizes))}

    def local(self) -> str:
        """A local to assign: a dead one when there is one, so that rebinding it
        frees its old value (an array's buffer, say) as Jet3 arithmetic would."""
        name = self.free.pop() if self.free else f"t{len(self.made) + len(self.free)}"
        self.made.append(name)
        return name

    def let(self, expr: str) -> str:
        name = self.local()
        self.lines.append(f"{name} = {expr}")
        return name

    def node(self, key) -> list[str]:
        """Coefficient names of the node with this shape key, after its subtree.

        Only the node's own coefficients are read after it: the other locals
        its lines assigned are dead from here on.
        """
        mark = len(self.made)
        out = self._node(key)
        made = dict.fromkeys(self.made[mark:])
        self.free += [x for x in made if x not in out]
        self.made[mark:] = [x for x in made if x in out]
        return out

    def _node(self, key) -> list[str]:
        if key is None:
            self.index += 1
            k = f"k{self.consts}"
            self.consts += 1
            return [k] + [self.let(f"{k} * 0.0")] * (SIZE[ORDER] - 1)
        if isinstance(key, str):
            self.index += 1
            return self.inputs[key]
        op = key[0]
        args = [self.node(key[2])] if op == "^" else [self.node(sub) for sub in key[1:]]
        self.lines.append(f"at = {self.index}")
        self.index += 1
        if op == "^":
            out = self.power(args[0], key[1])
        elif op == "neg":
            out = [self.let(f"-{x}") for x in args[0]]
        elif op in FUNCTIONS:
            out = self.compose(args[0], f"{op}_taylor({args[0][0]})")
        elif op == "*":
            out = self.product(*args)
        elif op == "/":
            a, b = args
            out = self.product(a, self.compose(b, f"reciprocal_taylor({b[0]})"))
        else:
            out = [self.let(f"{x} {op} {y}") for x, y in zip(*args)]
        self.checks += 1
        self.lines.append(f"if not (scalar and ({' + '.join(out)}) * 0.0 == 0.0 "
                          f"or is_finite(({', '.join(out)}))): "
                          f"raise DomainError('non-finite result')")
        return out

    def product(self, x, y) -> list[str]:
        """Jet3.__mul__ of two jets, slot by slot from MUL_TERMS."""
        return [self.let(" + ".join(f"{x[p]} * {y[q]}" + ("" if w == 1.0 else f" * {w!r}")
                                    for p, q, w in terms))
                for terms in MUL_TERMS[:min(len(x), len(y))]]

    def compose(self, a, taylor: str) -> list[str]:
        """Jet3.compose of jet a with the Taylor data the call taylor returns."""
        f = [self.local() for _ in range(4)]
        self.lines.append(f"{', '.join(f)} = {taylor}")
        self.lines.append(f"if type({a[0]}) is float: "
                          f"{', '.join(f)} = {', '.join(f'float({x})' for x in f)}")
        gh = [self.let(f"{a[0]} * 0.0"), *a[1:]]
        scale = self.let(f"{f[3]} / 6.0")
        p = [self.let(f"{x} * {scale}") for x in gh]
        p[0] = self.let(f"{p[0]} + {f[2]} * 0.5")
        p = self.product(p, gh)
        p[0] = self.let(f"{p[0]} + {f[1]}")
        p = self.product(p, gh)
        p[0] = self.let(f"{p[0]} + {f[0]}")
        return p

    def power(self, a, q: float) -> list[str]:
        """Jet3.powi or Jet3.powr of jet a, after the exponent check."""
        name = f"q{len(self.exponents)}"
        self.exponents[name] = q  # q itself, not its repr, reaches the kernel
        try:
            _check_exponent(q)
        except Exception:  # the kernel raises what the check raises, here
            self.lines.append(f"check_exponent({name})")
            return a
        if q != int(q):
            return self.compose(a, f"powr_taylor({a[0]}, {name})")
        k = int(q)
        if k < 0:
            a, k = self.compose(a, f"reciprocal_taylor({a[0]})"), -k
        if k == 0:
            one = self.let(f"{a[0]} * 0.0 + 1.0")
            return [one] + [self.let(f"{one} * 0.0")] * (len(a) - 1)
        acc = None
        while True:  # jets._pow_pos
            if k & 1:
                acc = a if acc is None else self.product(acc, a)
            k >>= 1
            if not k:
                return acc
            a = self.product(a, a)


#: what kernels call besides arithmetic
_KERNEL_GLOBALS = {"DomainError": DomainError, "is_finite": is_finite,
                   "check_exponent": _check_exponent, "locate": _locate,
                   "reciprocal_taylor": reciprocal_taylor, "powr_taylor": powr_taylor,
                   **{f"{op}_taylor": fn for op, fn in TAYLOR.items()}}


@lru_cache(maxsize=256)
def _compile(shape, names: tuple[str, ...], sizes: tuple[int, ...]):
    """The kernel of a tree shape for input jets with these coefficient counts.

    It takes a _Bound of the shape and the coefficient tuples of the inputs,
    and returns the coefficients of the tree's jet.
    """
    em = _Emitter(names, sizes)
    out = em.node(shape)
    params = [f"i{i}" for i in range(len(names))]
    coeffs = [x for v in names for x in em.inputs[v]]
    head = [f"{', '.join(em.inputs[v])}, = {p}" for v, p in zip(names, params)]
    if em.consts:
        head.append(f"{', '.join(f'k{i}' for i in range(em.consts))}, = bound.consts")
    if em.checks:
        head.append(" and ".join(["scalar = bound.floats", *(f"type({x}) is float" for x in coeffs)]))
    source = "\n    ".join([f"def kernel(bound, {', '.join(params)}):", *head, "at = 0", "try:",
                            *(f"    {line}" for line in em.lines), "    pass",
                            "except DomainError as err:",
                            "    locate(err, bound.nodes[at])", "    raise",
                            f"return ({', '.join(out)},)"])
    namespace = {**_KERNEL_GLOBALS, **em.exponents}
    exec(compile(source, f"<jet kernel of {len(em.lines)} lines>", "exec"), namespace)
    return namespace["kernel"]


def eval_tree(tree: ExpressionTree, env: Mapping[str, Jet3]) -> Jet3:
    """Evaluate to a jet with caller-supplied jets bound to the variables.

    The tree's kernel for the input sizes is looked up on the tree itself after
    the first call, so a call hashes nothing.
    """
    try:
        bound = tree._bound
    except AttributeError:
        bound = _Bound(tree)
        object.__setattr__(tree, "_bound", bound)
    try:
        inputs = [env[v].c for v in bound.names]
    except KeyError:
        missing = tree.variables - set(env)
        raise DomainError(f"no value bound for variable(s) {sorted(missing)}") from None
    sizes = list(map(len, inputs))
    for key, kernel in bound.kernels:
        if key == sizes:
            break
    else:
        kernel = _compile(bound.shape, bound.names, tuple(sizes))
        bound.kernels.append((sizes, kernel))
    return Jet3(kernel(bound, *inputs))


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
    """Fast scalar evaluation (no derivative tracking)."""
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
        """Value at a scalar r (a float) or at every element of an array of radii."""
        if np.ndim(r) == 0:
            return eval_value(self.tree, {"r": float(r)})
        r = np.asarray(r, dtype=float)
        return np.broadcast_to(self.jet(r).value, r.shape).copy()

    def jet(self, r, order: int = 3) -> Jet3:
        """Univariate jet in r (all s-partials are zero), truncated at order."""
        return eval_tree(self.tree, {"r": Jet3.seed(r, dr=1.0, order=order)})

    def __str__(self) -> str:
        return to_string(self.tree)

