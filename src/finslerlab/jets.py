"""Truncated bivariate Taylor jets.

A ``Jet3`` stores the value of a function of (r, s) together with its partial
derivatives d^a_r d^b_s up to total order a + b <= k, for a truncation order
k of 2 or 3.  The raw coefficients are stored by total degree::

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), (3,0), (2,1), (1,2), (0,3)

so an order-k jet is a prefix of this list: 6 coefficients for order 2, 10 for
order 3.  Arithmetic propagates derivatives exactly (Leibniz rule for products,
truncated Taylor composition for elementary functions), so jets act as
forward-mode AD with no truncation error up to their order.  A coefficient
depends only on coefficients of no higher degree, so an order-2 jet carries
the first 6 coefficients of the order-3 jet bit for bit; where jets of two
orders meet, the result takes the lower order.

Coefficients may be python floats or numpy arrays of a common broadcastable
shape; all operations vectorize over the array case.  The product is the
Leibniz rule written out slot by slot and ``is_finite`` costs one reduction, so
a scalar jet operation costs about what its arithmetic costs.

Code that computes a jet can also be recorded once and replayed as one
straight-line function, a kernel (forward-mode taping; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 6): on ``Sym``
coefficients, Jet3 arithmetic appends its float operations to a ``Tape``
instead of performing them, and the tape compiles them.

Such code is a jet program, ``program(tape, *static)``, and ``run`` is the one
way to evaluate one; the expression trees of :mod:`finslerlab.expr` and the
Randers and Berwald-family profile jets of :mod:`finslerlab.geometry` all go
through it.  Its policy: any array argument runs the program at once by Jet3
arithmetic (``Eager``), with nothing to compile; float arguments call the
program's kernel, compiled once per program and static arguments in the one
kernel cache (``kernel_of``) and kept on the owner's ``bound`` under a small
key, so a later call neither builds static arguments nor hashes them.  Both
give the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, neg, sub

import numpy as np

from .errors import DomainError

ORDER = 3
#: (a, b) index pairs by total degree; position in this tuple is the storage slot.
INDICES = tuple((d - b, b) for d in range(ORDER + 1) for b in range(d + 1))
_POS = {ab: k for k, ab in enumerate(INDICES)}
#: number of coefficients of a jet of each truncation order
SIZE = {2: 6, 3: 10}

#: magnitude below which a divisor counts as zero
DIV_EPS = 1e-300


def _like_zero(v):
    """A zero with the same array shape as v (scalar 0.0 for scalars)."""
    return v * 0.0


def _pow_pos(base, k: int):
    """base**k for k >= 1 by repeated squaring and multiplication."""
    acc = None
    while True:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if not k:
            return acc
        base = base * base


def ipow(x, k: int):
    """x**k for a float or array x and integer k, by repeated multiplication.

    Unlike ``**`` this never calls the platform's pow or numpy's SIMD-dispatched
    power loop, so the result is the same bit pattern on every machine.
    Negative k takes the reciprocal first, as Jet3.powi does.
    """
    if k < 0:
        return _pow_pos(1.0 / x, -k)
    if k == 0:
        return _like_zero(x) + 1.0
    return _pow_pos(x, k)


class Jet3:
    """Value plus all (r, s) partials of total order <= 2 or <= 3."""

    __slots__ = ("c",)

    def __init__(self, coefficients):
        self.c = tuple(coefficients)

    @property
    def order(self) -> int:
        return 2 if len(self.c) == SIZE[2] else 3

    @classmethod
    def constant(cls, value, order: int = ORDER) -> "Jet3":
        return cls((value, *[_like_zero(value)] * (SIZE[order] - 1)))

    @classmethod
    def seed(cls, value, dr=0.0, ds=0.0, order: int = ORDER) -> "Jet3":
        """Jet of value + dr (r - r0) + ds (s - s0), truncated at the given order."""
        return cls((value, dr, ds, *[0.0] * (SIZE[order] - 3)))

    @classmethod
    def radial(cls, derivs, order: int = ORDER) -> "Jet3":
        """Jet of a function of r alone; derivs[a] is its a-th r-derivative, a = 0..order."""
        c = [0.0] * SIZE[order]
        for a in range(order + 1):
            c[_POS[(a, 0)]] = derivs[a]
        return cls(c)

    def d(self, a: int, b: int):
        """Raw partial derivative d^a_r d^b_s; raises ValueError beyond the jet's order."""
        try:
            return self.c[_POS[(a, b)]]
        except (KeyError, IndexError):
            raise ValueError(
                f"an order-{self.order} jet carries no d^{a}_r d^{b}_s coefficient") from None

    @property
    def value(self):
        return self.c[0]

    def deriv(self, dr: int = 0, ds: int = 0) -> "Jet3":
        """Jet of the partial derivative d^dr_r d^ds_s of this function.

        It keeps this jet's order, but only coefficients of total order
        <= order - dr - ds are meaningful; the rest are zero-filled.  Truncated
        arithmetic never feeds high-order coefficients into low-order results,
        so this is safe whenever the consumer needs the shifted jet to reduced
        order only.
        """
        order = self.order
        out = [0.0] * len(self.c)
        for k, (a, b) in enumerate(INDICES[:len(self.c)]):
            if a + dr + b + ds <= order:
                out[k] = self.c[_POS[(a + dr, b + ds)]]
        return Jet3(out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(map(add, self.c, other.c))
        return Jet3((self.c[0] + other, *self.c[1:]))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet3):
            return Jet3(map(sub, self.c, other.c))
        return Jet3((self.c[0] - other, *self.c[1:]))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet3(map(neg, self.c))

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(map(mul, self.c, repeat(other)))
        # slots in INDICES order; products times weights != 1, summed left to
        # right; the first 6 lines are the order-2 product
        x, y = self.c, other.c
        x0, x1, x2, x3, x4, x5 = x[:6]
        y0, y1, y2, y3, y4, y5 = y[:6]
        low = (
            x0 * y0,
            x0 * y1 + x1 * y0,
            x0 * y2 + x2 * y0,
            x0 * y3 + x1 * y1 * 2.0 + x3 * y0,
            x0 * y4 + x2 * y1 + x1 * y2 + x4 * y0,
            x0 * y5 + x2 * y2 * 2.0 + x5 * y0,
        )
        if len(x) == 6 or len(y) == 6:
            return Jet3(low)
        x6, x7, x8, x9 = x[6:]
        y6, y7, y8, y9 = y[6:]
        return Jet3((
            *low,
            x0 * y6 + x1 * y3 * 3.0 + x3 * y1 * 3.0 + x6 * y0,
            x0 * y7 + x2 * y3 + x1 * y4 * 2.0 + x4 * y1 * 2.0 + x3 * y2 + x7 * y0,
            x0 * y8 + x2 * y4 * 2.0 + x5 * y1 + x1 * y5 + x4 * y2 * 2.0 + x8 * y0,
            x0 * y9 + x2 * y5 * 3.0 + x5 * y2 * 3.0 + x9 * y0,
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet3):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "Jet3":
        return self._compose_with(reciprocal_taylor)

    # -- composition with a smooth univariate function ---------------------

    def compose(self, f0, f1, f2, f3) -> "Jet3":
        """Jet of f(self) given derivatives f0..f3 of f at self.value.

        Exact through the jet's order: with the constant part stripped the
        remainder is nilpotent, so a cubic Taylor polynomial of f suffices.
        A scalar jet keeps Python-float coefficients: the numpy float64
        scalars that np.exp, np.sqrt and friends return would make every later
        product about three times slower, and converting them changes no bit.
        """
        c = self.c
        if type(c[0]) is float:
            f0, f1, f2, f3 = float(f0), float(f1), float(f2), float(f3)
        gh = Jet3((_like_zero(c[0]), *c[1:]))
        return ((gh * (f3 / 6.0) + f2 * 0.5) * gh + f1) * gh + f0

    def _compose_with(self, taylor, *args) -> "Jet3":
        """compose with taylor(value, *args), the guarded Taylor data of f; on a
        tape the call is recorded."""
        v = self.c[0]
        if type(v) is Sym:
            return self.compose(*v.tape.taylor(taylor, v, args))
        return self.compose(*taylor(v, *args))

    # -- elementary functions ----------------------------------------------

    def sqrt(self) -> "Jet3":
        return self._compose_with(_sqrt_taylor)

    def exp(self) -> "Jet3":
        return self._compose_with(_exp_taylor)

    def log(self) -> "Jet3":
        return self._compose_with(_log_taylor)

    def sin(self) -> "Jet3":
        return self._compose_with(_sin_taylor)

    def cos(self) -> "Jet3":
        return self._compose_with(_cos_taylor)

    def atan(self) -> "Jet3":
        return self._compose_with(_atan_taylor)

    def powi(self, k: int) -> "Jet3":
        """Integer power; exact at zero base for k >= 0 (repeated products)."""
        if k < 0:
            return self._reciprocal().powi(-k)
        if k == 0:
            return Jet3.constant(_like_zero(self.value) + 1.0, self.order)
        return _pow_pos(self, k)

    def powr(self, q: float) -> "Jet3":
        """Half-integer power q of a positive base: sqrt(v) to the integer 2q."""
        return self._compose_with(powr_taylor, q)


# -- Taylor data of the elementary functions ------------------------------------
# Each returns f, f', f'', f''' at the value v (float or array) after its domain
# guard; Jet3.compose takes them, and a kernel calls them as Jet3 would.


def _sqrt_taylor(v):
    if type(v) is float and 1e-100 < v < 1e100:
        # Python floats round as numpy's float64 scalars do, and in this range
        # nothing below under- or overflows, so no warning or error differs
        sv = math.sqrt(v)
        return sv, 0.5 / sv, -0.25 / (sv * v), 0.375 / (sv * v * v)
    bad = v <= 0.0
    if any_true(bad):
        raise DomainError(f"sqrt of non-positive value {_fmt(v, bad)}")
    sv = np.sqrt(v)
    return sv, 0.5 / sv, -0.25 / (sv * v), 0.375 / (sv * v * v)


def _exp_taylor(v):
    ev = np.exp(v)
    return ev, ev, ev, ev


def _log_taylor(v):
    bad = v <= 0.0
    if any_true(bad):
        raise DomainError(f"log of non-positive value {_fmt(v, bad)}")
    iv = 1.0 / v
    iv2 = iv * iv
    return np.log(v), iv, -iv2, 2.0 * (iv2 * iv)


def _sin_taylor(v):
    sv, cv = np.sin(v), np.cos(v)
    return sv, cv, -sv, -cv


def _cos_taylor(v):
    sv, cv = np.sin(v), np.cos(v)
    return cv, -sv, -cv, sv


def _atan_taylor(v):
    q = 1.0 / (1.0 + v * v)
    return np.arctan(v), q, -2.0 * v * q * q, (6.0 * v * v - 2.0) * (q * q * q)


def reciprocal_taylor(v):
    """Taylor data of 1/x at v, after the near-zero guard."""
    bad = abs(v) < DIV_EPS
    if any_true(bad):
        raise DomainError(f"division by (near-)zero value {_fmt(v, bad)}")
    iv = 1.0 / v
    iv2 = iv * iv
    return iv, -iv2, 2.0 * (iv2 * iv), -6.0 * (iv2 * iv2)


def powr_taylor(v, q: float):
    """Taylor data of x^q for a half-integer q at v > 0: sqrt(v) to the integer 2q."""
    bad = v <= 0.0
    if any_true(bad):
        raise DomainError(f"power {q} of non-positive value {_fmt(v, bad)}")
    f0 = ipow(np.sqrt(v), int(2.0 * q))
    f1 = q * f0 / v
    f2 = (q - 1.0) * f1 / v
    f3 = (q - 2.0) * f2 / v
    return f0, f1, f2, f3


def any_true(mask) -> bool:
    """np.any(mask) without its dispatch cost: mask.any() for an array, else bool(mask)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def is_finite(c) -> bool:
    """True when every one of the jet coefficients c is finite.

    A finite sum proves it, since inf and NaN propagate; a non-finite sum, which
    finite terms can also give by overflowing, is checked term by term."""
    try:  # scalar coefficients: fsum never warns; it raises on overflow and inf - inf
        if math.isfinite(math.fsum(c)):
            return True
    except (OverflowError, ValueError):
        pass
    except TypeError:  # array coefficients
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(sum(c)).all():
                return True
    return all(bool(np.all(np.isfinite(x))) for x in c)


def _fmt(v, bad) -> str:
    """v as a float, or for an array its first element where the mask bad is set."""
    a = np.asarray(v)
    if a.size == 1:  # a scalar, or one radius replayed by batch_radii
        return repr(float(a.flat[0]))
    return f"(array, e.g. {float(a[np.broadcast_to(bad, a.shape)].flat[0])!r})"


# -- recording Jet3 arithmetic into kernels -------------------------------------
# A kernel performs exactly the float operations of the Jet3 arithmetic it was
# recorded from, on the same operands and in the same order, so its
# coefficients are Jet3's bit for bit, for floats and arrays alike, and it
# warns and raises where Jet3 would.  Arithmetic on two Python floats (a seed's
# 1.0 and 0.0) is done while recording, as it would be while computing.  An
# operation whose result is read once is written into the line that reads it,
# unless that would move it past another line: the source is one line per
# coefficient of most Jet3 operations, and a local no later line reads is
# reused, so that rebinding it frees an array's buffer as Jet3 arithmetic would.

_OP, _CALL, _STMT = "op", "call", "stmt"
#: precedence of each operator in kernel source; names and literals bind tightest
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
_ATOM = 4
#: a longer single-use expression gets a line of its own
_MAX_INLINE = 240


class Sym:
    """A jet coefficient on a tape: arithmetic on it is recorded, not performed."""

    __slots__ = ("tape", "id")

    def __init__(self, tape: "Tape", ident: int):
        self.tape = tape
        self.id = ident

    def __add__(self, other):
        return self.tape.op("+", self, other)

    def __radd__(self, other):
        return self.tape.op("+", other, self)

    def __sub__(self, other):
        return self.tape.op("-", self, other)

    def __rsub__(self, other):
        return self.tape.op("-", other, self)

    def __mul__(self, other):
        return self.tape.op("*", self, other)

    def __rmul__(self, other):
        return self.tape.op("*", other, self)

    def __truediv__(self, other):
        return self.tape.op("/", self, other)

    def __rtruediv__(self, other):
        return self.tape.op("/", other, self)

    def __neg__(self):
        return self.tape.op("neg", self, None)

    def __bool__(self):
        raise TypeError("a recorded coefficient has no value to branch on")


class Tape:
    """Instructions recorded from Jet3 arithmetic on Sym coefficients, and the
    kernel they compile to.

    The kernel is ``kernel(bound, *params)`` and returns the coefficients
    given to ``compile``.  ``bound`` supplies ``consts``, the values of the
    const() coefficients in order, ``floats``, whether they are all Python
    floats, ``locate(err, i)``, which names node i of what was recorded
    in a DomainError raised after mark() recorded i, and ``kernels``, the
    dict in which ``run`` keeps the kernels it called for them.
    """

    def __init__(self):
        self.code: list = []
        self.uses: list[int] = []  # per value id
        self.names: dict[int, str] = {}  # value id -> parameter or constant name
        self.head: list[str] = []  # parameter unpacking
        self.params: list[str] = []
        self.scalars: list[str] = []  # inputs whose types make a call all-float
        self.namespace: dict = {"DomainError": DomainError, "is_finite": is_finite}
        self.consts = 0
        self.nodes = 0  # nodes marked so far
        self.marked = self.checked = False

    # -- recording -------------------------------------------------------------

    def _value(self, name: str | None = None) -> Sym:
        sym = Sym(self, len(self.uses))
        self.uses.append(0)
        if name is not None:
            self.names[sym.id] = name
        return sym

    def _read(self, operands) -> None:
        for v in operands:
            if type(v) is Sym:
                self.uses[v.id] += 1

    def op(self, op: str, a, b) -> Sym:
        uses = self.uses
        out = Sym(self, len(uses))
        uses.append(0)
        if type(a) is Sym:
            uses[a.id] += 1
        if type(b) is Sym:
            uses[b.id] += 1
        self.code.append((_OP, out.id, op, a, b))
        return out

    def param(self) -> Sym:
        """The next kernel argument, a float or an array."""
        name = f"p{len(self.params)}"
        self.params.append(name)
        self.scalars.append(name)
        return self._value(name)

    def param_jet(self, size: int) -> list[Sym]:
        """The next kernel argument, a tuple of size jet coefficients."""
        name = f"p{len(self.params)}"
        self.params.append(name)
        names = [f"{name}_{j}" for j in range(size)]
        self.head.append(f"{', '.join(names)}, = {name}")
        self.scalars += names
        return [self._value(n) for n in names]

    def const(self) -> Sym:
        """The next of bound.consts."""
        self.consts += 1
        return self._value(f"k{self.consts - 1}")

    def call(self, fn, *args, results: int = 0) -> list[Sym]:
        """fn(*args) at this point of the kernel, giving results coefficients."""
        name = fn.__name__.lstrip("_")
        while self.namespace.setdefault(name, fn) is not fn:
            name += "_"
        outs = [self._value() for _ in range(results)]
        self._read(args)
        self.code.append((_CALL, [v.id for v in outs], name, args))
        return outs

    def stmt(self, template: str, *operands) -> None:
        """A statement: template with {0}, {1}, ... standing for the operands."""
        self._read(operands)
        self.code.append((_STMT, template, operands))

    def taylor(self, fn, v: Sym, args) -> list[Sym]:
        """f, f', f'', f''' = fn(v, *args) as Jet3.compose takes them: Python
        floats when v is one."""
        f = self.call(fn, v, *args, results=4)
        self.stmt("if type({0}) is float: {1}, {2}, {3}, {4} = "
                  "float({1}), float({2}), float({3}), float({4})", v, *f)
        return f

    def mark(self) -> None:
        """A DomainError raised from here on names the next node."""
        self.marked = True
        self.stmt(f"at = {self.nodes}")
        self.nodes += 1

    def unmark(self) -> None:
        """A DomainError raised from here on names no node."""
        if self.marked:
            self.stmt("at = -1")

    def check_finite(self, coeffs) -> None:
        """DomainError('non-finite result') unless every coefficient is finite.

        When every input is a Python float so is every coefficient, and their
        plain sum is finite only if they all are; is_finite decides the rest.
        """
        self.checked = True
        slots = [f"{{{i}}}" for i in range(len(coeffs))]
        self.stmt(f"if not (scalar and ({' + '.join(slots)}) * 0.0 == 0.0 or "
                  f"is_finite(({', '.join(slots)},))): raise DomainError('non-finite result')",
                  *coeffs)

    # -- compiling -------------------------------------------------------------

    def compile(self, outputs):
        """The kernel returning the tuple of outputs (coefficients or floats)."""
        body = _Writer(self).lines(outputs)
        head = [f"def kernel(bound, {', '.join(self.params)}):", *self.head]
        if self.consts:
            head.append(f"{', '.join(f'k{i}' for i in range(self.consts))}, = bound.consts")
        if self.checked:
            head.append(" and ".join(["scalar = bound.floats",
                                      *(f"type({x}) is float" for x in self.scalars)]))
        *body, ret = body
        if self.marked:
            body = ["at = -1", "try:", *(f"    {line}" for line in body), "    pass",
                    "except DomainError as err:", "    if at >= 0:",
                    "        bound.locate(err, at)", "    raise"]
        source = "\n    ".join([*head, *body, ret])
        namespace = dict(self.namespace)
        exec(compile(source, f"<jet kernel of {len(body)} lines>", "exec"), namespace)
        return namespace["kernel"]


class Eager:
    """The Tape interface carried out at once: a program that records a kernel
    on a Tape computes its jet coefficients here, by Jet3 arithmetic.

    ``args`` are the kernel's arguments after ``bound``.  On large arrays a
    program run eagerly is 10-25% slower than its kernel (every intermediate
    jet stays alive, where a kernel reuses dead locals), but it compiles
    nothing, and array arguments seldom recur often enough to repay a compile.
    """

    def __init__(self, bound, args):
        self.bound = bound
        self.args = iter(args)
        self.consts = iter(bound.consts)
        self.nodes = 0
        self.at = -1

    def run(self, program, *static):
        """program(self, *static), a DomainError named as the kernel names it."""
        try:
            return program(self, *static)
        except DomainError as err:
            if self.at >= 0:
                self.bound.locate(err, self.at)
            raise

    def param(self):
        return next(self.args)

    def param_jet(self, size: int) -> list:
        return list(next(self.args))

    def const(self):
        return next(self.consts)

    def call(self, fn, *args, results: int = 0) -> list:
        out = fn(*args)
        return list(out) if results else []

    def mark(self) -> None:
        self.at = self.nodes
        self.nodes += 1

    def unmark(self) -> None:
        self.at = -1

    def check_finite(self, coeffs) -> None:
        if not is_finite(coeffs):
            raise DomainError("non-finite result")


@lru_cache(maxsize=256)
def kernel_of(program, *static):
    """The kernel that program(tape, *static), returning jet coefficients, records;
    the one kernel cache, so owners of one shape share a kernel."""
    tape = Tape()
    return tape.compile(program(tape, *static))


def run(program, static, bound, key, args) -> tuple:
    """The jet coefficients program(tape, *static()) gives on args, the kernel's
    arguments after bound.

    An ndarray argument, or a tuple of jet coefficients whose value is one,
    runs the program at once (``Eager``).  Otherwise the kernel kept in
    bound.kernels under key runs; on a miss static() is built and kernel_of's
    kernel kept there.
    """
    for a in args:
        if isinstance(a[0] if type(a) is tuple else a, np.ndarray):
            return Eager(bound, args).run(program, *static())
    kernel = bound.kernels.get(key)
    if kernel is None:
        kernel = bound.kernels[key] = kernel_of(program, *static())
    return kernel(bound, *args)


class _Writer:
    """Kernel source lines from a tape's instructions.

    A value read once waits on a stack as an expression until the operation
    that reads it; it is written into that operation's expression when it is
    on top of the stack in operand order, and every waiting value gets a line
    of its own, in recording order, before any line is written, so nothing is
    evaluated out of order.  Locals are named t0, t1, ...; parameters and
    constants, which are never reused, otherwise.
    """

    def __init__(self, tape: Tape):
        self.tape = tape
        self.left: list[int] = []  # reads still to come, per value id
        self.text: list = [None] * len(tape.uses)  # its name once written, per value id
        for ident, name in tape.names.items():
            self.text[ident] = name
        self.waiting: list = []  # (id, expression, precedence, locals to free once written)
        self.free: list[str] = []
        self.count = 0
        self.out: list[str] = []

    def lines(self, outputs) -> list[str]:
        t = self.tape
        t._read(outputs)
        self.left = list(t.uses)
        op = self.op
        for ins in t.code:
            kind = ins[0]
            if kind is _OP:
                op(ins[1], ins[2], ins[3], ins[4])
                continue
            self.flush()
            frees: list[str] = []
            if kind is _CALL:
                _, dests, name, args = ins
                call = f"{name}({', '.join([self.operand(v, frees) for v in args])})"
                self.free += frees
                names = [self.local(d) for d in dests]
                self.out.append(f"{', '.join(names)} = {call}" if names else call)
            else:
                _, template, operands = ins
                self.out.append(template.format(*[self.operand(v, frees) for v in operands]))
                self.free += frees
        self.flush()
        texts = [self.operand(v, []) for v in outputs]
        self.out.append(f"return ({', '.join(texts)},)")
        return self.out

    def local(self, ident: int) -> str:
        if self.free:
            name = self.free.pop()
        else:
            name = f"t{self.count}"
            self.count += 1
        self.text[ident] = name
        return name

    def literal(self, v) -> tuple[str, int]:
        if type(v) is float and math.isfinite(v):
            text = repr(v)
            return text, _PREC["neg"] if text[0] == "-" else _ATOM
        name = f"c{len(self.tape.namespace)}"
        self.tape.namespace[name] = v
        return name, _ATOM

    def operand(self, v, frees: list) -> str:
        """Text of a literal or written value; a local read for the last time goes
        to frees."""
        if type(v) is not Sym:
            return self.literal(v)[0]
        i = v.id
        name = self.text[i]
        self.left[i] -= 1
        if not self.left[i] and name[0] == "t":
            frees.append(name)
        return name

    def op(self, dest: int, op: str, a, b) -> None:
        text, waiting, left = self.text, self.waiting, self.left
        sa, sb = type(a) is Sym, type(b) is Sym
        wa = sa and text[a.id] is None
        wb = sb and text[b.id] is None
        if wa or wb:  # written in only when on top of the stack, b above a
            if wb:
                ok = waiting[-1][0] == b.id and (
                    not wa or len(waiting) > 1 and waiting[-2][0] == a.id)
            else:
                ok = waiting[-1][0] == a.id
            if not ok:
                self.flush()
                wa = wb = False
        frees = []
        if wb:
            _, rt, rp, frees = waiting.pop()
            left[b.id] = 0
        if wa:
            _, lt, lp, more = waiting.pop()
            frees += more
            left[a.id] = 0
        elif sa:
            lt, lp = self.operand(a, frees), _ATOM
        else:
            lt, lp = self.literal(a)
        if op == "neg":
            expr, prec = (f"-{lt}" if lp == _ATOM else f"-({lt})"), _PREC["neg"]
        else:
            if wb:
                pass
            elif sb:
                rt, rp = self.operand(b, frees), _ATOM
            else:
                rt, rp = self.literal(b)
            prec = _PREC[op]
            if lp < prec:
                lt = f"({lt})"
            if rp <= prec:
                rt = f"({rt})"
            expr = f"{lt} {op} {rt}"
        if left[dest] == 1 and len(expr) <= _MAX_INLINE:
            waiting.append((dest, expr, prec, frees))
        else:
            self.flush()
            self.write(dest, expr, frees)

    def write(self, dest: int, expr: str, frees) -> None:
        self.free += frees
        if self.left[dest]:
            self.out.append(f"{self.local(dest)} = {expr}")
        else:  # read by nothing, but evaluated as Jet3 would (it may warn)
            self.out.append(expr)

    def flush(self) -> None:
        for dest, expr, _, frees in self.waiting:
            self.write(dest, expr, frees)
        self.waiting.clear()
