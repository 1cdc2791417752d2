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

Coefficients may be Python floats, numpy scalars or numpy arrays of a common
broadcastable shape; all operations vectorize over the array case, and
``is_finite`` costs one ``np.isfinite`` per array slot.  A coefficient holding
the Python float 0.0 is a *structural zero*.  ``seed``, ``constant``,
``radial`` and ``deriv`` make them in derivative slots (the s-slots of a jet
of r alone are all structural), and ``deriv`` and ``compose`` also in value
slots.

Array jets may also *drop* partials, holding None: ``seed`` and ``radial``
given an r-order drop every partial of higher r-order, and ``dropped_above``
every partial above a total order.  ``+``, ``-``, products, scalings and
negation drop a slot when any of its remaining Leibniz terms (with no
structural-zero factor) reads a dropped one; every other slot sums the same
terms in the same order, so it has the full jet's bits (truncated Taylor
arithmetic is closed under dropping all partials above a fixed order, in one
variable or in total; Griewank & Walther, Evaluating Derivatives, 2008,
ch. 13).  ``d`` and ``deriv`` raise ValueError on a dropped slot and
``is_finite`` skips it.  Float jets never drop one.

The product is one formula, the Leibniz rule, taken two ways, chosen as every
branch is by ``is_array``, which a jet records when it is built: ``Jet3(c)``
sets it for an ndarray or dropped coefficient, ``seed``, ``radial`` and
``constant`` for an ndarray value, an operation for an array-jet operand or
ndarray factor, and ``deriv``, ``dropped_above``, ``compose`` and ``powi(0)``
keep it.  No branch routes on a value slot, which may be a structural zero.  On
float jets (Python-float or numpy-scalar coefficients, as in the geodesic
oracle's steps) the product is written out slot by slot, and ``compose`` runs
its Horner chain through the same written-out product on lists.  On array
jets each derivative slot sums the same terms in the same order from a term
table, leaving out every term with a structural-zero factor and multiplying by
no float 1.0; ``+``, ``-`` and scalings keep structural zeros too.  The
table's Python costs a few microseconds per product, several times the
written-out product on floats, and saves whole array operations.  A value slot
is always computed in full, so ``0 * r`` on arrays keeps its array value and
the array form of its domain errors.
With finite coefficients a dropped term is an exact zero, which changes a sum
only in the sign of a zero result: an array jet equals the jets of its
elements bit for bit, except that an exactly zero derivative may carry the
other sign.  Every jet in the package, of an expression tree or of a profile,
on floats or on arrays, is computed by this arithmetic.
"""

from __future__ import annotations

import math
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

_ndarray = np.ndarray


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
    """x**k for a float, array or jet x and integer k, by repeated multiplication.

    Unlike ``**`` this never calls the platform's pow or numpy's SIMD-dispatched
    power loop, so the result is the same bit pattern on every machine.
    Negative k takes the reciprocal first, as Jet3.powi does; a jet runs Jet3.powi.
    """
    if isinstance(x, Jet3):
        return x.powi(k)
    if k < 0:
        return _pow_pos(1.0 / x, -k)
    if k == 0:
        return x * 0.0 + 1.0  # 1 with x's array shape
    return _pow_pos(x, k)


#: the Leibniz rule for each derivative slot of INDICES: its (x slot, y slot,
#: weight) terms in the order Jet3.__mul__ writes them out
_MUL_TERMS = tuple(
    tuple((_POS[(i, j)], _POS[(a - i, b - j)], float(math.comb(a, i) * math.comb(b, j)))
          for i in range(a + 1) for j in range(b + 1))
    for (a, b) in INDICES[1:]
)


def _term_product(v0, x, y) -> list:
    """The coefficients of x * y for array jets, given its value slot v0 = x0 * y0.

    Each derivative slot sums the written-out product's terms in its order,
    times their weights != 1, leaving out every term with a structural-zero
    factor and multiplying by no factor that is the float 1.0; a slot with no
    term left is the structural zero, and one whose remaining terms read a
    dropped slot is dropped.
    """
    out = [v0]
    for terms in _MUL_TERMS[:min(len(x), len(y)) - 1]:
        acc, t = None, 0.0
        for p, q, w in terms:
            a, b = x[p], y[q]
            if type(a) is float:
                if a == 0.0 or type(b) is float and b == 0.0:
                    continue
                t = b if a == 1.0 or b is None else a * b
            elif type(b) is float:
                if b == 0.0:
                    continue
                t = a if b == 1.0 or a is None else a * b
            else:
                t = None if a is None or b is None else a * b
            if t is None:  # the slot is dropped
                break
            if w != 1.0:
                t = t * w
            acc = t if acc is None else acc + t
        out.append(None if t is None else 0.0 if acc is None else acc)
    return out


def _float_product(v0, x, y) -> list:
    """The coefficients of x * y for float jets, given its value slot v0 = x0 * y0: products
    times weights != 1, summed left to right; the first 6 lines are the order-2 product."""
    x0, x1, x2, x3, x4, x5 = x[:6]
    y0, y1, y2, y3, y4, y5 = y[:6]
    low = (
        v0,
        x0 * y1 + x1 * y0,
        x0 * y2 + x2 * y0,
        x0 * y3 + x1 * y1 * 2.0 + x3 * y0,
        x0 * y4 + x2 * y1 + x1 * y2 + x4 * y0,
        x0 * y5 + x2 * y2 * 2.0 + x5 * y0,
    )
    if len(x) == 6 or len(y) == 6:
        return [*low]
    x6, x7, x8, x9 = x[6:]
    y6, y7, y8, y9 = y[6:]
    return [
        *low,
        x0 * y6 + x1 * y3 * 3.0 + x3 * y1 * 3.0 + x6 * y0,
        x0 * y7 + x2 * y3 + x1 * y4 * 2.0 + x4 * y1 * 2.0 + x3 * y2 + x7 * y0,
        x0 * y8 + x2 * y4 * 2.0 + x5 * y1 + x1 * y5 + x4 * y2 * 2.0 + x8 * y0,
        x0 * y9 + x2 * y5 * 3.0 + x5 * y2 * 3.0 + x9 * y0,
    ]


def _sum_slot(op, a, b):
    """op(a, b), op add or sub, for derivative slots of array jets: a structural
    zero adds or subtracts nothing, and a dropped slot gives a dropped one."""
    if type(b) is float and b == 0.0 or a is None:
        return a
    if b is None or op is add and type(a) is float and a == 0.0:
        return b
    return op(a, b)


def _mul_slot(a, other):
    """A derivative slot of an array jet times a float or an array; a structural
    zero stays one and a dropped slot stays dropped."""
    if type(a) is float and (a == 0.0 or a == 1.0):
        return a if a == 0.0 else other
    return None if a is None else a * other


def _cut(c, bound: int, s_weight: int) -> tuple:
    """c with every partial d^a_r d^b_s of a + s_weight * b above bound dropped (None)."""
    return tuple(None if a + s_weight * b > bound else v for (a, b), v in zip(INDICES, c))


def _jet(c, is_array: bool) -> "Jet3":
    """The jet of coefficients c whose array-ness the caller knows: no scan."""
    jet = object.__new__(Jet3)
    jet.c, jet.is_array = tuple(c), is_array
    return jet


def _sum_method(op):
    """Jet3.__add__ or __sub__ for op add or sub: the value slot in full, then the
    derivative slots by the array slot rule or, on float jets, elementwise."""
    def method(self, other):
        x = self.c
        if not isinstance(other, Jet3):
            return _jet((op(x[0], other), *x[1:]), self.is_array or isinstance(other, _ndarray))
        y = other.c
        if self.is_array or other.is_array:
            return _jet((op(x[0], y[0]), *map(_sum_slot, repeat(op), x[1:], y[1:])), True)
        return _jet(map(op, x, y), False)

    return method


class Jet3:
    """Value plus all (r, s) partials of total order <= 2 or <= 3."""

    __slots__ = ("c", "is_array")

    def __init__(self, coefficients):
        self.c = tuple(coefficients)
        self.is_array = any(v is None or isinstance(v, _ndarray) for v in self.c)

    @property
    def order(self) -> int:
        return 2 if len(self.c) == SIZE[2] else 3

    @classmethod
    def constant(cls, value, order: int = ORDER) -> "Jet3":
        return _jet((value, *[0.0] * (SIZE[order] - 1)), isinstance(value, _ndarray))

    @classmethod
    def seed(cls, value, dr=0.0, ds=0.0, order: int = ORDER, r_order: int = ORDER) -> "Jet3":
        """Jet of value + dr (r - r0) + ds (s - s0), truncated at order and (arrays) r_order."""
        c = (value, dr, ds, *[0.0] * (SIZE[order] - 3))
        is_array = isinstance(value, _ndarray)
        return _jet(_cut(c, r_order, 0) if is_array else c, is_array)

    @classmethod
    def radial(cls, derivs, order: int = ORDER, r_order: int = ORDER) -> "Jet3":
        """Jet of a function of r alone; derivs[a] is its a-th r-derivative, a = 0..order."""
        c = [0.0 if b else derivs[a] for a, b in INDICES[:SIZE[order]]]
        is_array = isinstance(derivs[0], _ndarray)
        return _jet(_cut(c, r_order, 0) if is_array else c, is_array)

    def d(self, a: int, b: int):
        """Raw partial d^a_r d^b_s; raises ValueError beyond the jet's order or where dropped."""
        try:
            v = self.c[_POS[(a, b)]]
        except (KeyError, IndexError):
            raise ValueError(
                f"an order-{self.order} jet carries no d^{a}_r d^{b}_s coefficient") from None
        if v is None:
            raise ValueError(f"this jet dropped its d^{a}_r d^{b}_s coefficient")
        return v

    def r_partials(self) -> list:
        """The pure r-partials d^a_r, a = 0..order, None where dropped."""
        return [self.c[_POS[(a, 0)]] for a in range(self.order + 1)]

    @property
    def value(self):
        return self.c[0]

    def dropped_above(self, order: int) -> "Jet3":
        """This jet with every partial of total order above ``order`` dropped, if it is
        an array jet; a float jet is returned as it is."""
        return _jet(_cut(self.c, order, 1), True) if self.is_array else self

    def deriv(self, dr: int = 0, ds: int = 0) -> "Jet3":
        """Jet of the partial derivative d^dr_r d^ds_s of this function.

        It keeps this jet's order and array-ness, but only coefficients of total
        order <= order - dr - ds are meaningful; the rest are structural zeros.
        Truncated arithmetic never feeds high-order coefficients into low-order
        results, so this is safe whenever the consumer needs the shifted jet to
        reduced order only.  A dropped partial shifts as a dropped one; raises
        ValueError, as ``d`` does, where the value would be dropped or beyond the order.
        """
        self.d(dr, ds)
        c, order = self.c, self.order
        out = [0.0] * len(c)
        for k, (a, b) in enumerate(INDICES[:len(c)]):
            if a + dr + b + ds <= order:
                out[k] = c[_POS[(a + dr, b + ds)]]
        return _jet(out, self.is_array)

    # -- ring operations ---------------------------------------------------

    __add__ = __radd__ = _sum_method(add)
    __sub__ = _sum_method(sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if self.is_array:  # dropped slots stay dropped
            return _jet((None if a is None else -a for a in self.c), True)
        return _jet(map(neg, self.c), False)

    def __mul__(self, other):
        x = self.c
        if not isinstance(other, Jet3):
            if self.is_array or isinstance(other, _ndarray):
                return _jet((x[0] * other, *map(_mul_slot, x[1:], repeat(other))), True)
            return _jet(map(mul, x, repeat(other)), False)
        y = other.c
        if self.is_array or other.is_array:
            return _jet(_term_product(x[0] * y[0], x, y), True)
        return _jet(_float_product(x[0] * y[0], x, y), False)

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
        remainder gh is nilpotent, so a cubic Taylor polynomial of f suffices.
        gh's value slot is the structural zero 0.0, so on array jets the
        Horner products below skip every term through it, and keep the
        structural zeros of this jet; their value slots are still computed.
        Taylor data on arrays make an array jet of a float jet.
        A float jet keeps Python-float coefficients: the numpy float64
        scalars that np.exp, np.sqrt and friends return would make every later
        product about three times slower, and converting them changes no bit.
        On a float jet the chain runs on lists, with the same operations in
        the same order and no Jet3 temporaries.
        """
        c = self.c
        if not (self.is_array or isinstance(f0, _ndarray)):
            gh = (0.0, *c[1:])
            k = float(f3) / 6.0
            acc = [x * k for x in gh]
            acc[0] += float(f2) * 0.5
            for f in (f1, f0):
                acc = _float_product(acc[0] * 0.0, acc, gh)
                acc[0] += float(f)
            return _jet(acc, False)
        gh = _jet((0.0, *c[1:]), True)
        return ((gh * (f3 / 6.0) + f2 * 0.5) * gh + f1) * gh + f0

    def _compose_with(self, taylor, *args) -> "Jet3":
        """compose with taylor(value, *args), the guarded Taylor data of f."""
        return self.compose(*taylor(self.c[0], *args))

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
        if k == 0:  # the constant 1, with this jet's array shape and array-ness
            return _jet((self.c[0] * 0.0 + 1.0, *[0.0] * (len(self.c) - 1)), self.is_array)
        return _pow_pos(self, k)

    def powr(self, q: float) -> "Jet3":
        """Half-integer power q of a positive base: sqrt(v) to the integer 2q."""
        return self._compose_with(powr_taylor, q)


# -- Taylor data of the elementary functions ------------------------------------
# Each returns f, f', f'', f''' at the value v (float or array) after its domain
# guard; Jet3.compose takes them.


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
    if type(v) is float and 1e-100 < v < 1e100:
        # Python floats round as numpy's float64 scalars do; where these overflow,
        # which numpy would warn of, the numpy path below computes them again
        f0 = ipow(math.sqrt(v), int(2.0 * q))
        f1 = q * f0 / v
        f2 = (q - 1.0) * f1 / v
        f3 = (q - 2.0) * f2 / v
        if math.isfinite(f3):
            return f0, f1, f2, f3
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
    """True when every one of the jet coefficients c but the dropped ones (None) is finite.

    When the value slot is not an array (a float jet, as a rule), a finite
    math.fsum proves it, since inf and NaN propagate.  Otherwise, or when that
    sum is not finite (finite terms can also overflow), each slot is checked on
    its own, an array slot by counting its np.isfinite mask, which never warns."""
    if type(c[0]) is not _ndarray:
        try:  # fsum never warns; it raises on overflow and inf - inf, and on an array or None
            if math.isfinite(math.fsum(c)):
                return True
        except (OverflowError, ValueError, TypeError):
            pass
    for x in c:
        if type(x) is _ndarray:
            if np.count_nonzero(np.isfinite(x)) != x.size:  # cheaper than ndarray.all()
                return False
        elif x is not None and not math.isfinite(x):
            return False
    return True


def _fmt(v, bad) -> str:
    """v as a float, or for an array its first element where the mask bad is set."""
    a = np.asarray(v)
    if a.size == 1:  # a scalar, or one radius replayed by batch_radii
        return repr(float(a.flat[0]))
    return f"(array, e.g. {float(a[np.broadcast_to(bad, a.shape)].flat[0])!r})"
