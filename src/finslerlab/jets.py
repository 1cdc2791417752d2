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
#: the Leibniz rule slot by slot: for each slot of INDICES, its (x slot, y slot,
#: weight) terms; a slot of x * y is x[p] * y[q], times w when w != 1, summed
#: left to right.  Jet3.__mul__ spells it out and compiled kernels emit it.
MUL_TERMS = tuple(
    tuple((_POS[(i, j)], _POS[(a - i, b - j)], float(math.comb(a, i) * math.comb(b, j)))
          for i in range(a + 1) for j in range(b + 1))
    for (a, b) in INDICES
)

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
        return self.compose(*reciprocal_taylor(self.value))

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

    # -- elementary functions ----------------------------------------------

    def sqrt(self) -> "Jet3":
        return self.compose(*_sqrt_taylor(self.value))

    def exp(self) -> "Jet3":
        return self.compose(*_exp_taylor(self.value))

    def log(self) -> "Jet3":
        return self.compose(*_log_taylor(self.value))

    def sin(self) -> "Jet3":
        return self.compose(*_sin_taylor(self.value))

    def cos(self) -> "Jet3":
        return self.compose(*_cos_taylor(self.value))

    def atan(self) -> "Jet3":
        return self.compose(*_atan_taylor(self.value))

    def powi(self, k: int) -> "Jet3":
        """Integer power; exact at zero base for k >= 0 (repeated products)."""
        if k < 0:
            return self._reciprocal().powi(-k)
        if k == 0:
            return Jet3.constant(_like_zero(self.value) + 1.0, self.order)
        return _pow_pos(self, k)

    def powr(self, q: float) -> "Jet3":
        """Half-integer power q of a positive base: sqrt(v) to the integer 2q."""
        return self.compose(*powr_taylor(self.value, q))


# -- Taylor data of the elementary functions ------------------------------------
# Each returns f, f', f'', f''' at the value v (float or array) after its domain
# guard; Jet3 and the compiled kernels of finslerlab.expr compose with them.


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


#: Taylor data of each function of the expression grammar
TAYLOR = {"sqrt": _sqrt_taylor, "exp": _exp_taylor, "log": _log_taylor,
          "sin": _sin_taylor, "cos": _cos_taylor, "atan": _atan_taylor}


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
