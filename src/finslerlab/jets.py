"""Truncated bivariate Taylor jets.

A ``Jet3`` stores the value of a function of (r, s) together with every
partial derivative d^a_r d^b_s up to total order a + b <= 3, i.e. 10 raw
coefficients.  Arithmetic propagates derivatives exactly (Leibniz rule for
products, truncated Taylor composition for elementary functions), so jets act
as forward-mode AD with no truncation error below order 4.

Coefficients may be python floats or numpy arrays of a common broadcastable
shape; all operations vectorize over the array case.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import DomainError

ORDER = 3
#: (a, b) index pairs in a fixed order; position in this tuple is the storage slot.
INDICES = tuple((a, b) for a in range(ORDER + 1) for b in range(ORDER + 1 - a))
_POS = {ab: k for k, ab in enumerate(INDICES)}
_NC = len(INDICES)

#: magnitude below which a divisor counts as zero
DIV_EPS = 1e-300

# Precomputed Leibniz convolution: for each output slot, the list of
# (slot_x, slot_y, binomial weight) triples.
_MUL_TERMS = tuple(
    tuple(
        (_POS[(i, j)], _POS[(a - i, b - j)], float(comb(a, i) * comb(b, j)))
        for i in range(a + 1)
        for j in range(b + 1)
    )
    for (a, b) in INDICES
)

_ZEROS = (0.0,) * _NC


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
    """Value plus all (r, s) partials of total order <= 3."""

    __slots__ = ("c",)

    def __init__(self, coefficients):
        self.c = tuple(coefficients)

    @classmethod
    def constant(cls, value) -> "Jet3":
        c = [_like_zero(value)] * (_NC - 1)
        return cls((value, *c))

    @classmethod
    def seed(cls, value, dr=0.0, ds=0.0) -> "Jet3":
        c = [0.0] * _NC
        c[_POS[(0, 0)]] = value
        c[_POS[(1, 0)]] = dr
        c[_POS[(0, 1)]] = ds
        return cls(c)

    def d(self, a: int, b: int):
        """Raw partial derivative d^a_r d^b_s."""
        return self.c[_POS[(a, b)]]

    @property
    def value(self):
        return self.c[0]

    def deriv(self, dr: int = 0, ds: int = 0) -> "Jet3":
        """Jet of the partial derivative d^dr_r d^ds_s of this function.

        Only coefficients of total order <= 3 - dr - ds are meaningful; the
        rest are zero-filled.  Truncated arithmetic never feeds high-order
        coefficients into low-order results, so this is safe whenever the
        consumer needs the shifted jet to reduced order only.
        """
        out = [0.0] * _NC
        for (a, b), k in _POS.items():
            if a + dr + b + ds <= ORDER:
                out[k] = self.c[_POS[(a + dr, b + ds)]]
        return Jet3(out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(tuple(x + y for x, y in zip(self.c, other.c)))
        c = list(self.c)
        c[0] = c[0] + other
        return Jet3(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet3):
            return Jet3(tuple(x - y for x, y in zip(self.c, other.c)))
        c = list(self.c)
        c[0] = c[0] - other
        return Jet3(c)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet3(tuple(-x for x in self.c))

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(tuple(x * other for x in self.c))
        xc, yc = self.c, other.c
        out = []
        for terms in _MUL_TERMS:
            acc = None
            for px, py, w in terms:
                t = xc[px] * yc[py]
                if w != 1.0:
                    t = t * w
                acc = t if acc is None else acc + t
            out.append(acc)
        return Jet3(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet3):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "Jet3":
        v = self.value
        if np.any(np.abs(v) < DIV_EPS):
            raise DomainError(f"division by (near-)zero value {_fmt(v)}")
        iv = 1.0 / v
        iv2 = iv * iv
        return self.compose(iv, -iv2, 2.0 * (iv2 * iv), -6.0 * (iv2 * iv2))

    # -- composition with a smooth univariate function ---------------------

    def compose(self, f0, f1, f2, f3) -> "Jet3":
        """Jet of f(self) given derivatives f0..f3 of f at self.value.

        Exact through total order 3: with the constant part stripped the
        remainder is nilpotent, so a cubic Taylor polynomial of f suffices.
        """
        c = list(self.c)
        c[0] = _like_zero(c[0])
        gh = Jet3(c)
        return ((gh * (f3 / 6.0) + f2 * 0.5) * gh + f1) * gh + f0

    # -- elementary functions ----------------------------------------------

    def sqrt(self) -> "Jet3":
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"sqrt of non-positive value {_fmt(v)}")
        sv = np.sqrt(v)
        return self.compose(sv, 0.5 / sv, -0.25 / (sv * v), 0.375 / (sv * v * v))

    def exp(self) -> "Jet3":
        ev = np.exp(self.value)
        return self.compose(ev, ev, ev, ev)

    def log(self) -> "Jet3":
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"log of non-positive value {_fmt(v)}")
        iv = 1.0 / v
        iv2 = iv * iv
        return self.compose(np.log(v), iv, -iv2, 2.0 * (iv2 * iv))

    def sin(self) -> "Jet3":
        sv, cv = np.sin(self.value), np.cos(self.value)
        return self.compose(sv, cv, -sv, -cv)

    def cos(self) -> "Jet3":
        sv, cv = np.sin(self.value), np.cos(self.value)
        return self.compose(cv, -sv, -cv, sv)

    def atan(self) -> "Jet3":
        v = self.value
        q = 1.0 / (1.0 + v * v)
        return self.compose(np.arctan(v), q, -2.0 * v * q * q, (6.0 * v * v - 2.0) * (q * q * q))

    def powi(self, k: int) -> "Jet3":
        """Integer power; exact at zero base for k >= 0 (repeated products)."""
        if k < 0:
            return self._reciprocal().powi(-k)
        if k == 0:
            return Jet3.constant(_like_zero(self.value) + 1.0)
        return _pow_pos(self, k)

    def powr(self, q: float) -> "Jet3":
        """Real power for positive base (used for half-integer exponents)."""
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError(f"power {q} of non-positive value {_fmt(v)}")
        f0 = np.power(v, q)
        f1 = q * f0 / v
        f2 = (q - 1.0) * f1 / v
        f3 = (q - 2.0) * f2 / v
        return self.compose(f0, f1, f2, f3)


def slot(a: int, b: int) -> int:
    """Storage index of the (a, b) partial inside Jet3.c."""
    return _POS[(a, b)]


def is_finite(jet: Jet3) -> bool:
    return all(bool(np.all(np.isfinite(c))) for c in jet.c)


def _fmt(v) -> str:
    a = np.asarray(v)
    if a.ndim == 0:
        return repr(float(a))
    bad = a[~np.isfinite(a)] if not np.all(np.isfinite(a)) else a
    return f"(array, e.g. {float(bad.flat[0])!r})"
