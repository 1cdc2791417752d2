"""Gauss-Legendre quadrature utilities.

Two consumers: the angular integrals behind the volume densities (fixed
interval [0, pi], doubling refinement, elementwise over a batch of radii)
and the radial integrals (``segment_integral``, elementwise over arrays of
interval endpoints) behind the Holmes-Thompson solver's steps and the node
values of the Berwald-type family tables in :mod:`finslerlab.geometry`.  An
element's value never depends on the others.

Nodes, weights and segment sums use only IEEE basic operations (no LAPACK
eigensolver, no libm, no numpy reduction whose blocking numpy chooses), so
they are the same bit patterns on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: doubling refinement stops when successive values differ by at most this
REFINE_ATOL = 1e-10
#: node cap for the angular integrals
REFINE_CAP = 1024


#: Newton stops once every node moved by at most this (convergence is quadratic)
_NEWTON_STEP_TOL = 1e-12
_NEWTON_CAP = 50


def gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached per order."""
    got = _GL_CACHE.get(n)
    if got is None:
        got = _gauss_legendre(n)
        _GL_CACHE[n] = got
    return got


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton on the three-term recurrence (Hale & Townsend, SIAM J. Sci. Comput. 2013).

    Only the negative half is iterated; the positive half is its exact mirror
    and odd orders get the node 0.0 exactly.  Starting values are Tricomi's
    asymptotic nodes with cos taken from its Taylor series, so the iteration
    is the same sequence of IEEE operations everywhere.
    """
    if n < 1:
        raise ValueError(f"Gauss-Legendre order must be positive, got {n}")
    k = np.arange(1, n // 2 + 1, dtype=float)
    theta = np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0)
    x = (1.0 / (8.0 * n * n) - 1.0 / (8.0 * n * n * n) - 1.0) * _cos_taylor(theta)
    for _ in range(_NEWTON_CAP):
        dx = _legendre_ratio(n, x)[0]
        x = x - dx
        if np.max(np.abs(dx), initial=0.0) <= _NEWTON_STEP_TOL:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre nodes of order {n} did not converge")
    if n % 2:
        x = np.append(x, 0.0)
    dp = _legendre_ratio(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2
    return (
        np.concatenate([x, -x[:half][::-1]]),
        np.concatenate([w, w[:half][::-1]]),
    )


def _cos_taylor(theta: np.ndarray) -> np.ndarray:
    """cos on [0, pi/2] from its Taylor series through theta^26 (Horner form)."""
    t2 = theta * theta
    acc = np.ones_like(theta)
    for j in range(13, 0, -1):
        acc = 1.0 - acc * t2 / ((2 * j - 1) * (2 * j))
    return acc


def _legendre_ratio(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton step P_n / P_n' and P_n' at x, from the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
    return p / dp, dp


def exact_sum(values):
    """Correctly rounded sum (math.fsum), independent of numpy's blocking.

    A 1-D array gives a float, a 2-D array the array of its row sums.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        return np.array([math.fsum(row) for row in v.tolist()])
    return math.fsum(v.ravel().tolist())


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [0, pi]; ``n`` is where doubling refinement starts."""

    n: int = 64

    def points(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights mapped to [0, pi]."""
        x, w = gl_nodes(n or self.n)
        return 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w


def refine(eval_at_n, rule: QuadratureRule):
    """Run eval_at_n(N) with doubling N until successive values agree, elementwise.

    eval_at_n returns a float or an array (one value per radius).  Each element
    keeps the first value within ``REFINE_ATOL`` of the one before it, as a
    scalar run would; QuadratureError when one reaches the node cap unsettled.
    """
    n = rule.n
    prev = eval_at_n(n)
    out, settled = np.array(prev, dtype=float), np.zeros(np.shape(prev), dtype=bool)
    while n < REFINE_CAP:
        n *= 2
        cur = eval_at_n(n)
        new = ~settled & (np.abs(np.subtract(cur, prev)) <= REFINE_ATOL)
        out[new] = np.asarray(cur)[new]
        settled |= new
        if settled.all():
            return out if out.ndim else float(out)
        prev = cur
    raise QuadratureError(
        f"refinement did not reach {REFINE_ATOL:g} below {REFINE_CAP} nodes"
    )


def segment_integral(f, a, b, tol: float = 1e-13):
    """Adaptive GL integrals of f over [a, b], elementwise over broadcast endpoints.

    f receives the nodes with a trailing axis of length N appended to the
    pending intervals (shape (k, N)) and must act elementwise.  N doubles
    from 16 up to 512; each interval keeps the first value that agrees with
    the one before it to ``tol`` relative, so its result does not depend on
    the other intervals in the call.  Each value is ``half * fsum(w * f)``.
    Scalar endpoints give a float, array endpoints an array of their shape.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lo, hi = a.ravel(), b.ravel()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = np.zeros(lo.size)
    pending = np.flatnonzero(lo != hi)
    n, prev = 16, None
    while pending.size:
        if n > 512:
            i = int(pending[0])
            raise QuadratureError(f"segment integral over [{lo[i]}, {hi[i]}] did not converge")
        cur = _segment_fixed(f, mid[pending], half[pending], n)
        if prev is not None:
            done = np.abs(cur - prev) <= tol * (1.0 + np.abs(cur))
            out[pending[done]] = cur[done]
            pending, cur = pending[~done], cur[~done]
        prev = cur
        n *= 2
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def _segment_fixed(f, mid: np.ndarray, half: np.ndarray, n: int) -> np.ndarray:
    """n-point GL values of the integrals centred at mid with half-widths half."""
    x, w = gl_nodes(n)
    pts = mid[:, None] + half[:, None] * x
    vals = w * np.broadcast_to(np.asarray(f(pts)), pts.shape)
    return half * exact_sum(vals)
