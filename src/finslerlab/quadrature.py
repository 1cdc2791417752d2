"""Gauss-Legendre angular integrals and Chebyshev-panel radial antiderivatives.

``refine`` runs Gauss-Legendre rules on [0, pi] with doubling refinement,
elementwise over a batch of radii (an element's value never depends on the
others); the volume densities use it.  ``segment_integral`` tabulates
antiderivatives from an anchor on adaptive Chebyshev-Lobatto panels
(spectral integration, Greengard 1991), read back by barycentric
interpolation; the Berwald-type family tables in :mod:`finslerlab.geometry`
and the Holmes-Thompson solver in :mod:`finslerlab.families` use it.

Nodes, weights, the integration matrix and every sum use only IEEE basic
operations (no LAPACK eigensolver, no BLAS, no numpy reduction whose blocking
numpy chooses), so they are the same bit patterns on every platform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub, truediv

import numpy as np

from .errors import DomainError, QuadratureError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: doubling refinement starts at this node count
REFINE_START = 64
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


def angle_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n mapped to [0, pi]."""
    x, w = gl_nodes(n)
    return 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w


def refine(eval_at_n):
    """Run eval_at_n(N) with N doubling from ``REFINE_START`` until successive
    values agree, elementwise.

    eval_at_n returns a float or an array (one value per radius).  Each element
    keeps the first value within ``REFINE_ATOL`` of the one before it, as a
    scalar run would; QuadratureError when one reaches the node cap unsettled.
    """
    n = REFINE_START
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


# -- Chebyshev panel tables ----------------------------------------------------

#: Chebyshev-Lobatto degree of each table panel
TABLE_DEGREE = 16
#: a panel is kept when its two trailing Chebyshev coefficients are at most
#: this times the largest node value, for every tabulated antiderivative
TABLE_TOL = 1e-14
#: bisections of a starting panel before QuadratureError
TABLE_SPLIT_CAP = 12

#: Lobatto points cos(j pi / N), j = 0..N, on [-1, 1] (descending, exactly symmetric)
_LOBATTO = np.array([math.sin(math.pi * (TABLE_DEGREE - 2 * j) / (2 * TABLE_DEGREE))
                     for j in range(TABLE_DEGREE + 1)])
#: barycentric weights of the Lobatto points: (-1)^j, halved at both ends
_BARY = np.array([(-1.0) ** j * (0.5 if j in (0, TABLE_DEGREE) else 1.0)
                  for j in range(TABLE_DEGREE + 1)])
_BARY_LIST = _BARY.tolist()


def _spectral_matrix() -> np.ndarray:
    """S[i, j] = integral from -1 to x_i of the j-th Lobatto cardinal polynomial.

    Chebyshev coefficients a_k (a_0 doubled), b_k = (a_{k-1} - a_{k+1}) / 2k,
    then exact sums of b_k (T_k(x_i) - T_k(-1)), with T_k(x_j) = cos(k j pi / N)
    read off the Lobatto points: the row at x = -1 is exactly zero.
    """
    n = TABLE_DEGREE
    kj = np.outer(np.arange(n + 2), np.arange(n + 1)) % (2 * n)
    cheb = _LOBATTO[np.minimum(kj, 2 * n - kj)]  # T_k(x_j), k = 0..N+1
    ends = np.where(np.arange(n + 1) % n, 1.0, 0.5)
    a = np.zeros((n + 3, n + 1))  # rows N+1, N+2 stand for a_{N+1} = a_{N+2} = 0
    a[:n + 1] = ends * cheb[:n + 1] * (2.0 / n)
    a[n] *= 0.5
    b = (a[:n + 1] - a[2:]) / (2.0 * np.arange(1, n + 2))[:, None]  # b_1..b_{N+1}
    rise = (cheb[1:] - cheb[1:, n:]).T  # (i, k): T_k(x_i) - T_k(-1)
    return exact_sum((rise[:, None, :] * b.T[None]).reshape(-1, n + 1)).reshape(n + 1, n + 1)


#: integrals from the left panel end (node N) to each node
_SPECTRAL = _spectral_matrix()
#: integrals from the right panel end (node 0), the mirror image: left of the anchor,
#: values near it are then small sums, not differences of panel totals
_SPECTRAL_RIGHT = -_SPECTRAL[::-1, ::-1]


@dataclass(frozen=True)
class PanelTable:
    """Antiderivatives at the Chebyshev-Lobatto nodes of panels split at their anchor."""

    edges: np.ndarray    # (P + 1,) ascending panel ends
    nodes: np.ndarray    # (P, N + 1) nodes per panel, panel ends exact
    values: np.ndarray   # (k, P, N + 1) node values of each antiderivative

    def __post_init__(self):
        # the same numbers as Python floats, per panel, for at()
        object.__setattr__(self, "_lists", (self.edges[1:-1].tolist(), self.nodes.tolist(),
                                            self.values.transpose(1, 0, 2).tolist()))

    def at(self, r) -> list:
        """Every antiderivative at radii r: a list of floats, or of arrays of r's shape.

        Each radius uses the panel that holds it (the end panels for radii
        just outside the table); the barycentric sums are exact sums, and a
        radius on a node gets the node value.  One radius at a time in Python
        floats, whose operations round as numpy's float64 ones do.
        """
        r_arr = np.asarray(r, dtype=float)
        inner, nodes, values = self._lists
        fsum = math.fsum
        out = []
        for x in r_arr.ravel().tolist():
            p = bisect_right(inner, x)
            row = nodes[p]
            if x in row:  # x - node == 0.0 exactly when x == node
                j = row.index(x)
                out.append([v[j] for v in values[p]])
                continue
            q = list(map(truediv, _BARY_LIST, map(sub, repeat(x), row)))
            den = fsum(q)
            out.append([fsum(map(mul, q, v)) / den for v in values[p]])
        if r_arr.ndim == 0:
            return out[0]
        return [np.array(col).reshape(r_arr.shape) for col in zip(*out)]


def _unresolved(values: np.ndarray) -> np.ndarray:
    """Per panel: do the trailing Chebyshev coefficients exceed TABLE_TOL?

    From the Lobatto values f_j, c_N = sum w_j f_j / N and
    c_{N-1} = 2 sum w_j x_j f_j / N, with w the barycentric weights.
    """
    n = TABLE_DEGREE
    tail = np.maximum(np.abs(exact_sum(_BARY * values)) / n,
                      2.0 * np.abs(exact_sum(_BARY * _LOBATTO * values)) / n)
    return tail > TABLE_TOL * np.max(np.abs(values), axis=1)


def segment_integral(integrands, anchor: float, lo: float, hi: float) -> PanelTable:
    """Antiderivatives from ``anchor`` of each integrand, tabulated over [lo, hi] and the anchor.

    Integrand k is called as ``f(rho, *earlier)`` with rho the nodes of every
    panel, shape (P, N + 1), and ``earlier`` the node values of
    antiderivatives 0..k-1.  Panels start split at the anchor and are bisected
    until every antiderivative passes the trailing-coefficient test;
    QuadratureError names a panel that fails after ``TABLE_SPLIT_CAP``
    bisections, DomainError the radius of a non-finite integrand value.
    """
    anchor = float(anchor)
    edges = np.array(sorted({min(float(lo), anchor), anchor, max(float(hi), anchor)}))
    splits = np.zeros(edges.size - 1, dtype=int)
    while True:
        a, b = edges[:-1, None], edges[1:, None]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * _LOBATTO
        nodes[:, 0], nodes[:, -1] = edges[1:], edges[:-1]
        values = _antiderivatives(integrands, anchor, edges, nodes)
        bad = np.any([_unresolved(v) for v in values], axis=0)
        if not bad.any():
            return PanelTable(edges, nodes, values)
        capped = bad & (splits >= TABLE_SPLIT_CAP)
        if capped.any():
            a, b = edges[int(np.argmax(capped)):][:2].tolist()
            raise QuadratureError(f"table panel [{a!r}, {b!r}] not resolved to "
                                  f"{TABLE_TOL:g} after {TABLE_SPLIT_CAP} bisections")
        mids = 0.5 * (edges[:-1] + edges[1:])[bad]
        edges = np.sort(np.concatenate([edges, mids]))
        splits = np.repeat(splits + bad, np.where(bad, 2, 1))


def _antiderivatives(integrands, anchor: float, edges: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Node values (k, P, N + 1) of the antiderivatives from the anchor: each panel
    integrated from its end nearer the anchor, panel totals chained outwards."""
    left = edges[1:] <= anchor
    first = int(np.count_nonzero(left))  # the panel starting at the anchor
    matrix = np.where(left[:, None, None], _SPECTRAL_RIGHT, _SPECTRAL)
    half = 0.5 * (edges[1:] - edges[:-1])
    out = []
    for f in integrands:
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(np.asarray(f(nodes, *out), dtype=float), nodes.shape)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise DomainError(f"integrand is not finite at r={float(nodes[bad][0])!r}")
        local = half[:, None] * exact_sum((matrix * vals[:, None, :]).reshape(-1, nodes.shape[1])
                                          ).reshape(nodes.shape)
        offset = np.zeros(len(half))
        for p in range(first + 1, len(half)):  # outwards to the right ...
            offset[p] = offset[p - 1] + local[p - 1, 0]
        for p in range(first - 2, -1, -1):  # ... and to the left
            offset[p] = offset[p + 1] + local[p + 1, -1]
        out.append(offset[:, None] + local)
    return np.array(out)
