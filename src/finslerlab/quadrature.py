"""Gauss-Legendre angular integrals and Chebyshev-panel radial antiderivatives.

``refine`` runs Gauss-Legendre rules on [0, pi] with doubling refinement,
elementwise over a batch of radii (an element's value never depends on the
others); the volume densities use it.  Its first evaluation asks for the 64-
and 128-node rules together, where the bundled integrands settle, so one
profile jet serves both.  ``segment_integral`` tabulates the antiderivative
of one integrand from an anchor on adaptive Chebyshev-Lobatto panels (spectral
integration, Greengard 1991), read back by barycentric interpolation; the
Berwald-type family's I1 in :mod:`finslerlab.geometry`, the one radial integral
here with no closed form, uses it.

Nodes, weights, the integration matrix and every sum use only IEEE basic
operations (no LAPACK eigensolver, no BLAS), so they are the same bit patterns
on every platform.  Every sum is correctly rounded, math.fsum's double:
``exact_sum`` hands few rows to math.fsum and extracts many at once, where the
only numpy reductions add multiples of one power of two that no order of
addition can round, so numpy's blocking and SIMD dispatch move no bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul, sub, truediv

import numpy as np

from .errors import DomainError, QuadratureError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: doubling refinement starts at this node count
REFINE_START = 64
#: doubling refinement stops when successive values differ by at most this times
#: max(1, the smaller magnitude), so densities that grow like phi^n settle too
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


#: 2-D arrays with fewer rows are summed row by row with math.fsum (see exact_sum)
EXTRACT_MIN_ROWS = 8
#: extraction passes before a block that still holds a remainder goes to math.fsum
EXTRACT_PASSES = 4


def exact_sum(values):
    """Correctly rounded sum, the double math.fsum returns, whatever numpy's blocking.

    A 1-D array gives a float (math.fsum).  A 2-D array gives the array of its
    row sums: below ``EXTRACT_MIN_ROWS`` rows by math.fsum row by row, from
    there on by error-free extraction (ExtractVector; Rump, Ogita & Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
    2008).  Each pass takes sigma = 2^(e + m) per row, with |x| < 2^e on the row
    and 2^m >= (block width) + 2.  Then q = (sigma + x) - sigma and x - q are
    exact, each q is a multiple of 2^-53 sigma, and a block's q sum to less than
    sigma in magnitude: every partial sum is exact, so ``np.add.reduceat`` gives
    one double whatever order numpy adds in.  Once no remainder is left, after
    at most ``EXTRACT_PASSES`` passes, the few pass sums add up to the row sum
    exactly, and their correctly rounded sum (one IEEE addition for two) is
    math.fsum's.  A block goes to math.fsum instead when its row holds a
    non-finite value or one of magnitude 2^(1023 - m) or more (2^1015 for the
    64 + 128 node blocks), when its row keeps a remainder after the last pass,
    or when it sums to zero.  So NaN, inf, the sign of a zero sum and
    math.fsum's OverflowError and ValueError are math.fsum's own, raised at the
    block it meets first, block by block and row by row.

    The threshold is the measured crossover: on one vCPU of an x86-64 Xeon,
    blocks of 64 and 128 normal deviates took math.fsum 6.6 us for one row,
    25 us for 4, 54 us for 8 and 336 us for 41, and extraction 31, 33, 44 and
    83 us.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        return exact_block_sums(v, (v.shape[1],))[:, 0]
    return math.fsum(v.ravel().tolist())


def exact_block_sums(values, widths) -> np.ndarray:
    """(rows, blocks): ``exact_sum`` of each block of consecutive columns of the
    given widths (summing to the row length) of a 2-D array, in one pass over it."""
    v = np.asarray(values, dtype=float)
    widths = list(widths)
    starts = [end - w for w, end in zip(widths, accumulate(widths))]
    if v.shape[0] < EXTRACT_MIN_ROWS:
        sums = np.empty((v.shape[0], len(widths)))
        for b, (a, w) in enumerate(zip(starts, widths)):
            sums[:, b] = [math.fsum(row) for row in v[:, a:a + w].tolist()]
        return sums
    m = (max(widths) + 1).bit_length()  # 2^m >= width + 2
    mag = np.maximum.reduce(np.abs(v), axis=1, keepdims=True)
    fits = mag < 2.0 ** (1023 - m)  # False for NaN and inf; keeps sigma finite
    x = v
    if not fits.all():
        mag, x = np.where(fits, mag, 0.0), np.where(fits, v, 0.0)
    taus, left = [], False
    for _ in range(EXTRACT_PASSES):
        sigma = np.ldexp(1.0, np.frexp(mag)[1] + m)
        q = (sigma + x) - sigma
        x = x - q
        taus.append(np.add.reduceat(q, starts, axis=1))
        if not x.any():
            break
        mag = np.maximum.reduce(np.abs(x), axis=1, keepdims=True)
    else:
        left = mag > 0.0
    # one or two pass sums: IEEE addition rounds correctly; more need math.fsum
    sums = taus[0] + taus[1] if len(taus) > 1 else taus[0]
    if len(taus) > 2:
        deep = np.logical_or.reduce([t != 0.0 for t in taus[2:]])
        sums[deep] = [math.fsum(t) for t in np.stack(taus, axis=-1)[deep].tolist()]
    redo = ~fits | left | (sums == 0.0)
    for b, i in zip(*np.nonzero(redo.T)):
        sums[i, b] = math.fsum(v[i, starts[b]:starts[b] + widths[b]].tolist())
    return sums


def angle_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n mapped to [0, pi]."""
    x, w = gl_nodes(n)
    return 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w


def refine(eval_at):
    """Gauss-Legendre refinement, elementwise: node counts double from
    ``REFINE_START`` until successive values agree.

    eval_at(counts) takes a tuple of node counts and returns one value per
    count, each a float or an array (one value per radius).  The first call
    asks for ``REFINE_START`` and its double together, the next ones for one
    doubling each.  Each element keeps the first value v within
    ``REFINE_ATOL`` * max(1, min(|v|, |p|)) of the one p before it, as a scalar
    run would: absolute below 1, relative above, and never next to an inf or
    NaN.  QuadratureError when one reaches the node cap unsettled.
    """
    values = _doubling(eval_at)
    prev = next(values)
    out, settled = np.array(prev, dtype=float), np.zeros(np.shape(prev), dtype=bool)
    for cur in values:
        cur = np.asarray(cur)
        scale = np.maximum(1.0, np.minimum(np.abs(cur), np.abs(prev)))
        new = ~settled & (np.abs(cur - prev) <= REFINE_ATOL * scale)
        out[new] = cur[new]
        settled |= new
        if settled.all():
            return out if out.ndim else float(out)
        prev = cur
    raise QuadratureError(
        f"refinement did not settle by {REFINE_CAP} nodes: successive values must differ by "
        f"at most {REFINE_ATOL:g} * max(1, min(|cur|, |prev|))"
    )


def _doubling(eval_at):
    """refine's values by node count, the first two from one call, each evaluated when read."""
    n = 2 * REFINE_START
    yield from eval_at((REFINE_START, n))
    while n < REFINE_CAP:
        n *= 2
        yield from eval_at((n,))


# -- Chebyshev panel tables ----------------------------------------------------

#: Chebyshev-Lobatto degree of each table panel
TABLE_DEGREE = 16
#: a panel is kept when its two trailing Chebyshev coefficients are at most
#: this times the largest node value of the antiderivative on it
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
    """An antiderivative at the Chebyshev-Lobatto nodes of panels split at its anchor."""

    edges: np.ndarray    # (P + 1,) ascending panel ends
    nodes: np.ndarray    # (P, N + 1) nodes per panel, panel ends exact
    values: np.ndarray   # (P, N + 1) node values of the antiderivative

    def __post_init__(self):
        # the same numbers as Python floats, per panel, for at()
        object.__setattr__(self, "_lists", (self.edges[1:-1].tolist(), self.nodes.tolist(),
                                            self.values.tolist()))

    def at(self, r):
        """The antiderivative at radii r: a float, or an array of r's shape.

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
                out.append(values[p][row.index(x)])
                continue
            q = list(map(truediv, _BARY_LIST, map(sub, repeat(x), row)))
            out.append(fsum(map(mul, q, values[p])) / fsum(q))
        if r_arr.ndim == 0:
            return out[0]
        return np.array(out).reshape(r_arr.shape)


def _unresolved(values: np.ndarray) -> np.ndarray:
    """Per panel: do the trailing Chebyshev coefficients exceed TABLE_TOL?

    From the Lobatto values f_j, c_N = sum w_j f_j / N and
    c_{N-1} = 2 sum w_j x_j f_j / N, with w the barycentric weights.
    """
    n = TABLE_DEGREE
    tail = np.maximum(np.abs(exact_sum(_BARY * values)) / n,
                      2.0 * np.abs(exact_sum(_BARY * _LOBATTO * values)) / n)
    return tail > TABLE_TOL * np.max(np.abs(values), axis=1)


def segment_integral(integrand, anchor: float, lo: float, hi: float) -> PanelTable:
    """The antiderivative from ``anchor`` of ``integrand``, tabulated over [lo, hi] and the anchor.

    The integrand is called as ``f(rho)`` with rho the nodes of every panel,
    shape (P, N + 1).  Panels start split at the anchor and, on a positive
    range, at each power of ten inside it (read from its decimal literal, as on
    every host), so no panel is judged against values decades away.  They are
    bisected until the antiderivative passes the trailing-coefficient test on
    each; QuadratureError names a panel that fails after ``TABLE_SPLIT_CAP``
    bisections, DomainError the radius of a non-finite integrand value.
    """
    anchor = float(anchor)
    lo, hi = min(float(lo), anchor), max(float(hi), anchor)
    tens = range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1) if lo > 0 else ()
    edges = np.array(sorted({lo, anchor, hi}.union(
        x for x in (float(f"1e{k}") for k in tens) if lo < x < hi)))
    splits = np.zeros(edges.size - 1, dtype=int)
    while True:
        a, b = edges[:-1, None], edges[1:, None]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * _LOBATTO
        nodes[:, 0], nodes[:, -1] = edges[1:], edges[:-1]
        values = _antiderivative(integrand, anchor, edges, nodes)
        bad = _unresolved(values)
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


def _antiderivative(integrand, anchor: float, edges: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Node values (P, N + 1) of the antiderivative from the anchor: each panel
    integrated from its end nearer the anchor, panel totals chained outwards."""
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(np.asarray(integrand(nodes), dtype=float), nodes.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise DomainError(f"integrand is not finite at r={float(nodes[bad][0])!r}")
    left = edges[1:] <= anchor
    first = int(np.count_nonzero(left))  # the panel starting at the anchor
    matrix = np.where(left[:, None, None], _SPECTRAL_RIGHT, _SPECTRAL)
    half = 0.5 * (edges[1:] - edges[:-1])
    local = half[:, None] * exact_sum((matrix * vals[:, None, :]).reshape(-1, nodes.shape[1])
                                      ).reshape(nodes.shape)
    offset = np.zeros(len(half))
    for p in range(first + 1, len(half)):  # outwards to the right ...
        offset[p] = offset[p - 1] + local[p - 1, 0]
    for p in range(first - 2, -1, -1):  # ... and to the left
        offset[p] = offset[p + 1] + local[p + 1, -1]
    return offset[:, None] + local
