"""Douglas verdict: is Q(r, .) a quadratic even polynomial in s?

The metric is of Douglas type exactly when the radial spray coefficient has
the form Q = c1(r) + c2(r) s^2.  Per radius we least-squares fit Q against
{1, s^2} via the closed-form 2x2 normal equations and report the worst
residual; the fit residual is additionally projected onto the odd basis
{s, s^3}, and a pass requires the odd part to vanish too (Q must be even).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import MetricSpec, batch_radii, phi_jet, s_fractions, spray_values


@dataclass
class DouglasFit:
    r_grid: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    max_residual: np.ndarray
    odd_residual: np.ndarray
    residuals: np.ndarray  # (r, s): Q - c1 - c2 s^2 on the fitted grid
    tolerance: np.ndarray
    passed: bool


def fit_q(r, s_values, jet, tolerance: float | None = None) -> DouglasFit:
    """Fit Q(r, .) = c1 + c2 s^2 on a symmetric s-grid (>= 5 points) and judge it.

    ``jet`` is ``phi_jet(spec, r, s_values, order)``, evaluated by the caller,
    and all the fit reads of the spec; Q reads no third partial, so order 2
    serves.  r may also be a column of radii with one s-row each (shape
    (R, S)): a fit per row, and fields that are arrays.  The default
    per-radius tolerance is 1e-8 * (1 + |c1| + |c2| r^2); a fixed
    ``tolerance`` overrides it uniformly.  The fit passes when both the even
    residual and its odd part stay within the tolerance at every radius.
    """
    s = np.asarray(s_values, dtype=float)
    if s.shape[-1] < 5:
        raise ValueError("need at least 5 s points for the Douglas fit")
    if not np.allclose(np.sort(s), -np.sort(s)[..., ::-1], atol=1e-12):
        raise ValueError("s grid must be symmetric about 0")
    q = np.broadcast_to(np.asarray(spray_values(r, s, jet).Q, dtype=float), s.shape)
    rows = partial(np.sum, axis=-1, keepdims=True)
    s2 = s * s
    m0, m2, m4, m6 = s.shape[-1], rows(s2), rows(s2 * s2), rows(s2 * s2 * s2)
    b0, b2 = rows(q), rows(q * s2)
    det = m0 * m4 - m2 * m2
    c1 = (m4 * b0 - m2 * b2) / det
    c2 = (m0 * b2 - m2 * b0) / det
    bo1, bo3 = rows(q * s), rows(q * s * s2)
    det_odd = m2 * m6 - m4 * m4
    d1 = (m6 * bo1 - m4 * bo3) / det_odd
    d3 = (m2 * bo3 - m4 * bo1) / det_odd
    residuals = q - c1 - c2 * s2
    odd_residual = np.max(np.abs(d1 * s + d3 * s * s2), axis=-1)
    max_residual = np.max(np.abs(residuals), axis=-1)
    r_grid = np.broadcast_to(np.asarray(r, dtype=float), s.shape)[..., 0]
    c1, c2 = c1[..., 0][()], c2[..., 0][()]
    if tolerance is None:
        tol = 1e-8 * (1.0 + np.abs(c1) + np.abs(c2) * r_grid**2)
    else:
        tol = np.full(r_grid.shape, float(tolerance))
    passed = bool(np.all(max_residual <= tol) and np.all(odd_residual <= tol))
    return DouglasFit(r_grid[()], c1, c2, max_residual, odd_residual, residuals, tol, passed)


def douglas_verdict(spec: MetricSpec, r_grid, s_fracs=None,
                    tolerance: float | None = None) -> DouglasFit:
    """Per-radius Douglas fits and a global verdict: one order-2 jet of r-order 1 (Q reads
    no phi_rr) and ``fit_q`` per batch."""
    fracs = s_fractions(21) if s_fracs is None else np.asarray(s_fracs, dtype=float)

    def batch(radii):
        rc = radii[:, None]
        s = rc * fracs
        return fit_q(rc, s, phi_jet(spec, rc, s, order=2, r_order=1), tolerance)

    return batch_radii(batch, np.asarray(r_grid, dtype=float))
