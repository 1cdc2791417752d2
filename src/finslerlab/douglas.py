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


@dataclass(frozen=True)
class RadiusFit:
    c1: float
    c2: float
    max_residual: float
    odd_residual: float
    residuals: np.ndarray  # Q - c1 - c2 s^2 at each s


def fit_q(spec: MetricSpec, r, s_values) -> RadiusFit:
    """Fit Q(r, .) = c1 + c2 s^2 on a symmetric s-grid (>= 5 points).

    r may also be a column of radii with one s-row each (shape (R, S)): one
    spray call for all rows, a fit per row, and fields that are arrays.
    """
    s = np.asarray(s_values, dtype=float)
    if s.shape[-1] < 5:
        raise ValueError("need at least 5 s points for the Douglas fit")
    if not np.allclose(np.sort(s), -np.sort(s)[..., ::-1], atol=1e-12):
        raise ValueError("s grid must be symmetric about 0")
    jet = phi_jet(spec, r, s, order=2)  # Q reads no third partial
    q = np.broadcast_to(np.asarray(spray_values(spec, r, s, jet).Q, dtype=float), s.shape)
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
    return RadiusFit(c1[..., 0][()], c2[..., 0][()], max_residual, odd_residual, residuals)


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


def douglas_verdict(
    spec: MetricSpec,
    r_grid,
    s_fracs=None,
    tolerance: float | None = None,
) -> DouglasFit:
    """Per-radius Douglas fits and a global verdict (one batched ``fit_q`` call).

    The default per-radius tolerance is 1e-8 * (1 + |c1| + |c2| r^2); a fixed
    ``tolerance`` overrides it uniformly.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    fracs = s_fractions(21) if s_fracs is None else np.asarray(s_fracs, dtype=float)
    fit = batch_radii(lambda radii: fit_q(spec, radii[:, None], radii[:, None] * fracs), r_grid)
    if tolerance is None:
        tol = 1e-8 * (1.0 + np.abs(fit.c1) + np.abs(fit.c2) * r_grid**2)
    else:
        tol = np.full_like(r_grid, float(tolerance))
    passed = bool(np.all(fit.max_residual <= tol) and np.all(fit.odd_residual <= tol))
    return DouglasFit(
        r_grid=r_grid,
        c1=fit.c1,
        c2=fit.c2,
        max_residual=fit.max_residual,
        odd_residual=fit.odd_residual,
        residuals=fit.residuals,
        tolerance=tol,
        passed=passed,
    )
