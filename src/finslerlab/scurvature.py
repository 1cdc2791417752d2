"""Reduced S-curvature and the isotropy verdict.

For F = u phi(r, s) with volume density sigma(r), the S-curvature divides by
u = |y| to a function of (r, s) alone::

    S/u = (n+1) P + (r^2 - s^2) Q_s + 2 s Q + f(r) s,    f = -sigma'/(r sigma)

S-curvature is isotropic when S = (n+1) c(r) F for some function of the
radius, i.e. when c(r, s) := (S/u) / ((n+1) phi) does not depend on s.  The
verdict measures the spread of c over each radius's s-grid.

Every term but f(r) s is read off one order-3 profile jet, evaluated by the
caller that owns the points: one per batch of radii, or one per point.  No
term reads phi_rr, phi_rrr or phi_rrs, so a batch's jet is of r-order 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MetricSpec, SprayValues, batch_radii, phi_jet, s_fractions, spray_values
from .jets import Jet3
from .volume import VolumeSpec, density_and_f, f_coefficient


def _s_over_u(n: int, r, s, f_r, sv: SprayValues):
    """(n+1) P + (r^2 - s^2) Q_s + 2 s Q + f(r) s from the spray values at (r, s)."""
    r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
    return (n + 1) * sv.P + (r * r - s * s) * sv.Q_s + 2.0 * s * sv.Q + f_r * s


def reduced_s_given_f(spec: MetricSpec, r, s, f_r, jet: Jet3):
    """S/u at (r, s) from the order-3 profile jet there and the volume's f(r)."""
    return _s_over_u(spec.n, r, s, f_r, spray_values(r, s, jet))


def reduced_s(spec: MetricSpec, vol: VolumeSpec, r, s):
    """S/u at a point (r scalar; s scalar or array)."""
    f_r = f_coefficient(vol, spec, float(r))
    return reduced_s_given_f(spec, r, s, f_r, phi_jet(spec, r, s))


def scurvature_columns(spec: MetricSpec, vol: VolumeSpec, radii, fracs) -> tuple[dict, Jet3]:
    """Columns r, sigma, f_r (shaped (radii, 1)), s, phi, P, Q, Q_s, S_over_u and
    c = (S/u) / ((n+1) phi) at (r, r * fracs) for an array of radii, and the order-3,
    r-order-1 profile jet they read (evaluated after sigma and f(r))."""
    rc = radii[:, None]
    s = rc * fracs
    sigma, f_r = (v[:, None] for v in density_and_f(vol, spec, radii))
    jet = phi_jet(spec, rc, s, 3, 1)
    sv = spray_values(rc, s, jet)
    phi = jet.d(0, 0)
    red = _s_over_u(spec.n, rc, s, f_r, sv)
    return {"r": rc, "s": s, "phi": phi, "P": sv.P, "Q": sv.Q, "Q_s": sv.Q_s, "sigma": sigma,
            "f_r": f_r, "S_over_u": red, "c": red / ((spec.n + 1) * phi)}, jet


@dataclass
class IsotropyReport:
    r_grid: np.ndarray
    s_fracs: np.ndarray
    c_values: np.ndarray      # shape (r, s)
    c_mean: np.ndarray        # per-radius mean of c
    c_spread: np.ndarray      # per-radius max - min of c
    f_values: np.ndarray      # f(r) per radius
    tolerance: float
    passed: bool

    @property
    def c_of_r(self) -> np.ndarray:
        return self.c_mean

    @property
    def max_spread(self) -> float:
        return float(np.max(self.c_spread))


def isotropy_profile(
    spec: MetricSpec,
    vol: VolumeSpec,
    r_grid,
    s_fracs=None,
    tolerance: float | None = None,
) -> IsotropyReport:
    """Sample c(r, s) on a grid and judge s-independence per radius.

    All radii are evaluated in one batch (see ``batch_radii`` for errors).

    ``s_fracs`` are s/r fractions strictly inside (-1, 1); the default is a
    symmetric 21-point grid inset by the relative margin 1e-6.  The default
    tolerance on the per-radius spread is 1e-7 * (1 + max |c|).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    fracs = s_fractions(21) if s_fracs is None else np.asarray(s_fracs, dtype=float)
    if np.any(np.abs(fracs) >= 1.0):
        raise ValueError("s fractions must lie strictly inside (-1, 1)")

    def c_grid(radii):
        cols, _ = scurvature_columns(spec, vol, radii, fracs)
        return cols["c"], cols["f_r"][:, 0]

    c_values, f_values = batch_radii(c_grid, r_grid)
    c_mean = c_values.mean(axis=1)
    c_spread = c_values.max(axis=1) - c_values.min(axis=1)
    if tolerance is None:
        tolerance = 1e-7 * (1.0 + float(np.max(np.abs(c_values))))
    passed = bool(np.max(c_spread) <= tolerance)
    return IsotropyReport(
        r_grid=r_grid,
        s_fracs=fracs,
        c_values=c_values,
        c_mean=c_mean,
        c_spread=c_spread,
        f_values=f_values,
        tolerance=float(tolerance),
        passed=passed,
    )
