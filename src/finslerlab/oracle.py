"""Brute-force S-curvature oracle via geodesic flow and distortion.

Nothing here reuses the closed-form S machinery: geodesics are integrated
from the spray, the distortion tau = ln(sqrt(det g)/sigma) is evaluated
pointwise, and S is recovered as the time derivative of tau along the
trajectory.  Agreement with the analytic pipeline validates the spray
coefficients, the determinant identity, the volume densities, and the
reduced S-curvature formula all at once.

The norm, the spray and the determinant read no third partial of the
profile, so every profile jet here is of order 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError, DomainError, DomainExitError, FinslerError
from .geometry import MetricSpec, metric_determinant, phi_jet, spray_values
from .jets import Jet3
from .quadrature import QuadratureRule
from .volume import density


@dataclass(frozen=True)
class GeodesicState:
    """A stored state; ``jet`` is the order-2 profile jet at its (r, s), shared
    by the drift check, the next RK4 step's first stage and the distortion."""

    x: np.ndarray
    y: np.ndarray
    t: float
    jet: Jet3 | None = field(default=None, repr=False, compare=False)


def _split(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(|y|, |x|, <x,y>/|y|); the norms are np.linalg.norm's arithmetic without its dispatch."""
    u = math.sqrt(y.dot(y))
    if u <= 0.0:
        raise DomainError("geodesic velocity must be nonzero")
    r = math.sqrt(x.dot(x))
    s = float(x.dot(y)) / u
    return u, r, s


def _norm_and_jet(spec: MetricSpec, x, y, jet: Jet3 | None = None) -> tuple[float, Jet3]:
    """F(x, y) and the order-2 profile jet at (|x|, <x,y>/|y|), evaluated unless given."""
    u, r, s = _split(x, y)
    if jet is None:
        jet = phi_jet(spec, r, s, order=2)
    return u * float(jet.d(0, 0)), jet


def finsler_norm(spec: MetricSpec, x, y) -> float:
    """F(x, y) = |y| phi(|x|, <x,y>/|y|)."""
    return _norm_and_jet(spec, np.asarray(x, dtype=float), np.asarray(y, dtype=float))[0]


def _spray_rhs(
    spec: MetricSpec, t: float, x: np.ndarray, y: np.ndarray, jet: Jet3 | None = None
) -> np.ndarray:
    u, r, s = _split(x, y)
    rmin, rmax = spec.r_domain
    if not rmin <= r <= rmax:
        raise DomainExitError(
            f"trajectory left the radial domain [{rmin}, {rmax}] at t = {t:.6g}",
            t=t,
            point=tuple(x),
        )
    if jet is None:
        jet = phi_jet(spec, r, s, order=2)
    sv = spray_values(spec, r, s, jet)
    # geodesic equation: x'' = -2G, G^i = u P y^i + u^2 Q x^i
    return -2.0 * (u * sv.P * y + u * u * sv.Q * x)


def integrate_geodesic(
    spec: MetricSpec, x0, y0, t_end: float, steps: int = 64, jet0: Jet3 | None = None
):
    """RK4 trajectory of the geodesic flow; returns a list of GeodesicState.

    Negative t_end integrates backwards.  The Finsler norm of the velocity
    is recomputed at every stored state and must stay within 1e-8 relative
    of its initial value, otherwise the run aborts.  One profile jet is
    evaluated per stored state (``jet0``, the jet at (x0, y0), may be given)
    and reused by the next step's first stage.
    """
    steps = int(steps)
    if steps < 16:
        raise ValueError("need at least 16 integration steps")
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x0 and y0 must be 1-d vectors of equal dimension >= 2")
    dt = float(t_end) / steps
    f0, jet = _norm_and_jet(spec, x, y, jet0)
    states = [GeodesicState(x=x.copy(), y=y.copy(), t=0.0, jet=jet)]
    for k in range(steps):
        t = k * dt
        k1x, k1y = y, _spray_rhs(spec, t, x, y, jet)
        k2x = y + 0.5 * dt * k1y
        k2y = _spray_rhs(spec, t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = y + 0.5 * dt * k2y
        k3y = _spray_rhs(spec, t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = y + dt * k3y
        k4y = _spray_rhs(spec, t + dt, x + dt * k3x, k4x)
        x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        f, jet = _norm_and_jet(spec, x, y)
        states.append(GeodesicState(x=x.copy(), y=y.copy(), t=(k + 1) * dt, jet=jet))
        drift = abs(f - f0) / (1.0 + abs(f0))
        if drift > 1e-8:
            raise CrossCheckError(
                f"geodesic integrator drift {drift:.3e} exceeds 1e-8 at t = {(k + 1) * dt:.6g}"
            )
    return states


def _taus(spec: MetricSpec, vol, states, rule: QuadratureRule | None) -> list[float]:
    """tau at each GeodesicState: one determinant per state (from its profile
    jet, if it has one), then one density call for all their radii."""
    radii, half_log_det = [], []
    for st in states:
        _, r, s = _split(st.x, st.y)
        det = float(metric_determinant(spec, r, s, st.jet))
        if det <= 0.0:
            raise DomainError(f"det g = {det:.6g} not positive at r={r:.6g}, s={s:.6g}")
        radii.append(r)
        half_log_det.append(0.5 * float(np.log(det)))
    sigma = density(vol, spec, radii[0] if len(radii) == 1 else np.array(radii), rule)
    # a scalar log per value, as for one state
    return [v - float(np.log(sg)) for v, sg in zip(half_log_det, np.ravel(sigma).tolist())]


def distortion(
    spec: MetricSpec, vol, x, y, rule: QuadratureRule | None = None, jet: Jet3 | None = None
) -> float:
    """tau(x, y) = ln( sqrt(det g at (r, s)) / sigma(r) ); jet, if given, is the
    profile jet at (r, s)."""
    state = GeodesicState(np.asarray(x, dtype=float), np.asarray(y, dtype=float), 0.0, jet)
    return _taus(spec, vol, [state], rule)[0]


def s_by_distortion(
    spec: MetricSpec,
    vol,
    x0,
    y0,
    dt: float | None = None,
    rule: QuadratureRule | None = None,
) -> float:
    """S(x0, y0) as d/dt of the distortion along the geodesic through (x0, y0).

    Five-point fourth-order stencil at t = 0 with one RK4 step per sample;
    the default dt is 1e-3 scaled by 1/F(x0, y0) so the stencil width is
    metrically uniform across specs.  Both directions are integrated first,
    then the four stored states' densities are one ``density`` call.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    jet0 = None
    if dt is None:
        f0, jet0 = _norm_and_jet(spec, x0, y0)
        dt = 1e-3 / f0
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    trajectories = []
    try:
        for direction in (1.0, -1.0):
            trajectories.append(
                integrate_geodesic(spec, x0, y0, direction * 2.0 * dt, steps=16, jet0=jet0))
            jet0 = trajectories[0][0].jet
        stored = [st for states in trajectories for st in states[8::8]]
        values = _taus(spec, vol, stored, rule)
    except FinslerError:
        # one state at a time in trajectory order: the forward states are valued
        # before a backward-trajectory error, and each state raises what it
        # raises alone
        stored = [st for states in trajectories for st in states[8::8]]
        values = [_taus(spec, vol, [st], rule)[0] for st in stored]
        if len(trajectories) < 2:
            raise
    taus = {round(st.t / dt): v for st, v in zip(stored, values)}
    return (taus[-2] - 8.0 * taus[-1] + 8.0 * taus[1] - taus[2]) / (12.0 * dt)
