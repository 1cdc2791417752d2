"""Brute-force S-curvature oracle via geodesic flow and distortion.

Nothing here reuses the closed-form S machinery: geodesics are integrated
from the spray, the distortion tau = ln(sqrt(det g)/sigma) is evaluated
pointwise, and S is recovered as the time derivative of tau along the
trajectory.  Agreement with the analytic pipeline validates the spray
coefficients, the determinant identity, the volume densities, and the
reduced S-curvature formula all at once.

The norm, the spray and the determinant read no third partial of the
profile, so every profile jet here is of order 2.  The integrator steps on
Python floats, and its dot products are sums in a fixed order, so its bits
depend on no BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError, DomainError, DomainExitError, FinslerError
from .geometry import MetricSpec, metric_determinant, phi_jet, spray_values
from .jets import Jet3
from .volume import density


@dataclass(frozen=True)
class GeodesicState:
    """A stored state; ``jet`` is the order-2 profile jet at its (r, s), shared
    by the drift check, the next RK4 step's first stage and the distortion."""

    x: np.ndarray
    y: np.ndarray
    t: float
    jet: Jet3 | None = field(default=None, repr=False, compare=False)


def _dot(a, b) -> float:
    """a[0] b[0] + a[1] b[1] + ..., summed left to right."""
    acc = a[0] * b[0]
    for p, q in zip(a[1:], b[1:]):
        acc = acc + p * q
    return float(acc)


def _split(x, y) -> tuple[float, float, float]:
    """(|y|, |x|, <x,y>/|y|) of float sequences or 1-d arrays, from fixed-order sums."""
    u = math.sqrt(_dot(y, y))
    if u <= 0.0:
        raise DomainError("geodesic velocity must be nonzero")
    return u, math.sqrt(_dot(x, x)), _dot(x, y) / u


def _norm_and_jet(spec: MetricSpec, x, y, jet: Jet3 | None = None) -> tuple[float, Jet3]:
    """F(x, y) and the order-2 profile jet at (|x|, <x,y>/|y|), evaluated unless given."""
    u, r, s = _split(x, y)
    if jet is None:
        jet = phi_jet(spec, r, s, order=2)
    return u * float(jet.d(0, 0)), jet


def finsler_norm(spec: MetricSpec, x, y) -> float:
    """F(x, y) = |y| phi(|x|, <x,y>/|y|)."""
    return _norm_and_jet(spec, np.asarray(x, dtype=float).tolist(),
                         np.asarray(y, dtype=float).tolist())[0]


def _spray_rhs(spec: MetricSpec, t: float, x: list, y: list, jet: Jet3 | None = None) -> list:
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
    a, b = u * sv.P, u * u * sv.Q
    return [-2.0 * (a * yi + b * xi) for xi, yi in zip(x, y)]


def integrate_geodesic(
    spec: MetricSpec, x0, y0, t_end: float, steps: int = 64, jet0: Jet3 | None = None
):
    """RK4 trajectory of the geodesic flow; returns a list of GeodesicState.

    Negative t_end integrates backwards.  The Finsler norm of the velocity
    is recomputed at every stored state and must stay within 1e-8 relative
    of its initial value, otherwise the run aborts.  One profile jet is
    evaluated per stored state (``jet0``, the jet at (x0, y0), may be given)
    and reused by the next step's first stage.  The stages step lists of
    floats, with the elementwise operations numpy arrays would perform.
    """
    steps = int(steps)
    if steps < 16:
        raise ValueError("need at least 16 integration steps")
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x0 and y0 must be 1-d vectors of equal dimension >= 2")
    x, y = x.tolist(), y.tolist()
    dt = float(t_end) / steps
    half, sixth = 0.5 * dt, dt / 6.0

    def axpy(a, h, b):  # a + h * b
        return [p + h * q for p, q in zip(a, b)]

    def rk4(k1, k2, k3, k4):  # k1 + 2 k2 + 2 k3 + k4
        return [p + 2.0 * q + 2.0 * v + w for p, q, v, w in zip(k1, k2, k3, k4)]

    f0, jet = _norm_and_jet(spec, x, y, jet0)
    states = [GeodesicState(x=np.array(x), y=np.array(y), t=0.0, jet=jet)]
    for k in range(steps):
        t = k * dt
        k1x, k1y = y, _spray_rhs(spec, t, x, y, jet)
        k2x = axpy(y, half, k1y)
        k2y = _spray_rhs(spec, t + 0.5 * dt, axpy(x, half, k1x), k2x)
        k3x = axpy(y, half, k2y)
        k3y = _spray_rhs(spec, t + 0.5 * dt, axpy(x, half, k2x), k3x)
        k4x = axpy(y, dt, k3y)
        k4y = _spray_rhs(spec, t + dt, axpy(x, dt, k3x), k4x)
        x = axpy(x, sixth, rk4(k1x, k2x, k3x, k4x))
        y = axpy(y, sixth, rk4(k1y, k2y, k3y, k4y))
        f, jet = _norm_and_jet(spec, x, y)
        states.append(GeodesicState(x=np.array(x), y=np.array(y), t=(k + 1) * dt, jet=jet))
        drift = abs(f - f0) / (1.0 + abs(f0))
        if drift > 1e-8:
            raise CrossCheckError(
                f"geodesic integrator drift {drift:.3e} exceeds 1e-8 at t = {(k + 1) * dt:.6g}"
            )
    return states


def _taus(spec: MetricSpec, vol, states) -> list[float]:
    """tau at each GeodesicState: one determinant per state (from its profile
    jet, if it has one), then one density call for all their radii."""
    radii, half_log_det = [], []
    for st in states:
        _, r, s = _split(st.x.tolist(), st.y.tolist())
        det = float(metric_determinant(spec, r, s, st.jet))
        if det <= 0.0:
            raise DomainError(f"det g = {det:.6g} not positive at r={r:.6g}, s={s:.6g}")
        radii.append(r)
        half_log_det.append(0.5 * float(np.log(det)))
    sigma = density(vol, spec, radii[0] if len(radii) == 1 else np.array(radii))
    # a scalar log per value, as for one state
    return [v - float(np.log(sg)) for v, sg in zip(half_log_det, np.ravel(sigma).tolist())]


def distortion(spec: MetricSpec, vol, x, y, jet: Jet3 | None = None) -> float:
    """tau(x, y) = ln( sqrt(det g at (r, s)) / sigma(r) ); jet, if given, is the
    profile jet at (r, s)."""
    state = GeodesicState(np.asarray(x, dtype=float), np.asarray(y, dtype=float), 0.0, jet)
    return _taus(spec, vol, [state])[0]


def s_by_distortion(spec: MetricSpec, vol, x0, y0, dt: float | None = None) -> float:
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
        f0, jet0 = _norm_and_jet(spec, x0.tolist(), y0.tolist())
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
        values = _taus(spec, vol, stored)
    except FinslerError:
        # one state at a time in trajectory order: the forward states are valued
        # before a backward-trajectory error, and each state raises what it
        # raises alone
        stored = [st for states in trajectories for st in states[8::8]]
        values = [_taus(spec, vol, [st])[0] for st in stored]
        if len(trajectories) < 2:
            raise
    taus = {round(st.t / dt): v for st, v in zip(stored, values)}
    return (taus[-2] - 8.0 * taus[-1] + 8.0 * taus[1] - taus[2]) / (12.0 * dt)
