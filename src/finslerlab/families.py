"""Construction of Berwald-type metric families and the classification ODEs.

Three layers live here:

* residual evaluators for the structural identities a candidate profile must
  satisfy (the first-order family PDE, the two-equation spray system, and the
  Randers-profile conditions for either volume density), each computed with
  jet-exact partial derivatives;
* solvers that generate admissible profiles from the conditions at the
  nodes of a uniform grid (the closed-form solution of the linear g equation,
  read off one jet, for the Busemann-Hausdorff branch; the exponential of a
  tabulated antiderivative for the Holmes-Thompson branch), every node
  audited with an independent finite-difference derivative of the solved
  values;
* quintic Hermite packaging (SampledFunction) so solved profiles plug into
  the same pipelines as closed-form ones.

The eliminated first-order ODE for g is re-derived here from the two-equation
system; the bundled ``printed_ode_residual`` evaluates a variant form whose
final terms read -2rfh^2 - r^2 f' h^3, kept verbatim for comparison.  The two
forms agree exactly when h is 0 or 1 and disagree otherwise; residuals for
both are always reported so the discrepancy stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .douglas import DouglasFit, douglas_verdict
from .errors import (
    CrossCheckError,
    DegenerateInputError,
    DomainError,
    RegularityError,
)
from .expr import ExpressionTree, ScalarFunction, parse_expression
from .geometry import (
    BerwaldFamilyProfile,
    MetricSpec,
    RegularityReport,
    phi_jet,
    phi_jet_unchecked,
    regularity_scan,
    s_fractions,
    spray_values,
)
from .jets import Jet3, ipow
from .oracle import _dot
from .quadrature import segment_integral
from .randers import admissibility_margin, radial_data

#: enforced bound on the independent node audit of bh_solve_g solutions
BH_NODE_TOL = 1e-8
#: enforced bound on the independent node audit of ht_solve_h solutions
HT_NODE_TOL = 1e-9


def _as_radial_fn(obj):
    """Lift numbers and expression strings to radius functions."""
    if isinstance(obj, (int, float)):
        return ScalarFunction.constant(float(obj))
    if isinstance(obj, str):
        return ScalarFunction.from_text(obj)
    return obj


# -- sampled profiles --------------------------------------------------------


class SampledFunction:
    """Piecewise quintic Hermite interpolant through (value, d1, d2) triples.

    Matches the radius-function protocol of ScalarFunction (``value`` and
    ``jet``), so ODE solutions drop into Randers specs unchanged.  Nodal
    data reproduces exactly; queries outside the node range evaluate the
    boundary polynomial (callers guard domains at the spec level).
    """

    __slots__ = ("r_nodes", "values", "derivs", "second_derivs", "_coef")

    def __init__(self, r_nodes, values, derivs, second_derivs):
        r_nodes = np.asarray(r_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        derivs = np.asarray(derivs, dtype=float)
        second_derivs = np.asarray(second_derivs, dtype=float)
        if r_nodes.ndim != 1 or r_nodes.size < 2:
            raise ValueError("need at least two interpolation nodes")
        if np.any(np.diff(r_nodes) <= 0.0):
            raise ValueError("interpolation nodes must increase strictly")
        for arr in (r_nodes, values, derivs, second_derivs):
            if arr.shape != r_nodes.shape or not np.all(np.isfinite(arr)):
                raise ValueError("nodal data must be finite and congruent")
        self.r_nodes = r_nodes
        self.values = values
        self.derivs = derivs
        self.second_derivs = second_derivs
        self._coef = self._hermite_coefficients()

    def _hermite_coefficients(self) -> np.ndarray:
        # Per interval: p(t) = sum c_k t^k matching (v, d1, d2) at both ends.
        v0, v1 = self.values[:-1], self.values[1:]
        d0, d1 = self.derivs[:-1], self.derivs[1:]
        m0, m1 = self.second_derivs[:-1], self.second_derivs[1:]
        t = np.diff(self.r_nodes)
        a = v1 - v0 - d0 * t - 0.5 * m0 * t * t
        b = d1 - d0 - m0 * t
        c = m1 - m0
        coef = np.empty((t.size, 6))
        coef[:, 0] = v0
        coef[:, 1] = d0
        coef[:, 2] = 0.5 * m0
        coef[:, 3] = (10.0 * a - 4.0 * b * t + 0.5 * c * t * t) / ipow(t, 3)
        coef[:, 4] = (-15.0 * a + 7.0 * b * t - c * t * t) / ipow(t, 4)
        coef[:, 5] = (6.0 * a - 3.0 * b * t + 0.5 * c * t * t) / ipow(t, 5)
        return coef

    def _locate(self, r):
        idx = np.searchsorted(self.r_nodes, r, side="right") - 1
        idx = np.clip(idx, 0, self.r_nodes.size - 2)
        return idx, r - self.r_nodes[idx]

    def value(self, r):
        """Value at a float r or at an array of radii: the value of the order-2 jet."""
        return self.jet(r, 2).value

    def jet(self, r, order: int = 3) -> Jet3:
        """Univariate jet in r: derivative orders 0..order (2 or 3) of the local quintic."""
        r_arr = np.asarray(r, dtype=float)
        idx, t = self._locate(r_arr)
        c = self._coef[idx]
        p = c[..., 5]
        for k in (4, 3, 2, 1, 0):
            p = p * t + c[..., k]
        d1 = 5.0 * c[..., 5]
        for k, m in ((4, 4.0), (3, 3.0), (2, 2.0), (1, 1.0)):
            d1 = d1 * t + m * c[..., k]
        d2 = 20.0 * c[..., 5]
        for k, m in ((4, 12.0), (3, 6.0), (2, 2.0)):
            d2 = d2 * t + m * c[..., k]
        derivs = [p, d1, d2]
        if order == 3:
            d3 = 60.0 * c[..., 5]
            for k, m in ((4, 24.0), (3, 6.0)):
                d3 = d3 * t + m * c[..., k]
            derivs.append(d3)
        if not r_arr.shape:
            derivs = [float(v) for v in derivs]
        return Jet3.radial(derivs, order)

    def __repr__(self) -> str:
        lo, hi = self.r_nodes[0], self.r_nodes[-1]
        return f"SampledFunction({self.r_nodes.size} nodes on [{lo:g}, {hi:g}])"


@dataclass
class OdeSolution:
    """A solved radial profile with its independent node audit.

    ``node_residuals`` re-evaluates the defining condition at every node with
    the derivative taken by finite differences of the solved values (never
    the solver's own right-hand side), so the audit cannot inherit a solver
    bug.
    """

    r_nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    second_derivs: np.ndarray
    node_residuals: np.ndarray
    admissible: bool
    admissibility_margin: float

    @property
    def max_node_residual(self) -> float:
        return float(np.max(np.abs(self.node_residuals)))

    def as_function(self) -> SampledFunction:
        return SampledFunction(self.r_nodes, self.values, self.derivs, self.second_derivs)


def _fd_derivative(values: np.ndarray, step: float) -> np.ndarray:
    """Derivative of uniformly spaced samples, 5th/6th order, values only."""
    v = np.asarray(values, dtype=float)
    m = v.size
    if m < 10:
        raise ValueError("need at least 10 nodes for the derivative audit")
    d = np.empty(m)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * step)
    # one Richardson level where the doubled stencil fits: 6th order
    d2 = (v[: m - 8] - 8.0 * v[2 : m - 6] + 8.0 * v[6 : m - 2] - v[8:m]) / (24.0 * step)
    d[4 : m - 4] = (16.0 * d[4 : m - 4] - d2) / 15.0
    # 6-point one-sided stencils near the ends: 5th order, summed left to right
    # (not by BLAS, whose kernel differs between CPUs)
    fwd = (-137.0 / 60.0, 5.0, -5.0, 10.0 / 3.0, -5.0 / 4.0, 1.0 / 5.0)
    for i in range(4):
        d[i] = _dot(fwd, v[i : i + 6].tolist()) / step
        d[m - 1 - i] = -_dot(fwd, v[m - 6 - i : m - i][::-1].tolist()) / step
    return d


def _audit(solver: str, residuals: np.ndarray, tol: float) -> None:
    """Raise CrossCheckError unless every node residual is within tol.

    A non-finite residual means the solution or its audit stencil overflowed,
    which no finer grid mends, and the message says so.
    """
    worst = float(np.max(np.abs(residuals)))
    if worst <= tol:
        return
    if not math.isfinite(worst):
        raise CrossCheckError(
            f"{solver} node audit failed: max residual {worst!r} is not finite"
            " (the solution overflows double precision; more steps cannot help)"
        )
    raise CrossCheckError(
        f"{solver} node audit failed: max residual {worst:.3e} > {tol:.3g}"
        " (a finer grid tightens the audit stencil; try more steps)"
    )


def _uniform_nodes(r_range, steps: int, r0) -> tuple[np.ndarray, float, int]:
    ra, rb = (float(r_range[0]), float(r_range[1]))
    if not (0.0 < ra < rb):
        raise ValueError(f"r_range must satisfy 0 < r_min < r_max, got {r_range}")
    steps = int(steps)
    if steps < 16:
        raise ValueError("need at least 16 steps for the node audit stencils")
    step = (rb - ra) / steps
    nodes = ra + step * np.arange(steps + 1)
    if r0 is None:
        i0 = 0
    else:
        i0 = int(round((float(r0) - ra) / step))
        if not 0 <= i0 <= steps:
            raise ValueError(f"r0 = {r0} outside r_range {r_range}")
    return nodes, step, i0


# -- residual evaluators -----------------------------------------------------


def family_pde_residual(spec: MetricSpec, c2, r, s):
    """Residual of phi_r + (s/r - 2 r c2 (r^2-s^2) s) phi_s + (1/r - 2 r c2 s^2) phi.

    Solutions of this transport equation are exactly the profiles whose
    sprays have Q = 1/(2r^2) + c2(r) s^2 with P linear in s; positivity is
    deliberately not enforced so degenerate fixtures can be probed.
    """
    c2 = _as_radial_fn(c2)
    r_a = np.asarray(r, dtype=float)
    s_a = np.asarray(s, dtype=float)
    jet = phi_jet_unchecked(spec, r, s)
    c2v = np.asarray(c2.value(r_a))
    phi, phi_r, phi_s = jet.d(0, 0), jet.d(1, 0), jet.d(0, 1)
    res = (
        phi_r
        + (s_a / r_a - 2.0 * r_a * c2v * (r_a * r_a - s_a * s_a) * s_a) * phi_s
        + (1.0 / r_a - 2.0 * r_a * c2v * s_a * s_a) * phi
    )
    return res if np.asarray(res).shape else float(res)


def spray_system_residual(spec: MetricSpec, c1, c2, b, c, r, s):
    """Residuals (res1, res2) of the two first-order spray relations.

    res1 = r[2(r^2-s^2)(c1+c2 s^2) - 1] phi_s - s phi_r
           + 2[b r s + r s (c1+c2 s^2)] phi + 2 r c phi^2
    res2 = r[2(r^2-s^2)(c1+c2 s^2) - 1] phi_ss - s phi_rs + phi_r
           + 2 r (c1+c2 s^2)(phi - s phi_s)

    A profile satisfies both exactly when its spray has Q = c1 + c2 s^2 and
    P = c phi + b s.
    """
    c1, c2, b, c = (_as_radial_fn(v) for v in (c1, c2, b, c))
    r_a = np.asarray(r, dtype=float)
    s_a = np.asarray(s, dtype=float)
    jet = phi_jet_unchecked(spec, r, s)
    phi = jet.d(0, 0)
    phi_r, phi_s = jet.d(1, 0), jet.d(0, 1)
    phi_rs, phi_ss = jet.d(1, 1), jet.d(0, 2)
    c1v, c2v, bv, cv = (np.asarray(fn.value(r_a)) for fn in (c1, c2, b, c))
    q = c1v + c2v * s_a * s_a
    lead = r_a * (2.0 * (r_a * r_a - s_a * s_a) * q - 1.0)
    res1 = (
        lead * phi_s
        - s_a * phi_r
        + 2.0 * (bv * r_a * s_a + r_a * s_a * q) * phi
        + 2.0 * r_a * cv * phi * phi
    )
    res2 = lead * phi_ss - s_a * phi_rs + phi_r + 2.0 * r_a * q * (phi - s_a * phi_s)
    if np.asarray(res1).shape:
        return res1, res2
    return float(res1), float(res2)


@dataclass(frozen=True)
class BhClassification:
    """Residuals of the Randers/BH isotropy conditions at r, a float or a 1-D array.

    Every field has the shape of r.  ``c`` solves the first condition exactly
    (so res1 vanishes to roundoff); res2 is the second condition's defect under
    that c.  The re-derived eliminated ODE for g is equivalent to res2;
    printed_ode_residual is the -2rfh^2 variant form, reported alongside and
    not used for any verdict.
    """

    r: float
    res1: float
    res2: float
    c: float
    printed_ode_residual: float


def bh_classification_residuals(f, g, h, r) -> BhClassification:
    d = radial_data(*(_as_radial_fn(v) for v in (f, g, h)), r)
    r, f_v, fp, g_v, gp, h_v, hp = d.r, d.f, d.f_d1, d.g, d.g_d1, d.h, d.h_d1
    c = d.u1 / (2.0 * f_v)
    res1 = d.u1 - 2.0 * c * f_v
    res2 = d.u2 - 2.0 * c * (g_v - h_v * h_v)
    printed = (
        r * r * f_v * h_v * gp
        + (2.0 * r * f_v * h_v + r * r * fp * h_v - 2.0 * r * r * f_v * hp) * g_v
        + 2.0 * f_v * fp * h_v
        - 2.0 * f_v * f_v * hp
        - 2.0 * r * f_v * h_v * h_v
        - r * r * fp * ipow(h_v, 3)
    )
    return BhClassification(r=r, res1=res1, res2=res2, c=c, printed_ode_residual=printed)


def ht_condition_residual(c_const: float, g, h, r):
    """Residual 2 h'(c/r^2 + r^2 g) - h (r^2 g' - 4c/r^3) of the HT parallel condition.

    r is a float or a 1-D array; f = c/r^2 completes the Randers data whose
    admissibility is checked.
    """
    c_const = float(c_const)
    if not 0.0 < c_const < math.inf:
        raise DomainError(f"c must be a positive finite constant, got {c_const!r}")
    d = radial_data(ScalarFunction.from_text(f"{c_const!r}/r^2"), _as_radial_fn(g),
                    _as_radial_fn(h), r)
    r = d.r
    return 2.0 * d.h_d1 * (c_const / (r * r) + r * r * d.g) - d.h * (
        r * r * d.g_d1 - 4.0 * c_const / ipow(r, 3)
    )


# -- profile solvers ---------------------------------------------------------


def _dip_between_nodes(nodes, h, hp, hpp, tol: float):
    """Where |h| dips to within tol of zero (or through it) between two nodes, or None.

    |h| has a minimum between nodes i and i + 1 when h h' < 0 at i and > 0 at
    i + 1; its value is estimated from the Taylor quadratic at the nearer of
    the two nodes, h - h'^2 / (2 h''), at r - h'/h''.
    """
    hp, hpp = np.broadcast_to(hp, h.shape), np.broadcast_to(hpp, h.shape)
    dips = np.flatnonzero((h[:-1] * hp[:-1] < 0.0) & (h[1:] * hp[1:] > 0.0))
    for i in dips + (np.abs(h[dips + 1]) < np.abs(h[dips])):
        if hpp[i] * h[i] > 0.0:
            step = -hp[i] / hpp[i]
            low = h[i] + 0.5 * hp[i] * step
            if low * h[i] <= 0.0 or abs(low) <= tol:
                return float(nodes[i] + step)
    return None


def bh_solve_g(f, h, g_at_r0: float, r_range, steps: int = 400, r0=None) -> OdeSolution:
    """Solve the eliminated linear ODE g' = alpha g + beta so that the BH conditions hold.

    Eliminating c from the two conditions gives alpha = (ln(h^2/(r^2 f)))'
    and beta r^2 f/h^2 = (r^2 f - f^2/h^2)', so the solution through
    g(r0) = g0 is, exactly,

        g = h^2 - f/r^2 + C h^2/(r^2 f),   C = (g0 - h0^2 + f0/r0^2) r0^2 f0/h0^2,

    and f + r^2 (g - h^2) = C h^2/f.  It is evaluated as one r-jet at the
    nodes of a uniform grid over r_range, with r0 (default: the left
    endpoint) snapped onto the grid; values and both derivatives are read off
    that jet, and the r0 node holds g0 exactly.  Admissibility f > 0,
    f + r^2(g - h^2) > 0 is enforced at every node, and the first failure is
    reported marching from r0 rightwards, then leftwards.  alpha has 1/h, so
    h must not vanish at a node or change sign between adjacent ones; a
    profile with h identically zero is rejected since any g then satisfies
    the system.
    """
    g0 = float(g_at_r0)
    if not math.isfinite(g0):
        raise DomainError(f"g_at_r0 must be finite, got {g0!r}")
    f, h = _as_radial_fn(f), _as_radial_fn(h)
    nodes, step, i0 = _uniform_nodes(r_range, steps, r0)
    fj, hj = f.jet(nodes, order=2), h.jet(nodes, order=2)
    f_nodes = np.broadcast_to(fj.value, nodes.shape)
    h_nodes = np.broadcast_to(hj.value, nodes.shape)
    scale = 1.0 + float(np.max(np.abs(f_nodes)))
    if np.max(np.abs(h_nodes)) <= 1e-13 * scale:
        raise DegenerateInputError(
            "h vanishes identically: the two conditions force c = 0 and leave g free"
        )
    near_zero = np.abs(h_nodes) <= 1e-13 * scale
    sign_change = np.signbit(h_nodes[:-1]) != np.signbit(h_nodes[1:])
    if near_zero.any() or sign_change.any():
        i = int(np.argmin(np.abs(h_nodes)) if near_zero.any() else np.argmax(sign_change))
        raise DomainError(f"h vanishes near r = {nodes[i]:.6g}: the g equation is singular")
    dip = _dip_between_nodes(nodes, h_nodes, hj.d(1, 0), hj.d(2, 0), 1e-13 * scale)
    if dip is not None:
        raise DomainError(f"h vanishes near r = {dip:.6g}: the g equation is singular")

    rr0, f0, h0 = float(nodes[i0]), float(f_nodes[i0]), float(h_nodes[i0])
    const = (g0 - h0 * h0 + f0 / (rr0 * rr0)) * (rr0 * rr0 * f0) / (h0 * h0)
    rj = Jet3.seed(nodes, dr=1.0, order=2)
    r2, h2 = rj * rj, hj * hj
    with np.errstate(over="ignore", invalid="ignore"):
        g_jet = h2 - fj / r2 + const * h2 / (r2 * fj)
    values = np.asarray(g_jet.d(0, 0))
    values[i0] = g0  # the closed form returns g0 only to roundoff
    margins = admissibility_margin(nodes, f_nodes, values, h_nodes)
    march = np.concatenate((np.arange(i0, nodes.size), np.arange(i0 - 1, -1, -1)))
    settled = np.isfinite(values[march]) & (margins[march] > 0.0)
    if not settled.all():
        i = int(march[np.argmin(settled)])
        if not np.isfinite(values[i]):
            raise DomainError(f"g blew up near r = {nodes[i]:.6g}")
        raise DomainError(
            f"solution exits the admissible region at r = {nodes[i]:.6g} "
            f"(min(f, f + r^2(g - h^2)) = {margins[i]:.6g})"
        )
    derivs, second = np.asarray(g_jet.d(1, 0)), np.asarray(g_jet.d(2, 0))

    # independent audit: g' from the node values alone, plugged into the
    # second condition with c solved from the first
    fp, hp = np.asarray(fj.d(1, 0)), np.asarray(hj.d(1, 0))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the audit
        gp_fd = _fd_derivative(values, step)
        qv = f_nodes + nodes * nodes * values
        c_nodes = h_nodes * (nodes * fp + 2.0 * f_nodes) / (4.0 * f_nodes * qv)
        u2_fd = hp / nodes - h_nodes * (nodes * nodes * gp_fd + 2.0 * fp) / (2.0 * nodes * qv)
        residuals = u2_fd - 2.0 * c_nodes * (values - h_nodes * h_nodes)
    _audit("bh_solve_g", residuals, BH_NODE_TOL)
    return OdeSolution(
        r_nodes=nodes,
        values=values,
        derivs=derivs,
        second_derivs=second,
        node_residuals=residuals,
        admissible=True,
        admissibility_margin=float(np.min(margins)),
    )


def ht_solve_h(c_const: float, g, h_at_r0: float, r_range, steps: int = 1600, r0=None) -> OdeSolution:
    """Solve 2h'(c/r^2 + r^2 g) = h (r^2 g' - 4c/r^3) for h.

    The equation is linear homogeneous, so h(r) = h(r0) exp K(r) with K the
    antiderivative of the coefficient from r0 (snapped onto the grid): one
    ``segment_integral`` table, read at the uniform grid nodes.  Admissibility
    g - h^2 > -c/r^4 is reported, not enforced.
    """
    c_const, h0 = float(c_const), float(h_at_r0)
    if not 0.0 < c_const < math.inf:
        raise DomainError(f"c must be a positive finite constant, got {c_const!r}")
    if not math.isfinite(h0):
        raise DomainError(f"h_at_r0 must be finite, got {h0!r}")
    g = _as_radial_fn(g)
    nodes, step, i0 = _uniform_nodes(r_range, steps, r0)

    def kappa(rho):
        gj = g.jet(rho, order=2)
        den = 2.0 * (c_const / (rho * rho) + rho * rho * gj.d(0, 0))
        return (rho * rho * gj.d(1, 0) - 4.0 * c_const / ipow(rho, 3)) / den

    gj_n = g.jet(nodes)
    g_nodes, gp_nodes = np.asarray(gj_n.d(0, 0)), np.asarray(gj_n.d(1, 0))
    den_nodes = c_const / (nodes * nodes) + nodes * nodes * g_nodes
    if np.any(den_nodes <= 0.0):
        i = int(np.argmax(den_nodes <= 0.0))
        raise DomainError(
            f"c/r^2 + r^2 g = {den_nodes[i]:.6g} <= 0 at r = {nodes[i]:.6g}: "
            "the h equation is singular"
        )

    # K from the anchor node outwards, read off its table at the grid nodes
    k_table = segment_integral((kappa,), nodes[i0], nodes[0], nodes[-1])
    values = h0 * np.exp(k_table.at(nodes)[0])

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the audit
        hp_fd = _fd_derivative(values, step)
        residuals = 2.0 * hp_fd * den_nodes - values * (
            nodes * nodes * gp_nodes - 4.0 * c_const / ipow(nodes, 3))
    _audit("ht_solve_h", residuals, HT_NODE_TOL * (1.0 + float(np.max(np.abs(values)))))

    rj = Jet3.seed(nodes, dr=1.0)
    k_jet = (rj * rj * gj_n.deriv(1, 0) - 4.0 * c_const / rj.powi(3)) / (
        2.0 * (c_const / (rj * rj) + rj * rj * gj_n)
    )
    k_nodes, kp_nodes = np.asarray(k_jet.d(0, 0)), np.asarray(k_jet.d(1, 0))
    derivs = k_nodes * values
    second = (kp_nodes + k_nodes * k_nodes) * values
    margins = g_nodes - values * values + c_const / ipow(nodes, 4)
    return OdeSolution(
        r_nodes=nodes,
        values=values,
        derivs=derivs,
        second_derivs=second,
        node_residuals=residuals,
        admissible=bool(np.all(margins > 0.0)),
        admissibility_margin=float(np.min(margins)),
    )


# -- family construction -----------------------------------------------------


@dataclass
class FamilyBuildResult:
    """A built family member plus the diagnostics that certify it."""

    spec: MetricSpec
    pde_max_residual: float
    douglas: DouglasFit
    regularity: RegularityReport


def build_berwald_family(c2, chi, r0: float, domain, n: int) -> FamilyBuildResult:
    """Assemble the family member phi = chi(w) sqrt(g + J s^2) e^{-I2}.

    Here w = s^2/(g + J s^2) and g, J, I2 are the three antiderivatives of
    the construction, all anchored at r0 (integration constants zero there).
    The result is only returned if a regularity scan passes and the family
    PDE residual stays below 1e-8 on a validation grid; the Douglas fit of
    the built spray is bundled as a diagnostic.
    """
    c2 = _as_radial_fn(c2)
    if not isinstance(c2, ScalarFunction):
        raise TypeError("c2 must be a closed-form radius function")
    if isinstance(chi, str):
        chi = parse_expression(chi, {"w"})
    if not isinstance(chi, ExpressionTree):
        raise TypeError("chi must be an expression in w")
    lo, hi = (float(domain[0]), float(domain[1]))
    r0 = float(r0)
    if not lo <= r0 <= hi:
        raise ValueError(f"anchor r0 = {r0} outside domain [{lo}, {hi}]")
    spec = MetricSpec(BerwaldFamilyProfile(c2=c2, chi=chi, r0=r0), int(n), (lo, hi))

    regularity = regularity_scan(spec)
    if not regularity.passed:
        raise RegularityError(
            "family instance is not a Finsler metric for this chi "
            f"(worst margin {regularity.worst_margin:.3e} at {regularity.worst_point}, "
            f"condition {regularity.worst_condition})",
            point=regularity.worst_point,
            condition=regularity.worst_condition,
        )

    r_grid = np.linspace(lo, hi, 9)
    rc = r_grid[:, None]
    worst = float(np.max(np.abs(family_pde_residual(spec, c2, rc, rc * s_fractions(11)))))
    if worst > 1e-8:
        raise CrossCheckError(
            f"constructed family member violates its own PDE: residual {worst:.3e}"
        )
    fit = douglas_verdict(spec, r_grid)
    return FamilyBuildResult(
        spec=spec, pde_max_residual=worst, douglas=fit, regularity=regularity
    )


# -- spray shape helpers -----------------------------------------------------


def p_over_s_spread(spec: MetricSpec, r: float, s_values=None) -> tuple[float, float]:
    """(mean, spread) of P/s over an s grid; spread ~ 0 iff P is linear in s."""
    r = float(r)
    if s_values is None:
        fracs = s_fractions(21)
        s_values = r * fracs[np.abs(fracs) >= 0.1]
    s_arr = np.asarray(s_values, dtype=float)
    if np.any(np.abs(s_arr) < 1e-9 * r):
        raise ValueError("s grid for P/s must avoid s = 0")
    jet = phi_jet(spec, r, s_arr, order=2)  # P reads no third partial
    p = np.broadcast_to(np.asarray(spray_values(spec, r, s_arr, jet).P), s_arr.shape)
    ratio = p / s_arr
    return float(np.mean(ratio)), float(np.max(ratio) - np.min(ratio))

