"""Construction of Berwald-type metric families and the classification ODEs.

Three layers live here:

* residual evaluators for the structural identities a candidate profile must
  satisfy (the first-order family PDE, the two-equation spray system, and the
  Randers-profile conditions for either volume density), each computed with
  jet-exact partial derivatives;
* fixed-step solvers that generate admissible profiles from the conditions
  (RK4 for the Busemann-Hausdorff branch, the exponential of a tabulated
  antiderivative for the Holmes-Thompson branch), every node audited with an
  independent finite-difference derivative of the solved values;
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
        r_arr = np.asarray(r, dtype=float)
        idx, t = self._locate(r_arr)
        c = self._coef[idx]
        out = c[..., 5]
        for k in (4, 3, 2, 1, 0):
            out = out * t + c[..., k]
        return out if r_arr.shape else float(out)

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
    # 6-point one-sided stencils near the ends: 5th order
    fwd = np.array([-137.0 / 60.0, 5.0, -5.0, 10.0 / 3.0, -5.0 / 4.0, 1.0 / 5.0])
    for i in range(4):
        d[i] = np.dot(fwd, v[i : i + 6]) / step
        d[m - 1 - i] = -np.dot(fwd, v[m - 6 - i : m - i][::-1]) / step
    return d


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


def _bh_alpha_beta_jets(f, h, r) -> tuple[Jet3, Jet3]:
    # g' = alpha(r) g + beta(r), obtained by eliminating c from the two
    # conditions; requires h nonvanishing (checked by the caller).
    rj = Jet3.seed(np.asarray(r, dtype=float) if np.ndim(r) else float(r), dr=1.0)
    fj, hj = f.jet(r), h.jet(r)
    fpj, hpj = fj.deriv(1, 0), hj.deriv(1, 0)
    den = rj * rj * fj * hj
    alpha = -(2.0 * rj * fj * hj + rj * rj * fpj * hj - 2.0 * rj * rj * fj * hpj) / den
    beta = (
        -2.0 * fj * fpj * hj
        + 2.0 * fj * fj * hpj
        + 2.0 * rj * fj * hj.powi(3)
        + rj * rj * fpj * hj.powi(3)
    ) / den
    return alpha, beta


def bh_solve_g(f, h, g_at_r0: float, r_range, steps: int = 400, r0=None) -> OdeSolution:
    """Solve the eliminated linear ODE for g so that the BH conditions hold.

    Fixed-step RK4 on a uniform grid over r_range, marching both ways from
    r0 (default: the left endpoint, snapped onto the grid).  Admissibility
    f > 0, f + r^2(g - h^2) > 0 is enforced at every node; a profile with
    h identically zero is rejected since any g then satisfies the system.
    """
    f, h = _as_radial_fn(f), _as_radial_fn(h)
    nodes, step, i0 = _uniform_nodes(r_range, steps, r0)
    m = nodes.size
    h_nodes = np.asarray(h.value(nodes), dtype=float)
    f_nodes = np.asarray(f.value(nodes), dtype=float)
    scale = 1.0 + float(np.max(np.abs(f_nodes)))
    if np.max(np.abs(h_nodes)) <= 1e-13 * scale:
        raise DegenerateInputError(
            "h vanishes identically: the two conditions force c = 0 and leave g free"
        )
    if np.min(np.abs(h_nodes)) <= 1e-13 * scale:
        i = int(np.argmin(np.abs(h_nodes)))
        raise DomainError(f"h vanishes near r = {nodes[i]:.6g}: the g equation is singular")

    mids = nodes[:-1] + 0.5 * step
    aj_n, bj_n = _bh_alpha_beta_jets(f, h, nodes)
    a_nodes, b_nodes = np.asarray(aj_n.d(0, 0)), np.asarray(bj_n.d(0, 0))
    a_d1, b_d1 = np.asarray(aj_n.d(1, 0)), np.asarray(bj_n.d(1, 0))
    aj_m, bj_m = _bh_alpha_beta_jets(f, h, mids)
    a_mid, b_mid = np.asarray(aj_m.d(0, 0)), np.asarray(bj_m.d(0, 0))

    values = np.empty(m)
    values[i0] = float(g_at_r0)

    def rk4(i_from: int, i_to: int, dt: float, i_mid: int) -> float:
        gv = values[i_from]
        k1 = a_nodes[i_from] * gv + b_nodes[i_from]
        k2 = a_mid[i_mid] * (gv + 0.5 * dt * k1) + b_mid[i_mid]
        k3 = a_mid[i_mid] * (gv + 0.5 * dt * k2) + b_mid[i_mid]
        k4 = a_nodes[i_to] * (gv + dt * k3) + b_nodes[i_to]
        return gv + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def settle(i: int) -> float:
        # admissibility margin of node i, once its value is finite and admissible
        if not np.isfinite(values[i]):
            raise DomainError(f"g blew up near r = {nodes[i]:.6g}")
        margin = admissibility_margin(nodes[i], f_nodes[i], values[i], h_nodes[i])
        if margin <= 0.0:
            raise DomainError(
                f"solution exits the admissible region at r = {nodes[i]:.6g} "
                f"(min(f, f + r^2(g - h^2)) = {margin:.6g})"
            )
        return margin

    margin = settle(i0)
    for i in range(i0, m - 1):
        values[i + 1] = rk4(i, i + 1, step, i)
        margin = min(margin, settle(i + 1))
    for i in range(i0, 0, -1):
        values[i - 1] = rk4(i, i - 1, -step, i - 1)
        margin = min(margin, settle(i - 1))

    derivs = a_nodes * values + b_nodes
    second = a_d1 * values + a_nodes * derivs + b_d1

    # independent audit: g' from the node values alone, plugged into the
    # second condition with c solved from the first
    gp_fd = _fd_derivative(values, step)
    fj = f.jet(nodes)
    hj = h.jet(nodes)
    fp, hp = np.asarray(fj.d(1, 0)), np.asarray(hj.d(1, 0))
    qv = f_nodes + nodes * nodes * values
    c_nodes = h_nodes * (nodes * fp + 2.0 * f_nodes) / (4.0 * f_nodes * qv)
    u2_fd = hp / nodes - h_nodes * (nodes * nodes * gp_fd + 2.0 * fp) / (2.0 * nodes * qv)
    residuals = u2_fd - 2.0 * c_nodes * (values - h_nodes * h_nodes)
    worst = float(np.max(np.abs(residuals)))
    if worst > BH_NODE_TOL:
        raise CrossCheckError(
            f"bh_solve_g node audit failed: max residual {worst:.3e} > {BH_NODE_TOL:g}"
            " (a finer grid tightens the audit stencil; try more steps)"
        )
    return OdeSolution(
        r_nodes=nodes,
        values=values,
        derivs=derivs,
        second_derivs=second,
        node_residuals=residuals,
        admissible=True,
        admissibility_margin=float(margin),
    )


def ht_solve_h(c_const: float, g, h_at_r0: float, r_range, steps: int = 1600, r0=None) -> OdeSolution:
    """Solve 2h'(c/r^2 + r^2 g) = h (r^2 g' - 4c/r^3) for h.

    The equation is linear homogeneous, so h(r) = h(r0) exp K(r) with K the
    antiderivative of the coefficient from r0 (snapped onto the grid): one
    ``segment_integral`` table, read at the uniform grid nodes.  Admissibility
    g - h^2 > -c/r^4 is reported, not enforced.
    """
    c_const = float(c_const)
    if c_const <= 0.0:
        raise DomainError(f"c must be a positive constant, got {c_const!r}")
    g = _as_radial_fn(g)
    nodes, step, i0 = _uniform_nodes(r_range, steps, r0)

    def kappa(rho):
        gj = g.jet(rho, order=2)
        den = 2.0 * (c_const / (rho * rho) + rho * rho * gj.d(0, 0))
        return (rho * rho * gj.d(1, 0) - 4.0 * c_const / rho**3) / den

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
    values = float(h_at_r0) * np.exp(k_table.at(nodes)[0])

    rj = Jet3.seed(nodes, dr=1.0)
    k_jet = (rj * rj * gj_n.deriv(1, 0) - 4.0 * c_const / rj.powi(3)) / (
        2.0 * (c_const / (rj * rj) + rj * rj * gj_n)
    )
    k_nodes, kp_nodes = np.asarray(k_jet.d(0, 0)), np.asarray(k_jet.d(1, 0))
    derivs = k_nodes * values
    second = (kp_nodes + k_nodes * k_nodes) * values

    hp_fd = _fd_derivative(values, step)
    residuals = 2.0 * hp_fd * den_nodes - values * (nodes * nodes * gp_nodes - 4.0 * c_const / nodes**3)
    worst = float(np.max(np.abs(residuals)))
    if worst > HT_NODE_TOL * (1.0 + float(np.max(np.abs(values)))):
        raise CrossCheckError(
            f"ht_solve_h node audit failed: max residual {worst:.3e}"
            " (a finer grid tightens the audit stencil; try more steps)"
        )
    margins = g_nodes - values * values + c_const / nodes**4
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

