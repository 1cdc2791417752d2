"""Metric specifications, profile jets, spray coefficients and the metric tensor.

A spherically symmetric Finsler metric on a ball or shell is F = u * phi(r, s)
with r = |x|, u = |y|, s = <x, y>/u (so |s| <= r).  Everything downstream is a
function of the profile phi and its partials, which this module provides as
jets of order 3, or of order 2 where only phi, its first partials, phi_rs and
phi_ss are read, for three profile kinds:

* ``GeneralPhi``      -- phi given as a closed-form expression in (r, s);
* ``RandersProfile``  -- phi = sqrt(f + g s^2) + h s from radial coefficients
  a_ij = f delta_ij + g x_i x_j and b_i = h x_i;
* ``BerwaldFamilyProfile`` -- phi = chi(w) sqrt(g(r) + J(r) s^2) e^{-I2(r)}
  with w = s^2/(g + J s^2), where g = e^{I1}, J and I2 are antiderivatives
  from r0 built from a radial coefficient c2 (see
  :mod:`finslerlab.families`).  Their values come from one
  ``quadrature.segment_integral`` table built once per spec (Chebyshev-Lobatto
  panels over the domain, split at r0, read off by barycentric
  interpolation).  A value therefore depends on r and the spec alone, never
  on which radii were queried before.

Each profile jet is one jet program, evaluated by ``jets.run`` (see
:mod:`finslerlab.jets` for when it compiles a kernel) and keyed on the
profile by jet order: the general profile's tree; sqrt(f + g s^2) + h s with
the trees of expression coefficients recorded in and the jets of the others
(solved profiles) as arguments; the family's r-jets of g, J and I2 from the
three table values, the radicand guard, c2 and chi.

Regularity means three pointwise positivity conditions::

    phi > 0,   phi - s phi_s > 0,   phi - s phi_s + (r^2 - s^2) phi_ss > 0

The last quantity is also the denominator of the spray coefficient Q.

Order-2 jets (``phi_jet(..., order=2)``) serve the consumers that read no
third partial: the geodesic oracle (norm, spray stages, determinant), the
Douglas fit of Q, the P/s spread and the Busemann-Hausdorff density.  The
S-curvature, the sampled CSV (Q_s) and the Holmes-Thompson density use order 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DomainError, FinslerError, RegularityError
from .expr import (ExpressionTree, ScalarFunction, bound_of, eval_tree, parse_expression,
                   state_without_kernels, tree_jet)
from .jets import SIZE, Jet3, any_true, ipow, run
from .quadrature import PanelTable, segment_integral

#: relative inset used when building s-grids that must avoid |s| = r
S_MARGIN = 1e-6


@dataclass(frozen=True)
class GeneralPhi:
    phi: ExpressionTree


@dataclass(frozen=True)
class RandersProfile:
    """Radial Randers data; f, g, h expose value(r) and jet(r, order).

    Its jet is one program: the trees of the ScalarFunction coefficients are
    part of it, and the jets of the others are its arguments.
    """

    f: object
    g: object
    h: object

    __getstate__ = state_without_kernels


@dataclass(frozen=True)
class BerwaldFamilyProfile:
    c2: ScalarFunction
    chi: ExpressionTree
    r0: float

    __getstate__ = state_without_kernels


Profile = Union[GeneralPhi, RandersProfile, BerwaldFamilyProfile]


@dataclass(frozen=True)
class MetricSpec:
    profile: Profile
    n: int
    r_domain: tuple[float, float]

    def __hash__(self) -> int:
        """The field hash, computed on first use and kept on the spec, as eval_tree
        keeps a tree's kernels: the lru_cache lookups keyed on a spec then hash
        no nested profile."""
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.profile, self.n, self.r_domain)))
            return self._hash

    def __getstate__(self):
        """The fields: string hashes differ between processes, so _hash stays behind."""
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"dimension n must be an integer >= 2, got {self.n}")
        rmin, rmax = self.r_domain
        if not (0.0 < rmin < rmax):
            raise ValueError(f"r_domain must satisfy 0 < r_min < r_max, got {self.r_domain}")


def general_phi_spec(phi, n: int, r_domain=(1e-3, 1.0)) -> MetricSpec:
    if isinstance(phi, str):
        phi = parse_expression(phi, {"r", "s"})
    return MetricSpec(GeneralPhi(phi), n, tuple(map(float, r_domain)))


def randers_spec(f, g, h, n: int, r_domain=(1e-3, 1.0)) -> MetricSpec:
    f, g, h = (ScalarFunction.from_text(v) if isinstance(v, str) else v for v in (f, g, h))
    return MetricSpec(RandersProfile(f, g, h), n, tuple(map(float, r_domain)))


def s_fractions(count: int, margin: float = S_MARGIN) -> np.ndarray:
    """Symmetric grid of s/r fractions, endpoints inset from +-1 by margin."""
    if count < 2:
        raise ValueError("need at least two s points")
    return np.linspace(-(1.0 - margin), 1.0 - margin, count)


def batch_radii(batch, r_grid):
    """batch(r_grid), or on a FinslerError what the first failing radius raises alone.

    A batch may meet a later radius's error first; replaying one radius at a
    time in grid order reports the error a loop over the radii would.
    """
    try:
        return batch(r_grid)
    except FinslerError:
        for i in range(len(r_grid)):
            batch(r_grid[i:i + 1])
        raise


# -- profile jets ------------------------------------------------------------


def _check_domain(spec: MetricSpec, r, s):
    """Raise DomainError unless every radius is in the domain and |s| <= r (floats or arrays)."""
    rmin, rmax = spec.r_domain
    slack = 1e-12 * (1.0 + rmax)
    outside = (r < rmin - slack) | (r > rmax + slack) | (r != r)  # NaN radii too
    if any_true(outside):
        bad = float(np.asarray(r, dtype=float).flat[int(np.argmax(outside))])
        raise DomainError(f"radius {bad!r} outside declared domain [{rmin}, {rmax}]")
    mask = abs(s) > r * (1.0 + 1e-12) + 1e-15
    if any_true(mask):
        i = int(np.argmax(np.broadcast_to(mask, np.broadcast_shapes(np.shape(r), np.shape(s)))))
        raise DomainError(
            f"|s| > r at point index {i}: the slope variable must satisfy |s| <= |x|"
        )


def _phi_jet_raw(spec: MetricSpec, r, s, order: int = 3) -> Jet3:
    """Profile jet of the given order with domain checks but no regularity enforcement."""
    _check_domain(spec, r, s)
    p = spec.profile
    if isinstance(p, GeneralPhi):
        return eval_tree(p.phi, {"r": Jet3.seed(r, dr=1.0, order=order),
                                 "s": Jet3.seed(s, ds=1.0, order=order)})
    if isinstance(p, RandersProfile):
        return _randers_phi_jet(p, r, s, order)
    return _family_phi_jet(spec, r, s, order)


def phi_jet_unchecked(spec: MetricSpec, r, s) -> Jet3:
    """Order-3 jet of phi with domain checks but no positivity enforcement.

    Useful for evaluating PDE residuals on degenerate fixtures (odd or
    sign-changing profiles) that a Finsler metric proper would reject.
    """
    return _phi_jet_raw(spec, r, s)


def phi_jet(spec: MetricSpec, r, s, order: int = 3) -> Jet3:
    """Jet of phi at (r, s), of order 3 or 2; raises RegularityError when positivity fails.

    Accepts scalars or broadcastable arrays for r and s.
    """
    jet = _phi_jet_raw(spec, r, s, order)
    m1, m2, m3 = regularity_margins(jet, r, s)
    for cond, m, label in (
        (1, m1, "phi > 0"),
        (2, m2, "phi - s*phi_s > 0"),
        (3, m3, "phi - s*phi_s + (r^2-s^2)*phi_ss > 0"),
    ):
        if any_true(m <= 0.0):
            rr, ss, mm = np.broadcast_arrays(np.asarray(r, float), np.asarray(s, float), m)
            i = int(np.argmin(mm))
            raise RegularityError(
                f"regularity condition {cond} ({label}) fails at "
                f"r={float(rr.flat[i])!r}, s={float(ss.flat[i])!r} "
                f"(margin {float(mm.flat[i])!r})",
                point=(float(rr.flat[i]), float(ss.flat[i])),
                condition=cond,
            )
    return jet


def regularity_margins(jet: Jet3, r, s):
    """The three positivity margins from an already computed profile jet."""
    m1 = jet.d(0, 0)
    m2 = m1 - s * jet.d(0, 1)
    m3 = m2 + (r * r - s * s) * jet.d(0, 2)
    return m1, m2, m3


# -- Randers profiles ----------------------------------------------------------


def _randers_phi_jet(p: RandersProfile, r, s, order: int) -> Jet3:
    """sqrt(f + g s^2) + h s, by jets.run."""
    coeffs = (p.f, p.g, p.h)
    bound = bound_of(p, lambda: [x.tree for x in coeffs if isinstance(x, ScalarFunction)])
    inputs = [x.jet(r, order).c for x in coeffs if not isinstance(x, ScalarFunction)]
    return Jet3(run(_randers_program, lambda: (_kinds(p, bound), order), bound, order,
                    (r, s, *inputs)))


def _kinds(p: RandersProfile, bound) -> tuple:
    """Per coefficient: (its tree shape,) for a ScalarFunction, else None."""
    shapes = iter(bound.shapes)
    return tuple((next(shapes),) if isinstance(x, ScalarFunction) else None
                 for x in (p.f, p.g, p.h))


def _randers_program(tape, kinds, order: int) -> tuple:
    """(f + g*s*s).sqrt() + h*s on arguments r, s and a jet per coefficient of
    kind None; the others are ScalarFunction.jet of their tree shapes."""
    r, s = tape.param(), tape.param()
    coeffs = []
    for kind in kinds:
        if kind is None:
            coeffs.append(Jet3(tape.param_jet(SIZE[order])))
        else:
            coeffs.append(tree_jet(tape, kind[0], {"r": Jet3.seed(r, dr=1.0, order=order)}))
    tape.unmark()
    fj, gj, hj = coeffs
    sj = Jet3.seed(s, ds=1.0, order=order)
    return ((fj + gj * sj * sj).sqrt() + hj * sj).c


# -- Berwald-type family profiles -------------------------------------------

@lru_cache(maxsize=16)
def _family_table(spec: MetricSpec) -> PanelTable:
    """Table of I1, J and I2 over spec.r_domain (and r0), built once per spec.

    The integrands of I1, J and I2 in order; J's reads I1 at its own nodes.
    """
    c2, r0 = spec.profile.c2, spec.profile.r0
    return segment_integral((lambda rho: 2.0 / rho - 4.0 * ipow(rho, 3) * c2.value(rho),
                             lambda rho, i1: 4.0 * rho * c2.value(rho) * np.exp(i1),
                             lambda rho, *_: 2.0 / rho - 2.0 * ipow(rho, 3) * c2.value(rho)),
                            r0, *spec.r_domain)


def _family_phi_jet(spec: MetricSpec, r, s, order: int) -> Jet3:
    """chi(w) sqrt(g + J s^2) e^{-I2}: the table values of I1, J and I2 at r, then
    jets.run."""
    r = np.asarray(r, dtype=float)
    r = float(r) if r.ndim == 0 else r
    i1, j, i2 = _family_table(spec).at(r)
    p = spec.profile
    bound = bound_of(p, lambda: [p.c2.tree, p.chi])
    return Jet3(run(_family_program, lambda: (*bound.shapes, order), bound, order,
                    (r, s, i1, j, i2)))


def _family_program(tape, c2_shape, chi_shape, order: int) -> tuple:
    """The family profile jet on arguments r, s and the table values i1, j, i2,
    with c2 and chi of these shapes.

    The r-jets of g = e^{I1}, J and I2 take their values from the table and
    their r-derivatives from the exact integrands (fundamental theorem of
    calculus), so the transport-PDE residual is exact to roundoff.
    """
    r, s, i1, j, i2 = (tape.param() for _ in range(5))
    rj = Jet3.seed(r, dr=1.0, order=order)
    c2j = tree_jet(tape, c2_shape, {"r": Jet3.seed(r, dr=1.0, order=order)})  # c2.jet
    tape.unmark()
    r3c2 = rj.powi(3) * c2j
    two_over_r = 2.0 / rj
    g_jet = _antiderivative_jet(i1, two_over_r - 4.0 * r3c2, order).exp()
    J_jet = _antiderivative_jet(j, 4.0 * rj * c2j * g_jet, order)
    I2_jet = _antiderivative_jet(i2, two_over_r - 2.0 * r3c2, order)
    sj = Jet3.seed(s, ds=1.0, order=order)
    s2 = sj * sj
    radicand = g_jet + J_jet * s2
    tape.call(_check_radicand, r, radicand.value)
    rsqrt = radicand.powr(-0.5)  # one composition gives both w and the square root
    chi_jet = tree_jet(tape, chi_shape, {"w": s2 * (rsqrt * rsqrt)})
    tape.unmark()
    return (chi_jet * (radicand * rsqrt) * (-I2_jet).exp()).c


def _antiderivative_jet(value, integrand: Jet3, order: int) -> Jet3:
    """Order-``order`` jet of an antiderivative: its value + integrand derivatives."""
    return Jet3.radial([value] + [integrand.d(a, 0) for a in range(order)], order)


def _check_radicand(r, value) -> None:
    """DomainError unless the family radicand g + J s^2 is positive everywhere."""
    bad = value <= 0.0
    if any_true(bad):
        i = int(np.argmax(bad))
        rr, vv = np.broadcast_arrays(np.asarray(r, dtype=float), value)
        raise DomainError(
            f"family radical g + J*s^2 is non-positive at r={float(rr.flat[i])!r} "
            f"(value {float(vv.flat[i])!r})"
        )


# -- spray coefficients ------------------------------------------------------


@dataclass(frozen=True)
class SprayValues:
    """Projective (P) and radial (Q) spray data: G^i = u P y^i + u^2 Q x^i.

    ``Q_s`` exists only for spray values computed from an order-3 jet; reading
    it from order-2 ones raises ValueError.
    """

    P: object
    Q: object
    denom: object
    _q_s: object = field(default=None, repr=False)

    @property
    def Q_s(self):
        if self._q_s is None:
            raise ValueError("Q_s needs the third partials of an order-3 profile jet; "
                             "these spray values come from an order-2 jet")
        return self._q_s


def spray_values(spec: MetricSpec, r, s, jet: Jet3 | None = None) -> SprayValues:
    """P, Q and, from an order-3 jet, the exact s-derivative of Q at (r, s).

    Q = (-phi_r + s phi_rs + r phi_ss) / (2 r (phi - s phi_s + (r^2-s^2) phi_ss))
    P = -(s phi + (r^2-s^2) phi_s) Q / phi + (s phi_r + r phi_s) / (2 r phi)

    P and Q read partials of order <= 2 only, so the geodesic oracle, the
    Douglas fit (Q) and the P/s spread pass an order-2 jet.  Q_s comes from
    differentiating the quotient symbolically with the third partials (no
    finite differences); the S-curvature and the sampled CSV read it.
    ``jet``, if given, is ``phi_jet(spec, r, s, order)`` already evaluated;
    by default an order-3 jet is evaluated.
    """
    if jet is None:
        jet = phi_jet(spec, r, s)
    phi = jet.d(0, 0)
    phi_r = jet.d(1, 0)
    phi_s = jet.d(0, 1)
    phi_rs = jet.d(1, 1)
    phi_ss = jet.d(0, 2)
    rr_ss = r * r - s * s
    num = -phi_r + s * phi_rs + r * phi_ss
    den = phi - s * phi_s + rr_ss * phi_ss
    q = num / (2.0 * r * den)
    p = -(s * phi + rr_ss * phi_s) * q / phi + (s * phi_r + r * phi_s) / (2.0 * r * phi)
    if jet.order < 3:
        return SprayValues(P=p, Q=q, denom=den)
    phi_rss = jet.d(1, 2)
    phi_sss = jet.d(0, 3)
    num_s = s * phi_rss + r * phi_sss
    den_s = -3.0 * s * phi_ss + rr_ss * phi_sss
    q_s = (num_s * den - num * den_s) / (2.0 * r * den * den)
    return SprayValues(P=p, Q=q, denom=den, _q_s=q_s)


def metric_determinant(spec: MetricSpec, r, s, jet: Jet3 | None = None):
    """det(g_ij) = phi^{n+1} (phi - s phi_s)^{n-2} (phi - s phi_s + (r^2-s^2) phi_ss).

    ``jet``, if given, is ``phi_jet(spec, r, s)`` already evaluated.
    """
    if jet is None:
        jet = phi_jet(spec, r, s)
    m1, m2, m3 = regularity_margins(jet, r, s)
    n = spec.n
    return ipow(m1, n + 1) * ipow(m2, n - 2) * m3


def assemble_metric_matrix(spec: MetricSpec, x, y) -> np.ndarray:
    """Fundamental tensor g_ij(x, y) assembled directly from the profile jet.

    Used as the anchor for brute-force determinant and positive-definiteness
    checks; the closed-form determinant above must agree with numpy's.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (spec.n,) or y.shape != (spec.n,):
        raise DomainError(f"x and y must be vectors of length n={spec.n}")
    u = float(np.linalg.norm(y))
    if u < 1e-300:
        raise DomainError("y must be non-zero")
    r = float(np.linalg.norm(x))
    s = float(np.dot(x, y) / u)
    jet = _phi_jet_raw(spec, r, s)
    phi = jet.d(0, 0)
    phi_s = jet.d(0, 1)
    phi_ss = jet.d(0, 2)
    m2 = phi - s * phi_s
    yh = y / u
    a_dd = phi * m2
    a_xx = phi_s * phi_s + phi * phi_ss
    a_yy = s * s * phi * phi_ss - s * m2 * phi_s
    a_xy = m2 * phi_s - s * phi * phi_ss
    eye = np.eye(spec.n)
    return (
        a_dd * eye
        + a_xx * np.outer(x, x)
        + a_yy * np.outer(yh, yh)
        + a_xy * (np.outer(x, yh) + np.outer(yh, x))
    )


# -- regularity scan ---------------------------------------------------------


@dataclass
class RegularityReport:
    r_grid: np.ndarray
    s_fracs: np.ndarray
    margins: np.ndarray        # (r, s, 3), nan where evaluation failed
    ok: np.ndarray             # (r, s, 3) boolean
    point_valid: np.ndarray    # (r, s) boolean: evaluation succeeded
    passed: bool
    worst_margin: float
    worst_point: tuple[float, float] | None
    worst_condition: int | None
    cholesky_points: list = field(default_factory=list)
    cholesky_ok: bool | None = None
    notes: list = field(default_factory=list)


def regularity_scan(spec: MetricSpec, r_count: int = 25, s_count: int = 25) -> RegularityReport:
    """Evaluate the three positivity conditions on an (r, s/r) tensor grid.

    Failures are recorded, never thrown.  A handful of passing points also get
    a Cholesky factorization of the assembled tensor as a report-only
    positive-definiteness spot check.
    """
    r_grid = np.linspace(spec.r_domain[0], spec.r_domain[1], r_count)
    fracs = np.linspace(-1.0, 1.0, s_count)
    margins = np.full((r_count, s_count, 3), np.nan)
    valid = np.zeros((r_count, s_count), dtype=bool)
    notes: list[str] = []

    def fill(idx, r, s):
        for k, m in enumerate(regularity_margins(_phi_jet_raw(spec, r, s), r, s)):
            margins[idx + (k,)] = m
        valid[idx] = True

    try:  # the whole grid at once; on a DomainError, rows and then points
        fill((slice(None), slice(None)), r_grid[:, None], r_grid[:, None] * fracs)
    except DomainError:
        for i, r in enumerate(r_grid):
            s_row = r * fracs
            try:
                fill((i, slice(None)), r, s_row)
            except DomainError:
                for j, s in enumerate(s_row):
                    try:
                        fill((i, j), r, float(s))
                    except DomainError as err:
                        notes.append(f"r={float(r)!r}, s={float(s)!r}: {err}")
    ok = np.where(np.isnan(margins), False, margins > 0.0)
    passed = bool(valid.all() and ok.all())
    worst_margin = np.inf
    worst_point = None
    worst_condition = None
    if np.any(valid):
        flat = np.where(np.isnan(margins), np.inf, margins)
        idx = np.unravel_index(int(np.argmin(flat)), flat.shape)
        worst_margin = float(flat[idx])
        worst_point = (float(r_grid[idx[0]]), float(r_grid[idx[0]] * fracs[idx[1]]))
        worst_condition = int(idx[2]) + 1
    report = RegularityReport(
        r_grid=r_grid,
        s_fracs=fracs,
        margins=margins,
        ok=ok,
        point_valid=valid,
        passed=passed,
        worst_margin=worst_margin,
        worst_point=worst_point,
        worst_condition=worst_condition,
        notes=notes,
    )
    _cholesky_spots(spec, report)
    return report


def embed_point(r: float, s: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectors x, y in R^n realizing the given (r, s) with |y| = 1; needs |s| < r."""
    x = np.zeros(n)
    x[0] = r
    y = np.zeros(n)
    y[0] = s / r
    y[1] = np.sqrt(max(1.0 - (s / r) ** 2, 0.0))
    return x, y


def _cholesky_spots(spec: MetricSpec, report: RegularityReport, count: int = 5):
    good = np.argwhere(report.point_valid & report.ok.all(axis=2))
    # skip |s/r| ~ 1 rows where embed_point degenerates
    good = [idx for idx in good if abs(report.s_fracs[idx[1]]) < 0.999]
    if not good:
        return
    stride = max(1, len(good) // count)
    all_ok = True
    for idx in good[::stride][:count]:
        r = float(report.r_grid[idx[0]])
        s = float(r * report.s_fracs[idx[1]])
        x, y = embed_point(r, s, spec.n)
        g = assemble_metric_matrix(spec, x, y)
        try:
            np.linalg.cholesky(0.5 * (g + g.T))
            ok = True
        except np.linalg.LinAlgError:
            ok = False
            all_ok = False
        report.cholesky_points.append({"r": r, "s": s, "positive_definite": ok})
    report.cholesky_ok = all_ok
