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
  :mod:`finslerlab.families`).  Only I1' = 2/r - 4 r^3 c2 is integrated, into
  one ``quadrature.segment_integral`` table built once per spec
  (Chebyshev-Lobatto panels over the domain, split at r0, read off by
  barycentric interpolation): J' = 4 r c2 g = -(g/r^2)' and I2' = I1'/2 + 1/r
  give J = 1/r0^2 - g/r^2 and e^{-I2} = (r0/r) g^{-1/2}.  A value therefore
  depends on r and the spec alone, never on which radii were queried before.

Every profile jet is Jet3 arithmetic, on floats and arrays alike: the
general profile's tree by ``expr.eval_tree``; sqrt(f + g s^2) + h s on the
radial jets of f, g and h, read as one program by ``expr.radial_jets`` (a
table keeps its own jet); and the family profile from the r-jet of g (table
value, integrand derivatives; a DomainError where it is not finite), the two
identities, the radicand guard, c2 and chi.

Regularity means three pointwise positivity conditions::

    phi > 0,   phi - s phi_s > 0,   phi - s phi_s + (r^2 - s^2) phi_ss > 0

The last quantity is also the denominator of the spray coefficient Q.

The caller that owns a point set evaluates its profile jet once (``phi_jet``);
``spray_values`` and ``metric_determinant`` read it.  Order 2 serves the readers
of no third partial: the geodesic oracle (norm, spray stages, determinant), the
Douglas fit of Q, the family PDE and spray-system residuals, the P/s spread, the
regularity scan, the assembled tensor and the densities (``volume``); the S-curvature,
the sampled CSV (Q_s) and the Holmes-Thompson density's derivative use order 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DomainError, RegularityError, replay_alone
from .expr import (ExpressionTree, ScalarFunction, eval_tree, parse_expression, radial_jets,
                   radius_function)
from .jets import Jet3, any_true, first_nonfinite, ipow, is_finite
from .quadrature import PanelTable, segment_integral

#: relative inset used when building s-grids that must avoid |s| = r
S_MARGIN = 1e-6


@dataclass(frozen=True)
class GeneralPhi:
    phi: ExpressionTree


@dataclass(frozen=True)
class RandersProfile:
    """Radial Randers data; f, g, h expose value(r) and jet(r, order)."""

    f: object
    g: object
    h: object


@dataclass(frozen=True)
class BerwaldFamilyProfile:
    c2: ScalarFunction
    chi: ExpressionTree
    r0: float


Profile = Union[GeneralPhi, RandersProfile, BerwaldFamilyProfile]


@dataclass(frozen=True)
class MetricSpec:
    profile: Profile
    n: int
    r_domain: tuple[float, float]

    def __hash__(self) -> int:
        """The field hash, computed on first use and kept on the spec: the
        lru_cache lookups keyed on a spec then hash no nested profile."""
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
    profile = RandersProfile(*map(radius_function, (f, g, h)))
    return MetricSpec(profile, n, tuple(map(float, r_domain)))


def s_fractions(count: int) -> np.ndarray:
    """Symmetric grid of s/r fractions, endpoints inset from +-1 by S_MARGIN."""
    if count < 2:
        raise ValueError("need at least two s points")
    return np.linspace(-(1.0 - S_MARGIN), 1.0 - S_MARGIN, count)


def batch_radii(batch, r_grid):
    """batch(r_grid), replayed on an error one radius at a time in grid order."""
    return replay_alone(batch, r_grid, (r_grid[i:i + 1] for i in range(len(r_grid))))


# -- profile jets ------------------------------------------------------------


def _check_domain(spec: MetricSpec, r, s):
    """Raise DomainError unless every radius is in the domain and |s| <= r, NaNs
    failing both (floats or arrays)."""
    rmin, rmax = spec.r_domain
    slack = 1e-12 * (1.0 + rmax)
    outside = (r < rmin - slack) | (r > rmax + slack) | (r != r)  # NaN radii too
    if any_true(outside):
        bad = float(np.asarray(r, dtype=float).flat[int(np.argmax(outside))])
        raise DomainError(f"radius {bad!r} outside declared domain [{rmin}, {rmax}]")
    inside = abs(s) <= r * (1.0 + 1e-12) + 1e-15  # False for a NaN slope too
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        shape = np.broadcast_shapes(np.shape(r), np.shape(s))
        i = int(np.argmax(~np.broadcast_to(inside, shape)))
        bad = float(np.broadcast_to(s, shape).flat[i])
        raise DomainError(
            f"slope s = {bad!r} at point index {i}: the slope variable must satisfy |s| <= |x|"
        )


def _phi_jet_raw(spec: MetricSpec, r, s, order: int = 3, r_order: int = 3) -> Jet3:
    """Profile jet of the given order and r_order; domain checks, no regularity enforcement."""
    _check_domain(spec, r, s)
    p = spec.profile
    if isinstance(p, GeneralPhi):
        return eval_tree(p.phi, {"r": Jet3.seed(r, dr=1.0, order=order, r_order=r_order),
                                 "s": Jet3.seed(s, ds=1.0, order=order, r_order=r_order)})
    if isinstance(p, RandersProfile):
        return _randers_phi_jet(p, r, s, order, r_order)
    return _family_phi_jet(spec, r, s, order, r_order)


def phi_jet_unchecked(spec: MetricSpec, r, s) -> Jet3:
    """Order-3 jet of phi with domain checks but no positivity enforcement.

    Useful for evaluating PDE residuals on degenerate fixtures (odd or
    sign-changing profiles) that a Finsler metric proper would reject.
    """
    return _phi_jet_raw(spec, r, s)


def phi_jet(spec: MetricSpec, r, s, order: int = 3, r_order: int = 3) -> Jet3:
    """Jet of phi at (r, s), of order 3 or 2; raises RegularityError when positivity fails.

    Accepts scalars or broadcastable arrays for r and s.  An array jet drops its
    partials of r-order above r_order and carries the rest bit for bit.
    """
    jet = _phi_jet_raw(spec, r, s, order, r_order)
    m1, m2, m3 = regularity_margins(jet, r, s)
    for cond, m, label in (
        (1, m1, "phi > 0"),
        (2, m2, "phi - s*phi_s > 0"),
        (3, m3, "phi - s*phi_s + (r^2-s^2)*phi_ss > 0"),
    ):
        ok = m > 0.0  # False for a NaN margin too
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
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
    return margins(jet.d(0, 0), jet.d(0, 1), jet.d(0, 2), r, s)


def margins(phi, phi_s, phi_ss, r, s):
    """phi, phi - s phi_s and phi - s phi_s + (r^2 - s^2) phi_ss of values, or of jets
    (of phi and its s-partials, r and s seeded): the positivity margins, det(g)'s factors."""
    m2 = phi - s * phi_s
    return phi, m2, m2 + (r * r - s * s) * phi_ss


# -- Randers profiles ----------------------------------------------------------


def _randers_phi_jet(p: RandersProfile, r, s, order: int, r_order: int = 3) -> Jet3:
    """sqrt(f + g s^2) + h s from the radial jets of f, g and h; a DomainError names
    the first point where it is not finite."""
    fj, gj, hj = radial_jets((p.f, p.g, p.h), r, order, r_order)
    sj = Jet3.seed(s, ds=1.0, order=order, r_order=r_order)
    if type(r) is type(s) is float:  # Python floats never warn (an errstate costs ~2 us)
        jet = (fj + gj * sj * sj).sqrt() + hj * sj
    else:
        with np.errstate(all="ignore"):  # the check below reports what numpy warns of
            jet = (fj + gj * sj * sj).sqrt() + hj * sj
    if not is_finite(jet.c):
        r_i, s_i = first_nonfinite(jet.c, r, s)
        raise DomainError(f"Randers profile sqrt(f + g*s^2) + h*s is not finite at r={r_i!r}, "
                          f"s={s_i!r}")
    return jet


# -- Berwald-type family profiles -------------------------------------------

@lru_cache(maxsize=16)
def _family_table(spec: MetricSpec) -> PanelTable:
    """Table of I1 over spec.r_domain (and r0), built once per spec; DomainError
    names the first node where g = e^{I1} overflows."""
    c2, r0 = spec.profile.c2, spec.profile.r0
    table = segment_integral(lambda rho: 2.0 / rho - 4.0 * ipow(rho, 3) * c2.value(rho),
                             r0, *spec.r_domain)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(np.exp(table.values))
    if bad.any():
        raise DomainError(f"family g = exp(I1) is not finite at r={float(table.nodes[bad][0])!r}")
    return table


def _family_phi_jet(spec: MetricSpec, r, s, order: int, r_order: int = 3) -> Jet3:
    """chi(w) sqrt(g + J s^2) e^{-I2} at r, from the table value of I1.

    g = e^{I1} takes its value from the table and its r-derivatives from the
    exact integrand (fundamental theorem of calculus); J and e^{-I2} are the
    closed forms in g, so the transport-PDE residual is exact to roundoff.
    """
    r = np.asarray(r, dtype=float)
    r = float(r) if r.ndim == 0 else r
    p = spec.profile
    rj = Jet3.seed(r, dr=1.0, order=order, r_order=r_order)
    inv_r = 1.0 / rj
    # g = e^{I1} reads I1' one r-order below its own, so on an array of radii I1'
    # is taken at r-order r_order - 1, and not at all at r-order 0
    cut = r_order - 1 if rj.is_array else order
    g_derivs = [_family_table(spec).at(r), *[None] * order]
    if cut >= 0:
        rj1, inv_r1 = ((rj, inv_r) if cut >= order else
                       (Jet3.radial(j.r_partials(), order, cut) for j in (rj, inv_r)))
        i1_prime = 2.0 * inv_r1 - 4.0 * (rj1.powi(3) * p.c2.jet(r, order, cut))
        g_derivs[1:] = i1_prime.r_partials()
    with np.errstate(over="ignore", invalid="ignore"):  # a large I1 is reported below
        g_jet = Jet3.radial(g_derivs, order, r_order).exp()
    if not is_finite(g_jet.c):
        (at,) = first_nonfinite(g_jet.c, r)
        raise DomainError(f"family g = exp(I1) is not finite at r={at!r}")
    inv_r0 = 1.0 / p.r0
    sj = Jet3.seed(s, ds=1.0, order=order, r_order=r_order)
    s2 = sj * sj
    # a huge g' overflows J s^2, and a tiny g the Taylor data of the powers
    with np.errstate(over="ignore", invalid="ignore"):
        J_jet = inv_r0 * inv_r0 - g_jet * (inv_r * inv_r)
        radicand = g_jet + J_jet * s2
        _check_radicand(r, radicand.value <= 0.0, "is non-positive", "value", radicand.value)
        rsqrt = radicand.powr(-0.5)  # one composition gives both w and the square root
        g_rsqrt = g_jet.powr(-0.5)
    if not (is_finite(rsqrt.c) and is_finite(g_rsqrt.c)):
        bad = sum(~np.isfinite(c) for c in rsqrt.c + g_rsqrt.c if c is not None) > 0
        _check_radicand(r, bad, "is too small: its derivatives overflow", "g =", g_jet.value)
    chi_jet = eval_tree(p.chi, {"w": s2 * (rsqrt * rsqrt)})
    return chi_jet * (radicand * rsqrt) * (g_rsqrt * (p.r0 * inv_r))


def _check_radicand(r, bad, what: str, name: str, value) -> None:
    """DomainError about the family radicand g + J s^2 at the first point of the mask bad."""
    if any_true(bad):
        rr, vv, bb = np.broadcast_arrays(np.asarray(r, dtype=float), value, bad)
        i = int(np.argmax(bb))
        raise DomainError(f"family radical g + J*s^2 {what} at r={float(rr.flat[i])!r} "
                          f"({name} {float(vv.flat[i])!r})")


# -- spray coefficients ------------------------------------------------------


@dataclass(frozen=True)
class SprayValues:
    """Projective (P) and radial (Q) spray data: G^i = u P y^i + u^2 Q x^i.

    ``Q_s`` exists only for spray values computed from an order-3 jet; reading
    it from order-2 ones raises ValueError.
    """

    P: object
    Q: object
    _q_s: object = field(default=None, repr=False)

    @property
    def Q_s(self):
        if self._q_s is None:
            raise ValueError("Q_s needs the third partials of an order-3 profile jet; "
                             "these spray values come from an order-2 jet")
        return self._q_s


def spray_values(r, s, jet: Jet3) -> SprayValues:
    """P, Q and, from an order-3 jet, the exact s-derivative of Q at (r, s).

    Q = (-phi_r + s phi_rs + r phi_ss) / (2 r (phi - s phi_s + (r^2-s^2) phi_ss))
    P = -(s phi + (r^2-s^2) phi_s) Q / phi + (s phi_r + r phi_s) / (2 r phi)

    ``jet`` is ``phi_jet(spec, r, s, order)``, evaluated by the caller; nothing
    else of the spec is read.  P and Q read partials of order <= 2 only, so the
    geodesic oracle, the Douglas fit (Q) and the P/s spread pass an order-2
    jet.  Q_s comes from differentiating the quotient symbolically with the
    third partials (no finite differences); the S-curvature and the sampled
    CSV read it.
    """
    phi = jet.d(0, 0)
    phi_r = jet.d(1, 0)
    phi_s = jet.d(0, 1)
    phi_rs = jet.d(1, 1)
    phi_ss = jet.d(0, 2)
    rr_ss = r * r - s * s
    num = -phi_r + s * phi_rs + r * phi_ss
    den = regularity_margins(jet, r, s)[2]
    q = num / (2.0 * r * den)
    p = -(s * phi + rr_ss * phi_s) * q / phi + (s * phi_r + r * phi_s) / (2.0 * r * phi)
    if jet.order < 3:
        return SprayValues(P=p, Q=q)
    phi_rss = jet.d(1, 2)
    phi_sss = jet.d(0, 3)
    num_s = s * phi_rss + r * phi_sss
    den_s = -3.0 * s * phi_ss + rr_ss * phi_sss
    q_s = (num_s * den - num * den_s) / (2.0 * r * den * den)
    return SprayValues(P=p, Q=q, _q_s=q_s)


def metric_determinant(spec: MetricSpec, r, s, jet: Jet3):
    """det(g_ij) = phi^{n+1} (phi - s phi_s)^{n-2} (phi - s phi_s + (r^2-s^2) phi_ss).

    ``jet`` is ``phi_jet(spec, r, s)``, of order 2 or 3, evaluated by the caller.
    """
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
    jet = _phi_jet_raw(spec, r, s, 2)
    phi, phi_s, phi_ss = jet.d(0, 0), jet.d(0, 1), jet.d(0, 2)
    _, m2, _ = margins(phi, phi_s, phi_ss, r, s)
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
        for k, m in enumerate(regularity_margins(_phi_jet_raw(spec, r, s, 2, 0), r, s)):
            margins[idx + (k,)] = m
        valid[idx] = True

    try:  # the whole grid at once; on a DomainError, point by point
        fill((slice(None), slice(None)), r_grid[:, None], r_grid[:, None] * fracs)
    except DomainError:
        for (i, j), s in np.ndenumerate(r_grid[:, None] * fracs):
            try:
                fill((i, j), r_grid[i], float(s))
            except DomainError as err:
                notes.append(f"r={float(r_grid[i])!r}, s={float(s)!r}: {err}")
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


def _cholesky_spots(spec: MetricSpec, report: RegularityReport):
    good = np.argwhere(report.point_valid & report.ok.all(axis=2))
    # skip |s/r| ~ 1 rows where embed_point degenerates
    good = good[np.abs(report.s_fracs[good[:, 1]]) < 0.999]
    if not len(good):
        return
    stride = max(1, len(good) // 5)
    all_ok = True
    for idx in good[::stride][:5]:
        r = float(report.r_grid[idx[0]])
        s = float(r * report.s_fracs[idx[1]])
        x, y = embed_point(r, s, spec.n)
        g = assemble_metric_matrix(spec, x, y)
        try:
            np.linalg.cholesky(0.5 * (g + g.T))
        except np.linalg.LinAlgError:
            all_ok = False
    report.cholesky_ok = all_ok
