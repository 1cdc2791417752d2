"""Randers metrics F = alpha + beta built from radial profile functions.

The Riemannian part is a_ij = f(r) d_ij + g(r) x_i x_j and the 1-form is
b_i = h(r) x_i, so phi(r, s) = sqrt(f + g s^2) + h s.  One radial bundle,
``randers_coefficients`` (floats or arrays of radii), holds the values and
first r-derivatives of f, g, h (one ``expr.radial_jets`` read), q = f + r^2 g,
u1, u2, ||beta||^2 and rho'.  From it come the connection of alpha, the
covariant drift of beta, the closed-form S-curvature and densities, and the
condition checks -- an independent pipeline cross-checked against the
quadrature-based one.

Because beta is closed (b_i is a radial gradient), the antisymmetric part
of b_{i;j} vanishes identically; the symmetric part has the rank-two shape
b_{i;j} = u1 d_ij + u2 x_i x_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expr import ScalarFunction, radial_jets
from .jets import any_true, ipow
from .volume import BH, HT, VOLUMES


def admissibility_margin(r, f, g, h):
    """min(f, f + r^2 (g - h^2)) elementwise: the Randers data is admissible where it is > 0.

    f > 0 and f + r^2 (g - h^2) > 0 together give f + r^2 g > 0 and
    ||beta||_alpha < 1, i.e. a positive-definite alpha dominating beta.
    """
    return np.minimum(f, f + r * r * (g - h * h))


def check_admissible(r, f, g, h) -> None:
    """Raise DomainError naming the first radius where admissibility_margin is <= 0."""
    margin = admissibility_margin(r, f, g, h)
    bad = margin <= 0.0
    if any_true(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"min(f, f + r^2 (g - h^2)) = {float(np.ravel(margin)[i]):.6g} <= 0 at "
            f"r = {float(np.ravel(r)[i]):.6g}: alpha is not positive definite or "
            "does not dominate beta"
        )


_ZERO = ScalarFunction.constant(0.0)


@dataclass(frozen=True)
class RandersCoefficients:
    """The radial Randers data at r, a float or a 1-D array; each field is a float or an array.

    Values and first r-derivatives of f, g and h; q = f + r^2 g; u1 and u2
    with b_{i;j} = u1 d_ij + u2 x_i x_j; beta_norm2 = ||beta||_alpha^2 =
    r^2 h^2 / q; and rho_d1 = rho' for rho = ln sqrt(1 - ||beta||^2).
    """

    r: object
    f: object
    f_d1: object
    g: object
    g_d1: object
    h: object
    h_d1: object
    q: object
    u1: object
    u2: object
    beta_norm2: object
    rho_d1: object


def randers_coefficients(f, g, h, r) -> RandersCoefficients:
    """The radial Randers data of the profiles f, g, h at r, a float or a 1-D array.

    Reads the order-2, r-order-1 jets of f, g and h as one ``radial_jets`` call.
    Raises DomainError where the data is not admissible (see check_admissible).
    """
    r = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    fj, gj, hj = radial_jets((f, g, h), r, 2, 1)
    f_v, fp = fj.d(0, 0), fj.d(1, 0)
    g_v, gp = gj.d(0, 0), gj.d(1, 0)
    h_v, hp = hj.d(0, 0), hj.d(1, 0)
    check_admissible(r, f_v, g_v, h_v)
    q = f_v + r * r * g_v
    u1 = 0.5 * h_v * (r * fp + 2.0 * f_v) / q
    u2 = hp / r - 0.5 * h_v * (r * r * gp + 2.0 * fp) / (r * q)
    b2 = r * r * h_v * h_v / q
    # (r^2 h^2)' = 2 r h (h + r h') and q' = f' + 2 r g + r^2 g'
    b2_d1 = (2.0 * r * h_v * (h_v + r * hp) - b2 * (fp + 2.0 * r * g_v + r * r * gp)) / q
    rho_d1 = -b2_d1 / (2.0 * (1.0 - b2))
    return RandersCoefficients(r, f_v, fp, g_v, gp, h_v, hp, q, u1, u2, b2, rho_d1)


def christoffel_coefficients(f, g, r) -> tuple[float, float, float]:
    """(A, B, C) with Gamma^k_ij = A x_i x_j x_k + B x_k d_ij + C (x_i d_kj + x_j d_ki).

    These are the Christoffel symbols of a_ij = f d_ij + g x_i x_j.
    """
    d = randers_coefficients(f, g, _ZERO, r)
    r, f, fp, g, gp, q = d.r, d.f, d.f_d1, d.g, d.g_d1, d.q
    a = (f * gp - 2.0 * fp * g) / (2.0 * r * f * q)
    b = (2.0 * r * g - fp) / (2.0 * r * q)
    c = fp / (2.0 * r * f)
    return a, b, c


def covariant_b_coefficients(f, g, h, r) -> tuple[float, float]:
    """(u1, u2) with b_{i;j} = u1 d_ij + u2 x_i x_j; both vanish iff beta is parallel."""
    d = randers_coefficients(f, g, h, r)
    return d.u1, d.u2


def _closed_form_is_bh(n, which_volume) -> bool:
    """Whether the closed forms take the BH density (else HT), given as BH/HT or by name."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    vol = VOLUMES.get(which_volume.lower()) if isinstance(which_volume, str) else which_volume
    if vol not in (BH, HT):
        raise ValueError(f"unknown volume kind {which_volume!r}; expected BH, HT, 'bh' or 'ht'")
    return vol == BH


def randers_reduced_s(f, g, h, n: int, r: float, s, which_volume="bh"):
    """S/u at (r, s) from the closed forms, for either volume density.

    With beta closed, the antisymmetric contributions vanish and
    S/u = (n+1) [ (u1 + u2 s^2) / (2 phi) - rho' s / r ], the rho' term
    present only for the Busemann-Hausdorff density (whose log differs from
    the Holmes-Thompson one by exactly (n+1) rho, so the whole correction
    carries the (n+1) factor).
    """
    bh = _closed_form_is_bh(n, which_volume)
    coef = randers_coefficients(f, g, h, float(r))
    s_arr = np.asarray(s, dtype=float)
    phi = np.sqrt(coef.f + coef.g * s_arr * s_arr) + coef.h * s_arr
    if np.any(phi <= 0.0):
        raise DomainError(f"phi <= 0 at r = {r:.6g}: inadmissible (r, s) pair")
    out = (n + 1) * (coef.u1 + coef.u2 * s_arr * s_arr) / (2.0 * phi)
    if bh:
        out = out - (n + 1) * coef.rho_d1 * s_arr / coef.r
    return out if out.shape else float(out)


def sigma_closed_form(f, g, h, n: int, r: float, which_volume="bh") -> float:
    """Closed-form volume density: sqrt(det a) with det a = q f^{n-1}, times
    (1-||beta||^2)^{(n+1)/2} for BH."""
    bh = _closed_form_is_bh(n, which_volume)
    coef = randers_coefficients(f, g, h, float(r))
    out = np.sqrt(coef.q * ipow(coef.f, n - 1))
    if bh:
        out = out * ipow(np.sqrt(1.0 - coef.beta_norm2), n + 1)
    return float(out)


@dataclass(frozen=True)
class IsotropyConditionReport:
    """Least-squares verdict on u1 + u2 s^2 = 2c (f + (g - h^2) s^2) for scalar c."""

    r: float
    c: float
    residual: float
    tolerance: float
    passed: bool


def isotropy_condition_check(
    f, g, h, r: float, s_grid, tolerance: float | None = None
) -> IsotropyConditionReport:
    """Fit the single scalar c in the pointwise isotropy identity at radius r.

    The S-curvature is isotropic under the Busemann-Hausdorff density exactly
    when u1 + u2 s^2 is proportional to f + (g - h^2) s^2 with the same scalar
    2c at every s; the report carries the best c and the max deviation.
    """
    r = float(r)
    s_arr = np.asarray(s_grid, dtype=float)
    if s_arr.size < 3:
        raise ValueError("need at least 3 s points for the isotropy condition fit")
    d = randers_coefficients(f, g, h, r)
    lhs = d.u1 + d.u2 * s_arr * s_arr
    basis = d.f + (d.g - d.h * d.h) * s_arr * s_arr
    denom = 2.0 * float(np.sum(basis * basis))
    c = float(np.sum(lhs * basis)) / denom
    residual = float(np.max(np.abs(lhs - 2.0 * c * basis)))
    if tolerance is None:
        tolerance = 1e-8 * (1.0 + float(np.max(np.abs(lhs))))
    return IsotropyConditionReport(
        r=r, c=c, residual=residual, tolerance=float(tolerance), passed=residual <= tolerance
    )
