"""Volume densities and the radial log-derivative coefficient f(r).

The two intrinsic densities of a spherically symmetric metric reduce to
one-dimensional angular integrals with s = r cos t::

    sigma_bh(r) = int_0^pi sin^{n-2} t dt / int_0^pi sin^{n-2} t phi(r, r cos t)^{-n} dt
    sigma_ht(r) = int_0^pi sin^{n-2} t T(r, r cos t) dt / int_0^pi sin^{n-2} t dt

with T = phi (phi - s phi_s)^{n-2} [(phi - s phi_s) + (r^2 - s^2) phi_ss],
i.e. T = det(g) / phi^2 in the closed-form determinant factorization.

The S-curvature pipeline needs f(r) = -sigma'(r) / (r sigma(r)).  sigma' is
computed by differentiating under the integral sign (the integrand jets carry
the r cos t argument chain exactly); a central-difference cross-check of
log sigma guards the analytic path and raises CrossCheckError on disagreement.

The functions take one radius (kept a Python float) or a 1-D batch of radii,
evaluated at once as (R, N) node jets with r a column; ``refine`` settles and
math.fsum reduces each radius on its own, so it gets the bits it gets alone.

Node jets are of the order each volume reads: 2 under BH (sigma_bh reads phi,
(log sigma_bh)' the first partials of phi^-n, and phi_jet's regularity guard
phi_ss), 3 under HT (T_r and T_s read third partials).  An order-2 jet is the
bit-exact prefix of the order-3 one, so the order changes no value.

The angular sums are reduced with math.fsum and integer powers are repeated
products, so sigma and f(r) do not depend on numpy's reduction blocking or
its SIMD-dispatched pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CrossCheckError, DomainError, FinslerError
from .expr import ScalarFunction
from .geometry import MetricSpec, phi_jet
from .jets import Jet3, any_true, ipow
from .quadrature import angle_nodes, exact_sum, refine


@dataclass(frozen=True)
class BusemannHausdorff:
    pass


@dataclass(frozen=True)
class HolmesThompson:
    pass


@dataclass(frozen=True)
class CustomDensity:
    sigma: ScalarFunction


@dataclass(frozen=True)
class ConstantDensity:
    pass


VolumeSpec = object  # one of the four dataclasses above

BH = BusemannHausdorff()
HT = HolmesThompson()
CONSTANT = ConstantDensity()


def sin_power_integral(n: int) -> float:
    """Closed form of int_0^pi sin^{n-2} t dt (Wallis: I_m = (m-1)/m I_{m-2})."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    m = n - 2
    val = math.pi if m % 2 == 0 else 2.0
    for j in range(2 + m % 2, m + 1, 2):
        val = val * (j - 1) / j
    return val


def _radii(r):
    """Cache key for one radius (a float) or a 1-D batch of radii (a tuple of floats)."""
    return float(r) if np.ndim(r) == 0 else tuple(np.asarray(r, dtype=float).tolist())


#: profile-jet order of the node jets under each volume (see the module docstring)
_BH_ORDER = 2
_HT_ORDER = 3


#: whole-grid entries are (R, N) jets, so the cache stays small; isotropy,
#: douglas and sample on one grid still share their entries
@lru_cache(maxsize=16)
def _node_jets(spec: MetricSpec, r, n_nodes: int, order: int):
    """Radius (float or column), s = r cos t, cos t, weights times sin^{n-2} t,
    and the profile jets of the given order at (r, s) for a key from ``_radii``.

    Regularity is enforced by phi_jet.
    """
    t, w = angle_nodes(n_nodes)
    cos_t = np.cos(t)
    rc = r if isinstance(r, float) else np.array(r)[:, None]
    s = rc * cos_t
    return rc, s, cos_t, w * ipow(np.sin(t), spec.n - 2), phi_jet(spec, rc, s, order)


def _arr(v, shape):
    return np.broadcast_to(np.asarray(v, dtype=float), shape)


def _sigma_bh_at(spec: MetricSpec, r, n_nodes: int):
    _, s, _, ws, jet = _node_jets(spec, r, n_nodes, _BH_ORDER)
    phi = _arr(jet.d(0, 0), s.shape)
    return sin_power_integral(spec.n) / exact_sum(ws * ipow(phi, -spec.n))


def _sigma_ht_at(spec: MetricSpec, r, n_nodes: int):
    rc, s, _, ws, jet = _node_jets(spec, r, n_nodes, _HT_ORDER)
    phi = _arr(jet.d(0, 0), s.shape)
    phi_s = _arr(jet.d(0, 1), s.shape)
    phi_ss = _arr(jet.d(0, 2), s.shape)
    m2 = phi - s * phi_s
    m3 = m2 + (rc * rc - s * s) * phi_ss
    integrand = phi * ipow(m2, spec.n - 2) * m3
    return exact_sum(ws * integrand) / sin_power_integral(spec.n)


def sigma_bh(spec: MetricSpec, r):
    """Busemann-Hausdorff density at radius r (normalized to 1 for phi = 1)."""
    key = _radii(r)
    return refine(lambda n: _sigma_bh_at(spec, key, n))


def sigma_ht(spec: MetricSpec, r):
    """Holmes-Thompson density at radius r (normalized to 1 for phi = 1)."""
    key = _radii(r)
    return refine(lambda n: _sigma_ht_at(spec, key, n))


def _at_first(bad, *values):
    """The values (as floats) at the first True element of the mask bad."""
    i = int(np.argmax(bad))
    return (float(np.ravel(v)[i]) for v in values)


def _check_positive(v, r) -> None:
    bad = np.asarray(v) <= 0.0
    if any_true(bad):
        v_i, r_i = _at_first(bad, v, r)
        raise DomainError(f"custom density must be positive, got {v_i!r} at r={r_i!r}")


def density(vol: VolumeSpec, spec: MetricSpec, r):
    """sigma(r) for any volume specification."""
    if isinstance(vol, BusemannHausdorff):
        return sigma_bh(spec, r)
    if isinstance(vol, HolmesThompson):
        return sigma_ht(spec, r)
    if isinstance(vol, CustomDensity):
        v = vol.sigma.value(r)
        _check_positive(v, r)
        return v
    if isinstance(vol, ConstantDensity):
        return np.ones(np.shape(r)) if np.ndim(r) else 1.0
    raise TypeError(f"unknown volume spec {vol!r}")


# -- derivative under the integral sign --------------------------------------


def _log_deriv_bh_at(spec: MetricSpec, r, n_nodes: int):
    """(log sigma_bh)'(r) via integrand jets."""
    _, s, cos_t, ws, jet = _node_jets(spec, r, n_nodes, _BH_ORDER)
    integrand = jet.powi(-spec.n)
    ddr = _arr(integrand.d(1, 0), s.shape) + cos_t * _arr(integrand.d(0, 1), s.shape)
    j_val = exact_sum(ws * _arr(integrand.d(0, 0), s.shape))
    j_der = exact_sum(ws * ddr)
    return -j_der / j_val


def _log_deriv_ht_at(spec: MetricSpec, r, n_nodes: int):
    """(log sigma_ht)'(r) via integrand jets (order-3 profile jets feed T_r, T_s)."""
    rc, s, cos_t, ws, jet = _node_jets(spec, r, n_nodes, _HT_ORDER)
    rj = Jet3.seed(rc, dr=1.0)
    sj = Jet3.seed(s, ds=1.0)
    m2j = jet - sj * jet.deriv(0, 1)
    m3j = m2j + (rj * rj - sj * sj) * jet.deriv(0, 2)
    t_jet = jet * m2j.powi(spec.n - 2) * m3j
    ddr = _arr(t_jet.d(1, 0), s.shape) + cos_t * _arr(t_jet.d(0, 1), s.shape)
    k_val = exact_sum(ws * _arr(t_jet.d(0, 0), s.shape))
    k_der = exact_sum(ws * ddr)
    return k_der / k_val


def f_coefficient(vol: VolumeSpec, spec: MetricSpec, r):
    """f(r) = -sigma'(r) / (r sigma(r)) for the given volume.

    The quadrature volumes differentiate under the integral sign and always
    cross-check against a central difference of log sigma; CrossCheckError
    flags disagreement beyond 1e-6 relative.
    """
    r = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    if isinstance(vol, ConstantDensity):
        return np.zeros(r.shape) if np.ndim(r) else 0.0
    if isinstance(vol, CustomDensity):
        j = vol.sigma.jet(r, 2)
        v = _arr(j.d(0, 0), np.shape(r))
        _check_positive(v, r)
        f = -_arr(j.d(1, 0), np.shape(r)) / (r * v)
        return f if f.ndim else float(f)
    key = _radii(r)
    at_n = _log_deriv_bh_at if isinstance(vol, BusemannHausdorff) else _log_deriv_ht_at
    dlog = refine(lambda n: at_n(spec, key, n))
    _cross_check_log_derivative(vol, spec, r, dlog)
    return -dlog / r


def _cross_check_log_derivative(vol, spec, r, dlog) -> None:
    rmin, rmax = spec.r_domain
    h = np.minimum(np.minimum(1e-4 * np.maximum(1.0, r), 0.45 * (r - rmin)), 0.45 * (rmax - r))
    if any_true(h < 1e-8):
        (r_i,) = _at_first(h < 1e-8, r)
        raise DomainError(
            f"radius {r_i!r} too close to the domain boundary for the sigma' cross-check"
        )
    sides = (r - h, r + h)
    try:
        sigma = density(vol, spec, np.concatenate([np.ravel(side) for side in sides]))
    except FinslerError:
        # one call per side, lo before hi: the error (or value) each gives alone
        sigma = np.concatenate([np.ravel(density(vol, spec, side)) for side in sides])
    # math.log (libm) of each value, as for a single radius
    logs = np.array([math.log(v) for v in sigma.tolist()])
    lo, hi = np.split(logs, 2)
    fd = (hi - lo) / (2.0 * h)
    off = abs(fd - dlog) > 1e-6 * np.maximum(1.0, abs(dlog))
    if any_true(off):
        r_i, dlog_i, fd_i = _at_first(off, r, dlog, fd)
        raise CrossCheckError(
            f"sigma' under the integral ({dlog_i!r}) and central difference ({fd_i!r}) "
            f"disagree at r={r_i!r}"
        )
