"""Volume densities and the radial log-derivative coefficient f(r).

The two intrinsic densities of a spherically symmetric metric reduce to
one-dimensional angular integrals with s = r cos t::

    sigma_bh(r) = int_0^pi sin^{n-2} t dt / int_0^pi sin^{n-2} t phi(r, r cos t)^{-n} dt
    sigma_ht(r) = int_0^pi sin^{n-2} t T(r, r cos t) dt / int_0^pi sin^{n-2} t dt

with T = phi (phi - s phi_s)^{n-2} [(phi - s phi_s) + (r^2 - s^2) phi_ss],
i.e. T = det(g) / phi^n in the closed-form determinant factorization.

The S-curvature pipeline needs f(r) = -sigma'(r) / (r sigma(r)).  sigma' is
computed by differentiating under the integral sign (the integrand jets carry
the r cos t argument chain exactly); a central-difference cross-check of
log sigma guards the analytic path and raises CrossCheckError on disagreement.

The functions take one radius (kept a Python float) or a 1-D batch of radii,
evaluated at once as (R, N) node jets with r a column; ``refine`` settles and
``exact_sum`` reduces each radius on its own, so it gets the bits it gets
alone.  Likewise one node jet holds the nodes of every count a ``refine`` call
asks for (64 and 128 in its first), and each count's block of nodes is summed
on its own (all blocks of one integrand in one ``exact_block_sums`` call), so
each count gets the bits of a jet of its nodes alone.

One routine, ``_angular_at``, sums each volume's integrand, written once on
values or on jets: phi^-n, or T from ``geometry.margins``.  At r-order 0 it
sums values for sigma; its node jets are order 2, r-order 0 under both volumes,
what phi_jet's guard reads.  At r-order 1 it sums the integrand and its
r-derivative for (sigma, (log sigma)'): order 2 under BH, order 3 under HT
(T_r, T_s), r-order 1, with phi, phi_s and phi_ss cut to first order after the
shift.  A carried partial has the full order-3 jet's bits and a value slot the
value's, so ``density_and_f`` reads sigma off the r-order-1 sums, and one
refinement settles the pair elementwise: each keeps the bits it settles at
alone, and sigma's are density's.  A process keeps its last F_CACHE_SIZE pairs
per (volume, spec, radii), so the grid commands on one config settle f(r) once;
the node-jet cache then serves only the call that evaluates its entries.
Constant and custom densities take (sigma, f) from one closed-form helper.
The sums are taken under one ``np.errstate``: a sigma that is not a positive
finite double, or a (log sigma)' that is not finite, is a DomainError naming
the volume, the first such radius and n.

The angular sums are correctly rounded (``quadrature.exact_sum``: math.fsum's
double, by math.fsum for few radii and by error-free extraction for many) and
integer powers are repeated products, so sigma and f(r) do not depend on
numpy's reduction blocking or its SIMD-dispatched pow.  cos t and the weights
times sin^{n-2} t are computed once per node counts and dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import CrossCheckError, DomainError, replay_alone
from .expr import ScalarFunction
from .geometry import MetricSpec, margins, phi_jet
from .jets import Jet3, any_true, ipow
from .quadrature import angle_nodes, exact_block_sums, exact_sum, refine


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
#: the volumes a config names, by name
VOLUMES = {"bh": BH, "ht": HT, "constant": CONSTANT}


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


#: verdicts share (sigma, f) through density_and_f's cache, not node jets, so this
#: cache holds the two entries one density_and_f call evaluates (sigma' at the
#: radii, the cross-check's sigma at r -+ h); whole-grid entries are (R, N) jets
@lru_cache(maxsize=2)
def _node_jets(spec: MetricSpec, r, counts: tuple[int, ...], order: int, r_order: int):
    """Radius (float or column), s = r cos t, cos t, weights times sin^{n-2} t,
    and the profile jets of the given order and r-order at (r, s) for a key from
    ``_radii``, with the Gauss-Legendre nodes of each count in ``counts`` side by side.

    Regularity is enforced by phi_jet; a failure raises what the first failing
    count raises alone (when no lower count does, every failing node is the last's).
    """
    cos_t, ws = _angle_columns(counts, spec.n)
    rc = r if isinstance(r, float) else np.array(r)[:, None]
    s = rc * cos_t
    jet = replay_alone(lambda s: phi_jet(spec, rc, s, order, r_order), s,
                       (rc * _angle_columns((n,), spec.n)[0] for n in counts[:-1]))
    return rc, s, cos_t, ws, jet


@lru_cache(maxsize=32)
def _angle_columns(counts: tuple[int, ...], n: int):
    """cos t and the weights times sin^{n-2} t at the Gauss-Legendre nodes of each
    count in ``counts``, side by side (read-only: every node-jet entry shares them)."""
    t, w = (np.concatenate(parts) for parts in zip(*map(angle_nodes, counts)))
    cols = np.cos(t), w * ipow(np.sin(t), n - 2)
    for col in cols:
        col.setflags(write=False)
    return cols


def _per_count(counts, values):
    """Exact sums of values over each count's block of nodes (the last axis)."""
    if values.ndim == 2:
        return list(exact_block_sums(values, counts).T)
    return [exact_sum(values[end - n:end]) for n, end in zip(counts, accumulate(counts))]


def _arr(v, shape):
    return np.broadcast_to(np.asarray(v, dtype=float), shape)


#: profile-jet order of the sigma' node jets under each volume (see the module docstring)
_BH_ORDER = 2
_HT_ORDER = 3


def _angular_at(vol: VolumeSpec, spec: MetricSpec, key, counts: tuple[int, ...], r_order: int):
    """sigma under BH or HT at the radii of a key from ``_radii``, one per node count
    (r_order 0), or (sigma, (log sigma)') pairs from the integrand's jet (r_order 1).

    Each volume's integrand is one expression, on the values of phi, phi_s and
    phi_ss or on their jets; BH reads phi alone.
    """
    bh = isinstance(vol, BusemannHausdorff)
    order = (_BH_ORDER if bh else _HT_ORDER) if r_order else 2
    rc, s, cos_t, ws, jet = _node_jets(spec, key, counts, order, r_order)
    parts, r, s_ = (jet.d(0, b) for b in range(3)), rc, s
    if r_order:
        # phi_s and phi_ss are shifted before the cut, which would drop what they shift down
        parts = ((jet.deriv(0, b) if b else jet).dropped_above(1) for b in range(3))
        r, s_ = Jet3.seed(rc, dr=1.0, r_order=1), Jet3.seed(s, ds=1.0, r_order=1)
    w = sin_power_integral(spec.n)
    out = []
    with np.errstate(all="ignore"):  # a bad sigma or (log sigma)' is reported below
        if bh:
            integrand = ipow(next(parts), -spec.n)
        else:
            phi, m2, m3 = margins(*parts, r, s_)
            integrand = phi * ipow(m2, spec.n - 2) * m3
        if r_order:
            ddr = _arr(integrand.d(1, 0), s.shape) + cos_t * _arr(integrand.d(0, 1), s.shape)
            vals = _per_count(counts, ws * _arr(integrand.d(0, 0), s.shape))
            ders = _per_count(counts, ws * ddr)
        else:
            vals, ders = _per_count(counts, ws * _arr(integrand, s.shape)), [None] * len(counts)
        for v, d in zip(vals, ders):
            if type(v) is float and not v > 0.0:  # one radius: a float sum of 0 cannot divide
                v = math.nan
            sigma = w / v if bh else v / w
            ok = (sigma > 0.0) & (sigma < math.inf)  # False for NaN, on floats and arrays
            if r_order:
                dlog = (-d if bh else d) / v
                ok = ok & (abs(dlog) < math.inf)
            if not (ok if type(ok) is bool else ok.all()):
                r_i, sigma_i = _at_first(~np.asarray(ok), key, sigma)
                what, must = (("density's log-derivative", "finite") if 0.0 < sigma_i < math.inf
                              else ("density", "a positive finite double"))
                raise DomainError(f"{'BH' if bh else 'HT'} {what} at r={r_i!r} is not {must} "
                                  f"(n = {spec.n})")
            out.append((sigma, dlog) if r_order else sigma)
    return out


def sigma_bh(spec: MetricSpec, r):
    """Busemann-Hausdorff density at radius r (normalized to 1 for phi = 1)."""
    return density(BH, spec, r)


def sigma_ht(spec: MetricSpec, r):
    """Holmes-Thompson density at radius r (normalized to 1 for phi = 1)."""
    return density(HT, spec, r)


def _at_first(bad, *values):
    """The values (as floats) at the first True element of the mask bad."""
    i = int(np.argmax(bad))
    return (float(np.ravel(v)[i]) for v in values)


def _closed_pair(vol: VolumeSpec, r):
    """(sigma, f) of a constant or custom density at r, or None for BH and HT."""
    if isinstance(vol, (BusemannHausdorff, HolmesThompson)):
        return None
    if isinstance(vol, ConstantDensity):
        return (np.ones(np.shape(r)), np.zeros(np.shape(r))) if np.ndim(r) else (1.0, 0.0)
    if not isinstance(vol, CustomDensity):
        raise TypeError(f"unknown volume spec {vol!r}")
    r = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    j = vol.sigma.jet(r, 2)
    v = np.array(_arr(j.d(0, 0), np.shape(r)))
    if any_true(v <= 0.0):
        v_i, r_i = _at_first(v <= 0.0, v, r)
        raise DomainError(f"custom density must be positive, got {v_i!r} at r={r_i!r}")
    f = -_arr(j.d(1, 0), np.shape(r)) / (r * v)
    return (v, f) if f.ndim else (float(v), float(f))


def density(vol: VolumeSpec, spec: MetricSpec, r):
    """sigma(r) for any volume specification."""
    pair = _closed_pair(vol, r)
    if pair is not None:
        return pair[0]
    key = _radii(r)
    return refine(lambda counts: _angular_at(vol, spec, key, counts, 0))


def f_coefficient(vol: VolumeSpec, spec: MetricSpec, r):
    """f(r) = -sigma'(r) / (r sigma(r)) for the given volume.

    The quadrature volumes differentiate under the integral sign and always
    cross-check against a central difference of log sigma; CrossCheckError
    flags disagreement beyond 1e-6 relative.
    """
    return density_and_f(vol, spec, r)[1]


#: (sigma, f) entries kept per process: isotropy settles a grid's pair, and
#: sample and analyze on the same config read it again
F_CACHE_SIZE = 8


def density_and_f(vol: VolumeSpec, spec: MetricSpec, r):
    """(sigma(r), f(r)): the bits of density and f_coefficient, from the sums f(r) reads.

    The pair is kept per (vol, spec, radii), F_CACHE_SIZE pairs at most, and each
    caller gets its own copies of kept arrays.  An error is not kept: a repeated
    call raises it again.
    """
    sigma, f = _density_and_f(vol, spec, _radii(r))
    return (sigma.copy(), f.copy()) if isinstance(f, np.ndarray) else (sigma, f)


@lru_cache(maxsize=F_CACHE_SIZE)
def _density_and_f(vol: VolumeSpec, spec: MetricSpec, key):
    """density_and_f at the radii of a key from ``_radii``."""
    r = key if isinstance(key, float) else np.array(key, dtype=float)
    pair = _closed_pair(vol, r)
    if pair is not None:
        return pair
    sigma, dlog = (v if v.ndim else float(v)
                   for v in refine(lambda counts: _angular_at(vol, spec, key, counts, 1)))
    _cross_check_log_derivative(vol, spec, r, dlog)
    return sigma, -dlog / r


def _cross_check_log_derivative(vol, spec, r, dlog) -> None:
    """CrossCheckError where dlog and a central difference of log sigma disagree; the
    sigmas at r -+ h are one ``density`` call, replayed on an error side by side."""
    rmin, rmax = spec.r_domain
    h = np.minimum(np.minimum(1e-4 * np.maximum(1.0, r), 0.45 * (r - rmin)), 0.45 * (rmax - r))
    if any_true(h < 1e-8):
        (r_i,) = _at_first(h < 1e-8, r)
        raise DomainError(
            f"radius {r_i!r} is within {1e-8 / 0.45:.3g} of an end of r_domain "
            f"[{rmin!r}, {rmax!r}]: the sigma' cross-check needs that much room"
        )
    sides = (r - h, r + h)
    sigma = replay_alone(lambda radii: density(vol, spec, radii),
                         np.concatenate([np.ravel(side) for side in sides]), sides)
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
