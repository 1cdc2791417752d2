"""Fixture zoo: the named metrics every suite layer tests against.

All fixtures are session-scoped pure values.  Randers triples are given as
expression strings so individual tests can rebuild them at other dimensions.
"""

from __future__ import annotations

import numpy as np
import pytest

from finslerlab.expr import ScalarFunction
from finslerlab.geometry import general_phi_spec, randers_spec

FUNK_PHI = "(sqrt(1 - r^2 + s^2) + s)/(1 - r^2)"
S3_PHI = "sqrt(1 + s^2) + (r/20)*s^3"

# (f, g, h, domain) expression strings for the Randers part of the zoo
RANDERS111 = ("1", "1", "1", (0.1, 1.0))
FUNK_RANDERS = ("1/(1 - r^2)", "1/(1 - r^2)^2", "1/(1 - r^2)", (0.1, 0.95))
PARALLEL_HT = ("1/r^2", "0", "0.5/r^2", (0.15, 3.2))
RANDERS_H05 = ("1", "1", "0.5", (0.1, 1.2))


@pytest.fixture(autouse=True)
def _cold_f_cache():
    """Every test starts without kept (sigma, f) pairs, so one that patches what
    density_and_f calls sees its patch, not a pair an earlier test settled."""
    from finslerlab import volume

    volume._density_and_f.cache_clear()


def make_randers(texts, n: int):
    f, g, h, domain = texts
    return randers_spec(
        ScalarFunction.from_text(f),
        ScalarFunction.from_text(g),
        ScalarFunction.from_text(h),
        n,
        domain,
    )


@pytest.fixture(scope="session")
def euclid():
    return general_phi_spec("1", 2, (0.05, 1.2))


@pytest.fixture(scope="session")
def funk2():
    return general_phi_spec(FUNK_PHI, 2, (0.05, 0.95))


@pytest.fixture(scope="session")
def funk3():
    return general_phi_spec(FUNK_PHI, 3, (0.05, 0.95))


@pytest.fixture(scope="session")
def randers111():
    return make_randers(RANDERS111, 3)


@pytest.fixture(scope="session")
def funk_randers():
    return make_randers(FUNK_RANDERS, 2)


@pytest.fixture(scope="session")
def parallel_ht():
    return make_randers(PARALLEL_HT, 3)


@pytest.fixture(scope="session")
def randers_h05():
    return make_randers(RANDERS_H05, 2)


@pytest.fixture(scope="session")
def s3_perturbed():
    return general_phi_spec(S3_PHI, 2, (0.05, 0.3))


@pytest.fixture(scope="session")
def family_riemann():
    from finslerlab.families import build_berwald_family

    return build_berwald_family(0.0, "1", 1.0, (0.8, 1.25), 2)


@pytest.fixture(scope="session")
def family_k():
    from finslerlab.families import build_berwald_family

    return build_berwald_family(0.1, "1 + w/4", 1.0, (0.8, 1.2), 2)


def interior_grid(spec, count: int = 9) -> np.ndarray:
    """Radii strictly inside the spec's domain with stencil headroom."""
    lo, hi = spec.r_domain
    pad = 0.04 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)
