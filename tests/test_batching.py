"""Grid radii evaluated in one batch get the bits each radius gets on its own.

The references are the per-radius computations the verdict loops make for a
single scalar radius; every comparison is on bytes, not to a tolerance.
"""

import numpy as np
import pytest

from conftest import interior_grid
from finslerlab.douglas import douglas_verdict, fit_q
from finslerlab.errors import DomainError
from finslerlab.expr import ScalarFunction
from finslerlab.families import bh_solve_g
from finslerlab.geometry import (
    _phi_jet_raw,
    general_phi_spec,
    phi_jet,
    randers_spec,
    regularity_margins,
    regularity_scan,
    s_fractions,
)
from finslerlab.scurvature import isotropy_profile, reduced_s_given_f
from finslerlab.volume import BH, CONSTANT, HT, CustomDensity, density, f_coefficient

PROFILES = ("funk3", "funk_randers", "sampled", "family")
VOLUMES = pytest.mark.parametrize("vol", [BH, HT], ids=["bh", "ht"])


@pytest.fixture(scope="module")
def sampled():
    """Randers profile whose g is the solver's Hermite table (SampledFunction)."""
    f = ScalarFunction.from_text("1/(1 - r^2)")
    sol = bh_solve_g(f, f, 1.0 / (1.0 - 0.25) ** 2, (0.3, 0.7), steps=400, r0=0.5)
    return randers_spec(f, sol.as_function(), f, 2, (0.3, 0.7))


def _spec(request, name):
    if name == "family":
        return request.getfixturevalue("family_k").spec
    return request.getfixturevalue(name)


def _same(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@VOLUMES
@pytest.mark.parametrize("name", PROFILES)
def test_density_and_f_of_a_batch_equal_scalar_calls(request, name, vol):
    spec = _spec(request, name)
    r = interior_grid(spec, 5)
    for fn in (density, f_coefficient):
        assert _same(fn(vol, spec, r), [fn(vol, spec, float(x)) for x in r]), fn.__name__


def test_closed_form_volumes_of_a_batch_equal_scalar_calls(funk2):
    r = interior_grid(funk2, 5)
    for vol in (CONSTANT, CustomDensity(ScalarFunction.from_text("1/(1 + r^2)^2 + 0.1*exp(r)"))):
        for fn in (density, f_coefficient):
            assert _same(fn(vol, funk2, r), [fn(vol, funk2, float(x)) for x in r])


@VOLUMES
@pytest.mark.parametrize("name", PROFILES)
def test_isotropy_profile_rows_equal_per_radius_evaluation(request, name, vol):
    spec = _spec(request, name)
    r = interior_grid(spec, 5)
    fracs = s_fractions(9)
    prof = isotropy_profile(spec, vol, r, fracs)
    for i, x in enumerate(r.tolist()):
        s = x * fracs
        f_r = f_coefficient(vol, spec, x)
        red = reduced_s_given_f(spec, x, s, f_r)
        c = red / ((spec.n + 1) * phi_jet(spec, x, s).d(0, 0))
        assert _same(prof.c_values[i], c), i
        assert _same(prof.f_values[i], f_r), i
        assert _same(prof.c_spread[i], np.max(c) - np.min(c)), i


@pytest.mark.parametrize("name", PROFILES)
def test_douglas_rows_equal_scalar_fits(request, name):
    spec = _spec(request, name)
    r = interior_grid(spec, 5)
    fracs = s_fractions(11)
    fit = douglas_verdict(spec, r, fracs)
    for i, x in enumerate(r.tolist()):
        one = fit_q(spec, x, x * fracs)
        assert isinstance(one.c1, float)
        for field in ("c1", "c2", "max_residual", "odd_residual", "residuals"):
            assert _same(getattr(fit, field)[i], getattr(one, field)), (i, field)


def test_regularity_scan_equals_row_and_point_evaluation():
    # sqrt(r - 0.5) fails below r = 0.5: those rows fall back to points and notes
    for spec in (general_phi_spec("sqrt(1 + s^2) + (r/20)*s^3", 2, (0.05, 0.3)),
                 general_phi_spec("sqrt(r - 0.5) + 1 + s^2/4", 2, (0.1, 1.0))):
        rep = regularity_scan(spec, 9, 7)
        want = np.full((9, 7, 3), np.nan)
        notes = []
        for i, r in enumerate(rep.r_grid):
            for j, s in enumerate((r * rep.s_fracs).tolist()):
                try:
                    want[i, j] = regularity_margins(_phi_jet_raw(spec, r, s), r, s)
                except DomainError as err:
                    notes.append(f"r={float(r)!r}, s={s!r}: {err}")
        assert _same(rep.margins, want)
        assert rep.notes == notes
        assert rep.point_valid.tolist() == (~np.isnan(want[..., 0])).tolist()
