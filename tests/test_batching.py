"""Grid radii evaluated in one batch get the bits each radius gets on its own.

The references are the per-radius computations the verdict loops make for a
single scalar radius; every comparison is on bytes, not to a tolerance.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from _support import random_randers_texts
from conftest import FUNK_RANDERS, PARALLEL_HT, RANDERS_H05, interior_grid, make_randers
from finslerlab.cli import main
from finslerlab.douglas import douglas_verdict, fit_q
from finslerlab import volume
from finslerlab.errors import DomainError, RegularityError
from finslerlab.expr import ScalarFunction
from finslerlab.families import (
    bh_classification_residuals,
    bh_solve_g,
    ht_condition_residual,
    ht_condition_residual_of,
)
from finslerlab.geometry import (
    _phi_jet_raw,
    general_phi_spec,
    phi_jet,
    randers_spec,
    regularity_margins,
    regularity_scan,
    s_fractions,
)
from finslerlab.jets import Jet3
from finslerlab.randers import (
    RandersCoefficients,
    christoffel_coefficients,
    covariant_b_coefficients,
    randers_coefficients,
)
from finslerlab.scurvature import isotropy_profile, reduced_s_given_f
from finslerlab.volume import BH, CONSTANT, HT, CustomDensity, density, f_coefficient

PROFILES = ("funk3", "funk_randers", "sampled", "family", "random_n5")
VOLUMES = pytest.mark.parametrize("vol", [BH, HT], ids=["bh", "ht"])


@pytest.fixture(scope="module")
def sampled():
    """Randers profile whose g is the solver's Hermite table (SampledFunction)."""
    f = ScalarFunction.from_text("1/(1 - r^2)")
    sol = bh_solve_g(f, f, 1.0 / (1.0 - 0.25) ** 2, (0.3, 0.7), steps=400, r0=0.5)
    return randers_spec(f, sol.as_function(), f, 2, (0.3, 0.7))


@pytest.fixture(scope="module")
def random_n5():
    """A drawn Randers triple at n = 5, where HT's m2^(n-2) is an odd power."""
    return make_randers(random_randers_texts(np.random.default_rng(5)) + ((0.15, 1.0),), 5)


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


@pytest.mark.parametrize("name", PROFILES)
def test_bh_from_order_2_node_jets_equals_an_order_3_reference(request, monkeypatch, name):
    spec = _spec(request, name)
    r = interior_grid(spec, 5)

    def values():
        volume._density_and_f.cache_clear()
        return [fn(BH, spec, x) for fn in (density, f_coefficient) for x in (float(r[2]), r)]

    got = values()
    monkeypatch.setattr(volume, "_BH_ORDER", 3)
    want = values()
    assert all(_same(g, w) for g, w in zip(got, want))


@VOLUMES
@pytest.mark.parametrize("name", PROFILES)
def test_node_jets_that_drop_r_partials_equal_full_order_3_ones(request, monkeypatch, name, vol):
    # sigma reads r-order 0 and sigma' r-order 1 of its node jets, and sigma' cuts its
    # integrands to first order; full jets, never cut, give the same bits, and so does
    # sigma read off the sigma' node jets
    spec = _spec(request, name)
    r = interior_grid(spec, 5)

    def values():
        volume._node_jets.cache_clear()
        volume._density_and_f.cache_clear()
        return [fn(vol, spec, x) for fn in (density, f_coefficient, sigma_for_f)
                for x in (float(r[2]), r)]

    def sigma_for_f(vol, spec, x):
        return volume.density_and_f(vol, spec, x)[0]

    got = values()
    monkeypatch.setattr(volume, "phi_jet", lambda spec, r, s, order, r_order: phi_jet(spec, r, s))
    monkeypatch.setattr(Jet3, "dropped_above", lambda jet, order: jet)
    want = values()
    assert all(_same(g, w) for g, w in zip(got, want))
    assert all(_same(g, w) for g, w in zip(got[4:], want[:2]))


def test_grid_commands_report_what_isotropy_reports_where_the_sigma_prime_node_jets_raise(
        monkeypatch, capsys, tmp_path):
    real = volume._node_jets

    def failing(spec, r, counts, order, r_order):
        if r_order == 1:
            raise DomainError("the sigma' node jets fail here")
        return real(spec, r, counts, order, r_order)

    monkeypatch.setattr(volume, "_node_jets", failing)
    path = str(Path(__file__).resolve().parents[1] / "configs" / "funk_n2.json")
    lines = []
    for argv in (["sample"], ["analyze"], ["verify", "--check", "isotropy"]):
        assert main([*argv, path, "--out", str(tmp_path / "out")]) == 3, argv
        lines.append(capsys.readouterr().err.splitlines()[-1])
    assert lines == ["numeric failure: the sigma' node jets fail here"] * 3


def _first_density_error(spec, *sides) -> str:
    """The message of the first side whose BH density raises alone."""
    for side in sides:
        try:
            density(BH, spec, side)
        except RegularityError as exc:
            return str(exc)
    raise AssertionError("no side fails")


def test_a_failing_cross_check_side_raises_what_it_raises_alone():
    # condition 1 fails where (r - 0.5)(0.9 - r) < 0; with h = 1e-4, r - h of
    # the first radius and r + h of the second are irregular, and the second
    # has the lower margin, so one density call over both sides would name it
    spec = general_phi_spec("(r - 0.5)*(0.9 - r)*sqrt(1 + s^2)", 2, (0.1, 1.0))
    r = np.array([0.50005, 0.89999])
    lo_msg = _first_density_error(spec, r - 1e-4)
    assert _first_density_error(spec, np.concatenate([r - 1e-4, r + 1e-4])) != lo_msg
    for radii in (r, float(r[0]), float(r[1])):
        with pytest.raises(RegularityError) as got:
            f_coefficient(BH, spec, radii)
        assert str(got.value) == _first_density_error(spec, radii - 1e-4, radii + 1e-4)


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
        jet = phi_jet(spec, x, s)
        red = reduced_s_given_f(spec, x, s, f_r, jet)
        c = red / ((spec.n + 1) * jet.d(0, 0))
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
        one = fit_q(x, x * fracs, phi_jet(spec, x, x * fracs, order=2))
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


RANDERS = {"funk_randers_n3": FUNK_RANDERS, "parallel_ht": PARALLEL_HT, "h05": RANDERS_H05}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _randers_fns(name):
    return tuple(ScalarFunction.from_text(t) for t in RANDERS[name][:3])


def _per_radius(fn, f, g, h, r):
    # the per-radius loop the batched verdicts replace, one scalar radius at a time
    return [fn(f, g, h, float(x)) for x in r]


@pytest.mark.parametrize("name", sorted(RANDERS))
def test_randers_conditions_of_a_batch_equal_scalar_calls(name):
    f, g, h = _randers_fns(name)
    lo, hi = RANDERS[name][3]
    r = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 13)
    batch = bh_classification_residuals(f, g, h, r)
    loop = _per_radius(bh_classification_residuals, f, g, h, r)
    for field in ("c", "res1", "res2", "printed_ode_residual"):
        assert _same(getattr(batch, field), [getattr(b, field) for b in loop]), field
    u1, u2 = covariant_b_coefficients(f, g, h, r)
    loop = _per_radius(covariant_b_coefficients, f, g, h, r)
    assert _same(u1, [u[0] for u in loop]) and _same(u2, [u[1] for u in loop])
    assert _same(ht_condition_residual(1.0, g, h, r),
                 [ht_condition_residual(1.0, g, h, float(x)) for x in r])
    assert _same(ht_condition_residual_of(1.0, randers_coefficients(f, g, h, r)),
                 ht_condition_residual(1.0, g, h, r))
    gamma = christoffel_coefficients(f, g, r)
    loop = [christoffel_coefficients(f, g, float(x)) for x in r]
    for k in range(3):
        assert _same(gamma[k], [c[k] for c in loop]), k
    batch = randers_coefficients(f, g, h, r)
    loop = [randers_coefficients(f, g, h, float(x)) for x in r]
    for field in fields(RandersCoefficients):
        got = np.broadcast_to(getattr(batch, field.name), r.shape)
        assert _same(got, [getattr(co, field.name) for co in loop]), field.name


@pytest.mark.parametrize("name, check", [
    ("funk_randers_n3", "bh-classification"), ("h05", "bh-classification"),
    ("parallel_ht", "ht-parallel"), ("h05", "ht-parallel"),
])
def test_randers_verdict_rows_equal_scalar_calls(tmp_path, capsys, name, check):
    f, g, h = _randers_fns(name)
    if name == "h05":
        cfg = {"n": 2, "volume": "bh",
               "metric": {"kind": "randers", "f": "1", "g": "1", "h": "0.5",
                          "r_domain": [0.1, 1.2]},
               "grid": {"r_min": 0.2, "r_max": 1.1, "r_count": 19, "s_count": 5}}
        path = tmp_path / "h05.json"
        path.write_text(json.dumps(cfg))
    else:
        path = CONFIGS / f"{name}.json"
    out = tmp_path / "report.json"
    main(["verify", "--check", check, str(path), "--out", str(out)])
    capsys.readouterr()
    rows = json.loads(out.read_text())["per_radius"]
    r = [row["r"] for row in rows]
    if check == "bh-classification":
        for row, bc in zip(rows, _per_radius(bh_classification_residuals, f, g, h, r)):
            assert [row[k] for k in ("c", "res1", "res2", "printed_ode_residual")] == \
                [bc.c, bc.res1, bc.res2, bc.printed_ode_residual]
    else:  # f = c/r^2 with c the mean of r^2 f over the grid
        rs = np.array(r)
        c = float(np.mean(rs * rs * f.value(rs)))
        for row, (u1, u2), ht in zip(rows, _per_radius(covariant_b_coefficients, f, g, h, r),
                                     [ht_condition_residual(c, g, h, x) for x in r]):
            assert [row["u1"], row["u2"], row["ht_residual"]] == [u1, u2, ht]
