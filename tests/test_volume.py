"""Quadrature densities, closed-form cross-checks and the f(r) coefficient."""

import math
from pathlib import Path

import numpy as np
import pytest

from _support import random_randers_texts
from conftest import FUNK_PHI, FUNK_RANDERS, PARALLEL_HT, RANDERS111, interior_grid, make_randers
from finslerlab import volume
from finslerlab.cli import build_spec, load_config
from finslerlab.errors import RegularityError
from finslerlab.expr import ScalarFunction
from finslerlab.geometry import general_phi_spec, randers_spec, regularity_scan
from finslerlab.quadrature import angle_nodes, gl_nodes
from finslerlab.randers import sigma_closed_form
from finslerlab.volume import (
    BH,
    CONSTANT,
    HT,
    CustomDensity,
    density,
    f_coefficient,
    sigma_bh,
    sigma_ht,
    sin_power_integral,
    _angular_at,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RANDERS_TEXT_ZOO = [RANDERS111, FUNK_RANDERS, PARALLEL_HT]


def test_quadrature_integrates_sin_powers():
    t, w = angle_nodes(64)
    for n in range(2, 9):
        val = float(np.sum(w * np.sin(t) ** (n - 2)))
        assert val == pytest.approx(sin_power_integral(n), abs=1e-12)


def test_gl_nodes_cached_and_exact():
    x, w = gl_nodes(16)
    assert float(np.sum(w * x**14)) == pytest.approx(2.0 / 15.0, abs=1e-14)


def test_sigma_trivial_profile(euclid):
    assert sigma_bh(euclid, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert sigma_ht(euclid, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_ht_randers_111_value(randers111):
    # sqrt(det a) at r=1: sqrt((f + r^2 g) f^{n-1}) = sqrt(2)
    assert sigma_ht(randers111, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_density_dispatch(euclid):
    assert density(CONSTANT, euclid, 0.7) == 1.0
    vol = CustomDensity(ScalarFunction.from_text("r^2"))
    assert density(vol, euclid, 3.0) == pytest.approx(9.0)
    assert density(BH, euclid, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_custom_density_is_its_sigma_jet_value_for_floats_and_arrays(euclid):
    sigma = ScalarFunction.from_text("exp(0.3*r) * (2 + atan(r - 0.5)) + log(1 + r^2) * sin(2*r)")
    vol = CustomDensity(sigma)
    r = np.linspace(0.05, 0.95, 201)
    got = density(vol, euclid, r)
    alone = [density(vol, euclid, x) for x in r.tolist()]
    assert all(type(v) is float for v in alone)
    assert got.tobytes() == np.array(alone).tobytes()
    assert got.tobytes() == sigma.jet(r, 2).value.tobytes()
    assert [v.hex() for v in alone] == [sigma.jet(x, 2).value.hex() for x in r.tolist()]


def test_quadrature_stability_64_vs_128():
    specs = [make_randers(texts, 3) for texts in RANDERS_TEXT_ZOO]
    for spec in specs:
        r = float(np.mean(interior_grid(spec, 3)))
        for vol in (BH, HT):
            a, b = _angular_at(vol, spec, r, (64, 128), 0)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


@pytest.mark.parametrize("vol", [BH, HT], ids=["bh", "ht"])
@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_one_call_for_64_and_128_nodes_equals_one_call_per_count(path, vol):
    spec = build_spec(load_config(str(path)))
    grid = tuple(interior_grid(spec, 4).tolist())
    for r in (grid[1], grid):
        for r_order in (0, 1):  # sigma, and (sigma, (log sigma)')
            volume._node_jets.cache_clear()
            both = _angular_at(vol, spec, r, (64, 128), r_order)
            volume._node_jets.cache_clear()
            alone = [_angular_at(vol, spec, r, (n,), r_order)[0] for n in (64, 128)]
            assert [np.asarray(v).tobytes() for v in both] == [
                np.asarray(v).tobytes() for v in alone], (r_order, r)
            assert [type(v) for v in both] == [type(v) for v in alone]


def test_a_failing_node_jet_raises_what_its_first_count_raises_alone():
    # phi < 0 for r < 0.5, most negative at the largest |s|: the 128 nodes reach
    # nearer |s| = r than the 64 nodes, so the two counts alone name other nodes
    spec = general_phi_spec("(r - 0.5)*(0.9 - r)*sqrt(1 + s^2)", 2, (0.1, 1.0))
    for r in (0.3, (0.3, 0.4)):
        msgs = []
        for counts in ((64,), (128,), (64, 128)):
            volume._node_jets.cache_clear()
            with pytest.raises(RegularityError) as err:
                _angular_at(BH, spec, r, counts, 0)
            msgs.append(str(err.value))
        assert msgs[2] == msgs[0] != msgs[1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_forms_on_zoo(n):
    for texts in RANDERS_TEXT_ZOO:
        f, g, h = (ScalarFunction.from_text(t) for t in texts[:3])
        spec = make_randers(texts, n)
        for r in interior_grid(spec, 4):
            r = float(r)
            bh_ref = sigma_closed_form(f, g, h, n, r, "bh")
            ht_ref = sigma_closed_form(f, g, h, n, r, "ht")
            assert sigma_bh(spec, r) == pytest.approx(bh_ref, rel=1e-8)
            assert sigma_ht(spec, r) == pytest.approx(ht_ref, rel=1e-8)


def test_closed_forms_on_random_triples():
    rng = np.random.default_rng(14)
    for _ in range(4):
        texts = random_randers_texts(rng)
        f, g, h = (ScalarFunction.from_text(t) for t in texts)
        for n in (2, 3, 4):
            spec = randers_spec(f, g, h, n, (0.15, 1.0))
            for r in (0.3, 0.6, 0.9):
                assert sigma_bh(spec, r) == pytest.approx(
                    sigma_closed_form(f, g, h, n, r, "bh"), rel=1e-8
                )
                assert sigma_ht(spec, r) == pytest.approx(
                    sigma_closed_form(f, g, h, n, r, "ht"), rel=1e-8
                )


def test_f_coefficient_custom_density(euclid):
    # sigma = r^2: f = -sigma'/(r sigma) = -2/r^2
    vol = CustomDensity(ScalarFunction.from_text("r^2"))
    assert f_coefficient(vol, euclid, 3.0) == pytest.approx(-2.0 / 9.0, rel=1e-12)
    assert f_coefficient(CONSTANT, euclid, 0.4) == 0.0


def test_f_coefficient_family_power_law(family_riemann):
    # phi = 1/r: sigma_bh = r^{-n}, so f = -sigma'/(r sigma) = n/r^2
    spec = family_riemann.spec
    n = spec.n
    for r in (0.9, 1.1):
        assert f_coefficient(BH, spec, r) == pytest.approx(n / r**2, rel=1e-7)


def test_f_coefficient_matches_log_sigma_slope():
    # independent centered difference of log sigma at a coarser step
    h = 1e-4
    for texts in RANDERS_TEXT_ZOO:
        spec = make_randers(texts, 3)
        for vol, fn in ((BH, sigma_bh), (HT, sigma_ht)):
            for r in interior_grid(spec, 3):
                r = float(r)
                dlog = (math.log(fn(spec, r + h)) - math.log(fn(spec, r - h))) / (2.0 * h)
                want = -dlog / r
                got = f_coefficient(vol, spec, r)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_densities_positive_where_regular(funk2, funk3):
    for spec in (funk2, funk3):
        assert regularity_scan(spec).passed
        for r in interior_grid(spec, 5):
            assert sigma_bh(spec, float(r)) > 0.0
            assert sigma_ht(spec, float(r)) > 0.0


def test_funk_bh_density_blows_up_toward_boundary():
    # The Funk indicatrix at x is the unit ball translated by -x, so its volume
    # never changes and sigma_BH == 1.  The density that blows up toward r = 1
    # is sigma_HT: the polar body of the translated ball is an ellipsoid with
    # semi-axes 1/(1-r^2) and (n-1) times 1/sqrt(1-r^2), so
    # sigma_HT = (1-r^2)^{-(n+1)/2}.
    radii = (0.3, 0.6, 0.9)
    for n in (2, 3, 4):
        spec = general_phi_spec(FUNK_PHI, n, (0.05, 0.95))
        ht = []
        for r in radii:
            assert abs(sigma_bh(spec, r) - 1.0) <= 1e-12
            ht.append(sigma_ht(spec, r))
            assert ht[-1] == pytest.approx((1.0 - r * r) ** (-(n + 1) / 2.0), rel=1e-10)
        assert ht[0] < ht[1] < ht[2]


def test_custom_density_must_be_positive(euclid):
    vol = CustomDensity(ScalarFunction.from_text("r - 1"))
    with pytest.raises(Exception):
        f_coefficient(vol, euclid, 0.5)


# -- the per-process (sigma, f) cache ------------------------------------------


def _refuse_node_jets(*args):
    raise AssertionError("a node jet was evaluated")


@pytest.mark.parametrize("vol", [BH, HT, CONSTANT, CustomDensity(ScalarFunction.from_text(
    "1/(1 + r^2)^2 + 0.1*exp(r)"))], ids=["bh", "ht", "constant", "custom"])
def test_a_repeated_density_and_f_call_returns_the_bits_kept_for_its_radii(monkeypatch, vol):
    spec = general_phi_spec(FUNK_PHI, 3, (0.05, 0.95))
    r = interior_grid(spec, 7)
    first = [volume.density_and_f(vol, spec, x) for x in (r, float(r[3]))]
    monkeypatch.setattr(volume, "_node_jets", _refuse_node_jets)
    again = [volume.density_and_f(vol, spec, x) for x in (r.tolist(), np.float64(r[3]))]
    for got, want in zip(again, first):
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    assert f_coefficient(vol, spec, r).tobytes() == first[0][1].tobytes()


def test_writing_to_a_returned_pair_leaves_the_kept_pair_intact(funk2):
    r = interior_grid(funk2, 5)
    sigma, f = volume.density_and_f(BH, funk2, r)
    want = sigma.tobytes(), f.tobytes()
    sigma[:] = -1.0
    f[:] = np.nan
    assert tuple(v.tobytes() for v in volume.density_and_f(BH, funk2, r)) == want


def test_a_density_and_f_call_that_raises_is_not_kept(monkeypatch):
    # phi < 0 for r < 0.5: the node jets at r = 0.3 fail their regularity check
    spec = general_phi_spec("(r - 0.5)*(0.9 - r)*sqrt(1 + s^2)", 2, (0.1, 1.0))
    real, calls = volume._node_jets, []
    monkeypatch.setattr(volume, "_node_jets", lambda *a: calls.append(a) or real(*a))
    messages, evaluated = [], []
    for _ in range(2):
        with pytest.raises(RegularityError) as err:
            volume.density_and_f(BH, spec, np.array([0.6, 0.3]))
        messages.append(str(err.value))
        evaluated.append(len(calls))
        assert volume._density_and_f.cache_info().currsize == 0
    assert messages[0] == messages[1]
    assert 0 < evaluated[0] and evaluated[1] == 2 * evaluated[0]  # evaluated again
