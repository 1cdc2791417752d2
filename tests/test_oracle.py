"""Geodesic-flow oracle: straight lines in the flat case, distortion values
against brute-force tensors, and the S-by-distortion band check."""

import numpy as np
import pytest

from _support import randers_metric_tensor, random_orthogonal, random_xy, stdout_under_blas_cores
from finslerlab import geometry, oracle
from finslerlab.errors import CrossCheckError, DomainError, DomainExitError
from finslerlab.expr import ScalarFunction
from finslerlab.geometry import general_phi_spec
from finslerlab.oracle import (
    _split,
    distortion,
    finsler_norm,
    integrate_geodesic,
    s_by_distortion,
)
from finslerlab.scurvature import reduced_s
from finslerlab.volume import BH, HT, CustomDensity, density


def test_finsler_norm_flat(euclid):
    assert finsler_norm(euclid, [0.3, 0.4], [3.0, 4.0]) == pytest.approx(5.0, rel=1e-14)


def test_finsler_norm_rejects_zero_velocity(euclid):
    with pytest.raises(DomainError):
        finsler_norm(euclid, [0.3, 0.4], [0.0, 0.0])


def test_flat_geodesics_are_straight(euclid):
    x0 = np.array([0.3, 0.1])
    y0 = np.array([0.2, 0.5])
    states = integrate_geodesic(euclid, x0, y0, 0.8, steps=32)
    for st in states:
        np.testing.assert_allclose(st.x, x0 + st.t * y0, atol=1e-12)
        np.testing.assert_allclose(st.y, y0, atol=1e-12)


def test_flat_s_vanishes(euclid):
    for vol in (BH, HT):
        val = s_by_distortion(euclid, vol, [0.3, 0.1], [0.2, 0.5])
        assert abs(val) < 1e-9


def test_distortion_with_custom_density():
    spec = general_phi_spec("1", 3, (0.5, 4.0))
    vol = CustomDensity(ScalarFunction.from_text("r^2"))
    tau = distortion(spec, vol, [3.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert tau == pytest.approx(-np.log(9.0), rel=1e-12)


def test_funk_oracle_matches_linear_growth(funk2):
    # isotropic with c = 1/2: S = (n + 1) c F = 1.5 F in dimension 2
    rng = np.random.default_rng(11)
    for _ in range(6):
        x, y = random_xy(rng, 2, (0.15, 0.6), s_frac_max=0.8)
        s_val = s_by_distortion(funk2, BH, x, y)
        want = 1.5 * finsler_norm(funk2, x, y)
        assert s_val == pytest.approx(want, abs=1e-5 * (1.0 + abs(want)))


def test_oracle_positive_homogeneity(funk2, randers111):
    rng = np.random.default_rng(12)
    for spec in (funk2, randers111):
        x, y = random_xy(rng, spec.n, (0.2, 0.6), s_frac_max=0.7)
        one = s_by_distortion(spec, BH, x, y)
        two = s_by_distortion(spec, BH, x, 2.0 * y)
        assert abs(two - 2.0 * one) <= 1e-8 * (1.0 + abs(one))


def test_oracle_rotation_invariance(randers111):
    rng = np.random.default_rng(13)
    x, y = random_xy(rng, 3, (0.25, 0.6), s_frac_max=0.7)
    base = s_by_distortion(randers111, HT, x, y)
    for _ in range(3):
        rot = random_orthogonal(rng, 3)
        turned = s_by_distortion(randers111, HT, rot @ x, rot @ y)
        assert abs(turned - base) <= 1e-8 * (1.0 + abs(base))


def test_distortion_against_brute_randers_tensor(randers111):
    f = ScalarFunction.from_text("1")
    rng = np.random.default_rng(14)
    for vol in (BH, HT):
        for _ in range(5):
            x, y = random_xy(rng, 3, (0.2, 0.8), s_frac_max=0.8)
            g_mat = randers_metric_tensor(f, f, f, x, y)
            r = float(np.linalg.norm(x))
            brute = 0.5 * np.log(np.linalg.det(g_mat)) - np.log(
                density(vol, randers111, r)
            )
            assert distortion(randers111, vol, x, y) == pytest.approx(brute, abs=1e-9)


def test_oracle_band_against_reduced_s(funk2, funk_randers):
    rng = np.random.default_rng(15)
    cases = [(funk2, (0.15, 0.6)), (funk_randers, (0.15, 0.6))]
    for spec, r_range in cases:
        for vol in (BH, HT):
            for _ in range(4):
                x, y = random_xy(rng, spec.n, r_range, s_frac_max=0.8)
                u = float(np.linalg.norm(y))
                r = float(np.linalg.norm(x))
                s = float(np.dot(x, y) / u)
                analytic = u * reduced_s(spec, vol, r, s)
                brute = s_by_distortion(spec, vol, x, y)
                assert abs(brute - analytic) <= 1e-4 * (1.0 + abs(analytic))


def test_geodesic_domain_exit(funk2):
    x0 = np.array([0.9, 0.0])
    y0 = np.array([1.0, 0.0])
    with pytest.raises(DomainExitError) as info:
        integrate_geodesic(funk2, x0, y0, 2.0, steps=64)
    assert info.value.t > 0.0


def test_integrator_input_validation(euclid):
    with pytest.raises(ValueError):
        integrate_geodesic(euclid, [0.3, 0.1], [0.2, 0.5], 0.5, steps=8)
    with pytest.raises(ValueError):
        integrate_geodesic(euclid, [0.3, 0.1, 0.0], [0.2, 0.5], 0.5)


def test_backward_integration_consistency(randers111):
    x0 = np.array([0.3, 0.2, 0.1])
    y0 = np.array([0.4, -0.1, 0.3])
    fwd = integrate_geodesic(randers111, x0, y0, 0.4, steps=64)
    xe, ye = fwd[-1].x, fwd[-1].y
    back = integrate_geodesic(randers111, xe, ye, -0.4, steps=64)
    np.testing.assert_allclose(back[-1].x, x0, atol=1e-9)
    np.testing.assert_allclose(back[-1].y, y0, atol=1e-9)


def _counting(monkeypatch, name, modules):
    """Wrap the function each module binds as name; return the call list."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*a, **k):
        calls.append(a[1:3])
        return real(*a, **k)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dt", [None, 2e-4])
def test_one_profile_jet_per_geodesic_state(funk2, monkeypatch, dt):
    jets = _counting(monkeypatch, "phi_jet", (geometry, oracle))
    sprays = _counting(monkeypatch, "spray_values", (geometry, oracle))
    x, y = np.array([0.3, 0.2]), np.array([0.5, -0.4])
    unshared = s_by_distortion(funk2, BH, x, y, dt=dt)
    # 2 trajectories x 16 steps x 4 stages, each state's jet evaluated once:
    # the start state, then three stages and the stored state per step
    assert len(sprays) == 128
    assert len(jets) == 1 + 2 * 16 * 4 <= 135
    monkeypatch.undo()
    assert s_by_distortion(funk2, BH, x, y, dt=dt) == unshared


def test_shared_jet_gives_the_same_spray_and_distortion(funk2):
    x, y = np.array([0.3, 0.2]), np.array([0.5, -0.4])
    _, r, s = _split(x, y)
    jet = geometry.phi_jet(funk2, r, s)
    assert geometry.spray_values(funk2, r, s, jet) == geometry.spray_values(funk2, r, s)
    assert distortion(funk2, BH, x, y, jet=jet) == distortion(funk2, BH, x, y)
    states = integrate_geodesic(funk2, x, y, 0.1, steps=16)
    for st in states:
        _, r_st, s_st = _split(st.x, st.y)
        want = geometry.phi_jet(funk2, r_st, s_st)
        assert st.jet.c == want.c[:6]
        got_sv = geometry.spray_values(funk2, r_st, s_st, st.jet)
        want_sv = geometry.spray_values(funk2, r_st, s_st, want)
        assert [v.hex() for v in (got_sv.P, got_sv.Q)] == [v.hex() for v in (want_sv.P, want_sv.Q)]


def test_drift_above_bound_raises():
    # a Riemannian metric on a wide domain: 16 RK4 steps over t = 2 drift by ~5e-8
    spec = general_phi_spec("sqrt(1+s^2)", 2, (0.01, 50.0))
    with pytest.raises(CrossCheckError, match=r"drift .* exceeds 1e-8 at t = 0\.125"):
        integrate_geodesic(spec, [0.5, 0.0], [0.0, 1.0], 2.0, steps=16)
    integrate_geodesic(spec, [0.5, 0.0], [0.0, 1.0], 2.0, steps=256)


def _stencil_of_distortions(spec, vol, x, y):
    """The five-point stencil of four one-state distortion calls."""
    dt = 1e-3 / finsler_norm(spec, x, y)
    taus = {}
    for direction in (1.0, -1.0):
        for st in integrate_geodesic(spec, x, y, direction * 2.0 * dt, steps=16)[8::8]:
            taus[round(st.t / dt)] = distortion(spec, vol, st.x, st.y)
    return (taus[-2] - 8.0 * taus[-1] + 8.0 * taus[1] - taus[2]) / (12.0 * dt)


@pytest.mark.parametrize("vol", [BH, HT, CustomDensity(ScalarFunction.from_text("1 + r^2"))],
                         ids=["bh", "ht", "custom"])
@pytest.mark.parametrize("name", ["funk3", "funk_randers", "family_k"])
def test_s_by_distortion_is_the_stencil_of_four_distortions(request, monkeypatch, name, vol):
    spec = request.getfixturevalue(name)
    spec = getattr(spec, "spec", spec)
    r = 0.5 * sum(spec.r_domain)
    x, y = geometry.embed_point(r, 0.3 * r, spec.n)
    want = _stencil_of_distortions(spec, vol, x, y)
    radii = _counting(monkeypatch, "density", (oracle,))
    assert s_by_distortion(spec, vol, x, y).hex() == want.hex()
    assert len(radii) == 1 and np.shape(radii[0][1]) == (4,)


def test_forward_density_error_comes_before_a_backward_exit(euclid):
    # the backward geodesic leaves [0.05, 1.2] through r = 1.2; the forward one
    # stays inside, and its first stored state's density is negative
    vol = CustomDensity(ScalarFunction.from_text("r - 1.19989"))
    x, y = np.array([1.19995, 0.0]), np.array([-1.0, 0.0])
    fwd = integrate_geodesic(euclid, x, y, 2e-3, steps=16)
    with pytest.raises(DomainExitError):
        integrate_geodesic(euclid, x, y, -2e-3, steps=16)
    with pytest.raises(DomainError) as alone:
        distortion(euclid, vol, fwd[8].x, fwd[8].y)
    assert "custom density must be positive" in str(alone.value)
    with pytest.raises(DomainError) as got:
        s_by_distortion(euclid, vol, x, y)
    assert type(got.value) is DomainError and str(got.value) == str(alone.value)


_FUNK_DIGEST = """
import hashlib
import numpy as np
from finslerlab.geometry import embed_point, general_phi_spec
from finslerlab.oracle import s_by_distortion
from finslerlab.volume import BH
spec = general_phi_spec("(sqrt(1 - r^2 + s^2) + s)/(1 - r^2)", 2, (0.05, 0.95))
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for _ in range(30):
    r = float(rng.uniform(0.2, 0.8))
    x, y = embed_point(r, r * float(rng.uniform(-0.8, 0.8)), 2)
    digest.update(s_by_distortion(spec, BH, x, y * float(rng.uniform(0.5, 2.0))).hex().encode())
print(digest.hexdigest())
"""


def test_oracle_bytes_do_not_depend_on_the_blas_kernel():
    # the stepper's norms and inner products are fixed-order float sums
    default, haswell = stdout_under_blas_cores(_FUNK_DIGEST)
    assert len(default.strip()) == 64
    assert default == haswell
