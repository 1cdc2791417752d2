"""Profile jets, spray coefficients, metric tensor, regularity and embeddings."""

import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from _support import (random_orthogonal, random_xy, randers_metric_tensor,
                      reference_family_radial_jets)
from conftest import RANDERS111, interior_grid, make_randers
from finslerlab import quadrature
from finslerlab.cli import build_spec, load_config
from finslerlab.errors import DomainError, QuadratureError, RegularityError
from finslerlab.expr import ScalarFunction, parse_expression
from finslerlab.families import bh_solve_g
from finslerlab.geometry import (
    BerwaldFamilyProfile,
    MetricSpec,
    _family_table,
    assemble_metric_matrix,
    embed_point,
    general_phi_spec,
    metric_determinant,
    phi_jet,
    phi_jet_unchecked,
    randers_spec,
    regularity_scan,
    s_fractions,
    spray_values,
)
from finslerlab.oracle import _split, finsler_norm


def test_phi_jet_constant_profile(euclid):
    jet = phi_jet(euclid, 0.5, 0.2)
    assert jet.d(0, 0) == 1.0
    assert all(jet.d(a, b) == 0.0 for a in range(4) for b in range(4 - a) if a + b)


def test_phi_jet_randers_value(randers111):
    jet = phi_jet(randers111, 0.6, 0.3)
    assert jet.d(0, 0) == pytest.approx(np.sqrt(1.09) + 0.3, abs=1e-12)


def test_phi_jet_family_is_one_over_r(family_riemann):
    spec = family_riemann.spec
    for r in (0.85, 1.0, 1.2):
        jet = phi_jet(spec, r, 0.3 * r)
        assert jet.d(0, 0) == pytest.approx(1.0 / r, rel=1e-10)
        assert jet.d(1, 0) == pytest.approx(-1.0 / r**2, rel=1e-9)
        assert jet.d(0, 1) == pytest.approx(0.0, abs=1e-10)


def _family_spec(c2: ScalarFunction) -> MetricSpec:
    chi = parse_expression("1 + w/4", {"w"})
    return MetricSpec(BerwaldFamilyProfile(c2=c2, chi=chi, r0=1.0), 2, (0.8, 1.2))


def test_family_jets_independent_of_query_history():
    # equal profiles held apart: one answers other radii first, one is fresh
    seen = _family_spec(ScalarFunction.constant(0.1))
    fresh = _family_spec(ScalarFunction.from_text("0.1"))
    for r in (0.9, 1.05, 1.12):
        phi_jet(seen, r, 0.2 * r)
    assert phi_jet(seen, 1.13, 0.339).c == phi_jet(fresh, 1.13, 0.339).c


@pytest.mark.parametrize("c2", [0.1, -0.3])
def test_family_antiderivatives_match_constant_c2_closed_forms(c2):
    spec = _family_spec(ScalarFunction.constant(c2))
    r = np.array([0.8, 0.87, 0.96, 1.0, 1.04, 1.13, 1.2])
    quartic = c2 * (r**4 - 1.0)
    i1 = 2.0 * np.log(r) - quartic
    i2 = 2.0 * np.log(r) - 0.5 * quartic
    j = 1.0 - np.exp(-quartic)
    vector = reference_family_radial_jets(spec, r)
    scalar = [reference_family_radial_jets(spec, float(x)) for x in r]
    for k, want in enumerate((np.exp(i1), j, i2)):
        np.testing.assert_allclose(vector[k].value, want, rtol=1e-12, atol=1e-12)
        got = [jets[k].value for jets in scalar]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def _fixed_gl(f, a, b):
    """64-point Gauss-Legendre integrals of f from a to each element of b."""
    half = 0.5 * (np.asarray(b, dtype=float) - a)
    return half * np.sum(f(a + half[..., None] * (_GL_X + 1.0)) * _GL_W, axis=-1)


def _nested_family_values(c2, r0, r):
    """I1, J and I2 from r0 to r by a fixed rule, J's integrand nesting I1's."""

    def w1(rho):
        return 2.0 / rho - 4.0 * rho**3 * c2.value(rho)

    def w2(rho):
        return 4.0 * rho * c2.value(rho) * np.exp(_fixed_gl(w1, r0, rho))

    def w3(rho):
        return 2.0 / rho - 2.0 * rho**3 * c2.value(rho)

    return [_fixed_gl(w, r0, r) for w in (w1, w2, w3)]


@pytest.mark.parametrize("domain, r0, bisected", [((0.8, 1.2), 1.0, False),
                                                  ((0.05, 0.95), 0.5, True)],
                         ids=["two-panels", "bisected"])
@pytest.mark.parametrize("c2", ["0.1", "0.1 + 0.05/r"])
def test_family_tables_match_nested_quadrature(c2, domain, r0, bisected):
    chi = parse_expression("1 + w/4", {"w"})
    spec = MetricSpec(BerwaldFamilyProfile(ScalarFunction.from_text(c2), chi, r0), 2, domain)
    lo, hi = domain
    slack = 1e-12 * (1.0 + hi)  # what the domain check lets through
    r = np.concatenate([[lo - slack, lo], np.linspace(lo, hi, 9)[1:-1], [r0, hi, hi + slack]])
    want = _nested_family_values(spec.profile.c2, r0, r)
    vector = reference_family_radial_jets(spec, r)
    scalar = [reference_family_radial_jets(spec, float(x)) for x in r]
    for k, got in enumerate((np.log(vector[0].value), vector[1].value, vector[2].value)):
        np.testing.assert_allclose(got, want[k], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal([float(jets[k].value) for jets in scalar],
                                      [float(v) for v in vector[k].value])
    # r0 is a node: g = e^0, J and I2 are exactly zero there
    assert [jet.value for jet in reference_family_radial_jets(spec, r0)] == [1.0, 0.0, 0.0]
    for r_edge in (lo - slack, hi + slack):
        assert phi_jet(spec, r_edge, 0.5 * r_edge).d(0, 0) > 0.0
    assert (_family_table(spec).nodes.shape[0] > 2) is bisected


def test_family_table_split_cap_raises_naming_the_panel(monkeypatch):
    monkeypatch.setattr(quadrature, "TABLE_SPLIT_CAP", 1)
    chi = parse_expression("1 + w/4", {"w"})
    spec = MetricSpec(BerwaldFamilyProfile(ScalarFunction.constant(0.1), chi, 0.5), 2, (0.04, 0.9))
    with pytest.raises(QuadratureError, match=r"table panel \[0\.04, .* after 1 bisections"):
        _family_table(spec)


def test_family_table_is_per_spec():
    wide = _family_spec(ScalarFunction.constant(0.1))
    narrow = MetricSpec(wide.profile, wide.n, (0.9, 1.1))
    table = _family_table(wide)
    assert _family_table(wide) is table
    other = _family_table(narrow)
    assert other is not table
    assert (table.edges[0], table.edges[-1]) == (0.8, 1.2)
    assert (other.edges[0], other.edges[-1]) == (0.9, 1.1)
    assert 1.0 in table.edges and 1.0 in other.edges
    for r in (0.95, 1.05):
        one, two = reference_family_radial_jets(wide, r), reference_family_radial_jets(narrow, r)
        for a, b in zip(one, two):
            assert a.value == pytest.approx(b.value, rel=1e-14, abs=1e-15)


def test_family_table_lookup_hashes_no_profile(monkeypatch):
    spec = _family_spec(ScalarFunction.from_text("0.1 + 0.05/r"))
    table = _family_table(spec)

    def refuse(self):
        raise AssertionError("the profile was hashed again")

    monkeypatch.setattr(BerwaldFamilyProfile, "__hash__", refuse)
    assert _family_table(spec) is table
    # a copy through pickle leaves the kept hash behind and computes its own
    monkeypatch.undo()
    again = pickle.loads(pickle.dumps(spec))
    assert "_hash" not in vars(again) and hash(again) == hash(spec)
    assert _family_table(again) is table


def test_family_phi_jet_on_array_equals_scalar_calls(family_k):
    spec = family_k.spec
    r = np.linspace(0.8, 1.2, 9)
    s = r * np.linspace(-0.9, 0.9, 9)
    batch = phi_jet(spec, r, s)
    for i in range(r.size):
        one = phi_jet(spec, float(r[i]), float(s[i]))
        for k, want in enumerate(one.c):
            got = np.broadcast_to(batch.c[k], r.shape)[i]
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300), (i, k)


def test_phi_jet_domain_checks(funk2, family_k):
    with pytest.raises(DomainError):
        phi_jet(funk2, 0.99, 0.0)  # outside declared r-domain
    for spec in (funk2, family_k.spec):
        with pytest.raises(DomainError, match="radius nan outside declared domain"):
            phi_jet(spec, np.array([0.9, np.nan]), 0.0)
    with pytest.raises(DomainError):
        phi_jet(funk2, 0.5, 0.6)  # |s| > r


def test_phi_jet_enforces_positivity():
    spec = general_phi_spec("s/r^2", 2, (0.5, 1.0))
    with pytest.raises(RegularityError) as exc:
        phi_jet(spec, 0.7, -0.3)
    assert exc.value.condition == 1
    # the unchecked variant serves degenerate profiles for residual evaluation
    jet = phi_jet_unchecked(spec, 0.7, -0.3)
    assert jet.d(0, 0) == pytest.approx(-0.3 / 0.49)


def test_spray_trivial_profile(euclid):
    sv = spray_values(euclid, 0.4, 0.1)
    assert sv.P == 0.0
    assert sv.Q == 0.0
    assert sv.Q_s == 0.0


def test_spray_known_closed_form():
    # phi = sqrt(1+s^2): Q = 1/(2(1+r^2)), P = 0
    spec = general_phi_spec("sqrt(1+s^2)", 3, (0.05, 1.2))
    for s in (-0.3, 0.0, 0.25):
        sv = spray_values(spec, 0.5, s)
        assert sv.Q == pytest.approx(0.4, abs=1e-12)
        assert sv.P == pytest.approx(0.0, abs=1e-12)


def test_spray_family_closed_form(family_riemann):
    # phi = 1/r: Q = 1/(2r^2), P = -s/r^2
    spec = family_riemann.spec
    r, s = 1.1, 0.4
    sv = spray_values(spec, r, s)
    assert sv.Q == pytest.approx(1.0 / (2.0 * r * r), rel=1e-9)
    assert sv.P == pytest.approx(-s / r**2, rel=1e-9)


def test_q_s_matches_central_difference(funk2, randers111):
    h = 1e-4
    for spec in (funk2, randers111):
        for r in interior_grid(spec, 5):
            for frac in (-0.6, -0.1, 0.4):
                s = float(r) * frac
                sv = spray_values(spec, float(r), s)
                q_plus = spray_values(spec, float(r), s + h).Q
                q_minus = spray_values(spec, float(r), s - h).Q
                fd = (q_plus - q_minus) / (2.0 * h)
                assert float(sv.Q_s) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_determinant_identity_profile():
    spec = general_phi_spec("1", 3, (0.05, 1.2))
    assert metric_determinant(spec, 0.7, 0.2) == pytest.approx(1.0)


def test_determinant_known_riemannian():
    # phi = sqrt(1+s^2) is |y| alpha-like with a_ij = delta_ij + x_i x_j
    spec = general_phi_spec("sqrt(1+s^2)", 2, (0.05, 1.2))
    for r in (0.3, 0.8, 1.1):
        assert metric_determinant(spec, r, 0.4 * r) == pytest.approx(1.0 + r * r, rel=1e-12)


def test_assemble_identity(euclid):
    x, y = np.array([0.3, 0.4]), np.array([1.0, -2.0])
    np.testing.assert_allclose(assemble_metric_matrix(euclid, x, y), np.eye(2), atol=1e-14)


def test_assemble_riemannian_alpha():
    spec = randers_spec("1", "1", "0", 2, (0.05, 1.5))
    g = assemble_metric_matrix(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(g, [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_assemble_symmetry(funk2):
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, y = random_xy(rng, 2, (0.2, 0.8))
        g = assemble_metric_matrix(funk2, x, y)
        np.testing.assert_allclose(g, g.T, atol=1e-14)


def test_assemble_rotation_invariance(funk3, randers111):
    rng = np.random.default_rng(3)
    for spec in (funk3, randers111):
        for _ in range(5):
            x, y = random_xy(rng, 3, (0.3, 0.8))
            rot = random_orthogonal(rng, 3)
            g = assemble_metric_matrix(spec, x, y)
            g_rot = assemble_metric_matrix(spec, rot @ x, rot @ y)
            np.testing.assert_allclose(g_rot, rot @ g @ rot.T, atol=1e-10)


def test_assemble_matches_standard_randers_tensor():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        spec = make_randers(RANDERS111, n)
        f = g = h = ScalarFunction.from_text("1")
        for _ in range(20):
            x, y = random_xy(rng, n, (0.2, 0.9))
            ours = assemble_metric_matrix(spec, x, y)
            ref = randers_metric_tensor(f, g, h, x, y)
            np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_determinant_matches_brute_force(funk3):
    rng = np.random.default_rng(5)
    for _ in range(30):
        x, y = random_xy(rng, 3, (0.2, 0.8))
        r = float(np.linalg.norm(x))
        s = float(np.dot(x, y) / np.linalg.norm(y))
        closed = metric_determinant(funk3, r, s)
        brute = np.linalg.det(assemble_metric_matrix(funk3, x, y))
        assert closed == pytest.approx(brute, rel=1e-9)


def test_regularity_scan_trivial(euclid):
    report = regularity_scan(euclid, 7, 7)
    assert report.passed
    assert report.worst_margin == pytest.approx(1.0)


def test_regularity_scan_funk(funk2):
    report = regularity_scan(funk2)
    assert report.passed
    assert report.cholesky_ok in (True, None)


def test_regularity_scan_locates_violation():
    # f=1, g=0, h=1.2: |beta|^2 = 1.44 r^2 / 1 >= 1 for r >= 1/1.2
    spec = randers_spec("1", "0", "1.2", 2, (0.5, 1.1))
    report = regularity_scan(spec, 13, 13)
    assert not report.passed
    r_bad, _ = report.worst_point
    assert r_bad > 0.8


def test_embed_point_roundtrip():
    for r, frac in ((0.5, -0.7), (0.9, 0.0), (1.4, 0.95)):
        s = r * frac
        x, y = embed_point(r, s, 4)
        assert np.linalg.norm(x) == pytest.approx(r)
        assert np.linalg.norm(y) == pytest.approx(1.0)
        assert float(np.dot(x, y)) == pytest.approx(s, abs=1e-12)


def test_s_fractions_symmetric_inset():
    fr = s_fractions(21)
    assert fr.size == 21
    np.testing.assert_allclose(fr, -fr[::-1], atol=1e-15)
    assert np.max(np.abs(fr)) < 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        general_phi_spec("1", 1, (0.1, 1.0))
    with pytest.raises(ValueError):
        general_phi_spec("1", 3, (0.5, 0.2))


# -- order-2 profile jets --------------------------------------------------------

BUNDLED = Path(__file__).resolve().parents[1] / "configs"


def _bits(*values) -> list:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.fixture(scope="module")
def sampled_randers():
    """Randers profile whose g is the solver's Hermite table (SampledFunction)."""
    f = ScalarFunction.from_text("1/(1 - r^2)")
    sol = bh_solve_g(f, f, 1.0 / (1.0 - 0.25) ** 2, (0.3, 0.7), steps=400, r0=0.5)
    return randers_spec(f, sol.as_function(), f, 2, (0.3, 0.7))


@pytest.mark.parametrize("name", ["funk2", "funk_randers", "sampled_randers", "family_k"])
def test_order2_profile_jet_is_the_prefix_of_the_order3_jet(request, name):
    spec = request.getfixturevalue(name)
    spec = getattr(spec, "spec", spec)
    rng = np.random.default_rng(17)
    r = rng.uniform(*interior_grid(spec, 2), size=7)
    s = r * rng.uniform(-0.9, 0.9, size=7)
    for rr, ss in [(r, s), (r[:, None], r[:, None] * np.linspace(-0.8, 0.8, 5))] + [
            (float(a), float(b)) for a, b in zip(r, s)]:
        two, three = phi_jet(spec, rr, ss, order=2), phi_jet(spec, rr, ss)
        assert two.order == 2
        assert _bits(*two.c) == _bits(*three.c[:6])


def _bundled_points(name: str, count: int = 12):
    cfg = load_config(str(BUNDLED / f"{name}.json"))
    spec = build_spec(cfg)
    rng = np.random.default_rng(23)
    lo, hi = interior_grid(spec, 2)
    return spec, [random_xy(rng, spec.n, (lo, hi)) for _ in range(count)]


@pytest.mark.parametrize("name", ["funk_n2", "funk_randers_n3", "parallel_ht", "family_k"])
def test_order2_spray_determinant_and_norm_equal_the_order3_bits(name):
    spec, points = _bundled_points(name)
    for x, y in points:
        u, r, s = _split(x, y)
        two, three = phi_jet(spec, r, s, order=2), phi_jet(spec, r, s)
        sv2, sv3 = spray_values(spec, r, s, two), spray_values(spec, r, s, three)
        assert _bits(sv2.P, sv2.Q, sv2.denom) == _bits(sv3.P, sv3.Q, sv3.denom)
        assert _bits(metric_determinant(spec, r, s, two)) == _bits(
            metric_determinant(spec, r, s, three))
        assert _bits(finsler_norm(spec, x, y)) == _bits(u * float(three.d(0, 0)))
    r = np.array([_split(x, y)[1] for x, y in points])
    s = np.array([_split(x, y)[2] for x, y in points])
    sv2 = spray_values(spec, r, s, phi_jet(spec, r, s, order=2))
    sv3 = spray_values(spec, r, s)
    assert _bits(sv2.P, sv2.Q, sv2.denom) == _bits(sv3.P, sv3.Q, sv3.denom)


def test_q_s_from_an_order2_jet_raises(funk2):
    sv = spray_values(funk2, 0.5, 0.2, phi_jet(funk2, 0.5, 0.2, order=2))
    with pytest.raises(ValueError, match="Q_s needs the third partials of an order-3"):
        sv.Q_s
    assert spray_values(funk2, 0.5, 0.2).Q_s == pytest.approx(
        spray_values(funk2, 0.5, 0.2, phi_jet(funk2, 0.5, 0.2)).Q_s)


def test_non_finite_coefficient_raises_on_the_order2_path():
    # exp(10^6 r) near r = 6.9e-4: phi and phi_r are finite, phi_rr overflows
    spec = general_phi_spec("exp(1000000*r)", 2, (1e-4, 1e-3))
    with pytest.raises(DomainError, match=r"non-finite result in 'exp\(1000000 \* r\)'"):
        phi_jet(spec, 6.9e-4, 0.0, order=2)
    # near r = 6.72e-4 only phi_rrr overflows: the order-2 jet never computes it
    assert phi_jet(spec, 6.72e-4, 0.0, order=2).d(2, 0) < math.inf
    with pytest.raises(DomainError, match="non-finite result"):
        phi_jet(spec, 6.72e-4, 0.0)
