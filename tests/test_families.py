"""Construction-side checks: PDE residuals, classification conditions,
the two ODE solvers with their independent node audits, and the family builder."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from _support import (dispatched_simd_targets, stdout_under_blas_cores,
                      stdout_with_and_without_simd)
from conftest import FUNK_RANDERS, interior_grid
from finslerlab.errors import (
    CrossCheckError,
    DegenerateInputError,
    DomainError,
    RegularityError,
)
from finslerlab.expr import ScalarFunction
from finslerlab.families import (
    HT_NODE_TOL,
    SampledFunction,
    bh_classification_residuals,
    bh_solve_g,
    build_berwald_family,
    family_pde_residual,
    ht_condition_residual,
    ht_solve_h,
    p_over_s_spread,
    spray_system_residual,
)
from finslerlab.geometry import general_phi_spec, phi_jet, randers_spec
from finslerlab.randers import covariant_b_coefficients
from finslerlab.scurvature import isotropy_profile
from finslerlab.volume import BH, HT

ONE = ScalarFunction.from_text("1")
ZERO = ScalarFunction.from_text("0")


# -- SampledFunction ---------------------------------------------------------


def poly5_samples(nodes):
    # p(r) = r^5 - 2 r^3 + r, exactly representable by quintic Hermite pieces
    p = nodes**5 - 2.0 * nodes**3 + nodes
    d1 = 5.0 * nodes**4 - 6.0 * nodes**2 + 1.0
    d2 = 20.0 * nodes**3 - 12.0 * nodes
    return p, d1, d2


def test_sampled_function_reproduces_quintic():
    nodes = np.linspace(0.5, 2.0, 7)
    p, d1, d2 = poly5_samples(nodes)
    fn = SampledFunction(nodes, p, d1, d2)
    r = np.linspace(0.5, 2.0, 113)
    want, want_d1, want_d2 = poly5_samples(r)
    np.testing.assert_allclose(fn.value(r), want, rtol=1e-12, atol=1e-12)
    jet = fn.jet(0.9)
    assert jet.d(0, 0) == pytest.approx(poly5_samples(np.array([0.9]))[0][0], rel=1e-12)
    assert jet.d(1, 0) == pytest.approx(poly5_samples(np.array([0.9]))[1][0], rel=1e-11)
    assert jet.d(2, 0) == pytest.approx(poly5_samples(np.array([0.9]))[2][0], rel=1e-10)
    # third derivative of the quintic: 60 r^2 - 12
    assert jet.d(3, 0) == pytest.approx(60.0 * 0.81 - 12.0, rel=1e-8)
    np.testing.assert_allclose(fn.jet(r).d(1, 0), want_d1, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(fn.jet(r).d(2, 0), want_d2, rtol=1e-9, atol=1e-9)


def test_sampled_function_validation():
    nodes = np.array([1.0, 0.5, 2.0])
    with pytest.raises(ValueError):
        SampledFunction(nodes, nodes, nodes, nodes)
    with pytest.raises(ValueError):
        SampledFunction(np.array([1.0, 2.0]), np.array([1.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))


def test_sampled_function_extends_by_edge_polynomial():
    nodes = np.linspace(1.0, 2.0, 11)
    fn = SampledFunction(nodes, nodes * 0 + 3.0, nodes * 0, nodes * 0)
    assert fn.value(0.5) == pytest.approx(3.0)
    assert fn.value(2.5) == pytest.approx(3.0)


# -- PDE and spray-system residuals ------------------------------------------


def test_pde_residual_exact_solution():
    # phi = s/r^2 solves the c2 = 0 transport equation identically
    spec = general_phi_spec("s/r^2", 2, (0.4, 1.2))
    for r in (0.5, 0.8, 1.1):
        res = family_pde_residual(spec, ZERO, r, 0.4 * r)
        assert abs(float(np.asarray(res))) < 1e-13


def test_pde_residual_detects_non_solution(funk2):
    res = family_pde_residual(funk2, ZERO, 0.5, 0.2)
    assert abs(float(np.asarray(res))) > 1e-2


def test_pde_residual_family_members(family_k):
    spec = family_k.spec
    for r in interior_grid(spec, 5):
        s = 0.5 * float(r)
        res = family_pde_residual(spec, spec.profile.c2, float(r), s)
        assert abs(float(np.asarray(res))) <= 1e-10


def test_spray_system_residual_family(family_k):
    spec = family_k.spec
    c1 = ScalarFunction.from_text("1/(2*r^2)")
    c2 = spec.profile.c2
    b = ScalarFunction.from_text("-1/r^2")
    c = ZERO
    for r in interior_grid(spec, 4):
        for frac in (-0.6, 0.3):
            res1, res2 = spray_system_residual(spec, c1, c2, b, c, float(r), float(r) * frac)
            assert abs(float(np.asarray(res1))) < 1e-10
            assert abs(float(np.asarray(res2))) < 1e-10


def test_spray_system_residual_funk(funk2):
    # Funk: P = phi/2, Q = 0 -> c1 = c2 = b = 0, c = 1/2
    c_half = ScalarFunction.from_text("0.5")
    for r in (0.3, 0.55):
        res1, res2 = spray_system_residual(funk2, ZERO, ZERO, ZERO, c_half, r, 0.4 * r)
        assert abs(float(np.asarray(res1))) < 1e-12
        assert abs(float(np.asarray(res2))) < 1e-12


# -- BH classification -------------------------------------------------------


def test_bh_classification_unit_triple():
    bc = bh_classification_residuals(ONE, ONE, ONE, 0.8)
    assert bc.res1 == 0.0
    assert bc.res2 == pytest.approx(0.0, abs=1e-14)
    assert bc.c == pytest.approx(1.0 / (2.0 * (1.0 + 0.64)), rel=1e-12)
    assert bc.printed_ode_residual == pytest.approx(0.0, abs=1e-12)


def test_bh_classification_funk_triple_discriminates():
    f, g, h = (ScalarFunction.from_text(t) for t in FUNK_RANDERS[:3])
    for r in (0.3, 0.5, 0.7):
        bc = bh_classification_residuals(f, g, h, r)
        assert abs(bc.res2) <= 1e-10
        assert bc.c == pytest.approx(0.5, rel=1e-10)
        assert abs(bc.printed_ode_residual) >= 1e-2
    bc = bh_classification_residuals(f, g, h, 0.5)
    assert bc.printed_ode_residual == pytest.approx(2.0 * 0.125 / (1.0 - 0.25) ** 4, rel=1e-10)


def test_bh_classification_riemannian_limit():
    bc = bh_classification_residuals(ONE, ONE, ZERO, 0.6)
    assert bc.c == 0.0
    assert bc.res2 == 0.0


def test_bh_classification_rejects_inadmissible():
    two = ScalarFunction.from_text("2")
    with pytest.raises(DomainError):
        bh_classification_residuals(ONE, ZERO, two, 0.9)


# -- bh_solve_g --------------------------------------------------------------


def test_bh_solve_stationary_solution():
    sol = bh_solve_g(ONE, ONE, 1.0, (0.5, 1.5))
    np.testing.assert_allclose(sol.values, 1.0, atol=1e-12)
    assert sol.max_node_residual < 1e-12
    assert sol.admissible


def test_bh_solve_reproduces_funk():
    f = ScalarFunction.from_text("1/(1 - r^2)")
    g0 = 1.0 / (1.0 - 0.25) ** 2
    sol = bh_solve_g(f, f, g0, (0.3, 0.7), steps=400, r0=0.5)
    want = 1.0 / (1.0 - sol.r_nodes**2) ** 2
    np.testing.assert_allclose(sol.values, want, rtol=1e-13)
    assert sol.max_node_residual <= 1e-8


def test_bh_solve_rejects_zero_h():
    with pytest.raises(DegenerateInputError):
        bh_solve_g(ONE, ZERO, 1.0, (0.5, 1.5))


@pytest.mark.parametrize("h", ["(r - 0.6005)^2", "(r - 0.6005)^2 - 1e-9", "-(r - 0.6005)^2"],
                         ids=["double-root", "two-roots", "negative"])
def test_bh_solve_flags_h_vanishing_between_nodes(h):
    # nodes 0.6 and 0.6015 hold h of one sign; |h| dips to zero between them
    with pytest.raises(DomainError, match=r"h vanishes near r = 0\.6005: the g equation is singular"):
        bh_solve_g("1", h, 1.0, (0.3, 0.9))


def test_bh_solve_flags_admissibility_exit():
    # f + r^2(g - h^2) < 0 at the anchor itself
    h = ScalarFunction.from_text("2")
    with pytest.raises(DomainError, match=r"exits the admissible region at r = 0\.9 "):
        bh_solve_g(ONE, h, 0.0, (0.9, 1.4))


def test_bh_solution_round_trips_through_isotropy():
    f = ScalarFunction.from_text("1 + 0.3*r^2")
    h = ScalarFunction.from_text("0.4")
    sol = bh_solve_g(f, h, 0.8, (0.3, 0.9), steps=400, r0=0.6)
    g_fn = sol.as_function()
    spec = randers_spec(f, g_fn, h, 3, (0.3, 0.9))
    grid = interior_grid(spec, 7)
    prof = isotropy_profile(spec, BH, grid)
    assert prof.passed
    for i, r in enumerate(grid):
        bc = bh_classification_residuals(f, g_fn, h, float(r))
        assert prof.c_mean[i] == pytest.approx(bc.c, abs=1e-7)


def bh_poly_case(data):
    """(f, h) as Polynomials and as texts, g0, r_range and r0 of a solvable BH input.

    An int seeds a quadratic pair with f, h > 0 on (0.5, 1.5) and g0 on a
    solution g >= h^2; "construct" is the README's randers-bh example.
    """
    if data == "construct":
        f, h = Polynomial([1.0, 0.0, 0.3]), Polynomial([0.4])
        return f, h, "1 + 0.3*r^2", "0.4", 0.8, (0.3, 0.9), 0.6
    rng = np.random.default_rng(data)
    texts = [[f"{v:.4f}" for v in rng.uniform(lo, hi)]
             for lo, hi in (([0.5, -0.3, 0.0], [1.5, 0.3, 0.5]), ([0.3, -0.2, -0.1], [1.0, 0.2, 0.1]))]
    f, h = (Polynomial([float(c) for c in t]) for t in texts)
    f_text, h_text = (f"{t[0]} + {t[1]}*r + {t[2]}*r^2" for t in texts)
    r = np.linspace(0.5, 1.5, 401)
    const = (1.0 + rng.uniform()) * float(np.max(f(r) ** 2 / h(r) ** 2))  # C h^2/f >= f
    r0, f0, h0 = 1.0, f(1.0), h(1.0)
    g0 = float(h0 * h0 - f0 / (r0 * r0) + const * h0 * h0 / (r0 * r0 * f0))
    return f, h, f_text, h_text, g0, (0.5, 1.5), r0


def closed_form_g(f, h, g0, r, i0):
    """h^2 - f/r^2 + C h^2/(r^2 f) through g(r[i0]) = g0, from node values of f and h."""
    r0, f0, h0 = r[i0], f[i0], h[i0]
    const = (g0 - h0 * h0 + f0 / (r0 * r0)) * r0 * r0 * f0 / (h0 * h0)
    return h * h - f / (r * r) + const * h * h / (r * r * f)


@pytest.mark.parametrize("data", ["funk", "construct", 1, 2, 3])
def test_bh_solve_nodes_equal_the_closed_form(data):
    if data == "funk":
        g0, r0 = 1.0 / 0.75**2, 0.5
        sol = bh_solve_g("1/(1 - r^2)", "1/(1 - r^2)", g0, (0.3, 0.7), steps=400, r0=r0)
        f_nodes = h_nodes = 1.0 / (1.0 - sol.r_nodes * sol.r_nodes)
    else:
        f, h, f_text, h_text, g0, r_range, r0 = bh_poly_case(data)
        sol = bh_solve_g(f_text, h_text, g0, r_range, steps=400, r0=r0)
        f_nodes, h_nodes = f(sol.r_nodes), h(sol.r_nodes)
    i0 = int(np.argmin(np.abs(sol.r_nodes - r0)))
    want = closed_form_g(f_nodes, h_nodes, g0, sol.r_nodes, i0)
    assert sol.values[i0] == g0  # the closed form alone misses it by an ulp on "construct"
    np.testing.assert_allclose(sol.values, want, rtol=1e-13)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bh_solve_derivatives_satisfy_the_ode(seed):
    # g' = alpha g + beta with alpha = num_a/den, beta = num_b/den, all polynomials
    f, h, f_text, h_text, g0, r_range, r0 = bh_poly_case(seed)
    sol = bh_solve_g(f_text, h_text, g0, r_range, steps=400, r0=r0)
    r, fp, hp = Polynomial([0.0, 1.0]), f.deriv(), h.deriv()
    den = r * r * f * h
    num_a = -(2 * r * f * h + r * r * fp * h - 2 * r * r * f * hp)
    num_b = -2 * f * fp * h + 2 * f * f * hp + 2 * r * f * h**3 + r * r * fp * h**3
    x, g, gp = sol.r_nodes, sol.values, sol.derivs
    alpha, beta = num_a(x) / den(x), num_b(x) / den(x)
    alpha_d1 = (num_a.deriv()(x) * den(x) - num_a(x) * den.deriv()(x)) / den(x) ** 2
    beta_d1 = (num_b.deriv()(x) * den(x) - num_b(x) * den.deriv()(x)) / den(x) ** 2
    np.testing.assert_allclose(gp, alpha * g + beta, rtol=1e-12)
    np.testing.assert_allclose(sol.second_derivs, alpha_d1 * g + alpha * gp + beta_d1, rtol=1e-12)


def test_bh_solve_reports_the_first_exit_in_march_order():
    # f < 0 below r = 0.512 and above r = 1.488; the march from r0 = 1 goes right first
    with pytest.raises(DomainError, match=r"exits the admissible region at r = 1\.48875 "):
        bh_solve_g("1 - 4.2*(r - 1)^2", "0.5", 1.0, (0.3, 1.8), steps=400, r0=1.0)


def test_bh_solve_names_a_sign_change_of_h():
    # no node of h = r - 0.61 is near zero; it changes sign between 0.609 and 0.6105
    with pytest.raises(DomainError, match=r"h vanishes near r = 0\.609: "):
        bh_solve_g("1 + 0.3*r^2", "r - 0.61", 0.8, (0.3, 0.9))


def test_bh_solve_overflow_fails_its_audit_quietly_and_says_so():
    # g0 = 1e308: the node values are finite, their difference stencil overflows
    with pytest.raises(CrossCheckError, match=r"bh_solve_g node audit failed: max residual nan "
                                              r"is not finite") as err:
        bh_solve_g("1", "1", 1e308, (0.5, 1.5))
    assert "try more steps" not in str(err.value)


# SHA-256 of the 400-step Funk solution table
BH_DIGEST_SCRIPT = """
import hashlib
from finslerlab.families import bh_solve_g
sol = bh_solve_g("1/(1 - r^2)", "1/(1 - r^2)", 1.0 / 0.75**2, (0.3, 0.7), steps=400, r0=0.5)
print(hashlib.sha256(b"".join(a.tobytes() for a in (sol.values, sol.derivs, sol.second_derivs))).hexdigest())
"""


@pytest.mark.skipif(not dispatched_simd_targets(), reason="numpy reports no dispatched SIMD target")
def test_bh_solve_bytes_independent_of_simd_dispatch():
    dispatched, baseline = stdout_with_and_without_simd(BH_DIGEST_SCRIPT)
    assert dispatched == baseline


# SHA-256 of the node residuals of 20 BH and 20 HT solves
AUDIT_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from finslerlab.families import bh_solve_g, ht_solve_h
rng = np.random.default_rng(3)
digest = hashlib.sha256()
for _ in range(20):
    a, b, c = (float(v) for v in rng.uniform(0.1, 0.5, 3))
    bh = bh_solve_g(f"1 + {a!r}*r^2", f"{b!r} + {c!r}*r", 0.8, (0.3, 0.9), steps=400, r0=0.6)
    ht = ht_solve_h(1.0, f"{c!r}*r", b, (1.0, 2.5), steps=600)
    digest.update(bh.node_residuals.tobytes() + ht.node_residuals.tobytes())
print(digest.hexdigest())
"""


def test_audit_residual_bytes_do_not_depend_on_the_blas_kernel():
    # the one-sided end stencils of the audit derivative are fixed-order float sums
    default, haswell, prescott = stdout_under_blas_cores(AUDIT_DIGEST_SCRIPT,
                                                         cores=("Haswell", "Prescott"))
    assert len(default.strip()) == 64
    assert default == haswell == prescott


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solvers_reject_non_finite_initial_values(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="g_at_r0 must be finite"):
            bh_solve_g(ONE, ONE, bad, (0.5, 1.5))
        with pytest.raises(DomainError, match="h_at_r0 must be finite"):
            ht_solve_h(1.0, ZERO, bad, (1.0, 2.5), steps=600)


# -- HT condition and ht_solve_h ---------------------------------------------


def test_ht_condition_closed_form_zero():
    h = ScalarFunction.from_text("0.5/r^2")
    for r in (0.8, 1.5, 2.5):
        assert ht_condition_residual(1.0, ZERO, h, r) == pytest.approx(0.0, abs=1e-12)
    assert ht_condition_residual(1.0, ZERO, ZERO, 1.0) == 0.0


def test_ht_condition_nonzero_for_wrong_decay():
    h = ScalarFunction.from_text("0.5/r")
    assert abs(ht_condition_residual(1.0, ZERO, h, 1.3)) > 1e-3


def test_ht_condition_validates_inputs():
    for c in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="c must be a positive finite constant"):
            ht_condition_residual(c, ZERO, ONE, 1.0)
    # g - h^2 + c/r^4 <= 0 trips the admissibility guard
    h = ScalarFunction.from_text("3")
    with pytest.raises(DomainError):
        ht_condition_residual(0.1, ZERO, h, 2.0)


def test_ht_solve_reproduces_inverse_square():
    sol = ht_solve_h(1.0, ZERO, 0.5, (1.0, 2.5), steps=600)
    i = int(np.argmin(np.abs(sol.r_nodes - 2.0)))
    assert sol.r_nodes[i] == pytest.approx(2.0, abs=1e-12)
    assert sol.values[i] == pytest.approx(0.125, abs=1e-9)
    np.testing.assert_allclose(sol.values, 0.5 / sol.r_nodes**2, rtol=1e-8)
    assert sol.admissible


def test_ht_solve_overflow_fails_its_audit_quietly_and_says_so():
    with pytest.raises(CrossCheckError, match=r"ht_solve_h node audit failed: max residual nan "
                                              r"is not finite") as err:
        ht_solve_h(1.0, ZERO, 1e308, (1.0, 2.5), steps=600)
    assert "try more steps" not in str(err.value)


def test_ht_solution_gives_parallel_beta():
    sol = ht_solve_h(1.0, ZERO, 0.5, (1.0, 2.5), steps=600)
    h_fn = sol.as_function()
    f = ScalarFunction.from_text("1/r^2")
    for r in (1.2, 1.8, 2.3):
        u1, u2 = covariant_b_coefficients(f, ZERO, h_fn, r)
        assert abs(u1) < 1e-8
        assert abs(u2) < 1e-8
    spec = randers_spec(f, ZERO, h_fn, 3, (1.0, 2.5))
    prof = isotropy_profile(spec, HT, interior_grid(spec, 5))
    assert prof.passed
    np.testing.assert_allclose(prof.c_of_r, 0.0, atol=1e-7)


def test_ht_solve_default_steps_pass_their_audit():
    # the FD audit stencil's truncation failed the old 400-step default (2.8e-7)
    sol = ht_solve_h(1.0, "0.3 + 0.1*r^2", 1.0, (0.5, 2.0))
    assert sol.r_nodes.size == 1601
    assert sol.max_node_residual <= HT_NODE_TOL * (1.0 + float(np.max(np.abs(sol.values))))


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
def test_ht_solve_validates_c(c):
    with pytest.raises(DomainError, match="c must be a positive finite constant"):
        ht_solve_h(c, ZERO, 0.5, (1.0, 2.5), steps=600)


def test_ht_solve_validates_denominator():
    g_neg = ScalarFunction.from_text("-2")
    with pytest.raises(DomainError):
        ht_solve_h(1.0, g_neg, 0.5, (1.0, 2.0))


# -- build_berwald_family ----------------------------------------------------


def test_build_family_riemann_equivalent(family_riemann):
    spec = family_riemann.spec
    assert family_riemann.pde_max_residual <= 1e-8
    assert family_riemann.douglas.passed
    assert family_riemann.regularity.passed
    for r in (0.85, 1.0, 1.2):
        assert phi_jet(spec, r, 0.2 * r).d(0, 0) == pytest.approx(1.0 / r, rel=1e-10)


def test_build_family_k_properties(family_k):
    assert family_k.pde_max_residual <= 1e-8
    assert family_k.douglas.passed
    np.testing.assert_allclose(family_k.douglas.c2, 0.1, atol=1e-8)


def test_build_family_p_decomposition(family_k):
    # Berwald members have P = c*phi + b*s with c = 0: P/s is b = -1/r^2 at every s
    spec = family_k.spec
    for r in interior_grid(spec, 4):
        mean, spread = p_over_s_spread(spec, float(r))
        assert spread < 1e-8
        assert mean == pytest.approx(-1.0 / float(r) ** 2, rel=1e-6)


def test_build_family_rejects_bad_chi():
    with pytest.raises(RegularityError):
        build_berwald_family(0.0, "w - 0.5", 1.0, (0.8, 1.2), 2)


def test_build_family_requires_closed_form_c2():
    nodes = np.linspace(0.8, 1.2, 12)
    table = SampledFunction(nodes, nodes * 0 + 0.1, nodes * 0, nodes * 0)
    with pytest.raises(TypeError):
        build_berwald_family(table, "1", 1.0, (0.8, 1.2), 2)
