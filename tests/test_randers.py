"""Radial Randers data: Christoffel symbols, covariant derivative of beta,
closed-form densities and the direct isotropy-condition check."""

import dataclasses
import re

import numpy as np
import pytest

from _support import fd_christoffel, fd_covariant_b, random_randers_texts, random_xy
from conftest import FUNK_RANDERS, PARALLEL_HT, RANDERS111, interior_grid, make_randers
from finslerlab import randers
from finslerlab.errors import DomainError
from finslerlab.expr import ScalarFunction
from finslerlab.families import SampledFunction
from finslerlab.randers import (
    christoffel_coefficients,
    covariant_b_coefficients,
    isotropy_condition_check,
    randers_coefficients,
    randers_reduced_s,
    sigma_closed_form,
)
from finslerlab.scurvature import isotropy_profile
from finslerlab.volume import BH, CONSTANT, HT, CustomDensity


def texts_fns(texts):
    return tuple(ScalarFunction.from_text(t) for t in texts[:3])


_NODES = np.linspace(0.1, 1.0, 19)
#: Randers data and radii inside their domains: the benchmark's Funk (fr3) and HT (ht3)
#: data, drawn triples and a Hermite table for g
READ_CASES = {
    "fr3": (texts_fns(FUNK_RANDERS), (0.3, 0.7)),
    "ht3": (texts_fns(PARALLEL_HT), (0.8, 2.5)),
    **{f"drawn-{k}": (texts_fns(random_randers_texts(np.random.default_rng(k))), (0.15, 1.0))
       for k in range(3)},
    "hermite-g": ((ScalarFunction.from_text("1 + 0.2*r"),
                   SampledFunction(_NODES, 1.0 + 0.3 * _NODES**2, 0.6 * _NODES, 0.6 + 0 * _NODES),
                   ScalarFunction.from_text("0.4*atan(r)")), (0.2, 0.9)),
}


@pytest.mark.parametrize("case", READ_CASES)
def test_randers_data_equal_those_of_each_functions_own_jet(monkeypatch, case):
    fns, (lo, hi) = READ_CASES[case]
    for r in (0.5 * (lo + hi), np.linspace(lo, hi, 41)):
        got = randers_coefficients(*fns, r)
        with monkeypatch.context() as patch:
            patch.setattr(randers, "radial_jets", lambda fs, rr, order, r_order:
                          [fn.jet(rr, order, r_order) for fn in fs])
            want = randers_coefficients(*fns, r)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b) and np.shape(a) == np.shape(b) and \
                np.asarray(a).tobytes() == np.asarray(b).tobytes(), (case, field.name, np.ndim(r))


def test_christoffel_flat_sphere_case():
    f = g = ScalarFunction.from_text("1")
    a, b, c = christoffel_coefficients(f, g, 1.0)
    assert (a, b, c) == pytest.approx((0.0, 0.5, 0.0))


def test_christoffel_matches_brute_force_levi_civita():
    rng = np.random.default_rng(21)
    corpus = [RANDERS111, FUNK_RANDERS, PARALLEL_HT]
    corpus += [random_randers_texts(rng) + ((0.15, 1.0),) for _ in range(2)]
    for texts in corpus:
        f, g, h = texts_fns(texts)
        lo, hi = texts[3]
        for _ in range(20):
            x, _ = random_xy(rng, 3, (lo + 0.05, min(hi, 1.0) - 0.05))
            r = float(np.linalg.norm(x))
            a_coef, b_coef, c_coef = christoffel_coefficients(f, g, r)
            ref = fd_christoffel(f, g, x)
            n = 3
            eye = np.eye(n)
            ours = (
                a_coef * np.einsum("i,j,k->kij", x, x, x)
                + b_coef * np.einsum("k,ij->kij", x, eye)
                + c_coef * (np.einsum("i,kj->kij", x, eye) + np.einsum("j,ki->kij", x, eye))
            )
            np.testing.assert_allclose(ours, ref, atol=1e-6)


def test_covariant_b_closed_forms():
    # f=g=h=1: u1 = 1/(1+r^2), u2 = 0
    one = ScalarFunction.from_text("1")
    for r in (0.4, 0.9, 1.3):
        u1, u2 = covariant_b_coefficients(one, one, one, r)
        assert u1 == pytest.approx(1.0 / (1.0 + r * r), rel=1e-12)
        assert u2 == pytest.approx(0.0, abs=1e-12)


def test_covariant_b_parallel_profile():
    f, g, h = texts_fns(PARALLEL_HT)
    for r in (0.5, 1.0, 2.5):
        u1, u2 = covariant_b_coefficients(f, g, h, r)
        assert u1 == pytest.approx(0.0, abs=1e-12)
        assert u2 == pytest.approx(0.0, abs=1e-12)


def test_covariant_b_matches_brute_force():
    rng = np.random.default_rng(23)
    for texts in (RANDERS111, FUNK_RANDERS, PARALLEL_HT):
        f, g, h = texts_fns(texts)
        lo, hi = texts[3]
        for _ in range(10):
            x, _ = random_xy(rng, 3, (lo + 0.05, min(hi, 1.0) - 0.05))
            r = float(np.linalg.norm(x))
            u1, u2 = covariant_b_coefficients(f, g, h, r)
            ours = u1 * np.eye(3) + u2 * np.outer(x, x)
            np.testing.assert_allclose(ours, fd_covariant_b(f, g, h, x), atol=1e-6)


def test_coefficient_bundle_linear_algebra():
    for texts in (RANDERS111, FUNK_RANDERS):
        f, g, h = texts_fns(texts)
        for r in (0.3, 0.6, 0.85):
            co = randers_coefficients(f, g, h, r)
            x = np.zeros(3)
            x[0] = r
            a = co.f * np.eye(3) + co.g * np.outer(x, x)
            assert co.q * co.f**2 == pytest.approx(np.linalg.det(a), rel=1e-12)
            b = co.h * x
            assert co.beta_norm2 == pytest.approx(float(b @ np.linalg.solve(a, b)), rel=1e-12)


def _half_log_one_minus_beta2(f, g, h, r):
    # ||beta||^2 = b^T a^{-1} b from numpy, independent of the coefficient bundle
    x = np.array([r, 0.0, 0.0])
    a = f.value(r) * np.eye(3) + g.value(r) * np.outer(x, x)
    b = h.value(r) * x
    return 0.5 * np.log(1.0 - float(b @ np.linalg.solve(a, b)))


def test_rho_derivative_matches_a_central_difference():
    rng = np.random.default_rng(29)
    corpus = [RANDERS111, FUNK_RANDERS, PARALLEL_HT]
    corpus += [random_randers_texts(rng) + ((0.15, 1.0),) for _ in range(8)]
    step = 1e-5
    for texts in corpus:
        f, g, h = texts_fns(texts)
        lo, hi = texts[3]
        for r in np.linspace(lo + 0.05, min(hi, 1.0) - 0.05, 7).tolist():
            fd = (_half_log_one_minus_beta2(f, g, h, r + step)
                  - _half_log_one_minus_beta2(f, g, h, r - step)) / (2.0 * step)
            # PARALLEL_HT has ||beta||^2 = 1/4, so rho' = 0 and only roundoff is left
            assert randers_coefficients(f, g, h, r).rho_d1 == pytest.approx(fd, rel=1e-7,
                                                                            abs=1e-9)


def test_admissibility_guard():
    f = ScalarFunction.from_text("1")
    g = ScalarFunction.from_text("0")
    h = ScalarFunction.from_text("2")  # f + r^2(g - h^2) = 1 - 4 r^2
    with pytest.raises(DomainError):
        covariant_b_coefficients(f, g, h, 0.8)
    # still fine where the margin is positive
    u1, _ = covariant_b_coefficients(f, g, h, 0.3)
    assert np.isfinite(u1)


def test_reduced_s_volume_split():
    # the BH and HT formulas differ exactly by (n+1) rho' s / r
    f, g, h = texts_fns(RANDERS111)
    n, r = 3, 0.7
    s = r * np.linspace(-0.8, 0.8, 9)
    bh = randers_reduced_s(f, g, h, n, r, s, "bh")
    ht = randers_reduced_s(f, g, h, n, r, s, "ht")
    co = randers_coefficients(f, g, h, r)
    np.testing.assert_allclose(bh - ht, -(n + 1) * co.rho_d1 * s / r, atol=1e-12)


def test_sigma_closed_form_kinds():
    f, g, h = texts_fns(RANDERS111)
    v_bh = sigma_closed_form(f, g, h, 3, 1.0, "bh")
    v_ht = sigma_closed_form(f, g, h, 3, 1.0, "ht")
    assert v_ht == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert v_bh < v_ht  # the (1-|beta|^2)^{(n+1)/2} factor is < 1 here
    with pytest.raises(ValueError):
        sigma_closed_form(f, g, h, 3, 1.0, "nope")


def test_closed_forms_take_bh_and_ht_as_volumes_or_names():
    f, g, h = texts_fns(RANDERS111)
    s = 0.7 * np.linspace(-0.8, 0.8, 5)
    for vol, name in ((BH, "bh"), (HT, "HT")):
        assert sigma_closed_form(f, g, h, 3, 0.7, vol) == sigma_closed_form(f, g, h, 3, 0.7, name)
        np.testing.assert_array_equal(randers_reduced_s(f, g, h, 3, 0.7, s, vol),
                                      randers_reduced_s(f, g, h, 3, 0.7, s, name))
    for vol in ("constant", CONSTANT, CustomDensity(ScalarFunction.from_text("1 + r"))):
        with pytest.raises(ValueError):
            sigma_closed_form(f, g, h, 3, 0.7, vol)
        with pytest.raises(ValueError):
            randers_reduced_s(f, g, h, 3, 0.7, s, vol)


def test_isotropy_condition_positive_case():
    one = ScalarFunction.from_text("1")
    for r in (0.3, 0.8, 1.1):
        rep = isotropy_condition_check(one, one, one, r, r * np.linspace(-0.9, 0.9, 15))
        assert rep.passed
        assert rep.c == pytest.approx(1.0 / (2.0 * (1.0 + r * r)), rel=1e-9)


def test_isotropy_condition_negative_case():
    one = ScalarFunction.from_text("1")
    half = ScalarFunction.from_text("0.5")
    rep = isotropy_condition_check(one, one, half, 0.8, 0.8 * np.linspace(-0.9, 0.9, 15))
    assert not rep.passed
    assert rep.residual > 1e-3


def test_condition_check_agrees_with_isotropy_profile(randers_h05):
    # same verdicts through the direct condition and through the S pipeline
    corpus = [(RANDERS111, True), (FUNK_RANDERS, True), (("1", "1", "0.5", (0.1, 1.2)), False)]
    for texts, expect in corpus:
        f, g, h = texts_fns(texts)
        spec = make_randers(texts, 3)
        grid = interior_grid(spec, 5)
        prof = isotropy_profile(spec, BH, grid)
        conds = [
            isotropy_condition_check(f, g, h, float(r), float(r) * np.linspace(-0.9, 0.9, 11))
            for r in grid
        ]
        assert prof.passed == expect
        assert all(c.passed for c in conds) == expect


def test_domain_error_on_radii_quotes_an_offending_value():
    # sqrt(1.3 - r) fails from r = 1.3 on; the message must quote one of those
    one = ScalarFunction.from_text("1")
    h = ScalarFunction.from_text("2*sqrt(1.3 - r)")
    with pytest.raises(DomainError, match=r"sqrt of non-positive value \(array, e\.g\. ") as exc:
        randers_coefficients(one, one, h, np.linspace(0.2, 1.4, 13))
    quoted = float(re.search(r"e\.g\. ([^)]+)\)", str(exc.value)).group(1))
    assert quoted <= 0.0
