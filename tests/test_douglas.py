"""Quadratic-in-s structure of Q: per-radius fits and the Douglas verdict."""

import numpy as np
import pytest

from conftest import FUNK_RANDERS, PARALLEL_HT, RANDERS111, interior_grid, make_randers
from finslerlab.douglas import douglas_verdict, fit_q
from finslerlab.geometry import general_phi_spec, phi_jet, s_fractions


def symmetric_s(r: float, count: int = 13) -> np.ndarray:
    return r * s_fractions(count)


def jet2(spec, r, s):
    """The order-2 profile jet fit_q reads."""
    return phi_jet(spec, r, s, order=2)


def test_fit_trivial_profile(euclid):
    s = symmetric_s(0.5)
    fit = fit_q(0.5, s, jet2(euclid, 0.5, s))
    assert fit.c1 == pytest.approx(0.0, abs=1e-14)
    assert fit.c2 == pytest.approx(0.0, abs=1e-14)
    assert fit.max_residual < 1e-14


def test_fit_known_closed_form():
    spec = general_phi_spec("sqrt(1+s^2)", 2, (0.05, 1.2))
    s = symmetric_s(0.5)
    fit = fit_q(0.5, s, jet2(spec, 0.5, s))
    assert fit.c1 == pytest.approx(0.4, abs=1e-12)
    assert fit.c2 == pytest.approx(0.0, abs=1e-12)
    assert fit.max_residual <= 1e-12


def test_fit_family_recovers_defining_coefficients(family_k):
    spec = family_k.spec
    for r in interior_grid(spec, 5):
        s = symmetric_s(float(r))
        fit = fit_q(float(r), s, jet2(spec, float(r), s))
        assert fit.c1 == pytest.approx(1.0 / (2.0 * r * r), abs=1e-8)
        assert fit.c2 == pytest.approx(0.1, abs=1e-8)


def test_fit_requires_symmetric_grid(euclid):
    s5, s3 = np.array([-0.1, 0.0, 0.1, 0.2, 0.3]), np.array([-0.1, 0.0, 0.1])
    with pytest.raises(ValueError):
        fit_q(0.5, s5, jet2(euclid, 0.5, s5))
    with pytest.raises(ValueError):
        fit_q(0.5, s3, jet2(euclid, 0.5, s3))


def test_verdict_randers_zoo_passes():
    # every spherically symmetric Randers metric has closed beta
    for texts in (RANDERS111, FUNK_RANDERS, PARALLEL_HT):
        spec = make_randers(texts, 3)
        fit = douglas_verdict(spec, interior_grid(spec, 7))
        assert fit.passed, texts


def test_verdict_euclid(euclid):
    fit = douglas_verdict(euclid, interior_grid(euclid, 5))
    assert fit.passed
    np.testing.assert_allclose(fit.c1, 0.0, atol=1e-13)
    np.testing.assert_allclose(fit.c2, 0.0, atol=1e-13)


def test_verdict_rejects_s3_perturbation(s3_perturbed):
    fit = douglas_verdict(s3_perturbed, interior_grid(s3_perturbed, 7))
    assert not fit.passed
    assert float(np.max(fit.odd_residual)) > 1e-3


def test_fit_stable_under_grid_refinement(funk2, family_k):
    for spec in (funk2, family_k.spec):
        for r in interior_grid(spec, 3):
            s21, s41 = symmetric_s(float(r), 21), symmetric_s(float(r), 41)
            a = fit_q(float(r), s21, jet2(spec, float(r), s21))
            b = fit_q(float(r), s41, jet2(spec, float(r), s41))
            assert abs(a.c1 - b.c1) <= 1e-9
            assert abs(a.c2 - b.c2) <= 1e-9


def test_verdict_report_shape(funk2):
    grid = interior_grid(funk2, 6)
    fit = douglas_verdict(funk2, grid)
    assert fit.r_grid.shape == grid.shape
    assert fit.c1.shape == grid.shape
    assert fit.tolerance.shape == grid.shape
    assert fit.passed == bool(
        np.all(fit.max_residual <= fit.tolerance) and np.all(fit.odd_residual <= fit.tolerance)
    )


def test_verdict_residuals_are_the_per_point_fit_defects(funk2):
    grid = interior_grid(funk2, 5)
    fracs = s_fractions(11)
    fit = douglas_verdict(funk2, grid, fracs)
    assert fit.residuals.shape == (grid.size, fracs.size)
    np.testing.assert_array_equal(np.max(np.abs(fit.residuals), axis=1), fit.max_residual)
    for i, r in enumerate(grid):
        s = r * fracs
        one = fit_q(float(r), s, jet2(funk2, float(r), s))
        np.testing.assert_array_equal(fit.residuals[i], one.residuals)
