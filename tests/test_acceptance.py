"""Acceptance gate: twelve numbered end-to-end criteria, one per test.

Each test prints a single ``criterion N: PASS - ...`` line on success (visible
with ``pytest -s`` or in captured output); a failure shows up as the test's
FAILED line.  Tolerances are fixed here on purpose: loosening them is a
behavior change, not a test fix.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from _support import (
    fd_reference_jet,
    random_expression_text,
    random_randers_texts,
    random_xy,
    sample_points,
    tree_jet,
    tree_point_fn,
    well_behaved_at,
)
from conftest import (
    FUNK_PHI,
    FUNK_RANDERS,
    PARALLEL_HT,
    RANDERS111,
    RANDERS_H05,
    S3_PHI,
    interior_grid,
    make_randers,
)
from finslerlab.cli import main as cli_main
from finslerlab.douglas import douglas_verdict
from finslerlab.errors import DomainError
from finslerlab.expr import ScalarFunction, parse_expression
from finslerlab.families import (
    bh_classification_residuals,
    bh_solve_g,
    build_berwald_family,
    ht_solve_h,
    p_over_s_spread,
)
from finslerlab.geometry import (
    assemble_metric_matrix,
    general_phi_spec,
    metric_determinant,
    phi_jet,
    randers_spec,
    s_fractions,
)
from finslerlab.oracle import s_by_distortion
from finslerlab.randers import (
    covariant_b_coefficients,
    isotropy_condition_check,
    randers_reduced_s,
    sigma_closed_form,
)
from finslerlab.scurvature import isotropy_profile, reduced_s
from finslerlab.volume import BH, HT, sigma_bh, sigma_ht

HERE = Path(__file__).resolve().parent


def _line(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def test_criterion_01_jet_coefficients_match_finite_differences():
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    worst_abs = 0.0
    accepted = 0
    while accepted < 20:
        text = random_expression_text(rng, depth=6)
        tree = parse_expression(text, {"r", "s"})
        fn = tree_point_fn(tree)
        points = sample_points(rng, 10)
        if not well_behaved_at(fn, points):
            continue
        accepted += 1
        for r, s in points:
            jet = tree_jet(tree, r, s)
            for (a, b), want in fd_reference_jet(fn, r, s).items():
                got = float(jet.d(a, b))
                if abs(want) >= 1e-3:
                    rel = abs(got - want) / abs(want)
                    assert rel <= 1e-5, (text, (r, s), (a, b), got, want)
                    worst_rel = max(worst_rel, rel)
                else:
                    err = abs(got - want)
                    assert err <= 1e-8, (text, (r, s), (a, b), got, want)
                    worst_abs = max(worst_abs, err)
    _line(1, f"20 expressions x 10 points: worst rel {worst_rel:.2e} <= 1e-5, "
             f"worst small-value abs {worst_abs:.2e} <= 1e-8")


def _determinant_zoo(n: int):
    yield general_phi_spec("1", n, (0.05, 1.2))
    yield general_phi_spec(FUNK_PHI, n, (0.05, 0.95))
    yield general_phi_spec(S3_PHI, n, (0.05, 0.3))
    yield make_randers(RANDERS111, n)
    yield make_randers(FUNK_RANDERS, n)
    yield build_berwald_family(0.1, "1 + w/4", 1.0, (0.8, 1.2), n).spec


def test_criterion_02_determinant_identity_against_brute_force():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in (2, 3, 4, 6):
        for spec in _determinant_zoo(n):
            lo, hi = spec.r_domain
            pad = 0.05 * (hi - lo)
            for _ in range(100):
                x, y = random_xy(rng, n, (lo + pad, hi - pad))
                u = float(np.linalg.norm(y))
                r = float(np.linalg.norm(x))
                s = float(np.dot(x, y) / u)
                closed = float(metric_determinant(spec, r, s, phi_jet(spec, r, s)))
                brute = float(np.linalg.det(assemble_metric_matrix(spec, x, y)))
                rel = abs(closed - brute) / abs(brute)
                assert rel <= 1e-9, (n, spec, r, s, closed, brute)
                worst = max(worst, rel)
    _line(2, f"4 dimensions x 6 profiles x 100 points: worst rel {worst:.2e} <= 1e-9")


def test_criterion_03_quadrature_densities_match_randers_closed_forms():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        ft, gt, ht = random_randers_texts(rng)
        fns = tuple(ScalarFunction.from_text(t) for t in (ft, gt, ht))
        for n in (2, 3, 4):
            spec = randers_spec(*fns, n, (0.2, 0.95))
            for r in (0.35, 0.6, 0.85):
                for got, kind in ((sigma_bh(spec, r), "bh"), (sigma_ht(spec, r), "ht")):
                    want = sigma_closed_form(*fns, n, r, kind)
                    rel = abs(got - want) / abs(want)
                    assert rel <= 1e-8, (ft, gt, ht, n, r, kind, got, want)
                    worst = max(worst, rel)
    _line(3, f"10 random profiles, n in (2,3,4), both densities: worst rel {worst:.2e} <= 1e-8")


def test_criterion_04_reduced_s_pipeline_equals_randers_closed_form():
    worst = 0.0
    r_values = np.linspace(0.2, 0.9, 21)
    fracs = s_fractions(21)
    for texts in (RANDERS111, FUNK_RANDERS, PARALLEL_HT, RANDERS_H05):
        n = 3
        spec = make_randers(texts, n)
        fns = tuple(ScalarFunction.from_text(t) for t in texts[:3])
        for vol, kind in ((BH, "bh"), (HT, "ht")):
            for r in r_values:
                s_row = float(r) * fracs
                got = np.asarray(reduced_s(spec, vol, float(r), s_row))
                want = np.asarray(randers_reduced_s(*fns, n, float(r), s_row, kind))
                err = float(np.max(np.abs(got - want)))
                assert err <= 1e-7, (texts, kind, float(r), err)
                worst = max(worst, err)
    _line(4, f"4 profiles x 2 densities x 21x21 grid: worst abs {worst:.2e} <= 1e-7")


def test_criterion_05_geodesic_oracle_confirms_analytic_s():
    rng = np.random.default_rng(105)
    cases = [(general_phi_spec(FUNK_PHI, 2, (0.05, 0.95)), (0.15, 0.6))]
    for _ in range(2):
        texts = random_randers_texts(rng)
        fns = tuple(ScalarFunction.from_text(t) for t in texts)
        cases.append((randers_spec(*fns, 3, (0.15, 1.0)), (0.25, 0.75)))
    worst = 0.0
    for spec, r_range in cases:
        for vol in (BH, HT):
            for _ in range(10):
                x, y = random_xy(rng, spec.n, r_range, s_frac_max=0.8)
                u = float(np.linalg.norm(y))
                r = float(np.linalg.norm(x))
                s = float(np.dot(x, y) / u)
                analytic = u * float(np.asarray(reduced_s(spec, vol, r, s)))
                brute = s_by_distortion(spec, vol, x, y)
                band = abs(brute - analytic) / (1.0 + abs(analytic))
                assert band <= 1e-10, (spec, vol, r, s, brute, analytic)
                worst = max(worst, band)
    _line(5, f"3 metrics x 2 densities x 10 points: worst scaled gap {worst:.2e} <= 1e-10")


def test_criterion_06_funk_metric_has_constant_half_isotropy():
    worst = 0.0
    for n in (2, 3):
        spec = general_phi_spec(FUNK_PHI, n, (0.05, 0.95))
        prof = isotropy_profile(spec, BH, np.linspace(0.15, 0.8, 13))
        assert prof.passed
        err = float(np.max(np.abs(prof.c_of_r - 0.5)))
        assert err <= 1e-6, (n, err)
        worst = max(worst, err)
    _line(6, f"n in (2,3): c(r) = 1/2 within {worst:.2e} <= 1e-6, verdict isotropic")


def test_criterion_07_berwald_family_members_certify(family_riemann, family_k):
    for built, c2_value in ((family_riemann, 0.0), (family_k, 0.1)):
        spec = built.spec
        assert built.regularity.passed
        assert built.pde_max_residual <= 1e-8
        want_c1 = 1.0 / (2.0 * built.douglas.r_grid**2)
        assert float(np.max(np.abs(built.douglas.c1 - want_c1))) <= 1e-6
        assert float(np.max(np.abs(built.douglas.c2 - c2_value))) <= 1e-6
        grid = interior_grid(spec, 7)
        prof = isotropy_profile(spec, BH, grid)
        assert prof.passed
        assert float(np.max(np.abs(prof.c_of_r))) <= 1e-6
        for r in grid[::2]:
            _, spread = p_over_s_spread(spec, float(r))
            assert spread <= 1e-7, (c2_value, float(r), spread)
    _line(7, "both family members: regular, PDE <= 1e-8, c1 = 1/(2 r^2), "
             "c2 as configured, isotropy c = 0, P linear in s")


def test_criterion_08_solved_bh_profiles_are_isotropic():
    rng = np.random.default_rng(108)
    solved = 0
    attempts = 0
    worst = 0.0
    while solved < 5:
        attempts += 1
        assert attempts < 60, "could not draw 5 admissible profiles"
        a0, a1 = rng.uniform(0.8, 1.5), rng.uniform(0.0, 0.5)
        c0, c1 = rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.3)
        f = ScalarFunction.from_text(f"{a0:.6f} + {a1:.6f}*r^2")
        h = ScalarFunction.from_text(f"{c0:.6f} + {c1:.6f}*r^2")
        h_r0 = c0 + c1 * 0.36
        g0 = h_r0 * h_r0 + rng.uniform(0.2, 1.0)
        try:
            sol = bh_solve_g(f, h, g0, (0.3, 0.9), steps=400, r0=0.6)
        except DomainError:  # an inadmissible draw; audit failures fail the gate
            continue
        solved += 1
        g_fn = sol.as_function()
        spec = randers_spec(f, g_fn, h, 3, (0.3, 0.9))
        grid = np.linspace(0.35, 0.85, 7)
        prof = isotropy_profile(spec, BH, grid)
        assert prof.passed, (a0, a1, c0, c1, g0)
        for i, r in enumerate(grid):
            want = bh_classification_residuals(f, g_fn, h, float(r)).c
            err = abs(float(prof.c_mean[i]) - want)
            assert err <= 1e-6, (a0, a1, c0, c1, float(r), err)
            worst = max(worst, err)
    _line(8, f"5 solved profiles isotropic; c(r) matches classification within "
             f"{worst:.2e} <= 1e-6")


def test_criterion_09_solved_ht_profiles_have_parallel_form():
    fixture = ht_solve_h(1.0, ScalarFunction.from_text("0"), 0.5, (1.0, 2.5), steps=600)
    i = int(np.argmin(np.abs(fixture.r_nodes - 2.0)))
    assert fixture.r_nodes[i] == pytest.approx(2.0, abs=1e-12)
    assert abs(fixture.values[i] - 0.125) <= 1e-9

    rng = np.random.default_rng(109)
    f = ScalarFunction.from_text("1/r^2")
    solved = 0
    attempts = 0
    worst_cov = 0.0
    worst_c = 0.0
    while solved < 3:
        attempts += 1
        assert attempts < 40, "could not draw 3 admissible profiles"
        b0, b1 = rng.uniform(0.15, 0.5), rng.uniform(0.0, 0.25)
        g = ScalarFunction.from_text(f"{b0:.6f} + {b1:.6f}*r^2")
        try:
            sol = ht_solve_h(1.0, g, 0.3, (1.0, 2.2), steps=600)
        except DomainError:  # an inadmissible draw; audit failures fail the gate
            continue
        if not sol.admissible:
            continue
        solved += 1
        h_fn = sol.as_function()
        for r in (1.137, 1.519, 2.083):
            u1, u2 = covariant_b_coefficients(f, g, h_fn, r)
            assert abs(u1) <= 1e-8 and abs(u2) <= 1e-8, (b0, b1, r, u1, u2)
            worst_cov = max(worst_cov, abs(u1), abs(u2))
        spec = randers_spec(f, g, h_fn, 3, (1.0, 2.2))
        prof = isotropy_profile(spec, HT, np.linspace(1.1, 2.1, 7))
        assert prof.passed
        c_err = float(np.max(np.abs(prof.c_of_r)))
        assert c_err <= 1e-7, (b0, b1, c_err)
        worst_c = max(worst_c, c_err)
    _line(9, f"fixture h(2) = 0.125 within 1e-9; 3 solved profiles: covariant "
             f"derivative <= {worst_cov:.2e} (tol 1e-8), HT c <= {worst_c:.2e} (tol 1e-7)")


def test_criterion_10_ode_variant_discrimination():
    f, g, h = (ScalarFunction.from_text(t) for t in FUNK_RANDERS[:3])
    one = ScalarFunction.from_text("1")
    worst_res2 = 0.0
    least_printed = np.inf
    for r in np.linspace(0.3, 0.7, 11):
        bc = bh_classification_residuals(f, g, h, float(r))
        worst_res2 = max(worst_res2, abs(bc.res2))
        least_printed = min(least_printed, abs(bc.printed_ode_residual))
    assert worst_res2 <= 1e-10
    assert least_printed >= 1e-2
    for r in (0.4, 0.7, 1.0):
        bc = bh_classification_residuals(one, one, one, r)
        assert abs(bc.res2) <= 1e-12
        assert abs(bc.printed_ode_residual) <= 1e-12
    _line(10, f"Funk profile: re-derived residual <= {worst_res2:.2e} while the "
              f"variant form stays >= {least_printed:.2e}; both vanish on the unit "
              "profile (recorded finding)")


def test_criterion_11_negative_controls_fail_loudly(s3_perturbed, funk2):
    fit_bad = douglas_verdict(s3_perturbed, interior_grid(s3_perturbed, 9))
    assert not fit_bad.passed
    bad_douglas = float(np.max(fit_bad.max_residual))
    assert bad_douglas > 1e-3
    fit_good = douglas_verdict(funk2, interior_grid(funk2, 9))
    assert fit_good.passed
    good_douglas = float(np.max(fit_good.max_residual))
    assert bad_douglas / max(good_douglas, 1e-300) >= 1e4

    s_grid = 0.5 * s_fractions(11)
    fns_bad = tuple(ScalarFunction.from_text(t) for t in RANDERS_H05[:3])
    bad = isotropy_condition_check(*fns_bad, 0.5, s_grid)
    assert not bad.passed and bad.residual > 1e-3
    fns_good = tuple(ScalarFunction.from_text(t) for t in RANDERS111[:3])
    good = isotropy_condition_check(*fns_good, 0.5, s_grid)
    assert good.passed
    assert bad.residual / max(good.residual, 1e-300) >= 1e4
    _line(11, f"perturbed profile fails the Douglas fit at {bad_douglas:.2e} and the "
              f"h = 1/2 profile fails the isotropy condition at {bad.residual:.2e}; "
              ">= 4 orders above the passing controls")


def test_criterion_12_sampling_is_deterministic_and_matches_goldens(tmp_path, capsys):
    stems = ("golden_funk", "golden_randers", "golden_parallel")
    for stem in stems:
        cfg = str(HERE / "configs" / f"{stem}.json")
        a = tmp_path / f"{stem}_a.csv"
        b = tmp_path / f"{stem}_b.csv"
        assert cli_main(["sample", cfg, "--out", str(a)]) == 0
        assert cli_main(["sample", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        golden = (HERE / "goldens" / f"{stem}.csv").read_bytes()
        assert a.read_bytes() == golden, f"{stem} drifted from its golden file"
    capsys.readouterr()
    _line(12, f"{len(stems)} configs: repeated runs byte-identical and equal to "
              "the committed goldens")
