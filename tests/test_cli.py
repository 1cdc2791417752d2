"""End-to-end command line runs: verdict lines, report JSON, exit codes,
byte-stable CSV sampling against committed goldens, construct round trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _support import CONSTRUCT_INPUTS, dispatched_simd_targets
from finslerlab import cli
from finslerlab.cli import CHECKS, CSV_HEADER, SOLVER_STEPS_CAP, main
from finslerlab.errors import DomainError
from finslerlab.expr import ScalarFunction
from finslerlab.families import bh_classification_residuals, ht_condition_residual
from finslerlab.randers import covariant_b_coefficients

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDENS = HERE / "goldens"
FUNK_CFG = str(CONFIGS / "golden_funk.json")
RANDERS_CFG = str(CONFIGS / "golden_randers.json")
PARALLEL_CFG = str(CONFIGS / "golden_parallel.json")


def write_cfg(tmp_path: Path, name: str, data: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(data, indent=1))
    return str(p)


H05_METRIC = {"kind": "randers", "f": "1", "g": "1", "h": "0.5", "r_domain": [0.1, 1.2]}


# -- analyze and sample ------------------------------------------------------


def test_analyze_report_structure(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", FUNK_CFG, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["regularity"]["passed"] is True
    assert len(rep["grid"]) == 4 * 5
    assert set(CSV_HEADER.split(",")) <= set(rep["grid"][0])
    assert rep["config_echo"]["n"] == 2
    assert len(rep["per_radius"]) == 4


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", FUNK_CFG, "--out", str(a)]) == 0
    assert main(["sample", FUNK_CFG, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_header_exact(tmp_path):
    out = tmp_path / "x.csv"
    main(["sample", FUNK_CFG, "--out", str(out)])
    assert out.read_text().splitlines()[0] == "r,s,phi,P,Q,Q_s,detg,sigma,f_r,S_over_u"


@pytest.mark.parametrize("stem", ["golden_funk", "golden_randers", "golden_parallel"])
def test_sample_matches_golden(tmp_path, stem):
    out = tmp_path / f"{stem}.csv"
    assert main(["sample", str(CONFIGS / f"{stem}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDENS / f"{stem}.csv").read_bytes()


DISPATCHED = dispatched_simd_targets()

# samples each (config, out) argument pair, then prints the dispatch targets in use
SAMPLE_SCRIPT = """
import sys
import numpy as np
from finslerlab.cli import main
for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["sample", cfg, "--out", out]) == 0
print(" ".join(np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])))
"""


@pytest.mark.skipif(not DISPATCHED, reason="numpy reports no dispatched SIMD target on this CPU")
def test_sample_bytes_independent_of_simd_dispatch(tmp_path):
    stems = ("golden_funk", "golden_randers", "golden_parallel")
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    runs = {"dispatched": env, "baseline": {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCHED)}}
    for label, run_env in runs.items():
        args = []
        for stem in stems:
            args += [str(CONFIGS / f"{stem}.json"), str(tmp_path / f"{stem}_{label}.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", SAMPLE_SCRIPT, *args],
            capture_output=True, text=True, cwd=str(HERE.parent), env=run_env,
        )
        assert proc.returncode == 0, proc.stderr
        in_use = proc.stdout.splitlines()[-1].split()
        assert in_use == ([] if label == "baseline" else list(DISPATCHED))
    for stem in stems:
        dispatched = (tmp_path / f"{stem}_dispatched.csv").read_bytes()
        assert dispatched == (tmp_path / f"{stem}_baseline.csv").read_bytes(), stem


# -- verify ------------------------------------------------------------------


def test_verify_isotropy_funk(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--check", "isotropy", FUNK_CFG, "--out", str(out)])
    assert code == 0
    assert "isotropy: PASS" in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["check"] == "isotropy"
    assert rep["verdict"] == "pass"
    for row in rep["per_radius"]:
        assert row["c"] == pytest.approx(0.5, abs=1e-9)


def test_verify_failure_sets_exit_one(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "h05.json",
        {"n": 2, "metric": H05_METRIC, "volume": "bh",
         "grid": {"r_min": 0.3, "r_max": 0.8, "r_count": 4, "s_count": 7}},
    )
    out = tmp_path / "rep.json"
    code = main(["verify", "--check", "isotropy", cfg, "--out", str(out)])
    assert code == 1
    assert "isotropy: FAIL" in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "fail"
    assert rep["residuals"]["max"] > 1e-3


def test_tol_flag_relaxes_verdict(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "h05.json",
        {"n": 2, "metric": H05_METRIC, "volume": "bh",
         "grid": {"r_min": 0.3, "r_max": 0.8, "r_count": 4, "s_count": 7}},
    )
    assert main(["verify", "--check", "isotropy", cfg, "--tol", "10"]) == 0
    capsys.readouterr()


def test_verify_douglas(capsys):
    assert main(["verify", "--check", "douglas", FUNK_CFG]) == 0
    assert "douglas: PASS" in capsys.readouterr().err


def test_verify_bh_classification(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "--check", "bh-classification", RANDERS_CFG, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    for row in rep["per_radius"]:
        assert row["c"] == pytest.approx(0.5, abs=1e-9)
        assert abs(row["printed_ode_residual"]) >= 1e-2


def test_verify_ht_parallel(capsys):
    assert main(["verify", "--check", "ht-parallel", PARALLEL_CFG]) == 0
    assert "ht-parallel: PASS" in capsys.readouterr().err


def test_verify_oracle_seeded(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "funk_small.json",
        {"n": 2,
         "metric": {"kind": "general", "phi": "(sqrt(1 - r^2 + s^2) + s)/(1 - r^2)",
                    "r_domain": [0.05, 0.95]},
         "volume": "bh",
         "grid": {"r_min": 0.3, "r_max": 0.5, "r_count": 2, "s_count": 5},
         "oracle": {"points": 3}},
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--check", "oracle", cfg, "--seed", "5", "--out", str(out1)]) == 0
    assert main(["verify", "--check", "oracle", cfg, "--seed", "5", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_check_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--check", "bogus", FUNK_CFG])
    capsys.readouterr()


def test_verify_stdout_is_the_json_report(capsys):
    assert main(["verify", "--check", "isotropy", FUNK_CFG]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == "pass"
    assert "isotropy: PASS" in err


def test_out_path_is_reported_on_stderr(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["sample", FUNK_CFG, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"wrote {out}" in captured.err


@pytest.mark.parametrize("quad", ["64", "1024"])
def test_quad_is_an_unknown_option(capsys, quad):
    # refinement doubles the node count from a fixed start; nothing sets it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "isotropy", FUNK_CFG, "--quad", quad])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_seed_must_be_a_non_negative_int(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "oracle", FUNK_CFG, "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
def test_tol_must_be_a_positive_finite_number(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "isotropy", FUNK_CFG, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# -- exit codes --------------------------------------------------------------


def test_missing_file_is_config_error(capsys):
    assert main(["analyze", "/no/such/config.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["analyze", str(p)]) == 2
    capsys.readouterr()


def test_missing_metric_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {"n": 2})
    assert main(["analyze", cfg]) == 2
    assert "metric" in capsys.readouterr().err


def test_wrong_kind_for_family_check_is_config_error(capsys):
    assert main(["verify", "--check", "berwald-family", FUNK_CFG]) == 2
    capsys.readouterr()


def test_inadmissible_point_is_numeric_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "inadmissible.json",
        {"n": 2,
         "metric": {"kind": "randers", "f": "1", "g": "0", "h": "2", "r_domain": [0.1, 1.2]},
         "volume": "bh",
         "grid": {"r_min": 0.7, "r_max": 0.9, "r_count": 2, "s_count": 5}},
    )
    assert main(["verify", "--check", "bh-classification", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_overflowing_family_integrand_prints_only_the_numeric_failure(tmp_path):
    # c2 = 1e18 overflows e^{I1} in J's integrand below r0; numpy stays silent
    cfg = json.loads((HERE.parent / "configs" / "family_k.json").read_text())
    cfg["metric"]["c2"] = 10**18
    proc = subprocess.run(
        [sys.executable, "-m", "finslerlab", "verify", "--check", "douglas",
         write_cfg(tmp_path, "huge_c2.json", cfg)],
        capture_output=True,
        text=True,
        cwd=str(HERE.parent),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    got = re.fullmatch(r"numeric failure: integrand is not finite at r=(\S+)\n", proc.stderr)
    assert got, proc.stderr
    assert 0.8 <= float(got.group(1)) < 1.0


def test_irregular_grid_point_is_regularity_error(tmp_path, capsys):
    # constant volume so the grid evaluation, not the density quadrature,
    # is first to see the sign change
    cfg = write_cfg(
        tmp_path,
        "irregular.json",
        {"n": 2,
         "metric": {"kind": "general", "phi": "1 + 2*s", "r_domain": [0.1, 1.0]},
         "volume": "constant",
         "grid": {"r_min": 0.3, "r_max": 0.9, "r_count": 4, "s_count": 7}},
    )
    assert main(["sample", cfg]) == 4
    assert "regularity failure" in capsys.readouterr().err


def test_bad_density_quadrature_is_numeric_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "irregular_bh.json",
        {"n": 2,
         "metric": {"kind": "general", "phi": "1 + 2*s", "r_domain": [0.1, 1.0]},
         "volume": "bh",
         "grid": {"r_min": 0.3, "r_max": 0.9, "r_count": 4, "s_count": 7}},
    )
    assert main(["sample", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


IRREGULAR_BH = {"n": 2,
                "metric": {"kind": "general", "phi": "1 + 2*s", "r_domain": [0.1, 1.0]},
                "volume": "bh",
                "grid": {"r_min": 0.3, "r_max": 0.9, "r_count": 4, "s_count": 7}}


@pytest.mark.parametrize("argv, code, line", [
    (["sample"], 3, "numeric failure: refinement did not reach 1e-10 below 1024 nodes"),
    (["verify", "--check", "isotropy"], 3,
     "numeric failure: refinement did not reach 1e-10 below 1024 nodes"),
    (["verify", "--check", "douglas"], 4,
     "regularity failure: regularity condition 1 (phi > 0) fails at r=0.7000000000000001, "
     "s=-0.6999993 (margin -0.3999986)"),
], ids=["sample", "isotropy", "douglas"])
def test_batched_grid_reports_the_first_failing_radius(tmp_path, capsys, argv, code, line):
    # r = 0.5 fails its density refinement, r = 0.7 and 0.9 are irregular: the
    # error is the one a loop over the radii in grid order meets first
    cfg = write_cfg(tmp_path, "irregular_bh.json", IRREGULAR_BH)
    assert main(argv + [cfg]) == code
    assert capsys.readouterr().err.strip() == line


# each fails admissibility at one radius and its expression domain at a later one,
# which a batch over every radius meets first
INADMISSIBLE = {
    "dominance": {"f": "1", "g": "0", "h": "2*sqrt(1.3 - r)"},
    "f": {"f": "0.9 - r", "g": "0", "h": "0.1*log(1.25 - r)"},
}


def _first_loop_error(check, metric, r_values):
    """The stderr line of the per-radius loop the batched Randers checks replace."""
    f, g, h = (ScalarFunction.from_text(metric[k]) for k in ("f", "g", "h"))
    try:
        for r in r_values.tolist():
            if check == "bh-classification":
                bh_classification_residuals(f, g, h, r)
            else:
                covariant_b_coefficients(f, g, h, r)
                ht_condition_residual(1.0, g, h, r)
    except DomainError as exc:
        return f"numeric failure: {exc}"
    return None


@pytest.mark.parametrize("check", ["bh-classification", "ht-parallel"])
@pytest.mark.parametrize("name", sorted(INADMISSIBLE))
def test_batched_randers_checks_report_the_first_failing_radius(tmp_path, capsys, check, name):
    grid = {"r_min": 0.2, "r_max": 1.4, "r_count": 25, "s_count": 5}
    metric = dict(INADMISSIBLE[name], kind="randers", r_domain=[0.1, 1.5])
    cfg = write_cfg(tmp_path, "bad.json", {"n": 2, "c_const": 1.0, "volume": "bh",
                                          "metric": metric, "grid": grid})
    line = _first_loop_error(check, metric, np.linspace(0.2, 1.4, 25))
    assert "min(f, f + r^2 (g - h^2))" in line
    assert main(["verify", "--check", check, cfg]) == 3
    assert capsys.readouterr().err.strip() == line


def _report(tmp_path, capsys, check, cfg):
    out = tmp_path / f"{check}.json"
    main(["verify", "--check", check, cfg, "--out", str(out)])
    capsys.readouterr()
    return json.loads(out.read_text())


def test_every_check_reports_one_shape(tmp_path, capsys):
    bundled = HERE.parent / "configs"
    funk = json.loads((bundled / "funk_n2.json").read_text())
    funk["oracle"] = {"points": 2}
    cfgs = {"isotropy": FUNK_CFG, "douglas": FUNK_CFG,
            "berwald-family": str(bundled / "family_k.json"),
            "bh-classification": RANDERS_CFG, "ht-parallel": PARALLEL_CFG,
            "oracle": write_cfg(tmp_path, "funk_oracle.json", funk)}
    assert sorted(cfgs) == sorted(CHECKS)
    for check in CHECKS:
        rep = _report(tmp_path, capsys, check, cfgs[check])
        assert sorted(rep) == ["check", "config_echo", "per_radius", "residuals", "verdict"]
        assert sorted(rep["residuals"]) == ["argmax", "max", "mean"], check
        assert sorted(rep["residuals"]["argmax"]) == ["r", "s"], check
        rows = rep["per_radius"]
        assert rows and "r" in rows[0], check
        assert all(row.keys() == rows[0].keys() for row in rows), check


@pytest.mark.parametrize("key, value", [
    ("r_count", "x"), ("r_count", 2.7), ("r_count", 1e9), ("r_count", 10**9), ("r_count", True),
    ("r_count", 1), ("s_count", "x"), ("s_count", 7.5), ("s_count", 1e9), ("s_count", 4),
])
def test_grid_counts_must_be_integers_in_range(tmp_path, capsys, key, value):
    body = json.loads(json.dumps(IRREGULAR_BH))
    body["grid"][key] = value
    assert main(["sample", write_cfg(tmp_path, "counts.json", body)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"grid.{key}" in err


def test_grid_count_cap_is_accepted(tmp_path):
    from finslerlab.cli import GRID_COUNT_CAP, load_config

    body = json.loads(json.dumps(IRREGULAR_BH))
    body["grid"]["s_count"] = GRID_COUNT_CAP
    assert load_config(write_cfg(tmp_path, "cap.json", body)).grid["s_count"] == GRID_COUNT_CAP


@pytest.mark.parametrize("check, value", [
    ("isotropy", "abc"), ("isotropy", 0), ("isotropy", True),
    ("douglas", -1), ("douglas", float("inf")), ("douglas", [1e-8]),
])
def test_tolerances_must_be_positive_numbers(tmp_path, capsys, check, value):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["tolerances"] = {check: value}
    assert main(["verify", "--check", check, write_cfg(tmp_path, "tol.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"tolerances.{check}" in err


@pytest.mark.parametrize("points", [0, -3, "x", 2.5, True, 1001, None])
def test_oracle_points_must_be_an_integer_in_range(tmp_path, capsys, points):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["oracle"] = {"points": points}
    assert main(["verify", "--check", "oracle", write_cfg(tmp_path, "pts.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "oracle.points" in err


@pytest.mark.parametrize("c_const", [0, -1.0, float("inf"), "1", True])
def test_c_const_must_be_a_positive_finite_number(tmp_path, capsys, c_const):
    cfg = json.loads(Path(PARALLEL_CFG).read_text())
    cfg["c_const"] = c_const
    assert main(["verify", "--check", "ht-parallel", write_cfg(tmp_path, "c.json", cfg)]) == 2
    assert "'c_const' must be a positive finite number" in capsys.readouterr().err


ROOT_CONFIGS = HERE.parent / "configs"


@pytest.mark.parametrize("stem, section, key, value", [
    ("funk_n2", "metric", "phi", 3),
    ("funk_n2", "metric", "phi", None),
    ("funk_n2", "grid", "r_min", "abc"),
    ("funk_n2", "grid", "r_max", True),
    ("funk_n2", "grid", "r_max", float("nan")),
    ("funk_n2", "grid", "r_min", 0.01),
    ("funk_n2", "grid", "r_max", 0.99),
    ("funk_n2", "metric", "r_domain", ["a", 1.0]),
    ("family_k", "metric", "r0", "abc"),
])
def test_bad_config_value_is_config_error_naming_its_key(tmp_path, capsys, stem, section, key,
                                                         value):
    cfg = json.loads((ROOT_CONFIGS / f"{stem}.json").read_text())
    cfg[section][key] = value
    assert main(["verify", "--check", "isotropy", write_cfg(tmp_path, "bad.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{section}.{key}" in err, err


@pytest.mark.parametrize("key, value, named", [
    ("output", "report.json", "'output'"), ("output", {"path": 7}, "'output.path'"),
    ("seed", -3, "'seed'"), ("seed", True, "'seed'"), ("tolerances", [], "'tolerances'"),
    ("oracle", [], "'oracle'"), ("n", 10**400, "'n'"),
    ("volume", {"kind": "custom"}, "'volume.sigma'"),
])
def test_bad_shared_value_is_config_error_naming_its_key(tmp_path, capsys, key, value, named):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg[key] = value
    assert main(["verify", "--check", "douglas", write_cfg(tmp_path, "bad.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err


def test_unwritable_output_path_is_config_error(tmp_path, capsys):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["output"] = {"path": str(tmp_path / "no" / "such" / "dir.json")}
    assert main(["verify", "--check", "douglas", write_cfg(tmp_path, "out.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'output.path' must be a writable file path"), err


def test_grid_on_the_domain_ends_is_accepted(tmp_path):
    from finslerlab.cli import build_spec, load_config

    cfg = json.loads((ROOT_CONFIGS / "funk_n2.json").read_text())
    cfg["grid"]["r_min"], cfg["grid"]["r_max"] = cfg["metric"]["r_domain"]
    assert build_spec(load_config(write_cfg(tmp_path, "ends.json", cfg))).r_domain == (0.05, 0.95)


def test_oracle_must_be_an_object(tmp_path, capsys):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["oracle"] = [3]
    assert main(["verify", "--check", "oracle", write_cfg(tmp_path, "pts.json", cfg)]) == 2
    assert "config error: 'oracle' must be an object" in capsys.readouterr().err


def test_oracle_points_range_ends_are_accepted(tmp_path, capsys):
    from finslerlab.cli import ORACLE_POINTS_CAP, load_config

    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["oracle"] = {"points": ORACLE_POINTS_CAP}
    assert load_config(write_cfg(tmp_path, "cap.json", cfg)).oracle["points"] == ORACLE_POINTS_CAP
    cfg["oracle"] = {"points": 1}
    out = tmp_path / "one.json"
    assert main(["verify", "--check", "oracle", write_cfg(tmp_path, "one_cfg.json", cfg),
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["per_radius"]) == 1
    capsys.readouterr()


# -- construct round trips ---------------------------------------------------


def test_construct_berwald_round_trip(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "fam.json",
        {"n": 2, "metric": {"kind": "berwald-family", "c2": "0.1", "chi": "1 + w/4",
                            "r0": 1.0, "r_domain": [0.85, 1.15]},
         "construct": {"c2": "0.1", "chi": "1 + w/4", "r0": 1.0,
                       "domain": [0.85, 1.15]}},
    )
    out = tmp_path / "built.json"
    assert main(["construct", "--family", "berwald", cfg, "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    assert "tables" not in built
    assert built["diagnostics"]["pde_max_residual"] <= 1e-8
    assert built["diagnostics"]["douglas_passed"] is True
    assert main(["verify", "--check", "berwald-family", str(out)]) == 0
    assert main(["verify", "--check", "douglas", str(out)]) == 0
    capsys.readouterr()


def test_verify_family_reports_fit_at_each_config_radius(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "fam11.json",
        {"n": 2, "metric": {"kind": "berwald-family", "c2": 0.1, "chi": "1 + w/4",
                            "r0": 1.0, "r_domain": [0.8, 1.2]},
         "volume": "bh",
         "grid": {"r_min": 0.85, "r_max": 1.15, "r_count": 11, "s_count": 13}},
    )
    out = tmp_path / "report.json"
    assert main(["verify", "--check", "berwald-family", cfg, "--out", str(out)]) == 0
    per_radius = json.loads(out.read_text())["per_radius"]
    assert len(per_radius) == 11
    for entry in per_radius:
        # Q = 1/(2 r^2) + c2 s^2 on every family member
        assert abs(entry["c1"] - 0.5 / entry["r"] ** 2) <= 1e-8, entry
        assert abs(entry["c2"] - 0.1) <= 1e-8, entry
    capsys.readouterr()


def test_construct_randers_bh_round_trip(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "bh.json",
        {"n": 3, "metric": {"kind": "randers", "f": "1", "g": "1", "h": "0.4",
                            "r_domain": [0.3, 0.9]},
         "construct": {"f": "1 + 0.3*r^2", "h": "0.4", "g_at_r0": 0.8,
                       "r_range": [0.3, 0.9], "steps": 400, "r0": 0.6}},
    )
    out = tmp_path / "built.json"
    assert main(["construct", "--family", "randers-bh", cfg, "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    assert built["diagnostics"]["max_node_residual"] <= 1e-8
    assert built["metric"]["g"]["table"]["r_nodes"][0] == pytest.approx(0.3)
    assert main(["verify", "--check", "isotropy", str(out)]) == 0
    capsys.readouterr()


def test_construct_randers_ht_round_trip(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "ht.json",
        {"n": 3, "metric": {"kind": "randers", "f": "1/r^2", "g": "0", "h": "0.5/r^2",
                            "r_domain": [1.0, 2.5]},
         "construct": {"c_const": 1.0, "g": "0", "h_at_r0": 0.5,
                       "r_range": [1.0, 2.5], "steps": 600}},
    )
    out = tmp_path / "built.json"
    assert main(["construct", "--family", "randers-ht", cfg, "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    assert built["volume"] == "ht"
    assert built["diagnostics"]["admissible"] is True
    assert main(["verify", "--check", "ht-parallel", str(out)]) == 0
    assert main(["verify", "--check", "isotropy", str(out)]) == 0
    capsys.readouterr()


C2_TABLE = {"table": {"r_nodes": [0.8, 1.2], "values": [0.1, 0.1], "derivs": [0.0, 0.0],
                      "second_derivs": [0.0, 0.0]}}


@pytest.mark.parametrize("family, key, value", [
    ("berwald", "domain", ["a", 1.2]), ("berwald", "r0", 2.0), ("berwald", "c2", C2_TABLE),
    ("berwald", "chi", 1), ("randers-bh", "steps", "x"), ("randers-bh", "steps", 4),
    ("randers-bh", "steps", SOLVER_STEPS_CAP + 1), ("randers-bh", "r0", 5.0),
    ("randers-bh", "g_at_r0", "abc"), ("randers-bh", "f", None),
    ("randers-ht", "r_range", [2.5, 1.0]), ("randers-ht", "c_const", -1),
])
def test_bad_construct_value_is_config_error_naming_its_key(tmp_path, capsys, family, key, value):
    body = dict(CONSTRUCT_INPUTS[family], **{key: value})
    cfg = {"n": 2, "metric": H05_METRIC, "construct": body}
    assert main(["construct", "--family", family, write_cfg(tmp_path, "bad.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'construct.{key}'" in err, err


@pytest.mark.parametrize("family", sorted(CONSTRUCT_INPUTS))
def test_construct_lacking_a_key_names_it(tmp_path, capsys, family):
    for key in CONSTRUCT_INPUTS[family]:
        if key in ("steps", "r0") and family != "berwald":
            continue  # optional
        body = {k: v for k, v in CONSTRUCT_INPUTS[family].items() if k != key}
        cfg = write_cfg(tmp_path, "lacks.json", {"n": 2, "metric": H05_METRIC, "construct": body})
        assert main(["construct", "--family", family, cfg]) == 2
        assert f"config error: 'construct.{key}' must be " in capsys.readouterr().err


# -- module entry point ------------------------------------------------------


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "finslerlab", "verify", "--check", "isotropy", FUNK_CFG],
        capture_output=True,
        text=True,
        cwd=str(HERE.parent),
    )
    assert proc.returncode == 0, proc.stderr
    assert "isotropy: PASS" in proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_a_flag_does_not_persist_into_the_next_main_call(monkeypatch):
    # the parser is built once per process; each call parses afresh
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda cfg, args: seen.append(args.seed) or 0)
    assert main(["verify", "--check", "isotropy", FUNK_CFG, "--seed", "5"]) == 0
    assert main(["verify", "--check", "isotropy", FUNK_CFG]) == 0
    assert seen == [5, None]
    with pytest.raises(SystemExit) as exc:
        main(["verify", FUNK_CFG])  # --check is required
    assert exc.value.code == 2
    assert main(["verify", "--check", "isotropy", FUNK_CFG, "--seed", "7"]) == 0
    assert seen == [5, None, 7]
