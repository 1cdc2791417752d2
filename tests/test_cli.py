"""End-to-end command line runs: verdict lines, report JSON, exit codes,
byte-stable CSV sampling against committed goldens, construct round trips."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import CONSTRUCT_INPUTS, OVERFLOWING_TABLE, dispatched_simd_targets
from finslerlab import cli, expr, families, geometry, scurvature, volume
from finslerlab.cli import CHECKS, CSV_HEADER, SOLVER_STEPS_CAP, main
from finslerlab.errors import DomainError
from finslerlab.expr import ScalarFunction
from finslerlab.families import bh_classification_residuals
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


@pytest.mark.parametrize("stem", ["golden_funk", "golden_randers", "golden_parallel"])
@pytest.mark.parametrize("report, argv", [("analyze", ["analyze"]),
                                          ("isotropy", ["verify", "--check", "isotropy"]),
                                          ("douglas", ["verify", "--check", "douglas"])])
def test_report_matches_golden(tmp_path, stem, report, argv):
    out = tmp_path / f"{stem}.{report}.json"
    assert main([*argv, str(CONFIGS / f"{stem}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDENS / f"{stem}.{report}.json").read_bytes()


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


BUNDLED = sorted((HERE.parent / "configs").glob("*.json"))


def _with_oracle_points(tmp_path, path: Path, points: int) -> str:
    data = json.loads(path.read_text())
    data["oracle"] = {"points": points}
    return write_cfg(tmp_path, path.name, data)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_oracle_band_passes_and_catches_an_f_slip(tmp_path, monkeypatch, capsys, path):
    # the oracle never reads f(r); a 1e-9 slip in it moves the gap to 2.4e-10 or
    # more within the first 20 points of each config's seed
    assert main(["verify", "--check", "oracle", _with_oracle_points(tmp_path, path, 60)]) == 0
    real = scurvature.f_coefficient
    monkeypatch.setattr(scurvature, "f_coefficient",
                        lambda *a, **k: real(*a, **k) * (1.0 + 1e-9) + 1e-9)
    assert main(["verify", "--check", "oracle", _with_oracle_points(tmp_path, path, 20)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_oracle_band_catches_a_spray_slip_both_sides_share(monkeypatch, capsys, path):
    # the geodesics are integrated with the slipped spray too, yet the gap reaches 8e-7
    real = geometry.spray_values

    def slipped(*a, **k):
        sv = real(*a, **k)
        return replace(sv, P=sv.P * (1.0 + 1e-6))

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finslerlab" and getattr(module, "spray_values", None) is real:
            monkeypatch.setattr(module, "spray_values", slipped)
    assert main(["verify", "--check", "oracle", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_analyze_reports_the_cholesky_spot_check(capsys, path):
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["regularity"]["cholesky_ok"] is True


def _grid_jet_orders(monkeypatch, argv: list, path: Path) -> list:
    """The (order, r-order) of each profile jet main(argv) evaluates on the config's whole
    (r, s) grid."""
    r, fracs = cli._grids(cli.load_config(str(path)))
    grid_s = r[:, None] * fracs
    raw, orders = geometry._phi_jet_raw, []

    def counted(spec, r, s, order=3, r_order=3):
        if np.shape(s) == grid_s.shape and np.array_equal(s, grid_s):
            orders.append((order, r_order))
        return raw(spec, r, s, order, r_order)

    monkeypatch.setattr(geometry, "_phi_jet_raw", counted)
    assert main(argv) == 0
    return orders


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
@pytest.mark.parametrize("command, orders", [
    (["sample"], [(3, 1)]),
    (["analyze"], [(3, 1)]),
    (["verify", "--check", "isotropy"], [(3, 1)]),
    (["verify", "--check", "douglas"], [(2, 1)]),
])
def test_one_profile_jet_per_grid_batch(monkeypatch, capsys, path, command, orders):
    # the spray, determinant and S-curvature columns all read the batch's one jet,
    # and none of them reads phi_rr, phi_rrr or phi_rrs
    argv = [command[0], str(path), *command[1:]]
    assert _grid_jet_orders(monkeypatch, argv, path) == orders
    capsys.readouterr()


def test_one_profile_jet_for_the_family_check(monkeypatch, capsys):
    # the Douglas fit and the transport-PDE residual read the batch's one jet
    path = HERE.parent / "configs" / "family_k.json"
    argv = ["verify", str(path), "--check", "berwald-family"]
    assert _grid_jet_orders(monkeypatch, argv, path) == [(2, 1)]
    capsys.readouterr()


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_sample_evaluates_two_node_jet_entries(capsys, path):
    # sigma reads the node jets of sigma' at the grid radii; the cross-check's
    # densities at r -+ h are the other entry
    volume._node_jets.cache_clear()
    assert main(["sample", str(path)]) == 0
    assert volume._node_jets.cache_info().misses == 2
    capsys.readouterr()


#: phi of r alone: phi_s and phi_ss are structural zeros, so the s-derivative jets
#: of the node jets have a float value and dropped slots
RADIAL_ONLY = {"n": 3, "metric": {"kind": "general", "phi": "1 + r^2", "r_domain": [0.1, 1.5]},
               "grid": {"r_min": 0.3, "r_max": 1.2, "r_count": 7, "s_count": 9}}


@pytest.mark.parametrize("vol, csv_sha256", [
    ("ht", "6216ea10aec3c5536789f040e96cb46d31faa3d143721b424284c085f1fd1eb0"),
    ("bh", "56ae0958d47ffe9ded5e72fb10d55a7c0e73b97b8de229245b21324abd848463"),
])
def test_a_profile_of_r_alone_runs_every_grid_command(tmp_path, capsys, vol, csv_sha256):
    # csv_sha256 is the hash of the CSV before grid jets dropped phi_rr and the
    # f(r) integrands were cut to first order
    cfg = write_cfg(tmp_path, f"radial_{vol}.json", dict(RADIAL_ONLY, volume=vol))
    assert main(["verify", "--check", "isotropy", cfg]) == 0
    assert main(["verify", "--check", "douglas", cfg]) == 0
    out = tmp_path / "radial.csv"
    assert main(["sample", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
    capsys.readouterr()


#: "%.17g" edge cases: signed zeros, subnormals, the extremes, infinities and NaN
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
          1.7976931348623157e308, math.inf, -math.inf, math.nan]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_csv_rows_equal_a_join_of_every_field(r_count, s_count, data):
    floats = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True))
    names = CSV_HEADER.split(",")

    def column(shape):
        return np.array(data.draw(st.lists(floats, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))))).reshape(shape)

    cols = {k: np.broadcast_to(column((r_count, 1)), (r_count, s_count))
            if k in ("r", "sigma", "f_r") else column((r_count, s_count)) for k in names}
    rows = zip(*(cols[k].ravel().tolist() for k in names))
    assert cli._csv_rows(cols) == [",".join("%.17g" % v for v in row) for row in rows]


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


@pytest.mark.parametrize("argv", [
    ["sample", FUNK_CFG, "--tol", "5"],
    ["analyze", FUNK_CFG, "--seed", "3"],
    ["construct", "--family", "berwald", FUNK_CFG, "--seed", "3"],
])
def test_tol_and_seed_are_verify_options(capsys, argv):
    # no other command reads them, so elsewhere they are unknown, not ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


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


def test_any_other_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(cfg, spec, r_values, fracs, tol, seed):
        raise KeyError("no such column")

    monkeypatch.setitem(cli._VERIFIERS, "isotropy", cli._VERIFIERS["isotropy"]._replace(
        verify=broken))
    assert main(["verify", "--check", "isotropy", FUNK_CFG]) == 5
    err = capsys.readouterr().err
    assert "internal error: KeyError: 'no such column'" in err
    assert "Traceback (most recent call last)" in err and "in broken" in err


def test_missing_file_is_config_error(capsys):
    assert main(["analyze", "/no/such/config.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["analyze", str(p)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("body", [
    b'{"n": 2, "seed": "\xff"}',
    b'{"n": ' + b"1" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf8", "huge-int", "deep-nesting"])
def test_undecodable_config_is_config_error(tmp_path, capsys, body):
    p = tmp_path / "undecodable.json"
    p.write_bytes(body)
    assert main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


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


def _verify_douglas_with_c2(tmp_path, c2, r_domain=None, grid=None,
                            command=("verify", "--check", "douglas")):
    """verify --check douglas (or another command) on configs/family_k.json with
    c2 (and optionally metric.r_domain and grid keys) replaced, warnings fatal."""
    cfg = json.loads((HERE.parent / "configs" / "family_k.json").read_text())
    cfg["metric"]["c2"] = c2
    if r_domain is not None:
        cfg["metric"]["r_domain"] = r_domain
    cfg["grid"].update(grid or {})
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "finslerlab", command[0],
         write_cfg(tmp_path, "huge_c2.json", cfg), *command[1:]],
        capture_output=True,
        text=True,
        cwd=str(HERE.parent),
    )


def test_overflowing_family_integrand_prints_only_the_numeric_failure(tmp_path):
    # c2 = 1e18 overflows g = e^{I1} below r0; numpy stays silent
    proc = _verify_douglas_with_c2(tmp_path, 10**18)
    assert proc.returncode == 3
    assert proc.stdout == ""
    got = re.fullmatch(r"numeric failure: family g = exp\(I1\) is not finite at r=(\S+)\n",
                       proc.stderr)
    assert got, proc.stderr
    assert 0.8 <= float(got.group(1)) < 1.0


def test_overflowing_family_integrand_above_r0_names_the_outer_end(tmp_path):
    # c2 = -1e18 overflows g above r0, first at the domain's outer end
    proc = _verify_douglas_with_c2(tmp_path, -10**18)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "numeric failure: family g = exp(I1) is not finite at r=1.2\n"


def test_tiny_family_radicand_prints_only_the_numeric_failure(tmp_path):
    # c2 = 2000 on [1.0, 1.2] leaves g = e^{I1} near 1e-187 on the grid, finite and
    # positive, but the Taylor data of its powers overflow; the first grid radius is
    # named, also where the density's node jets drop their higher r-partials
    for command in (("verify", "--check", "douglas"), ("verify", "--check", "isotropy"),
                    ("sample",), ("analyze",)):
        proc = _verify_douglas_with_c2(tmp_path, 2000, r_domain=[1.0, 1.2],
                                       grid={"r_min": 1.05, "r_max": 1.15}, command=command)
        assert proc.returncode == 3, command
        assert proc.stdout == ""
        assert re.fullmatch(r"numeric failure: family radical g \+ J\*s\^2 is too small: its "
                            r"derivatives overflow at r=1\.05 \(g = \S+e-18\d\)\n",
                            proc.stderr), (command, proc.stderr)


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default", "warnings-fatal"])
def test_a_table_whose_interpolant_overflows_is_a_config_error_naming_its_key(tmp_path,
                                                                               warnings):
    cfg = json.loads((HERE.parent / "configs" / "funk_randers_n3.json").read_text())
    cfg["metric"]["g"] = OVERFLOWING_TABLE
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "finslerlab", "verify",
         write_cfg(tmp_path, "overflowing_table.json", cfg), "--check", "isotropy"],
        capture_output=True, text=True, cwd=str(HERE.parent),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: 'metric.g' must be ")
    assert proc.stderr.endswith("(table: the interpolant's coefficients overflow: "
                                "nodal data too large)\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default", "warnings-fatal"])
def test_a_family_g_that_overflows_at_a_radius_is_one_numeric_failure(tmp_path, warnings):
    # with c2 = -0.1, I1 = 2 ln r + 0.1 (r^4 - 1) passes exp's range near r = 9.2, so
    # over [0.8, 1e18] the table's first node past it, the decade edge 10, overflows
    cfg = json.loads((HERE.parent / "configs" / "family_k.json").read_text())
    cfg["metric"].update(c2=-0.1, r_domain=[0.8, 1e18])
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "finslerlab", "verify",
         write_cfg(tmp_path, "wide_family.json", cfg), "--check", "douglas"],
        capture_output=True, text=True, cwd=str(HERE.parent),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "numeric failure: family g = exp(I1) is not finite at r=10.0\n"


#: Randers data whose numbers overflow: f + g s^2 and 2 f are past the largest double
_OVERFLOWING_RANDERS = {
    "n": 2,
    "metric": {"kind": "randers", "f": "1e308", "g": "1e308", "h": "0", "r_domain": [0.5, 2.0]},
    "grid": {"r_min": 0.6, "r_max": 1.8, "r_count": 5, "s_count": 5},
}
_SEVEN_COMMANDS = [*(("verify", "--check", check) for check in
                     ("isotropy", "douglas", "bh-classification", "ht-parallel", "oracle")),
                   ("sample",), ("analyze",)]
_WARNING_MODES = pytest.mark.parametrize("mode", ["default", "error"],
                                         ids=["default", "warnings-fatal"])


def _one_numeric_failure(tmp_path, capsys, mode, cfg, command) -> str:
    """The one stderr line of main(command + [cfg]), which exits 3 and warns of nothing,
    with numpy's RuntimeWarnings shown (default) or raised (error)."""
    with warnings.catch_warnings(record=mode == "default") as shown:
        warnings.simplefilter(mode, RuntimeWarning)
        code = main([*command, cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert (code, shown or []) == (3, []), (command, err)
    assert err.count("\n") == 1 and err.startswith("numeric failure: "), (command, err)
    assert not (tmp_path / "out").exists()
    return err


@_WARNING_MODES
@pytest.mark.parametrize("vol", ["constant", "bh"])
def test_overflowing_randers_data_is_one_numeric_failure_naming_it(tmp_path, capsys, mode, vol):
    cfg = write_cfg(tmp_path, "huge_randers.json", {**_OVERFLOWING_RANDERS, "volume": vol})
    for command in _SEVEN_COMMANDS:
        err = _one_numeric_failure(tmp_path, capsys, mode, cfg, command)
        assert re.fullmatch(r"numeric failure: (Randers profile sqrt\(f \+ g\*s\^2\) \+ h\*s "
                            r"is not finite at r=\S+, s=\S+|Randers data f, g, h give a "
                            r"coefficient .* that is not finite at r = 0\.6)\n", err), err


@_WARNING_MODES
def test_grid_columns_that_overflow_are_one_numeric_failure_naming_the_column(tmp_path, capsys,
                                                                               mode):
    # phi of the Funk metric times 1e4 in dimension 100: det g = phi^101 ... overflows
    cfg = json.loads((HERE.parent / "configs" / "funk_n2.json").read_text())
    cfg.update(n=100, volume="constant")
    cfg["metric"]["phi"] = f"1e4*({cfg['metric']['phi']})"
    cfg = write_cfg(tmp_path, "huge_funk.json", cfg)
    for command in (("sample",), ("analyze",)):
        err = _one_numeric_failure(tmp_path, capsys, mode, cfg, command)
        assert err == "numeric failure: grid column detg is not finite at r=0.2, s=-0.1999998\n"


_HUGE_G_PRIME_LINE = ("regularity failure: regularity condition 3 (phi - s*phi_s + (r^2-s^2)*phi_ss "
                      "> 0) fails at r=1.01875, s=-0.6791659875 (margin -2.220446049250313e-16)\n")


def test_a_huge_family_g_derivative_is_one_regularity_line(tmp_path, capsys):
    # c2 = -935 on [0.95, 1.15] makes g's r-derivatives overflow J s^2's Taylor
    # terms; numpy stays silent, in process (warnings are errors under the
    # suite's filter) and in a child with warnings fatal
    proc = _verify_douglas_with_c2(tmp_path, -935, r_domain=[0.95, 1.15], grid={"r_min": 1.0})
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", _HUGE_G_PRIME_LINE)
    cfg = json.loads((HERE.parent / "configs" / "family_k.json").read_text())
    cfg["metric"].update(c2=-935, r_domain=[0.95, 1.15])
    cfg["grid"]["r_min"] = 1.0
    assert main(["verify", "--check", "douglas", write_cfg(tmp_path, "huge_g.json", cfg)]) == 4
    assert capsys.readouterr().err == _HUGE_G_PRIME_LINE


@pytest.mark.parametrize("check, k", [("douglas", 900), ("oracle", 2000)])
def test_an_overflowing_profile_expression_is_one_numeric_failure(tmp_path, capsys, check, k):
    # the program overflows in exp, on the grid's arrays (douglas) or on the oracle's
    # scalar jets: its step's check names it, numpy is silent
    cfg = json.loads((HERE.parent / "configs" / "funk_n2.json").read_text())
    cfg["metric"]["phi"] += f" + exp({k}*r)"
    assert main(["verify", "--check", check, write_cfg(tmp_path, "exp.json", cfg)]) == 3
    assert capsys.readouterr().err == f"numeric failure: non-finite result in 'exp({k} * r)'\n"


def _out_of_range_density_cfg(tmp_path, vol: str) -> str:
    """n = 100 configs whose density leaves double range: under BH, funk_n2 scaled by
    1e4 (the integral of phi^-n underflows to 0); under HT, parallel_ht with f = 1e8/r^2
    (the integrand overflows)."""
    if vol == "BH":
        cfg = json.loads((HERE.parent / "configs" / "funk_n2.json").read_text())
        cfg["metric"]["phi"] = f"1e4*({cfg['metric']['phi']})"
    else:
        cfg = json.loads((HERE.parent / "configs" / "parallel_ht.json").read_text())
        cfg["metric"]["f"] = "1e8/r^2"
    cfg["n"] = 100
    return write_cfg(tmp_path, f"{vol}_n100.json", cfg)


@pytest.mark.parametrize("vol", ["BH", "HT"])
@pytest.mark.parametrize("argv", [["verify", "--check", "isotropy"], ["verify", "--check", "oracle"],
                                  ["sample"], ["analyze"]], ids=lambda a: a[-1])
def test_a_density_out_of_double_range_is_one_numeric_failure(tmp_path, capsys, argv, vol):
    # the grid commands name the density's first radius; the oracle meets det g = inf
    # at its first point before it asks for the density there
    assert main([*argv, _out_of_range_density_cfg(tmp_path, vol)]) == 3
    err = capsys.readouterr().err
    want = (r"det g = inf not finite at r=\S+, s=\S+" if argv[-1] == "oracle" else
            rf"{vol} density at r={'0.2' if vol == 'BH' else '0.8'} "
            r"is not a positive finite double \(n = 100\)")
    assert re.fullmatch(rf"numeric failure: {want}\n", err), err


def test_an_infinite_oracle_determinant_is_a_numeric_failure_not_a_fail(tmp_path, capsys):
    # the constant volume needs no quadrature, so the oracle reaches det g = inf
    cfg = json.loads((HERE.parent / "configs" / "funk_n2.json").read_text())
    cfg.update(n=100, volume="constant")
    cfg["metric"]["phi"] = f"1e4*({cfg['metric']['phi']})"
    assert main(["verify", "--check", "oracle", write_cfg(tmp_path, "inf_det.json", cfg)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"numeric failure: det g = inf not finite at r=\S+, s=\S+\n", out.err), out.err


@pytest.mark.parametrize("hi", [1e4, 1e6, 1e18])
@pytest.mark.parametrize("argv", [["sample"], ["verify", "--check", "isotropy"],
                                  ["verify", "--check", "douglas"]])
def test_a_family_domain_over_many_decades_computes(tmp_path, capsys, argv, hi):
    cfg = json.loads((HERE.parent / "configs" / "family_k.json").read_text())
    cfg["metric"]["r_domain"] = [0.8, hi]
    assert main([*argv, write_cfg(tmp_path, "wide.json", cfg)]) == 0
    capsys.readouterr()


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
    (["sample"], 3, "numeric failure: refinement did not settle by 1024 nodes: successive "
     "values must differ by at most 1e-10 * max(1, min(|cur|, |prev|))"),
    (["verify", "--check", "isotropy"], 3,
     "numeric failure: refinement did not settle by 1024 nodes: successive values must "
     "differ by at most 1e-10 * max(1, min(|cur|, |prev|))"),
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


#: the bundled profiles whose S-curvature is not isotropic under HT
NOT_HT_ISOTROPIC = ("funk_n2", "funk_randers_n3")


def test_isotropy_reaches_a_verdict_on_every_bundled_profile_volume_and_n_up_to_100(
        tmp_path, capsys):
    # the densities grow like phi^n (funk_n2's HT sigma is 7.5e6 at r = 0.8, n = 30),
    # and refinement settles each of them to a tolerance scaled by its size
    codes = {}
    for path in sorted((HERE.parent / "configs").glob("*.json")):
        for vol in ("bh", "ht"):
            for n in (2, 30, 100):
                cfg = write_cfg(tmp_path, "sweep.json",
                                dict(json.loads(path.read_text()), n=n, volume=vol))
                codes[path.stem, vol, n] = main(
                    ["verify", "--check", "isotropy", cfg, "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert len(codes) == 24
    assert codes == {key: int(key[0] in NOT_HT_ISOTROPIC and key[1] == "ht") for key in codes}


EDGE_OF_DOMAIN = {"n": 3, "volume": "bh",
                  "metric": dict(H05_METRIC, r_domain=[0.2, 0.8]),
                  "grid": {"r_min": 0.2, "r_max": 0.7, "r_count": 5, "s_count": 5}}


@pytest.mark.parametrize("argv", [["verify", "--check", "isotropy"], ["sample"], ["analyze"]],
                         ids=["isotropy", "sample", "analyze"])
def test_grid_on_the_domain_end_names_r_domain(tmp_path, capsys, argv):
    # grid.r_min = metric.r_domain[0] passes validation, but leaves the f(r)
    # cross-check no room for its central difference
    cfg = write_cfg(tmp_path, "edge.json", EDGE_OF_DOMAIN)
    assert main(argv + [cfg]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numeric failure: ") and "r_domain [0.2, 0.8]" in line, line
    assert main(["verify", "--check", "douglas", cfg]) == 0
    capsys.readouterr()


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
    except DomainError as exc:
        return f"numeric failure: {exc}"
    return None


@pytest.mark.parametrize("check", ["bh-classification", "ht-parallel"])
@pytest.mark.parametrize("name", sorted(INADMISSIBLE))
def test_batched_randers_checks_report_the_first_failing_radius(tmp_path, capsys, check, name):
    grid = {"r_min": 0.2, "r_max": 1.4, "r_count": 25, "s_count": 5}
    metric = dict(INADMISSIBLE[name], kind="randers", r_domain=[0.1, 1.5])
    cfg = write_cfg(tmp_path, "bad.json", {"n": 2, "volume": "bh", "metric": metric,
                                          "grid": grid})
    line = _first_loop_error(check, metric, np.linspace(0.2, 1.4, 25))
    assert "min(f, f + r^2 (g - h^2))" in line
    assert main(["verify", "--check", check, cfg]) == 3
    assert capsys.readouterr().err.strip() == line


def test_ht_parallel_reads_c_off_f_and_fails_where_u1_leaves_the_band(tmp_path, capsys):
    # Funk's f = 1/(1 - r^2): u1 = h (r^2 f)'/(2 r q) is nonzero at every radius
    out = tmp_path / "fr3.json"
    assert main(["verify", "--check", "ht-parallel", str(HERE.parent / "configs" /
                                                         "funk_randers_n3.json"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith("\nht-parallel: FAIL (max residual 7.364e+01)\n")
    assert all(abs(row["u1"]) > 1.0 for row in json.loads(out.read_text())["per_radius"])
    # f = 1 is not c/r^2: with beta = 0 every residual is 0, whatever c, and an h
    # of 1e-12 keeps every residual inside the 1e-8 band
    grid = {"r_min": 0.2, "r_max": 1.1, "r_count": 7, "s_count": 5}
    for h, worst in [(0, "0.000e+00"), (1e-12, "2.563e-10")]:
        metric = {"kind": "randers", "f": 1, "g": 1, "h": h, "r_domain": [0.1, 1.2]}
        cfg = write_cfg(tmp_path, "f1.json", {"n": 2, "metric": metric, "grid": grid})
        assert main(["verify", "--check", "ht-parallel", cfg]) == 0
        assert capsys.readouterr().err == f"ht-parallel: PASS (max residual {worst})\n"


def test_ht_parallel_takes_the_jets_of_g_and_h_once(tmp_path, capsys, monkeypatch):
    # one randers_coefficients call per batch reads g and h for u1, u2 and the HT residual
    metric = {"kind": "randers", "f": "1/r^2", "g": "0", "h": "0.5/r^2", "r_domain": [0.5, 3.0]}
    cfg = write_cfg(tmp_path, "ht.json", {"n": 3, "volume": "ht", "metric": metric,
                                         "grid": {"r_min": 0.8, "r_max": 2.5, "r_count": 9}})
    # every evaluation of expression trees, alone or as one program, takes their program
    real, taken = expr._program, []

    def counted(trees):
        taken.extend(map(str, trees))
        return real(trees)

    monkeypatch.setattr(expr, "_program", counted)
    assert main(["verify", "--check", "ht-parallel", cfg]) == 0
    g, h = (str(ScalarFunction.from_text(metric[k])) for k in ("g", "h"))
    assert taken.count(g) == taken.count(h) == 1, taken
    capsys.readouterr()


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


def _check_config(tmp_path, check: str, **keys) -> str:
    """The config of test_every_check_reports_one_shape for a check, with keys set; ht-parallel
    takes the bundled parallel_ht grid, where its residual is not exactly 0."""
    bundled = HERE.parent / "configs"
    path = {"isotropy": FUNK_CFG, "douglas": FUNK_CFG,
            "berwald-family": bundled / "family_k.json", "bh-classification": RANDERS_CFG,
            "ht-parallel": bundled / "parallel_ht.json", "oracle": bundled / "funk_n2.json"}[check]
    data = json.loads(Path(path).read_text())
    if check == "oracle":
        data["oracle"] = {"points": 2}
    return write_cfg(tmp_path, f"{check}.json", dict(data, **keys))


@pytest.mark.parametrize("check", CHECKS)
def test_a_tol_below_a_passing_residual_fails_every_check(tmp_path, capsys, check):
    rep = _report(tmp_path, capsys, check, _check_config(tmp_path, check))
    assert rep["verdict"] == "pass" and rep["residuals"]["max"] > 0.0, check
    tol = rep["residuals"]["max"] / 2
    if check == "oracle":  # its band is tol * (1 + |S|)
        tol /= 1.0 + max(abs(row["analytic"]) for row in rep["per_radius"])
    assert main(["verify", "--check", check, _check_config(tmp_path, check),
                 "--tol", repr(tol)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("check", sorted(cli.SCHEMA["tolerances"]))
def test_tolerances_key_sets_the_tolerance_and_tol_beats_it(tmp_path, capsys, check):
    rep = _report(tmp_path, capsys, check, _check_config(tmp_path, check))
    cfg = _check_config(tmp_path, check, tolerances={check: rep["residuals"]["max"] / 2})
    assert main(["verify", "--check", check, cfg]) == 1
    assert main(["verify", "--check", check, cfg, "--tol", "10"]) == 0
    capsys.readouterr()


def test_the_oracle_seed_flag_beats_the_config_seed(tmp_path, capsys):
    def points(**keys):
        argv = ["--seed", str(keys.pop("flag"))] if "flag" in keys else []
        path = tmp_path / "oracle.json"
        assert main(["verify", "--check", "oracle", _check_config(tmp_path, "oracle", **keys),
                     "--out", str(path)] + argv) == 0
        capsys.readouterr()
        return [(row["r"], row["s"]) for row in json.loads(path.read_text())["per_radius"]]

    assert points(seed=3, flag=11) == points(seed=11) != points(seed=3)
    assert points(flag=3) == points(seed=3)


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


@pytest.mark.parametrize("name", ["oracle", "orcale"])
@pytest.mark.parametrize("argv", [["analyze"], ["sample"], ["verify", "--check", "oracle"]])
def test_a_tolerance_no_check_reads_is_a_config_error(tmp_path, capsys, argv, name):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["tolerances"] = {"douglas": 1e-6, name: 1e-9}
    assert main([*argv, write_cfg(tmp_path, "tol.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: 'tolerances.{name}' must be one of isotropy | "
                            f"douglas, got '{name}'\n")


def test_each_metric_kind_has_its_section_and_its_spec(tmp_path, capsys):
    assert tuple(cli._SPECS) == ("general", "randers", "berwald-family")
    assert all(f"metric[{kind}]" in cli.SCHEMA for kind in cli._SPECS)
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["metric"]["kind"] = "finsler"
    assert main(["analyze", write_cfg(tmp_path, "kind.json", cfg)]) == 2
    assert capsys.readouterr().err == ("config error: 'metric.kind' must be one of general | "
                                       "randers | berwald-family, got 'finsler'\n")


@pytest.mark.parametrize("points", [0, -3, "x", 2.5, True, 1001, None])
def test_oracle_points_must_be_an_integer_in_range(tmp_path, capsys, points):
    cfg = json.loads(Path(FUNK_CFG).read_text())
    cfg["oracle"] = {"points": points}
    assert main(["verify", "--check", "oracle", write_cfg(tmp_path, "pts.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "oracle.points" in err


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
    assert built["diagnostics"]["cholesky_ok"] is True
    assert main(["verify", "--check", "berwald-family", str(out)]) == 0
    assert main(["verify", "--check", "douglas", str(out)]) == 0
    capsys.readouterr()


def test_verify_family_builds_no_family(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("the check certifies the configured member itself")

    monkeypatch.setattr(families, "build_berwald_family", refused)
    monkeypatch.setattr(cli, "build_berwald_family", refused)
    assert main(["verify", str(HERE.parent / "configs" / "family_k.json"),
                 "--check", "berwald-family"]) == 0
    capsys.readouterr()


FAMILY_CFG = {"n": 2, "metric": {"kind": "berwald-family", "c2": 0.1, "chi": "1 + w/4",
                                 "r0": 1.0, "r_domain": [0.8, 1.2]},
              "volume": "bh", "grid": {"r_min": 0.85, "r_max": 1.15, "r_count": 9, "s_count": 13}}


def test_verify_family_irregular_chi_is_regularity_error(tmp_path, capsys):
    # chi = w - 0.5 is negative at s = 0: the scan over metric.r_domain rejects it
    metric = dict(FAMILY_CFG["metric"], c2=0, chi="w - 0.5")
    cfg = write_cfg(tmp_path, "irregular_family.json", dict(FAMILY_CFG, metric=metric))
    assert main(["verify", "--check", "berwald-family", cfg]) == 4
    assert capsys.readouterr().err.startswith("regularity failure: family instance is not")


def test_verify_family_pde_miss_is_a_failed_verdict(tmp_path, capsys):
    # c2 = 30 leaves a roundoff residual above 1e-8 near the domain ends
    metric = dict(FAMILY_CFG["metric"], c2=30)
    grid = dict(FAMILY_CFG["grid"], r_min=0.8, r_max=1.2, s_count=21)
    cfg = write_cfg(tmp_path, "stiff_family.json", dict(FAMILY_CFG, metric=metric, grid=grid))
    out = tmp_path / "report.json"
    assert main(["verify", "--check", "berwald-family", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    assert report["residuals"]["max"] > 1e-8
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
    assert built["metric"]["f"] == "1/r^2" and "c_const" not in built  # f carries c
    assert main(["verify", "--check", "ht-parallel", str(out)]) == 0
    assert main(["verify", "--check", "isotropy", str(out)]) == 0
    # a config emitted with a top-level c_const still loads: that key is ignored
    old = write_cfg(tmp_path, "old.json", dict(built, c_const=2.0))
    assert main(["verify", "--check", "ht-parallel", old]) == 0
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


CUSTOM_SIGMA = "1/(1 + r^2)^2 + 0.1*exp(r)"


@pytest.mark.parametrize("volume_cfg", ["bh", "ht", "constant",
                                        {"kind": "custom", "sigma": CUSTOM_SIGMA}],
                         ids=["bh", "ht", "constant", "custom"])
@pytest.mark.parametrize("stem", ["funk_n2", "family_k"])
def test_sample_sigma_and_f_r_are_density_and_f_coefficient(tmp_path, stem, volume_cfg):
    from finslerlab.cli import build_spec, load_config

    cfg = json.loads((ROOT_CONFIGS / f"{stem}.json").read_text())
    cfg["volume"] = volume_cfg
    path, out = write_cfg(tmp_path, "vol.json", cfg), tmp_path / "out.csv"
    assert main(["sample", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    by_radius = rows.reshape(cfg["grid"]["r_count"], cfg["grid"]["s_count"], len(names))[:, 0]
    radii, sigma, f_r = (by_radius[:, names.index(k)] for k in ("r", "sigma", "f_r"))
    run = load_config(path)
    spec = build_spec(run)
    volume._density_and_f.cache_clear()  # f(r) settled afresh, not the pair sample kept
    assert sigma.tobytes() == np.asarray(volume.density(run.volume, spec, radii)).tobytes()
    assert f_r.tobytes() == np.asarray(volume.f_coefficient(run.volume, spec, radii)).tobytes()


def _solved_randers_bh(tmp_path) -> str:
    """A config whose g is the randers-bh solver's table, as construct writes it."""
    cfg = write_cfg(tmp_path, "bh.json", {
        "n": 3, "metric": {"kind": "randers", "f": "1", "g": "1", "h": "0.4",
                           "r_domain": [0.3, 0.9]},
        "construct": CONSTRUCT_INPUTS["randers-bh"]})
    out = tmp_path / "built.json"
    assert main(["construct", "--family", "randers-bh", cfg, "--out", str(out)]) == 0
    return str(out)


@pytest.mark.parametrize("name", [p.stem for p in BUNDLED] + ["solved"])
def test_sample_after_isotropy_writes_the_bytes_of_a_cold_sample(tmp_path, capsys, name):
    # sample reads the (sigma, f) pair isotropy kept, also where g is a table: the
    # two commands build their specs apart, from equal tables
    path = _solved_randers_bh(tmp_path) if name == "solved" else str(ROOT_CONFIGS / f"{name}.json")
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    volume._density_and_f.cache_clear()
    assert main(["sample", path, "--out", str(cold)]) == 0
    volume._density_and_f.cache_clear()
    assert main(["verify", "--check", "isotropy", path]) == 0
    kept = volume._density_and_f.cache_info()
    assert main(["sample", path, "--out", str(warm)]) == 0
    after = volume._density_and_f.cache_info()
    assert (after.hits, after.misses) == (kept.hits + 1, kept.misses)
    assert warm.read_bytes() == cold.read_bytes()
    capsys.readouterr()


# -- report encoding and table configs ------------------------------------------

_JSON_SCALARS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(), st.booleans(), st.none(),
    st.text(max_size=6), st.sampled_from(["\u00e9t\u00e9", "\u2202\u03c6", "},\n  {", "\U0001d4ae"]))
_JSON_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["per_radius", "grid", "\u00e9", "}"]))
_FLAT_RECORDS = st.lists(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, min_size=1, max_size=4),
                         min_size=1, max_size=4)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_SCALARS, _FLAT_RECORDS),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(_JSON_KEYS, kids, max_size=4)),
    max_leaves=24)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_reports_are_the_bytes_of_json_dumps(value):
    assert cli._report_json(value) == json.dumps(value, indent=2, sort_keys=True)


def _table_config(tmp_path, entry) -> str:
    nodes = np.linspace(0.3, 0.9, 5).tolist()
    values = [1.0, entry, 1.0, 1.0, 1.0]
    table = {"r_nodes": nodes, "values": values, "derivs": [0.0] * 5,
             "second_derivs": [0.0] * 5}
    return write_cfg(tmp_path, "table.json", {
        "n": 2, "metric": {"kind": "randers", "f": "1", "g": {"table": table}, "h": "0.4",
                           "r_domain": [0.3, 0.9]}})


def _spec_or_error(path: str):
    try:
        return cli.build_spec(cli.load_config(path))
    except cli.ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("entry, accepted", [
    (1.5, True), (-0.0, True), (2, True), (10**300, True),
    (2 * 10**308, False), (-(10**400), False), (True, False), (False, False),
    (math.nan, False), (math.inf, False), (-math.inf, False), ("1.0", False), (None, False),
])
def test_table_columns_accept_what_their_entries_accept_one_by_one(
        tmp_path, monkeypatch, entry, accepted):
    # a column of floats is checked as an array, any other column entry by entry;
    # both give the spec, or the exit-2 message, of the entry-by-entry reading
    path = _table_config(tmp_path, entry)
    got = _spec_or_error(path)
    monkeypatch.setattr(cli, "_finite_column", lambda col: [cli._finite(x) for x in col])
    want = _spec_or_error(path)
    assert isinstance(got, str) != accepted
    assert got == want
    if not accepted:
        assert got.startswith("'metric.g' must be an expression string in r"), got
