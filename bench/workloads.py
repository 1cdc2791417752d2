"""Seeded inputs, verdict steps and output checks for the benchmark workloads.

A workload run is a sequence of rounds.  Each round is a fixed list of steps
whose inputs are drawn from (seed, round index), so every round moves every
radius, oracle point, family c2 and solver initial value, while the mix of
verdict kinds stays the same from round to round.

A step is one verdict as a user gets it:

* ``prepare`` (untimed) writes the generated config the program reads;
* ``act`` (timed) runs the program;
* ``judge`` (untimed) checks the verdict, the exit code and every value with
  a closed form, and returns the values that the reference pass compares
  against ``reference.json``.

Closed forms used by the judges are written out here from the geometry, not
taken from the package: the Funk metric has sigma_BH = 1, f = 0, Q = 0 and
S = (n+1)/2 F; the parallel Randers metric f = 1/r^2, g = 0, h = 0.5/r^2
has sigma_HT = r^-n, f = n/r^2, Q = 1/(2r^2) and S = 0; a Berwald-type
family member has Q = 1/(2r^2) + c2 s^2; the BH solver on the Funk data
solves g' = (f'/f - 2/r) g + beta exactly; the HT solver with g = 0 gives
h = h0 (r0/r)^2.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FUNK_PHI = "(sqrt(1 - r^2 + s^2) + s)/(1 - r^2)"
FUNK_F = "1/(1 - r^2)"
FUNK_G = "1/(1 - r^2)^2"
S3_PHI = "sqrt(1 + s^2) + (r/20)*s^3"
CHI = "1 + w/4"

#: closed forms of quadrature and jet values: far above roundoff (1e-14),
#: far below the verdict tolerances (isotropy 1e-7, Douglas 1e-8)
CLOSED_TOL = 1e-9
#: closed forms of the fixed-step solver nodes (RK4 truncation, as in the tests)
SOLVER_TOL = 1e-8
#: a negative control must miss its tolerance by at least this factor
NEGATIVE_MARGIN = 100.0

# profile kinds: config body, radial grid range and s/r count per grid size
PROFILES = {
    "funk2": {
        "n": 2,
        "metric": {"kind": "general", "phi": FUNK_PHI, "r_domain": [0.05, 0.95]},
        "volume": "bh",
        "r": (0.2, 0.8),
    },
    "fr3": {
        "n": 3,
        "metric": {"kind": "randers", "f": FUNK_F, "g": FUNK_G, "h": FUNK_F,
                   "r_domain": [0.05, 0.95]},
        "volume": "bh",
        "r": (0.3, 0.7),
    },
    "ht3": {
        "n": 3,
        "metric": {"kind": "randers", "f": "1/r^2", "g": "0", "h": "0.5/r^2",
                   "r_domain": [0.5, 3.0]},
        "volume": "ht",
        "r": (0.8, 2.5),
    },
    "fam": {
        "n": 2,
        "metric": {"kind": "berwald-family", "c2": None, "chi": CHI, "r0": 1.0,
                   "r_domain": [0.8, 1.2]},
        "volume": "bh",
        "r": (0.85, 1.15),
    },
    "s3": {
        "n": 2,
        "metric": {"kind": "general", "phi": S3_PHI, "r_domain": [0.05, 0.3]},
        "volume": "bh",
        "r": (0.08, 0.27),
    },
    "h05": {
        "n": 2,
        "metric": {"kind": "randers", "f": "1", "g": "1", "h": "0.5", "r_domain": [0.1, 1.2]},
        "volume": "bh",
        "r": (0.2, 1.1),
    },
}


# -- closed forms --------------------------------------------------------------


def funk_phi(r, s):
    return (np.sqrt(1.0 - r * r + s * s) + s) / (1.0 - r * r)


def bh_funk_g(r, k):
    """g solving the BH classification ODE for f = h = 1/(1-r^2).

    The homogeneous solution is f/r^2, so g = 1/(1-r^2)^2 + k/(r^2 (1-r^2)).
    """
    return 1.0 / (1.0 - r * r) ** 2 + k / (r * r * (1.0 - r * r))


def _close(x, ref, tol) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def _expect_close(problems, what, xs, refs, tol) -> None:
    for i, (x, ref) in enumerate(zip(xs, refs)):
        if not _close(float(x), float(ref), tol):
            problems.append(f"{what}[{i}] = {float(x)!r}, closed form {float(ref)!r}")
            return


# -- steps ---------------------------------------------------------------------


@dataclass
class Step:
    label: str
    act: Callable[[], object]
    judge: Callable[[object], tuple[dict, list]]
    grid_points: int = 0
    oracle_points: int = 0
    prepare: Callable[[], None] | None = None


@dataclass
class Round:
    """Inputs and working directory of one round."""

    workload: str
    seed: int
    index: int
    work: Path
    small: bool = False
    rng: np.random.Generator = field(init=False)
    steps: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    configs: list = field(default_factory=list)
    csv_bytes: list = field(default_factory=list)

    def __post_init__(self):
        ids = {"grid-dense": 1, "brute-force": 2}
        self.rng = np.random.default_rng([self.seed, ids[self.workload], self.index])
        self.work.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.work / name

    def draw(self, lo: float, hi: float) -> float:
        v = float(self.rng.uniform(lo, hi))
        self.inputs.append(v)
        return v

    def grid(self, lo: float, hi: float, r_count: int, s_count: int) -> dict:
        if self.small:
            r_count, s_count = min(r_count, 5), min(s_count, 7)
        span = hi - lo
        return {
            "r_min": self.draw(lo - 0.03 * span, lo + 0.03 * span),
            "r_max": self.draw(hi - 0.03 * span, hi + 0.03 * span),
            "r_count": r_count,
            "s_count": s_count,
        }


def _profile_config(rnd: Round, kind: str, r_count: int, s_count: int, **extra) -> dict:
    body = PROFILES[kind]
    metric = dict(body["metric"])
    if kind == "fam":
        metric["c2"] = rnd.draw(0.08, 0.12)
    lo, hi = body["r"]
    cfg = {"n": body["n"], "metric": metric, "volume": body["volume"],
           "grid": rnd.grid(lo, hi, r_count, s_count)}
    cfg.update(extra)
    rnd.configs.append(cfg)
    return cfg


def _grid_points(cfg: dict) -> int:
    return cfg["grid"]["r_count"] * cfg["grid"]["s_count"]


# -- cli steps -----------------------------------------------------------------


def run_cli(argv: list) -> int:
    """`finslerlab <argv>` through cli.main in this interpreter; returns the exit code."""
    from finslerlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_step(rnd: Round, label: str, command: list, cfg, check, expect_pass=True,
             grid_points=0, oracle_points=0, out_ext="json") -> Step:
    """One `finslerlab` invocation on a generated config.

    ``cfg`` is a dict, or a callable returning one at prepare time (for a
    config emitted by an earlier step).  ``check(output, cfg)`` returns
    (values, problems) for the parsed output file.
    """
    cfg_path = rnd.path(f"{label.replace('/', '__')}.json")
    out_path = rnd.path(f"{label.replace('/', '__')}.out.{out_ext}")
    argv = [*command, str(cfg_path), "--out", str(out_path)]
    state = {}

    def prepare():
        state["cfg"] = cfg() if callable(cfg) else cfg
        cfg_path.write_text(json.dumps(state["cfg"], indent=1, sort_keys=True))
        if out_path.exists():
            out_path.unlink()

    def act():
        return run_cli(argv)

    def judge(code):
        want = 0 if expect_pass else 1
        if code != want:
            return {}, [f"exit code {code}, expected {want}"]
        if not out_path.exists():
            return {}, ["no output file"]
        text = out_path.read_text()
        if out_ext == "csv":
            rnd.csv_bytes.append(text.encode())
            out = text
        else:
            out = json.loads(text)
            if command[0] == "verify":
                verdict = "pass" if expect_pass else "fail"
                if out.get("verdict") != verdict:
                    return {}, [f"verdict {out.get('verdict')!r}, expected {verdict!r}"]
        return check(out, state["cfg"])

    return Step(label, act, judge, grid_points, oracle_points, prepare)


def verify_step(rnd, label, check_name, cfg, check, expect_pass=True, grid_points=None,
                oracle_points=0):
    if grid_points is None:
        grid_points = 0 if callable(cfg) else _grid_points(cfg)
    return cli_step(rnd, label, ["verify", "--check", check_name], cfg, check,
                    expect_pass, grid_points, oracle_points)


def _per_radius(report, key):
    return [p[key] for p in report["per_radius"]]


def check_isotropy(closed=None):
    def check(report, cfg):
        values = {"c": _per_radius(report, "c"), "f_r": _per_radius(report, "f_r"),
                  "max": [report["residuals"]["max"]]}
        problems = []
        if closed:
            r = _per_radius(report, "r")
            _expect_close(problems, "c", values["c"], [closed["c"](x) for x in r], CLOSED_TOL)
            _expect_close(problems, "f_r", values["f_r"], [closed["f"](x) for x in r], CLOSED_TOL)
        return values, problems
    return check


def check_douglas(closed=None):
    def check(report, cfg):
        values = {"c1": _per_radius(report, "c1"), "c2": _per_radius(report, "c2"),
                  "max": [report["residuals"]["max"]]}
        problems = []
        if closed:
            r = _per_radius(report, "r")
            c1, c2 = closed["c1"], closed["c2"](cfg)
            _expect_close(problems, "c1", values["c1"], [c1(x) for x in r], CLOSED_TOL)
            _expect_close(problems, "c2", values["c2"], [c2] * len(r), CLOSED_TOL)
        return values, problems
    return check


def check_negative(report, cfg):
    """A negative control must miss its tolerance by NEGATIVE_MARGIN."""
    worst = report["residuals"]["max"]
    tols = [p["tolerance"] for p in report["per_radius"] if "tolerance" in p]
    if not tols:  # bh-classification: the tolerance scales with max |c|
        tols = [1e-8 * (1.0 + max(abs(p["c"]) for p in report["per_radius"]))]
    problems = []
    if worst < NEGATIVE_MARGIN * max(tols):
        problems.append(f"negative control residual {worst:.3e} within "
                        f"{NEGATIVE_MARGIN:g}x of its tolerance {max(tols):.3e}")
    return {"max": [worst]}, problems


def check_sample(closed=None):
    def check(text, cfg):
        rows = list(csv.DictReader(io.StringIO(text)))
        keys = ("phi", "P", "Q", "Q_s", "detg", "sigma", "f_r", "S_over_u")
        values = {k: [float(row[k]) for row in rows] for k in keys}
        problems = []
        if len(rows) != _grid_points(cfg):
            problems.append(f"{len(rows)} rows for a {_grid_points(cfg)}-point grid")
        if closed:
            r = [float(row["r"]) for row in rows]
            s = [float(row["s"]) for row in rows]
            n = cfg["n"]
            _expect_close(problems, "sigma", values["sigma"], [closed["sigma"](x) for x in r],
                          CLOSED_TOL)
            _expect_close(problems, "f_r", values["f_r"], [closed["f"](x) for x in r], CLOSED_TOL)
            want = [(n + 1) * closed["c"](x) * p for x, p in zip(r, values["phi"])]
            _expect_close(problems, "S_over_u", values["S_over_u"], want, CLOSED_TOL)
            if "phi" in closed:
                _expect_close(problems, "phi", values["phi"],
                              [closed["phi"](x, y) for x, y in zip(r, s)], CLOSED_TOL)
        return values, problems
    return check


def check_bh_class(closed_c=None):
    def check(report, cfg):
        values = {"c": _per_radius(report, "c"), "res2": _per_radius(report, "res2")}
        problems = []
        if closed_c is not None:
            _expect_close(problems, "c", values["c"], [closed_c] * len(values["c"]), CLOSED_TOL)
        return values, problems
    return check


def check_ht_parallel(report, cfg):
    return {k: _per_radius(report, k) for k in ("u1", "u2", "ht_residual")}, []


def check_family(report, cfg):
    c2 = float(cfg["metric"]["c2"])
    fitted = [p["c2"] for p in report["per_radius"] if p["c2"] is not None]
    problems = []
    _expect_close(problems, "c2", fitted, [c2] * len(fitted), CLOSED_TOL)
    return {"c2": fitted, "pde": _per_radius(report, "pde_residual")}, problems


def check_oracle(report, cfg):
    values = {"oracle": _per_radius(report, "oracle"), "analytic": _per_radius(report, "analytic")}
    return values, []


def check_construct_bh(k):
    def check(out, cfg):
        t = out["metric"]["g"]["table"]
        r = np.asarray(t["r_nodes"])
        problems = []
        _expect_close(problems, "g", t["values"], bh_funk_g(r, k), SOLVER_TOL)
        if not out["diagnostics"]["max_node_residual"] <= 1e-8:
            problems.append("node audit above 1e-8")
        return {"g": t["values"][::40]}, problems
    return check


FUNK_CLOSED = {"c": lambda r: 0.5, "f": lambda r: 0.0, "sigma": lambda r: 1.0,
               "c1": lambda r: 0.0, "c2": lambda cfg: 0.0}
FUNK2_CLOSED = dict(FUNK_CLOSED, phi=funk_phi)
HT3_CLOSED = {"c": lambda r: 0.0, "f": lambda r: 3.0 / (r * r), "sigma": lambda r: r ** -3.0,
              "c1": lambda r: 0.5 / (r * r), "c2": lambda cfg: 0.0}
FAM_CLOSED = {"c1": lambda r: 0.5 / (r * r), "c2": lambda cfg: float(cfg["metric"]["c2"])}
CLOSED = {"funk2": FUNK2_CLOSED, "fr3": FUNK_CLOSED, "ht3": HT3_CLOSED}


def _construct_bh_config(rnd: Round) -> tuple[dict, float]:
    k = rnd.draw(-0.3, 0.3)
    return {
        "n": 3,
        "metric": dict(PROFILES["fr3"]["metric"]),
        "construct": {"f": FUNK_F, "h": FUNK_F, "g_at_r0": float(bh_funk_g(0.5, k)),
                      "r_range": [0.3, 0.7], "steps": 400, "r0": 0.5},
    }, k


def _emitted(path: Path, grid: dict):
    """Config emitted by a construct step, on another grid."""
    def load():
        cfg = json.loads(path.read_text())
        cfg["grid"] = dict(grid)
        return cfg
    return load


def _negative_steps(rnd: Round, r_count: int, s_count: int) -> list:
    s3 = _profile_config(rnd, "s3", r_count, s_count)
    h05 = _profile_config(rnd, "h05", r_count, s_count)
    return [
        verify_step(rnd, "s3/isotropy", "isotropy", s3, check_negative, expect_pass=False),
        verify_step(rnd, "s3/douglas", "douglas", s3, check_negative, expect_pass=False),
        verify_step(rnd, "h05/isotropy", "isotropy", h05, check_negative, expect_pass=False),
        verify_step(rnd, "h05/bh-classification", "bh-classification", h05, check_negative,
                    expect_pass=False, grid_points=h05["grid"]["r_count"]),
    ]


# -- grid-dense ----------------------------------------------------------------


def grid_dense(rnd: Round) -> None:
    """Every profile kind on dense (r, s) grids, through the CLI in one process."""
    steps = []

    def oracle_point():
        # three single oracle points, spread over the round, keep the brute-force
        # path measured on this workload at several moments of a pass
        cfg = _profile_config(rnd, "funk2", 5, 5, oracle={"points": 1},
                              seed=int(rnd.rng.integers(1 << 30)))
        steps.append(verify_step(rnd, "funk2/oracle", "oracle", cfg, check_oracle,
                                 grid_points=0, oracle_points=1))

    for kind in ("funk2", "fr3", "ht3", "fam"):
        dense = (17, 21) if kind == "fam" else (41, 41)
        cfg = _profile_config(rnd, kind, *dense)
        closed = CLOSED.get(kind)
        steps.append(verify_step(rnd, f"{kind}/isotropy", "isotropy", cfg, check_isotropy(closed)))
        steps.append(verify_step(rnd, f"{kind}/douglas", "douglas", cfg,
                                 check_douglas(closed or FAM_CLOSED)))
        steps.append(cli_step(rnd, f"{kind}/sample", ["sample"], cfg, check_sample(closed),
                              grid_points=_grid_points(cfg), out_ext="csv"))
        if kind == "fr3":
            steps.append(verify_step(rnd, "fr3/bh-classification", "bh-classification", cfg,
                                     check_bh_class(0.5), grid_points=cfg["grid"]["r_count"]))
        if kind == "ht3":
            steps.append(verify_step(rnd, "ht3/ht-parallel", "ht-parallel", cfg,
                                     check_ht_parallel, grid_points=cfg["grid"]["r_count"]))
        if kind == "fam":
            steps.append(verify_step(rnd, "fam/berwald-family", "berwald-family", cfg,
                                     check_family))
        if kind in ("fr3", "fam"):
            oracle_point()
    # a solved (Hermite-table) Randers profile, the fourth profile kind
    cfg, k = _construct_bh_config(rnd)
    built = rnd.path("solved__construct.out.json")
    steps.append(cli_step(rnd, "solved/construct", ["construct", "--family", "randers-bh"],
                          cfg, check_construct_bh(k)))
    grid = rnd.grid(0.32, 0.68, 21, 21)
    solved = _emitted(built, grid)
    gp = grid["r_count"] * grid["s_count"]
    steps.append(verify_step(rnd, "solved/isotropy", "isotropy", solved, check_isotropy(),
                             grid_points=gp))
    steps.append(verify_step(rnd, "solved/douglas", "douglas", solved, check_douglas(),
                             grid_points=gp))
    steps.append(cli_step(rnd, "solved/sample", ["sample"], solved, check_sample(),
                          grid_points=gp, out_ext="csv"))
    steps.extend(_negative_steps(rnd, 41, 41))
    oracle_point()
    rnd.steps = steps


# -- brute-force ---------------------------------------------------------------


def _spec(rnd: Round, name: str, cfg: dict):
    """(spec, volume) of a generated config, read through the CLI loader."""
    from finslerlab import cli

    path = rnd.path(f"{name}.json")
    path.write_text(json.dumps(cfg, sort_keys=True))
    loaded = cli.load_config(str(path))
    return cli.build_spec(loaded), loaded.volume


def _oracle_step(rnd: Round, kind: str, i: int) -> Step:
    from finslerlab import oracle, randers, scurvature

    cfg = _profile_config(rnd, kind, 5, 5)
    lo, hi = cfg["grid"]["r_min"], cfg["grid"]["r_max"]
    span = hi - lo
    r = rnd.draw(lo + 0.05 * span, hi - 0.05 * span)
    frac = rnd.draw(-0.9, 0.9)
    scale = rnd.draw(0.5, 2.0)
    n = cfg["n"]
    x = np.zeros(n)
    x[0] = r
    y = np.zeros(n)
    y[0], y[1] = frac * scale, math.sqrt(1.0 - frac * frac) * scale
    u = scale
    s = r * frac
    state = {}

    def prepare():
        state["spec"], state["vol"] = _spec(rnd, f"{kind}__oracle{i}", cfg)

    def act():
        spec, vol = state["spec"], state["vol"]
        s_num = oracle.s_by_distortion(spec, vol, x, y)
        s_ana = u * float(scurvature.reduced_s(spec, vol, r, s))
        s_cf = None
        if cfg["metric"]["kind"] == "randers":
            p = spec.profile
            s_cf = u * float(randers.randers_reduced_s(p.f, p.g, p.h, n, r, s, cfg["volume"]))
        return s_num, s_ana, s_cf

    def judge(out):
        s_num, s_ana, s_cf = out
        problems = []
        if abs(s_num - s_ana) > 1e-4 * (1.0 + abs(s_ana)):
            problems.append(f"oracle {s_num!r} vs analytic {s_ana!r}")
        if kind in ("funk2", "fr3"):
            _expect_close(problems, "S", [s_ana], [u * (n + 1) * 0.5 * funk_phi(r, s)],
                          CLOSED_TOL)
        if kind == "ht3":
            _expect_close(problems, "S", [s_ana], [0.0], CLOSED_TOL)
        if s_cf is not None:
            _expect_close(problems, "S closed form", [s_ana], [s_cf], CLOSED_TOL)
        return {"oracle": [s_num], "analytic": [s_ana]}, problems

    return Step(f"{kind}/oracle", act, judge, 0, 1, prepare)


def _family_build_step(rnd: Round) -> Step:
    from finslerlab import families

    c2 = rnd.draw(0.08, 0.12)

    def act():
        return families.build_berwald_family(c2, CHI, 1.0, (0.8, 1.2), 2)

    def judge(built):
        problems = []
        if not (built.pde_max_residual <= 1e-8 and built.douglas.passed
                and built.regularity.passed):
            problems.append("family build not certified")
        r = built.douglas.r_grid
        _expect_close(problems, "c1", built.douglas.c1, 0.5 / (r * r), CLOSED_TOL)
        _expect_close(problems, "c2", built.douglas.c2, [c2] * r.size, CLOSED_TOL)
        return {"c1": list(built.douglas.c1), "c2": list(built.douglas.c2),
                "pde": [built.pde_max_residual]}, problems

    return Step("fam/build", act, judge)


def _bh_solve_step(rnd: Round) -> Step:
    from finslerlab import BH, families, geometry, scurvature

    k = rnd.draw(-0.3, 0.3)
    grid = np.linspace(0.3 + 0.04 * 0.4, 0.7 - 0.04 * 0.4, 7)

    def act():
        sol = families.bh_solve_g(FUNK_F, FUNK_F, float(bh_funk_g(0.5, k)), (0.3, 0.7),
                                  steps=400, r0=0.5)
        spec = geometry.randers_spec(FUNK_F, sol.as_function(), FUNK_F, 3, (0.3, 0.7))
        return sol, scurvature.isotropy_profile(spec, BH, grid)

    def judge(out):
        sol, prof = out
        problems = []
        _expect_close(problems, "g", sol.values, bh_funk_g(sol.r_nodes, k), SOLVER_TOL)
        if not prof.passed:
            problems.append("solved BH profile is not isotropic")
        g_fn = sol.as_function()
        want = [families.bh_classification_residuals(FUNK_F, g_fn, FUNK_F, float(r)).c
                for r in grid]
        _expect_close(problems, "c", prof.c_mean, want, 1e-6)
        return {"g": list(sol.values[::40]), "c": list(prof.c_mean)}, problems

    return Step("bh/solve", act, judge, grid_points=grid.size * 21)


def _ht_solve_step(rnd: Round) -> Step:
    from finslerlab import HT, families, geometry, scurvature

    h0 = rnd.draw(0.3, 0.7)
    grid = np.linspace(1.0 + 0.04 * 1.5, 2.5 - 0.04 * 1.5, 5)

    def act():
        sol = families.ht_solve_h(1.0, "0", h0, (1.0, 2.5), steps=600)
        spec = geometry.randers_spec("1/r^2", "0", sol.as_function(), 3, (1.0, 2.5))
        return sol, scurvature.isotropy_profile(spec, HT, grid)

    def judge(out):
        sol, prof = out
        problems = []
        _expect_close(problems, "h", sol.values, h0 / sol.r_nodes ** 2, SOLVER_TOL)
        if not (prof.passed and sol.admissible):
            problems.append("solved HT profile is not isotropic and admissible")
        _expect_close(problems, "c", prof.c_mean, [0.0] * grid.size, CLOSED_TOL)
        return {"h": list(sol.values[::60]), "c": list(prof.c_mean)}, problems

    return Step("ht/solve", act, judge, grid_points=grid.size * 21)


def _brute_negative_steps(rnd: Round) -> list:
    from finslerlab import douglas, families, randers
    from finslerlab.expr import ScalarFunction
    from finslerlab.geometry import s_fractions

    radii = [rnd.draw(0.2, 1.1) for _ in range(3)]
    s3_radii = np.array([rnd.draw(0.08, 0.27) for _ in range(3)])
    s3 = _profile_config(rnd, "s3", 5, 5)
    state = {}

    def prepare():
        state["s3"], _ = _spec(rnd, "s3__douglas", s3)

    def act_h05():
        res = [families.bh_classification_residuals("1", "1", "0.5", r) for r in radii]
        f, g, h = (ScalarFunction.from_text(t) for t in ("1", "1", "0.5"))
        cond = randers.isotropy_condition_check(f, g, h, radii[0], radii[0] * s_fractions(11))
        return res, cond

    def judge_h05(out):
        res, cond = out
        worst = max(abs(b.res2) for b in res)
        tol = 1e-8 * (1.0 + max(abs(b.c) for b in res))
        problems = []
        if worst < NEGATIVE_MARGIN * tol:
            problems.append(f"h05 classification residual {worst:.3e} passes")
        if cond.passed or cond.residual < NEGATIVE_MARGIN * cond.tolerance:
            problems.append(f"h05 isotropy condition residual {cond.residual:.3e} passes")
        return {"res2": [b.res2 for b in res], "cond": [cond.residual]}, problems

    def act_s3():
        return douglas.douglas_verdict(state["s3"], s3_radii, s_fractions(21))

    def judge_s3(fit):
        problems = []
        if fit.passed or float(np.max(fit.max_residual)) < NEGATIVE_MARGIN * float(
                np.max(fit.tolerance)):
            problems.append("s3 Douglas fit passes")
        return {"max": list(fit.max_residual)}, problems

    return [
        Step("h05/bh-classification", act_h05, judge_h05, grid_points=3),
        Step("s3/douglas", act_s3, judge_s3, grid_points=3 * 21, prepare=prepare),
    ]


def brute_force(rnd: Round) -> None:
    """Oracle points, cold family builds and the two ODE solvers, one point per call."""
    steps = []
    for kind in ("funk2", "fr3", "ht3"):
        steps.extend(_oracle_step(rnd, kind, i) for i in range(3))
    steps.append(_oracle_step(rnd, "fam", 0))
    steps.append(_family_build_step(rnd))
    steps.append(_bh_solve_step(rnd))
    steps.append(_ht_solve_step(rnd))
    steps.extend(_brute_negative_steps(rnd))
    rnd.steps = steps


def build_round(rnd: Round) -> Round:
    if rnd.workload == "grid-dense":
        grid_dense(rnd)
    else:
        brute_force(rnd)
    return rnd
