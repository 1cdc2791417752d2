"""Batch front door: JSON configs in, verdict reports and grid dumps out.

Commands
--------
analyze    full grid report (phi, spray, determinant, density, S/u) as JSON
verify     one named verdict with residual statistics; exit 0 pass, 1 fail
construct  build a profile (Berwald-type family or a Randers branch) and
           write it back out as a self-contained, loadable config
sample     the analyze grid as deterministic CSV (regression fixture format)

Exit codes: 0 pass, 1 verdict fail, 2 config error, 3 numeric failure,
4 regularity failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .douglas import douglas_verdict
from .errors import (
    ConfigError,
    CrossCheckError,
    DegenerateInputError,
    DomainError,
    DomainExitError,
    ParseError,
    QuadratureError,
    RegularityError,
    UnknownIdentifierError,
)
from .expr import ScalarFunction, parse_expression, to_string
from .families import (
    SampledFunction,
    bh_classification_residuals,
    bh_solve_g,
    build_berwald_family,
    family_pde_residual,
    ht_condition_residual,
    ht_solve_h,
)
from .geometry import (
    BerwaldFamilyProfile,
    MetricSpec,
    batch_radii,
    embed_point,
    general_phi_spec,
    metric_determinant,
    phi_jet,
    randers_spec,
    regularity_scan,
    s_fractions,
    spray_values,
)
from .oracle import s_by_distortion
from .quadrature import QuadratureRule
from .randers import covariant_b_coefficients
from .scurvature import isotropy_profile, reduced_s, reduced_s_given_f
from .volume import BH, CONSTANT, HT, CustomDensity, density, f_coefficient

CSV_HEADER = "r,s,phi,P,Q,Q_s,detg,sigma,f_r,S_over_u"

CHECKS = ("isotropy", "douglas", "berwald-family", "bh-classification", "ht-parallel", "oracle")
FAMILIES = ("berwald", "randers-bh", "randers-ht")


# -- config loading ----------------------------------------------------------


@dataclass
class RunConfig:
    raw: dict
    n: int
    metric: dict
    volume: object
    grid: dict | None
    tolerances: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    seed: int = 0
    construct: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    c_const: float | None = None


#: largest grid.r_count and grid.s_count: every radius is evaluated in one batch
GRID_COUNT_CAP = 401
#: largest oracle.points: each point integrates two geodesics
ORACLE_POINTS_CAP = 1000


def _expect(cond: bool, message: str, key: str) -> None:
    if not cond:
        raise ConfigError(message, key=key)


def _is_number(v) -> bool:
    """A finite JSON number (not a string, bool or null)."""
    return type(v) in (int, float) and math.isfinite(v)


def _grid_count(grid: dict, key: str, least: int) -> int:
    v = grid.get(key, 21)
    _expect(type(v) is int and least <= v <= GRID_COUNT_CAP,
            f"grid.{key} must be an integer from {least} to {GRID_COUNT_CAP}, got {v!r}",
            f"grid.{key}")
    return v


def _radial_fn(obj, key: str):
    """Accept an expression string, a number, or a sampled table."""
    if isinstance(obj, str):
        try:
            return ScalarFunction.from_text(obj)
        except (ParseError, UnknownIdentifierError) as exc:
            raise ConfigError(f"bad expression for {key}: {exc}", key=key) from exc
    if isinstance(obj, (int, float)):
        return ScalarFunction.constant(float(obj))
    if isinstance(obj, dict) and "table" in obj:
        t = obj["table"]
        for want in ("r_nodes", "values", "derivs", "second_derivs"):
            _expect(want in t, f"sampled table for {key} lacks '{want}'", f"{key}.table")
        try:
            return SampledFunction(t["r_nodes"], t["values"], t["derivs"], t["second_derivs"])
        except ValueError as exc:
            raise ConfigError(f"bad sampled table for {key}: {exc}", key=f"{key}.table") from exc
    raise ConfigError(f"{key} must be an expression string, number, or table", key=key)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}", key="<file>") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}", key="<file>") from exc
    _expect(isinstance(raw, dict), "config root must be a JSON object", "<root>")
    _expect("n" in raw, "missing dimension 'n'", "n")
    n = raw["n"]
    _expect(isinstance(n, int) and n >= 2, "'n' must be an integer >= 2", "n")
    _expect("metric" in raw and isinstance(raw["metric"], dict), "missing 'metric' object", "metric")
    metric = raw["metric"]
    _expect(
        metric.get("kind") in ("general", "randers", "berwald-family"),
        "metric.kind must be one of general | randers | berwald-family",
        "metric.kind",
    )
    volume = _load_volume(raw.get("volume", "bh"))
    grid = raw.get("grid")
    if grid is not None:
        _expect(isinstance(grid, dict), "'grid' must be an object", "grid")
        for want in ("r_min", "r_max"):
            _expect(want in grid, f"grid lacks '{want}'", f"grid.{want}")
            _expect(_is_number(grid[want]),
                    f"grid.{want} must be a finite number, got {grid[want]!r}", f"grid.{want}")
        _expect(0.0 < grid["r_min"] < grid["r_max"], "grid range must satisfy 0 < r_min < r_max", "grid")
        grid = {
            "r_min": float(grid["r_min"]),
            "r_max": float(grid["r_max"]),
            "r_count": _grid_count(grid, "r_count", 2),
            "s_count": _grid_count(grid, "s_count", 5),
        }
    tolerances = raw.get("tolerances", {}) or {}
    _expect(isinstance(tolerances, dict), "'tolerances' must be an object", "tolerances")
    for key in ("isotropy", "douglas"):
        v = tolerances.get(key)
        _expect(v is None or type(v) in (int, float) and 0.0 < v < float("inf"),
                f"tolerances.{key} must be a positive number, got {v!r}", f"tolerances.{key}")
    seed = raw.get("seed", 0)
    _expect(isinstance(seed, int), "'seed' must be an integer", "seed")
    c_const = raw.get("c_const")
    if c_const is not None:
        _expect(type(c_const) in (int, float) and 0.0 < c_const < math.inf,
                f"'c_const' must be a positive finite number, got {c_const!r}", "c_const")
        c_const = float(c_const)
    oracle = raw.get("oracle", {}) or {}
    _expect(isinstance(oracle, dict), "'oracle' must be an object", "oracle")
    points = oracle.get("points", 10)
    _expect(type(points) is int and 1 <= points <= ORACLE_POINTS_CAP,
            f"oracle.points must be an integer from 1 to {ORACLE_POINTS_CAP}, got {points!r}",
            "oracle.points")
    return RunConfig(
        raw=raw,
        n=n,
        metric=metric,
        volume=volume,
        grid=grid,
        tolerances=tolerances,
        output=raw.get("output", {}) or {},
        seed=seed,
        construct=raw.get("construct", {}) or {},
        oracle=oracle,
        c_const=c_const,
    )


def _load_volume(obj):
    if isinstance(obj, str):
        kind = obj.lower()
        if kind == "bh":
            return BH
        if kind == "ht":
            return HT
        if kind == "constant":
            return CONSTANT
        raise ConfigError("volume must be bh | ht | constant | {kind: custom, sigma: ...}", key="volume")
    if isinstance(obj, dict) and obj.get("kind") == "custom":
        _expect("sigma" in obj, "custom volume lacks 'sigma'", "volume.sigma")
        return CustomDensity(_radial_fn(obj["sigma"], "volume.sigma"))
    raise ConfigError("volume must be bh | ht | constant | {kind: custom, sigma: ...}", key="volume")


def _default_domain(cfg: RunConfig) -> tuple[float, float]:
    dom = cfg.metric.get("r_domain")
    if dom is not None:
        _expect(
            isinstance(dom, (list, tuple)) and len(dom) == 2 and all(map(_is_number, dom))
            and 0.0 < dom[0] < dom[1],
            "metric.r_domain must be [r_min, r_max] with 0 < r_min < r_max",
            "metric.r_domain",
        )
        lo, hi = float(dom[0]), float(dom[1])
        if cfg.grid is not None:
            for key, r in (("r_min", cfg.grid["r_min"]), ("r_max", cfg.grid["r_max"])):
                _expect(lo <= r <= hi, f"grid.{key} = {r!r} lies outside metric.r_domain "
                        f"[{lo!r}, {hi!r}]", f"grid.{key}")
        return lo, hi
    _expect(cfg.grid is not None, "need metric.r_domain or a grid to fix the domain", "metric.r_domain")
    # pad so boundary radii keep room for the density cross-check stencil
    return 0.9 * cfg.grid["r_min"], 1.1 * cfg.grid["r_max"]


def build_spec(cfg: RunConfig) -> MetricSpec:
    kind = cfg.metric["kind"]
    domain = _default_domain(cfg)
    if kind == "general":
        _expect("phi" in cfg.metric, "general metric lacks 'phi'", "metric.phi")
        _expect(isinstance(cfg.metric["phi"], str),
                f"metric.phi must be an expression string, got {cfg.metric['phi']!r}", "metric.phi")
        try:
            return general_phi_spec(cfg.metric["phi"], cfg.n, domain)
        except (ParseError, UnknownIdentifierError) as exc:
            raise ConfigError(f"bad expression for metric.phi: {exc}", key="metric.phi") from exc
    if kind == "randers":
        for want in ("f", "g", "h"):
            _expect(want in cfg.metric, f"randers metric lacks '{want}'", f"metric.{want}")
        f, g, h = (_radial_fn(cfg.metric[k], f"metric.{k}") for k in ("f", "g", "h"))
        return randers_spec(f, g, h, cfg.n, domain)
    for want in ("c2", "chi", "r0"):
        _expect(want in cfg.metric, f"berwald-family metric lacks '{want}'", f"metric.{want}")
    c2 = _radial_fn(cfg.metric["c2"], "metric.c2")
    _expect(isinstance(c2, ScalarFunction), "family c2 must be closed form", "metric.c2")
    try:
        chi = parse_expression(str(cfg.metric["chi"]), {"w"})
    except (ParseError, UnknownIdentifierError) as exc:
        raise ConfigError(f"bad expression for metric.chi: {exc}", key="metric.chi") from exc
    r0 = cfg.metric["r0"]
    _expect(_is_number(r0) and domain[0] <= r0 <= domain[1],
            f"family anchor metric.r0 must be a number inside r_domain, got {r0!r}", "metric.r0")
    r0 = float(r0)
    return MetricSpec(BerwaldFamilyProfile(c2=c2, chi=chi, r0=r0), cfg.n, domain)


def _grids(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    _expect(cfg.grid is not None, "this command needs a 'grid' section", "grid")
    g = cfg.grid
    r_values = np.linspace(g["r_min"], g["r_max"], g["r_count"])
    return r_values, s_fractions(g["s_count"])


def _rule(args) -> QuadratureRule | None:
    return QuadratureRule(n=args.quad) if args.quad else None


# -- report plumbing ---------------------------------------------------------


def _residual_block(res, r, s) -> dict:
    """max, mean and argmax point of |res|; r and s (or None) broadcast against res."""
    flat = np.abs(np.asarray(res, dtype=float)).ravel()
    i = int(np.argmax(flat))
    at = {k: None if v is None else float(np.broadcast_to(v, np.shape(res)).flat[i])
          for k, v in (("r", r), ("s", s))}
    return {"max": float(flat[i]), "mean": float(np.mean(flat)), "argmax": at}


def _write_text(args, cfg: RunConfig, text: str) -> None:
    path = args.out or cfg.output.get("path")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _dump_report(args, cfg: RunConfig, report: dict) -> None:
    _write_text(args, cfg, json.dumps(report, indent=2, sort_keys=True) + "\n")


# -- commands ----------------------------------------------------------------


def _grid_columns(cfg: RunConfig, spec: MetricSpec, rule) -> tuple[dict, dict]:
    """The grid's columns, each (r_count, s_count), and the per-radius columns."""
    r_values, fracs = _grids(cfg)

    def columns(radii):
        rc = radii[:, None]
        s = rc * fracs
        sigma = density(cfg.volume, spec, radii, rule)
        f_r = f_coefficient(cfg.volume, spec, radii, rule)
        sv = spray_values(spec, rc, s)
        phi = phi_jet(spec, rc, s).d(0, 0)
        detg = metric_determinant(spec, rc, s)
        red = reduced_s_given_f(spec, rc, s, f_r[:, None])
        cols = {"r": rc, "s": s, "phi": phi, "P": sv.P, "Q": sv.Q, "Q_s": sv.Q_s, "detg": detg,
                "sigma": sigma[:, None], "f_r": f_r[:, None], "S_over_u": red,
                "c": red / ((spec.n + 1) * phi)}
        return {k: np.broadcast_to(np.asarray(v, dtype=float), s.shape) for k, v in cols.items()}

    cols = batch_radii(columns, r_values)
    c = cols["c"]
    per_radius = {"r": r_values, "sigma": cols["sigma"][:, 0], "f_r": cols["f_r"][:, 0],
                  "c_mean": np.mean(c, axis=1), "c_spread": np.max(c, axis=1) - np.min(c, axis=1)}
    return cols, per_radius


def _records(cols: dict) -> list[dict]:
    """One dict of Python floats per element of equally shaped arrays, in C order."""
    return [dict(zip(cols, vals)) for vals in zip(*(np.ravel(v).tolist() for v in cols.values()))]


def cmd_analyze(cfg: RunConfig, args) -> int:
    spec = build_spec(cfg)
    rule = _rule(args)
    scan = regularity_scan(spec)
    cols, per_radius = _grid_columns(cfg, spec, rule)
    report = {
        "config_echo": cfg.raw,
        "regularity": {
            "passed": bool(scan.passed),
            "worst_margin": float(scan.worst_margin),
            "worst_point": {"r": scan.worst_point[0], "s": scan.worst_point[1]},
            "worst_condition": int(scan.worst_condition),
        },
        "per_radius": _records(per_radius),
        "grid": _records(cols),
    }
    _dump_report(args, cfg, report)
    return 0


def cmd_sample(cfg: RunConfig, args) -> int:
    spec = build_spec(cfg)
    cols, _ = _grid_columns(cfg, spec, _rule(args))
    names = CSV_HEADER.split(",")
    row = ",".join(["%.17g"] * len(names))  # 17 significant digits round-trip every float
    lines = [CSV_HEADER, *(row % vals for vals in zip(*(cols[k].ravel().tolist() for k in names)))]
    _write_text(args, cfg, "\n".join(lines) + "\n")
    return 0


class Verdict(NamedTuple):
    """What every verifier returns; cmd_verify turns it into the report."""

    passed: bool
    residual: np.ndarray  #: summarised by _residual_block
    r: np.ndarray  #: radius of each residual entry, broadcast against it
    s: np.ndarray | None  #: slope of each residual entry; None if the check has none
    per_radius: dict  #: equal-length columns, one row per radius (per point: oracle)


def _verify_isotropy(cfg, spec, args, rule) -> Verdict:
    r_values, fracs = _grids(cfg)
    tol = args.tol if args.tol is not None else cfg.tolerances.get("isotropy")
    prof = isotropy_profile(spec, cfg.volume, r_values, s_fracs=fracs, tolerance=tol, rule=rule)
    rc = r_values[:, None]
    return Verdict(prof.passed, prof.c_values - prof.c_mean[:, None], rc, rc * fracs,
                   {"r": r_values, "c": prof.c_mean, "f_r": prof.f_values,
                    "spread": prof.c_spread, "tolerance": np.full(r_values.size, prof.tolerance)})


def _verify_douglas(cfg, spec, args, rule) -> Verdict:
    r_values, fracs = _grids(cfg)
    tol = args.tol if args.tol is not None else cfg.tolerances.get("douglas")
    fit = douglas_verdict(spec, r_values, fracs, tolerance=tol)
    rc = r_values[:, None]
    return Verdict(fit.passed, fit.residuals, rc, rc * fracs,
                   {"r": r_values, "c1": fit.c1, "c2": fit.c2, "max_residual": fit.max_residual,
                    "odd_residual": fit.odd_residual, "tolerance": fit.tolerance})


def _verify_family(cfg, spec, args, rule) -> Verdict:
    _expect(
        cfg.metric["kind"] == "berwald-family",
        "--check berwald-family needs a berwald-family metric",
        "metric.kind",
    )
    built = build_berwald_family(
        spec.profile.c2, spec.profile.chi, spec.profile.r0, spec.r_domain, cfg.n
    )
    r_values, fracs = _grids(cfg)
    rc = r_values[:, None]
    dev = np.abs(np.broadcast_to(family_pde_residual(spec, spec.profile.c2, rc, rc * fracs),
                                 (r_values.size, fracs.size)))
    tol = args.tol if args.tol is not None else 1e-8
    fit = douglas_verdict(spec, r_values, fracs)
    passed = bool(np.max(dev) <= tol and fit.passed and built.regularity.passed)
    return Verdict(passed, dev, rc, rc * fracs,
                   {"r": r_values, "c1": fit.c1, "c2": fit.c2, "pde_residual": np.max(dev, axis=1)})


def _randers_profiles(cfg):
    _expect(cfg.metric["kind"] == "randers", "this check needs a randers metric", "metric.kind")
    return tuple(_radial_fn(cfg.metric[k], f"metric.{k}") for k in ("f", "g", "h"))


def _verify_bh_classification(cfg, spec, args, rule) -> Verdict:
    f, g, h = _randers_profiles(cfg)
    r_values, _ = _grids(cfg)
    bc = batch_radii(lambda radii: bh_classification_residuals(f, g, h, radii), r_values)
    tol = args.tol if args.tol is not None else 1e-8 * (1.0 + float(np.max(np.abs(bc.c))))
    return Verdict(bool(np.max(np.abs(bc.res2)) <= tol), bc.res2, r_values, None,
                   {"r": r_values, "c": bc.c, "res1": bc.res1, "res2": bc.res2,
                    "printed_ode_residual": bc.printed_ode_residual})


def _verify_ht_parallel(cfg, spec, args, rule) -> Verdict:
    f, g, h = _randers_profiles(cfg)
    r_values, _ = _grids(cfg)
    if cfg.c_const is not None:
        c_const = cfg.c_const
    else:
        cs = r_values * r_values * np.asarray(f.value(r_values), dtype=float)
        _expect(
            float(np.max(cs) - np.min(cs)) <= 1e-6 * (1.0 + float(np.mean(np.abs(cs)))),
            "metric.f is not c/r^2 for a constant c; set 'c_const' explicitly",
            "c_const",
        )
        c_const = float(np.mean(cs))

    def batch(radii):
        u1, u2 = covariant_b_coefficients(f, g, h, radii)
        return {"r": radii, "u1": u1, "u2": u2,
                "ht_residual": ht_condition_residual(c_const, g, h, radii)}

    cols = batch_radii(batch, r_values)
    worst = np.max(np.abs([cols["u1"], cols["u2"], cols["ht_residual"]]), axis=0)
    tol = args.tol if args.tol is not None else 1e-8
    return Verdict(bool(np.max(worst) <= tol), worst, r_values, None, cols)


def _verify_oracle(cfg, spec, args, rule) -> Verdict:
    r_values, _ = _grids(cfg)
    lo, hi = float(r_values[0]), float(r_values[-1])
    span = hi - lo
    points = cfg.oracle.get("points", 10)
    seed = args.seed if args.seed is not None else cfg.seed
    rng = np.random.default_rng(seed)
    tol = args.tol if args.tol is not None else 1e-4
    cols = {"r": [], "s": [], "oracle": [], "analytic": []}
    for _ in range(points):
        r = float(rng.uniform(lo + 0.05 * span, hi - 0.05 * span))
        frac = float(rng.uniform(-0.9, 0.9))
        x, y = embed_point(r, r * frac, cfg.n)
        y = y * float(rng.uniform(0.5, 2.0))
        u = float(np.linalg.norm(y))
        s = float(np.dot(x, y) / u)
        cols["r"].append(r)
        cols["s"].append(s)
        cols["oracle"].append(s_by_distortion(spec, cfg.volume, x, y, rule=rule))
        cols["analytic"].append(u * float(reduced_s(spec, cfg.volume, r, s, rule)))
    cols = {k: np.asarray(v, dtype=float) for k, v in cols.items()}
    cols["diff"] = np.abs(cols["oracle"] - cols["analytic"])
    cols["band"] = tol * (1.0 + np.abs(cols["analytic"]))
    return Verdict(bool(np.all(cols["diff"] <= cols["band"])), cols["diff"], cols["r"],
                   cols["s"], cols)


_VERIFIERS = {
    "isotropy": _verify_isotropy,
    "douglas": _verify_douglas,
    "berwald-family": _verify_family,
    "bh-classification": _verify_bh_classification,
    "ht-parallel": _verify_ht_parallel,
    "oracle": _verify_oracle,
}


def cmd_verify(cfg: RunConfig, args) -> int:
    spec = build_spec(cfg)
    verdict = _VERIFIERS[args.check](cfg, spec, args, _rule(args))
    block = _residual_block(verdict.residual, verdict.r, verdict.s)
    report = {
        "config_echo": cfg.raw,
        "check": args.check,
        "verdict": "pass" if verdict.passed else "fail",
        "residuals": block,
        "per_radius": _records(verdict.per_radius),
    }
    _dump_report(args, cfg, report)
    print(f"{args.check}: {'PASS' if verdict.passed else 'FAIL'} "
          f"(max residual {block['max']:.3e})", file=sys.stderr)
    return 0 if verdict.passed else 1


def _construct_berwald(cfg: RunConfig, args) -> dict:
    p = cfg.construct
    for want in ("c2", "chi", "r0", "domain"):
        _expect(want in p, f"construct section lacks '{want}'", f"construct.{want}")
    lo, hi = float(p["domain"][0]), float(p["domain"][1])
    built = build_berwald_family(p["c2"], p["chi"], float(p["r0"]), (lo, hi), cfg.n)
    prof = built.spec.profile
    pad = 0.05 * (hi - lo)
    return {
        "n": cfg.n,
        "metric": {
            "kind": "berwald-family",
            "c2": str(prof.c2),
            "chi": to_string(prof.chi),
            "r0": prof.r0,
            "r_domain": [lo, hi],
        },
        "volume": "bh",
        "grid": {"r_min": lo + pad, "r_max": hi - pad, "r_count": 11, "s_count": 11},
        "diagnostics": {
            "pde_max_residual": built.pde_max_residual,
            "douglas_passed": built.douglas.passed,
            "douglas_max_residual": float(np.max(built.douglas.max_residual)),
            "regularity_passed": built.regularity.passed,
            "regularity_worst_margin": float(built.regularity.worst_margin),
        },
    }


def _table_dict(sol) -> dict:
    return {
        "table": {
            "r_nodes": sol.r_nodes.tolist(),
            "values": sol.values.tolist(),
            "derivs": sol.derivs.tolist(),
            "second_derivs": sol.second_derivs.tolist(),
        }
    }


def _construct_randers_bh(cfg: RunConfig, args) -> dict:
    p = cfg.construct
    for want in ("f", "h", "g_at_r0", "r_range"):
        _expect(want in p, f"construct section lacks '{want}'", f"construct.{want}")
    lo, hi = float(p["r_range"][0]), float(p["r_range"][1])
    sol = bh_solve_g(
        p["f"], p["h"], float(p["g_at_r0"]), (lo, hi),
        steps=int(p.get("steps", 400)), r0=p.get("r0"),
    )
    pad = 0.05 * (hi - lo)
    return {
        "n": cfg.n,
        "metric": {
            "kind": "randers",
            "f": p["f"],
            "g": _table_dict(sol),
            "h": p["h"],
            "r_domain": [lo, hi],
        },
        "volume": "bh",
        "grid": {"r_min": lo + pad, "r_max": hi - pad, "r_count": 11, "s_count": 11},
        "diagnostics": {
            "max_node_residual": sol.max_node_residual,
            "admissibility_margin": sol.admissibility_margin,
        },
    }


def _construct_randers_ht(cfg: RunConfig, args) -> dict:
    p = cfg.construct
    for want in ("c_const", "g", "h_at_r0", "r_range"):
        _expect(want in p, f"construct section lacks '{want}'", f"construct.{want}")
    c_const = float(p["c_const"])
    lo, hi = float(p["r_range"][0]), float(p["r_range"][1])
    sol = ht_solve_h(
        c_const, p["g"], float(p["h_at_r0"]), (lo, hi),
        steps=int(p.get("steps", 400)), r0=p.get("r0"),
    )
    pad = 0.05 * (hi - lo)
    return {
        "n": cfg.n,
        "c_const": c_const,
        "metric": {
            "kind": "randers",
            "f": "%.17g/r^2" % c_const,
            "g": p["g"],
            "h": _table_dict(sol),
            "r_domain": [lo, hi],
        },
        "volume": "ht",
        "grid": {"r_min": lo + pad, "r_max": hi - pad, "r_count": 11, "s_count": 11},
        "diagnostics": {
            "max_node_residual": sol.max_node_residual,
            "admissible": sol.admissible,
            "admissibility_margin": sol.admissibility_margin,
        },
    }


def cmd_construct(cfg: RunConfig, args) -> int:
    builder = {
        "berwald": _construct_berwald,
        "randers-bh": _construct_randers_bh,
        "randers-ht": _construct_randers_ht,
    }[args.family]
    out = builder(cfg, args)
    out["config_echo"] = cfg.raw
    _dump_report(args, cfg, out)
    return 0


# -- entry point -------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for counts: a decimal integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    """argparse type for tolerances: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="verification lab for spherically symmetric Finsler metrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, needs in (
        ("analyze", ()),
        ("verify", ("check",)),
        ("construct", ("family",)),
        ("sample", ()),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON run configuration")
        if "check" in needs:
            p.add_argument("--check", required=True, choices=CHECKS)
        if "family" in needs:
            p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--tol", type=_positive_float, default=None, help="tolerance override")
        p.add_argument("--quad", type=_positive_int, default=None, help="quadrature node count")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    return ap


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "construct": cmd_construct,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ParseError, UnknownIdentifierError, DegenerateInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegularityError as exc:
        print(f"regularity failure: {exc}", file=sys.stderr)
        return 4
    except (
        QuadratureError,
        CrossCheckError,
        DomainError,
        DomainExitError,
        OverflowError,
        ZeroDivisionError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
