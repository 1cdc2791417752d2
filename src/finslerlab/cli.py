"""Batch front door: JSON configs in, verdict reports and grid dumps out.

Commands
--------
analyze    full grid report (phi, spray, determinant, density, S/u) as JSON
verify     one named verdict with residual statistics; exit 0 pass, 1 fail
construct  build a profile (Berwald-type family or a Randers branch) and
           write it back out as a self-contained, loadable config
sample     the analyze grid as deterministic CSV (regression fixture format)

Exit codes: 0 pass, 1 verdict fail, 2 config error, 3 numeric failure,
4 regularity failure, 5 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    certify_family,
    ht_condition_residual_of,
    ht_solve_h,
)
from .geometry import (
    BerwaldFamilyProfile,
    MetricSpec,
    batch_radii,
    embed_point,
    general_phi_spec,
    metric_determinant,
    randers_spec,
    regularity_scan,
    s_fractions,
)
from .oracle import _split, s_by_distortion
from .randers import randers_coefficients
from .scurvature import isotropy_profile, reduced_s, scurvature_columns
from .volume import VOLUMES, CustomDensity

CSV_HEADER = "r,s,phi,P,Q,Q_s,detg,sigma,f_r,S_over_u"

# -- config schema -------------------------------------------------------------

#: largest n: the regularity scan and the oracle work with n-vectors
DIMENSION_CAP = 100
#: largest grid.r_count and grid.s_count: every radius is evaluated in one batch
GRID_COUNT_CAP = 401
#: largest oracle.points: each point integrates two geodesics
ORACLE_POINTS_CAP = 1000
#: default oracle band, relative to 1 + |S|: the stencil's rounding error is about
#: 1e-12 on the bundled configs, and a 1e-9 slip in f(r) moves the gap past 2e-10
ORACLE_BAND = 1e-10
#: largest construct.steps: the emitted config holds four numbers per node
SOLVER_STEPS_CAP = 10_000
#: the columns of a sampled radial function, as construct writes them
_TABLE_KEYS = ("r_nodes", "values", "derivs", "second_derivs")


class _Wrong(Exception):
    """A value is not of its row's kind; the text, if any, says why."""


class Kind(NamedTuple):
    what: str  #: completes "'<path>' must be <what>"
    read: Callable  #: JSON value -> typed value; raises _Wrong


REQUIRED = object()  #: the default of a key that must be given


def _fail(path: str, what: str, value, why: str = ""):
    shown = "nothing" if value is REQUIRED else repr(value)
    shown = shown if len(shown) <= 80 else shown[:77] + "..."
    raise ConfigError(f"'{path}' must be {what}, got {shown}" + (f" ({why})" if why else ""),
                      key=path)


def _ok(value, holds: bool, why: str = ""):
    """value, if holds; else _Wrong(why)."""
    if not holds:
        raise _Wrong(why)
    return value


def _where(what: str, test) -> Kind:
    """The kind of the values that pass test, read as given."""
    return Kind(what, lambda v: _ok(v, test(v)))


def _integer(lo: int, hi: int) -> Kind:
    return _where(f"an integer from {lo} to {hi}", lambda v: type(v) is int and lo <= v <= hi)


def _finite(v) -> float:
    return float(_ok(v, type(v) is float and math.isfinite(v)
                     or type(v) is int and abs(v) <= sys.float_info.max))


def _finite_column(col: list):
    """The entries of a list, each read by _finite: a column of floats in one check."""
    if set(map(type, col)) == {float}:
        values = np.array(col, dtype=float)
        return _ok(values, bool(np.isfinite(values).all()))
    return [_finite(x) for x in col]


def _range(v) -> tuple[float, float]:
    lo, hi = map(_finite, _ok(v, isinstance(v, list) and len(v) == 2))
    return _ok((lo, hi), 0.0 < lo < hi)


def _expression(*names: str) -> Kind:
    def read(v):
        try:
            return parse_expression(_ok(v, isinstance(v, str)), set(names))
        except (ParseError, UnknownIdentifierError) as exc:
            raise _Wrong(str(exc)) from exc

    return Kind("an expression string in " + ", ".join(names), read)


def _closed(v) -> ScalarFunction:
    if isinstance(v, str):
        return ScalarFunction(_expression("r").read(v))
    return ScalarFunction.constant(_finite(v))


def _radial(v):
    if not isinstance(v, dict):
        return _closed(v)
    table = _ok(v.get("table"), isinstance(v.get("table"), dict))
    cols = [_ok(table.get(k), isinstance(table.get(k), list), f"table.{k} is not a list")
            for k in _TABLE_KEYS]
    try:
        return SampledFunction(*map(_finite_column, cols))
    except ValueError as exc:
        raise _Wrong(f"table: {exc}") from exc


def _volume(v):
    if isinstance(v, dict):
        return CustomDensity(_section("volume[custom]", v, {})["sigma"])
    _ok(v, isinstance(v, str) and v.lower() in VOLUMES)
    return VOLUMES[v.lower()]


def _grid_domain(known: dict):
    """metric.r_domain unless given: the grid, padded for the f(r) cross-check stencil."""
    if known["grid"] is None:
        return REQUIRED
    return [0.9 * known["grid.r_min"], 1.1 * known["grid.r_max"]]


NUMBER = Kind("a finite number", _finite)
POSITIVE = Kind("a positive finite number", lambda v: _ok(_finite(v), _finite(v) > 0.0))
RANGE = Kind("a [lo, hi] pair of finite numbers with 0 < lo < hi", _range)
CLOSED = Kind("an expression string in r or a finite number", _closed)
RADIAL = Kind('an expression string in r, a finite number or {"table": {r_nodes, values, '
              'derivs, second_derivs}}', _radial)
STEPS = _integer(16, SOLVER_STEPS_CAP)
OBJECT = _where("an object", lambda v: isinstance(v, dict))
SECTION = Kind("an object", None)  #: the object at SCHEMA[<key path>], read by _section

#: the spec of each metric kind, from its metric[<kind>] section's values and n
_SPECS = {
    "general": lambda m, n: general_phi_spec(m["phi"], n, m["r_domain"]),
    "randers": lambda m, n: randers_spec(m["f"], m["g"], m["h"], n, m["r_domain"]),
    "berwald-family": lambda m, n: MetricSpec(
        BerwaldFamilyProfile(c2=m["c2"], chi=m["chi"], r0=m["r0"]), n, m["r_domain"]),
}

#: Every key a command reads: SCHEMA[section][key] = (kind, default).  A section
#: is the key path of a config object, with the metric kind or construct family
#: it is for in brackets.  A default is a JSON value read as if given, None (the
#: key is optional), REQUIRED, or a function of the values read so far.  Other
#: keys are ignored: an emitted config carries its diagnostics and its input.
#: Under tolerances, load_config refuses them instead: no check would read one.
SCHEMA = {
    "": {
        "n": (_integer(2, DIMENSION_CAP), REQUIRED),
        "metric": (SECTION, REQUIRED),
        "volume": (Kind('bh | ht | constant | {"kind": "custom", "sigma": <radial function>}',
                        _volume), "bh"),
        "grid": (SECTION, None),
        "tolerances": (SECTION, {}),
        "oracle": (SECTION, {}),
        "output": (SECTION, {}),
        "seed": (_where("a non-negative integer", lambda v: type(v) is int and v >= 0), 0),
        "construct": (OBJECT, {}),
    },
    "volume[custom]": {"kind": (_where("custom", lambda v: v == "custom"), REQUIRED),
                       "sigma": (RADIAL, REQUIRED)},
    "grid": {"r_min": (POSITIVE, REQUIRED), "r_max": (POSITIVE, REQUIRED),
             "r_count": (_integer(2, GRID_COUNT_CAP), 21),
             "s_count": (_integer(5, GRID_COUNT_CAP), 21)},
    "tolerances": {"isotropy": (POSITIVE, None), "douglas": (POSITIVE, None)},
    "oracle": {"points": (_integer(1, ORACLE_POINTS_CAP), 10)},
    "output": {"path": (_where("a string", lambda v: isinstance(v, str)), None)},
    "metric": {"kind": (_where("one of " + " | ".join(_SPECS),
                               lambda v: isinstance(v, str) and v in _SPECS), REQUIRED)},
    "metric[general]": {"phi": (_expression("r", "s"), REQUIRED),
                        "r_domain": (RANGE, _grid_domain)},
    "metric[randers]": {"f": (RADIAL, REQUIRED), "g": (RADIAL, REQUIRED), "h": (RADIAL, REQUIRED),
                        "r_domain": (RANGE, _grid_domain)},
    "metric[berwald-family]": {"c2": (CLOSED, REQUIRED), "chi": (_expression("w"), REQUIRED),
                               "r0": (NUMBER, REQUIRED), "r_domain": (RANGE, _grid_domain)},
    "construct[berwald]": {"c2": (CLOSED, REQUIRED), "chi": (_expression("w"), REQUIRED),
                           "r0": (NUMBER, REQUIRED), "domain": (RANGE, REQUIRED)},
    "construct[randers-bh]": {"f": (RADIAL, REQUIRED), "h": (RADIAL, REQUIRED),
                              "g_at_r0": (NUMBER, REQUIRED), "r_range": (RANGE, REQUIRED),
                              "steps": (STEPS, 400), "r0": (NUMBER, None)},
    "construct[randers-ht]": {"c_const": (POSITIVE, REQUIRED), "g": (RADIAL, REQUIRED),
                              "h_at_r0": (NUMBER, REQUIRED), "r_range": (RANGE, REQUIRED),
                              "steps": (STEPS, 1600), "r0": (NUMBER, None)},
}


def _inside(x: float, bounds: tuple[float, float]) -> bool:
    return bounds[0] <= x <= bounds[1]


#: (key, relation, other key, test): once both keys have values, test(key's
#: value, other's value) must hold, or the error names the first key
RELATIONS = (
    ("grid.r_max", "above", "grid.r_min", lambda hi, lo: hi > lo),
    ("grid.r_min", "inside", "metric.r_domain", _inside),
    ("grid.r_max", "inside", "metric.r_domain", _inside),
    ("metric.r0", "inside", "metric.r_domain", _inside),
    ("construct.r0", "inside", "construct.domain", _inside),
    ("construct.r0", "inside", "construct.r_range", _inside),
)


def _section(name: str, obj, known: dict) -> dict:
    """Typed values of config object ``obj`` read against SCHEMA[name].

    Each value is also stored in ``known`` under its key path; then every
    relation with a key in this section and values for both keys is checked.
    """
    prefix = name.partition("[")[0]
    if not isinstance(obj, dict):
        _fail(prefix or "<root>", "an object", obj)
    out = {}
    for key, (kind, default) in SCHEMA[name].items():
        path = f"{prefix}.{key}" if prefix else key
        value = obj[key] if key in obj else default(known) if callable(default) else default
        if value is None and key not in obj:
            out[key] = known[path] = None
        elif kind is SECTION:
            out[key] = known[path] = _section(path, value, known)
        else:
            try:
                out[key] = known[path] = kind.read(_ok(value, value is not REQUIRED))
            except _Wrong as exc:
                _fail(path, kind.what, value, str(exc))
    for key, relation, other, holds in RELATIONS:
        here = prefix in (key.rpartition(".")[0], other.rpartition(".")[0])
        value, bound = known.get(key), known.get(other)
        if here and value is not None and bound is not None and not holds(value, bound):
            _fail(key, f"{relation} {other} = {bound!r}", value)
    return out


# -- config loading ----------------------------------------------------------


class RunConfig(SimpleNamespace):
    """A loaded config: each key of SCHEMA[""] as an attribute holding its typed value,
    ``raw`` (the file as read; build_spec and construct read their sections from it) and
    ``values`` (every typed value load_config read, by key path)."""


def load_config(path: str) -> RunConfig:
    """Read a config file and check its shared sections; exit 2 names a bad key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}", key="<file>") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, deep nesting
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}", key="<file>") from exc
    known = {}
    cfg = RunConfig(raw=raw, values=known, **_section("", raw, known))
    for key in raw.get("tolerances", {}):  # a tolerance no check reads is refused, not dropped
        if key not in cfg.tolerances:
            _fail(f"tolerances.{key}", "one of " + " | ".join(cfg.tolerances), key)
    return cfg


def build_spec(cfg: RunConfig) -> MetricSpec:
    """The metric of a loaded config, its section checked for the config's kind."""
    kind = cfg.metric["kind"]
    return _SPECS[kind](_section(f"metric[{kind}]", cfg.raw["metric"], dict(cfg.values)), cfg.n)


def _grids(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    if cfg.grid is None:
        _fail("grid", "an object for this command", REQUIRED)
    g = cfg.grid
    r_values = np.linspace(g["r_min"], g["r_max"], g["r_count"])
    return r_values, s_fractions(g["s_count"])


# -- report plumbing ---------------------------------------------------------


def _residual_block(res, r, s) -> dict:
    """max, mean and argmax point of |res|; r and s (or None) broadcast against res."""
    flat = np.abs(np.asarray(res, dtype=float)).ravel()
    i = int(np.argmax(flat))
    at = {k: None if v is None else float(np.broadcast_to(v, np.shape(res)).flat[i])
          for k, v in (("r", r), ("s", s))}
    return {"max": float(flat[i]), "mean": float(np.mean(flat)), "argmax": at}


def _write_text(args, cfg: RunConfig, text: str) -> None:
    path = args.out or cfg.output["path"]
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail("--out" if args.out else "output.path", "a writable file path", path,
                  exc.strerror or str(exc))
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


@lru_cache(maxsize=16)
def _encoder_at(depth: int):
    """The C JSON encoder of json.dumps(..., indent=2, sort_keys=True) for a container
    that holds no container and whose items stand at the given depth: the item
    separator starts each item's line, and only the brackets' lines are missing."""
    return json.encoder.c_make_encoder(None, json.JSONEncoder().default,
                                       json.encoder.encode_basestring_ascii, None, ": ",
                                       ",\n" + "  " * depth, True, False, True)


#: what json.dumps lays out over several lines
_CONTAINERS = (dict, list, tuple)


def _holds_container(items) -> bool:
    return any(isinstance(v, _CONTAINERS) for v in items)


def _report_json(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for obj at the given depth (string keys):
    each container that holds no container, and each list of such dicts, in one call
    of the C encoder; the containers above them here."""
    enc = _encoder_at(depth + 1)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return "".join(enc(obj, 0))  # a scalar, {} or []
    at, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    items = obj.values() if isinstance(obj, dict) else obj
    if not _holds_container(items):
        text = "".join(enc(obj, 0))
        return text[0] + inner + text[1:-1] + at + text[-1]
    if isinstance(obj, (list, tuple)) and all(
            isinstance(v, dict) and v and not _holds_container(v.values()) for v in obj):
        # "[{" body "}]" with every item, in and between the dicts, on a line at depth + 2;
        # an encoded string holds no raw newline, so "},\n...{" only ever joins two dicts
        text = "".join(_encoder_at(depth + 2)(obj, 0))
        inside = "\n" + "  " * (depth + 2)
        body = text[2:-2].replace("}," + inside + "{", inner + "}," + inner + "{" + inside)
        return "[" + inner + "{" + inside + body + inner + "}" + at + "]"
    if isinstance(obj, dict):
        parts = [f"{json.encoder.encode_basestring_ascii(k)}: {_report_json(v, depth + 1)}"
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + at + "}"
    return "[" + inner + ("," + inner).join(_report_json(v, depth + 1) for v in obj) + at + "]"


def _dump_report(args, cfg: RunConfig, report: dict) -> None:
    """The report as json.dumps(report, indent=2, sort_keys=True) writes it, and a newline."""
    _write_text(args, cfg, _report_json(report) + "\n")


# -- commands ----------------------------------------------------------------


def _grid_columns(cfg: RunConfig, spec: MetricSpec) -> tuple[dict, dict]:
    """The grid's columns, each (r_count, s_count), and the per-radius columns."""
    r_values, fracs = _grids(cfg)

    def columns(radii):
        cols, jet = scurvature_columns(spec, cfg.volume, radii, fracs)
        s = cols["s"]
        cols["detg"] = metric_determinant(spec, cols["r"], s, jet)
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
    scan = regularity_scan(spec)
    cols, per_radius = _grid_columns(cfg, spec)
    report = {
        "config_echo": cfg.raw,
        "regularity": {
            "passed": bool(scan.passed),
            "worst_margin": float(scan.worst_margin),
            "worst_point": {"r": scan.worst_point[0], "s": scan.worst_point[1]},
            "worst_condition": int(scan.worst_condition),
            "cholesky_ok": scan.cholesky_ok,
        },
        "per_radius": _records(per_radius),
        "grid": _records(cols),
    }
    _dump_report(args, cfg, report)
    return 0


def _csv_rows(cols: dict) -> list[str]:
    """The CSV_HEADER columns of each grid point, "%.17g" each (17 significant digits
    round-trip every float), in C order; r, sigma and f_r, constant along each radius's
    row, are formatted once per radius, from the row's first point."""
    names, once = CSV_HEADER.split(","), ("r", "sigma", "f_r")
    template = ",".join("%.17g" if k in once else "%%.17g" for k in names)
    per_radius = zip(*(cols[k][:, 0].tolist() for k in names if k in once))
    per_point = [cols[k].tolist() for k in names if k not in once]
    return [row % vals for i, fixed in enumerate(per_radius)
            for row in [template % fixed]  # once per radius; "%.17g" never prints a "%"
            for vals in zip(*(col[i] for col in per_point))]


def cmd_sample(cfg: RunConfig, args) -> int:
    spec = build_spec(cfg)
    cols, _ = _grid_columns(cfg, spec)
    _write_text(args, cfg, "\n".join([CSV_HEADER, *_csv_rows(cols)]) + "\n")
    return 0


class Verdict(NamedTuple):
    """What every verifier returns; cmd_verify turns it into the report."""

    passed: bool
    residual: np.ndarray  #: summarised by _residual_block
    r: np.ndarray  #: radius of each residual entry, broadcast against it
    s: np.ndarray | None  #: slope of each residual entry; None if the check has none
    per_radius: dict  #: equal-length columns, one row per radius (per point: oracle)


def _verify_isotropy(cfg, spec, r_values, fracs, tol, seed) -> Verdict:
    prof = isotropy_profile(spec, cfg.volume, r_values, s_fracs=fracs, tolerance=tol)
    rc = r_values[:, None]
    return Verdict(prof.passed, prof.c_values - prof.c_mean[:, None], rc, rc * fracs,
                   {"r": r_values, "c": prof.c_mean, "f_r": prof.f_values,
                    "spread": prof.c_spread, "tolerance": np.full(r_values.size, prof.tolerance)})


def _verify_douglas(cfg, spec, r_values, fracs, tol, seed) -> Verdict:
    fit = douglas_verdict(spec, r_values, fracs, tolerance=tol)
    rc = r_values[:, None]
    return Verdict(fit.passed, fit.residuals, rc, rc * fracs,
                   {"r": r_values, "c1": fit.c1, "c2": fit.c2, "max_residual": fit.max_residual,
                    "odd_residual": fit.odd_residual, "tolerance": fit.tolerance})


def _verify_family(cfg, spec, r_values, fracs, tol, seed) -> Verdict:
    # a failed regularity scan over metric.r_domain raises (exit 4); the PDE
    # residual and the Douglas fit are judged on the config grid
    built = certify_family(spec, r_values, fracs)
    fit, rc = built.douglas, r_values[:, None]
    return Verdict(built.pde_max_residual <= tol and fit.passed, built.pde, rc, rc * fracs,
                   {"r": r_values, "c1": fit.c1, "c2": fit.c2,
                    "pde_residual": np.max(built.pde, axis=1)})


def _verify_bh_classification(cfg, spec, r_values, fracs, tol, seed) -> Verdict:
    f, g, h = spec.profile.f, spec.profile.g, spec.profile.h
    bc = batch_radii(lambda radii: bh_classification_residuals(f, g, h, radii), r_values)
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.max(np.abs(bc.c))))
    return Verdict(bool(np.max(np.abs(bc.res2)) <= tol), bc.res2, r_values, None,
                   {"r": r_values, "c": bc.c, "res1": bc.res1, "res2": bc.res2,
                    "printed_ode_residual": bc.printed_ode_residual})


def _verify_ht_parallel(cfg, spec, r_values, fracs, tol, seed) -> Verdict:
    def batch(radii):  # f = c/r^2 with c the mean of r^2 f: where f is not, u1 fails
        d = randers_coefficients(spec.profile.f, spec.profile.g, spec.profile.h, radii)
        c = float(np.mean(d.r * d.r * d.f))
        return {"r": radii, "u1": d.u1, "u2": d.u2, "ht_residual": ht_condition_residual_of(c, d)}

    cols = batch_radii(batch, r_values)
    worst = np.max(np.abs([cols["u1"], cols["u2"], cols["ht_residual"]]), axis=0)
    return Verdict(bool(np.max(worst) <= tol), worst, r_values, None, cols)


def _verify_oracle(cfg, spec, r_values, fracs, tol, seed) -> Verdict:
    lo, hi = float(r_values[0]), float(r_values[-1])
    span = hi - lo
    rng = np.random.default_rng(seed)
    cols = {"r": [], "s": [], "oracle": [], "analytic": []}
    for _ in range(cfg.oracle["points"]):
        r = float(rng.uniform(lo + 0.05 * span, hi - 0.05 * span))
        frac = float(rng.uniform(-0.9, 0.9))
        x, y = embed_point(r, r * frac, cfg.n)
        y = y * float(rng.uniform(0.5, 2.0))
        u, _, s = _split(x, y)
        cols["r"].append(r)
        cols["s"].append(s)
        cols["oracle"].append(s_by_distortion(spec, cfg.volume, x, y))
        cols["analytic"].append(u * float(reduced_s(spec, cfg.volume, r, s)))
    cols = {k: np.asarray(v, dtype=float) for k, v in cols.items()}
    cols["diff"] = np.abs(cols["oracle"] - cols["analytic"])
    cols["band"] = tol * (1.0 + np.abs(cols["analytic"]))
    return Verdict(bool(np.all(cols["diff"] <= cols["band"])), cols["diff"], cols["r"],
                   cols["s"], cols)


class Check(NamedTuple):
    """A verify check, declared once: its verifier, the metric.kind it runs on (None: any)
    and its default tolerance (None: the verdict's own rule, relative to the sizes it
    fits), which tolerances.<check> (where SCHEMA has it) and then --tol override."""

    verify: Callable  #: (cfg, spec, r_values, s_fracs, tol, seed) -> Verdict
    kind: str | None
    tol: float | None


#: every verify check by name; cmd_verify resolves the inputs each verifier takes
_VERIFIERS = {
    "isotropy": Check(_verify_isotropy, None, None),
    "douglas": Check(_verify_douglas, None, None),
    "berwald-family": Check(_verify_family, "berwald-family", 1e-8),
    "bh-classification": Check(_verify_bh_classification, "randers", None),
    "ht-parallel": Check(_verify_ht_parallel, "randers", 1e-8),
    "oracle": Check(_verify_oracle, None, ORACLE_BAND),
}
CHECKS = tuple(_VERIFIERS)


def cmd_verify(cfg: RunConfig, args) -> int:
    check, kind = _VERIFIERS[args.check], cfg.metric["kind"]
    if check.kind not in (None, kind):
        _fail("metric.kind", f"{check.kind} for --check {args.check}", kind)
    spec = build_spec(cfg)
    r_values, fracs = _grids(cfg)
    tol = args.tol or cfg.tolerances.get(args.check) or check.tol  # each given one is > 0
    seed = cfg.seed if args.seed is None else args.seed
    verdict = check.verify(cfg, spec, r_values, fracs, tol, seed)
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


def _construct_berwald(cfg: RunConfig, p: dict) -> dict:
    built = build_berwald_family(p["c2"], p["chi"], p["r0"], p["domain"], cfg.n)
    prof = built.spec.profile
    return {
        "metric": {"kind": "berwald-family", "c2": str(prof.c2), "chi": to_string(prof.chi),
                   "r0": prof.r0},
        "volume": "bh",
        "diagnostics": {
            "pde_max_residual": built.pde_max_residual,
            "douglas_passed": built.douglas.passed,
            "douglas_max_residual": float(np.max(built.douglas.max_residual)),
            "regularity_passed": built.regularity.passed,
            "regularity_worst_margin": float(built.regularity.worst_margin),
            "cholesky_ok": built.regularity.cholesky_ok,
        },
    }


def _table_dict(sol) -> dict:
    return {"table": {k: getattr(sol, k).tolist() for k in _TABLE_KEYS}}


def _construct_randers_bh(cfg: RunConfig, p: dict) -> dict:
    sol = bh_solve_g(p["f"], p["h"], p["g_at_r0"], p["r_range"], steps=p["steps"], r0=p["r0"])
    return {
        "metric": {"kind": "randers", "f": cfg.construct["f"], "g": _table_dict(sol),
                   "h": cfg.construct["h"]},
        "volume": "bh",
        "diagnostics": {
            "max_node_residual": sol.max_node_residual,
            "admissibility_margin": sol.admissibility_margin,
        },
    }


def _construct_randers_ht(cfg: RunConfig, p: dict) -> dict:
    c_const = p["c_const"]
    sol = ht_solve_h(c_const, p["g"], p["h_at_r0"], p["r_range"], steps=p["steps"], r0=p["r0"])
    return {
        "metric": {"kind": "randers", "f": "%.17g/r^2" % c_const, "g": cfg.construct["g"],
                   "h": _table_dict(sol)},
        "volume": "ht",
        "diagnostics": {
            "max_node_residual": sol.max_node_residual,
            "admissible": sol.admissible,
            "admissibility_margin": sol.admissibility_margin,
        },
    }


_BUILDERS = {
    "berwald": _construct_berwald,
    "randers-bh": _construct_randers_bh,
    "randers-ht": _construct_randers_ht,
}


def cmd_construct(cfg: RunConfig, args) -> int:
    """Emit a loadable config: the builder's metric, volume and diagnostics on the
    construct domain, with an 11 x 11 grid inset 5% from its ends."""
    p = _section(f"construct[{args.family}]", cfg.construct, dict(cfg.values))
    lo, hi = p["domain"] if "domain" in p else p["r_range"]
    pad = 0.05 * (hi - lo)
    out = _BUILDERS[args.family](cfg, p)
    out["metric"]["r_domain"] = [lo, hi]
    out.update(n=cfg.n, config_echo=cfg.raw,
               grid={"r_min": lo + pad, "r_max": hi - pad, "r_count": 11, "s_count": 11})
    _dump_report(args, cfg, out)
    return 0


# -- entry point -------------------------------------------------------------


def _natural(text: str) -> int:
    """argparse type for seeds: a decimal integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="verification lab for spherically symmetric Finsler metrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON run configuration")
        if name == "verify":
            p.add_argument("--check", required=True, choices=CHECKS)
        if name == "construct":
            p.add_argument("--family", required=True, choices=_BUILDERS)
        p.add_argument("--out", default=None, help="output file path")
        if name == "verify":  # no other command reads a tolerance or a seed
            p.add_argument("--tol", type=_positive_float, default=None, help="tolerance override")
            p.add_argument("--seed", type=_natural, default=None, help="seed override")
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
    except (ConfigError, DegenerateInputError) as exc:
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
    except Exception as exc:  # a fault in finslerlab itself, not in the config or the numbers
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
