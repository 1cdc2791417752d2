"""Per-module tracing of finslerlab, installed from outside the package.

Public functions of each module are replaced by wrappers at their definition
and at every module that bound them with ``from .x import name``.  A wrapper
either records a span (name, start, end, parent, work) or, for the hot leaves
(``Jet3`` arithmetic and expression evaluation), adds its call count and time
to the enclosing span instead of recording one span per call.

Spans stay in memory and are written out by ``dump``.  ``layer_sums`` turns
a trace into per-layer sums and ``layer_metrics`` forms the metrics and
ratios from them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# span layers: module -> public functions recorded as spans
SPANS = {
    "cli": ("main", "load_config", "build_spec"),
    "geometry": ("phi_jet", "phi_jet_unchecked", "spray_values", "metric_determinant",
                 "regularity_scan", "assemble_metric_matrix"),
    "quadrature": ("refine", "segment_integral"),
    "volume": ("density", "sigma_bh", "sigma_ht", "f_coefficient"),
    "scurvature": ("isotropy_profile", "reduced_s", "reduced_s_given_f"),
    "douglas": ("douglas_verdict", "fit_q"),
    "families": ("build_berwald_family", "bh_solve_g", "ht_solve_h",
                 "bh_classification_residuals", "ht_condition_residual",
                 "family_pde_residual", "spray_system_residual"),
    "randers": ("christoffel_coefficients", "covariant_b_coefficients", "randers_coefficients",
                "randers_reduced_s", "sigma_closed_form", "isotropy_condition_check"),
    "oracle": ("s_by_distortion", "integrate_geodesic", "distortion", "finsler_norm"),
}
# hot leaves: aggregated per enclosing span
JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "compose", "sqrt", "exp", "log", "sin", "cos", "atan",
           "powi", "powr", "deriv")
EXPR_LEAVES = ("eval_tree", "eval_value")

# span record layout
NAME, T0, T1, PARENT, WORK = range(5)
JET_BUSY, MUL_CALLS, MUL_ELEMS, TREE_CALLS, VALUE_CALLS, EXPR_BUSY, LEAF_OUTER = range(5, 12)
_JETS, _EXPR = 1, 2


def _width(jet) -> int:
    return int(np.size(jet.c[0]))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.root = [-1, 0.0, 0.0, -1, 0, 0.0, 0, 0, 0, 0, 0.0, 0.0]
        self.cur = self.root
        self.cur_index = -1
        self.active = 0  # bit set of leaf modules with a call in progress
        self.on = False
        self.originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, work=None, count_arg0=False):
        tr = self
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def wrapper(*a, **k):
            if not tr.on:
                return fn(*a, **k)
            rec = [name_id, 0.0, 0.0, tr.cur_index, work(a) if work else 0,
                   0.0, 0, 0, 0, 0, 0.0, 0.0]
            tr.spans.append(rec)
            prev, prev_index = tr.cur, tr.cur_index
            tr.cur, tr.cur_index = rec, len(tr.spans) - 1
            if count_arg0:  # refine(eval_at_n, rule): count the evaluations
                inner = a[0]

                def counted(n):
                    rec[WORK] += 1
                    return inner(n)

                a = (counted,) + a[1:]
            rec[T0] = clock()
            try:
                return fn(*a, **k)
            finally:
                rec[T1] = clock()
                tr.cur, tr.cur_index = prev, prev_index

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, bit: int, fn, kind: str):
        tr = self
        clock = time.perf_counter
        busy = JET_BUSY if bit == _JETS else EXPR_BUSY

        def wrapper(*a, **k):
            if not tr.on:
                return fn(*a, **k)
            rec = tr.cur
            if kind == "mul":
                rec[MUL_CALLS] += 1
                other = a[1]
                rec[MUL_ELEMS] += max(_width(a[0]), _width(other) if hasattr(other, "c") else 1)
            elif kind == "tree":
                rec[TREE_CALLS] += 1
            elif kind == "value":
                rec[VALUE_CALLS] += 1
            if tr.active & bit:
                return fn(*a, **k)
            outer = tr.active == 0
            tr.active |= bit
            t0 = clock()
            try:
                return fn(*a, **k)
            finally:
                dt = clock() - t0
                tr.active &= ~bit
                rec[busy] += dt
                if outer:
                    rec[LEAF_OUTER] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name and check that each binding is the wrapper."""
        mods = {m: importlib.import_module(f"finslerlab.{m}") for m in (*SPANS, "jets", "expr")}
        for mod, names in SPANS.items():
            for name in names:
                orig = getattr(mods[mod], name)
                kw = {}
                if (mod, name) in (("geometry", "phi_jet"), ("geometry", "phi_jet_unchecked")):
                    kw["work"] = lambda a: int(np.broadcast(np.asarray(a[1]), np.asarray(a[2])).size)
                if (mod, name) == ("quadrature", "refine"):
                    kw["count_arg0"] = True
                self._replace(orig, self._span(f"{mod}.{name}", orig, **kw))
        jet3 = mods["jets"].Jet3
        for name in JET_OPS:
            orig = jet3.__dict__[name]
            if not hasattr(orig, "__wrapped__"):  # __radd__, __rmul__ alias __add__, __mul__
                kind = "mul" if name in ("__mul__", "__rmul__") else "jet"
                self._replace(orig, self._leaf(_JETS, orig, kind))
        for name in EXPR_LEAVES:
            orig = getattr(mods["expr"], name)
            self._replace(orig, self._leaf(_EXPR, orig, name[5:]))
        self.check_bindings()

    def _replace(self, orig, wrapper) -> None:
        self.originals[id(orig)] = (orig, wrapper)
        for holder in self._holders():
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapper)

    @staticmethod
    def _holders():
        """finslerlab modules and the classes they define."""
        for name, mod in list(sys.modules.items()):
            if name == "finslerlab" or name.startswith("finslerlab."):
                yield mod
                for value in list(vars(mod).values()):
                    if isinstance(value, type) and value.__module__ == name:
                        yield value

    def check_bindings(self) -> None:
        """Raise unless no module, class or module-level container holds an original."""
        for holder in self._holders():
            for key, value in vars(holder).items():
                items = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, (tuple, list)) else (value,))
                for item in items:
                    got = self.originals.get(id(item))
                    if got is not None and got[0] is item:
                        raise RuntimeError(
                            f"{getattr(holder, '__name__', holder)}.{key} still binds the "
                            f"unwrapped {getattr(item, '__name__', item)}")

    # -- output ------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "root": self.root, "spans": self.spans, **extra}, fh)


# -- per-layer metrics -----------------------------------------------------------


def layer_sums(trace: dict) -> dict:
    """Additive per-layer sums of one trace (as written by Tracer.dump)."""
    names = trace["names"]
    spans = trace["spans"]
    module = [n.split(".")[0] for n in names]
    mod_ids = {m: i for i, m in enumerate(sorted(set(module)))}
    name_bit = [1 << i for i in range(len(names))]
    mod_bit = [1 << mod_ids[m] for m in module]
    anc_names = [0] * len(spans)  # names on the path above each span
    anc_mods = [0] * len(spans)
    child_time = [0.0] * len(spans)
    sums: dict[str, float] = {}

    def add(key, v):
        sums[key] = sums.get(key, 0.0) + v

    sbd = name_bit[names.index("oracle.s_by_distortion")]
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if p >= 0:
            anc_names[i] = anc_names[p] | name_bit[spans[p][NAME]]
            anc_mods[i] = anc_mods[p] | mod_bit[spans[p][NAME]]
            child_time[p] += rec[T1] - rec[T0]
    for i, rec in enumerate(spans):
        name = names[rec[NAME]]
        mod = module[rec[NAME]]
        dur = rec[T1] - rec[T0]
        add(f"{mod}.self_s", dur - child_time[i] - rec[LEAF_OUTER])
        if not anc_mods[i] & mod_bit[rec[NAME]]:
            add(f"{mod}.busy_s", dur)
        outermost = not anc_names[i] & name_bit[rec[NAME]]
        add(f"{name}.calls", 1)
        if outermost:
            add(f"{name}.s", dur)
        add(f"{name}.work", rec[WORK])
        if name == "volume.density" and rec[PARENT] >= 0 and \
                names[spans[rec[PARENT]][NAME]] == "volume.f_coefficient":
            add("volume.crosscheck_s", dur)
        if name == "geometry.spray_values" and anc_names[i] & sbd:
            add("oracle.spray_evals", 1)
    for rec in (trace["root"], *spans):
        add("jets.mul_calls", rec[MUL_CALLS])
        add("jets.mul_elems", rec[MUL_ELEMS])
        add("jets.busy_s", rec[JET_BUSY])
        add("expr.eval_tree_calls", rec[TREE_CALLS])
        add("expr.eval_value_calls", rec[VALUE_CALLS])
        add("expr.busy_s", rec[EXPR_BUSY])
    hits, misses = trace["node_jets"]
    add("volume.node_jets_hits", hits)
    add("volume.node_jets_lookups", hits + misses)
    add("cli.import_s", trace["import_s"])
    return sums


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better); the values come from layer_metrics
PER_LAYER = {
    "jets.mul_calls": ("count", "lower"),
    "jets.elems_per_mul": ("elem/call", "higher"),
    "jets.busy_s": ("s", "lower"),
    "expr.eval_tree_calls": ("count", "lower"),
    "expr.eval_value_calls": ("count", "lower"),
    "expr.busy_s": ("s", "lower"),
    "geometry.phi_jet_calls": ("count", "lower"),
    "geometry.points_per_phi_jet": ("point/call", "higher"),
    "geometry.spray_values_calls": ("count", "lower"),
    "geometry.regularity_scan_s": ("s", "lower"),
    "geometry.self_s": ("s", "lower"),
    "quadrature.refine_calls": ("count", "lower"),
    "quadrature.evals_per_refine": ("eval/call", "lower"),
    "quadrature.segment_integral_calls": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "volume.f_coefficient_calls": ("count", "lower"),
    "volume.density_calls": ("count", "lower"),
    "volume.crosscheck_s": ("s", "lower"),
    "volume.node_jets_hit_ratio": ("ratio", "higher"),
    "volume.self_s": ("s", "lower"),
    "scurvature.isotropy_profile_s": ("s", "lower"),
    "scurvature.self_s": ("s", "lower"),
    "douglas.douglas_verdict_s": ("s", "lower"),
    "douglas.self_s": ("s", "lower"),
    "families.build_s": ("s", "lower"),
    "families.solve_s": ("s", "lower"),
    "families.self_s": ("s", "lower"),
    "randers.busy_s": ("s", "lower"),
    "oracle.points": ("count", "higher"),
    "oracle.spray_evals_per_point": ("eval/point", "lower"),
    "oracle.s_by_distortion_s": ("s", "lower"),
    "oracle.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.build_spec_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(s: dict, overhead_s: float) -> dict:
    g = s.get
    values = {
        "jets.mul_calls": g("jets.mul_calls", 0),
        "jets.elems_per_mul": _ratio(g("jets.mul_elems", 0), g("jets.mul_calls", 0)),
        "jets.busy_s": g("jets.busy_s", 0),
        "expr.eval_tree_calls": g("expr.eval_tree_calls", 0),
        "expr.eval_value_calls": g("expr.eval_value_calls", 0),
        "expr.busy_s": g("expr.busy_s", 0),
        "geometry.phi_jet_calls": g("geometry.phi_jet.calls", 0),
        "geometry.points_per_phi_jet": _ratio(g("geometry.phi_jet.work", 0),
                                              g("geometry.phi_jet.calls", 0)),
        "geometry.spray_values_calls": g("geometry.spray_values.calls", 0),
        "geometry.regularity_scan_s": g("geometry.regularity_scan.s", 0),
        "geometry.self_s": g("geometry.self_s", 0),
        "quadrature.refine_calls": g("quadrature.refine.calls", 0),
        "quadrature.evals_per_refine": _ratio(g("quadrature.refine.work", 0),
                                              g("quadrature.refine.calls", 0)),
        "quadrature.segment_integral_calls": g("quadrature.segment_integral.calls", 0),
        "quadrature.self_s": g("quadrature.self_s", 0),
        "volume.f_coefficient_calls": g("volume.f_coefficient.calls", 0),
        "volume.density_calls": g("volume.density.calls", 0),
        "volume.crosscheck_s": g("volume.crosscheck_s", 0),
        "volume.node_jets_hit_ratio": _ratio(g("volume.node_jets_hits", 0),
                                             g("volume.node_jets_lookups", 0)),
        "volume.self_s": g("volume.self_s", 0),
        "scurvature.isotropy_profile_s": g("scurvature.isotropy_profile.s", 0),
        "scurvature.self_s": g("scurvature.self_s", 0),
        "douglas.douglas_verdict_s": g("douglas.douglas_verdict.s", 0),
        "douglas.self_s": g("douglas.self_s", 0),
        "families.build_s": g("families.build_berwald_family.s", 0),
        "families.solve_s": g("families.bh_solve_g.s", 0) + g("families.ht_solve_h.s", 0),
        "families.self_s": g("families.self_s", 0),
        "randers.busy_s": g("randers.busy_s", 0),
        "oracle.points": g("oracle.s_by_distortion.calls", 0),
        "oracle.spray_evals_per_point": _ratio(g("oracle.spray_evals", 0),
                                               g("oracle.s_by_distortion.calls", 0)),
        "oracle.s_by_distortion_s": g("oracle.s_by_distortion.s", 0),
        "oracle.self_s": g("oracle.self_s", 0),
        "cli.import_s": g("cli.import_s", 0),
        "cli.load_config_s": g("cli.load_config.s", 0),
        "cli.build_spec_s": g("cli.build_spec.s", 0),
        "cli.self_s": g("cli.self_s", 0),
        "trace.overhead_s": overhead_s,
    }
    return {k: {"value": float(v), "unit": PER_LAYER[k][0]} for k, v in values.items()}
