"""Compiled jet kernels against the reference walker: bits, types and errors."""

import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import reference_eval_tree, reference_family_jet, reference_randers_jet
from finslerlab import expr, geometry, jets, volume
from finslerlab.cli import build_spec, load_config
from finslerlab.errors import DomainError
from finslerlab.expr import (
    FUNCTIONS,
    Binary,
    Const,
    ExpressionTree,
    Pow,
    Unary,
    Var,
    eval_tree,
    parse_expression,
)
from finslerlab.geometry import embed_point
from finslerlab.jets import Jet3
from finslerlab.oracle import s_by_distortion

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# integer and half-integer exponents, and one the exponent check rejects
_EXPONENTS = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0, -1.5, -0.5, 0.5, 1.5, 2.5, 0.25)
# constants that reach every domain guard and the finite checks
_CONSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0, -1.5, 1e-310, 1e200)

_leaves = st.one_of(st.sampled_from((Var("r"), Var("s"))),
                    st.sampled_from(_CONSTANTS).map(Const))


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg", *FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.sampled_from(_EXPONENTS)),
    )


trees = st.recursive(_leaves, _extend, max_leaves=8).map(
    lambda root: ExpressionTree(root, frozenset({"r", "s"})))

_R = np.linspace(0.1, 0.9, 41)
_S = np.linspace(-0.5, 0.5, 41)  # holds s = 0 exactly


def _outcome(evaluate, tree, env):
    """The jet's coefficients, or what was raised: its type, message and subexpression."""
    try:
        return evaluate(tree, env).c
    except Exception as err:  # RuntimeWarnings are errors under the suite's filter
        return type(err), str(err), getattr(err, "subexpr", None)


def _same_bits(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return float(a).hex() == float(b).hex()


@given(trees, st.sampled_from((2, 3)), st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=300, deadline=None)
def test_kernel_equals_the_reference_walker(tree, order, point):
    """point None evaluates on 41-wide arrays, an index on one float of them."""
    r, s = (_R, _S) if point is None else (float(_R[point]), float(_S[point]))
    env = {"r": Jet3.seed(r, dr=1.0, order=order), "s": Jet3.seed(s, ds=1.0, order=order)}
    got, want = _outcome(eval_tree, tree, env), _outcome(reference_eval_tree, tree, env)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert len(got) == len(want)
        assert all(_same_bits(a, b) for a, b in zip(got, want)), (got, want)


@pytest.mark.parametrize("name", ["t", "k", "i0", "at", "bound", "scalar", "is_finite", "#"])
def test_a_variable_of_any_name_evaluates_as_the_walker_does(name):
    # a tree built directly may name its variables as a kernel names its locals
    tree = ExpressionTree(Binary("*", Unary("sqrt", Var(name)), Binary("+", Var(name), Var("r"))),
                          frozenset({name, "r"}))
    env = {name: Jet3.seed(0.7, dr=1.0), "r": Jet3.seed(0.3, ds=1.0)}
    assert eval_tree(tree, env).c == reference_eval_tree(tree, env).c


def test_missing_variable_is_named_before_evaluation():
    tree = parse_expression("r + log(0 * s)", {"r", "s"})
    with pytest.raises(DomainError, match=r"no value bound for variable\(s\) \['s'\]"):
        eval_tree(tree, {"r": Jet3.seed(0.5, dr=1.0)})


def test_trees_of_one_shape_share_one_kernel():
    jets.kernel_of.cache_clear()
    one = parse_expression("atan(2.5*r - s^3)/(0.75 + s^2)", {"r", "s"})
    two = parse_expression("atan(0.5*r - s^3)/(3 + s^2)", {"r", "s"})
    env = {"r": Jet3.seed(0.4, dr=1.0, order=2), "s": Jet3.seed(-0.2, ds=1.0, order=2)}
    for tree in (one, two, one, two):
        assert eval_tree(tree, env).c == reference_eval_tree(tree, env).c
    info = jets.kernel_of.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # later calls find the kernel on the tree
    eval_tree(one, {"r": Jet3.seed(0.4, dr=1.0), "s": Jet3.seed(-0.2, ds=1.0)})
    assert jets.kernel_of.cache_info().misses == 2  # one kernel per jet order


def test_an_evaluated_tree_pickles_without_its_kernels():
    tree = parse_expression("sqrt(1 + s^2) + r*s", {"r", "s"})
    env = {"r": Jet3.seed(0.4, dr=1.0), "s": Jet3.seed(-0.2, ds=1.0)}
    want = eval_tree(tree, env).c
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and "_bound" not in vars(again)
    assert eval_tree(again, env).c == want


def _on_every_binding(monkeypatch, name, replacement):
    """Replace name in every finslerlab module that bound it."""
    original = getattr(expr, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "finslerlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _oracle_values(config: str, count: int = 3) -> list[str]:
    """s_by_distortion at seeded points of a bundled config, as float.hex, cold caches."""
    geometry._family_table.cache_clear()
    volume._node_jets.cache_clear()
    cfg = load_config(str(CONFIGS / config))
    spec = build_spec(cfg)
    lo, hi = spec.r_domain
    rng = np.random.default_rng(2)
    out = []
    for _ in range(count):
        r = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
        x, y = embed_point(r, r * float(rng.uniform(-0.8, 0.8)), cfg.n)
        out.append(s_by_distortion(spec, cfg.volume, x, y).hex())
    return out


@pytest.mark.parametrize("config", ["funk_n2.json", "funk_randers_n3.json", "parallel_ht.json",
                                    "family_k.json"])
def test_oracle_is_bit_identical_to_the_reference_walker(monkeypatch, config):
    compiled = _oracle_values(config)
    walked = []
    _on_every_binding(monkeypatch, "eval_tree",
                      lambda tree, env: walked.append(tree) or reference_eval_tree(tree, env))
    # the Randers and family profile kernels record trees too: their references
    monkeypatch.setattr(geometry, "_randers_phi_jet", lambda p, r, s, order: walked.append(p)
                        or reference_randers_jet(p, r, s, order))
    monkeypatch.setattr(geometry, "_family_phi_jet", lambda spec, r, s, order: walked.append(spec)
                        or reference_family_jet(spec, r, s, order))
    assert _oracle_values(config) == compiled
    assert walked
