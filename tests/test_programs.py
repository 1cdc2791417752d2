"""Evaluation programs against the reference walker of tests/_support.

``expr.eval_tree`` runs a flat program over a tree's distinct subtrees, and
``expr.radial_jets``, the reader of a set of radius functions, runs the
expression trees among them as one program.  These tests draw trees whose
subtrees repeat, as shared nodes and as equal copies, and hold the programs to
a node-by-node walk and to per-function ``.jet`` calls: bits, coefficient
types and errors, on floats and arrays, through the reader and the Randers
profile jet, Randers data and BH classification that read through it.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import _reference_radial_jet, reference_eval_tree
from finslerlab import expr, geometry
from finslerlab.errors import DomainError
from finslerlab.expr import (FUNCTIONS, Binary, Const, ExpressionTree, Pow, ScalarFunction, Unary,
                             Var, eval_tree, parse_expression, radial_jets)
from finslerlab.families import SampledFunction, bh_classification_residuals
from finslerlab.jets import Jet3
from finslerlab.randers import randers_coefficients

# integer and half-integer exponents, and one the exponent check rejects
_EXPONENTS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -1.5, -0.5, 0.5, 1.5, 0.25)
# constants that reach every domain guard and the finite checks; -0.0 and 0.0
# differ in their bits, so they are not one subtree
_CONSTANTS = (0.0, -0.0, 0.5, 1.0, 2.0, -1.5, 1e-310, 1e200)

_R = np.linspace(0.1, 0.9, 41)
_FRACS = np.linspace(-0.95, 0.95, 9)


@st.composite
def _shared_roots(draw, variables):
    """A tree built bottom up, each node's operands drawn from the nodes made so
    far, so a subtree can occur many times: as one shared node or as an equal copy."""
    leaves = st.one_of(st.sampled_from([Var(v) for v in variables]),
                       st.sampled_from(_CONSTANTS).map(Const))
    nodes = draw(st.lists(leaves, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(("unary", "binary", "binary", "pow", "copy")))
        a = draw(st.sampled_from(nodes))
        if kind == "unary":
            node = Unary(draw(st.sampled_from(("neg", *FUNCTIONS))), a)
        elif kind == "binary":
            node = Binary(draw(st.sampled_from("+-*/")), a, draw(st.sampled_from(nodes)))
        elif kind == "pow":
            node = Pow(a, draw(st.sampled_from(_EXPONENTS)))
        else:
            node = copy.deepcopy(a)
        nodes.append(node)
    return nodes[-1]


def _trees(variables):
    return _shared_roots(variables).map(lambda root: ExpressionTree(root, frozenset(variables)))


def _outcome(evaluate, *args):
    """The result's coefficients (a list of them for several jets), or what was
    raised: its type, message and subexpression."""
    try:
        out = evaluate(*args)
    except Exception as err:  # RuntimeWarnings are errors under the suite's filter
        return type(err), str(err), getattr(err, "subexpr", None)
    return [jet.c for jet in out] if isinstance(out, list) else out.c


def _same_bits(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a is None or float(a).hex() == float(b).hex()


def _assert_same(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    assert not (isinstance(got, tuple) and isinstance(got[0], type)), (got, want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):  # one jet of several
            assert len(g) == len(w) and all(map(_same_bits, g, w)), (g, w)
        else:
            assert _same_bits(g, w), (got, want)


def _rs(shape, point):
    """r and s as floats (a point of the grid), as (41, 1) columns or as (41, 9) arrays."""
    if shape == "float":
        return float(_R[point]), float(_R[point] * _FRACS[point % 9])
    r = _R[:, None]
    return (r, r * _FRACS[point % 9]) if shape == "column" else (r, r * _FRACS)


_SHAPES = st.sampled_from(("float", "column", "array"))


@given(_trees(("r", "s")), st.sampled_from((2, 3)), _SHAPES, st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_a_program_over_shared_subtrees_equals_the_walk(tree, order, shape, point):
    r, s = _rs(shape, point)
    env = {"r": Jet3.seed(r, dr=1.0, order=order), "s": Jet3.seed(s, ds=1.0, order=order)}
    _assert_same(_outcome(eval_tree, tree, env), _outcome(reference_eval_tree, tree, env))


@given(st.lists(_trees(("r",)), min_size=1, max_size=4), st.sampled_from((2, 3)),
       st.sampled_from((0, 1, 3)), st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=120, deadline=None)
def test_several_trees_in_one_program_equal_their_walks_in_order(trees, order, r_order, point):
    # equal copies of one subtree across the trees are one subtree of the program
    fns = [ScalarFunction(tree) for tree in (*trees, copy.deepcopy(trees[0]))]
    r = _R if point is None else float(_R[point])
    _assert_same(_outcome(radial_jets, fns, r, order, r_order),
                 _outcome(_walked, fns, r, order, r_order))


def test_a_repeated_subtree_is_computed_once(monkeypatch):
    calls = []
    sin = Jet3.sin
    monkeypatch.setattr(Jet3, "sin", lambda self: calls.append(self) or sin(self))
    tree = parse_expression("sin(r^2 + s) * (1 + sin(r^2 + s))/sin(r^2 + s)", {"r", "s"})
    env = {"r": Jet3.seed(0.4, dr=1.0), "s": Jet3.seed(0.1, ds=1.0)}
    got = eval_tree(tree, env).c
    assert len(calls) == 1
    assert got == reference_eval_tree(tree, env).c
    assert len(calls) == 4  # the walk computes each occurrence


def test_constants_and_exponents_of_other_bits_are_other_subtrees():
    r = Var("r")
    sums = Binary("*", Binary("+", r, Const(0.0)), Binary("+", Var("r"), Const(-0.0)))
    roots = Binary("+", Binary("+", Pow(r, 0.5), Pow(Var("r"), 0.5)), Pow(r, -0.5))
    tree = ExpressionTree(Binary("-", sums, roots), frozenset({"r"}))
    for value in (0.3, np.array([0.3, 0.7])):
        env = {"r": Jet3.seed(value, dr=1.0)}
        _assert_same(eval_tree(tree, env).c, reference_eval_tree(tree, env).c)
    init, inputs, steps, _ = expr._PROGRAMS[(id(tree),)][1]
    assert [jet.value for jet in init if jet is not None] == [0.0, -0.0]
    assert [math.copysign(1.0, jet.value) for jet in init if jet is not None] == [1.0, -1.0]
    # r + 0.0, r + -0.0, their product, r^0.5 once, the sum, r^-0.5, the sum, the root
    assert len(inputs) == 1 and len(steps) == 8


def test_a_text_parsed_again_gives_its_tree_and_program():
    text = "sqrt(1 - r^2 + s^2)/(1 - r^2)"
    tree = parse_expression(text, {"r", "s"})
    assert parse_expression(text, ["s", "r"]) is tree
    assert parse_expression(text, {"r", "s", "w"}) is not tree
    env = {"r": Jet3.seed(0.2, dr=1.0), "s": Jet3.seed(0.1, ds=1.0)}
    eval_tree(tree, env)
    kept = expr._PROGRAMS[(id(tree),)]
    eval_tree(parse_expression(text, {"r", "s"}), env)
    assert expr._PROGRAMS[(id(tree),)] is kept
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and again is not tree and hash(again) == hash(tree)


def test_the_kept_tables_are_bounded():
    expr._PARSED.clear()
    expr._PROGRAMS.clear()
    env = {"r": Jet3.seed(0.5, dr=1.0)}
    for k in range(expr.KEPT + 5):
        eval_tree(parse_expression(f"r + {k}", {"r"}), env)
        assert len(expr._PARSED) <= expr.KEPT and len(expr._PROGRAMS) <= expr.KEPT
    tree = parse_expression("r + 3", {"r"})
    assert eval_tree(tree, env).c == reference_eval_tree(tree, env).c


# -- radius functions: f, g and h as one program ---------------------------------------

_NODES = np.linspace(0.05, 0.95, 10)
SAMPLED = SampledFunction(_NODES, 1.0 + 0.3 * _NODES**2, 0.6 * _NODES, 0.6 + 0.0 * _NODES)


class _Raising:
    """A radius function whose jet raises a DomainError of its own."""

    def jet(self, r, order=3, r_order=3):
        raise DomainError("the table refuses")


_FUNK = tuple(ScalarFunction.from_text(t) for t in ("1/(1 - r^2)", "1/(1 - r^2)^2",
                                                    "1/(1 - r^2)"))
_radial_fns = st.one_of(st.just(SAMPLED), st.just(_Raising()), st.sampled_from(_FUNK),
                        _trees(("r",)).map(ScalarFunction))


def _one_by_one(fns, r, order, r_order):
    return [fn.jet(r, order, r_order) for fn in fns]


def _walked(fns, r, order, r_order):
    return [_reference_radial_jet(fn, r, order, r_order) for fn in fns]


@given(_radial_fns, _radial_fns, _radial_fns, st.sampled_from((2, 3)), st.sampled_from((0, 1, 3)),
       st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=200, deadline=None)
def test_randers_radial_program_equals_each_functions_jet(f, g, h, order, r_order, point):
    r = _R if point is None else float(_R[point])
    fns = (f, g, h)
    got = _outcome(radial_jets, fns, r, order, r_order)
    _assert_same(got, _outcome(_one_by_one, fns, r, order, r_order))
    _assert_same(got, _outcome(_walked, fns, r, order, r_order))


_GOOD, _BAD_F, _BAD_G, _BAD_H = (ScalarFunction.from_text(t) for t in (
    "1/(1 - r^2)", "log(r - 2)/(1 - r^2)", "1/(1 - r^2)^2 + sqrt(r - 3)",
    "1/(1 - r^2) + 1/(r - r)"))


def _phi_jet(fns, order, r_order):
    spec = geometry.MetricSpec(geometry.RandersProfile(*fns), 3, (0.05, 0.95))
    return geometry.phi_jet(spec, 0.5, 0.1, order, r_order)


_PROFILE_READERS = (lambda fns, order, r_order: radial_jets(fns, 0.5, order, r_order), _phi_jet)


@pytest.mark.parametrize("fns, message", [
    ((_BAD_F, _BAD_G, _BAD_H), "log of non-positive value -1.5 in 'log(r - 2)'"),
    ((_GOOD, _BAD_G, _BAD_H), "sqrt of non-positive value -2.5 in 'sqrt(r - 3)'"),
    ((_GOOD, _GOOD, _BAD_H), "division by (near-)zero value 0.0 in '1 / (r - r)'"),
    ((SAMPLED, _BAD_G, _BAD_H), "sqrt of non-positive value -2.5 in 'sqrt(r - 3)'"),
    ((_GOOD, _Raising(), _BAD_H), "the table refuses"),
    ((_BAD_F, _Raising(), _GOOD), "log of non-positive value -1.5 in 'log(r - 2)'"),
    ((_GOOD, SAMPLED, _BAD_H), "division by (near-)zero value 0.0 in '1 / (r - r)'"),
    # a RuntimeWarning, an error under the suite's filter, after the table's error
    ((_Raising(), ScalarFunction.from_text("exp(1e200*r)"), _GOOD), "the table refuses"),
], ids=["f", "g", "h", "table-g", "raising-table", "f-before-table", "h-after-table",
        "table-before-a-warning"])
@pytest.mark.parametrize("readers, order, r_order", [
    (_PROFILE_READERS, 2, 0), (_PROFILE_READERS, 2, 1), (_PROFILE_READERS, 3, 3),
    # the Randers data read order-2, r-order-1 jets
    ((lambda fns, *_: randers_coefficients(*fns, 0.5),), 2, 1),
    ((lambda fns, *_: bh_classification_residuals(*fns, 0.5),), 2, 1),
], ids=["2-0", "2-1", "3-3", "randers_coefficients", "bh_classification_residuals"])
def test_randers_radial_program_raises_what_f_then_g_then_h_raise(fns, message, readers, order,
                                                                   r_order):
    with pytest.raises(DomainError) as one_by_one:
        _one_by_one(fns, 0.5, order, r_order)
    assert str(one_by_one.value) == message
    for read in readers:
        with pytest.raises(DomainError) as err:
            read(fns, order, r_order)
        assert str(err.value) == message
        assert err.value.subexpr == one_by_one.value.subexpr


def test_funk_randers_data_run_as_one_program_with_f_and_h_one_subtree(monkeypatch):
    products = []
    mul = Jet3.__mul__
    monkeypatch.setattr(Jet3, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    f, g, _ = _FUNK
    fns = (f, g, ScalarFunction(copy.deepcopy(f.tree)))  # h equals f, as another tree
    got = radial_jets(fns, 0.5, 2, 3)
    assert len(products) == 4  # r^2, 1/(1 - r^2), (1 - r^2)^2 and 1/(1 - r^2)^2
    products.clear()
    want = _one_by_one(fns, 0.5, 2, 3)
    assert len(products) == 7
    assert got[0] is got[2]
    _assert_same([j.c for j in got], [j.c for j in want])
