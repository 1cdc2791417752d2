"""Parser structure, error reporting, evaluation and the FD derivative oracle."""

import numpy as np
import pytest

from _support import (
    fd_reference_jet,
    random_expression_text,
    sample_points,
    tree_jet,
    tree_point_fn,
    well_behaved_at,
)
from finslerlab.errors import DomainError, ParseError, UnknownIdentifierError
from finslerlab.expr import (
    Binary,
    Const,
    Pow,
    ScalarFunction,
    Unary,
    Var,
    eval_value,
    parse_expression,
    to_string,
)

CORPUS = [
    "1",
    "sqrt(1+s^2)+s",
    "(sqrt(1 - r^2 + s^2) + s)/(1 - r^2)",
    "sqrt(1 + s^2) + (r/20)*s^3",
    "1/(1 - r^2)^2",
    "exp(-r^2)*cos(s) + atan(r*s)",
    "r^-2 + s^0.5 + 2.5e-1",
    "-r^2 + (-r)^2",
    "log(2 + sin(r - s))",
]


def test_parse_structure_sqrt_sum():
    tree = parse_expression("sqrt(1+s^2)+s", {"r", "s"})
    root = tree.root
    assert isinstance(root, Binary) and root.op == "+"
    assert isinstance(root.left, Unary) and root.left.op == "sqrt"
    inner = root.left.arg
    assert isinstance(inner, Binary) and inner.op == "+"
    assert isinstance(inner.left, Const) and inner.left.value == 1.0
    assert isinstance(inner.right, Pow) and inner.right.exponent == 2.0
    assert isinstance(root.right, Var) and root.right.name == "s"


def test_parse_funk_profile_well_formed():
    tree = parse_expression("(sqrt(1-r^2+s^2)+s)/(1-r^2)", {"r", "s"})
    assert tree.variables == frozenset({"r", "s"})


def test_incomplete_expression_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("s +", {"r", "s"})
    assert exc.value.position == 3


def test_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_expression("r + q", {"r", "s"})
    assert exc.value.name == "q"


def test_undeclared_variable_rejected():
    with pytest.raises(UnknownIdentifierError):
        parse_expression("r + s", {"r"})


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_expression("r ? s", {"r", "s"})


def test_exponent_must_be_half_integer():
    with pytest.raises(ParseError):
        parse_expression("r^0.25", {"r"})
    assert parse_expression("r^-2", {"r"})
    assert parse_expression("r^1.5", {"r"})


def test_negation_binds_below_power():
    # -r^2 parses as -(r^2), so -r^2 + 4 at r=2 is 0
    tree = parse_expression("-r^2 + 4", {"r"})
    assert eval_value(tree, {"r": 2.0}) == 0.0


def test_scientific_notation_constants():
    tree = parse_expression("2.5e-1 + 1E2", {"r"})
    assert eval_value(tree, {"r": 1.0}) == pytest.approx(100.25)


@pytest.mark.parametrize("text", CORPUS)
def test_parse_print_parse_idempotent(text):
    tree = parse_expression(text, {"r", "s"})
    printed = to_string(tree)
    again = parse_expression(printed, {"r", "s"})
    assert again.root == tree.root
    assert to_string(again) == printed


def test_parse_print_parse_on_random_corpus():
    rng = np.random.default_rng(11)
    for _ in range(40):
        text = random_expression_text(rng, depth=4)
        tree = parse_expression(text, {"r", "s"})
        printed = to_string(tree)
        assert parse_expression(printed, {"r", "s"}).root == tree.root


def test_eval_jet_polynomial():
    jet = tree_jet(parse_expression("s^2", {"r", "s"}), 0.7, 0.3)
    assert jet.d(0, 0) == pytest.approx(0.09)
    assert jet.d(0, 1) == pytest.approx(0.6)
    assert jet.d(0, 2) == pytest.approx(2.0)
    assert jet.d(1, 0) == 0.0
    assert jet.d(3, 0) == 0.0


def test_eval_jet_mixed_partial_exp():
    jet = tree_jet(parse_expression("exp(r*s)", {"r", "s"}), 0.0, 0.0)
    assert jet.d(1, 1) == pytest.approx(1.0)
    assert jet.d(1, 0) == 0.0


def test_eval_jet_constant():
    jet = tree_jet(parse_expression("7", {"r", "s"}), 0.3, 0.1)
    assert jet.d(0, 0) == 7.0
    assert all(jet.d(a, b) == 0.0 for a in range(4) for b in range(4 - a) if a + b)


def test_eval_jet_vs_fd_on_fixed_corpus():
    rng = np.random.default_rng(3)
    for text in CORPUS:
        tree = parse_expression(text, {"r", "s"})
        fn = tree_point_fn(tree)
        for r, s in sample_points(rng, 4, r_box=(0.4, 0.8), s_box=(0.1, 0.45)):
            jet = tree_jet(tree, r, s)
            for (a, b), fd in fd_reference_jet(fn, r, s).items():
                jv = float(jet.d(a, b))
                if abs(fd) >= 1e-3:
                    assert jv == pytest.approx(fd, rel=1e-5), (text, (a, b))
                else:
                    assert jv == pytest.approx(fd, abs=1e-8), (text, (a, b))


def test_domain_error_names_subexpression():
    tree = parse_expression("1/(r - s)", {"r", "s"})
    with pytest.raises(DomainError) as exc:
        tree_jet(tree, 0.5, 0.5)
    assert "r - s" in str(exc.value)


@pytest.mark.parametrize(
    "text, subexpr, scalar_msg, array_msg",
    [
        ("sqrt(r - 2) + 1", "sqrt(r - 2)",
         "sqrt of non-positive value -1.0", "sqrt of non-positive value (array, e.g. -1.5)"),
        ("log(-r)", "log(-r)",
         "log of non-positive value -1.0", "log of non-positive value (array, e.g. -0.5)"),
        ("1/(r - r)", "1 / (r - r)",
         "division by (near-)zero value 0.0", "division by (near-)zero value (array, e.g. 0.0)"),
        ("exp(1000*r) + s", "exp(1000 * r)", "non-finite result", "non-finite result"),
    ],
)
def test_domain_error_text_and_subexpression(text, subexpr, scalar_msg, array_msg):
    tree = parse_expression(text, {"r", "s"})
    # a one-element array (one radius replayed from a batch) reads like the scalar
    for r, msg in ((1.0, scalar_msg), (np.array([1.0]), scalar_msg),
                   (np.array([0.5, 1.0, 1.5]), array_msg)):
        with pytest.raises(DomainError) as exc, np.errstate(all="ignore"):
            tree_jet(tree, r, 0.25)
        assert exc.value.subexpr == subexpr
        assert str(exc.value) == f"{msg} in '{subexpr}'"


def test_eval_value_matches_jet_value():
    rng = np.random.default_rng(7)
    for _ in range(25):
        text = random_expression_text(rng, depth=3)
        tree = parse_expression(text, {"r", "s"})
        fn = tree_point_fn(tree)
        pts = sample_points(rng, 3)
        if not well_behaved_at(fn, pts, cap=1e6):
            continue
        for r, s in pts:
            value = float(tree_jet(tree, r, s).value)
            assert fn(r, s) == pytest.approx(value, rel=1e-12)
            # the library's float read is the program's value, bit for bit
            assert eval_value(tree, {"r": r, "s": s}).hex() == value.hex()


def test_scalar_function_constant():
    c = ScalarFunction.constant(4.25)
    assert c.value(0.3) == 4.25
    assert c.jet(0.3).d(1, 0) == 0.0
    assert str(c) == "4.25"


def test_scalar_function_vectorized_value():
    fn = ScalarFunction.from_text("r^2 + 1")
    np.testing.assert_allclose(fn.value([1.0, 2.0, 3.0]), [2.0, 5.0, 10.0])


def test_missing_binding_raises():
    tree = parse_expression("r + s", {"r", "s"})
    with pytest.raises(DomainError):
        eval_value(tree, {"r": 1.0})
