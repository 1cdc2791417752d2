"""Randers and Berwald-family profile kernels against their Jet3 references:
bits, coefficient types and errors."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import reference_family_jet, reference_randers_jet
from finslerlab import geometry, jets
from finslerlab.errors import DomainError
from finslerlab.expr import (
    FUNCTIONS,
    Binary,
    Const,
    ExpressionTree,
    Pow,
    ScalarFunction,
    Unary,
    Var,
    parse_expression,
)
from finslerlab.families import SampledFunction
from finslerlab.geometry import (BerwaldFamilyProfile, GeneralPhi, MetricSpec, RandersProfile,
                                 phi_jet)

# integer and half-integer exponents, and one the exponent check rejects
_EXPONENTS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -0.5, 0.5, 1.5, 0.25)
# constants that reach every domain guard and the finite checks
_CONSTANTS = (0.0, 0.5, 1.0, 2.0, -1.5, 1e-310, 1e200)


def _trees(variable: str, max_leaves: int):
    leaves = st.one_of(st.just(Var(variable)), st.sampled_from(_CONSTANTS).map(Const))

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(("neg", *FUNCTIONS)), children),
            st.builds(Binary, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.sampled_from(_EXPONENTS)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves).map(
        lambda root: ExpressionTree(root, frozenset({variable})))


# a solved-profile coefficient: a quintic Hermite interpolant over the grid
_NODES = np.linspace(0.05, 0.95, 10)
SAMPLED = SampledFunction(_NODES, 1.0 + 0.3 * _NODES**2, 0.6 * _NODES, 0.6 + 0.0 * _NODES)

_coefficients = st.one_of(st.just(SAMPLED), _trees("r", 5).map(ScalarFunction))

_R = np.linspace(0.1, 0.9, 41)


def _point(index, lo, hi, frac=0.95):
    """None: 41-wide arrays, r over [lo, hi] and s/r over [-frac, frac]; an
    index: one float pair of them."""
    r = lo + (hi - lo) * (_R - 0.1) / 0.8
    s = r * np.linspace(-frac, frac, 41)
    return (r, s) if index is None else (float(r[index]), float(s[index]))


def _outcome(evaluate, *args):
    """The jet's coefficients, or what was raised: its type, message and subexpression."""
    try:
        return evaluate(*args).c
    except Exception as err:  # RuntimeWarnings are errors under the suite's filter
        return type(err), str(err), getattr(err, "subexpr", None)


def _same_bits(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return float(a).hex() == float(b).hex()


def _assert_same(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert len(got) == len(want)
        assert all(_same_bits(a, b) for a, b in zip(got, want)), (got, want)


@given(_coefficients, _coefficients, _coefficients, st.sampled_from((2, 3)),
       st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=60, deadline=None)
def test_randers_kernel_equals_the_jet3_reference(f, g, h, order, point):
    profile = RandersProfile(f, g, h)
    r, s = _point(point, 0.1, 0.9)
    _assert_same(_outcome(geometry._randers_phi_jet, profile, r, s, order),
                 _outcome(reference_randers_jet, profile, r, s, order))


_C2_TEXTS = ("0.1", "-0.3", "0.1 + 0.05/r", "0.2*r^2 - 0.1", "-2.5", "sin(3*r)",
             "1/(r - 1.1)", "1e200*r^4")


@given(st.sampled_from(_C2_TEXTS), _trees("w", 6), st.sampled_from((2, 3)),
       st.one_of(st.none(), st.integers(0, 40)), st.sampled_from((0.95, 3.0)))
@settings(max_examples=40, deadline=None)
def test_family_kernel_equals_the_jet3_reference(c2, chi, order, point, frac):
    # |s| up to 3r, past the domain check, reaches the radicand guard
    profile = BerwaldFamilyProfile(ScalarFunction.from_text(c2), chi, 1.0)
    spec = MetricSpec(profile, 2, (0.8, 1.2))
    r, s = _point(point, 0.8, 1.2, frac)
    _assert_same(_outcome(geometry._family_phi_jet, spec, r, s, order),
                 _outcome(reference_family_jet, spec, r, s, order))


@pytest.mark.parametrize("point", [None, 40])
def test_family_radicand_guard_matches_the_reference(point):
    # c2 = -2.5: J < 0 beyond r0, and g + J s^2 turns negative once |s| > r
    spec = MetricSpec(BerwaldFamilyProfile(ScalarFunction.from_text("-2.5"),
                                           parse_expression("1 + w/4", {"w"}), 1.0), 2, (0.8, 1.2))
    r, s = _point(point, 0.8, 1.2, 3.0)
    messages = []
    for evaluate in (geometry._family_phi_jet, reference_family_jet):
        with pytest.raises(DomainError, match=r"family radical g \+ J\*s\^2 is non-positive at "
                                              r"r=1\.\d+ \(value -") as err:
            evaluate(spec, r, s, 2)
        assert err.value.subexpr is None
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_randers_template_errors_name_no_subexpression():
    # the sqrt of the template fails, not a node of f, g or h
    profile = RandersProfile(*(ScalarFunction.from_text(t) for t in ("-1", "0", "0.5")))
    for evaluate in (geometry._randers_phi_jet, reference_randers_jet):
        with pytest.raises(DomainError) as err:
            evaluate(profile, 0.5, 0.1, 2)
        assert str(err.value) == "sqrt of non-positive value -1.0"
        assert err.value.subexpr is None


def test_profiles_of_one_shape_share_one_kernel():
    jets.kernel_of.cache_clear()
    for a in ("1", "2"):
        randers = RandersProfile(*(ScalarFunction.from_text(f"{a} + r^2") for _ in range(3)))
        geometry._randers_phi_jet(randers, 0.5, 0.1, 2)
        family = BerwaldFamilyProfile(ScalarFunction.from_text(f"0.{a}"),
                                      parse_expression(f"1 + w/{a}", {"w"}), 1.0)
        geometry._family_phi_jet(MetricSpec(family, 2, (0.8, 1.2)), 1.0, 0.1, 2)
    assert jets.kernel_of.cache_info().misses == 2  # one Randers, one family kernel


def _fresh_spec(kind: str) -> MetricSpec:
    """A new spec of each profile kind: no kernel kept on it yet."""
    if kind == "general":
        profile = GeneralPhi(parse_expression("sqrt(1 + s^2) + 0.3*r*s + exp(-r)", {"r", "s"}))
    elif kind == "randers":
        profile = RandersProfile(ScalarFunction.from_text("1 + r^2"), SAMPLED,
                                 ScalarFunction.from_text("0.3*atan(r)"))
    else:
        profile = BerwaldFamilyProfile(ScalarFunction.from_text("0.1 + 0.05/r"),
                                       parse_expression("1 + w/4", {"w"}), 1.0)
    return MetricSpec(profile, 2, (0.8, 1.2))


_KINDS = ("general", "randers", "family")


@pytest.mark.parametrize("kind", _KINDS)
def test_array_inputs_compile_no_kernel(kind):
    spec = _fresh_spec(kind)
    r, s = _point(None, 0.8, 1.2)
    sigma = ScalarFunction.from_text("exp(0.3*r) + sin(r)")
    before = jets.kernel_of.cache_info()
    for order in (2, 3):
        phi_jet(spec, r, s, order)
        phi_jet(spec, 0.9, 0.9 * np.linspace(-0.9, 0.9, 5), order)  # a float radius
        sigma.jet(r, order)
    sigma.value(r)
    assert jets.kernel_of.cache_info() == before


@pytest.mark.parametrize("kind", _KINDS)
def test_numpy_and_python_floats_give_the_same_bits(kind):
    spec = _fresh_spec(kind)
    for order in (2, 3):
        want = phi_jet(spec, 0.9, -0.4, order).c
        got = phi_jet(spec, np.float64(0.9), np.float64(-0.4), order).c
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
    sigma = ScalarFunction.from_text("exp(0.3*r)/(2 + sin(r))")
    assert sigma.value(np.float64(0.9)).hex() == sigma.value(0.9).hex()


@pytest.mark.parametrize("profile", [
    RandersProfile(ScalarFunction.from_text("1 + r^2"), SAMPLED, ScalarFunction.from_text("0.3")),
    BerwaldFamilyProfile(ScalarFunction.from_text("0.1"), parse_expression("1 + w/4", {"w"}), 1.0),
], ids=["randers", "family"])
def test_a_spec_with_kernels_pickles_without_them(profile):
    spec = MetricSpec(profile, 2, (0.85, 0.95))
    want = phi_jet(spec, 0.9, 0.2).c
    assert "_bound" in vars(spec.profile)
    again = pickle.loads(pickle.dumps(spec))
    assert "_bound" not in vars(again.profile)
    assert phi_jet(again, 0.9, 0.2).c == want
