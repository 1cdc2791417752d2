"""Ring axioms, composition rules and array semantics of the jet type."""

import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import dispatched_simd_targets, reference_compose, stdout_with_and_without_simd
from finslerlab.errors import DomainError
from finslerlab.expr import ScalarFunction
from finslerlab.jets import INDICES, SIZE, Jet3, _sqrt_taylor, is_finite, powr_taylor

_POS = {ab: k for k, ab in enumerate(INDICES)}
#: the Leibniz rule slot by slot: for each slot of INDICES, its (x slot, y slot,
#: weight) terms; a slot of x * y is x[p] * y[q], times w when w != 1, summed
#: left to right, as Jet3.__mul__ spells it out.
MUL_TERMS = tuple(
    tuple((_POS[(i, j)], _POS[(a - i, b - j)], float(math.comb(a, i) * math.comb(b, j)))
          for i in range(a + 1) for j in range(b + 1))
    for (a, b) in INDICES
)

coef = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
jet_coeffs = st.lists(coef, min_size=len(INDICES), max_size=len(INDICES))


def direct_product(x: Jet3, y: Jet3) -> Jet3:
    """Leibniz convolution written out independently of the implementation."""
    out = []
    for a, b in INDICES:
        acc = 0.0
        for i in range(a + 1):
            for j in range(b + 1):
                w = math.comb(a, i) * math.comb(b, j)
                acc += w * x.d(i, j) * y.d(a - i, b - j)
        out.append(acc)
    return Jet3(out)


def table_product(x: Jet3, y: Jet3) -> list:
    """Each slot as x*y, then *w when w != 1, summed left to right over MUL_TERMS."""
    out = []
    for terms in MUL_TERMS:
        acc = None
        for px, py, w in terms:
            t = x.c[px] * y.c[py]
            if w != 1.0:
                t = t * w
            acc = t if acc is None else acc + t
        out.append(acc)
    return out


def test_constant_has_zero_derivatives():
    j = Jet3.constant(7.0)
    assert j.value == 7.0
    assert all(j.c[k] == 0.0 for k in range(1, len(INDICES)))


def test_seed_slots():
    j = Jet3.seed(2.5, dr=1.0, ds=-3.0)
    assert j.d(0, 0) == 2.5
    assert j.d(1, 0) == 1.0
    assert j.d(0, 1) == -3.0
    assert j.d(1, 1) == 0.0


def test_slot_indexes_coefficients():
    j = Jet3(list(range(len(INDICES))))
    for k, (a, b) in enumerate(INDICES):
        assert j.c[k] == j.d(a, b)


@given(jet_coeffs, jet_coeffs)
def test_addition_is_coefficientwise(cx, cy):
    x, y = Jet3(cx), Jet3(cy)
    z = x + y
    for a, b in INDICES:
        assert z.d(a, b) == x.d(a, b) + y.d(a, b)


@given(jet_coeffs, jet_coeffs)
@settings(max_examples=200)
def test_product_matches_truncated_convolution(cx, cy):
    x, y = Jet3(cx), Jet3(cy)
    z = x * y
    ref = direct_product(x, y)
    for a, b in INDICES:
        assert z.d(a, b) == pytest.approx(ref.d(a, b), rel=1e-12, abs=1e-12)


@given(jet_coeffs, jet_coeffs)
def test_product_commutes(cx, cy):
    x, y = Jet3(cx), Jet3(cy)
    left, right = x * y, y * x
    for a, b in INDICES:
        assert left.d(a, b) == pytest.approx(right.d(a, b), rel=1e-13, abs=1e-13)


@given(jet_coeffs)
def test_scalar_add_only_touches_value(cx):
    x = Jet3(cx)
    z = x + 3.25
    assert z.value == cx[0] + 3.25
    assert z.c[1:] == x.c[1:]


def test_reciprocal_multiplies_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.uniform(-1.5, 1.5, size=len(INDICES))
        c[0] = rng.uniform(0.5, 2.0)
        x = Jet3(c.tolist())
        z = x * (1.0 / x)
        assert z.value == pytest.approx(1.0, abs=1e-12)
        assert max(abs(v) for v in z.c[1:]) < 1e-11


def test_division_by_near_zero_raises():
    with pytest.raises(DomainError):
        1.0 / Jet3.seed(0.0, dr=1.0)


def test_sqrt_squares_back():
    x = Jet3.seed(1.7, dr=0.3, ds=-0.8) + Jet3.constant(0.0)
    root = x.sqrt()
    sq = root * root
    for a, b in INDICES:
        assert sq.d(a, b) == pytest.approx(x.d(a, b), rel=1e-12, abs=1e-12)


def test_sqrt_of_nonpositive_raises():
    with pytest.raises(DomainError):
        Jet3.seed(-1.0, dr=1.0).sqrt()
    with pytest.raises(DomainError):
        Jet3.seed(0.0, ds=1.0).sqrt()


def test_exp_log_roundtrip():
    x = Jet3.seed(0.9, dr=-0.4, ds=0.7)
    y = x.exp().log()
    for a, b in INDICES:
        assert y.d(a, b) == pytest.approx(x.d(a, b), rel=1e-12, abs=1e-12)


def test_log_derivative_values():
    # d/dr log(r) at r=2: 1/2, -1/4, 2/8
    j = Jet3.seed(2.0, dr=1.0).log()
    assert j.d(0, 0) == pytest.approx(math.log(2.0))
    assert j.d(1, 0) == pytest.approx(0.5)
    assert j.d(2, 0) == pytest.approx(-0.25)
    assert j.d(3, 0) == pytest.approx(0.25)


def test_trig_pythagoras():
    x = Jet3.seed(0.6, dr=1.0, ds=0.5)
    one = x.sin() * x.sin() + x.cos() * x.cos()
    assert one.value == pytest.approx(1.0, abs=1e-14)
    assert max(abs(v) for v in one.c[1:]) < 1e-13


def test_atan_derivative():
    j = Jet3.seed(1.0, ds=1.0).atan()
    assert j.d(0, 0) == pytest.approx(math.pi / 4.0)
    assert j.d(0, 1) == pytest.approx(0.5)
    assert j.d(0, 2) == pytest.approx(-0.5)  # -2v/(1+v^2)^2 at v=1


def test_powi_matches_repeated_product():
    x = Jet3.seed(1.3, dr=0.2, ds=-0.4)
    explicit = x * x * x * x * x
    for a, b in INDICES:
        assert x.powi(5).d(a, b) == pytest.approx(explicit.d(a, b), rel=1e-13)


def test_powi_zero_and_negative():
    x = Jet3.seed(2.0, dr=1.0)
    assert x.powi(0).value == 1.0
    assert x.powi(0).d(1, 0) == 0.0
    inv2 = x.powi(-2)
    assert inv2.value == pytest.approx(0.25)
    assert inv2.d(1, 0) == pytest.approx(-2.0 / 8.0)


def test_powi_exact_at_zero_base():
    # (s)^2 at s=0 has value 0, ds 0, dss 2 with no domain error
    j = Jet3.seed(0.0, ds=1.0).powi(2)
    assert j.d(0, 0) == 0.0
    assert j.d(0, 1) == 0.0
    assert j.d(0, 2) == 2.0


def test_powr_half_matches_sqrt():
    x = Jet3.seed(1.9, dr=0.7, ds=0.1)
    a, b = x.powr(0.5), x.sqrt()
    for ab in INDICES:
        assert a.d(*ab) == pytest.approx(b.d(*ab), rel=1e-13)


def test_powr_rejects_nonpositive_base():
    with pytest.raises(DomainError):
        Jet3.seed(-0.5, dr=1.0).powr(1.5)


def test_deriv_shifts_coefficients():
    x = Jet3(list(range(1, len(INDICES) + 1)))
    dx = x.deriv(dr=1)
    assert dx.d(0, 0) == x.d(1, 0)
    assert dx.d(0, 1) == x.d(1, 1)
    assert dx.d(2, 0) == x.d(3, 0)
    # slots beyond the truncation order are zero-filled
    assert dx.d(3, 0) == 0.0


def test_array_coefficients_broadcast():
    r = np.array([0.5, 1.0, 2.0])
    j = Jet3.seed(r, dr=1.0)
    sq = j * j
    np.testing.assert_allclose(sq.d(0, 0), r * r)
    np.testing.assert_allclose(sq.d(1, 0), 2.0 * r)
    np.testing.assert_allclose(sq.d(2, 0), [2.0, 2.0, 2.0])


@pytest.mark.parametrize("op", ["sqrt", "exp", "log", "sin", "cos", "atan", "powr", "recip"])
def test_scalar_compositions_keep_python_floats_with_unchanged_bits(op):
    def apply(j):
        if op == "powr":
            return j.powr(-0.5)
        return 1.0 / j if op == "recip" else getattr(j, op)()

    base = Jet3.seed(0.7, dr=1.0) * Jet3.seed(0.3, ds=1.0) + 0.4
    floats = apply(base * base)
    # numpy float64 scalars make a float jet too: the same list path, the same values
    np_base = Jet3([np.float64(c) for c in base.c])
    numpy_scalars = apply(np_base * np_base)
    assert all(type(c) is float for c in floats.c)
    assert floats.c == numpy_scalars.c


def test_array_domain_error_reports_offending_value():
    v = np.array([1.1, 0.7, 0.0, -0.3, 2.0])
    for op, text in ((Jet3.sqrt, "sqrt of non-positive value"),
                     (Jet3.log, "log of non-positive value"),
                     (lambda j: j.powr(1.5), "power 1.5 of non-positive value"),
                     (lambda j: 1.0 / j, "division by \\(near-\\)zero value")):
        with pytest.raises(DomainError, match=rf"{text} \(array, e.g. 0.0\)"):
            op(Jet3.seed(v, dr=1.0))


def test_sqrt_of_a_float_rounds_as_numpy_float64_does():
    # Python-float arithmetic serves float values; numpy's float64 scalars serve the rest
    rng = np.random.default_rng(5)
    for v in [*(10.0 ** rng.uniform(-99.9, 99.9, 3000)).tolist(), 1.0000001e-100, 0.9999999e100]:
        fast = _sqrt_taylor(v)
        assert all(type(f) is float for f in fast)
        assert [f.hex() for f in fast] == [float(f).hex() for f in _sqrt_taylor(np.float64(v))]


_HALF_INTEGERS = (-7.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 7.5, -60.5, 60.5)


@given(st.one_of(st.floats(min_value=1e-100, max_value=1e100, exclude_min=True, exclude_max=True),
                 st.sampled_from((math.nextafter(1e-100, 1.0), math.nextafter(1e100, 0.0),
                                  1e-100, 1e100, 1.0))),
       st.sampled_from(_HALF_INTEGERS))
@settings(max_examples=300, deadline=None)
def test_half_integer_powers_of_a_float_round_as_numpy_float64_does(v, q):
    # Python floats serve values inside (1e-100, 1e100) unless the data overflow there;
    # the ends of the range, and any overflow, take numpy's float64 scalars
    with np.errstate(all="ignore"):  # the numpy path warns of the overflow it shares
        fast = powr_taylor(v, q)
        want = powr_taylor(np.float64(v), q)
    assert [float(f).hex() for f in fast] == [float(f).hex() for f in want]
    inside = 1e-100 < v < 1e100 and all(math.isfinite(f) for f in want)
    assert all(type(f) is float for f in fast) == inside


def test_is_finite_flags_bad_values():
    assert is_finite(Jet3.seed(1.0, dr=2.0).c)
    assert not is_finite(Jet3.seed(float("inf")).c)
    assert not is_finite(Jet3.seed(np.array([1.0, float("nan")])).c)


@pytest.mark.parametrize("shape", [(), (21,), (41, 128)])
def test_product_equals_table_convolution_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    for _ in range(20):
        cx, cy = (
            [float(v) if shape == () else v for v in rng.standard_normal((len(INDICES), *shape))]
            for _ in range(2)
        )
        x, y = Jet3(cx), Jet3(cy)
        got, want = (x * y).c, table_product(x, y)
        for k in range(len(INDICES)):
            assert np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes(), (shape, k)


def _coefficientwise_finite(jet: Jet3) -> bool:
    return all(bool(np.all(np.isfinite(c))) for c in jet.c)


_planted = st.lists(
    st.tuples(st.integers(0, len(INDICES) - 1), st.sampled_from([math.inf, -math.inf, math.nan])),
    max_size=3,
)


@given(jet_coeffs, _planted, st.booleans(), st.booleans())
@settings(max_examples=300)
def test_is_finite_equals_coefficientwise_predicate(cx, planted, as_array, overflow):
    cx = list(cx)
    if overflow:  # finite terms whose sum overflows
        cx[1] = cx[4] = 1e308
    if as_array:
        cx = [np.full(5, v) for v in cx]
    for k, bad in planted:
        if as_array:
            cx[k] = cx[k].copy()
            cx[k][k % 5] = bad
        else:
            cx[k] = bad
    jet = Jet3(cx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_finite(jet.c) == _coefficientwise_finite(jet)


@pytest.mark.parametrize("wrap", [float, np.float64, lambda v: np.full((3, 4), v)])
def test_is_finite_on_overflowing_sum_is_true_and_silent(wrap):
    jet = Jet3([wrap(1e308), wrap(1.0), wrap(1e308)] + [wrap(0.5)] * (len(INDICES) - 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_finite(jet.c)


# prints the bytes of every coefficient of x^1.5 for an array x, as hex
POWR_SCRIPT = """
import numpy as np
from finslerlab.jets import Jet3
x = Jet3.seed(np.linspace(0.05, 7.0, 4001), dr=1.0, ds=0.5)
print("".join(np.asarray(c).tobytes().hex() for c in x.powr(1.5).c))
"""


@pytest.mark.skipif(not dispatched_simd_targets(), reason="numpy reports no dispatched SIMD target")
def test_powr_bytes_independent_of_simd_dispatch():
    dispatched, baseline = stdout_with_and_without_simd(POWR_SCRIPT)
    assert dispatched == baseline


# -- order-2 truncation ---------------------------------------------------------

_UNARY = {
    "neg": lambda j: -j,
    "sqrt": Jet3.sqrt,
    "exp": Jet3.exp,
    "log": Jet3.log,
    "sin": Jet3.sin,
    "cos": Jet3.cos,
    "atan": Jet3.atan,
    "recip": lambda j: 1.0 / j,
    "powi3": lambda j: j.powi(3),
    "powi0": lambda j: j.powi(0),
    "powi-2": lambda j: j.powi(-2),
    "powr1.5": lambda j: j.powr(1.5),
    "powr-0.5": lambda j: j.powr(-0.5),
    "compose": lambda j: j.compose(0.3, -1.7, 2.9, -0.6),
    "scalar": lambda j: (2.5 - j * 0.75 + 1.25) / 3.0,
}
_BINARY = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def _order2(jet: Jet3) -> Jet3:
    return Jet3(jet.c[:6])


def _same_bits(got: Jet3, want: Jet3) -> bool:
    return len(got.c) == len(want.c) and all(
        np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
        for a, b in zip(got.c, want.c))


def _positive_value(cx, as_array):
    cx = list(cx)
    cx[0] = abs(cx[0]) + 0.25  # inside every elementary function's domain
    return [np.full(4, v) * np.linspace(1.0, 2.0, 4) for v in cx] if as_array else cx


@given(jet_coeffs, jet_coeffs, st.booleans())
@settings(max_examples=150)
def test_order2_jet_is_the_prefix_of_the_order3_jet(cx, cy, as_array):
    x3, y3 = Jet3(_positive_value(cx, as_array)), Jet3(_positive_value(cy, as_array))
    x2, y2 = _order2(x3), _order2(y3)
    assert (x2.order, x3.order) == (2, 3)
    for name, op in _UNARY.items():
        got = op(x2)
        assert got.order == 2, name
        assert _same_bits(got, _order2(op(x3))), name
    for name, op in _BINARY.items():
        want = _order2(op(x3, y3))
        # mixed orders give the lower order, with the same bits
        for left, right in ((x2, y2), (x2, y3), (x3, y2)):
            assert _same_bits(op(left, right), want), name


def test_order2_seed_constant_and_radial_are_prefixes():
    for make in (lambda o: Jet3.seed(0.7, dr=1.0, ds=-0.5, order=o),
                 lambda o: Jet3.constant(np.linspace(1.0, 2.0, 3), o),
                 lambda o: Jet3.radial([1.5, -0.5, 0.25, 4.0], o)):
        assert _same_bits(make(2), _order2(make(3)))


def test_coefficients_are_stored_by_total_degree():
    assert INDICES == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                       (3, 0), (2, 1), (1, 2), (0, 3))


def test_reading_beyond_the_order_raises():
    j = Jet3.seed(0.7, dr=1.0, ds=0.2, order=2)
    assert j.d(0, 2) == 0.0
    for a, b in ((0, 3), (1, 2), (2, 1), (3, 0)):
        with pytest.raises(ValueError, match=rf"order-2 jet carries no d\^{a}_r d\^{b}_s"):
            j.d(a, b)
    with pytest.raises(ValueError, match="order-3 jet"):
        Jet3.seed(0.7).d(4, 0)


def test_deriv_keeps_the_order_and_zero_fills():
    x = Jet3(list(range(1, 7)))
    dx = x.deriv(ds=1)
    assert dx.order == 2
    assert (dx.d(0, 0), dx.d(1, 0), dx.d(0, 1)) == (x.d(0, 1), x.d(1, 1), x.d(0, 2))
    assert (dx.d(2, 0), dx.d(1, 1), dx.d(0, 2)) == (0.0, 0.0, 0.0)


# -- array jets against the per-element written-out product ----------------------

_COLUMN, _FULL = (41, 1), (41, 2)


def _draw_slot(rng, kinds):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "zero":
        return 0.0
    if kind == "one":
        return 1.0
    if kind == "float":
        return float(rng.standard_normal())
    v = rng.standard_normal(_COLUMN if kind == "column" else _FULL)
    v[rng.random(v.shape) < 0.15] = 0.0  # exact zeros inside arrays, of both signs
    v[rng.random(v.shape) < 0.1] *= -0.0
    v[rng.random(v.shape) < 0.1] = 1.0
    return v


def _random_array_jet(rng, order, positive=False):
    """A jet whose value slot is a column, a full array or a float, and whose
    derivative slots are the structural 0.0, 1.0, other floats, columns or full arrays."""
    value = _draw_slot(rng, ("column", "full", "float") if positive
                       else ("column", "full", "float", "zero", "one"))
    if positive:
        value = abs(value) + 0.25
    kinds = ("zero", "one", "float", "column", "full")
    return Jet3([value, *(_draw_slot(rng, kinds) for _ in range(SIZE[order] - 1))])


def _per_element(jet: Jet3, shape):
    """The Python-float jet at each index of shape, which takes the written-out product;
    a dropped slot holds 0.75 there, which no carried slot of a result may read."""
    slots = [np.broadcast_to(0.75 if c is None else c, shape) for c in jet.c]
    return {idx: Jet3([float(c[idx]) for c in slots]) for idx in np.ndindex(*shape)}


def _equal_but_for_zero_signs(got: Jet3, want: dict, shape) -> bool:
    """Value slots hex-identical; carried derivative slots hex-identical or both an
    exact zero."""
    slots = [None if c is None else np.broadcast_to(c, shape) for c in got.c]
    for idx, ref in want.items():
        if len(ref.c) != len(slots):
            return False
        for k, (a, b) in enumerate(zip(slots, ref.c)):
            if a is None and k > 0:  # dropped
                continue
            a = float(a[idx])
            if a.hex() != b.hex() and (k == 0 or a != 0.0 or b != 0.0):
                return False
    return True


def _check_op(op, *jets, other=None):
    """op on array jets (and an array or float other) against op on each element; the
    result is an array jet when a jet or other is, and carries its first partials."""
    extra = () if other is None else (other,)
    shape = np.broadcast_shapes(*(np.shape(c) for j in jets for c in j.c), *map(np.shape, extra))
    elems = [_per_element(j, shape) for j in jets]
    want = {idx: op(*(e[idx] for e in elems), *(float(np.broadcast_to(o, shape)[idx]) for o in extra))
            for idx in np.ndindex(*shape)}
    got = op(*jets, *extra)
    assert got.is_array == (any(j.is_array for j in jets) or isinstance(other, np.ndarray))
    assert all(c is not None for c in got.c[:3])
    assert _equal_but_for_zero_signs(got, want, shape)


_ARRAY_UNARY = {
    "sqrt": Jet3.sqrt,
    "exp": Jet3.exp,
    "log": Jet3.log,
    "recip": lambda j: 1.0 / j,
    "powi3": lambda j: j.powi(3),
    "powi2": lambda j: j.powi(2),
    "powi0": lambda j: j.powi(0),
    "powi-2": lambda j: j.powi(-2),
    "powr1.5": lambda j: j.powr(1.5),
    "powr-0.5": lambda j: j.powr(-0.5),
}


@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)), st.sampled_from((2, 3)))
@settings(max_examples=60, deadline=None)
def test_array_operations_equal_the_per_element_written_out_product(seed, order_x, order_y):
    """Every array operation, on jets holding structural zeros, ones, floats, columns
    and full arrays, against the same operation on each element's Python-float jet.
    Shifted jets join them: their value slots may be structural zeros, and a
    shifted jet of r alone carries the structural zero 0.0 and a dropped slot."""
    rng = np.random.default_rng(seed)
    x, y = _random_array_jet(rng, order_x), _random_array_jet(rng, order_y)
    dr, ds = INDICES[rng.integers(1, 6)]
    r = np.linspace(0.2, 0.8, _COLUMN[0]).reshape(_COLUMN)
    shifted = (x.deriv(dr, ds), y.deriv(ds, dr),
               Jet3.radial([r, 1.0 + 0.0 * r, 0.0 * r, 0.0 * r], 3, r_order=1).deriv(0, 1))
    for a, b in ((x, y), shifted[:2], shifted[1:], shifted[::2]):
        for op in (operator.mul, operator.add, operator.sub):
            _check_op(op, a, b)
    for d in shifted:
        shift = 1.0 + float(np.max(np.abs(d.value)))  # 1.0 on the radial jet's 0.0
        _check_op(operator.neg, d)
        _check_op(operator.mul, d, other=_draw_slot(rng, ("float",)))
        _check_op(lambda j: (j + shift).sqrt(), d)
        _check_op(lambda j, f: j.compose(f, f * 0.5, -f, f * 2.0), d,
                  other=_draw_slot(rng, ("full",)))
    _check_op(operator.truediv, x, _random_array_jet(rng, order_y, positive=True))
    for kind in ("column", "full", "float", "zero", "one"):
        _check_op(operator.mul, x, other=_draw_slot(rng, (kind,)))
    positive = _random_array_jet(rng, order_x, positive=True)
    for op in _ARRAY_UNARY.values():
        _check_op(op, positive)


# -- structural zeros survive array arithmetic ---------------------------------

_S_SLOTS = [k for k, (a, b) in enumerate(INDICES) if b > 0]


def _structural(v) -> bool:
    return type(v) is float and v == 0.0


def _radial(jet: Jet3) -> bool:
    return all(_structural(jet.c[k]) for k in _S_SLOTS if k < len(jet.c))


@pytest.mark.parametrize("text", ["1/(1 - r^2)", "0.5/r^2", "0", "1 - r", "-r",
                                  "sqrt(1 + r^2)*exp(-r) + log(r)", "(2 + sin(r))^-1.5",
                                  "atan(r)*cos(r) - r^3"])
def test_a_radius_function_jet_on_a_radius_column_has_structural_s_slots(text):
    column = np.linspace(0.2, 0.8, 7)[:, None]
    for order in (2, 3):
        jet = ScalarFunction.from_text(text).jet(column, order)
        assert _radial(jet), (order, jet.c)


def test_radial_jets_stay_radial_through_array_arithmetic():
    r = np.linspace(0.2, 0.8, 7)[:, None]
    for order in (2, 3):
        f = Jet3.radial([1.0 + r * r, 2.0 * r, 2.0 + 0.0 * r, np.zeros_like(r)], order)
        g = Jet3.seed(r, dr=1.0, order=order)
        for name, jet in {
            "sqrt": f.sqrt(), "exp": f.exp(), "log": f.log(), "powi3": f.powi(3),
            "powi-2": f.powi(-2), "powi0": f.powi(0), "powr1.5": f.powr(1.5),
            "powr-0.5": f.powr(-0.5), "recip": 1.0 / f, "f*g": f * g, "f*f": f * f,
            "f/g": f / g, "f+g": f + g, "f-g": f - g, "-f": -f, "f*array": f * r,
            "f*float": 2.5 * f, "f+float": f + 1.0, "compose": f.compose(r, r, r, r),
        }.items():
            assert _radial(jet), (order, name)


def test_constants_and_derivatives_have_float_zeros():
    for order in (2, 3):
        const = Jet3.constant(np.linspace(1.0, 2.0, 3), order)
        assert isinstance(const.value, np.ndarray)
        assert all(_structural(v) for v in const.c[1:])
        full = Jet3([np.full(3, k + 1.0) for k in range(SIZE[order])])
        for dr, ds in ((1, 0), (0, 1), (2, 0), (1, 1)):
            shifted = full.deriv(dr, ds)
            high = [k for k, (a, b) in enumerate(INDICES[:SIZE[order]]) if a + b + dr + ds > order]
            assert high and all(_structural(shifted.c[k]) for k in high)
        radial = Jet3.radial([np.full(3, 1.0 + k) for k in range(order + 1)], order)
        assert all(_structural(v) for v in radial.deriv(0, 1).c[1:])


# -- float composition -------------------------------------------------------------

#: coefficients every float composition must meet: signed zeros, subnormals,
#: the ends of the float range, infinities and NaN
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, -1e300,
            math.inf, -math.inf, math.nan, 1.0, -1.0)
_COMPOSED = {
    "sqrt": Jet3.sqrt, "exp": Jet3.exp, "log": Jet3.log, "sin": Jet3.sin, "cos": Jet3.cos,
    "atan": Jet3.atan, "recip": Jet3._reciprocal,
    **{f"powr{q}": (lambda j, q=q: j.powr(q)) for q in (-1.5, -0.5, 0.5, 1.5, 2.5)},
}


def _float_jet(rng, order: int) -> Jet3:
    """Coefficients of random sign and magnitude, a fifth of them special values."""
    c = [float(rng.choice(_SPECIAL)) if rng.random() < 0.2
         else float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 8.0))
         for _ in range(SIZE[order])]
    return Jet3(c)


def _composed(fn, jet):
    """The coefficients as float.hex, or the type and message of what was raised."""
    try:
        out = fn(jet).c
    except Exception as err:  # RuntimeWarnings are errors under the suite's filter
        return type(err), str(err)
    assert all(type(v) is float for v in out)
    return [v.hex() for v in out]


@pytest.mark.parametrize("order", [2, 3])
def test_float_composition_equals_the_jet3_horner_chain(monkeypatch, order):
    # the tuple arithmetic of Jet3.compose on float jets against the chain of
    # Jet3 objects it spells out, hex for hex, or the same error
    rng = np.random.default_rng(order)
    jets = [_float_jet(rng, order) for _ in range(1000)]
    got = {name: [_composed(fn, j) for j in jets] for name, fn in _COMPOSED.items()}
    monkeypatch.setattr(Jet3, "compose", reference_compose)
    for name, fn in _COMPOSED.items():
        want = [_composed(fn, j) for j in jets]
        for j, g, w in zip(jets, got[name], want):
            assert g == w, (name, j.c)
    assert sum(isinstance(g, list) for g in got["recip"]) > 600


def test_a_slot_that_reads_a_dropped_one_is_dropped():
    # order-2 array jets: x drops d_r, y carries it; d_s and the value are carried
    a = np.linspace(1.0, 2.0, 4)
    x, y = Jet3((a, None, a + 1.0, None, None, a)), Jet3((a, a, a - 1.0, a, a, a))
    for name, jet in {"x+y": x + y, "y+x": y + x, "x-y": x - y, "y-x": y - x, "x*y": x * y,
                      "y*x": y * x, "-x": -x, "x*float": x * 2.5, "x*array": x * a,
                      "x+float": x + 1.0, "recip": 1.0 / x, "sqrt": x.sqrt()}.items():
        assert jet.c[1] is None and all(jet.c[k] is None for k in (3, 4)), name
        assert isinstance(jet.c[0], np.ndarray) and isinstance(jet.c[2], np.ndarray), name
        with pytest.raises(ValueError, match=r"dropped its d\^1_r d\^0_s"):
            jet.d(1, 0)
    # a term with a structural-zero factor reads nothing: (0 + d_s s) * x keeps d_r(x s) = 0
    assert (Jet3((a, 0.0, 1.0, 0.0, 0.0, 0.0)) * Jet3((a, 0.0, a, None, 0.0, 0.0))).c[1] == 0.0
    # a shift whose value slot would be a dropped one raises as d() does
    with pytest.raises(ValueError, match=r"dropped its d\^1_r d\^0_s"):
        Jet3.seed(a, dr=1.0, ds=0.5, r_order=0).sqrt().deriv(1, 0)


def test_dropped_above_keeps_the_lower_slots_of_array_jets_only():
    a = np.linspace(0.2, 0.8, 4)
    full = Jet3.seed(a, dr=1.0, ds=0.5).sqrt()
    for order in (0, 1, 2, 3):
        cut = full.dropped_above(order)
        for (i, j), got, want in zip(INDICES, cut.c, full.c):
            assert got is (None if i + j > order else want)
    assert Jet3.seed(0.5, dr=1.0).dropped_above(1).c == Jet3.seed(0.5, dr=1.0).c
    # phi_s of a jet of r alone has a structural-zero value and a dropped slot: it is
    # still an array jet, and the cut drops its partials of total order 2 and 3
    shifted = Jet3.seed(a, dr=1.0, r_order=1).sqrt().deriv(0, 1)
    assert type(shifted.value) is float and None in shifted.c and shifted.is_array
    cut = shifted.dropped_above(1)
    assert cut.is_array and cut.c[:3] == shifted.c[:3] and cut.c[3:] == (None,) * 7
    prod = Jet3.seed(a, ds=1.0, r_order=1) * shifted
    assert isinstance(prod.value, np.ndarray) and prod.c[1:3] == (0.0, 0.0)


def test_seeds_drop_only_on_arrays():
    a = np.linspace(0.2, 0.8, 4)
    for order in (2, 3):
        for r_order in (0, 1, 2):
            for seed in (Jet3.seed(a, dr=1.0, order=order, r_order=r_order),
                         Jet3.radial([a, a, a, a], order, r_order)):
                assert [k for k, c in enumerate(seed.c) if c is None] == [
                    k for k, (i, _) in enumerate(INDICES[:SIZE[order]]) if i > r_order]
            assert None not in Jet3.seed(0.5, dr=1.0, order=order, r_order=r_order).c
            assert None not in Jet3.radial([0.5, 1.0, 2.0, 3.0], order, r_order).c
