"""Chebyshev panel antiderivatives read at float and array radii, elementwise
Gauss-Legendre refinement, and exact row sums that are math.fsum's bit for bit."""

import math
import re

import numpy as np
import pytest
from _support import dispatched_simd_targets, stdout_with_and_without_simd
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from finslerlab.errors import DomainError, QuadratureError
from finslerlab.quadrature import (
    EXTRACT_MIN_ROWS,
    REFINE_CAP,
    TABLE_DEGREE,
    TABLE_SPLIT_CAP,
    exact_block_sums,
    exact_sum,
    refine,
    segment_integral,
)


def _runge(x):
    return 1.0 / (1.0 + 25.0 * x * x)


def test_scalar_endpoints_give_float_matching_closed_form():
    table = segment_integral(_runge, 0.3, -1.0, 1.0)
    for x in (-1.0, -0.4, 0.3, 0.9, 1.0):
        got = table.at(x)
        assert isinstance(got, float)
        want = (np.arctan(5.0 * x) - np.arctan(1.5)) / 5.0
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), x
    assert table.at(0.3) == 0.0


def test_runge_antiderivative_from_interior_anchor():
    table = segment_integral(_runge, 0.3, -1.0, 1.0)
    r = np.linspace(-1.0, 1.0, 41)
    want = (np.arctan(5.0 * r) - np.arctan(1.5)) / 5.0
    got = table.at(r)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_array_endpoints_equal_scalar_calls_elementwise():
    r = np.array([[-1.0, 0.2, 0.5], [0.7, 0.3, 2.0]])
    for f in (_runge, np.cos):
        table = segment_integral(f, 0.3, -1.0, 2.0)
        got = table.at(r)
        assert got.shape == r.shape
        for i in np.ndindex(r.shape):
            scalar = table.at(float(r[i]))
            assert isinstance(scalar, float)
            assert scalar == float(got[i]), i


@pytest.mark.parametrize("anchor, lo, hi", [(0.3, -1.0, 1.0), (-1.0, -1.0, 1.0),
                                            (1.0, -1.0, 1.0), (1.5, -1.0, 1.0)])
def test_antiderivatives_are_exactly_zero_at_the_anchor(anchor, lo, hi):
    for f in (_runge, np.cos):
        table = segment_integral(f, anchor, lo, hi)
        assert anchor in table.edges
        assert (table.edges[0], table.edges[-1]) == (min(lo, anchor), max(hi, anchor))
        assert table.at(anchor) == 0.0
        assert table.values[table.nodes == anchor].tolist() in ([0.0], [0.0, 0.0])


def test_split_cap_names_the_panel():
    kink = 0.1234567
    with pytest.raises(QuadratureError, match=f"after {TABLE_SPLIT_CAP} bisections") as info:
        segment_integral(lambda x: np.abs(x - kink), 0.0, -1.0, 1.0)
    a, b = map(float, re.search(r"table panel \[(.*), (.*)\] not resolved", str(info.value)).groups())
    assert a < kink < b and b - a == 2.0 ** -TABLE_SPLIT_CAP


def test_non_finite_integrand_names_the_radius():
    # one panel [-1, 1], whose middle Lobatto node is 0.0
    with pytest.raises(DomainError, match=r"integrand is not finite at r=0\.0$"):
        segment_integral(lambda x: 1.0 / x, -1.0, -1.0, 1.0)


# values by node count: element 0 settles at 128, element 1 at 256; the
# values after settling differ, so a batch that kept refining would show it
_SEQUENCES = (
    {64: 1.0, 128: 1.0 + 1e-12, 256: 5.0, 512: 6.0},
    {64: 0.0, 128: 1.0, 256: 1.0 - 2e-11, 512: 7.0},
)


def test_refine_settles_each_element_on_its_own():
    calls = []

    def batch(counts):
        calls.append(counts)
        return [np.array([seq[n] for seq in _SEQUENCES]) for n in counts]

    got = refine(batch)
    assert calls == [(64, 128), (256,)]
    alone = [refine(lambda counts, seq=seq: [seq[n] for n in counts]) for seq in _SEQUENCES]
    assert alone == [1.0 + 1e-12, 1.0 - 2e-11]
    assert all(isinstance(v, float) for v in alone)
    np.testing.assert_array_equal(got, alone)


def test_refine_tolerance_is_absolute_below_1_and_relative_above():
    big = 7.5e6  # its ulp is 2^-30, about 9.3e-10
    seqs = (
        {64: big, 128: float(np.nextafter(big, np.inf)), 256: 1.0, 512: 1.0},
        {64: 0.5, 128: 0.5 + 2e-10, 256: 0.5 + 2.5e-10, 512: 1.0},
        {64: 1.0, 128: math.inf, 256: 3.0, 512: 3.0},
    )
    got = [refine(lambda counts, seq=seq: [seq[n] for n in counts]) for seq in seqs]
    assert got == [seqs[0][128], seqs[1][256], 3.0]


def test_refine_raises_when_any_element_reaches_the_cap():
    calls = []

    def batch(counts):
        calls.append(counts)
        return [np.array([1.0, float(n)]) for n in counts]  # the second never settles

    with pytest.raises(QuadratureError, match=str(REFINE_CAP)):
        refine(batch)
    assert calls == [(64, 128), (256,), (512,), (1024,)]


# -- exact row sums ------------------------------------------------------------

#: row counts on both sides of the kernel's threshold
_ROW_COUNTS = (1, EXTRACT_MIN_ROWS - 1, EXTRACT_MIN_ROWS, EXTRACT_MIN_ROWS + 1, 41, 82)
#: the node blocks of refine's first evaluation, and segment_integral's Lobatto rows
_WIDTHS = ((64, 128), (TABLE_DEGREE + 1,))


def _fsum_blocks(v, widths):
    """math.fsum of each block, block by block and row by row within a block, as
    hex strings; or the type of the first error it raises."""
    out, start = [], 0
    try:
        for w in widths:
            out.append([math.fsum(row).hex() for row in v[:, start:start + w].tolist()])
            start += w
    except (OverflowError, ValueError) as err:
        return type(err)
    return out


def _exact_blocks(v, widths):
    """exact_sum of each block's slice and exact_block_sums of the whole, each as
    _fsum_blocks gives them (they must agree)."""
    try:
        sliced, start = [], 0
        for w in widths:
            sliced.append([x.hex() for x in exact_sum(v[:, start:start + w]).tolist()])
            start += w
    except (OverflowError, ValueError) as err:
        sliced = type(err)
    try:
        whole = [[x.hex() for x in col] for col in exact_block_sums(v, widths).T.tolist()]
    except (OverflowError, ValueError) as err:
        whole = type(err)
    assert whole == sliced
    return whole


def _draw(rng, kind, rows, n):
    """rows x n values of one kind, each chosen to meet a fallback or a rounding edge."""
    if kind == "normal":
        return rng.standard_normal((rows, n))
    if kind == "wide":  # exponents over the whole normal range: many passes, or fsum
        return rng.standard_normal((rows, n)) * 2.0 ** rng.integers(-1000, 1000, (rows, n))
    if kind == "subnormal":
        return rng.integers(-9, 10, (rows, n)) * 2.0 ** -1074
    if kind == "zeros":  # +0.0 and -0.0, some rows all -0.0
        v = rng.choice([0.0, -0.0], (rows, n))
        v[::3] = -0.0
        return v
    if kind == "ties":  # a + ulp(a)/2 exactly, or just beside it, hidden among cancelling pairs
        a = rng.uniform(1.0, 2.0, rows) * 2.0 ** rng.integers(-20, 20, rows)
        half = np.spacing(a) / 2.0
        nudge = rng.choice([0.0, 1.0, -1.0], rows) * half * 2.0 ** -150
        pairs = rng.standard_normal((rows, (n - 3) // 2)) * 2.0 ** rng.integers(-40, 40, (rows, 1))
        v = np.concatenate([a[:, None], half[:, None], nudge[:, None], pairs, -pairs,
                            np.zeros((rows, n - 3 - 2 * pairs.shape[1]))], axis=1)
        return rng.permuted(v, axis=1)
    if kind == "cancel":  # cancelling pairs leave a tiny remainder
        pairs = rng.standard_normal((rows, (n - 1) // 2))
        scale = 10.0 ** rng.choice([-20.0, -60.0, -300.0], (rows, 1))
        tiny = rng.standard_normal((rows, 1)) * scale
        v = np.concatenate([pairs, -pairs, tiny, np.zeros((rows, n - 1 - 2 * pairs.shape[1]))],
                           axis=1)
        return rng.permuted(v, axis=1)
    if kind == "huge":  # near and above 2^1000, where rows overflow or leave the kernel
        return (rng.uniform(-1.9, 1.9, (rows, n))
                * 2.0 ** rng.choice([990, 1000, 1014, 1015, 1016, 1023], (rows, n)))
    if kind == "nonfinite":
        v = rng.standard_normal((rows, n))
        for i in rng.choice(rows, max(1, rows // 3), replace=False):
            v[i, rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        if rows > 1:
            v[-1, :2] = rng.choice([np.inf, -np.inf], 2)  # inf - inf raises, inf + inf does not
        return v
    raise ValueError(kind)


_KINDS = ("normal", "wide", "subnormal", "zeros", "ties", "cancel", "huge", "nonfinite")


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("widths", _WIDTHS)
def test_exact_sums_are_fsum_hex_for_hex(kind, widths):
    """Every draw, on both sides of the row threshold: the same doubles as math.fsum
    (NaN and inf included), or the same error type where it raises."""
    rng = np.random.default_rng([len(widths), _KINDS.index(kind)])
    for rows in _ROW_COUNTS:
        for _ in range(6):
            v = _draw(rng, kind, rows, sum(widths))
            assert _exact_blocks(v, widths) == _fsum_blocks(v, widths), (kind, rows)


@given(arrays(np.float64, st.tuples(st.integers(1, 2 * EXTRACT_MIN_ROWS), st.integers(1, 40)),
              elements=st.floats(allow_nan=True, allow_infinity=True)),
       st.integers(1, 39))
@settings(max_examples=300, deadline=None)
def test_exact_block_sums_of_any_doubles_are_fsum_hex_for_hex(v, cut):
    widths = (v.shape[1],) if cut >= v.shape[1] else (cut, v.shape[1] - cut)
    assert _exact_blocks(v, widths) == _fsum_blocks(v, widths)


def test_exact_sums_of_finite_rows_use_no_fsum(monkeypatch):
    """With EXTRACT_MIN_ROWS rows or more, rows of ordinary values are extracted, not
    handed to math.fsum."""
    v = np.random.default_rng(8).standard_normal((EXTRACT_MIN_ROWS, 192))
    want = [math.fsum(row) for row in v.tolist()]
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    assert exact_sum(v).tolist() == want
    assert calls == []


EXACT_SUM_SCRIPT = """
import hashlib
import numpy as np
from finslerlab.quadrature import exact_block_sums, exact_sum
rng = np.random.default_rng(2929)
digest = hashlib.sha256()
for shape in ((41, 192), (82, 192), (289, 17)):
    v = rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 60, shape)
    digest.update(exact_sum(v).tobytes())
    if shape[1] == 192:
        digest.update(exact_block_sums(v, (64, 128)).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif(not dispatched_simd_targets(), reason="numpy reports no dispatched SIMD target")
def test_exact_sum_bytes_independent_of_simd_dispatch():
    dispatched, baseline = stdout_with_and_without_simd(EXACT_SUM_SCRIPT)
    assert dispatched == baseline
