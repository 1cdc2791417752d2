"""Chebyshev panel antiderivatives read at float and array radii, and elementwise Gauss-Legendre refinement."""

import re

import numpy as np
import pytest

from finslerlab.errors import DomainError, QuadratureError
from finslerlab.quadrature import (
    REFINE_CAP,
    TABLE_SPLIT_CAP,
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


def test_refine_raises_when_any_element_reaches_the_cap():
    calls = []

    def batch(counts):
        calls.append(counts)
        return [np.array([1.0, float(n)]) for n in counts]  # the second never settles

    with pytest.raises(QuadratureError, match=str(REFINE_CAP)):
        refine(batch)
    assert calls == [(64, 128), (256,), (512,), (1024,)]
