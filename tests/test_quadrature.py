"""Gauss-Legendre segment integrals over scalar and array endpoints, and elementwise refinement."""

import numpy as np
import pytest

from finslerlab.errors import QuadratureError
from finslerlab.quadrature import REFINE_CAP, QuadratureRule, refine, segment_integral


def _runge(x):
    return 1.0 / (1.0 + 25.0 * x * x)


def test_scalar_endpoints_give_float_matching_closed_form():
    got = segment_integral(_runge, -0.4, 0.9)
    assert isinstance(got, float)
    want = (np.arctan(5.0 * 0.9) - np.arctan(-5.0 * 0.4)) / 5.0
    assert got == pytest.approx(want, rel=1e-13)
    assert segment_integral(_runge, 0.3, 0.3) == 0.0


def test_array_endpoints_equal_scalar_calls_elementwise():
    a = np.array([[-1.0, 0.2, 0.5], [0.7, 0.7, -0.3]])
    b = np.array([[0.4, 0.2, -0.6], [1.9, 0.71, 2.0]])
    got = segment_integral(_runge, a, b)
    assert got.shape == a.shape
    for i in np.ndindex(a.shape):
        assert got[i] == segment_integral(_runge, float(a[i]), float(b[i])), i
    # reversed intervals are negated exactly; broadcast endpoints work
    np.testing.assert_array_equal(segment_integral(_runge, b, a), -got)
    row = segment_integral(_runge, 0.0, b[0])
    np.testing.assert_array_equal(row, [segment_integral(_runge, 0.0, float(x)) for x in b[0]])


def test_integrand_sees_trailing_node_axis():
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.cos(x)

    segment_integral(f, np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert shapes[0] == (3, 16)
    assert all(len(s) == 2 and s[1] in (16, 32, 64, 128, 256, 512) for s in shapes)


def test_non_convergence_names_the_interval():
    with pytest.raises(QuadratureError, match=r"\[-1\.0, 0\.7\]"):
        segment_integral(np.abs, np.array([0.1, -1.0]), np.array([0.5, 0.7]))


# values by node count: element 0 settles at 128, element 1 at 256; the
# values after settling differ, so a batch that kept refining would show it
_SEQUENCES = (
    {64: 1.0, 128: 1.0 + 1e-12, 256: 5.0, 512: 6.0},
    {64: 0.0, 128: 1.0, 256: 1.0 - 2e-11, 512: 7.0},
)


def test_refine_settles_each_element_on_its_own():
    calls = []

    def batch(n):
        calls.append(n)
        return np.array([seq[n] for seq in _SEQUENCES])

    got = refine(batch, QuadratureRule(n=64))
    assert calls == [64, 128, 256]
    alone = [refine(lambda n, seq=seq: seq[n], QuadratureRule(n=64)) for seq in _SEQUENCES]
    assert alone == [1.0 + 1e-12, 1.0 - 2e-11]
    assert all(isinstance(v, float) for v in alone)
    np.testing.assert_array_equal(got, alone)


def test_refine_raises_when_any_element_reaches_the_cap():
    def batch(n):
        return np.array([1.0, float(n)])  # the second element never settles

    with pytest.raises(QuadratureError, match=str(REFINE_CAP)):
        refine(batch, QuadratureRule(n=64))
