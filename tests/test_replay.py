"""One replay rule for a failing batch: ``errors.replay_alone``.

A batch that fails raises what the first part that fails alone raises, in
order; when every part passes alone, the batch's own error.  No caller goes on
with per-part values after its batch failed.
"""

import numpy as np
import pytest

from finslerlab import oracle, volume
from finslerlab.errors import DomainError, replay_alone
from finslerlab.geometry import embed_point
from finslerlab.volume import BH


def test_replay_alone_raises_the_first_failing_part_and_else_the_batch_error():
    calls, failing = [], {"whole", "b", "c"}

    def run(x):
        calls.append(x)
        if x in failing:
            raise DomainError(f"fails at {x}")
        return x

    with pytest.raises(DomainError, match="^fails at b$"):
        replay_alone(run, "whole", iter("abcd"))
    assert calls == ["whole", "a", "b"]
    calls.clear()
    failing = {"whole"}
    with pytest.raises(DomainError, match="^fails at whole$"):
        replay_alone(run, "whole", iter("abcd"))
    assert calls == ["whole", "a", "b", "c", "d"]
    calls.clear()
    assert replay_alone(run, "ok", iter("abcd")) == "ok"
    assert calls == ["ok"]


def test_replay_alone_replays_no_error_from_outside_the_package():
    calls = []

    def run(x):
        calls.append(x)
        raise ValueError(x)

    with pytest.raises(ValueError):
        replay_alone(run, "whole", "ab")
    assert calls == ["whole"]


def _failing_as_a_batch(monkeypatch, module, size: int):
    """Patch module.density to raise for a batch of size radii; any other call is real."""
    real = module.density

    def density(vol, spec, r):
        if np.size(r) == size:
            raise DomainError("the batch fails")
        return real(vol, spec, r)

    monkeypatch.setattr(module, "density", density)


@pytest.mark.parametrize("r", [0.5, np.array([0.4, 0.6])], ids=["float", "array"])
def test_a_cross_check_batch_that_fails_raises_its_own_error(monkeypatch, funk2, r):
    # both sides at once fail, each side alone passes: the cross-check does not
    # go on with the per-side values
    _failing_as_a_batch(monkeypatch, volume, 2 * np.size(r))
    with pytest.raises(DomainError, match="^the batch fails$"):
        volume.f_coefficient(BH, funk2, r)


def test_an_oracle_density_batch_that_fails_raises_its_own_error(monkeypatch, funk2):
    # the four stored states at once fail, each state alone passes
    _failing_as_a_batch(monkeypatch, oracle, 4)
    x, y = embed_point(0.5, 0.1, 2)
    with pytest.raises(DomainError, match="^the batch fails$"):
        oracle.s_by_distortion(funk2, BH, x, y)
