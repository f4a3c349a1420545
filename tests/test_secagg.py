from math import ceil, sqrt

import numpy as np
import pytest

from pbm.mechanism import sample_sums
from pbm.secagg import (
    SAFETY_C,
    bits_per_coord,
    clipped_spec,
    count_wraps,
    default_modulus,
    lift_sum,
)


def test_default_modulus_values():
    # nm + 1 states need ceil(log2(nm + 1)) bits; modulus rounds up to a power of two
    assert default_modulus(1000, 2) == 2048
    assert default_modulus(1000, 4) == 4096
    assert default_modulus(1000, 6) == 8192
    assert default_modulus(1000, 16) == 16384
    assert default_modulus(1, 1) == 2
    with pytest.raises(ValueError):
        default_modulus(0, 3)


def test_default_modulus_exceeds_every_sum():
    # n counts in [0, m] sum to at most n*m, so a modulus above that never
    # wraps and the modular sum is the integer sum
    for n in (1, 2, 3, 7, 50, 100, 1000, 10**5):
        for m in (1, 2, 3, 4, 6, 16, 255, 256, 1000):
            modulus = default_modulus(n, m)
            assert modulus > n * m
            assert modulus <= 2 * n * m


def test_bits_per_coord():
    assert bits_per_coord(2) == 1
    assert bits_per_coord(256) == 8
    assert bits_per_coord(257) == 9
    assert bits_per_coord(356) == 9
    with pytest.raises(ValueError):
        bits_per_coord(1)


def test_clipped_spec_reference_point():
    assert SAFETY_C == sqrt(30.0)
    modulus, offset = clipped_spec(200, 4, 0.25)
    assert modulus == 356
    assert offset == 222
    assert bits_per_coord(modulus) == 9
    # one bit below the lossless power-of-two field
    full_bits = bits_per_coord(default_modulus(200, 4))
    assert full_bits == 10
    assert bits_per_coord(modulus) < full_bits


def test_clipped_spec_formula():
    n, m, theta, c = 30, 3, 0.1, SAFETY_C
    modulus, offset = clipped_spec(n, m, theta)
    nm = n * m
    assert modulus == ceil(nm * theta + c * sqrt(nm)) + 1
    assert offset == int(np.floor(nm * (1 - theta) / 2 - c * sqrt(nm / 4)))
    with pytest.raises(ValueError):
        clipped_spec(30, 3, 0.0)
    with pytest.raises(ValueError):
        clipped_spec(30, 3, 0.3)


def test_clipped_modulus_never_above_default():
    # at small n*m the clipped window is wider than the default group, which
    # already holds every sum, so the default group is used instead
    for nm in range(1, 65):
        for theta in (0.01, 0.1, 0.25):
            modulus, offset = clipped_spec(nm, 1, theta)
            assert modulus <= default_modulus(nm, 1)
            if modulus == default_modulus(nm, 1):
                assert offset == 0
    assert clipped_spec(1, 2, 0.25) == (4, 0)


def test_lift_recovers_sums_inside_window():
    modulus, offset = clipped_spec(200, 4, 0.25)
    assert (modulus, offset) == (356, 222)
    for true_sum in range(offset, offset + modulus):
        assert lift_sum(np.array([true_sum % modulus]), modulus, offset)[0] == true_sum
        assert count_wraps(np.array([true_sum]), modulus, offset) == 0


def test_wraps_detected_outside_window():
    modulus, offset = clipped_spec(200, 4, 0.25)
    outside = np.array([offset - 1, offset + modulus, 0])
    assert count_wraps(outside, modulus, offset) == 3
    lifted = lift_sum(outside % modulus, modulus, offset)
    assert np.all(lifted != outside)
    # wrapped values still land in the window, just at the wrong point
    assert np.all((lifted >= offset) & (lifted < offset + modulus))


# (n, m, theta) whose clipped window [1326, 2674) is centred at n*m/2 = 2000
WRAP_POINT = (1000, 4, 0.25)


def _wraps(high_share: float) -> int:
    """Wraps of the clipped window over sums where a share of the n
    clients sits at 1/2 + theta on every coordinate, the rest at
    1/2 - theta: the inputs at +c and -c of direct encoding."""
    n, m, theta = WRAP_POINT
    high = round(high_share * n)
    probs = np.full((n, 4), 0.5 - theta)
    probs[:high] = 0.5 + theta
    sums = sample_sums(probs, m, np.random.default_rng(11), 50)
    return count_wraps(sums, *clipped_spec(n, m, theta))


def test_clipped_window_holds_the_sums_of_split_clients():
    # half at +c and half at -c: the sums sit near n*m/2 = 2000
    assert _wraps(0.5) == 0


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 4: clipped_spec centres its window at n*m/2, so at "
    "(1000, 4, 1/4) [1326, 2674) misses the sums near 3000 when every client "
    "is at +c and near 1000 when every client is at -c",
)
@pytest.mark.parametrize("high_share", [1.0, 0.0], ids=["all-high", "all-low"])
def test_clipped_window_holds_the_sums_of_agreeing_clients(high_share):
    assert _wraps(high_share) == 0
