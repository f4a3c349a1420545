from math import ceil, sqrt

import numpy as np
import pytest

from pbm.secagg import (
    GroupSpec,
    aggregate,
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


def test_bits_per_coord():
    assert GroupSpec(2, 1).bits_per_coord == 1
    assert GroupSpec(256, 1).bits_per_coord == 8
    assert GroupSpec(257, 1).bits_per_coord == 9
    assert GroupSpec(356, 1).bits_per_coord == 9


def test_aggregate_is_modular_sum():
    rng = np.random.default_rng(0)
    spec = GroupSpec(16, 5)
    # updates past the modulus are reduced into the group first
    raw = rng.integers(0, 40, size=(7, 5))
    np.testing.assert_array_equal(aggregate(raw, spec), raw.sum(axis=0) % 16)
    np.testing.assert_array_equal(aggregate(raw % 16, spec), aggregate(raw, spec))


def test_aggregate_order_invariant_and_associative():
    rng = np.random.default_rng(1)
    spec = GroupSpec(97, 8)
    raw = rng.integers(0, 97, size=(9, 8))
    direct = aggregate(raw, spec)
    shuffled = aggregate(raw[rng.permutation(9)], spec)
    nested = aggregate(np.stack([aggregate(raw[:4], spec), aggregate(raw[4:], spec)]), spec)
    np.testing.assert_array_equal(direct, shuffled)
    np.testing.assert_array_equal(direct, nested)


def test_aggregate_rejects_mixed_specs():
    # updates must be (clients, coords) for the spec's coordinate count
    with pytest.raises(ValueError):
        aggregate(np.ones((3, 2), dtype=np.int64), GroupSpec(8, 1))
    with pytest.raises(ValueError):
        aggregate(np.ones(1, dtype=np.int64), GroupSpec(8, 1))
    with pytest.raises(ValueError):
        aggregate(np.zeros((0, 1), dtype=np.int64), GroupSpec(8, 1))


def test_clipped_spec_reference_point():
    spec, offset = clipped_spec(200, 4, 0.25, sqrt(30.0))
    assert spec.modulus == 356
    assert offset == 222
    assert spec.bits_per_coord == 9
    # one bit below the lossless power-of-two field
    full_bits = GroupSpec(default_modulus(200, 4), 1).bits_per_coord
    assert full_bits == 10
    assert spec.bits_per_coord < full_bits


def test_clipped_spec_formula():
    n, m, theta, c = 30, 3, 0.1, 2.0
    spec, offset = clipped_spec(n, m, theta, c)
    nm = n * m
    assert spec.modulus == ceil(nm * theta + c * sqrt(nm)) + 1
    assert offset == int(np.floor(nm * (1 - theta) / 2 - c * sqrt(nm / 4)))
    with pytest.raises(ValueError):
        clipped_spec(30, 3, 0.0)
    with pytest.raises(ValueError):
        clipped_spec(30, 3, 0.3)
    with pytest.raises(ValueError):
        clipped_spec(30, 3, 0.1, -1.0)


def test_lift_recovers_sums_inside_window():
    spec, offset = clipped_spec(10, 2, 0.25, 2.0)
    assert (spec.modulus, offset) == (15, 3)
    for true_sum in range(offset, offset + spec.modulus):
        assert lift_sum(np.array([true_sum % spec.modulus]), spec, offset)[0] == true_sum
        assert count_wraps(np.array([true_sum]), spec, offset) == 0


def test_wraps_detected_outside_window():
    spec, offset = clipped_spec(10, 2, 0.25, 2.0)
    outside = np.array([offset - 1, offset + spec.modulus, 0])
    assert count_wraps(outside, spec, offset) == 3
    lifted = lift_sum(outside % spec.modulus, spec, offset)
    assert np.all(lifted != outside)
    # wrapped values still land in the window, just at the wrong point
    assert np.all((lifted >= offset) & (lifted < offset + spec.modulus))
