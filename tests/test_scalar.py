"""The one-coordinate mechanism: the scalar encoder and decoder.

A client holding x in [-c, c] reports Binom(m, (theta/c) * x + 1/2); the
server decodes the sum of n reports as c/(n*m*theta) * (sum - n*m/2).
These tests pin those closed forms through the batched mechanism at d = 1.
"""

import numpy as np
import pytest
from scipy.stats import binom

from pbm.mechanism import (
    MechanismParams,
    coordinate_probs,
    mse_bound,
    server_decode,
    spread,
)


def _params(n=1, c=1.0, theta=0.25, m=1) -> MechanismParams:
    return MechanismParams(n=n, d=1, c=c, theta=theta, m=m)


def _probs(xs, params: MechanismParams) -> np.ndarray:
    x = np.asarray(xs, dtype=float).reshape(-1, 1)
    return coordinate_probs(spread(x, params), params)[:, 0]


def _decode(sums, params: MechanismParams) -> np.ndarray:
    return server_decode(np.asarray(sums).reshape(-1, 1), params)[:, 0]


def test_rescale_known_values():
    assert _probs([-1.0], _params(c=2.0, theta=0.1))[0] == pytest.approx(0.45)
    quarter = _params(c=1.0, theta=0.25)
    np.testing.assert_array_equal(_probs([0.0, 1.0, -1.0], quarter), [0.5, 0.75, 0.25])


def test_rescale_monotone_and_symmetric():
    params = _params(c=3.0, theta=0.2, m=2)
    xs = np.linspace(-3.0, 3.0, 41)
    ps = _probs(xs, params)
    assert np.all(np.diff(ps) > 0)
    np.testing.assert_allclose(_probs(-xs, params), 1.0 - ps, rtol=0, atol=1e-15)


def test_rescale_rejects_out_of_range():
    params = _params(c=1.0, theta=0.1)
    with pytest.raises(ValueError):
        _probs([1.5], params)
    with pytest.raises(ValueError):
        _probs([-1.0000001], params)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(c=0.0, theta=0.1)
    with pytest.raises(ValueError):
        _params(c=1.0, theta=0.3)
    with pytest.raises(ValueError):
        _params(c=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        _params(c=1.0, theta=0.1, m=0)


def test_theta_zero_encodes_fair_coin():
    params = _params(c=1.0, theta=0.0, m=1)
    p = _probs([-1.0], params)[0]
    assert p == 0.5
    draws = np.random.default_rng(7).binomial(params.m, p, size=20000)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)
    with pytest.raises(ValueError):
        _decode([1], params)
    with pytest.raises(ValueError):
        mse_bound(params)


def test_encode_matches_binomial_law():
    params = _params(c=1.0, theta=0.25, m=5)
    p = _probs([0.4], params)[0]
    assert p == pytest.approx(0.6)
    draws = np.random.default_rng(123).binomial(params.m, p, size=20000)
    counts = np.bincount(draws, minlength=6) / len(draws)
    expected = binom.pmf(np.arange(6), 5, 0.6)
    # each frequency within 4 sigma of its binomial cell probability
    sigma = np.sqrt(expected * (1 - expected) / len(draws))
    assert np.all(np.abs(counts - expected) < 4 * sigma + 1e-12)


def test_decode_sum_known_values():
    assert _decode([4], _params(n=1, c=1.0, theta=0.25, m=4))[0] == pytest.approx(2.0)
    assert _decode([2], _params(n=2, c=1.0, theta=0.25, m=2))[0] == pytest.approx(0.0)


def test_decode_sum_validation():
    params = _params(n=2, c=1.0, theta=0.25, m=4)
    with pytest.raises(ValueError):
        _decode([-1], params)
    with pytest.raises(ValueError):
        _decode([9], params)
    with pytest.raises(ValueError):
        _params(n=0, c=1.0, theta=0.25, m=4)


def test_variance_bound_known_values():
    assert mse_bound(_params(n=1, c=1.0, theta=0.25, m=1)) == pytest.approx(4.0)
    assert mse_bound(_params(n=1000, c=1.0, theta=0.25, m=16)) == pytest.approx(
        1.0 / 4000.0
    )


def test_mean_estimate_unbiased_and_within_variance_bound():
    n, runs = 30, 20000
    params = _params(n=n, c=2.0, theta=0.25, m=3)
    rng = np.random.default_rng(42)
    xs = rng.uniform(-2.0, 2.0, size=n)
    true_mean = xs.mean()
    probs = _probs(xs, params)
    sums = rng.binomial(params.m, probs, size=(runs, n)).sum(axis=1)
    estimates = _decode(sums, params)
    bound = mse_bound(params)
    assert abs(estimates.mean() - true_mean) < 4 * np.sqrt(bound / runs)
    assert estimates.var() <= bound * (1 + 5 / np.sqrt(runs))
