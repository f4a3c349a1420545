from math import sqrt

import numpy as np
import pytest

from pbm.kashin import build_frame
from pbm.mechanism import (
    MechanismParams,
    communication_bits,
    coordinate_probs,
    mse_bound,
    server_decode,
    spread,
)
from pbm.secagg import clipped_spec, lift_sum


@pytest.fixture(scope="module")
def frame8():
    return build_frame(8, 2.0, np.random.default_rng(21))


def _plain(n=40, d=3, c=1.0, theta=0.25, m=4) -> MechanismParams:
    return MechanismParams(n=n, d=d, c=c, theta=theta, m=m)


def test_params_validation(frame8):
    with pytest.raises(ValueError):
        MechanismParams(n=0, d=3, c=1.0, theta=0.1, m=1)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=0.0, theta=0.1, m=1)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=1.0, theta=0.3, m=1)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=1.0, theta=0.1, m=0)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=1.0, theta=0.1, m=1, use_kashin=True)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=5, c=1.0, theta=0.1, m=1, use_kashin=True, frame=frame8)


def test_coords_and_c_prime(frame8):
    plain = _plain(d=6)
    assert plain.coords == 6
    assert plain.c_prime == plain.c
    spread = MechanismParams(n=10, d=8, c=2.0, theta=0.2, m=1, use_kashin=True, frame=frame8)
    assert spread.coords == frame8.big_d == 16
    assert spread.c_prime == pytest.approx(2.0 * frame8.level_k / sqrt(16.0))


def test_coordinate_probs_endpoints():
    params = _plain(c=2.0, theta=0.2)
    probs = coordinate_probs(np.array([-2.0, 0.0, 2.0]), params)
    np.testing.assert_allclose(probs, [0.3, 0.5, 0.7], rtol=1e-12)
    # values past the bound (numerical fuzz) are clamped, not propagated
    fuzz = coordinate_probs(np.array([2.0 + 1e-12]), params)
    assert fuzz[0] == pytest.approx(0.7)


def test_decode_matches_scalar_decoder():
    # one coordinate decodes as c/(n*m*theta) * (s - n*m/2), row by row
    n, c, theta, m = 12, 1.5, 0.2, 3
    params = _plain(n=n, d=1, c=c, theta=theta, m=m)
    totals = np.array([[0], [7], [18], [n * m]])
    est = server_decode(totals, params)
    assert est.shape == (4, 1)
    np.testing.assert_array_equal(est, c / (n * m * theta) * (totals - n * m / 2.0))
    assert est[2, 0] == 0.0
    assert server_decode(totals[1], params)[0] == est[1, 0]


def test_decode_validation():
    params = _plain(n=5, d=2, m=2)
    with pytest.raises(ValueError):
        server_decode(np.array([1, 2, 3]), params)
    with pytest.raises(ValueError):
        server_decode(np.array([[1, 2, 3]]), params)
    with pytest.raises(ValueError):
        server_decode(np.array([1, 11]), params)
    with pytest.raises(ValueError):
        server_decode(np.array([-1, 2]), params)
    frozen = MechanismParams(n=5, d=2, c=1.0, theta=0.0, m=2)
    with pytest.raises(ValueError):
        server_decode(np.array([1, 2]), frozen)
    with pytest.raises(ValueError):
        mse_bound(frozen)


def test_decode_window_for_lifted_sums():
    # a reduced-modulus window can reach past the plain range [0, n*m]
    n, m, theta = 20, 2, 0.25
    params = _plain(n=n, d=2, theta=theta, m=m)
    spec, offset = clipped_spec(n, m, theta, coords=2)
    window = (offset, offset + spec.modulus)
    assert window == (-3, 43)
    # residues 43 and 42 mod 46 lift to both ends of the window
    lifted = lift_sum(np.array([[43, 42]]), spec, offset)
    np.testing.assert_array_equal(lifted, [[-3, 42]])
    est = server_decode(lifted, params, window)
    np.testing.assert_array_equal(est, 1.0 / (n * m * theta) * (lifted - n * m / 2.0))
    # the same values are not a plain aggregate
    with pytest.raises(ValueError):
        server_decode(lifted, params)
    with pytest.raises(ValueError):
        server_decode(np.array([offset - 1, 0]), params, window)
    with pytest.raises(ValueError):
        server_decode(np.array([0, offset + spec.modulus]), params, window)


def test_encode_shape_and_range():
    params = _plain(n=10, d=5, m=6)
    rng = np.random.default_rng(0)
    probs = coordinate_probs(spread(rng.uniform(-1, 1, (10, 5)), params), params)
    assert probs.shape == (10, 5)
    assert np.all((probs >= 0.25) & (probs <= 0.75))
    shares = rng.binomial(params.m, probs)
    assert shares.dtype.kind == "i"
    assert np.all((shares >= 0) & (shares <= 6))


def test_encode_norm_validation(frame8):
    params = _plain(d=3, c=1.0)
    with pytest.raises(ValueError):
        spread(np.array([[0.5, 0.0, 0.0], [1.2, 0.0, 0.0]]), params)
    with pytest.raises(ValueError):
        spread(np.zeros((2, 4)), params)
    with pytest.raises(ValueError):
        spread(np.zeros(3), params)
    spread_params = MechanismParams(
        n=5, d=8, c=1.0, theta=0.2, m=2, use_kashin=True, frame=frame8
    )
    big = np.full((1, 8), 0.5)  # L2 norm sqrt(2) > 1
    with pytest.raises(ValueError):
        spread(big, spread_params)


def test_kashin_accepts_peaky_vectors(frame8):
    # a unit basis vector satisfies the L2 bound though its largest
    # coordinate far exceeds the spread per-coordinate budget c'
    params = MechanismParams(n=5, d=8, c=1.0, theta=0.2, m=2, use_kashin=True, frame=frame8)
    assert params.c_prime < 1.0
    x = np.zeros((2, 8))
    x[0, 0] = 1.0
    y = spread(x, params)
    assert y.shape == (2, 16)
    assert np.abs(y).max() <= params.c_prime
    np.testing.assert_allclose(frame8.u @ y.T, x.T, atol=1e-9)


def test_mse_bound_formula(frame8):
    plain = _plain(n=100, d=4, c=1.0, theta=0.25, m=4)
    assert mse_bound(plain) == pytest.approx(4.0 / (4.0 * 100 * 4 * 0.0625))
    spread = MechanismParams(
        n=100, d=8, c=1.0, theta=0.25, m=4, use_kashin=True, frame=frame8
    )
    want = 16 * spread.c_prime**2 / (4.0 * 100 * 4 * 0.0625)
    assert mse_bound(spread) == pytest.approx(want)


def test_communication_bits(frame8):
    assert communication_bits(_plain(n=1000, d=250, m=16)) == 250 * 14
    assert communication_bits(_plain(n=1, d=1, m=1)) == 1
    spread = MechanismParams(n=10, d=8, c=1.0, theta=0.2, m=1, use_kashin=True, frame=frame8)
    assert communication_bits(spread) == 16 * 4  # modulus 16 over 16 coords


def test_roundtrip_unbiased_plain():
    n, d, trials = 30, 3, 2500
    params = _plain(n=n, d=d, c=1.0, theta=0.25, m=2)
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    mu = x.mean(axis=0)
    probs = coordinate_probs(spread(x, params), params)
    sums = rng.binomial(2, probs[None, :, :], size=(trials, n, d)).sum(axis=1)
    ests = server_decode(sums, params)
    per_coord_var = mse_bound(params) / d
    tol = 4.0 * sqrt(per_coord_var / trials)
    assert np.all(np.abs(ests.mean(axis=0) - mu) <= tol)
    emp_mse = float(np.mean(np.sum((ests - mu) ** 2, axis=1)))
    assert emp_mse <= mse_bound(params) * (1.0 + 5.0 / sqrt(trials))


def test_roundtrip_unbiased_kashin(frame8):
    # spread all clients in one frame call, draw the counts in bulk and
    # decode every trial at once, frame back-map included
    n, d, trials = 20, 8, 1200
    params = MechanismParams(
        n=n, d=d, c=1.0, theta=0.25, m=4, use_kashin=True, frame=frame8
    )
    rng = np.random.default_rng(55)
    x = rng.standard_normal((n, d))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
    mu = x.mean(axis=0)
    probs = coordinate_probs(spread(x, params), params)
    sums = rng.binomial(4, probs[None, :, :], size=(trials, n, params.coords)).sum(axis=1)
    ests = server_decode(sums, params)
    assert ests.shape == (trials, d)
    per_coord_var = mse_bound(params) / d
    tol = 4.0 * sqrt(per_coord_var / trials)
    assert np.all(np.abs(ests.mean(axis=0) - mu) <= tol)
    emp_mse = float(np.mean(np.sum((ests - mu) ** 2, axis=1)))
    assert emp_mse <= mse_bound(params) * (1.0 + 5.0 / sqrt(trials))


def test_variance_stable_at_fixed_m_theta_square():
    # pairs share m * theta^2, so the decode variance should line up
    n, trials = 20, 1600
    rng = np.random.default_rng(77)
    x = rng.uniform(-1.0, 1.0, size=n)
    mu = x.mean()
    mses = []
    for m, theta in [(16, 1 / 8), (64, 1 / 16), (256, 1 / 32)]:
        params = _plain(n=n, d=1, c=1.0, theta=theta, m=m)
        probs = coordinate_probs(x, params)
        draw = np.random.default_rng(m)
        sums = draw.binomial(m, probs[None, :].repeat(trials, axis=0)).sum(axis=1)
        ests = np.array([server_decode(np.array([s]), params)[0] for s in sums])
        mses.append(float(np.mean((ests - mu) ** 2)))
    assert max(mses) / min(mses) < 1.25
    assert max(mses) <= 1.0 / (4 * n * 16 * (1 / 8) ** 2) * (1.0 + 5.0 / sqrt(trials))
