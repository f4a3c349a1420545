import numpy as np
import pytest

from pbm.kashin import (
    ConvergenceError,
    build_frame,
    load_frame,
    represent_batch,
    save_frame,
)


@pytest.fixture(scope="module")
def frame40():
    return build_frame(40, 2.0, np.random.default_rng(11))


def test_frame_is_tight(frame40):
    gram = frame40.u @ frame40.u.T
    assert np.abs(gram - np.eye(40)).max() < 1e-9


def test_frame_shape_and_level(frame40):
    assert frame40.u.shape == (40, 80)
    assert 0 < frame40.level_k <= 3.0


def test_fractional_redundancy_dimensions():
    frame = build_frame(7, 2.5, np.random.default_rng(1))
    assert frame.u.shape == (7, 18)  # ceil(2.5 * 7)
    assert np.abs(frame.u @ frame.u.T - np.eye(7)).max() < 1e-9


def test_roundtrip_and_spread(frame40):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 100))
    y = represent_batch(x, frame40)
    err = np.linalg.norm(frame40.u @ y - x, axis=0)
    assert np.all(err <= 1e-6 * np.linalg.norm(x, axis=0))
    spread = np.sqrt(frame40.big_d) * np.abs(y).max(axis=0)
    assert np.all(spread <= frame40.level_k * np.linalg.norm(x, axis=0) * (1 + 1e-9))


def test_single_vector_matches_batch(frame40):
    # each column gets the coefficients it would get in a batch of one
    x = np.random.default_rng(9).standard_normal((40, 5))
    batch = represent_batch(x, frame40)
    for j in range(5):
        alone = represent_batch(x[:, j : j + 1], frame40)[:, 0]
        np.testing.assert_allclose(alone, batch[:, j], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(frame40.u @ batch, x, atol=1e-8)


def test_zero_vector(frame40):
    x = np.zeros((40, 2))
    x[:, 1] = np.random.default_rng(10).standard_normal(40)
    y = represent_batch(x, frame40)
    assert np.all(y[:, 0] == 0)
    np.testing.assert_allclose(frame40.u @ y[:, 1], x[:, 1], atol=1e-8)


def test_reconstruct_non_expansive(frame40):
    rng = np.random.default_rng(17)
    y = rng.standard_normal((frame40.big_d, 50))
    norms_in = np.linalg.norm(y, axis=0)
    norms_out = np.linalg.norm(frame40.u @ y, axis=0)
    assert np.all(norms_out <= norms_in * (1 + 1e-12))


def test_dimension_one_edge_case():
    frame = build_frame(1, 2.0, np.random.default_rng(2))
    assert frame.u.shape == (1, 2)
    y = represent_batch(np.array([[1.5]]), frame)
    assert (frame.u @ y)[0, 0] == pytest.approx(1.5, abs=1e-9)
    assert frame.level_k <= 1.5


def test_too_few_iterations_raises():
    frame = build_frame(80, 2.0, np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((80, 1))
    with pytest.raises(ConvergenceError):
        represent_batch(x, frame, iters=1)


def test_build_frame_validation():
    with pytest.raises(ValueError):
        build_frame(0, 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_frame(4, 1.5, np.random.default_rng(0))


def test_serialization_roundtrip(tmp_path, frame40):
    path = tmp_path / "frame.npz"
    save_frame(frame40, path)
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded.u, frame40.u)
    assert loaded.level_k == frame40.level_k
    assert loaded.eta == frame40.eta
