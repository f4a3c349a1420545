import numpy as np
import pytest
from oracles import represent_residual_passes

from pbm import kashin
from pbm.kashin import ConvergenceError, KashinFrame, build_frame, represent_batch
from pbm.mechanism import MechanismParams, spread


@pytest.fixture(scope="module")
def frame40():
    return build_frame(40, np.random.default_rng(11))


def test_frame_is_tight():
    # sgd (d = 8) and dme (d = 250) build their frame from one stream of
    # the run's seed; over seeds 0-1199 at d = 8 and 0-99 at d = 250 the
    # gap read at most 1.6e-15, so construction does not fail on a seed
    for d, stream, seeds in [(8, 0, 200), (250, 1, 5)]:
        for seed in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[stream])
            frame = build_frame(d, rng)
            gap = np.abs(frame.u @ frame.u.T - np.eye(d)).max()
            assert gap <= 1e-3 * kashin.RECONSTRUCT_TOL


def test_frame_shape_and_level(frame40):
    assert frame40.u.shape == (40, 80)
    assert 0 < frame40.level_k <= 3.0


def test_roundtrip_and_spread(frame40):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 100))
    y = represent_batch(x, frame40)
    err = np.linalg.norm(frame40.u @ y - x, axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(x, axis=0))
    spread = np.sqrt(frame40.big_d) * np.abs(y).max(axis=0)
    assert np.all(spread <= frame40.level_k * np.linalg.norm(x, axis=0) * (1 + 1e-9))


def test_single_vector_matches_batch(frame40):
    # each column gets the coefficients it would get in a batch of one, up
    # to the float32 passes' rounding: a batch of one runs matrix-vector
    # products, which round differently from matrix-matrix ones
    x = np.random.default_rng(9).standard_normal((40, 5))
    batch = represent_batch(x, frame40)
    for j in range(5):
        alone = represent_batch(x[:, j : j + 1], frame40)[:, 0]
        assert np.abs(alone - batch[:, j]).max() <= 1e-6 * np.linalg.norm(x[:, j])
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
    frame = build_frame(1, np.random.default_rng(2))
    assert frame.u.shape == (1, 2)
    y = represent_batch(np.array([[1.5]]), frame)
    assert (frame.u @ y)[0, 0] == pytest.approx(1.5, abs=1e-9)
    assert frame.level_k <= 1.5


def test_too_few_iterations_raises(monkeypatch):
    # the exact step still closes the residual after one clipped pass, but
    # a row at ||x||_2 = c spreads far past the c' set by the level
    # certified at the default count
    frame = build_frame(80, np.random.default_rng(4))
    params = MechanismParams(n=1, d=80, c=3.0, theta=0.25, m=1, frame=frame)
    x = np.random.default_rng(5).standard_normal((1, 80))
    x *= params.c / np.linalg.norm(x)
    monkeypatch.setattr(kashin, "PASSES", 1)
    with pytest.raises(ConvergenceError, match="is not within c'"):
        spread(x, params)


def test_frame_that_is_not_tight_raises(frame40):
    # U @ U.T = 0.81 I would leave 19% of the residual behind the exact
    # step, so no such frame can be made, by hand or otherwise; nor one
    # with a NaN in U
    with pytest.raises(ConvergenceError, match="frame is not tight"):
        KashinFrame(u=0.9 * frame40.u, level_k=np.inf)
    u = frame40.u.copy()
    u[3, 7] = np.nan
    with pytest.raises(ConvergenceError, match="frame is not tight"):
        KashinFrame(u=u, level_k=frame40.level_k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 8, 64, 250])
def test_tight_frame_round_trips_every_input_to_rounding(d):
    # why represent_batch checks no round trip: on a frame that passed
    # construction the exact step leaves only rounding, for Gaussian
    # columns, the frame's own atoms and the spikes e_i, at any scale
    frame = build_frame(d, np.random.default_rng(d + 4))
    gauss = np.random.default_rng(d + 5).standard_normal((d, 100))
    x = np.hstack([gauss, np.sqrt(2) * frame.u, np.eye(d)])
    for scale in (1e-300, 1e-150, 1.0, 1e150, 1e200, 1e300):
        y = represent_batch(scale * x, frame)
        # the residual is taken back to unit scale, where its square
        # neither underflows nor overflows
        err = np.linalg.norm((frame.u @ y - scale * x) / scale, axis=0)
        assert np.all(err <= 1e-13 * np.linalg.norm(x, axis=0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [8, 64, 250])
def test_passes_spread_the_same_at_any_finite_scale(d):
    # each column is scaled by a power of two before the float32 passes, so
    # x and x / 2**k get the same passes: no cap's sum of squares overflows
    # past ||x||_2 ~ 1e154 or underflows near 1e-300, and the spread is
    # that of the unit-scale column
    frame = build_frame(d, np.random.default_rng(d + 6))
    gauss = np.random.default_rng(d + 7).standard_normal((d, 50))
    for scale in (1e-300, 1e200, 1e300):
        x = scale * gauss
        k = np.frexp(scale)[1]
        unit = np.ldexp(x, -k)
        spread = np.sqrt(frame.big_d) / np.linalg.norm(unit, axis=0)
        want = spread * np.abs(represent_batch(unit, frame)).max(axis=0)
        got = spread * np.abs(np.ldexp(represent_batch(x, frame), -k)).max(axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_column_raises(bad, frame40):
    # a check written as residual > bound is False at a NaN, and would let
    # NaN coefficients through
    x = np.random.default_rng(7).standard_normal((40, 3))
    x[5, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        represent_batch(x, frame40)


@pytest.mark.parametrize("d", [8, 16, 64, 250])
def test_default_pass_count_matches_sixty_passes(d, monkeypatch):
    # the clipped passes past the default barely move the certified level,
    # and the exact step leaves only rounding in the round trip
    frame = build_frame(d, np.random.default_rng(d))
    with monkeypatch.context() as patch:
        patch.setattr(kashin, "PASSES", 60)
        frame60 = build_frame(d, np.random.default_rng(d))
    np.testing.assert_array_equal(frame.u, frame60.u)
    assert abs(frame.level_k - frame60.level_k) <= 1e-4 * frame60.level_k
    x = np.random.default_rng(d + 1).standard_normal((d, 200))
    y = represent_batch(x, frame)
    err = np.linalg.norm(frame.u @ y - x, axis=0) / np.linalg.norm(x, axis=0)
    assert err.max() <= 1e-13


@pytest.mark.parametrize("d", [1, 8, 64, 250])
def test_coefficient_passes_match_the_residual_passes(d):
    # the passes on c1 = U1.T @ r are the passes on r in another basis, so
    # both give the same coefficients up to rounding: float32 rounding here,
    # against the float64 passes of the oracle
    frame = build_frame(d, np.random.default_rng(d + 2))
    x = np.random.default_rng(d + 3).standard_normal((d, 300))
    x[:, 0] = 0.0
    got = represent_batch(x, frame)
    want = represent_residual_passes(x, frame.u, kashin.PASSES)
    gap = np.abs(got - want).max(axis=0)
    assert gap[0] == 0.0
    assert np.all(gap[1:] <= 1e-6 * np.linalg.norm(x[:, 1:], axis=0))


@pytest.mark.parametrize("d", [1, 8, 64, 250])
def test_level_matches_the_float64_residual_passes(d):
    # the level certified through the float32 passes is the level of the
    # float64 residual passes on the same probes, which build_frame draws
    # after the two d x d Gaussian matrices behind its bases
    frame = build_frame(d, np.random.default_rng(d))
    rng = np.random.default_rng(d)
    rng.standard_normal((2, d, d))
    x = rng.standard_normal((d, kashin.PROBES))
    y = represent_residual_passes(x, frame.u, kashin.PASSES)
    spread = np.sqrt(frame.big_d) * np.abs(y).max(axis=0) / np.linalg.norm(x, axis=0)
    assert frame.level_k == pytest.approx(spread.max() * kashin.LEVEL_SAFETY, rel=1e-6)


def test_build_frame_validation():
    with pytest.raises(ValueError):
        build_frame(0, np.random.default_rng(0))


@pytest.mark.parametrize("d", [2.5, 4.0])
def test_build_frame_rejects_a_float_dimension(d):
    # unchecked, a float d reaches numpy as a shape and raises its TypeError
    with pytest.raises(ValueError, match="d must be a positive integer"):
        build_frame(d, np.random.default_rng(0))

