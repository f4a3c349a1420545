from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from oracles import realizable_pair_rdp
from pbm import accounting, cli
from pbm.config import load_sgd_config
from pbm.kashin import build_frame
from pbm.mechanism import (
    MechanismParams,
    clip_rows,
    coordinate_probs,
    mse_bound,
    sample_sums,
    server_decode,
    spread,
)
from pbm.sgd import (
    LossSpec,
    QuadraticLoss,
    SgdConfig,
    auto_learning_rate,
    convergence_bound,
    mechanism_sigma2,
    run,
    write_trajectory_csv,
)


ROOT = Path(__file__).resolve().parents[1]


def _quad_config(**overrides) -> SgdConfig:
    base = dict(
        total_clients=40, sampled=40, rounds=20, clip=10.0, learning_rate=1.0,
        theta=0.25, m=4, seed=5, use_kashin=False,
        loss=LossSpec(kind="quadratic", dimension=6, smoothness=1.0,
                      radius=1.0, shift=2.0, data_seed=3),
    )
    base.update(overrides)
    return SgdConfig(**base)


# ---------------------------------------------------------------------------
# helpers


def test_mechanism_sigma2():
    # c^2 plus d coordinates of c'^2 / (4*n*m*theta^2) = 0.4 each
    params = MechanismParams(n=10, d=3, c=2.0, theta=0.25, m=4)
    assert mechanism_sigma2(params) == pytest.approx(4.0 + 3 * 0.4)
    framed = replace(params, d=8, frame=build_frame(8, np.random.default_rng(2)))
    assert mechanism_sigma2(framed) == pytest.approx(4.0 + mse_bound(framed))
    assert mse_bound(framed) == pytest.approx(8 * framed.c_prime**2 / 10.0)
    # the noise term vanishes as the count budget grows
    huge = mechanism_sigma2(replace(params, m=10**8))
    assert huge == pytest.approx(4.0, rel=1e-6)


def test_mechanism_sigma2_covers_the_frame_decode_error():
    # sgd_desk.ini's geometry: the frame's decode MSE is about K^2 / 100,
    # above the c^2 / (4*n*m*theta^2) = 0.02 of a single coordinate at c = 4
    n, d, c, trials = 50, 8, 4.0, 2000
    frame = build_frame(d, np.random.default_rng(7))
    params = MechanismParams(n=n, d=d, c=c, theta=0.25, m=64, frame=frame)
    rng = np.random.default_rng(11)
    grads = clip_rows(2.0 * c * rng.standard_normal((n, d)), c)
    probs = coordinate_probs(spread(grads, params), params)
    ests = server_decode(sample_sums(probs, 64, rng, trials), params)
    noise = float(np.mean(np.sum((ests - grads.mean(axis=0)) ** 2, axis=1)))
    assert noise > 0.04
    slack = 1.0 + 5.0 * sqrt(2.0 / (d * trials))
    assert noise <= (mechanism_sigma2(params) - c * c) * slack


def test_auto_learning_rate():
    assert auto_learning_rate(2.0, 1.0, 0.0, 100) == pytest.approx(0.5)
    assert auto_learning_rate(1.0, 2.0, 4.0, 100) == pytest.approx(0.1)
    # smoothness cap binds when noise is negligible
    assert auto_learning_rate(1.0, 2.0, 1e-12, 100) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        auto_learning_rate(0.0, 1.0, 1.0, 100)


def test_convergence_bound():
    assert convergence_bound(1.0, 1.0, 1.0, 100) == pytest.approx(0.01 + sqrt(0.08))
    # more rounds help, more clients (a smaller sigma2) help
    assert convergence_bound(1.0, 1.0, 1.0, 400) < convergence_bound(1.0, 1.0, 1.0, 100)
    few = mechanism_sigma2(MechanismParams(n=50, d=1, c=1.0, theta=0.25, m=4))
    many = mechanism_sigma2(MechanismParams(n=200, d=1, c=1.0, theta=0.25, m=4))
    assert convergence_bound(1.0, 1.0, many, 100) < convergence_bound(1.0, 1.0, few, 100)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            convergence_bound(1.0, 1.0, bad, 100)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn", [auto_learning_rate, convergence_bound])
@pytest.mark.parametrize("args, name", [
    ((0.0, 1.0, 1.0, 10), "smoothness"),
    ((-1.0, 1.0, 1.0, 10), "smoothness"),
    ((NAN, 1.0, 1.0, 10), "smoothness"),
    ((INF, 1.0, 1.0, 10), "smoothness"),
    ((1.0, -1.0, 1.0, 10), "d_f"),
    ((1.0, NAN, 1.0, 10), "d_f"),
    ((1.0, INF, 1.0, 10), "d_f"),
    ((1.0, 1.0, -1.0, 10), "sigma2"),
    ((1.0, 1.0, NAN, 10), "sigma2"),
    ((1.0, 1.0, INF, 10), "sigma2"),
    ((1.0, 1.0, 1.0, 0), "rounds"),
    ((1.0, 1.0, 1.0, -3), "rounds"),
    ((1.0, 1.0, 1.0, 2.5), "rounds"),
])
def test_rate_and_bound_reject_bad_arguments_by_name(fn, args, name):
    with pytest.raises(ValueError, match=name):
        fn(*args)


# ---------------------------------------------------------------------------
# losses


def test_quadratic_loss_shape():
    spec = LossSpec(kind="quadratic", dimension=5, smoothness=2.0, data_seed=1)
    loss = QuadraticLoss(spec, 30)
    w = np.random.default_rng(0).standard_normal(5)
    grads = loss.client_grads(w, np.arange(30))
    np.testing.assert_allclose(grads.mean(axis=0), loss.full_grad(w), rtol=1e-12)
    assert loss.full_loss(loss.optimum()) <= loss.full_loss(w)
    assert loss.gap() == pytest.approx(
        loss.full_loss(loss.w0) - loss.full_loss(loss.optimum())
    )
    # finite-difference check of the full gradient
    eps = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = eps
        fd = (loss.full_loss(w + e) - loss.full_loss(w - e)) / (2 * eps)
        assert fd == pytest.approx(loss.full_grad(w)[j], rel=1e-5, abs=1e-8)


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="hinge")
    with pytest.raises(ValueError, match="quadratic"):
        LossSpec(kind="logistic")
    with pytest.raises(ValueError):
        LossSpec(dimension=0)
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="smoothness"):
            LossSpec(smoothness=bad)
    for key in ("radius", "shift"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                LossSpec(**{key: bad})
        LossSpec(**{key: 0.0})


# ---------------------------------------------------------------------------
# training loop


def test_noiseless_full_batch_quadratic_converges_in_one_step():
    # with the exact mean and step 1/L the consensus problem is solved
    # after the first round
    config = _quad_config()
    result = run(config, disable_mechanism=True)
    loss = QuadraticLoss(config.loss, config.total_clients)
    f_star = loss.full_loss(loss.optimum())
    assert result.losses[0] == pytest.approx(f_star, rel=1e-12)
    assert result.grad_norms_sq[0] <= 1e-24
    assert result.losses[-1] == pytest.approx(f_star, rel=1e-12)
    np.testing.assert_allclose(result.final_w, loss.optimum(), rtol=1e-12)


def test_zero_learning_rate_stays_put():
    config = _quad_config(learning_rate=0.0, rounds=5)
    result = run(config, disable_mechanism=True)
    loss = QuadraticLoss(config.loss, config.total_clients)
    f0 = loss.full_loss(loss.w0)
    np.testing.assert_allclose(result.losses, f0, rtol=1e-12)
    np.testing.assert_array_equal(result.final_w, loss.w0)


def test_run_deterministic():
    config = _quad_config(rounds=6, sampled=20, learning_rate=0.3)
    a = run(config)
    b = run(config)
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.final_w, b.final_w)
    np.testing.assert_array_equal(a.eps_matrix, b.eps_matrix)
    np.testing.assert_array_equal(a.selection_counts, b.selection_counts)


def test_sampling_uniform_and_paired():
    config = _quad_config(
        total_clients=60, sampled=15, rounds=400, learning_rate=0.0,
        loss=LossSpec(kind="quadratic", dimension=2, data_seed=1),
    )
    result = run(config, disable_mechanism=True)
    counts = result.selection_counts
    assert counts.sum() == 400 * 15
    mean = 400 * 15 / 60
    sd = sqrt(400 * 0.25 * 0.75)
    assert np.all(np.abs(counts - mean) <= 6.0 * sd)
    # the noisy run consumes identical sampling randomness
    noisy = run(replace(config, rounds=5), disable_mechanism=False)
    paired = run(replace(config, rounds=5), disable_mechanism=True)
    np.testing.assert_array_equal(noisy.selection_counts, paired.selection_counts)


def test_ledger_structure():
    # subsampling 20 of 80 clients takes no credit: the ledger is rounds
    # copies of the cohort's per-round curve
    config = _quad_config(total_clients=80, sampled=20, rounds=12)
    result = run(config, disable_mechanism=True)
    d = config.loss.dimension
    per_coord = accounting.pbm_exact_curve(20, config.m, config.theta, result.alphas)
    np.testing.assert_allclose(
        result.per_round.epsilons, d * per_coord.epsilons, rtol=1e-15
    )
    np.testing.assert_array_equal(
        result.ledger.epsilons, 12 * result.per_round.epsilons
    )
    assert result.eps_matrix.shape == (12, len(result.alphas))
    for t in range(1, 13):
        np.testing.assert_array_equal(
            result.eps_matrix[t - 1], t * result.per_round.epsilons
        )


def test_ledger_covers_a_realizable_pair(tmp_path):
    # N - 1 clients send -x and one sends x, with ||x||_2 = clip, through
    # the run's own frame; a cohort holds the one with probability
    # gamma = n/N, and the rounds' exact D_2 of that pair lower-bounds any
    # certified ledger (the best of 50 random x reaches 117.6)
    path = ROOT / "configs" / "sgd_desk.ini"
    out = tmp_path / "traj.csv"
    assert cli.main(["sgd", "--config", str(path), "--out", str(out)]) == 0
    header, *rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    printed = float(rows[-1][header.index("eps_at_2")])

    config = load_sgd_config(path)
    d, n = config.loss.dimension, config.sampled
    frame_seed = np.random.SeedSequence(config.seed).spawn(2)[0]
    params = MechanismParams(
        n=n, d=d, c=config.clip, theta=config.theta, m=config.m,
        frame=build_frame(d, np.random.default_rng(frame_seed)),
    )
    rng = np.random.default_rng(0)
    realizable = 0.0
    for _ in range(50):
        u = rng.standard_normal(d)
        x = config.clip * u / np.linalg.norm(u)
        p_x, p_minus = coordinate_probs(spread(np.stack([x, -x]), params), params)
        probs = np.vstack([p_x, np.tile(p_minus, (n - 1, 1))])
        one_round = realizable_pair_rdp(
            probs, p_minus, config.m, 2.0, gamma=n / config.total_clients
        )
        realizable = max(realizable, config.rounds * one_round)
    assert realizable > 100.0
    assert printed >= realizable


def test_mechanism_noise_scales_inversely_with_m():
    # gamma = 1 and one full-batch round make the round estimate directly
    # observable from final_w; theta fixed, so variance should go as 1/m
    base = dict(
        total_clients=20, sampled=20, rounds=1, clip=5.0, learning_rate=1.0,
        theta=0.125, use_kashin=False,
        loss=LossSpec(kind="quadratic", dimension=6, smoothness=1.0,
                      radius=1.0, shift=1.0, data_seed=11),
    )
    loss = QuadraticLoss(base["loss"], 20)
    true_mean = loss.full_grad(loss.w0)
    errors = {}
    for m in (4, 16):
        errs = []
        for r in range(50):
            config = SgdConfig(m=m, seed=1000 + r, **base)
            result = run(config)
            mu_hat = (loss.w0 - result.final_w) / 1.0
            errs.append(mu_hat - true_mean)
        errors[m] = np.concatenate(errs)
    ratio = errors[4].var() / errors[16].var()
    assert 2.8 < ratio < 5.8


def test_config_validation():
    with pytest.raises(ValueError):
        _quad_config(sampled=50, total_clients=40)
    with pytest.raises(ValueError):
        _quad_config(rounds=0)
    for clip in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _quad_config(clip=clip)
    with pytest.raises(ValueError):
        _quad_config(learning_rate="fast")
    for rate in (-0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _quad_config(learning_rate=rate)


def test_trajectory_csv(tmp_path):
    config = _quad_config(rounds=4, sampled=10, learning_rate=0.2)
    result = run(config, disable_mechanism=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# pbm-csv v1 sgd"
    # the ledger columns say in the file how they are certified
    assert lines[1] == (
        "# eps_at_* columns: certified bound: rounds x exact per-round curve, "
        "no subsampling credit"
    )
    cols = lines[2].split(",")
    assert cols[:3] == ["round", "loss", "grad_norm_sq"]
    assert cols[3] == "eps_at_1.25"
    assert cols[-1] == "eps_at_64"
    assert len(lines) == 3 + 4
    for i, line in enumerate(lines[3:]):
        vals = line.split(",")
        assert int(vals[0]) == i + 1
        assert float(vals[1]) == result.losses[i]
        assert float(vals[2]) == result.grad_norms_sq[i]
        assert float(vals[3]) == result.eps_matrix[i, 0]
        assert len(vals) == 3 + len(result.alphas)
