"""End-to-end acceptance checks, one test per shipped guarantee.

Each test computes its verdict, records a summary line through the
`acceptance` fixture, and then asserts, so the terminal summary lists
every criterion with a pass/fail verdict and the key measured numbers.
"""

import time
from math import sqrt

import numpy as np

from oracles import (
    brute_force_extreme_rdp,
    interior_grid_max_rdp,
    linear_curve_dp_oracle,
    rdp_to_dp_simple,
)
from pbm import cli
from pbm.accounting import (
    RdpCurve,
    gaussian_rdp,
    pbm_exact_curve,
    pbm_exact_rdp,
    rdp_to_dp,
    scale,
)
from pbm.benchmark import ExperimentConfig, run_tradeoff
from pbm.kashin import build_frame, represent_batch
from pbm.mechanism import (
    MechanismParams,
    coordinate_probs,
    mse_bound,
    sample_sums,
    server_decode,
    spread,
)
from pbm.secagg import (
    bits_per_coord,
    clipped_spec,
    count_wraps,
    default_modulus,
    lift_sum,
)
from pbm.sgd import (
    LossSpec,
    QuadraticLoss,
    SgdConfig,
    convergence_bound,
    mechanism_sigma2,
    run,
)

GRID = [
    (n, m, theta, alpha)
    for n in (2, 3, 4)
    for m in (1, 2, 3)
    for theta in (0.05, 0.25)
    for alpha in (1.5, 2.0, 4.0)
]


def test_criterion_01_exact_accountant_matches_brute_force(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    for n, m, theta, alpha in GRID:
        got = pbm_exact_rdp(n, m, theta, alpha)
        want = brute_force_extreme_rdp(n, m, theta, alpha)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    acceptance(
        1, ok,
        f"endpoint accountant vs independent oracle on {len(GRID)} points: "
        f"max rel err {worst:.2e} (tol 1e-9), {elapsed:.1f}s (limit 10s)",
    )
    assert ok


def test_criterion_02_interior_assignments_never_beat_extremes(acceptance):
    t0 = time.perf_counter()
    grid_max = interior_grid_max_rdp(0.25, 2.0, 0.05)
    extreme = pbm_exact_rdp(3, 1, 0.25, 2.0)
    elapsed = time.perf_counter() - t0
    ok = grid_max <= extreme + 1e-10 and elapsed < 5.0
    acceptance(
        2, ok,
        f"n=3 interior probability grid max {grid_max:.6f} <= extreme-point "
        f"max {extreme:.6f} (tol 1e-10), {elapsed:.1f}s (limit 5s)",
    )
    assert ok


# select-params certifies m trials as m copies of the one-trial curve, so
# subadditivity is checked up to the n and m it is used at, on every order
SUBADDITIVITY_GRID = [
    (n, m, theta)
    for n in (2, 10, 100, 1000)
    for m in (2, 16, 64)
    for theta in (1e-3, 0.1, 0.25)
]


def test_criterion_03_per_trial_subadditivity(acceptance):
    # at m = 1 both sides are the same number, so the printed worst slack
    # and where it is attained are taken over m > 1; the check covers
    # every point
    worst_violation = -np.inf
    worst_multi = (-np.inf, None)
    for n, m, theta, alpha in GRID:
        gap = pbm_exact_rdp(n, m, theta, alpha) - m * pbm_exact_rdp(n, 1, theta, alpha)
        worst_violation = max(worst_violation, gap)
        if m > 1:
            worst_multi = max(worst_multi, (gap, (n, m, theta)))
    for n, m, theta in SUBADDITIVITY_GRID:
        whole = pbm_exact_curve(n, m, theta).epsilons
        split = m * pbm_exact_curve(n, 1, theta).epsilons
        gap = float(np.max(whole - split))
        worst_violation = max(worst_violation, gap)
        worst_multi = max(worst_multi, (gap, (n, m, theta)))
    ok = worst_violation <= 1e-12
    gap, (n, m, theta) = worst_multi
    acceptance(
        3, ok,
        f"eps(m trials) <= m * eps(1 trial) across both grids; worst slack "
        f"over m > 1 {gap:.2e} at n={n} m={m} theta={theta} (tol 1e-12)",
    )
    assert ok


def test_criterion_04_approaches_equal_mse_gaussian_budget(acceptance):
    t0 = time.perf_counter()
    n, alpha, c = 50, 2.0, 1.0
    ladder = [(4, 0.25), (16, 0.125), (64, 0.0625), (256, 0.03125)]
    gaps = []
    for m, theta in ladder:
        eps = pbm_exact_rdp(n, m, theta, alpha)
        sigma = sqrt(c * c / (4.0 * n * m * theta * theta))
        eps_gauss = gaussian_rdp(c, n, sigma, alpha)
        gaps.append(abs(eps - eps_gauss) / eps_gauss)
    elapsed = time.perf_counter() - t0
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] < 0.10 and elapsed < 120.0
    acceptance(
        4, ok,
        "relative budget gap vs equal-MSE gaussian at m*theta^2 = 0.25: "
        + " -> ".join(f"{g:.3f}" for g in gaps)
        + f" (monotone, final < 0.10), {elapsed:.1f}s (limit 120s)",
    )
    assert ok


def test_criterion_05_uplink_bit_table(acceptance):
    bits = [(default_modulus(1000, m) - 1).bit_length() for m in (2, 4, 6, 16)]
    ok = bits == [11, 12, 13, 14]
    acceptance(
        5, ok,
        f"bits per coordinate at n=1000, m in (2,4,6,16): {bits} == [11, 12, 13, 14]",
    )
    assert ok


def test_criterion_06_unbiased_within_variance_budget(acceptance):
    t0 = time.perf_counter()
    n, d, m, theta, c, trials = 100, 16, 4, 0.25, 1.0, 5000
    params = MechanismParams(n=n, d=d, c=c, theta=theta, m=m)
    rng = np.random.default_rng(606)
    x = rng.uniform(-c, c, size=(n, d))
    probs = coordinate_probs(spread(x, params), params)
    sums = sample_sums(probs, m, rng, trials)
    ests = server_decode(sums, params)
    mu = x.mean(axis=0)
    per_coord_var = c * c / (4.0 * n * m * theta * theta)
    bias_tol = 4.0 * sqrt(per_coord_var / trials)
    max_bias = float(np.abs(ests.mean(axis=0) - mu).max())
    emp_mse = float(np.mean(np.sum((ests - mu[None, :]) ** 2, axis=1)))
    mse_cap = mse_bound(params) * 1.1
    elapsed = time.perf_counter() - t0
    ok = max_bias <= bias_tol and emp_mse <= mse_cap and elapsed < 60.0
    acceptance(
        6, ok,
        f"bias {max_bias:.2e} <= 4 sigma {bias_tol:.2e}; mse {emp_mse:.4f} <= "
        f"{mse_cap:.4f}; {elapsed:.1f}s (limit 60s)",
    )
    assert ok


def test_criterion_07_reduced_modulus_is_nearly_free(acceptance):
    n, d, m, theta, trials, c = 200, 16, 4, 0.25, 2000, 1.0
    params = MechanismParams(n=n, d=d, c=c, theta=theta, m=m)
    rng = np.random.default_rng(707)
    x = rng.uniform(-c, c, size=(n, d))
    probs = coordinate_probs(spread(x, params), params)
    sums = sample_sums(probs, m, rng, trials)
    modulus, offset = clipped_spec(n, m, theta, sqrt(30.0))
    wraps = count_wraps(sums, modulus, offset)
    wrap_rate = wraps / sums.size
    lifted = lift_sum(sums % modulus, modulus, offset)
    mu = x.mean(axis=0)

    def mse(agg, window=None):
        est = server_decode(agg, params, window)
        return float(np.mean(np.sum((est - mu[None, :]) ** 2, axis=1)))

    ratio = mse(lifted, (offset, offset + modulus)) / mse(sums)
    full_bits = (default_modulus(n, m) - 1).bit_length()
    saved = full_bits - bits_per_coord(modulus)
    ok = wrap_rate <= 1e-3 and 0.95 <= ratio <= 1.05 and saved >= 1
    acceptance(
        7, ok,
        f"wrap rate {wrap_rate:.1e} <= 1e-3; clipped/plain mse ratio "
        f"{ratio:.4f} in [0.95, 1.05]; {saved} bit(s) saved per coordinate",
    )
    assert ok


def test_criterion_08_frame_certification(acceptance):
    rng = np.random.default_rng(808)
    frame = build_frame(250, rng)
    parseval = float(np.abs(frame.u @ frame.u.T - np.eye(250)).max())
    x = rng.standard_normal((250, 100))
    y = represent_batch(x, frame)
    rel_err = np.linalg.norm(frame.u @ y - x, axis=0) / np.linalg.norm(x, axis=0)
    ok = parseval < 1e-9 and float(rel_err.max()) < 1e-6 and frame.level_k <= 3.5
    acceptance(
        8, ok,
        f"d=250 frame: parseval residual {parseval:.1e} < 1e-9, worst "
        f"roundtrip {rel_err.max():.1e} < 1e-6, level {frame.level_k:.2f} <= 3.5",
    )
    assert ok


def test_criterion_09_dp_conversion_matches_closed_form(acceptance):
    alphas = np.geomspace(1.05, 200.0, 400)
    delta = 1e-6
    worst = 0.0
    always_below_simple = True
    for rho in (0.01, 0.1, 1.0):
        curve = RdpCurve(alphas=alphas, epsilons=rho * alphas, kind="gaussian")
        got = rdp_to_dp(curve, delta)
        want = linear_curve_dp_oracle(rho, delta)
        worst = max(worst, abs(got - want) / want)
        always_below_simple &= got <= rdp_to_dp_simple(curve, delta)
    ok = worst <= 0.05 and always_below_simple
    acceptance(
        9, ok,
        f"grid conversion vs closed-form minimizer: max rel gap {worst:.2e} "
        f"(tol 5e-2); grid form never exceeds the simple form",
    )
    assert ok


def test_criterion_10_training_loop_sanity(acceptance):
    t0 = time.perf_counter()
    config = SgdConfig(
        total_clients=500, sampled=50, rounds=200, clip=4.0,
        learning_rate="auto", theta=0.25, m=256, seed=10, use_kashin=True,
        loss=LossSpec(kind="quadratic", dimension=8, smoothness=1.0,
                      radius=1.0, shift=2.0, data_seed=3),
    )
    noisy = run(config)
    clean = run(config, disable_mechanism=True)
    loss_gap = abs(noisy.losses[-1] - clean.losses[-1]) / clean.losses[-1]
    loss = QuadraticLoss(config.loss, config.total_clients)
    bound = convergence_bound(
        loss.smoothness, loss.gap(), mechanism_sigma2(noisy.params), config.rounds
    )
    mean_grad_sq = float(noisy.grad_norms_sq.mean())
    rebuilt = scale(noisy.per_round, config.rounds)
    rows = np.arange(1, config.rounds + 1)[:, None] * noisy.per_round.epsilons
    ledger_ok = np.array_equal(noisy.ledger.epsilons, rebuilt.epsilons) and (
        np.array_equal(noisy.eps_matrix, rows)
    )
    elapsed = time.perf_counter() - t0
    ok = loss_gap <= 0.10 and mean_grad_sq <= bound and ledger_ok
    acceptance(
        10, ok,
        f"final loss within {loss_gap:.1%} of paired noiseless run (cap 10%); "
        f"mean grad^2 {mean_grad_sq:.3f} <= bound {bound:.3f}; ledger equals "
        f"rounds x per-round curve, no subsampling credit; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_cli_output_is_byte_deterministic(acceptance, tmp_path):
    dme_ini = tmp_path / "dme.ini"
    dme_ini.write_text(
        "[experiment]\nn = 20\nd = 4\nm_list = 2 4\ntheta_list = 0.1 0.25\n"
        "trials = 30\nseed = 7\n"
    )
    sgd_ini = tmp_path / "sgd.ini"
    sgd_ini.write_text(
        "[sgd]\ntotal_clients = 30\nsampled = 10\nrounds = 5\nclip = 5.0\n"
        "learning_rate = 0.3\nm = 4\nseed = 2\nuse_kashin = false\n"
        "[loss]\nkind = quadratic\ndimension = 4\ndata_seed = 2\n"
    )
    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    codes = [
        cli.main(["dme", "--config", str(dme_ini), "--out", str(d1),
                  "--seed", "42", "--threads", "1"]),
        cli.main(["dme", "--config", str(dme_ini), "--out", str(d2),
                  "--seed", "42", "--threads", "2"]),
        cli.main(["sgd", "--config", str(sgd_ini), "--out", str(s1)]),
        cli.main(["sgd", "--config", str(sgd_ini), "--out", str(s2)]),
    ]
    dme_same = d1.read_bytes() == d2.read_bytes()
    sgd_same = s1.read_bytes() == s2.read_bytes()
    ok = codes == [0, 0, 0, 0] and dme_same and sgd_same
    acceptance(
        11, ok,
        f"repeated seeded runs byte-identical: dme {dme_same} "
        f"(threads 1 vs 2), sgd {sgd_same}",
    )
    assert ok


def test_criterion_12_abstract_claims_at_vector_scale(acceptance):
    # a direct-encoding dme sweep; epsilon and comm_bits do not depend on
    # the draws, so two trials suffice
    thetas = (0.01, 0.02, 0.05, 0.1, 0.25)
    config = ExperimentConfig(
        n=50, d=16, m_list=(2, 4, 16), theta_list=thetas, trials=2,
        clipping=True, seed=12,
    )
    eps, bits = {}, {}
    for r in run_tradeoff(config):
        if r.mode == "clipped":
            bits[(r.m, r.theta)] = r.comm_bits
        else:
            eps.setdefault((r.m, r.theta), {})[r.mechanism] = r.epsilon
    ratio_ok = bits_ok = True
    ratios, bit_ends = [], []
    for m in config.m_list:
        ratio = [eps[(m, t)]["pbm"] / eps[(m, t)]["gaussian"] for t in thetas]
        cost = [bits[(m, t)] for t in thetas]
        # thetas ascend, so "does not rise as theta falls" is nondecreasing
        ratio_ok &= all(a <= b for a, b in zip(ratio, ratio[1:]))
        ratio_ok &= ratio[thetas.index(0.05)] <= 1.02
        bits_ok &= all(a <= b for a, b in zip(cost, cost[1:])) and cost[0] < cost[-1]
        ratios.append(f"{ratio[thetas.index(0.05)]:.4f}")
        bit_ends.append(f"{cost[0]} < {cost[-1]}")
    ok = ratio_ok and bits_ok
    acceptance(
        12, ok,
        "n=50 d=16 direct encoding, m in (2, 4, 16): pbm/gaussian eps ratio "
        f"falls with theta, at theta=0.05 {', '.join(ratios)} (<= 1.02); "
        f"clipped bits fall with theta, theta=0.01 vs 0.25: {', '.join(bit_ends)}",
    )
    assert ok
