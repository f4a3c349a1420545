import json
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from oracles import decode_error_moments, poisson_binomial_chisquare, realizable_pair_rdp

from pbm import benchmark, mechanism, secagg
from pbm.benchmark import (
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    generate_clients,
    run_tradeoff,
    write_records_csv,
    write_series_json,
)
from pbm.config import load_dme_config
from pbm.kashin import build_frame
from pbm.mechanism import MechanismParams, coordinate_probs, spread
from pbm.secagg import default_modulus

ROOT = Path(__file__).resolve().parents[1]


def _small_config(**overrides) -> ExperimentConfig:
    base = dict(
        n=20, d=4, c=1.0, m_list=(2, 4), theta_list=(0.1, 0.25),
        alpha=2.0, trials=50, seed=1234,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(theta_list=None)
    with pytest.raises(ValueError):
        _small_config(eps_list=(1.0,))
    for alpha in (1.0, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _small_config(alpha=alpha)
    with pytest.raises(ValueError):
        _small_config(trials=0)
    for name in ("n", "d", "trials", "seed"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            _small_config(**{name: 2.5})
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _small_config(c=bad)
    # unchecked, 0 and -3 ran on one process, and 1.5 and "2" raised
    # TypeError from the process pool or the comparison
    for bad in (0, -3):
        with pytest.raises(ValueError, match="must all be positive"):
            _small_config(threads=bad)
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match="^threads must be an integer"):
            _small_config(threads=bad)


@pytest.mark.parametrize("name, values", [
    ("m_list", (2, 4, 2)), ("theta_list", (0.25, 0.25)), ("eps_list", (1.0, 2.0, 1.0)),
], ids=["m_list", "theta_list", "eps_list"])
def test_config_rejects_repeated_sweep_values(name, values):
    # a repeated value repeats rows under one (m, theta) key, and a repeated
    # m leaves a theta's trial counts ambiguous
    sweep = {name: values, "theta_list": None} if name == "eps_list" else {name: values}
    with pytest.raises(ValueError, match=f"^{name} entries must be distinct"):
        _small_config(**sweep)


def test_eps_targets_that_meet_at_one_point_share_its_rows():
    # targets far above any epsilon both invert to theta = 1/4; the point
    # is drawn once and each target gets its rows
    config = _small_config(theta_list=None, eps_list=(1e3, 2e3), m_list=(2, 4))
    records = run_tradeoff(config)
    assert [(r.m, r.theta) for r in records[::2]] == [(2, 0.25)] * 2 + [(4, 0.25)] * 2
    assert records[:2] == records[2:4] and records[4:6] == records[6:]


def test_generate_clients_bounds():
    config = _small_config(n=200, d=9, c=0.8)
    x = generate_clients(config, np.random.default_rng(3))
    assert x.shape == (200, 9)
    assert np.abs(x).max() <= config.c / sqrt(config.d)
    assert np.linalg.norm(x, axis=1).max() <= config.c * (1.0 + 1e-12)


def test_run_deterministic_across_threads():
    # (16, 100, 300) draws its increments at one theta in uint8 counts up
    # to m = 100 and in uint16 counts past it
    for m_list in ((2, 4), (16, 100, 300)):
        config = _small_config(m_list=m_list)
        once = run_tradeoff(config)
        again = run_tradeoff(config)
        assert once == again, m_list
        threaded = run_tradeoff(replace(config, threads=2))
        assert once == threaded, m_list


def test_sweep_draws_once_per_theta(monkeypatch):
    # the points at one theta read the first m trials of one draw of the
    # largest m's trials, drawn as the increments between the sorted m
    calls = []

    def probs_at(y, params):
        calls.append(params.theta)
        return mechanism.coordinate_probs(y, params)

    def draw(probs, m, rng, trials):
        calls.append(m)
        return mechanism.sample_sums(probs, m, rng, trials)

    monkeypatch.setattr(benchmark, "coordinate_probs", probs_at)
    monkeypatch.setattr(benchmark, "sample_sums", draw)
    config = _small_config(m_list=(4, 2, 16), theta_list=(0.25, 0.1, 0.2))
    records = run_tradeoff(config)
    assert calls == [0.25, 2, 2, 12, 0.1, 2, 2, 12, 0.2, 2, 2, 12]
    # the rows keep the sweep's point order, m-major as m_list gives it
    points = [(r.m, r.theta) for r in records if r.mechanism == "pbm"]
    assert points == [(m, t) for m in config.m_list for t in config.theta_list]
    # and each point's rows do not depend on where m sits in m_list
    resorted = run_tradeoff(replace(config, m_list=(2, 4, 16)))
    assert sorted(records, key=lambda r: r.m) == sorted(resorted, key=lambda r: r.m)


def test_record_layout():
    # direct encoding sends d = 4 coordinates, the frame D = 2d = 8, each
    # priced at the default modulus
    for use_kashin, coords in ((False, 4), (True, 8)):
        records = run_tradeoff(_small_config(use_kashin=use_kashin))
        # one pbm row and one gaussian row per sweep point
        assert len(records) == 2 * 2 * 2
        by_mech = {}
        for r in records:
            by_mech.setdefault(r.mechanism, []).append(r)
        assert len(by_mech["pbm"]) == 4
        assert len(by_mech["gaussian"]) == 4
        for r in by_mech["pbm"]:
            assert r.mode == "plain"
            bits = (default_modulus(20, r.m) - 1).bit_length()
            assert r.comm_bits == coords * bits
            assert r.epsilon > 0 and r.mse > 0 and r.wraps == 0


def test_gaussian_rows_satisfy_identity():
    config = _small_config()
    for r in run_tradeoff(config):
        if r.mechanism != "gaussian":
            continue
        # replace-one neighbours: sensitivity 2c/n
        want = 2.0 * config.c**2 * config.d * config.alpha / config.n**2
        assert r.epsilon * r.mse == pytest.approx(want, rel=1e-12)
        assert r.comm_bits == 0


def test_pbm_mse_within_bound():
    config = _small_config(trials=400)
    for r in run_tradeoff(config):
        if r.mechanism != "pbm":
            continue
        # direct encoding: d coordinates, each bounded by c/sqrt(d)
        cube = config.c / sqrt(config.d)
        bound = config.d * cube**2 / (4.0 * config.n * r.m * r.theta**2)
        assert r.mse <= bound * (1.0 + 5.0 / sqrt(config.trials))


# two-sided: a row's mse may sit this many standard deviations from its
# exact expectation; each row is a mean over trials of independent errors
MSE_Z = 5.0


def _mse_z_scores(config: ExperimentConfig, records) -> dict:
    """(m, theta) -> z-score of each pbm plain row's mse among records, the
    run of config, against oracles.decode_error_moments at the run's own
    clients, and through the run's own frame when config.use_kashin."""
    client_seed, frame_seed, _ = np.random.SeedSequence(config.seed).spawn(3)
    clients = generate_clients(config, np.random.default_rng(client_seed))
    frame = (
        build_frame(config.d, np.random.default_rng(frame_seed))
        if config.use_kashin else None
    )
    base = MechanismParams(
        n=config.n, d=config.d,
        c=config.c if frame is not None else config.c / sqrt(config.d),
        theta=0.25, m=1, frame=frame,
    )
    u = frame.u if frame is not None else None
    z = {}
    for r in records:
        if (r.mechanism, r.mode) != ("pbm", "plain"):
            continue
        params = replace(base, theta=r.theta, m=r.m)
        probs = coordinate_probs(spread(clients, params), params)
        gain = params.c_prime / (config.n * r.m * r.theta)
        mean, var = decode_error_moments(probs, r.m, gain, u)
        z[(r.m, r.theta)] = (r.mse - mean) / sqrt(var / config.trials)
    return z


# the desk geometry with clipping, swept at m whose increments at each
# theta count in uint8 (to 16 and on to 100) and in uint16 (on to 300)
DESK_WIDE_M = ExperimentConfig(
    n=50, d=16, c=1.0, m_list=(16, 100, 300),
    theta_list=(0.05, 0.1, 0.15, 0.2, 0.25), trials=200, clipping=True,
)


@pytest.mark.parametrize(
    "source", [
        "configs/desk.ini", "configs/full.ini",
        pytest.param(DESK_WIDE_M, id="desk m=16,100,300"),
        "benchmarks/configs/dme_full.ini",
    ],
)
def test_pbm_mse_matches_its_exact_expectation(source):
    # every pbm plain row, from both sides: a kernel or decoder that adds
    # too little noise fails here, where mse <= bound passes it. The
    # benchmark sweep's error passes back through its frame
    config = load_dme_config(ROOT / source) if isinstance(source, str) else source
    records = run_tradeoff(config)
    z = _mse_z_scores(config, records)
    assert len(z) == len(config.m_list) * len(config.theta_list)
    assert max(abs(v) for v in z.values()) <= MSE_Z, z
    # a clipped row that never wraps decodes the same sums as its plain
    # row, so it has the same mse bytes and carries the same z-score
    plain = {(r.m, r.theta): r for r in records if (r.mechanism, r.mode) == ("pbm", "plain")}
    clipped = [r for r in records if r.mode == "clipped"]
    assert len(clipped) == (len(z) if config.clipping else 0)
    for r in clipped:
        assert r.wraps == 0
        assert repr(r.mse) == repr(plain[r.m, r.theta].mse)


@pytest.mark.parametrize("plant", ["m - 1 trials", "decode x 0.9", "decode x 1.1"])
def test_mse_check_catches_planted_faults(plant, monkeypatch):
    config = load_dme_config(ROOT / "configs" / "desk.ini")
    if plant == "m - 1 trials":
        generators = []

        def draw(probs, m, rng, trials):
            # the first increment at each theta draws one trial too few, so
            # the row of every m reads one trial too few
            first = all(g is not rng for g in generators)
            generators.append(rng)
            return mechanism.sample_sums(probs, m - first, rng, trials)

        monkeypatch.setattr(benchmark, "sample_sums", draw)
    else:
        gain = float(plant.split()[-1])

        def decode(sums, params, window=None):
            return gain * mechanism.server_decode(sums, params, window)

        monkeypatch.setattr(benchmark, "server_decode", decode)
    z = _mse_z_scores(config, run_tradeoff(config))
    assert max(abs(v) for v in z.values()) > MSE_Z, z


@pytest.mark.parametrize(
    "ms", [(1, 3), (2, 5, 16), (16, 33, 64), (30, 65), (16, 100), (16, 300)], ids=str
)
def test_sweep_rows_are_nested_binomials(ms, monkeypatch):
    # the sums the sweep decodes at one theta: every row is the sum of its
    # own m trials, and each increment, the trials between two rows, is
    # the sum of its own trials and does not depend on the row before it.
    # At (16, 300) the second increment, of 284 trials, counts in uint16
    config = _small_config(n=3, d=3, m_list=ms, theta_list=(0.25,), trials=40_000)
    drawn, rows = [], {}
    point_records = benchmark._point_records

    def draw(probs, m, rng, trials):
        drawn.append(probs)
        return mechanism.sample_sums(probs, m, rng, trials)

    def point(config, mu_true, params, sums):
        rows[params.m] = sums
        return point_records(config, mu_true, params, sums)

    monkeypatch.setattr(benchmark, "sample_sums", draw)
    monkeypatch.setattr(benchmark, "_point_records", point)
    run_tradeoff(config)
    probs = drawn[0]
    assert list(rows) == list(ms) and len(drawn) == len(ms)
    for m in ms:
        assert rows[m].shape == (config.trials, config.d)
        for j in range(config.d):
            assert poisson_binomial_chisquare(rows[m][:, j], probs[:, j], m) >= 1e-4, (m, j)
    for below, m in zip(ms, ms[1:]):
        step, inc = m - below, rows[m] - rows[below]
        assert np.all((inc >= 0) & (inc <= config.n * step))
        for j in range(config.d):
            assert poisson_binomial_chisquare(inc[:, j], probs[:, j], step) >= 1e-4, (m, j)
            # a sample correlation of independent variables has sd 1/sqrt(trials)
            corr = np.corrcoef(rows[below][:, j], inc[:, j])[0, 1]
            assert abs(corr) <= 4.0 / sqrt(config.trials), (m, j, corr)


def test_clipped_rows_match_plain_without_wraps():
    records = run_tradeoff(_small_config(clipping=True))
    by_point = {}
    for r in records:
        if r.mechanism == "pbm":
            by_point.setdefault((r.m, r.theta), {})[r.mode] = r
    assert all(set(v) == {"plain", "clipped"} for v in by_point.values())
    for pair in by_point.values():
        assert pair["clipped"].wraps == 0
        assert pair["clipped"].mse == pair["plain"].mse
        # at this toy scale the reduced group may only tie the
        # power-of-two field; it must never cost more
        assert pair["clipped"].comm_bits <= pair["plain"].comm_bits


def test_tight_safety_margin_wraps(monkeypatch):
    # with no margin the window is the expected range alone, and the
    # sums' spread around it wraps some of them
    monkeypatch.setattr(secagg, "SAFETY_C", 0.0)
    records = run_tradeoff(_small_config(clipping=True))
    wrapped = [r for r in records if r.mode == "clipped"]
    assert sum(r.wraps for r in wrapped) > 0


def test_eps_list_inversion():
    targets = (0.5, 2.0)
    config = _small_config(theta_list=None, eps_list=targets, m_list=(2,))
    records = [r for r in run_tradeoff(config) if r.mechanism == "pbm"]
    assert len(records) == len(targets)
    for r, target in zip(records, targets):
        assert 0.0 < r.theta <= 0.25
        assert r.epsilon <= target * (1.0 + 1e-6)
        # either the budget binds or theta hit its cap
        assert r.theta == 0.25 or r.epsilon >= target * 0.999


@pytest.mark.parametrize("load", [
    lambda: load_dme_config(ROOT / "configs" / "desk.ini"),
    lambda: _small_config(use_kashin=True, m_list=(2, 8), theta_list=(0.02, 0.25)),
], ids=["desk-direct", "small-framed"])
def test_pbm_rows_cover_a_realizable_pair(load):
    # the run's own clients, the one of largest norm moved to its antipode
    # and spread through the run's own frame: every pbm row's epsilon is at
    # least that pair's exact divergence, in both orders
    config = load()
    client_seed, frame_seed, _ = np.random.SeedSequence(config.seed).spawn(3)
    clients = generate_clients(config, np.random.default_rng(client_seed))
    j = int(np.argmax(np.linalg.norm(clients, axis=1)))
    moved = np.vstack([clients[j], -clients[j], np.delete(clients, j, axis=0)])
    frame = (
        build_frame(config.d, np.random.default_rng(frame_seed))
        if config.use_kashin else None
    )
    base = MechanismParams(
        n=config.n, d=config.d,
        c=config.c if config.use_kashin else config.c / sqrt(config.d),
        theta=0.25, m=1, frame=frame,
    )
    y = spread(moved, base)
    rows = [r for r in run_tradeoff(config) if r.mechanism == "pbm"]
    assert rows
    for r in rows:
        probs = coordinate_probs(y, replace(base, theta=r.theta, m=r.m))
        lower = realizable_pair_rdp(np.delete(probs, 1, axis=0), probs[1], r.m, r.alpha)
        assert 0.0 < lower <= r.epsilon


def test_matched_budget_gap_shrinks_with_m():
    # same m * theta^2 (same MSE bound): the larger-m point should sit
    # closer to its equal-MSE Gaussian budget than the smaller-m point
    config = _small_config(
        n=50, m_list=(4, 64), theta_list=(0.0625, 0.25), trials=2
    )
    eps = {}
    for r in run_tradeoff(config):
        eps.setdefault((r.m, r.theta), {})[r.mechanism] = r.epsilon
    ratio_small = eps[(4, 0.25)]["pbm"] / eps[(4, 0.25)]["gaussian"]
    ratio_large = eps[(64, 0.0625)]["pbm"] / eps[(64, 0.0625)]["gaussian"]
    assert ratio_large < ratio_small


def test_csv_writer(tmp_path):
    records = run_tradeoff(_small_config())
    path = tmp_path / "dme.csv"
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# pbm-csv v1 dme"
    assert lines[1] == CSV_HEADER.splitlines()[1]
    assert len(lines) == 2 + len(records)
    first = lines[2].split(",")
    assert int(first[0]) == records[0].m
    assert float(first[1]) == records[0].theta
    assert float(first[4]) == records[0].mse
    assert first[7] == records[0].mechanism


def test_numpy_integers_write_the_python_int_outputs(tmp_path):
    outputs = []
    for cast in (int, np.int64):
        config = ExperimentConfig(
            n=cast(20), d=cast(4), m_list=(cast(2),), theta_list=(0.25,), trials=5
        )
        records = run_tradeoff(config)
        csv, series = tmp_path / f"{cast.__name__}.csv", tmp_path / f"{cast.__name__}.json"
        write_records_csv(records, csv)
        write_series_json(records, series)
        outputs.append((csv.read_bytes(), series.read_bytes()))
    assert outputs[0] == outputs[1]


def test_json_writer(tmp_path):
    records = [
        TrialRecord(2, 0.25, 2.0, 0.5, 0.020, 44, 0, "pbm", "plain"),
        TrialRecord(2, 0.10, 2.0, 0.1, 0.125, 44, 0, "pbm", "plain"),
        TrialRecord(2, 0.25, 2.0, 0.4, 0.020, 0, 0, "gaussian", "plain"),
    ]
    path = tmp_path / "series.json"
    write_series_json(records, path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == "pbm-json v1 dme-series"
    assert [s["mechanism"] for s in payload["series"]] == ["gaussian", "pbm"]
    pbm_series = payload["series"][1]
    # within a series, points are sorted by increasing mse
    assert pbm_series["mse"] == [0.020, 0.125]
    assert pbm_series["theta"] == [0.25, 0.10]
    assert pbm_series["epsilon"] == [0.5, 0.1]
