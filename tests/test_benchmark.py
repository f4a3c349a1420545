import json
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from oracles import realizable_pair_rdp
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
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _small_config(c=bad)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _small_config(safety_c=bad)
    assert _small_config(safety_c=0.0).safety_c == 0.0


def test_generate_clients_bounds():
    config = _small_config(n=200, d=9, c=0.8)
    x = generate_clients(config, np.random.default_rng(3))
    assert x.shape == (200, 9)
    assert np.abs(x).max() <= config.c / sqrt(config.d)
    assert np.linalg.norm(x, axis=1).max() <= config.c * (1.0 + 1e-12)


def test_run_deterministic_across_threads():
    config = _small_config()
    once = run_tradeoff(config)
    again = run_tradeoff(config)
    assert once == again
    threaded = run_tradeoff(replace(config, threads=2))
    assert once == threaded


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


def test_tight_safety_margin_wraps():
    records = run_tradeoff(_small_config(clipping=True, safety_c=0.0))
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
