"""Tests of the benchmark itself.

Every output check accepts a good output and rejects a planted bad one;
the span arithmetic is checked on hand-made spans; a traced worker writes
the same bytes as an untraced one. Run from the repository root with
``python3 -m pytest benchmarks``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

D, TRIALS = 250, 15
POINTS = [(2, 0.1), (2, 0.25), (16, 0.1), (16, 0.25)]
DME_HEADER = "# pbm-csv v1 dme\nm,theta,alpha,epsilon,mse,comm_bits,wraps,mechanism,mode\n"


def dme_rows():
    rows = []
    for m, theta in POINTS:
        bound = 1e-3 / (m * theta**2)
        eps = repr(0.3 * m * theta)
        rows.append([m, theta, 2.0, eps, 0.5 * bound, 5500, 0, "pbm", "plain"])
        rows.append([m, theta, 2.0, eps, 0.5 * bound, 4500, 1, "pbm", "clipped"])
        rows.append([m, theta, 2.0, "0.01", bound, 0, 0, "gaussian", "plain"])
    return rows


def write_dme(path, rows):
    path.write_text(DME_HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return checks.check_dme(path, D, TRIALS, [2, 16], [0.1, 0.25])


def test_dme_accepts_good_output(tmp_path):
    assert write_dme(tmp_path / "a.csv", dme_rows()) == []


def test_dme_rejects_swapped_epsilons(tmp_path):
    rows = dme_rows()
    rows[1][3], rows[4][3] = rows[4][3], rows[1][3]     # clipped eps of two points
    problems = write_dme(tmp_path / "a.csv", rows)
    assert len(problems) == 2 and all("clipped" in p for p in problems)


def test_dme_rejects_mse_above_bound(tmp_path):
    rows = dme_rows()
    rows[0][4] = rows[2][4] * 1.2
    problems = write_dme(tmp_path / "a.csv", rows)
    assert len(problems) == 1 and "mse" in problems[0]


def test_dme_allows_trial_noise_within_four_sigma(tmp_path):
    rows = dme_rows()
    rows[0][4] = rows[2][4] * (1.0 + 3.9 * (2.0 / (D * TRIALS)) ** 0.5)
    assert write_dme(tmp_path / "a.csv", rows) == []


def test_dme_rejects_frequent_wraps(tmp_path):
    rows = dme_rows()
    rows[1][6] = int(2e-3 * D * TRIALS)
    problems = write_dme(tmp_path / "a.csv", rows)
    assert len(problems) == 1 and "wrap rate" in problems[0]


def test_dme_rejects_missing_rows(tmp_path):
    rows = [r for r in dme_rows() if not (r[0] == 16 and r[7] == "gaussian")]
    assert len(write_dme(tmp_path / "a.csv", rows)) == 2
    rows = [r for r in dme_rows() if r[0] != 2]
    assert "configured" in write_dme(tmp_path / "b.csv", rows)[0]


def test_same_bytes_detects_one_changed_byte(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    data = (DME_HEADER + "2,0.1,2.0,0.6,0.05,5500,0,pbm,plain\n").encode()
    a.write_bytes(data)
    b.write_bytes(data)
    assert checks.same_bytes(a, b)
    b.write_bytes(data.replace(b"0.05", b"0.06"))
    assert not checks.same_bytes(a, b)


ALPHAS = (1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0)
N, M, THETA = 60, 4, 0.2


def write_curve(path, eps):
    lines = ["# pbm-csv v1 rdp-curve", "alpha,epsilon,kind,params_hash"]
    lines += [f"{a!r},{float(e)!r},exact,abc" for a, e in zip(ALPHAS, eps)]
    path.write_text("\n".join(lines) + "\n")
    return checks.check_curve(path, N, M, THETA)


def test_curve_accepts_oracle_values(tmp_path):
    assert write_curve(tmp_path / "c.csv", checks.oracle_curve(N, M, THETA, ALPHAS)) == []


def test_oracle_matches_brute_force_enumeration():
    # every client assignment at n = 3, m = 2, summed by direct enumeration
    n, m, theta = 3, 2, 0.2
    lo, hi = 0.5 - theta, 0.5 + theta
    from itertools import product
    from scipy.stats import binom

    def law(ps):
        out = np.zeros(n * m + 1)
        for counts in product(range(m + 1), repeat=n):
            out[sum(counts)] += np.prod([binom.pmf(c, m, p) for c, p in zip(counts, ps)])
        return out

    best = np.zeros(len(ALPHAS))
    for others in product((lo, hi), repeat=n - 1):
        p, q = law(others + (lo,)), law(others + (hi,))
        for i, a in enumerate(ALPHAS):
            for x, y in ((p, q), (q, p)):
                best[i] = max(best[i], np.log(np.sum(x**a * y ** (1 - a))) / (a - 1))
    np.testing.assert_allclose(checks.oracle_curve(n, m, theta, ALPHAS), best, rtol=1e-12)


def test_curve_rejects_small_relative_error(tmp_path):
    eps = checks.oracle_curve(N, M, THETA, ALPHAS)
    eps[2] *= 1 + 1e-4
    problems = write_curve(tmp_path / "c.csv", eps)
    assert len(problems) == 1 and "oracle" in problems[0]


def test_curve_rejects_decreasing_order(tmp_path):
    eps = checks.oracle_curve(N, M, THETA, ALPHAS)
    eps[-2], eps[-1] = eps[-1], eps[-2]        # above the oracle's orders
    problems = write_curve(tmp_path / "c.csv", eps)
    assert len(problems) == 1 and "nondecreasing" in problems[0]


SGD_HEADER = "# pbm-csv v1 sgd\nround,loss,grad_norm_sq,eps_at_2,eps_at_8\n"


def write_sgd(path, losses, ledger):
    body = "".join(
        f"{t + 1},{loss!r},0.1,{e!r},{4 * e!r}\n"
        for t, (loss, e) in enumerate(zip(losses, ledger))
    )
    path.write_text(SGD_HEADER + body)
    return checks.check_sgd(path, len(losses))


def test_sgd_accepts_good_output(tmp_path):
    assert write_sgd(tmp_path / "s.csv", [2.0, 1.5, 1.6, 1.0], [1.0, 2.0, 3.0, 4.0]) == []


@pytest.mark.parametrize("losses, ledger, needle", [
    ([2.0, 1.5, float("nan"), 1.0], [1.0, 2.0, 3.0, 4.0], "non-finite"),
    ([2.0, 1.5, 1.6, 2.1], [1.0, 2.0, 3.0, 4.0], "not below"),
    ([2.0, 1.5, 1.6, 1.0], [1.0, 2.0, 1.9, 4.0], "decreases"),
])
def test_sgd_rejects_bad_output(tmp_path, losses, ledger, needle):
    problems = write_sgd(tmp_path / "s.csv", losses, ledger)
    assert problems and all(needle in p for p in problems)


def test_sgd_rejects_missing_rounds(tmp_path):
    path = tmp_path / "s.csv"
    write_sgd(path, [2.0, 1.0], [1.0, 2.0])
    assert "expected 3" in checks.check_sgd(path, 3)[0]


def test_layer_metrics_self_time_and_outermost_calls():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["benchmark.run_tradeoff", 1.0, 9.0, 0],
        ["accounting.pbm_exact_curve", 2.0, 5.0, 1],
        ["accounting.convolve_logpmf", 3.0, 4.0, 2],
        ["accounting.convolve_logpmf", 3.2, 3.7, 3],      # recursive call
        ["kashin.represent_batch", 6.0, 6.5, 1],
    ]
    counts = {"benchmark.draws": 1000, "kashin.vectors": 40}
    got = layer_metrics(spans, counts)
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["benchmark.self_s"] == pytest.approx(8.0 - 3.0 - 0.5)
    assert got["accounting.self_s"] == pytest.approx(3.0)
    assert got["kashin.self_s"] == pytest.approx(0.5)
    assert got["accounting.convolve_logpmf.s"] == pytest.approx(1.0)
    assert got["accounting.convolve_logpmf.calls"] == 2
    assert got["accounting.calls"] == 3
    assert got["benchmark.draw_ns"] == pytest.approx(4.5e9 / 1000)
    assert got["kashin.vectors_per_call"] == 40
    assert got["trace.layer_share"] == pytest.approx(0.8)
    assert got["accounting.share"] == pytest.approx(0.3)


def run_worker(opdir: Path, calls, trace: bool) -> dict:
    opdir.mkdir()
    (opdir / "spec.json").write_text(json.dumps({"calls": calls, "trace": trace}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "spec.json", "result.json"],
        cwd=opdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((opdir / "result.json").read_text())


def test_traced_worker_writes_identical_bytes(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[experiment]\nn = 20\nd = 8\nm_list = 2 4\ntheta_list = 0.25\n"
        "trials = 5\nuse_kashin = true\n"
    )
    calls = [
        ["dme", "--config", str(cfg), "--out", "d.csv", "--json", "d.json",
         "--clipping", "--seed", "3", "--threads", "1"],
        ["rdp-curve", "--n", "30", "--m", "2", "--theta", "0.2", "--out", "c.csv"],
    ]
    plain = run_worker(tmp_path / "plain", calls, trace=False)
    traced = run_worker(tmp_path / "traced", calls, trace=True)
    for name in ("d.csv", "d.json", "c.csv"):
        assert checks.same_bytes(tmp_path / "plain" / name, tmp_path / "traced" / name)
    assert "spans" not in plain
    got = layer_metrics(traced["spans"], traced["counts"])
    assert got["accounting.convolve_logpmf.calls"] > 0
    assert got["kashin.represent_batch.calls"] == 1
    assert got["kashin.vectors"] == 20
    assert got["benchmark.draws"] == 5 * 20 * 16 * 2     # trials n coords points
    names = {s[0] for s in traced["spans"]}
    assert {"cli.main", "config.load_dme_config", "benchmark.run_tradeoff"} <= names


def test_runner_fails_without_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rdp-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
