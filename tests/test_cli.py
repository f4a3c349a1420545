import numpy as np
import pytest

from pbm.cli import main


DME_INI = """\
[experiment]
n = 20
d = 4
c = 1.0
m_list = 2 4
theta_list = 0.1 0.25
alpha = 2.0
trials = 30
seed = 7
accountant = exact
"""

SGD_INI = """\
[sgd]
total_clients = 30
sampled = 10
rounds = 5
clip = 5.0
learning_rate = 0.3
theta = 0.25
m = 4
seed = 2
use_kashin = false
accountant = bound

[loss]
kind = quadratic
dimension = 4
smoothness = 1.0
radius = 1.0
shift = 1.0
data_seed = 2
"""


@pytest.fixture
def dme_config(tmp_path):
    path = tmp_path / "dme.ini"
    path.write_text(DME_INI)
    return path


@pytest.fixture
def sgd_config(tmp_path):
    path = tmp_path / "sgd.ini"
    path.write_text(SGD_INI)
    return path


def test_dme_happy_path(tmp_path, dme_config, capsys):
    out = tmp_path / "out.csv"
    series = tmp_path / "series.json"
    code = main([
        "dme", "--config", str(dme_config), "--out", str(out),
        "--json", str(series), "--threads", "1",
    ])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "# pbm-csv v1 dme"
    # 2 m values x 2 theta values x (pbm + gaussian)
    assert len(lines) == 2 + 8
    assert series.exists()


def test_dme_byte_identical_across_threads(tmp_path, dme_config):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["dme", "--config", str(dme_config), "--out", str(out1),
                 "--seed", "99", "--threads", "1"]) == 0
    assert main(["dme", "--config", str(dme_config), "--out", str(out2),
                 "--seed", "99", "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dme_clipping_flag(tmp_path, dme_config):
    out = tmp_path / "clip.csv"
    assert main(["dme", "--config", str(dme_config), "--out", str(out),
                 "--clipping", "--threads", "1"]) == 0
    lines = out.read_text().splitlines()
    # each sweep point gains a clipped row
    assert len(lines) == 2 + 12
    assert sum(",clipped" in ln for ln in lines) == 4


def test_dme_unreachable_epsilon_target_is_infeasible(tmp_path):
    cfg = tmp_path / "tiny_eps.ini"
    cfg.write_text(
        "[experiment]\nn = 20\nd = 4\nm_list = 2\neps_list = 1e-30\ntrials = 5\n"
    )
    assert main(["dme", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--threads", "1"]) == 3


def test_dme_ignores_pbm_threads_variable(tmp_path, dme_config, monkeypatch):
    monkeypatch.setenv("PBM_THREADS", "abc")
    assert main(["dme", "--config", str(dme_config), "--out", str(tmp_path / "x.csv"),
                 "--threads", "1"]) == 0


def test_sgd_happy_path(tmp_path, sgd_config, capsys):
    out = tmp_path / "traj.csv"
    code = main(["sgd", "--config", str(sgd_config), "--out", str(out)])
    assert code == 0
    assert "final loss" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "# pbm-csv v1 sgd"
    assert len(lines) == 2 + 5


def test_sgd_seed_override_changes_output(tmp_path, sgd_config):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    assert main(["sgd", "--config", str(sgd_config), "--out", str(out1)]) == 0
    assert main(["sgd", "--config", str(sgd_config), "--out", str(out2),
                 "--seed", "3"]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    out3 = tmp_path / "t3.csv"
    assert main(["sgd", "--config", str(sgd_config), "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_rdp_curve_exact_below_bound(tmp_path):
    exact_csv = tmp_path / "exact.csv"
    bound_csv = tmp_path / "bound.csv"
    args = ["--n", "50", "--m", "4", "--theta", "0.25"]
    assert main(["rdp-curve", *args, "--mode", "exact", "--out", str(exact_csv)]) == 0
    assert main(["rdp-curve", *args, "--mode", "bound", "--out", str(bound_csv)]) == 0

    def read_eps(path):
        rows = [ln.split(",") for ln in path.read_text().splitlines()[2:]]
        return np.array([float(r[1]) for r in rows])

    assert np.all(read_eps(exact_csv) <= read_eps(bound_csv))


def test_rdp_curve_gaussian_mode(tmp_path):
    out = tmp_path / "gauss.csv"
    code = main(["rdp-curve", "--n", "100", "--mode", "gaussian",
                 "--sigma", "0.5", "--alphas", "2,4", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    eps = [float(r.split(",")[1]) for r in rows]
    assert eps[0] == pytest.approx(1.0 * 2.0 / (2.0 * 100**2 * 0.25))
    assert eps[1] == pytest.approx(2.0 * eps[0])
    # sigma is mandatory in gaussian mode
    assert main(["rdp-curve", "--n", "100", "--mode", "gaussian",
                 "--out", str(out)]) == 2


def test_kashin_check(tmp_path, capsys):
    save = tmp_path / "frame.npz"
    code = main(["kashin-check", "--d", "16", "--seed", "1",
                 "--save", str(save)])
    assert code == 0
    out = capsys.readouterr().out
    assert "level_k=" in out and "parseval_residual=" in out
    assert save.exists()


def test_kashin_check_too_few_iters_is_numerical_failure():
    assert main(["kashin-check", "--d", "64", "--seed", "1", "--iters", "1"]) == 4


def test_select_params_rdp_mode(capsys):
    code = main(["select-params", "--n", "100", "--d", "4",
                 "--alpha", "2", "--eps-budget", "1.0"])
    assert code == 0
    out = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    theta = float(out["theta"])
    m = int(out["m"])
    bound = float(out["bound_total"])
    assert 0.0 < theta <= 0.25
    assert m >= 1
    assert bound <= 1.0 * (1.0 + 1e-9)


def test_select_params_approx_mode(capsys):
    code = main(["select-params", "--n", "200", "--d", "8",
                 "--eps-dp", "1.0", "--delta", "1e-5", "--verify"])
    assert code == 0
    out = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert 0.0 < float(out["theta"]) <= 0.25
    assert int(out["m"]) >= 1
    assert float(out["achieved_eps_dp"]) > 0.0


def test_select_params_mode_flags_are_exclusive():
    both = main(["select-params", "--n", "10", "--d", "1",
                 "--eps-budget", "1.0", "--eps-dp", "1.0"])
    neither = main(["select-params", "--n", "10", "--d", "1"])
    assert both == 2
    assert neither == 2


def test_select_params_infeasible_budget():
    assert main(["select-params", "--n", "10", "--d", "1",
                 "--eps-budget", "0.0"]) == 3


def test_missing_config_file(tmp_path):
    assert main(["dme", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nn = 10\nd = 2\nm_list = 2\ntheta_list = 0.1\nepsilon = 3\n")
    assert main(["dme", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_bad_config_value(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nn = ten\nd = 2\nm_list = 2\ntheta_list = 0.1\n")
    assert main(["dme", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_conflicting_sweep_lists(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[experiment]\nn = 10\nd = 2\nm_list = 2\n"
        "theta_list = 0.1\neps_list = 1.0\n"
    )
    assert main(["dme", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_sgd_missing_section(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[loss]\nkind = quadratic\n")
    assert main(["sgd", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
