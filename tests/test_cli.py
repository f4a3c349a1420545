import configparser
import shlex
from pathlib import Path

import pytest

from pbm import accounting, cli, kashin
from pbm.accounting import pbm_exact_curve, pbm_exact_rdp, rdp_to_dp, scale
from pbm.benchmark import ExperimentConfig
from pbm.cli import main
from pbm.config import load_dme_config, load_sgd_config
from pbm.sgd import LossSpec, SgdConfig

ROOT = Path(__file__).resolve().parents[1]

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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_dme_rejects_threads_below_one(tmp_path, dme_config, threads):
    with pytest.raises(SystemExit) as exc:
        main(["dme", "--config", str(dme_config), "--out", str(tmp_path / "x.csv"),
              "--threads", threads])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_dme_rejects_k_mode_key(tmp_path):
    cfg = tmp_path / "k_mode.ini"
    cfg.write_text(DME_INI + "k_mode = reduced\n")
    assert main(["dme", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--threads", "1"]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_dme_rejects_cinf_key(tmp_path, capsys):
    # direct encoding's coordinate bound is always c/sqrt(d), so the key
    # that set it apart is gone
    cfg = tmp_path / "cinf.ini"
    cfg.write_text(DME_INI + "cinf = 0.5\n")
    assert main(["dme", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "unknown keys" in err and "cinf" in err
    assert not (tmp_path / "x.csv").exists()


def test_sgd_happy_path(tmp_path, sgd_config, capsys):
    out = tmp_path / "traj.csv"
    code = main(["sgd", "--config", str(sgd_config), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "final loss" in stdout
    assert "ledger eps(2) = " in stdout and "certified bound" in stdout
    assert "estimate" not in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "# pbm-csv v1 sgd"
    assert len(lines) == 3 + 5


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


def test_rdp_curve_gaussian_mode(tmp_path):
    out = tmp_path / "gauss.csv"
    code = main(["rdp-curve", "--n", "100", "--mode", "gaussian",
                 "--sigma", "0.5", "--alphas", "2,4", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    eps = [float(r.split(",")[1]) for r in rows]
    # replace-one neighbours: sensitivity 2c/n with c = 1
    assert eps[0] == pytest.approx((2.0 / 100) ** 2 * 2.0 / (2.0 * 0.25))
    assert eps[1] == pytest.approx(2.0 * eps[0])
    # the meta names the neighbour relation, so this hash differs from the
    # one (d0403a1b7e99) the same call wrote when the sensitivity was c/n
    assert {r.split(",")[3] for r in rows} == {"030ba38256ce"}
    # sigma is mandatory in gaussian mode
    assert main(["rdp-curve", "--n", "100", "--mode", "gaussian",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--c", "inf"), ("--c", "nan"), ("--c", "0"),
    ("--sigma", "inf"), ("--sigma", "nan"), ("--sigma", "-1"),
])
def test_rdp_curve_gaussian_rejects_bad_scale(flag, value, tmp_path, capsys):
    out = tmp_path / "gauss.csv"
    scale = {"--c": "1.0", "--sigma": "0.5", flag: value}
    code = main(["rdp-curve", "--n", "100", "--mode", "gaussian",
                 "--c", scale["--c"], "--sigma", scale["--sigma"], "--out", str(out)])
    assert code == 2
    assert f"{flag[2:]} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_kashin_check(capsys):
    code = main(["kashin-check", "--d", "16", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "level_k=" in out and "parseval_residual=" in out


@pytest.mark.parametrize("tool", ["dme", "sgd", "kashin-check"])
def test_spread_above_certified_level_is_numerical_failure(
    tool, tmp_path, capsys, monkeypatch
):
    # a level certified below the probes' own spread cannot hold for the
    # vectors spread after it: a numerical failure, not a config error
    monkeypatch.setattr(kashin, "LEVEL_SAFETY", 0.8)
    cfg = tmp_path / "frame.ini"
    cfg.write_text(DME_INI + "use_kashin = true\n" if tool == "dme" else
                   SGD_INI.replace("use_kashin = false", "use_kashin = true"))
    out = tmp_path / "x.csv"
    args = {"dme": ["--config", str(cfg), "--out", str(out), "--threads", "1"],
            "sgd": ["--config", str(cfg), "--out", str(out)],
            "kashin-check": ["--d", "16", "--seed", "1"]}[tool]
    assert main([tool, *args]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "exceeds the certified level_k" in err
    assert not out.exists()


def _select_params_output(capsys, argv):
    assert main(["select-params", *argv]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    return float(out["theta"]), int(out["m"]), out


def test_select_params_rdp_mode(capsys):
    n, d, alpha, budget = 100, 4, 2.0, 1.0
    theta, m, out = _select_params_output(
        capsys, ["--n", "100", "--d", "4", "--alpha", "2", "--eps-budget", "1.0"]
    )
    assert (theta, m) == (0.25, 18)
    eps_one = pbm_exact_rdp(n, 1, theta, alpha)
    assert float(out["bound_total"]) == d * m * eps_one <= budget
    assert d * pbm_exact_rdp(n, m, theta, alpha) <= budget
    assert d * (m + 1) * eps_one > budget


def test_select_params_approx_mode(capsys):
    n, d, delta = 200, 8, 1e-5
    theta, m, out = _select_params_output(
        capsys, ["--n", "200", "--d", "8", "--eps-dp", "1.0", "--delta", "1e-5"]
    )
    assert (theta, m) == (0.25, 1)
    one_trial = pbm_exact_curve(n, 1, theta)
    achieved = float(out["achieved_eps_dp"])
    assert 0.0 < achieved <= 1.0
    assert achieved == rdp_to_dp(scale(one_trial, d * m), delta)
    assert rdp_to_dp(scale(pbm_exact_curve(n, m, theta), d), delta) <= 1.0
    assert rdp_to_dp(scale(one_trial, d * (m + 1)), delta) > 1.0


# the three selections that the closed-form bound and the approximate-DP
# recipe got wrong: over budget, far under budget, and over target


def test_select_params_large_order_meets_budget(capsys):
    theta, m, out = _select_params_output(
        capsys, ["--n", "1000", "--d", "250", "--alpha", "64", "--eps-budget", "0.01"]
    )
    assert m == 1
    assert theta == pytest.approx(0.0088372, rel=1e-4)
    assert 250 * pbm_exact_rdp(1000, 1, theta, 64.0) <= 0.01
    assert 250 * pbm_exact_rdp(1000, 1, theta + 1e-10, 64.0) > 0.01
    assert float(out["bound_total"]) <= 0.01


def test_select_params_large_budget_spends_it(capsys):
    theta, m, out = _select_params_output(
        capsys, ["--n", "1000", "--d", "1", "--eps-budget", "1"]
    )
    assert (theta, m) == (0.25, 748)
    eps_one = pbm_exact_rdp(1000, 1, 0.25, 2.0)
    assert m * eps_one <= 1.0 < (m + 1) * eps_one
    assert float(out["bound_total"]) == m * eps_one


def test_select_params_approx_dp_meets_target(capsys):
    theta, m, out = _select_params_output(
        capsys, ["--n", "1000", "--d", "250", "--eps-dp", "1", "--delta", "1e-5"]
    )
    assert m == 1
    assert theta == pytest.approx(0.119028, rel=1e-5)

    def certified(t):
        return rdp_to_dp(scale(pbm_exact_curve(1000, 1, t), 250), 1e-5)

    assert certified(theta) <= 1.0 < certified(theta + 1e-10)
    assert float(out["achieved_eps_dp"]) <= 1.0


@pytest.mark.parametrize("flag", ["--eps-budget", "--eps-dp"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_select_params_rejects_non_finite_budget(flag, value, capsys):
    assert main(["select-params", "--n", "100", "--d", "4", flag, value]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rdp-curve", "--n", "10", "--mode", "bound", "--out", "x.csv"],
    ["select-params", "--n", "10", "--d", "1", "--eps-dp", "1.0", "--verify"],
    ["kashin-check", "--d", "8", "--save", "f.npz"],
    ["kashin-check", "--d", "8", "--redundancy", "2"],
    ["kashin-check", "--d", "8", "--redundancy", "inf"],
])
def test_removed_options_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_cli_examples_parse():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [ln for ln in block.splitlines() if ln.startswith("pbm ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


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


def test_unknown_config_key(tmp_path, capsys):
    # a misspelt key, or a misspelt section whose keys would otherwise be
    # ignored without a word
    cases = [
        ("dme", "[experiment]\nn = 10\nd = 2\nm_list = 2\ntheta_list = 0.1\n"
                "epsilon = 3\n", "epsilon"),
        ("dme", DME_INI + "\n[clippin]\nenabled = true\n", "[clippin]"),
        ("sgd", SGD_INI + "\n[los]\nkind = quadratic\n", "[los]"),
    ]
    for i, (tool, text, name) in enumerate(cases):
        bad = tmp_path / f"bad{i}.ini"
        bad.write_text(text)
        out = tmp_path / f"x{i}.csv"
        assert main([tool, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and name in err
        assert not out.exists()


@pytest.mark.parametrize("tool, text", [
    ("dme", DME_INI + "use_kashin = true\nredundancy = {}\n"),
    ("sgd", SGD_INI.replace("use_kashin = false", "use_kashin = true\nredundancy = {}")),
], ids=["dme", "sgd"])
def test_infinite_redundancy_is_a_config_error(tmp_path, tool, text, capsys):
    # the frame's shape is fixed (D = 2d), so the key that set it is gone: a
    # file that still sets it, to any value, fails before any run
    for value in ("inf", "2"):
        cfg = tmp_path / f"cfg_{value}.ini"
        cfg.write_text(text.format(value))
        out = tmp_path / f"x_{value}.csv"
        assert main([tool, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "redundancy" in err
        assert not out.exists()


def test_bad_config_value(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nn = ten\nd = 2\nm_list = 2\ntheta_list = 0.1\n")
    assert main(["dme", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert str(bad) in capsys.readouterr().err
    # a missing required key names the file too
    bad.write_text("[experiment]\nn = 10\nd = 2\ntheta_list = 0.1\n")
    assert main(["dme", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "m_list" in err


def test_conflicting_sweep_lists(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[experiment]\nn = 10\nd = 2\nm_list = 2\n"
        "theta_list = 0.1\neps_list = 1.0\n"
    )
    assert main(["dme", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("theta", ["0", "0.0", "-0.1", "0.3"])
def test_sgd_rejects_theta_outside_range(tmp_path, theta, capsys):
    cfg = tmp_path / "sgd.ini"
    # the automatic learning rate divides by theta
    ini = SGD_INI.replace("learning_rate = 0.3", "learning_rate = auto")
    cfg.write_text(ini.replace("theta = 0.25", f"theta = {theta}"))
    assert main(["sgd", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("tool, text, key", [
    ("dme", DME_INI.replace("m_list = 2 4", "m_list = 0 2"), "m_list"),
    ("dme", DME_INI.replace("theta_list = 0.1 0.25", "theta_list = 0.3"), "theta_list"),
    ("dme", DME_INI.replace("theta_list = 0.1 0.25", "theta_list = 0.0 0.1"),
     "theta_list"),
    ("dme", DME_INI.replace("theta_list = 0.1 0.25", "eps_list = 1 nan"), "eps_list"),
    ("dme", DME_INI.replace("theta_list = 0.1 0.25", "eps_list = -1"), "eps_list"),
    ("dme", DME_INI.replace("theta_list = 0.1 0.25", "eps_list = inf"), "eps_list"),
    ("sgd", SGD_INI.replace("m = 4", "m = 0"), "m must be a positive integer"),
], ids=["dme-m-zero", "dme-theta-above-quarter", "dme-theta-zero", "dme-eps-nan",
        "dme-eps-negative", "dme-eps-inf", "sgd-m-zero"])
def test_sweep_point_out_of_range_fails_at_load(
    tool, text, key, tmp_path, capsys, monkeypatch
):
    # a bad m, theta or epsilon target is named with its file before any
    # frame, accounting or draw runs
    def never(*args, **kwargs):
        raise AssertionError("the run started with a bad sweep value")

    monkeypatch.setattr(cli, {"dme": "run_tradeoff", "sgd": "run_sgd"}[tool], never)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert main([tool, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-0.5", "0", "0.0", "inf", "nan"])
def test_sgd_rejects_bad_learning_rate(tmp_path, rate, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started with a bad learning rate")

    monkeypatch.setattr(cli, "run_sgd", never)
    cfg = tmp_path / "sgd.ini"
    cfg.write_text(SGD_INI.replace("learning_rate = 0.3", f"learning_rate = {rate}"))
    assert main(["sgd", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("c", "inf"), ("c", "nan"), ("safety_c", "inf"),
])
def test_dme_rejects_non_finite_values(tmp_path, key, value, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started with a non-finite value")

    monkeypatch.setattr(cli, "run_tradeoff", never)
    section = "\n[clipping]\n" if key == "safety_c" else ""
    cfg = tmp_path / "dme.ini"
    cfg.write_text(DME_INI.replace("c = 1.0\n", "") + f"{section}{key} = {value}\n")
    assert main(["dme", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("clip", ["inf", "nan"])
def test_sgd_rejects_non_finite_clip(tmp_path, clip, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started with a non-finite clip")

    monkeypatch.setattr(cli, "run_sgd", never)
    cfg = tmp_path / "sgd.ini"
    cfg.write_text(SGD_INI.replace("clip = 5.0", f"clip = {clip}"))
    assert main(["sgd", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "clip must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("smoothness", "-1"), ("smoothness", "0"), ("smoothness", "nan"),
    ("smoothness", "inf"), ("radius", "nan"), ("radius", "-1"),
    ("shift", "inf"), ("shift", "-0.5"),
])
def test_sgd_rejects_bad_loss_values(tmp_path, key, value, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError(f"the run started with {key} = {value}")

    monkeypatch.setattr(cli, "run_sgd", never)
    cfg = tmp_path / "sgd.ini"
    cfg.write_text(SGD_INI.replace(f"{key} = 1.0", f"{key} = {value}"))
    assert main(["sgd", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and f"{key} must be finite" in err


@pytest.mark.parametrize("text, load, want", [
    ("[experiment]\nn = 10\nd = 2\nm_list = 2\ntheta_list = 0.1\n", load_dme_config,
     ExperimentConfig(n=10, d=2, m_list=(2,), theta_list=(0.1,))),
    ("[sgd]\ntotal_clients = 30\nsampled = 10\nrounds = 5\n", load_sgd_config,
     SgdConfig(total_clients=30, sampled=10, rounds=5)),
    ("[sgd]\ntotal_clients = 30\nsampled = 10\nrounds = 5\n[loss]\ndimension = 3\n",
     load_sgd_config,
     SgdConfig(total_clients=30, sampled=10, rounds=5, loss=LossSpec(dimension=3))),
], ids=["dme", "sgd", "loss"])
def test_config_file_defaults_are_the_dataclass_defaults(tmp_path, text, load, want):
    # a file that sets only the required keys gets every other value from
    # the config dataclass
    path = tmp_path / "min.ini"
    path.write_text(text)
    assert load(path) == want


@pytest.mark.parametrize("tool", ["dme", "sgd", "kashin-check"])
def test_negative_seed_flag_is_a_usage_error(
    tool, dme_config, sgd_config, tmp_path, capsys
):
    # argparse names the flag; numpy's own message names nothing
    out = tmp_path / "x.csv"
    args = {"dme": ["--config", str(dme_config), "--out", str(out)],
            "sgd": ["--config", str(sgd_config), "--out", str(out)],
            "kashin-check": ["--d", "8"]}[tool]
    with pytest.raises(SystemExit) as exc:
        main([tool, *args, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "must be at least 0" in err
    assert not out.exists()


@pytest.mark.parametrize("tool, text, message", [
    ("dme", DME_INI.replace("seed = 7\n", "seed = -4\n"), "seed must be non-negative"),
    ("sgd", SGD_INI.replace("\nseed = 2\n", "\nseed = -4\n"), "seed must be non-negative"),
    ("sgd", SGD_INI.replace("data_seed = 2", "data_seed = -2"),
     "data_seed must be non-negative"),
    ("sgd", SGD_INI.replace("kind = quadratic", "kind = logistic"), "'logistic'"),
], ids=["dme-seed", "sgd-seed", "data_seed", "logistic"])
def test_config_value_error_names_file_and_key(tmp_path, tool, text, message, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert main([tool, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and message in err
    assert not out.exists()


SHIPPED_CONFIGS = sorted(ROOT.glob("configs/*.ini")) + sorted(
    ROOT.glob("benchmarks/configs/*.ini")
)


@pytest.mark.parametrize(
    "path", SHIPPED_CONFIGS, ids=[str(p.relative_to(ROOT)) for p in SHIPPED_CONFIGS]
)
def test_shipped_config_loads(path):
    # the run scripts and the benchmark read these files; a deleted key
    # that one of them still sets would stop them
    parser = configparser.ConfigParser()
    parser.read(path)
    want = SgdConfig if parser.has_section("sgd") else ExperimentConfig
    load = load_sgd_config if parser.has_section("sgd") else load_dme_config
    assert isinstance(load(path), want)


def test_sgd_missing_section(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[loss]\nkind = quadratic\n")
    assert main(["sgd", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_dme_rejects_accountant_key(tmp_path):
    cfg = tmp_path / "accountant.ini"
    cfg.write_text(DME_INI + "accountant = bound\n")
    assert main(["dme", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--threads", "1"]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_sgd_rejects_accountant_key(tmp_path):
    cfg = tmp_path / "accountant.ini"
    cfg.write_text(SGD_INI.replace("[loss]", "accountant = exact\n\n[loss]"))
    assert main(["sgd", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("alphas", ["nan", "2,inf"])
def test_rdp_curve_rejects_non_finite_orders(tmp_path, alphas):
    out = tmp_path / "curve.csv"
    assert main(["rdp-curve", "--n", "10", "--theta", "0.1", "--alphas", alphas,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_dme_rejects_nan_order(tmp_path):
    cfg = tmp_path / "nan.ini"
    cfg.write_text(DME_INI.replace("alpha = 2.0", "alpha = nan"))
    assert main(["dme", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                 "--threads", "1"]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["dme", "sgd", "rdp-curve"])
def test_unwritable_output_path_is_a_usage_error(
    tmp_path, dme_config, sgd_config, command, capsys
):
    target = str(tmp_path / "missing_dir" / "x.csv")
    argv = {
        "dme": ["dme", "--config", str(dme_config), "--out", target, "--threads", "1"],
        "sgd": ["sgd", "--config", str(sgd_config), "--out", target],
        "rdp-curve": ["rdp-curve", "--n", "10", "--out", target],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "missing_dir" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["dme", "dme-json", "dme-dir", "sgd"])
def test_unwritable_output_fails_before_the_run(
    tmp_path, dme_config, sgd_config, case, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("the run started before the output paths were checked")

    monkeypatch.setattr(cli, "run_tradeoff", never)
    monkeypatch.setattr(cli, "run_sgd", never)
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    missing = str(tmp_path / "missing_dir" / "x.csv")
    dme = ["dme", "--config", str(dme_config), "--threads", "1"]
    argv = {
        "dme": [*dme, "--out", missing, "--json", str(kept)],
        "dme-json": [*dme, "--out", str(kept), "--json", missing],
        "dme-dir": [*dme, "--out", str(tmp_path)],
        "sgd": ["sgd", "--config", str(sgd_config), "--out", missing],
    }[case]
    assert main(argv) == 2
    assert kept.read_text() == "earlier output\n"


def test_select_params_evaluates_only_the_one_trial_curve(monkeypatch, capsys):
    trials = []
    exact_curve = accounting.pbm_exact_curve

    def spy(n, m, theta, alphas=accounting.DEFAULT_ALPHAS):
        trials.append(m)
        return exact_curve(n, m, theta, alphas)

    monkeypatch.setattr(accounting, "pbm_exact_curve", spy)
    for budget in (["--eps-budget", "1.0"], ["--eps-budget", "1e-4"],
                   ["--eps-dp", "1.0"], ["--eps-dp", "50.0"]):
        assert main(["select-params", "--n", "1000", "--d", "4", *budget]) == 0
    assert trials and set(trials) == {1}
