from math import exp, log, sqrt

import numpy as np
import pytest
from scipy.stats import binom as scipy_binom

from oracles import (
    brute_force_extreme_rdp,
    exhaustive_k_curve,
    mpmath_endpoint_curve,
    poisson_binomial_pmf,
    rdp_to_dp_simple,
    realizable_pair_rdp,
)
from pbm import accounting
from pbm.accounting import (
    DEFAULT_ALPHAS,
    InfeasibleBudget,
    RdpCurve,
    binomial_logpmf,
    convolve_logpmf,
    gaussian_curve,
    gaussian_mse,
    gaussian_rdp,
    pbm_exact_curve,
    pbm_exact_rdp,
    rdp_to_dp,
    scale,
    select_params,
    select_params_approx_dp,
    write_curve_csv,
)

# ---------------------------------------------------------------------------
# log-pmf primitives


def test_binomial_logpmf_matches_scipy():
    got = binomial_logpmf(10, 0.3)
    want = scipy_binom.logpmf(np.arange(11), 10, 0.3)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_binomial_logpmf_normalization():
    for trials, p in [(1, 0.5), (7, 0.01), (40, 0.999), (100, 0.25)]:
        total = np.logaddexp.reduce(binomial_logpmf(trials, p))
        assert total == pytest.approx(0.0, abs=1e-10)


def test_binomial_logpmf_degenerate():
    np.testing.assert_array_equal(binomial_logpmf(0, 0.7), [0.0])
    p0 = binomial_logpmf(3, 0.0)
    assert p0[0] == 0.0 and np.all(np.isneginf(p0[1:]))
    p1 = binomial_logpmf(3, 1.0)
    assert p1[-1] == 0.0 and np.all(np.isneginf(p1[:-1]))


def test_binomial_logpmf_validation():
    with pytest.raises(ValueError):
        binomial_logpmf(-1, 0.5)
    with pytest.raises(ValueError):
        binomial_logpmf(3, 1.5)


def test_convolve_identity():
    a = binomial_logpmf(6, 0.4)
    np.testing.assert_array_equal(convolve_logpmf(a, np.zeros(1)), a)
    # convolving with a point mass at k shifts the support by k
    shifted = convolve_logpmf(a, binomial_logpmf(2, 1.0))
    assert np.all(np.isneginf(shifted[:2]))
    np.testing.assert_allclose(shifted[2:], a, rtol=1e-12)


def test_convolve_matches_probability_space():
    la = binomial_logpmf(5, 0.3)
    lb = binomial_logpmf(8, 0.6)
    got = np.exp(convolve_logpmf(la, lb))
    want = np.convolve(np.exp(la), np.exp(lb))
    np.testing.assert_allclose(got, want, atol=1e-15)
    # argument order must not matter
    np.testing.assert_allclose(
        convolve_logpmf(la, lb), convolve_logpmf(lb, la), rtol=1e-12
    )


def test_convolve_merges_same_probability():
    merged = convolve_logpmf(binomial_logpmf(3, 0.35), binomial_logpmf(5, 0.35))
    np.testing.assert_allclose(merged, binomial_logpmf(8, 0.35), rtol=1e-10)


# ---------------------------------------------------------------------------
# exact curve


def test_exact_rdp_closed_form_anchors():
    # n=2, m=1, theta=1/4, alpha=2: worst ordering gives log(29/15)
    assert pbm_exact_rdp(2, 1, 0.25, 2.0) == pytest.approx(log(29.0 / 15.0), rel=1e-12)
    # n=1 reduces to Binom(1, 1/4) vs Binom(1, 3/4): log(7/3)
    assert pbm_exact_rdp(1, 1, 0.25, 2.0) == pytest.approx(log(7.0 / 3.0), rel=1e-12)


def test_exact_rdp_matches_brute_force():
    for n, m, theta, alpha in [(3, 1, 0.2, 2.5), (2, 2, 0.25, 1.5), (4, 1, 0.1, 4.0)]:
        got = pbm_exact_rdp(n, m, theta, alpha)
        want = brute_force_extreme_rdp(n, m, theta, alpha)
        assert got == pytest.approx(want, rel=1e-10)


def test_endpoint_matches_exhaustive_k_search():
    alphas = [a for a in DEFAULT_ALPHAS if a <= 16.0]
    for n in (5, 12, 40):
        for m in (1, 2, 8):
            for theta in (0.01, 0.1, 0.25):
                got = pbm_exact_curve(n, m, theta, alphas).epsilons
                want = exhaustive_k_curve(n, m, theta, alphas)
                np.testing.assert_allclose(got, want, rtol=1e-9)


def test_realizable_pair_at_the_endpoint_is_the_exact_curve():
    # the replaced client at 1/2 - theta against 1/2 + theta, every other
    # client at 1/2 + theta, is the accountant's worst case, on each of
    # three coordinates
    n, m, theta = 6, 3, 0.2
    lo, hi = 0.5 - theta, 0.5 + theta
    probs = np.full((n, 3), hi)
    probs[0] = lo
    for alpha in (1.5, 2.0, 4.0):
        got = realizable_pair_rdp(probs, np.full(3, hi), m, alpha)
        assert got == pytest.approx(3 * pbm_exact_rdp(n, m, theta, alpha), rel=1e-9)


def test_realizable_subsampled_pair_matches_the_joint_mixture():
    # two coordinates, enumerated jointly: D_alpha(gamma*P + (1-gamma)*Q || Q)
    m, gamma = 2, 0.3
    probs = np.array([[0.3, 0.65], [0.6, 0.4], [0.6, 0.4]])
    alt = probs[1]
    joint = {}
    for name, first in (("p", probs[0]), ("q", alt)):
        margins = [poisson_binomial_pmf([first[i], alt[i], alt[i]], m) for i in (0, 1)]
        joint[name] = np.outer(*margins).ravel()
    mixture = gamma * joint["p"] + (1 - gamma) * joint["q"]
    for alpha in (2, 3, 5):
        want = np.log(np.sum(mixture**alpha * joint["q"] ** (1 - alpha))) / (alpha - 1)
        got = realizable_pair_rdp(probs, alt, m, alpha, gamma)
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        realizable_pair_rdp(probs, alt, m, 2.5, gamma)
    with pytest.raises(ValueError):
        realizable_pair_rdp(probs, probs[0], m, 2, gamma)


def test_exact_curve_matches_mpmath_at_small_theta():
    pytest.importorskip("mpmath")
    alphas = (1.25, 2.0, 8.0)
    for n, theta in [(2000, 1e-2), (2000, 1e-4), (2000, 1e-5), (7, 1e-5)]:
        got = pbm_exact_curve(n, 4, theta, alphas).epsilons
        want = mpmath_endpoint_curve(n, 4, theta, alphas)
        np.testing.assert_allclose(got, want, rtol=1e-6)
        assert np.all(np.diff(got) >= 0.0)


def test_exact_curve_beyond_hypergeometric_range(monkeypatch):
    # past the largest m of the hypergeometric sums the log ratio comes
    # from the log-space convolution of the same pair
    alphas = (1.5, 2.0, 16.0, 64.0)
    hypergeom = [pbm_exact_curve(n, 8, 0.25, alphas).epsilons for n in (2, 12)]
    monkeypatch.setattr(accounting, "_HYPERGEOM_MAX_M", 0)
    log_space = [pbm_exact_curve(n, 8, 0.25, alphas).epsilons for n in (2, 12)]
    np.testing.assert_allclose(hypergeom, log_space, rtol=1e-12)


def test_exact_curve_monotone_in_alpha():
    curve = pbm_exact_curve(6, 2, 0.2, DEFAULT_ALPHAS)
    assert np.all(np.diff(curve.epsilons) >= -1e-12)


def test_exact_monotone_in_theta_and_m():
    eps_t = [pbm_exact_rdp(5, 2, t, 2.0) for t in (0.05, 0.15, 0.25)]
    assert eps_t[0] < eps_t[1] < eps_t[2]
    eps_m = [pbm_exact_rdp(5, m, 0.2, 2.0) for m in (1, 2, 4)]
    assert eps_m[0] < eps_m[1] < eps_m[2]


def test_exact_decays_like_one_over_n():
    ns = [8, 16, 32, 64, 128, 256]
    eps = np.array([pbm_exact_rdp(n, 1, 0.25, 2.0) for n in ns])
    assert np.all(np.diff(eps) < 0)
    scaled = eps * np.array(ns)
    assert scaled.max() / scaled.min() < 3.0


def test_exact_subadditive_in_m():
    n, theta, alpha = 5, 0.25, 2.0
    e1 = pbm_exact_rdp(n, 1, theta, alpha)
    e2 = pbm_exact_rdp(n, 2, theta, alpha)
    e3 = pbm_exact_rdp(n, 3, theta, alpha)
    e4 = pbm_exact_rdp(n, 4, theta, alpha)
    assert e3 <= e1 + e2 + 1e-12
    assert e4 <= 2.0 * e2 + 1e-12


def test_exact_theta_zero_is_private():
    curve = pbm_exact_curve(4, 3, 0.0, DEFAULT_ALPHAS)
    np.testing.assert_array_equal(curve.epsilons, np.zeros(len(DEFAULT_ALPHAS)))


def test_exact_curve_metadata():
    curve = pbm_exact_curve(10, 2, 0.1, [2.0])
    assert curve.kind == "exact"
    assert curve.meta == {"mechanism": "pbm-exact", "n": 10, "m": 2, "theta": 0.1}


def test_exact_validation():
    with pytest.raises(ValueError):
        pbm_exact_curve(0, 1, 0.1)
    with pytest.raises(ValueError):
        pbm_exact_curve(4, 1, 0.3)
    with pytest.raises(ValueError):
        pbm_exact_curve(4, 0, 0.1)


@pytest.mark.parametrize("n, m", [(10, 2.0), (10.0, 2), (10, 2.5)])
def test_exact_curve_rejects_non_integer_n_and_m(n, m):
    with pytest.raises(ValueError, match="positive integers"):
        pbm_exact_curve(n, m, 0.1)


# ---------------------------------------------------------------------------
# Gaussian baseline


def test_gaussian_values():
    # replace-one neighbours: sensitivity 2c/n
    assert gaussian_rdp(1.0, 1, 1.0, 2.0) == pytest.approx(4.0)
    assert gaussian_rdp(2.0, 10, 0.4, 3.0) == pytest.approx(1.5)
    assert gaussian_mse(4, 0.5) == pytest.approx(1.0)


def test_gaussian_privacy_utility_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(1, 500))
        sigma = float(rng.uniform(0.01, 10.0))
        d = int(rng.integers(1, 100))
        alpha = float(rng.uniform(1.01, 50.0))
        product = gaussian_rdp(c, n, sigma, alpha) * gaussian_mse(d, sigma)
        assert product == pytest.approx(2.0 * c * c * d * alpha / (n * n), rel=1e-12)


def test_gaussian_curve_and_validation():
    curve = gaussian_curve(1.0, 10, 0.5, (2.0, 4.0))
    np.testing.assert_allclose(curve.epsilons, [0.16, 0.32], rtol=1e-12)
    assert curve.kind == "gaussian"
    with pytest.raises(ValueError):
        gaussian_rdp(0.0, 10, 0.5, 2.0)
    with pytest.raises(ValueError):
        gaussian_rdp(1.0, 10, 0.5, 1.0)
    with pytest.raises(ValueError):
        gaussian_mse(0, 0.5)


# ---------------------------------------------------------------------------
# curve algebra


def test_rdp_curve_validation():
    with pytest.raises(ValueError):
        RdpCurve(np.array([2.0, 3.0]), np.array([0.1]), "x")
    with pytest.raises(ValueError):
        RdpCurve(np.array([3.0, 2.0]), np.array([0.1, 0.2]), "x")
    with pytest.raises(ValueError):
        RdpCurve(np.array([1.0, 2.0]), np.array([0.1, 0.2]), "x")
    with pytest.raises(ValueError):
        RdpCurve(np.array([2.0, 3.0]), np.array([-0.1, 0.2]), "x")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            RdpCurve(np.array([2.0, bad]), np.array([0.1, 0.2]), "x")
    with pytest.raises(ValueError):
        RdpCurve(np.array([2.0, 3.0]), np.array([0.1, np.nan]), "x")


def test_params_hash_depends_on_meta():
    a = pbm_exact_curve(4, 1, 0.2, [2.0])
    b = pbm_exact_curve(4, 1, 0.2, [2.0])
    c = pbm_exact_curve(4, 2, 0.2, [2.0])
    assert a.params_hash() == b.params_hash()
    assert a.params_hash() != c.params_hash()
    assert len(a.params_hash()) == 12


def test_scale_matches_repeated_compose():
    # composing 7 copies sums the curve pointwise 7 times
    a = pbm_exact_curve(5, 1, 0.2, DEFAULT_ALPHAS)
    seven = scale(a, 7)
    np.testing.assert_allclose(seven.epsilons, sum([a.epsilons] * 7), rtol=1e-15)
    np.testing.assert_array_equal(seven.alphas, a.alphas)
    assert seven.kind == "composed" and seven.meta["copies"] == 7
    with pytest.raises(ValueError):
        scale(a, 0)


# ---------------------------------------------------------------------------
# conversion to (eps, delta)


def _linear_curve(rho: float, alphas) -> RdpCurve:
    a = np.asarray(alphas, dtype=float)
    return RdpCurve(alphas=a, epsilons=rho * a, kind="gaussian")


def test_rdp_to_dp_simple_frozen():
    curve = _linear_curve(1.0, [2.0, 3.0, 4.0])
    assert rdp_to_dp_simple(curve, exp(-1.0)) == pytest.approx(3.0, rel=1e-12)


def test_rdp_to_dp_not_above_simple_form():
    alphas = np.geomspace(1.05, 200.0, 400)
    for rho in (0.01, 0.1, 1.0):
        curve = _linear_curve(rho, alphas)
        assert rdp_to_dp(curve, 1e-6) <= rdp_to_dp_simple(curve, 1e-6)


def test_rdp_to_dp_monotone_in_delta():
    curve = _linear_curve(0.1, np.geomspace(1.1, 100.0, 100))
    assert rdp_to_dp(curve, 1e-8) > rdp_to_dp(curve, 1e-4)


def test_conversion_validation():
    curve = _linear_curve(0.1, [2.0, 3.0])
    for delta in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            rdp_to_dp(curve, delta)
        with pytest.raises(ValueError):
            rdp_to_dp_simple(curve, delta)


# ---------------------------------------------------------------------------
# parameter selection
#
# Every selected (theta, m) is checked on its own: the exact curve at the
# returned m meets the budget. At theta = 1/4 one more trial overshoots
# under composition, and at m = 1 theta + 1e-10 overshoots.


def _assert_rdp_selection(n, d, alpha, budget, theta, m, bound):
    # the returned bound is the d * m composed copies the search accepted
    assert bound == d * m * pbm_exact_rdp(n, 1, theta, alpha) <= budget
    assert d * pbm_exact_rdp(n, m, theta, alpha) <= budget
    if theta == 0.25:
        assert d * (m + 1) * pbm_exact_rdp(n, 1, theta, alpha) > budget
    else:
        assert m == 1
        assert d * pbm_exact_rdp(n, 1, theta + 1e-10, alpha) > budget


def _approx_dp(n, d, theta, m, delta):
    return rdp_to_dp(scale(pbm_exact_curve(n, m, theta), d), delta)


def test_select_params_large_budget_branch():
    n, d, alpha, budget = 100, 1, 2.0, 0.4
    theta, m, bound = select_params(n, d, alpha, budget)
    assert (theta, m) == (0.25, 29)
    _assert_rdp_selection(n, d, alpha, budget, theta, m, bound)


def test_select_params_small_budget_branch():
    n, d, alpha, budget = 50, 20, 3.0, 0.01
    theta, m, bound = select_params(n, d, alpha, budget)
    assert m == 1
    assert 0.0 < theta < 0.25
    _assert_rdp_selection(n, d, alpha, budget, theta, m, bound)


def test_select_params_branch_boundary():
    n, alpha = 100, 2.0
    unit = pbm_exact_rdp(n, 1, 0.25, alpha)
    just_over = select_params(n, 1, alpha, unit * 1.0001)
    just_under = select_params(n, 1, alpha, unit * 0.9999)
    assert just_over[:2] == (0.25, 1)
    _assert_rdp_selection(n, 1, alpha, unit * 1.0001, *just_over)
    assert just_under[1] == 1 and just_under[0] < 0.25
    assert just_under[0] == pytest.approx(0.25, rel=1e-3)
    _assert_rdp_selection(n, 1, alpha, unit * 0.9999, *just_under)


def test_select_params_infeasible():
    with pytest.raises(InfeasibleBudget):
        select_params(100, 1, 2.0, 0.0)
    with pytest.raises(InfeasibleBudget):
        select_params(100, 10, 2.0, 1e-310)
    # the budget error is still a ValueError for generic handlers
    assert issubclass(InfeasibleBudget, ValueError)


def test_select_params_huge_budget_stays_in_float_range():
    # the trial count stops where d * m copies would pass the float range
    n, d, alpha, budget = 100, 4, 2.0, 1e308
    theta, m, bound = select_params(n, d, alpha, budget)
    assert theta == 0.25
    assert bound == d * m * pbm_exact_rdp(n, 1, theta, alpha) <= budget


def test_select_params_approx_dp_frozen():
    n, d, delta = 1000, 250, 1e-5
    theta, m, achieved = select_params_approx_dp(n, d, 1.0, delta)
    assert m == 1
    assert theta == pytest.approx(0.119028, rel=1e-5)
    assert achieved == _approx_dp(n, d, theta, m, delta) <= 1.0
    assert _approx_dp(n, d, theta + 1e-10, m, delta) > 1.0


def test_select_params_approx_dp_monotone():
    targets = (0.5, 1.0, 2.0, 4.0, 16.0)
    ms = [select_params_approx_dp(100, 50, e, 1e-6)[1] for e in targets]
    assert all(b >= a for a, b in zip(ms, ms[1:]))
    # the last target leaves theta = 1/4 with room for more trials
    assert ms[-1] > 1
    thetas = [select_params_approx_dp(100, 50, e, 1e-6)[0] for e in (0.5, 4.0)]
    assert all(t <= 0.25 for t in thetas)


def test_achieved_approx_dp_orders_with_theta():
    tight = _approx_dp(60, 4, 0.1, 1, 1e-6)
    loose = _approx_dp(60, 4, 0.25, 1, 1e-6)
    assert 0.0 < tight < loose < np.inf


def test_selection_validation():
    with pytest.raises(ValueError):
        select_params(0, 1, 2.0, 1.0)
    with pytest.raises(InfeasibleBudget):
        select_params_approx_dp(100, 10, -1.0, 1e-6)
    with pytest.raises(ValueError):
        select_params_approx_dp(100, 10, 1.0, 2.0)


# ---------------------------------------------------------------------------
# CSV export


def test_write_curve_csv_roundtrip(tmp_path):
    curve = pbm_exact_curve(6, 2, 0.2, DEFAULT_ALPHAS)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# pbm-csv v1 rdp-curve"
    assert lines[1] == "alpha,epsilon,kind,params_hash"
    assert len(lines) == 2 + len(DEFAULT_ALPHAS)
    for row, alpha, eps in zip(lines[2:], curve.alphas, curve.epsilons):
        a_txt, e_txt, kind, h = row.split(",")
        assert float(a_txt) == alpha
        assert float(e_txt) == eps
        assert kind == "exact"
        assert h == curve.params_hash()
