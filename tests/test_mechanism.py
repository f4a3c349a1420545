import configparser
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import ceil, sqrt
from pathlib import Path

import numpy as np
import pytest
from oracles import poisson_binomial_chisquare
from scipy.stats import binom

from pbm import mechanism
from pbm.accounting import DEFAULT_ALPHAS, pbm_exact_curve, scale
from pbm.config import load_dme_config, load_sgd_config
from pbm.kashin import ConvergenceError, build_frame
from pbm.mechanism import (
    MechanismParams,
    clip_rows,
    coordinate_probs,
    mse_bound,
    rdp_curve,
    sample_sums,
    server_decode,
    spread,
)
from pbm.secagg import clipped_spec, lift_sum

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def frame8():
    return build_frame(8, np.random.default_rng(21))


def _plain(n=40, d=3, c=1.0, theta=0.25, m=4) -> MechanismParams:
    return MechanismParams(n=n, d=d, c=c, theta=theta, m=m)


def test_params_validation(frame8):
    with pytest.raises(ValueError):
        MechanismParams(n=0, d=3, c=1.0, theta=0.1, m=1)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=0.0, theta=0.1, m=1)
    # c = inf would set every probability to 1/2 and decode to +-inf
    with pytest.raises(ValueError, match="c must be finite"):
        MechanismParams(n=4, d=3, c=float("inf"), theta=0.1, m=1)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=1.0, theta=0.3, m=1)
    # theta = 0 encodes no signal: its sums cannot be decoded
    with pytest.raises(ValueError, match="theta"):
        MechanismParams(n=4, d=3, c=1.0, theta=0.0, m=1)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=3, c=1.0, theta=0.1, m=0)
    # a float m can be neither encoded nor priced
    with pytest.raises(ValueError, match="m must be a positive integer"):
        MechanismParams(n=10, d=4, c=1.0, theta=0.1, m=2.0)
    # a float n would fail later, inside secagg.default_modulus
    with pytest.raises(ValueError, match="n must be a positive integer"):
        MechanismParams(n=2.5, d=3, c=1.0, theta=0.25, m=2)
    with pytest.raises(ValueError, match="d must be a positive integer"):
        MechanismParams(n=3, d=2.0, c=1.0, theta=0.25, m=2)
    with pytest.raises(ValueError):
        MechanismParams(n=4, d=5, c=1.0, theta=0.1, m=1, frame=frame8)


def test_coords_and_c_prime(frame8):
    plain = _plain(d=6)
    assert plain.coords == 6
    assert plain.c_prime == plain.c
    spread = MechanismParams(n=10, d=8, c=2.0, theta=0.2, m=1, frame=frame8)
    assert spread.coords == frame8.big_d == 16
    assert spread.c_prime == pytest.approx(2.0 * frame8.level_k / sqrt(16.0))


def test_coordinate_probs_endpoints():
    params = _plain(c=2.0, theta=0.2)
    probs = coordinate_probs(np.array([-2.0, 0.0, 2.0]), params)
    np.testing.assert_allclose(probs, [0.3, 0.5, 0.7], rtol=1e-12)
    # values past the bound (numerical fuzz) are clamped, not propagated
    fuzz = coordinate_probs(np.array([2.0 + 1e-12]), params)
    assert fuzz[0] == pytest.approx(0.7)


def _shipped_thetas() -> list[float]:
    """Every theta a shipped config sets: dme theta_list entries, sgd theta."""
    thetas = set()
    for path in [*ROOT.glob("configs/*.ini"), *ROOT.glob("benchmarks/configs/*.ini")]:
        parser = configparser.ConfigParser()
        parser.read(path)
        if parser.has_section("sgd"):
            thetas.add(load_sgd_config(path).theta)
        else:
            thetas.update(load_dme_config(path).theta_list or ())
    return sorted(thetas)


@pytest.mark.parametrize("theta", [*_shipped_thetas(), 1e-5, 1e-12, 1e-17])
def test_sampled_probability_lies_inside_the_charged_range(theta):
    # sample_sums succeeds with probability T / 2**53, T = ceil(p * 2**53),
    # and the accountant charges [1/2 - theta, 1/2 + theta]. Past +-c' the
    # clamp gives the grid ends inside that range, so T / 2**53 = p there,
    # and one more grid step would leave it. At 1e-17, k = 0: both ends are 1/2
    assert len(_shipped_thetas()) >= 5
    params = _plain(d=7, c=1.0, theta=theta)
    y = np.array([-2.0, -1.0, -1.0 + 1e-16, 0.0, 1.0 - 1e-16, 1.0, 2.0])
    probs = coordinate_probs(y, params)
    low, high = Fraction(1, 2) - Fraction(theta), Fraction(1, 2) + Fraction(theta)
    for p in probs.tolist():
        assert low <= Fraction(ceil(Fraction(p) * 2**53), 2**53) <= high, p
    ulp = Fraction(1, 2**53)
    for end, outward in ((probs[0], -ulp), (probs[-1], ulp)):
        assert (Fraction(end) / ulp).denominator == 1
        assert not low <= Fraction(end) + outward <= high


def test_decode_matches_scalar_decoder():
    # one coordinate decodes as c/(n*m*theta) * (s - n*m/2), row by row
    n, c, theta, m = 12, 1.5, 0.2, 3
    params = _plain(n=n, d=1, c=c, theta=theta, m=m)
    totals = np.array([[0], [7], [18], [n * m]])
    est = server_decode(totals, params)
    assert est.shape == (4, 1)
    np.testing.assert_array_equal(est, c / (n * m * theta) * (totals - n * m / 2.0))
    assert est[2, 0] == 0.0
    assert server_decode(totals[1], params)[0] == est[1, 0]


def test_decode_validation():
    params = _plain(n=5, d=2, m=2)
    with pytest.raises(ValueError):
        server_decode(np.array([1, 2, 3]), params)
    with pytest.raises(ValueError):
        server_decode(np.array([[1, 2, 3]]), params)
    with pytest.raises(ValueError):
        server_decode(np.array([1, 11]), params)
    with pytest.raises(ValueError):
        server_decode(np.array([-1, 2]), params)


def test_rdp_curve(frame8):
    # a round is coords independent copies of the per-coordinate curve
    alphas = (1.5, 2.0, 8.0)
    for params in (_plain(n=30, d=5, theta=0.2, m=3),
                   MechanismParams(n=30, d=8, c=1.0, theta=0.1, m=2, frame=frame8)):
        got = rdp_curve(params, alphas)
        want = scale(pbm_exact_curve(params.n, params.m, params.theta, alphas),
                     params.coords)
        np.testing.assert_array_equal(got.alphas, want.alphas)
        np.testing.assert_array_equal(got.epsilons, want.epsilons)
        assert (got.kind, got.meta) == (want.kind, want.meta)
    assert len(rdp_curve(_plain()).alphas) == len(DEFAULT_ALPHAS)


def test_decode_window_for_lifted_sums():
    # a reduced-modulus window can reach past the plain range [0, n*m]
    n, m, theta = 20, 2, 0.25
    params = _plain(n=n, d=2, theta=theta, m=m)
    modulus, offset = clipped_spec(n, m, theta)
    window = (offset, offset + modulus)
    assert window == (-3, 43)
    # residues 43 and 42 mod 46 lift to both ends of the window
    lifted = lift_sum(np.array([[43, 42]]), modulus, offset)
    np.testing.assert_array_equal(lifted, [[-3, 42]])
    est = server_decode(lifted, params, window)
    np.testing.assert_array_equal(est, 1.0 / (n * m * theta) * (lifted - n * m / 2.0))
    # the same values are not a plain aggregate
    with pytest.raises(ValueError):
        server_decode(lifted, params)
    with pytest.raises(ValueError):
        server_decode(np.array([offset - 1, 0]), params, window)
    with pytest.raises(ValueError):
        server_decode(np.array([0, offset + modulus]), params, window)


def test_clip_rows():
    g = np.array([[3.0, 4.0], [0.0, 0.0], [0.6, 0.8]])
    clipped = clip_rows(g, 2.5)
    np.testing.assert_allclose(clipped[0], [1.5, 2.0], rtol=1e-12)
    assert np.linalg.norm(clipped[0]) == pytest.approx(2.5)
    # rows within the bound, and the input itself, are left as they are
    np.testing.assert_array_equal(clipped[1:], g[1:])
    np.testing.assert_array_equal(g[0], [3.0, 4.0])
    np.testing.assert_array_equal(clip_rows(g, 6.0), g)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            clip_rows(g, bad)


def test_encode_shape_and_range():
    params = _plain(n=10, d=5, m=6)
    rng = np.random.default_rng(0)
    probs = coordinate_probs(spread(rng.uniform(-1, 1, (10, 5)), params), params)
    assert probs.shape == (10, 5)
    assert np.all((probs >= 0.25) & (probs <= 0.75))
    shares = rng.binomial(params.m, probs)
    assert shares.dtype.kind == "i"
    assert np.all((shares >= 0) & (shares <= 6))


def test_encode_norm_validation(frame8):
    params = _plain(d=3, c=1.0)
    with pytest.raises(ValueError):
        spread(np.array([[0.5, 0.0, 0.0], [1.2, 0.0, 0.0]]), params)
    with pytest.raises(ValueError):
        spread(np.zeros((2, 4)), params)
    with pytest.raises(ValueError):
        spread(np.zeros(3), params)
    spread_params = MechanismParams(
        n=5, d=8, c=1.0, theta=0.2, m=2, frame=frame8
    )
    big = np.full((1, 8), 0.5)  # L2 norm sqrt(2) > 1
    with pytest.raises(ValueError):
        spread(big, spread_params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("framed", [False, True])
def test_spread_rejects_non_finite_rows(bad, framed, frame8):
    # a NaN norm compares False with any bound, so a check written as
    # norm > c would let the row through to NaN coefficients
    params = MechanismParams(
        n=3, d=8, c=1.0, theta=0.2, m=2, frame=frame8 if framed else None
    )
    x = np.zeros((3, 8))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="is not within"):
        spread(x, params)


def test_kashin_accepts_peaky_vectors(frame8):
    # a unit basis vector satisfies the L2 bound though its largest
    # coordinate far exceeds the spread per-coordinate budget c'
    params = MechanismParams(n=5, d=8, c=1.0, theta=0.2, m=2, frame=frame8)
    assert params.c_prime < 1.0
    x = np.zeros((2, 8))
    x[0, 0] = 1.0
    y = spread(x, params)
    assert y.shape == (2, 16)
    assert np.abs(y).max() <= params.c_prime
    np.testing.assert_allclose(frame8.u @ y.T, x.T, atol=1e-9)


def _frame_atoms(d: int, c: float, scale: float):
    """Framed params at c and the rows scale * sqrt(2) * c * U[:, j], whose
    L2 norm is scale * c. The frame's own columns spread further than the
    Gaussian probes that certify its level."""
    frame = build_frame(d, np.random.default_rng(1))
    params = MechanismParams(n=2 * d, d=d, c=c, theta=0.25, m=1, frame=frame)
    return params, scale * sqrt(2.0) * c * frame.u.T


@pytest.mark.parametrize("d", [16, 64, 250])
def test_spread_accepts_frame_atoms_inside_the_ball(d):
    # some atoms spread past level_k relative to their norm, but at 0.6 c
    # their coefficients stay within c', the bound that spread checks
    params, x = _frame_atoms(d, c=4.0, scale=0.6)
    y = spread(x, params)
    np.testing.assert_allclose(y @ params.frame.u.T, x, rtol=0, atol=1e-11)
    assert np.abs(y).max() <= params.c_prime
    relative = sqrt(params.coords) * np.abs(y).max(axis=1) / np.linalg.norm(x, axis=1)
    assert relative.max() > params.frame.level_k


@pytest.mark.xfail(
    strict=True, raises=ConvergenceError,
    reason="ROADMAP item 12: level_k is certified on Gaussian probes, and "
    "frame atoms at ||x||_2 = c spread past the c' it sets",
)
@pytest.mark.parametrize("d", [64, 250])
def test_spread_accepts_frame_atoms_on_the_sphere(d):
    params, x = _frame_atoms(d, c=4.0, scale=1.0)
    y = spread(x, params)
    assert np.abs(y).max() <= params.c_prime


def test_spread_above_c_prime_is_a_convergence_error(frame8):
    # at half the frame's level, Gaussian rows at ||x||_2 = c spread past c'
    params = MechanismParams(
        n=4, d=8, c=2.0, theta=0.2, m=2,
        frame=replace(frame8, level_k=0.5 * frame8.level_k),
    )
    x = np.random.default_rng(8).standard_normal((4, 8))
    x *= params.c / np.linalg.norm(x, axis=1, keepdims=True)
    with pytest.raises(ConvergenceError, match="is not within c'"):
        spread(x, params)


def test_mse_bound_formula(frame8):
    plain = _plain(n=100, d=4, c=1.0, theta=0.25, m=4)
    assert mse_bound(plain) == pytest.approx(4.0 / (4.0 * 100 * 4 * 0.0625))
    spread = MechanismParams(
        n=100, d=8, c=1.0, theta=0.25, m=4, frame=frame8
    )
    # the frame's D = 16 coefficient errors map back into d = 8 dimensions
    want = 8 * spread.c_prime**2 / (4.0 * 100 * 4 * 0.0625)
    assert mse_bound(spread) == pytest.approx(want)


@pytest.mark.parametrize("framed", [False, True])
def test_mse_bound_is_attained_at_the_centre(framed, frame8):
    # coefficients at 0 encode p = 1/2, where every count has its largest
    # variance, so the decode MSE meets mse_bound in both geometries
    n, d, trials = 20, 8, 4000
    params = MechanismParams(
        n=n, d=d, c=1.0, theta=0.25, m=4, frame=frame8 if framed else None
    )
    probs = coordinate_probs(np.zeros((n, params.coords)), params)
    ests = server_decode(sample_sums(probs, 4, np.random.default_rng(8), trials), params)
    emp_mse = float(np.mean(np.sum(ests**2, axis=1)))
    assert emp_mse == pytest.approx(mse_bound(params), rel=5.0 * sqrt(2.0 / (d * trials)))


def _increment_sums(probs, m, rng, trials):
    """sample_sums of each step up to the counts m (one count, or an
    increasing tuple as the dme sweep's m at one theta), drawn in turn from
    rng: shape (steps, trials, coords)."""
    steps = np.diff(np.atleast_1d(m), prepend=0).tolist()
    return np.stack([sample_sums(probs, step, rng, trials) for step in steps])


# trial counts drawn as increments in turn from one generator, as the dme
# sweep draws its m at one theta; a later increment keeps its sums only if
# each call takes the same words from the generator at any chunk size and
# either compare. Steps counted in uint8, a step of no trials, and a step
# of 284 trials counted in uint16
NESTED = [
    pytest.param((1, 3), id="1,3"),
    pytest.param((2, 5, 16), id="2,5,16"),
    pytest.param((0, 7, 64), id="0,7,64"),
    pytest.param((3, 65, 300), id="3,65,300"),
    pytest.param((16, 300), id="16,300"),
]


@pytest.mark.parametrize("m", [2, 16, 32, 33, 64, 65, 300, *NESTED])
def test_sample_sums_chunking_keeps_the_stream(m, monkeypatch):
    # small chunks must draw the same sums as all trials in one chunk; one
    # trial per chunk splits a draw into single slabs
    n, coords, trials = 7, 5, 6
    probs = np.random.default_rng(3).uniform(0.25, 0.75, size=(n, coords))
    whole = _increment_sums(probs, m, np.random.default_rng(m), trials)
    assert whole.shape == (np.size(m), trials, coords) and whole.dtype == np.int64
    steps = np.diff(np.atleast_1d(m), prepend=0)
    assert np.all((whole >= 0) & (whole <= n * steps.reshape(-1, 1, 1)))
    for per_chunk in (1, 4):  # 4 trials per chunk leaves a short last chunk
        monkeypatch.setattr(mechanism, "_CHUNK_ENTRIES", per_chunk * n * coords)
        chunked = _increment_sums(probs, m, np.random.default_rng(m), trials)
        np.testing.assert_array_equal(chunked, whole)


@pytest.mark.parametrize("per_chunk", [None, 4])
@pytest.mark.parametrize("m", [1, 16, 32, 64, *NESTED[:3]])
def test_whole_draw_compare_matches_the_slab_loop(m, per_chunk, monkeypatch):
    # a draw of small slabs is compared whole, a draw of large ones slab by
    # slab; both read the same words and count the same trials. 4 slabs per
    # draw splits a trial of m > 4 into several draws
    n, coords, trials = 7, 5, 6
    probs = np.random.default_rng(5).uniform(0.0, 1.0, size=(n, coords))
    if per_chunk is not None:
        monkeypatch.setattr(mechanism, "_CHUNK_ENTRIES", per_chunk * n * coords)
    sums = []
    for limit in (0, 2**20):  # every draw slab by slab, every draw whole
        monkeypatch.setattr(mechanism, "_WHOLE_DRAW_SLAB", limit)
        sums.append(_increment_sums(probs, m, np.random.default_rng(m), trials))
    np.testing.assert_array_equal(sums[0], sums[1])


@pytest.mark.parametrize("m", [4, 65, 300])  # uint8 counts, and uint16 past m = 255
def test_sample_sums_rejects_bad_input(m):
    rng = np.random.default_rng(0)
    good = np.full((2, 2), 0.5)
    for bad in (np.nan, 1.5, -0.1):
        probs = good.copy()
        probs[1, 0] = bad
        with pytest.raises(ValueError):
            sample_sums(probs, m, rng, 3)
    # a count that is not a nonnegative integer; a sequence of counts is
    # drawn by the caller, one increment at a time
    for bad_m in (-1, m + 0.5, float(m), (m,), [m], (1, m), [1, m], ()):
        with pytest.raises(ValueError):
            sample_sums(good, bad_m, rng, 3)
    np.testing.assert_array_equal(sample_sums(good, 0, rng, 3), np.zeros((3, 2)))
    assert sample_sums(good, np.int64(m), rng, 3).shape == (3, 2)


@pytest.mark.parametrize("m", [0, 4, 100, 300])  # no trials, uint8 and uint16 counts
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_sample_sums_over_no_entries_is_zero(shape, m):
    # a sum over no clients is 0; unchecked, the chunk size divides by zero
    sums = sample_sums(np.full(shape, 0.5), m, np.random.default_rng(0), 5)
    np.testing.assert_array_equal(sums, np.zeros((5, shape[1]), dtype=np.int64))


@pytest.mark.parametrize("trials", [2.5, 3.0, -1])
def test_sample_sums_rejects_bad_trials(trials):
    # unchecked, a float count reaches numpy as a shape and raises its TypeError
    with pytest.raises(ValueError, match="trials must be a nonnegative integer"):
        sample_sums(np.full((2, 2), 0.5), 4, np.random.default_rng(0), trials)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
def test_sample_sums_rejects_probs_that_are_not_2d(shape):
    # unchecked, a 1-D row fails in tuple unpacking, naming no argument
    with pytest.raises(ValueError, match="probs must be 2-D"):
        sample_sums(np.full(shape, 0.5), 4, np.random.default_rng(0), 3)


_DIST_PROBS = np.array([[0.1, 0.35, 0.5], [0.25, 0.6, 0.75], [0.45, 0.8, 0.95]])


# 255 and 256 straddle the per-(trial, entry) counts' uint8/uint16 boundary
@pytest.mark.parametrize("m", [1, 2, 16, 32, 33, 64, 65, 255, 256, 300])
def test_sample_sums_distribution(m):
    # each column's sum over clients is Poisson-binomial; chi-square its
    # histogram against the exact pmf
    trials = 40_000
    sums = sample_sums(_DIST_PROBS, m, np.random.default_rng(900 + m), trials)
    for j in range(3):
        assert poisson_binomial_chisquare(sums[:, j], _DIST_PROBS[:, j], m) >= 1e-4, (m, j)


@pytest.mark.parametrize("m", [4, 300])
@pytest.mark.parametrize("end", [-1.0, 1.0])
def test_sample_sums_at_a_clamped_end(end, m):
    # every probability at one end of theta = 0.15's range, where the float
    # 1/2 +- theta sits outside the range the accountant charges
    n, coords = 3, 3
    params = _plain(n=n, d=coords, theta=0.15, m=m)
    probs = coordinate_probs(np.full((n, coords), 2.0 * end), params)
    assert len(set(probs.ravel().tolist())) == 1
    sums = sample_sums(probs, m, np.random.default_rng(700 + m), 40_000)
    for j in range(coords):
        assert poisson_binomial_chisquare(sums[:, j], probs[:, j], m) >= 1e-4, (end, m, j)


class _IntegersOnly:
    """A real generator's integers method, and no other way to draw."""

    def __init__(self, seed):
        self.integers = np.random.default_rng(seed).integers


@pytest.mark.parametrize("m", [4, 65, 300])
def test_sample_sums_draws_through_integers_alone(m):
    # every m takes the exact Bernoulli kernel's 64-bit words; a call to
    # any other draw method (binomial, random) raises AttributeError here
    probs = np.random.default_rng(6).uniform(0.0, 1.0, size=(7, 5))
    sums = sample_sums(probs, m, _IntegersOnly(m), 6)
    np.testing.assert_array_equal(sums, sample_sums(probs, m, np.random.default_rng(m), 6))


def test_trial_rule_is_the_float_compare():
    # for every 53-bit k, the rule sample_sums runs (a top byte below hi
    # wins, one above loses, a tie compares k with T = ceil(p * 2**53))
    # decides k < T, which is the u < p compare of the float64 uniform
    # u = k * 2**-53
    rng = np.random.default_rng(61)
    ulp = 2.0**-53
    edges = [j * 2.0**-8 for j in (1, 2, 3, 17, 127, 128, 129, 255)]
    probs = [0.0, ulp, 0.5 - ulp, 0.5, 1.0 - ulp, 1.0]
    probs += [e + s for e in edges for s in (-ulp, 0.0, ulp) if e + s <= 1.0]
    probs += list(rng.uniform(0.0, 1.0, size=40))
    hi = mechanism._prefix_thresholds(np.array(probs))
    assert hi.dtype == np.uint8
    for p, h in zip(probs, hi.tolist()):
        t = ceil(Fraction(p) * 2**53)
        assert h == (max(t, 1) - 1) >> 45
        ks = [0, t - 1, t, t + 1, (h << 45) - 1, h << 45, (h + 1) << 45, 2**53 - 1]
        ks += [int(k) for k in rng.integers(0, 2**53, size=8)]
        for k in (k for k in ks if 0 <= k < 2**53):
            prefix = k >> 45
            decided = prefix < h or (prefix == h and k < t)
            assert decided == (k < t) == (k * ulp < p), (p, k)


class _WordStream:
    """Generator stand-in that serves a fixed list of 64-bit words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.used = 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**64, np.uint64)
        count = int(np.prod(size))
        assert self.used + count <= self.words.size, "stream overrun"
        out = self.words[self.used : self.used + count].reshape(size)
        self.used += count
        return out


def _tied_prefix_words(probs, m, trials):
    # every 8-bit prefix lane equals its entry's hi; the padding lanes too
    hi = mechanism._prefix_thresholds(probs.ravel())
    lanes = np.resize(hi, -(-hi.size // 8) * 8)
    return np.tile(lanes.astype("<u1"), trials * m).view("<u8")


@pytest.mark.parametrize("per_chunk", [None, 1, 2, 32])
def test_sample_sums_tie_path(per_chunk, monkeypatch):
    # ties are too rare (2**-8 per trial) to pin each one in the
    # distribution test; tie every prefix and pick the words that settle
    # them. 32 slabs per chunk draws two trials of 16 at once
    n, coords, trials = 3, 3, 4  # 9 entries, padded to 16 per slab
    probs = np.random.default_rng(8).uniform(0.0, 1.0, size=(n, coords))
    # T = ceil(p * 2**53) = hi * 2**45 + lo, so a tie wins when its word's
    # top 45 bits are below lo
    t = np.array([ceil(Fraction(p) * 2**53) for p in probs.ravel()], dtype=np.uint64)
    lo = t - (((t - 1) >> 45) << 45)
    if per_chunk is not None:
        monkeypatch.setattr(mechanism, "_CHUNK_ENTRIES", per_chunk * n * coords)
    for m in (3, 16):
        # one word per tie, by trial, then entry, then the entry's m ties
        tie_words = np.random.default_rng(9).integers(
            0, 2**64, size=(trials, n * coords, m), dtype=np.uint64
        )
        # the remainders just below and at each threshold
        tie_words[0, :, 0] = (lo - 1) << 19
        tie_words[0, :, 1] = lo << 19
        prefix = _tied_prefix_words(probs, m, trials)
        stream = _WordStream(np.concatenate([prefix, tie_words.ravel()]))
        sums = sample_sums(probs, m, stream, trials)
        assert stream.used == stream.words.size
        hits = (tie_words >> 19) < lo[:, None]
        assert hits[0, :, 0].all() and not hits[0, :, 1].any()
        expected = hits.reshape(trials, n, coords, m).sum(axis=(1, 3))
        np.testing.assert_array_equal(sums, expected, str(m))


@pytest.mark.parametrize("m", [1, 2, 32, 64])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_sample_sums_certain_outcomes_with_every_prefix_tied(p, m):
    n, coords, trials = 5, 3, 2
    probs = np.full((n, coords), p)
    ties = trials * m * n * coords
    tie_words = np.random.default_rng(m).integers(0, 2**64, size=ties, dtype=np.uint64)
    tie_words[:2] = (0, 2**64 - 1)
    prefix = _tied_prefix_words(probs, m, trials)
    stream = _WordStream(np.concatenate([prefix, tie_words]))
    sums = sample_sums(probs, m, stream, trials)
    assert stream.used == stream.words.size
    np.testing.assert_array_equal(sums, np.full((trials, coords), int(p) * n * m))


@pytest.mark.parametrize("m", [16, 64])
def test_sample_sums_memory(m):
    # the dme sweep's geometry: 1000 clients x 500 coordinates, 15 trials
    probs = np.random.default_rng(4).uniform(0.25, 0.75, size=(1000, 500))
    tracemalloc.start()
    try:
        sample_sums(probs, m, np.random.default_rng(5), 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_roundtrip_unbiased_plain():
    n, d, trials = 30, 3, 2500
    params = _plain(n=n, d=d, c=1.0, theta=0.25, m=2)
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    mu = x.mean(axis=0)
    probs = coordinate_probs(spread(x, params), params)
    sums = sample_sums(probs, 2, rng, trials)
    ests = server_decode(sums, params)
    per_coord_var = mse_bound(params) / d
    tol = 4.0 * sqrt(per_coord_var / trials)
    assert np.all(np.abs(ests.mean(axis=0) - mu) <= tol)
    emp_mse = float(np.mean(np.sum((ests - mu) ** 2, axis=1)))
    assert emp_mse <= mse_bound(params) * (1.0 + 5.0 / sqrt(trials))


def test_roundtrip_unbiased_kashin(frame8):
    # spread all clients in one frame call, draw the counts in bulk and
    # decode every trial at once, frame back-map included
    n, d, trials = 20, 8, 1200
    params = MechanismParams(
        n=n, d=d, c=1.0, theta=0.25, m=4, frame=frame8
    )
    rng = np.random.default_rng(55)
    x = rng.standard_normal((n, d))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
    mu = x.mean(axis=0)
    probs = coordinate_probs(spread(x, params), params)
    sums = sample_sums(probs, 4, rng, trials)
    ests = server_decode(sums, params)
    assert ests.shape == (trials, d)
    per_coord_var = mse_bound(params) / d
    tol = 4.0 * sqrt(per_coord_var / trials)
    assert np.all(np.abs(ests.mean(axis=0) - mu) <= tol)
    emp_mse = float(np.mean(np.sum((ests - mu) ** 2, axis=1)))
    assert emp_mse <= mse_bound(params) * (1.0 + 5.0 / sqrt(trials))


def test_variance_stable_at_fixed_m_theta_square():
    # pairs share m * theta^2, so the decode variance should line up
    n, trials = 20, 1600
    rng = np.random.default_rng(77)
    x = rng.uniform(-1.0, 1.0, size=n)
    mu = x.mean()
    mses = []
    for m, theta in [(16, 1 / 8), (64, 1 / 16), (256, 1 / 32)]:
        params = _plain(n=n, d=1, c=1.0, theta=theta, m=m)
        probs = coordinate_probs(x, params)[:, None]
        sums = sample_sums(probs, m, np.random.default_rng(m), trials)
        ests = server_decode(sums, params)[:, 0]
        mses.append(float(np.mean((ests - mu) ** 2)))
    assert max(mses) / min(mses) < 1.25
    assert max(mses) <= 1.0 / (4 * n * 16 * (1 / 8) ** 2) * (1.0 + 5.0 / sqrt(trials))


# ---------------------------------------------------------------------------
# the one-coordinate mechanism: a client holding x in [-c, c] reports
# Binom(m, (theta/c) * x + 1/2); the server decodes the sum of n reports as
# c/(n*m*theta) * (sum - n*m/2). These tests pin those closed forms through
# the batched mechanism at d = 1.


def _params(n=1, c=1.0, theta=0.25, m=1) -> MechanismParams:
    return MechanismParams(n=n, d=1, c=c, theta=theta, m=m)


def _probs(xs, params: MechanismParams) -> np.ndarray:
    x = np.asarray(xs, dtype=float).reshape(-1, 1)
    return coordinate_probs(spread(x, params), params)[:, 0]


def _decode(sums, params: MechanismParams) -> np.ndarray:
    return server_decode(np.asarray(sums).reshape(-1, 1), params)[:, 0]


def test_rescale_known_values():
    assert _probs([-1.0], _params(c=2.0, theta=0.1))[0] == pytest.approx(0.45)
    quarter = _params(c=1.0, theta=0.25)
    np.testing.assert_array_equal(_probs([0.0, 1.0, -1.0], quarter), [0.5, 0.75, 0.25])


def test_rescale_monotone_and_symmetric():
    params = _params(c=3.0, theta=0.2, m=2)
    xs = np.linspace(-3.0, 3.0, 41)
    ps = _probs(xs, params)
    assert np.all(np.diff(ps) > 0)
    np.testing.assert_allclose(_probs(-xs, params), 1.0 - ps, rtol=0, atol=1e-15)


def test_rescale_rejects_out_of_range():
    params = _params(c=1.0, theta=0.1)
    with pytest.raises(ValueError):
        _probs([1.5], params)
    with pytest.raises(ValueError):
        _probs([-1.0000001], params)


def test_scalar_params_validation():
    with pytest.raises(ValueError):
        _params(c=0.0, theta=0.1)
    with pytest.raises(ValueError):
        _params(c=1.0, theta=0.3)
    with pytest.raises(ValueError):
        _params(c=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        _params(c=1.0, theta=0.1, m=0)


def test_encode_matches_binomial_law():
    params = _params(c=1.0, theta=0.25, m=5)
    p = _probs([0.4], params)[0]
    assert p == pytest.approx(0.6)
    rng = np.random.default_rng(123)
    draws = sample_sums(np.full((1, 1), p), params.m, rng, 20000)[:, 0]
    counts = np.bincount(draws, minlength=6) / len(draws)
    expected = binom.pmf(np.arange(6), 5, 0.6)
    # each frequency within 4 sigma of its binomial cell probability
    sigma = np.sqrt(expected * (1 - expected) / len(draws))
    assert np.all(np.abs(counts - expected) < 4 * sigma + 1e-12)


def test_decode_sum_known_values():
    assert _decode([4], _params(n=1, c=1.0, theta=0.25, m=4))[0] == pytest.approx(2.0)
    assert _decode([2], _params(n=2, c=1.0, theta=0.25, m=2))[0] == pytest.approx(0.0)


def test_decode_sum_validation():
    params = _params(n=2, c=1.0, theta=0.25, m=4)
    with pytest.raises(ValueError):
        _decode([-1], params)
    with pytest.raises(ValueError):
        _decode([9], params)
    with pytest.raises(ValueError):
        _params(n=0, c=1.0, theta=0.25, m=4)


def test_variance_bound_known_values():
    assert mse_bound(_params(n=1, c=1.0, theta=0.25, m=1)) == pytest.approx(4.0)
    assert mse_bound(_params(n=1000, c=1.0, theta=0.25, m=16)) == pytest.approx(
        1.0 / 4000.0
    )


def test_mean_estimate_unbiased_and_within_variance_bound():
    n, runs = 30, 20000
    params = _params(n=n, c=2.0, theta=0.25, m=3)
    rng = np.random.default_rng(42)
    xs = rng.uniform(-2.0, 2.0, size=n)
    true_mean = xs.mean()
    probs = _probs(xs, params)
    sums = sample_sums(probs[:, None], params.m, rng, runs)[:, 0]
    estimates = _decode(sums, params)
    bound = mse_bound(params)
    assert abs(estimates.mean() - true_mean) < 4 * np.sqrt(bound / runs)
    assert estimates.var() <= bound * (1 + 5 / np.sqrt(runs))
