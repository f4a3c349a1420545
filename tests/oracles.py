"""Independent reference implementations used to cross-check the package.

Everything down to the last section works with scipy.stats and
np.convolve in plain probability space (exhaustive_k_curve in log space,
with logaddexp), or in mpmath at 40 digits, and shares no code with the
accountant. The last section, full_support_curve and its
helpers, is the accountant's own float operations on every outcome,
without the window, which pins the window's bytes and error; it imports
the accountant's Stirling error, convolve_logpmf, _logsumexp and the
constant _EXPM1_LIMIT.
"""

from __future__ import annotations

import itertools
from math import atanh, comb, expm1, log, sqrt

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom, chisquare

from pbm.accounting import (
    _EXPM1_LIMIT, _logsumexp, _stirling_error, convolve_logpmf,
)


def poisson_binomial_pmf(ps, m: int) -> np.ndarray:
    """pmf of a sum of independent Binom(m, p) draws, by direct convolution."""
    out = np.ones(1)
    support = np.arange(m + 1)
    for p in ps:
        out = np.convolve(out, binom.pmf(support, m, p))
    return out


def poisson_binomial_chisquare(sums, ps, m: int) -> float:
    """p-value of the histogram of sums (draws of one sum of independent
    Binom(m, p) over p in ps) against poisson_binomial_pmf, pooling cells
    expected below 5."""
    pmf = poisson_binomial_pmf(ps, m)
    expected = sums.size * pmf / pmf.sum()
    observed = np.bincount(sums, minlength=len(pmf))
    assert len(observed) == len(pmf)
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if not small.any():
        obs, exp = obs[:-1], exp[:-1]
    return chisquare(obs, exp).pvalue


def renyi_from_probs(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    mask = p > 0
    return float(np.log(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))) / (
        alpha - 1.0
    )


def brute_force_extreme_rdp(n: int, m: int, theta: float, alpha: float) -> float:
    """Max divergence over every extreme assignment of n probabilities plus
    the replaced client's alternative, both orderings included."""
    lo, hi = 0.5 - theta, 0.5 + theta
    best = 0.0
    for bits in itertools.product((lo, hi), repeat=n + 1):
        ps, alt = bits[:n], bits[n]
        p_pmf = poisson_binomial_pmf(ps, m)
        q_pmf = poisson_binomial_pmf((alt,) + ps[1:], m)
        best = max(best, renyi_from_probs(p_pmf, q_pmf, alpha))
    return best


def _log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log of np.convolve(exp(a), exp(b)), each column summed by logaddexp."""
    if len(b) > len(a):
        a, b = b, a
    out = np.full(len(a) + len(b) - 1, -np.inf)
    for j, lb in enumerate(b):
        np.logaddexp(out[j : j + len(a)], a + lb, out=out[j : j + len(a)])
    return out


def exhaustive_k_curve(n: int, m: int, theta: float, alphas) -> np.ndarray:
    """Max divergence over every extreme configuration k in 0..n-1.

    k of the n-1 unchanged clients sit at 1/2 - theta and the rest at
    1/2 + theta; the differing client is at either end, both orderings.
    The pmfs stay in log space, convolved with logaddexp, and each
    divergence is a logsumexp of alpha * log p + (1 - alpha) * log q, so
    no tail underflows: the same sums in probability space read 14% low
    at (100, 8, 1/4), order 16, and 0 at (300, 3, 1/4). Each log-pmf is
    the log of scipy's binom.pmf where that is a normal float, and
    binom.logpmf below it: the log-gamma form is off by about 1e-12
    absolute at 900 trials, which read 1.7e-7 relative at theta = 0.01.
    """
    lo, hi = 0.5 - theta, 0.5 + theta

    def logpmf(trials, p):
        k = np.arange(trials + 1)
        out = binom.logpmf(k, trials, p)
        pmf = binom.pmf(k, trials, p)
        normal = pmf >= np.finfo(float).tiny
        out[normal] = np.log(pmf[normal])
        return out

    # the sum with j of the n clients at 1/2 - theta; configuration k
    # compares j = k + 1 (the differing client low) with j = k
    sums = [_log_convolve(logpmf(m * j, lo), logpmf(m * (n - j), hi)) for j in range(n + 1)]
    a = np.asarray(alphas, dtype=float)[:, None]
    eps = np.zeros(len(a))
    for k in range(n):
        for p, q in ((sums[k + 1], sums[k]), (sums[k], sums[k + 1])):
            d = logsumexp(a * p + (1.0 - a) * q, axis=1) / (a[:, 0] - 1.0)
            np.maximum(eps, d, out=eps)
    return eps


def mpmath_endpoint_curve(n: int, m: int, theta: float, alphas, dps: int = 40):
    """The endpoint pair's curve (k = 0, both orders) in dps-digit mpmath.

    Q = Binom(n*m, hi), P = Binom(m, lo) * Binom(m*(n-1), hi), both built
    from one shared Binom(m*(n-1), hi) pmf by exact ratio recurrences.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    lo = ctx.mpf(1) / 2 - ctx.mpf(theta)
    hi = ctx.mpf(1) / 2 + ctx.mpf(theta)
    rest = m * (n - 1)
    base = [lo**rest]
    for k in range(rest):
        base.append(base[-1] * (rest - k) / (k + 1) * hi / lo)
    kern_p = [ctx.binomial(m, i) * lo**i * hi ** (m - i) for i in range(m + 1)]
    kern_q = [ctx.binomial(m, i) * hi**i * lo ** (m - i) for i in range(m + 1)]
    qs, llrs = [], []
    for j in range(n * m + 1):
        span = range(max(0, j - rest), min(m, j) + 1)
        p = ctx.fsum(kern_p[i] * base[j - i] for i in span)
        q = ctx.fsum(kern_q[i] * base[j - i] for i in span)
        qs.append(q)
        llrs.append(ctx.log(p / q))
    out = []
    for alpha in alphas:
        a = ctx.mpf(alpha)
        d = max(
            ctx.log(ctx.fsum(q * ctx.exp(b * r) for q, r in zip(qs, llrs)))
            for b in (a, 1 - a)
        )
        out.append(float(d / (a - 1)))
    return np.array(out)


def mpmath_binomial_logpmf(trials: int, p: float, ks, dps: int = 40) -> np.ndarray:
    """log C(trials, k) + k log p + (trials - k) log(1 - p) in dps-digit mpmath."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    big_p = ctx.mpf(p)
    log_p, log_q = ctx.log(big_p), ctx.log(1 - big_p)
    log_n = ctx.loggamma(trials + 1)
    return np.array([
        float(log_n - ctx.loggamma(k + 1) - ctx.loggamma(trials - k + 1)
              + k * log_p + (trials - k) * log_q)
        for k in ks
    ])


def interior_grid_max_rdp(theta: float, alpha: float, step: float) -> float:
    """Max D_alpha over a full grid of 3-client probability assignments.

    Clients 2 and 3 share their probabilities across the pair; client 1
    takes every (p1, p1') combination. Bernoulli encodings (m = 1).
    """
    grid = np.arange(0.5 - theta, 0.5 + theta + step / 2, step)
    grid = np.clip(grid, 0.5 - theta, 0.5 + theta)
    best = 0.0
    for p2 in grid:
        for p3 in grid:
            tail = np.convolve([1 - p2, p2], [1 - p3, p3])
            pmfs = np.array([np.convolve([1 - p1, p1], tail) for p1 in grid])
            for i in range(len(grid)):
                for j in range(len(grid)):
                    if i == j:
                        continue
                    best = max(best, renyi_from_probs(pmfs[i], pmfs[j], alpha))
    return best


def linear_curve_dp_oracle(rho: float, delta: float) -> float:
    """Conversion value for eps(alpha) = rho*alpha at the closed-form
    minimizer alpha* = 1 + sqrt(log(1/delta)/rho) of the dominant terms."""
    big_l = log(1.0 / delta)
    alpha_star = 1.0 + sqrt(big_l / rho)
    return (
        rho * alpha_star
        + log(1.0 / (alpha_star * delta)) / (alpha_star - 1.0)
        + log(1.0 - 1.0 / alpha_star)
    )


def rdp_to_dp_simple(curve, delta: float) -> float:
    """Looser closed form: sup(eps/alpha) + 2*sqrt(sup(eps/alpha)*log(1/delta)).

    An RDP curve below rho*alpha is (rho + 2*sqrt(rho*log(1/delta)), delta)-DP
    (Bun and Steinke, zCDP), so the grid conversion must never exceed it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    rho = float((curve.epsilons / curve.alphas).max())
    return rho + 2.0 * sqrt(rho * log(1.0 / delta))


def _sum_pmf(ps, m: int) -> np.ndarray:
    """pmf of a sum of independent Binom(m, p) draws; equal p's are merged,
    since k draws of Binom(m, p) sum to Binom(k*m, p)."""
    out = np.ones(1)
    for p, k in zip(*np.unique(ps, return_counts=True)):
        out = np.convolve(out, binom.pmf(np.arange(k * m + 1), k * m, p))
    return out


def _log_moment(p: np.ndarray, q: np.ndarray, j: float) -> float:
    """log sum p^j q^(1-j) over the outcomes where neither pmf underflows.

    The dropped terms are nonnegative, so the value can only come out low.
    """
    mask = (p > 0) & (q > 0)
    return float(logsumexp(j * np.log(p[mask]) + (1.0 - j) * np.log(q[mask])))


def realizable_pair_rdp(probs, alt, m: int, alpha: float, gamma: float = 1.0) -> float:
    """Exact D_alpha of one round's sums for a concrete neighbouring pair.

    probs (n, coords) are the clients' success probabilities; the
    neighbour replaces row 0 by alt (coords,). Each coordinate sums n
    independent Binom(m, p) counts, so P (probs) and Q (alt in row 0) are
    products over coordinates. With gamma = 1 the value is the larger of
    sum_i D_alpha(P_i || Q_i) and sum_i D_alpha(Q_i || P_i).

    With gamma < 1 the pair is (gamma*P + (1 - gamma)*Q, Q): the cohort is
    drawn without replacement from a population in which every client but
    the replaced one sits at alt, so the cohort holds row 0 with
    probability gamma = n/N and every other row must equal alt. At an
    integer order E_Q[(1 - gamma + gamma*P/Q)^alpha] expands binomially
    into moments E_Q[(P/Q)^j] that factor over coordinates; at alpha = 2
    it is log(1 + gamma^2 * (prod_i (1 + chi2(P_i || Q_i)) - 1)).

    Outcomes where a pmf underflows are dropped, which only lowers the
    value, so it stays a lower bound on the true divergence of the pair.
    """
    probs = np.asarray(probs, dtype=float)
    pairs = []
    for i in range(probs.shape[1]):
        rest = _sum_pmf(probs[1:, i], m)
        pairs.append(
            (np.convolve(rest, binom.pmf(np.arange(m + 1), m, probs[0, i])),
             np.convolve(rest, binom.pmf(np.arange(m + 1), m, alt[i])))
        )
    if gamma == 1.0:
        forward = sum(_log_moment(p, q, alpha) for p, q in pairs)
        backward = sum(_log_moment(q, p, alpha) for p, q in pairs)
        return max(forward, backward) / (alpha - 1.0)
    if not (0.0 < gamma < 1.0 and alpha == int(alpha) and alpha >= 2):
        raise ValueError("a subsampled pair needs gamma in (0, 1) and an integer order")
    if not np.all(probs[1:] == alt):
        raise ValueError("a subsampled pair needs every row but row 0 at alt")
    k = int(alpha)
    terms = [
        log(comb(k, j)) + (k - j) * np.log1p(-gamma) + j * log(gamma)
        + sum(_log_moment(p, q, j) for p, q in pairs)
        for j in range(k + 1)
    ]
    return float(logsumexp(terms)) / (alpha - 1.0)


def represent_residual_passes(x: np.ndarray, u: np.ndarray, passes: int) -> np.ndarray:
    """Frame coefficients by the clipped passes on the residual r itself.

    Each pass clips a = U.T @ r to +-||r|| / sqrt(D), adds a to y and takes
    U @ a from r, two d x D products; one unclipped step
    y += U.T @ (x - U @ y) ends the loop. This is the textbook form of
    Lyubarskii and Vershynin's truncation, in float64, which
    kashin._represent_batch runs in the residual's coefficients and in
    float32 instead.
    """
    big_d = u.shape[1]
    y = np.zeros((big_d, x.shape[1]))
    r = x.copy()
    for _ in range(passes):
        a = u.T @ r
        cap = np.linalg.norm(r, axis=0) / sqrt(big_d)
        np.clip(a, -cap, cap, out=a)
        y += a
        r -= u @ a
    y += u.T @ (x - u @ y)
    return y


def decode_error_moments(probs, m: int, scale: float, u=None) -> tuple[float, float]:
    """Mean and variance of one trial's squared decode error ||x_hat - x_bar||^2.

    probs (n, coords) are the clients' success probabilities, each count
    Binom(m, p); scale = c' / (n*m*theta) is the decoder's gain, and u the
    frame (d, coords), or None for direct encoding. The decoded coefficient
    mu_k = scale * (S_k - n*m/2) has mean y_bar_k (the decoder is unbiased
    while no probability is clamped), and its error e_k has variance
    v_k = scale^2 * m * sum_i p_ik (1 - p_ik) and fourth cumulant
    scale^4 * m * sum_i p_ik (1 - p_ik) (1 - 6 p_ik (1 - p_ik)),
    independently across k. The squared error is e.T @ G @ e with
    G = u.T @ u (the identity without a frame), whose mean is
    sum_k ||u_k||^2 v_k and whose variance is
    2 sum_kl G_kl^2 v_k v_l + sum_k G_kk^2 kappa_k.
    """
    probs = np.asarray(probs, dtype=float)
    pq = probs * (1.0 - probs)
    var = scale**2 * m * pq.sum(axis=0)
    kappa = scale**4 * m * (pq * (1.0 - 6.0 * pq)).sum(axis=0)
    gram = np.eye(probs.shape[1]) if u is None else np.asarray(u).T @ np.asarray(u)
    diag = np.diag(gram)
    mean = float(diag @ var)
    variance = float(2.0 * var @ (gram**2) @ var + (diag**2) @ kappa)
    return mean, variance


# ---------------------------------------------------------------------------
# the accountant's curve on every outcome, without the Hoeffding window


def _full_binomial_logpmf(trials: int, p: float) -> np.ndarray:
    """accounting.binomial_logpmf on {0, ..., trials}, 0 < p < 1, as one
    pass: the (N - k)-terms are the k-terms reversed."""
    out = np.empty(trials + 1)
    out[0] = trials * np.log1p(-p)
    out[-1] = trials * log(p)
    if trials > 1:
        n_p, n_q = trials * p, trials * (1.0 - p)
        k_all = np.arange(1, trials + 1, dtype=float)
        s = _stirling_error(k_all)
        k = k_all[:-1]
        dev = out[1:-1]
        np.subtract(k, n_p, out=dev)
        buf = dev / n_p
        np.log1p(buf, out=buf)
        buf *= k
        dev /= -n_q
        np.log1p(dev, out=dev)
        dev *= k[::-1]
        dev += buf
        np.log(k, out=buf)
        buf *= 0.5
        buf += s[:-1]
        dev += buf
        dev += buf[::-1]
        np.subtract(s[-1] + 0.5 * log(trials / (2.0 * np.pi)), dev, out=dev)
    return out


def _full_endpoint_delta(n: int, m: int, log_rho: float) -> np.ndarray:
    """P/Q - 1 on {0, ..., n*m}: the hypergeometric recurrence on the
    columns j <= n*m/2, column n*m - j read as column j with I -> m - I."""
    big_n = n * m
    half = big_n // 2
    j = np.arange(half + 1, dtype=float)
    w = np.ones(half + 1)
    total, d_lo, d_hi = np.zeros((3, half + 1))
    for i in range(m + 1):
        x = (m - 2 * i) * log_rho
        total += w
        d_lo += expm1(x) * w
        d_hi += expm1(-x) * w
        if i < m:
            w *= (m - i) / (i + 1) * (j - i) / (big_n - m + 1 + i - j)

    def columns(lower, upper):
        return np.concatenate([lower, upper[: big_n - half][::-1]])

    return columns(d_lo, d_hi) / columns(total, total)


def _full_endpoint_llr(n: int, m: int, theta: float, logq: np.ndarray) -> np.ndarray:
    """log(P/Q) on {0, ..., n*m}, m <= 400: log1p of the recurrence's
    P/Q - 1, and log P convolved on the far window where P/Q <= 1/2."""
    lo, hi = 0.5 - theta, 0.5 + theta
    log_rho = 2.0 * atanh(2.0 * theta)
    if n == 1:
        return (m - 2.0 * np.arange(m + 1)) * log_rho
    delta = _full_endpoint_delta(n, m, log_rho)
    far = np.flatnonzero(~(delta > -0.5))
    llr = np.log1p(np.maximum(delta, -0.5, out=delta), out=delta)
    if len(far) == 0:
        return llr
    rest = _full_binomial_logpmf(m * (n - 1), hi)
    start, stop = far[0], far[-1] + 1
    first, last = max(start - m, 0), min(stop, len(rest))
    logp = convolve_logpmf(_full_binomial_logpmf(m, lo), rest[first:last])
    llr[far] = logp[far - first] - logq[far]
    return llr


def full_support_terms(n: int, m: int, theta: float):
    """(q, log q, log(P/Q)) of the endpoint pair on {0, ..., n*m}, 0 < theta."""
    logq = _full_binomial_logpmf(n * m, 0.5 + theta)
    return np.exp(logq), logq, _full_endpoint_llr(n, m, theta, logq)


def full_support_curve(n: int, m: int, theta: float, alphas) -> np.ndarray:
    """The endpoint curve as pbm_exact_curve computed it on every outcome.

    The same float operations in the same order as the accountant before
    it ran on a window of Q's support, so it pins the window's bytes where
    the window is the whole support and its error elsewhere. It reuses
    the accountant's Stirling error, convolution and logsumexp, which the
    window leaves as they were.
    """
    alphas = np.asarray(sorted(alphas), dtype=float)
    eps = np.zeros(len(alphas))
    if theta == 0.0:
        return eps
    q, logq, llr = full_support_terms(n, m, theta)
    support = np.flatnonzero(q)
    live = slice(support[0], support[-1] + 1)
    q_live, llr_live = q[live], llr[live]
    llr_max = np.max(np.abs(llr))
    for i, alpha in enumerate(alphas):
        ds = []
        for b in (alpha, 1.0 - alpha):
            if abs(b) * llr_max < _EXPM1_LIMIT:
                e = b * llr_live
                np.expm1(e, out=e)
                e *= q_live
                ds.append(float(np.log1p(e.sum())))
            else:
                ds.append(_logsumexp(logq + b * llr))
        eps[i] = max(ds) / (alpha - 1.0)
    return eps
