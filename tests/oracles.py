"""Independent reference implementations used to cross-check the package.

Everything here works in plain probability space with scipy.stats and
np.convolve, or in mpmath at 40 digits, deliberately sharing no code with
the accountant.
"""

from __future__ import annotations

import itertools
from math import comb, log, sqrt

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom


def poisson_binomial_pmf(ps, m: int) -> np.ndarray:
    """pmf of a sum of independent Binom(m, p) draws, by direct convolution."""
    out = np.ones(1)
    support = np.arange(m + 1)
    for p in ps:
        out = np.convolve(out, binom.pmf(support, m, p))
    return out


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


def exhaustive_k_curve(n: int, m: int, theta: float, alphas) -> np.ndarray:
    """Max divergence over every extreme configuration k in 0..n-1.

    k of the n-1 unchanged clients sit at 1/2 - theta and the rest at
    1/2 + theta; the differing client is at either end, both orderings.
    Each term is q * (p/q)^alpha, so no power of a tiny probability is
    formed on its own.
    """
    lo, hi = 0.5 - theta, 0.5 + theta

    def pmf(trials, p):
        return binom.pmf(np.arange(trials + 1), trials, p)

    eps = np.zeros(len(alphas))
    for k in range(n):
        pa = np.convolve(pmf(m * (k + 1), lo), pmf(m * (n - k - 1), hi))
        pb = np.convolve(pmf(m * k, lo), pmf(m * (n - k), hi))
        for i, alpha in enumerate(alphas):
            for p, q in ((pa, pb), (pb, pa)):
                d = np.log(np.sum(q * (p / q) ** alpha)) / (alpha - 1.0)
                eps[i] = max(eps[i], d)
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
