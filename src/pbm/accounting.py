"""Renyi privacy accounting for the binomial mean estimator.

The per-round privacy loss of the mechanism is a Renyi divergence between
two convolutions of binomials whose success probabilities sit at the ends
of the re-scaling range [1/2 - theta, 1/2 + theta]. Quasi-convexity of the
divergence in each client's probability means the worst case over all
inputs is attained at an extreme assignment: k of the n - 1 unchanged
clients at 1/2 - theta, the rest at 1/2 + theta, with both orderings of
the pair. Mirror symmetry maps k to n - 1 - k, and the endpoint k = 0
attains the maximum; the test suite checks that against an exhaustive
search over every k and every assignment. At the endpoint the likelihood
ratio is a hypergeometric mean, so one curve costs O(n*m^2).

log-pmfs are plain float arrays indexed by outcome, with -inf for zero
mass; a valid log-pmf has logsumexp == 0. The exact curve sums its
divergence on the log-likelihood ratio with log1p/expm1, which keeps its
relative precision as epsilon shrinks.

Also here: the Gaussian baseline, composition of identical copies,
conversion to (eps, delta), and parameter selection for a target budget.
Selection charges m trials as m composed copies of the one-trial exact
curve, so every (theta, m) it returns meets its budget on that
certificate, and no budget reaches the O(n*m^2) curve at large m.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import atanh, expm1, inf, isfinite, log
from numbers import Integral
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

# default Renyi orders for curves and ledgers
DEFAULT_ALPHAS = (1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0)


class InfeasibleBudget(ValueError):
    """The requested privacy budget cannot be met by any (theta, m)."""


# ---------------------------------------------------------------------------
# log-pmf primitives


def binomial_logpmf(trials: int, p: float) -> np.ndarray:
    """log-pmf of Binom(trials, p) on {0, ..., trials}."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if trials == 0:
        return np.zeros(1)
    k = np.arange(trials + 1)
    if p == 0.0:
        out = np.full(trials + 1, -np.inf)
        out[0] = 0.0
        return out
    if p == 1.0:
        out = np.full(trials + 1, -np.inf)
        out[-1] = 0.0
        return out
    return (
        gammaln(trials + 1) - gammaln(k + 1) - gammaln(trials - k + 1)
        + k * log(p) + (trials - k) * np.log1p(-p)
    )


def convolve_logpmf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact log-pmf of the sum of two independent integer variables."""
    if len(b) > len(a):
        a, b = b, a
    out = np.full(len(a) + len(b) - 1, -np.inf)
    la = len(a)
    for j in range(len(b)):
        lb = b[j]
        if lb == -np.inf:
            continue
        np.logaddexp(out[j : j + la], a + lb, out=out[j : j + la])
    return out


# ---------------------------------------------------------------------------
# exact curve at the endpoint pair


def _orders(alphas: Iterable[float]) -> np.ndarray:
    """The orders of a curve, sorted; each must be finite and exceed 1."""
    a = np.asarray(sorted(alphas), dtype=float)
    if not np.all(np.isfinite(a) & (a > 1.0)):
        raise ValueError(f"orders must be finite and exceed 1, got {a.tolist()}")
    return a


# largest m for the hypergeometric sums of _endpoint_llr: their terms stay
# below about 5.4^m, which float64 holds up to m = 400; past it the
# log-space ratio is used throughout
_HYPERGEOM_MAX_M = 400

# expm1 overflows past 709; where the tilt |b * log(p/q)| reaches this,
# the divergence is summed with logsumexp instead
_EXPM1_LIMIT = 700.0


def _endpoint_llr(n: int, m: int, theta: float, log_ratio: np.ndarray) -> np.ndarray:
    """log(P/Q) on {0, ..., n*m} for the endpoint pair of pbm_exact_curve.

    log_ratio is log P - log Q from the two log-pmfs, which is precise
    where P/Q is far from 1 but not near it. Given the total j under Q,
    the differing client's count I is Hypergeom(n*m, m, j), so
    P/Q(j) - 1 = E[expm1((m - 2I) * log(rho))] with
    rho = (1/2 + theta)/(1/2 - theta), which keeps its precision at small
    theta. The weights of I come from the product-of-ratios recurrence in
    i, normalised per j, over the columns j <= n*m/2; column n*m - j is
    column j with I -> m - I. log_ratio is kept where P/Q < 1/2.
    """
    log_rho = 2.0 * atanh(2.0 * theta)
    if n == 1:
        return (m - 2.0 * np.arange(m + 1)) * log_rho
    if m > _HYPERGEOM_MAX_M:
        return log_ratio
    big_n = n * m
    half = big_n // 2
    j = np.arange(half + 1, dtype=float)
    w = np.ones(half + 1)
    # weight totals, and expm1 sums of rho^(m-2i) (column j) and of
    # rho^(2i-m) (column n*m - j)
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

    delta = columns(d_lo, d_hi) / columns(total, total)
    return np.where(delta > -0.5, np.log1p(np.maximum(delta, -0.5)), log_ratio)


def _log_mean_exp(q: np.ndarray, logq: np.ndarray, t: np.ndarray) -> float:
    """log E_Q[exp(t)], as log1p of an expm1 sum unless t nears overflow."""
    if np.max(np.abs(t)) < _EXPM1_LIMIT:
        return float(np.log1p(np.dot(q, np.expm1(t))))
    return float(logsumexp(logq + t))


def pbm_exact_curve(
    n: int,
    m: int,
    theta: float,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> "RdpCurve":
    """Exact per-coordinate Renyi curve of the endpoint pair, both orders.

    Q = Binom(n*m, 1/2 + theta): every client at the top of the range.
    P = Binom(m, 1/2 - theta) * Binom(m*(n-1), 1/2 + theta): the differing
    client at the bottom. Mirror symmetry (j -> n*m - j) covers the pair
    with every client at the bottom. The curve is the larger of
    D_alpha(P || Q) and D_alpha(Q || P), each computed as
    log1p(sum q * expm1(b * log(p/q))) / (alpha - 1) with b = alpha and
    b = 1 - alpha. Cost O(n*m^2) time and O(n*m) memory.
    """
    if not (isinstance(n, Integral) and isinstance(m, Integral) and n >= 1 and m >= 1):
        raise ValueError(f"n and m must be positive integers, got n={n!r}, m={m!r}")
    if not 0.0 <= theta <= 0.25:
        raise ValueError(f"theta must lie in [0, 1/4], got {theta}")
    alphas = _orders(alphas)
    eps = np.zeros(len(alphas))
    if theta > 0.0:
        lo, hi = 0.5 - theta, 0.5 + theta
        logq = binomial_logpmf(n * m, hi)
        logp = convolve_logpmf(binomial_logpmf(m, lo), binomial_logpmf(m * (n - 1), hi))
        llr = _endpoint_llr(n, m, theta, logp - logq)
        q = np.exp(logq)
        for i, alpha in enumerate(alphas):
            d = max(_log_mean_exp(q, logq, b * llr) for b in (alpha, 1.0 - alpha))
            eps[i] = max(d / (alpha - 1.0), 0.0)
    meta = {"mechanism": "pbm-exact", "n": n, "m": m, "theta": theta}
    return RdpCurve(alphas=alphas, epsilons=eps, kind="exact", meta=meta)


def pbm_exact_rdp(n: int, m: int, theta: float, alpha: float) -> float:
    """Exact epsilon at a single order; see pbm_exact_curve."""
    return float(pbm_exact_curve(n, m, theta, [alpha]).epsilons[0])


# ---------------------------------------------------------------------------
# Gaussian baseline


def gaussian_rdp(c: float, n: int, sigma: float, alpha: float) -> float:
    """Renyi curve of the Gaussian baseline: 2 * c^2 * alpha / (n^2 * sigma^2).

    c is the L2 bound on a client's vector. Neighbours replace one client,
    as in the PBM accountant, so the mean moves by up to 2c/n and the order
    alpha divergence is (2c/n)^2 * alpha / (2 * sigma^2).
    """
    if not 0 < c < inf:
        raise ValueError(f"c must be finite and positive, got {c}")
    if not 0 < sigma < inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return 2.0 * c * c * alpha / (n * n * sigma * sigma)


def gaussian_mse(d: int, sigma: float) -> float:
    """Mean-squared error of the Gaussian baseline on d coordinates."""
    if d < 1 or sigma < 0:
        raise ValueError(f"need d >= 1, sigma >= 0; got {d}, {sigma}")
    return d * sigma * sigma


def gaussian_curve(
    c: float, n: int, sigma: float, alphas: Sequence[float] = DEFAULT_ALPHAS
) -> "RdpCurve":
    alphas = _orders(alphas)
    eps = np.array([gaussian_rdp(c, n, sigma, a) for a in alphas])
    meta = {"mechanism": "gaussian", "neighbours": "replace-one",
            "c": c, "n": n, "sigma": sigma}
    return RdpCurve(alphas=alphas, epsilons=eps, kind="gaussian", meta=meta)


# ---------------------------------------------------------------------------
# curves: composition, conversion


@dataclass(frozen=True)
class RdpCurve:
    """epsilon(alpha) on a fixed grid of orders, with provenance metadata."""

    alphas: np.ndarray
    epsilons: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        e = np.asarray(self.epsilons, dtype=float)
        if a.ndim != 1 or a.shape != e.shape or len(a) == 0:
            raise ValueError("alphas and epsilons must be equal-length 1-d arrays")
        if not np.all(np.isfinite(a) & (a > 1.0)):
            raise ValueError("all orders must be finite and exceed 1")
        if np.any(np.diff(a) <= 0):
            raise ValueError("orders must be strictly increasing")
        if not np.all(e >= 0):
            raise ValueError("epsilons must be nonnegative, not nan")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "epsilons", e)

    def params_hash(self) -> str:
        payload = json.dumps({"kind": self.kind, "meta": self.meta}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def scale(curve: RdpCurve, times: int) -> RdpCurve:
    """Compose `times` identical copies: coordinates, trials or rounds."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    meta = dict(curve.meta)
    meta["copies"] = times
    return RdpCurve(
        alphas=curve.alphas, epsilons=curve.epsilons * times,
        kind="composed", meta=meta,
    )


def rdp_to_dp(curve: RdpCurve, delta: float) -> float:
    """Tightest (eps, delta) conversion over the curve's grid.

    eps_dp = min_alpha eps(alpha) + log(1/(alpha*delta))/(alpha-1)
             + log(1 - 1/alpha); pure grid search, no interpolation.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    a = curve.alphas
    vals = curve.epsilons + np.log(1.0 / (a * delta)) / (a - 1.0) + np.log1p(-1.0 / a)
    return float(vals.min())


# ---------------------------------------------------------------------------
# parameter selection


def largest_theta(fits: Callable[[float], bool], what: str) -> float:
    """Largest theta <= 1/4 with fits(theta), for fits true up to a threshold.

    Returns 1/4 if it fits; otherwise bisects [0, 1/4] with at most 50
    halvings, stopping at width 1e-10, and returns the end that fits.
    Raises InfeasibleBudget if no theta > 0 was found to fit; `what` names
    the budget in the message.
    """
    if fits(0.25):
        return 0.25
    lo, hi = 0.0, 0.25
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    if lo == 0.0:
        raise InfeasibleBudget(f"no theta > 0 meets {what}")
    return lo


def _check_target(name: str, value: float) -> None:
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise InfeasibleBudget(f"{name} must be positive, got {value}")


def _select(
    n: int,
    d: int,
    alphas: Sequence[float],
    certify: Callable[[RdpCurve], float],
    target: float,
    what: str,
) -> tuple[float, int, float]:
    """(theta, m, certify(curve)) for the d*m copies of the one-trial curve
    whose certified value is at most target.

    The m trials of a client are m independent one-trial releases, so RDP
    composition gives eps(n, m, theta) <= m * eps(n, 1, theta) at every
    order, and only the O(n) curve at m = 1 is evaluated. If theta = 1/4
    fits at m = 1, theta stays there and m is the largest count that fits,
    by doubling and then bisection; otherwise m = 1 and theta is the
    largest that fits. The value returned is the one the search accepted.
    """
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be positive, got n={n}, d={d}")
    certified = {}

    def fits(theta, m, one_trial):
        try:
            certified[theta, m] = certify(scale(one_trial, d * m))
        except OverflowError:  # d * m copies past the float range cannot be charged
            return False
        return certified[theta, m] <= target

    quarter = pbm_exact_curve(n, 1, 0.25, alphas)
    if not fits(0.25, 1, quarter):
        theta = largest_theta(
            lambda t: fits(t, 1, pbm_exact_curve(n, 1, t, alphas)), what
        )
        return theta, 1, certified[theta, 1]
    lo, hi = 1, 2
    while fits(0.25, hi, quarter):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(0.25, mid, quarter):
            lo = mid
        else:
            hi = mid
    return 0.25, lo, certified[0.25, lo]


def select_params(
    n: int, d: int, alpha: float, eps_budget: float
) -> tuple[float, int, float]:
    """Pick (theta, m) with d * m * pbm_exact_rdp(n, 1, theta, alpha) <= eps_budget.

    The left side bounds the exact loss of d coordinates with m trials each
    and is returned third; see _select for the search.
    """
    _check_target("eps_budget", eps_budget)
    return _select(
        n, d, [alpha], lambda curve: float(curve.epsilons[0]), eps_budget,
        f"the budget {eps_budget} at d = {d}",
    )


def select_params_approx_dp(
    n: int, d: int, eps_dp: float, delta: float
) -> tuple[float, int, float]:
    """Pick (theta, m) whose certified (eps, delta) is at most (eps_dp, delta).

    The certificate, returned third, is rdp_to_dp of d * m copies of the
    one-trial exact curve on DEFAULT_ALPHAS; see _select for the search.
    """
    _check_target("eps_dp", eps_dp)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return _select(
        n, d, DEFAULT_ALPHAS, lambda curve: rdp_to_dp(curve, delta), eps_dp,
        f"the target ({eps_dp}, {delta}) at d = {d}",
    )


# ---------------------------------------------------------------------------
# CSV export


def write_curve_csv(curve: RdpCurve, path) -> None:
    """Write alpha, epsilon, kind, params_hash rows under a versioned header."""
    h = curve.params_hash()
    lines = ["# pbm-csv v1 rdp-curve", "alpha,epsilon,kind,params_hash"]
    for a, e in zip(curve.alphas, curve.epsilons):
        lines.append(f"{float(a)!r},{float(e)!r},{curve.kind},{h}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
