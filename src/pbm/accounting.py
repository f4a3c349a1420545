"""Renyi privacy accounting for the binomial mean estimator.

The per-round privacy loss of the mechanism is a Renyi divergence between
two convolutions of binomials whose success probabilities sit at the ends
of the re-scaling range [1/2 - theta, 1/2 + theta]. E_Q[(P/Q)^alpha] is
jointly convex and each client's probability enters P and Q affinely, so
the worst case over all inputs is at an extreme assignment: k of the
n - 1 unchanged clients at 1/2 - theta, the rest at 1/2 + theta, with both
orderings of the pair. Mirror symmetry maps k to n - 1 - k. That the
endpoint k = 0 is the worst of them is checked by computation only, by a
test's search over every k, in log space, at orders up to 16: n in
{5, 12, 40} with m in {1, 2, 8}, and (n, m) in {(100, 1), (100, 4),
(100, 8), (300, 1), (300, 3)}, each at theta in {0.01, 0.1, 1/4}, and
(100, 16, 1/4), (50, 64, 1/4) and (12, 400, 1/4). At the endpoint the
likelihood ratio is a hypergeometric mean, O(m) per outcome, whose terms
float64 holds up to m = 400. A curve runs only on
the outcomes of Q's Hoeffding window, O(sqrt(n*m * (100 + m*alpha*log(rho))))
of the n*m + 1, and adds a bound on the part of each sum outside it, so
epsilon stays an upper bound; it costs O(window * m) time and O(window)
memory, and a cost guard refuses, before it starts, a curve over its
budget of cells or bytes. Within the window, log P is convolved only on the
far tail where P/Q <= 1/2 (none at small theta), and each order's
divergence is a pairwise sum over the columns where Q does not underflow.
No sum goes through BLAS, so a curve's bytes do not depend on its thread
count. Past m = 400 trials the curve is not computed exactly but bounded:
m trials are composed as blocks of 400 and one of the rest, each an
exact curve, and labelled as such; the cost guard prices the block.

log-pmfs are plain float arrays indexed by outcome; a valid log-pmf has
logsumexp == 0. convolve_logpmf takes any log-pmf, -inf for zero mass
included; binomial_logpmf only trials >= 1 and 0 < p < 1, as the pair's
p = 1/2 -+ theta at 0 < theta <= 1/4 (n = 1 builds no P). It is Loader's
saddle-point form: Stirling's error terms plus a log1p deviance, none of
which grows like log(N!), so it stays within a few ulp of the value
instead of an ulp of N log N. The exact curve sums its divergence on the
log-likelihood ratio with log1p/expm1, which keeps its relative precision
as epsilon shrinks; where the tilt nears overflow it uses a numpy
logsumexp in scipy's form, so the module needs numpy alone.

Also here: the Gaussian baseline, composition of identical copies,
conversion to (eps, delta), and parameter selection for a target budget.
Selection charges m trials as m composed copies of the one-trial exact
curve, so every (theta, m) it returns meets its budget on that
certificate, and no budget reaches the O(window * m) curve at large m.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import atanh, ceil, exp, expm1, floor, inf, isfinite, log, pi, sqrt
from numbers import Integral
from typing import Callable, Iterable, Sequence

import numpy as np

# default Renyi orders for curves and ledgers
DEFAULT_ALPHAS = (1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0)


class InfeasibleBudget(ValueError):
    """The requested privacy budget cannot be met by any (theta, m)."""


# ---------------------------------------------------------------------------
# log-pmf primitives


# Stirling's error s(k) = log(k!) - (k + 1/2) log(k) + k - log(2 pi)/2 at
# k = 1..15, from 50-digit mpmath; past 15 the five-term series is off by
# less than 1.1e-16, the size of its first dropped term at k = 16
_STIRLING_TABLE = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirling_error(k: np.ndarray) -> np.ndarray:
    """s(k) on consecutive integers k = k0, k0 + 1, ..., k0 >= 1, as floats."""
    inv = np.square(k)
    np.divide(1.0, inv, out=inv)
    s = inv * (1 / 1188)
    for c in (1 / 1680, 1 / 1260, 1 / 360):
        np.subtract(c, s, out=s)
        s *= inv
    np.subtract(1 / 12, s, out=s)
    s /= k
    table = _STIRLING_TABLE[int(k[0]) - 1 :][: len(k)]
    s[: len(table)] = table
    return s


def binomial_logpmf(
    trials: int, p: float, first: int = 0, last: int | None = None
) -> np.ndarray:
    """log-pmf of Binom(trials, p) on {first, ..., last} (default the support).

    The saddle-point form of Loader (2000): with s the Stirling error,
    log pmf(k) = s(N) - s(k) - s(N-k) - D(k) + log(N / (2 pi k (N-k))) / 2,
    D(k) = k log1p((k - Np)/Np) + (N-k) log1p((Np - k)/Nq). No term grows
    like log(N!), so the error stays near rounding of D; k = 0 and k = N
    are N log q and N log p. Each entry is the same float operations
    whatever the range, so a range is a slice of the whole support.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    last = trials if last is None else last
    if not 0 <= first <= last <= trials:
        raise ValueError(f"need 0 <= first <= last <= {trials}, got {first}, {last}")
    out = np.empty(last - first + 1)
    if first == 0:
        out[0] = trials * np.log1p(-p)
    if last == trials:
        out[-1] = trials * log(p)
    k0, k1 = max(first, 1), min(last, trials - 1)
    if k0 <= k1:
        # k = k0..k1, where D(k) is summed in place, and N - k reversed
        n_p, n_q = trials * p, trials * (1.0 - p)
        k = np.arange(k0, k1 + 1, dtype=float)
        rev = np.arange(trials - k1, trials - k0 + 1, dtype=float)
        dev = out[k0 - first : k1 - first + 1]
        np.subtract(k, n_p, out=dev)
        buf = dev / n_p
        np.log1p(buf, out=buf)
        buf *= k
        dev /= -n_q
        np.log1p(dev, out=dev)
        dev *= rev[::-1]
        dev += buf
        # g(k) = s(k) + log(k)/2, once for k and once for N - k
        np.log(k, out=buf)
        buf *= 0.5
        buf += _stirling_error(k)
        dev += buf
        g = _stirling_error(rev)
        g += 0.5 * np.log(rev)
        dev += g[::-1]
        s_n = _stirling_error(np.array([float(trials)]))[0]
        np.subtract(s_n + 0.5 * log(trials / (2.0 * pi)), dev, out=dev)
    return out


def convolve_logpmf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact log-pmf of the sum of two independent integer variables."""
    if len(b) > len(a):
        a, b = b, a
    out = np.full(len(a) + len(b) - 1, -np.inf)
    la = len(a)
    for j in range(len(b)):
        np.logaddexp(out[j : j + la], a + b[j], out=out[j : j + la])
    return out


# ---------------------------------------------------------------------------
# exact curve at the endpoint pair


def _orders(alphas: Iterable[float]) -> np.ndarray:
    """The orders of a curve, sorted; at least one, each finite, above 1 and
    distinct, checked before any curve runs."""
    orders = sorted(alphas)
    a = np.asarray(orders, dtype=float)
    if not (a.size and np.all(np.isfinite(a) & (a > 1.0)) and len(set(orders)) == a.size):
        raise ValueError(
            f"orders must be nonempty, distinct, finite and exceed 1, got {a.tolist()}"
        )
    return a


# largest m for the hypergeometric sums of _endpoint_delta: their terms stay
# below about 5.4^m, which float64 holds up to m = 400; a curve past it
# composes blocks of this many trials
_HYPERGEOM_MAX_M = 400

# expm1 overflows past 709; where the tilt |b * log(p/q)| reaches this,
# the divergence is summed with logsumexp instead
_EXPM1_LIMIT = 700.0

# the Hoeffding window is wide enough that the bound added for the outcomes
# outside it is at most exp(-_WINDOW_LOG_TAIL) at every order
_WINDOW_LOG_TAIL = 100.0

# the cost guard: window columns * (m + 1) recurrence or convolution cells
# (about 6.7 s at (10^5, 400, 1/4), 6.0e8 cells, on a 2-core x86_64 host;
# past m = 400, the cells of one block of 400 trials),
# and the bytes of the float64 work arrays, twelve per column (58-73 bytes
# a column measured)
_MAX_CELLS = 10**9
_MAX_BYTES = 2 * 10**9
_COLUMN_BYTES = 96


def _window(n: int, m: int, theta: float, b_max: float) -> tuple[int, int, float]:
    """Columns [first, last] that carry Q, and log of Q's mass outside them.

    Q = Binom(N, p) with N = n*m, p = 1/2 + theta; the window is
    [N*p - t, N*p + t] within [0, N], with
    t = sqrt(N/2 * (E + m*b_max*log(rho) + log 2)), E = _WINDOW_LOG_TAIL.
    By Hoeffding (1963) Q's mass outside is at most 2*exp(-2*t^2/N), which
    is exp(-E - m*b_max*log(rho)); P/Q <= rho^m, so the outside part of
    E_Q[(P/Q)^b] is at most exp(-E) at |b| <= b_max. The log mass is -inf
    where the window is the whole support.
    """
    big_n = n * m
    log_rho = 2.0 * atanh(2.0 * theta)
    log_out = -(_WINDOW_LOG_TAIL + m * b_max * log_rho)
    t = sqrt(big_n / 2.0 * (log(2.0) - log_out))
    centre = big_n * (0.5 + theta)
    first, last = max(floor(centre - t), 0), min(ceil(centre + t), big_n)
    if first == 0 and last == big_n:
        log_out = -inf
    return first, last, log_out


def _check_cost(where: str, m: int, columns: int) -> None:
    """Raise ValueError if a curve of m trials on `columns` window columns
    is over budget; `where` names the curve asked for."""
    cells, size = columns * (m + 1), columns * _COLUMN_BYTES
    if cells > _MAX_CELLS or size > _MAX_BYTES:
        raise ValueError(
            f"the exact curve at {where} needs {columns:,} outcomes x "
            f"({m} + 1) = {cells:.3g} cells and about {size / 1e9:.3g} GB; "
            f"the budget is {_MAX_CELLS:.0e} cells and {_MAX_BYTES / 1e9:g} GB"
        )


def _endpoint_delta(n: int, m: int, log_rho: float, first: int, last: int) -> np.ndarray:
    """P/Q - 1 on columns {first, ..., last} for the endpoint pair, for n >= 2.

    Given the total j under Q, the differing client's count I is
    Hypergeom(n*m, m, j), so P/Q(j) - 1 = E[expm1((m - 2I) * log(rho))]
    with rho = (1/2 + theta)/(1/2 - theta), which keeps its precision at
    small theta. The weights of I come from the product-of-ratios
    recurrence in i, normalised per j; a column j above n*m/2 runs it at
    its mirror n*m - j with I -> m - I. One pass over the window's
    columns, O(window * m) time.
    """
    big_n = n * m
    # the window's columns up to n*m/2 come first, then those read at their mirror
    split = min(max(big_n // 2 + 1 - first, 0), last - first + 1)
    low, high = slice(None, split), slice(split, None)
    # j - i and n*m - m + 1 + i - j at step i, j the column or its mirror,
    # kept in place; exact integers
    num = np.arange(first, last + 1, dtype=float)
    np.minimum(num, big_n - num, out=num)
    den = (big_n - m + 1) - num
    w, step = np.ones(len(num)), np.empty(len(num))
    # weight totals, and expm1 sums of rho^(m-2i) (low columns) or of
    # rho^(2i-m) (high columns, read at their mirror)
    total, delta = np.zeros(len(num)), np.zeros(len(num))
    for i in range(m + 1):
        x = (m - 2 * i) * log_rho
        total += w
        for cols, e in ((low, expm1(x)), (high, expm1(-x))):
            np.multiply(w[cols], e, out=step[cols])
        delta += step
        if i < m:
            np.multiply(num, (m - i) / (i + 1), out=step)
            step /= den
            w *= step
            num -= 1.0
            den += 1.0
    return np.divide(delta, total, out=delta)


def _log_p(n: int, m: int, theta: float, start: int, stop: int) -> np.ndarray:
    """log P on columns [start, stop) of the far tail, convolved in log space.

    P is Binom(m, 1/2 - theta) * Binom(m*(n-1), 1/2 + theta); the columns
    read the second log-pmf on [start - m, stop) only, and convolve_logpmf
    adds each column's terms with logaddexp, O((stop - start) * m) time.
    """
    rest = m * (n - 1)
    first, last = max(start - m, 0), min(stop, rest + 1)
    logp = convolve_logpmf(
        binomial_logpmf(m, 0.5 - theta), binomial_logpmf(rest, 0.5 + theta, first, last - 1)
    )
    return logp[start - first : stop - first]


def _endpoint_llr(
    n: int, m: int, theta: float, first: int, last: int, logq: np.ndarray
) -> np.ndarray:
    """log(P/Q) on columns {first, ..., last} for the endpoint pair.

    logq is the log-pmf of Q there. log1p(P/Q - 1) from _endpoint_delta is
    precise where P/Q > 1/2. Where P/Q <= 1/2, log P - log Q is precise
    instead, so log P is convolved (_log_p) for those columns alone, on
    the window that spans them. P/Q is at least rho^-m, so where
    rho^m < 2 (small theta or small m) no column qualifies and nothing is
    convolved. m is at most _HYPERGEOM_MAX_M.
    """
    log_rho = 2.0 * atanh(2.0 * theta)
    if n == 1:
        return (m - 2.0 * np.arange(first, last + 1)) * log_rho
    delta = _endpoint_delta(n, m, log_rho, first, last)
    far = np.flatnonzero(~(delta > -0.5))
    llr = np.log1p(np.maximum(delta, -0.5, out=delta), out=delta)
    if len(far):
        start, stop = far[0], far[-1] + 1
        logp = _log_p(n, m, theta, first + start, first + stop)
        llr[far] = logp[far - start] - logq[far]
    return llr


def _log_mean_exp(
    q: np.ndarray, llr: np.ndarray, b: float, log_out: float, tilt: float
) -> float:
    """log E_Q[exp(b * llr)] as log1p of sum q * expm1(b * llr).

    q and llr are given on the k columns where q > 0. numpy's pairwise sum
    adds the k products in one order whatever the BLAS thread count, with
    an error of O(log k) roundings of sum |q * expm1(b * llr)| (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2).
    Outside the window, Q's mass is at most exp(log_out) (-inf: none) and
    |b * llr| at most tilt, so their part of the sum is at most
    exp(log_out) * expm1(tilt), added before the log.
    """
    e = b * llr
    np.expm1(e, out=e)
    e *= q
    s = e.sum()
    if log_out > -inf:
        # expm1(tilt) * exp(log_out), without overflow or underflow first
        s += -expm1(-tilt) * exp(log_out + tilt)
    return float(np.log1p(s))


def _logsumexp(a: np.ndarray, extra: float = -inf) -> float:
    """log(sum(exp(a))) in scipy's form: the maxima are summed apart from
    the rest, as log1p(rest / count) + log(count) + max. A finite `extra`
    is one more term, appended to a."""
    if extra > -inf:
        a = np.append(a, extra)
    a_max = a.max()
    at_max = a == a_max
    count = np.count_nonzero(at_max)
    rest = np.exp(np.where(at_max, -np.inf, a) - a_max).sum() / count
    return float(np.log1p(rest) + log(count) + a_max)


def _endpoint_epsilons(
    n: int, m: int, theta: float, alphas: np.ndarray, asked: int
) -> np.ndarray:
    """The exact endpoint curve at m <= _HYPERGEOM_MAX_M trials, 0 < theta.

    Every stage runs on the columns [first, last] of _window, where Q
    keeps all but Q_out <= exp(-100 - m*b_max*log(rho)) of its mass, with
    b_max the largest order. P/Q lies in [rho^-m, rho^m], so the columns
    outside add at most Q_out * expm1(m*|b|*log(rho)) to the expm1 sum,
    and that is added before the log (log Q_out + m*|b|*log(rho) as one
    more logsumexp term near overflow). Where the window is the whole
    support nothing is added, and the curve is the untruncated one bit
    for bit. Time O(window * m): the hypergeometric mean of
    _endpoint_delta on the window's columns; its log-space convolution
    runs only on the far tail where P/Q <= 1/2, and each order's expm1
    sum, numpy's pairwise sum, only where q > 0 (the logsumexp near
    overflow on every column, where an underflowed q can still carry
    weight). Memory O(window). `asked` is the m of the curve this one is
    a block of, which the errors name.
    """
    where = f"n={n}, m={asked}" + ("" if m == asked else f" (its {m}-trial block)")
    first, last, log_out = _window(n, m, theta, alphas[-1])
    _check_cost(where, m, last - first + 1)
    logq = binomial_logpmf(n * m, 0.5 + theta, first, last)
    llr = _endpoint_llr(n, m, theta, first, last, logq)
    q = np.exp(logq)
    support = np.flatnonzero(q)
    live = slice(support[0], support[-1] + 1)
    q_live, llr_live = q[live], llr[live]
    llr_max = np.max(np.abs(llr))
    rho_m = m * 2.0 * atanh(2.0 * theta)
    eps = np.empty(len(alphas))
    # rounding is monotone, so |b| * llr_max is max|b * llr|
    for i, alpha in enumerate(alphas):
        d = max(
            _log_mean_exp(q_live, llr_live, b, log_out, abs(b) * rho_m)
            if abs(b) * llr_max < _EXPM1_LIMIT
            else _logsumexp(logq + b * llr, log_out + abs(b) * rho_m)
            for b in (alpha, 1.0 - alpha)
        )
        if not d > 0.0:
            raise FloatingPointError(
                f"the exact curve at {where}, theta={theta!r} rounds to "
                f"{d!r} at order {alpha:g}, which bounds nothing"
            )
        eps[i] = d / (alpha - 1.0)
    return eps


def pbm_exact_curve(
    n: int,
    m: int,
    theta: float,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> "RdpCurve":
    """Per-coordinate Renyi curve of the endpoint pair, both orders: exact
    up to m = _HYPERGEOM_MAX_M trials, a certified block bound past it.

    Q = Binom(n*m, 1/2 + theta): every client at the top of the range.
    P = Binom(m, 1/2 - theta) * Binom(m*(n-1), 1/2 + theta): the differing
    client at the bottom. Mirror symmetry (j -> n*m - j) covers the pair
    with every client at the bottom. The curve is the larger of
    D_alpha(P || Q) and D_alpha(Q || P), each computed as
    log1p(sum q * expm1(b * log(p/q))) / (alpha - 1) with b = alpha and
    b = 1 - alpha, on Q's Hoeffding window (_endpoint_epsilons).

    Past _HYPERGEOM_MAX_M = 400, split m = 400*k + r. Each block's sum
    over clients is a release of the mechanism with 400 (or r) trials,
    the blocks are independent given the inputs and the aggregate is
    their sum, so RDP composition (Mironov, CSF 2017) gives
    eps(n, m) <= k * eps(n, 400) + eps(n, r) at every order, for the same
    worst case over inputs. That curve is `kind` "blocks", with the block
    size in `meta`. Raises ValueError, before any of it runs, if the
    window of a block (of m itself, up to 400) is over the budget of
    _check_cost, and FloatingPointError if at theta > 0 an order's
    divergence rounds to 0 or below, which bounds nothing.
    """
    if not (isinstance(n, Integral) and isinstance(m, Integral) and n >= 1 and m >= 1):
        raise ValueError(f"n and m must be positive integers, got n={n!r}, m={m!r}")
    if not 0.0 <= theta <= 0.25:
        raise ValueError(f"theta must lie in [0, 1/4], got {theta}")
    n, m = int(n), int(m)  # so that n*m never wraps and meta serialises
    alphas = _orders(alphas)
    block = min(m, _HYPERGEOM_MAX_M)
    eps = np.zeros(len(alphas))
    if theta > 0.0:
        copies, rest = divmod(m, block)
        eps = copies * _endpoint_epsilons(n, block, theta, alphas, m)
        if rest:
            eps += _endpoint_epsilons(n, rest, theta, alphas, m)
    meta = {"mechanism": "pbm-exact", "n": n, "m": m, "theta": theta}
    if block == m:
        return RdpCurve(alphas=alphas, epsilons=eps, kind="exact", meta=meta)
    meta["block"] = block
    return RdpCurve(alphas=alphas, epsilons=eps, kind="blocks", meta=meta)


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
    if not isinstance(times, Integral) or times < 1:
        raise ValueError(f"times must be a positive integer, got {times!r}")
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

    Returns 1/4 if it fits; otherwise bisects [0, 1/4] until its width is
    below 1e-10 (32 halvings) and returns the end that fits. A theta whose
    curve rounds to 0 (FloatingPointError) does not fit.
    Raises InfeasibleBudget if no theta > 0 was found to fit; `what` names
    the budget in the message.
    """

    def fits_at(theta):
        try:
            return fits(theta)
        except FloatingPointError:
            return False

    if fits_at(0.25):
        return 0.25
    lo, hi = 0.0, 0.25
    while hi - lo >= 1e-10:
        mid = 0.5 * (lo + hi)
        if fits_at(mid):
            lo = mid
        else:
            hi = mid
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
    order, and only the O(n) curve at m = 1 is evaluated, once per theta.
    theta is the largest that fits at m = 1; if that is 1/4, m is the
    largest count that fits there, by doubling and then bisection. The
    value returned is the one the search accepted.
    """
    if not (isinstance(n, Integral) and isinstance(d, Integral) and n >= 1 and d >= 1):
        raise ValueError(f"n and d must be positive integers, got n={n!r}, d={d!r}")
    n, d = int(n), int(d)  # so that d*m never wraps
    curves, certified = {}, {}

    def fits(theta, m=1):
        if theta not in curves:
            curves[theta] = pbm_exact_curve(n, 1, theta, alphas)
        try:
            certified[theta, m] = certify(scale(curves[theta], d * m))
        except OverflowError:  # d * m copies past the float range cannot be charged
            return False
        return certified[theta, m] <= target

    theta = largest_theta(fits, what)
    if theta < 0.25:
        return theta, 1, certified[theta, 1]
    lo, hi = 1, 2
    while fits(0.25, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(0.25, mid):
            lo = mid
        else:
            hi = mid
    return 0.25, lo, certified[0.25, lo]


def select_params(
    n: int, d: int, alpha: float, eps_budget: float
) -> tuple[float, int, float]:
    """Pick (theta, m) with d * m * eps(n, 1, theta) <= eps_budget at order alpha.

    eps is the one-trial pbm_exact_curve. The left side bounds the exact
    loss of d coordinates with m trials each and is returned third; see
    _select for the search. d counts encoded coordinates: a framed
    (use_kashin) run of input dimension d encodes D = 2d and passes that.
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
    one-trial exact curve on DEFAULT_ALPHAS, d counted as in select_params;
    see _select for the search.
    """
    _check_target("eps_dp", eps_dp)
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
