"""Vector mechanism: per-coordinate binomial encoding of client vectors.

Each client re-scales every coordinate of its vector to a success
probability and reports Binom(m, p) counts, which secure aggregation sums;
the server decodes an unbiased mean from the sum alone. Two
geometries, selected by whether MechanismParams carries a frame:

* no frame: inputs are L-infinity bounded and c is the per-coordinate
  bound; coordinates are encoded directly.
* a frame: inputs are L2 bounded by c; the shared tight frame spreads
  each vector into coords = D coefficients with per-coordinate bound
  c' = c * level_k / sqrt(D), and the server maps the decoded
  coefficient mean back through the frame, whose columns' squared norms
  sum to d; so either way mse_bound charges d coordinates' error.

Every function works on whole batches: clients are rows. sample_sums is
the one binomial draw; counts lie in [0, m], so under the default modulus
M > n*m its integer sums are the secure-aggregation sums. At every m a
count is m Bernoulli trials. A trial succeeds when its 53-bit uniform k
is below T = ceil(p * 2**53), with probability exactly T / 2**53 (the
compare u < p of a float64 uniform, a multiple of 2**-53), which
coordinate_probs keeps inside the charged [1/2 - theta, 1/2 + theta].
The rule is settled on k's top byte against hi = (max(T, 1) - 1) >> 45
(below succeeds, above fails) unless the two tie, and only then is the
whole k compared with T. So one 64-bit random word serves eight trials,
and only a tie (probability 2**-8) needs the other 45 bits, drawn as one
word per tie after all prefixes, by trial and then entry. A draw takes
one m: Binom(m2, p) is Binom(m1, p) plus an independent Binom(m2 - m1, p),
so sums at several m that share their first trials are the running
totals of increments drawn in turn (as the dme sweep does at each theta).
Successes and ties are counted per (trial, entry), in uint8 up to
m = 255 and uint16 past it, while a draw of at most 1 MB of words is hot
in cache, so ties are located once per count, not once per prefix: a
draw of small slabs (an sgd round's) in one compare per count over the
whole draw, one of large slabs (the dme sweep's) slab by slab, with the
same counts either way. Each (clients, coords) slab of prefixes is padded
to whole words, so chunk boundaries fall on words and chunking leaves the
stream unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, sqrt
from numbers import Integral

import numpy as np

from . import accounting
from .kashin import ConvergenceError, KashinFrame, represent_batch

# cap on the 8-bit prefixes of one draw: its 1 MB of random words stays in
# L2 while the compares read it
_CHUNK_ENTRIES = 1_048_576
# a draw whose slabs hold at most this many (trial, entry) prefixes is
# compared whole, since one call per slab is bound by call overhead there;
# larger slabs are compared one at a time, without a draw-sized bool. On
# the same Xeon the whole compare took 0.09x the per-slab time for 64
# slabs of 1,024 prefixes, 0.74x for 32 of 32,768, 1.06x for 2 of 32,768
# and 1.47x for 2 of 524,288
_WHOLE_DRAW_SLAB = 32_768


@dataclass(frozen=True)
class MechanismParams:
    """Shared client/server configuration for one round.

    n: number of clients, d: input dimension, c: norm bound (L2 with a
    frame, per-coordinate without), theta: encoding strength in (0, 1/4],
    m: binomial trials per coordinate, frame: the shared spreading frame,
    or None for direct encoding. n, d and m are stored as ints >= 1.
    """

    n: int
    d: int
    c: float
    theta: float
    m: int
    frame: KashinFrame | None = None

    def __post_init__(self):
        for name in ("n", "d", "m"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0.0 < self.c < inf:
            raise ValueError(f"c must be finite and positive, got {self.c}")
        if not 0.0 < self.theta <= 0.25:
            raise ValueError(f"theta must lie in (0, 1/4], got {self.theta}")
        if self.frame is not None and self.frame.d != self.d:
            raise ValueError(
                f"frame dimension {self.frame.d} does not match d = {self.d}"
            )

    @property
    def coords(self) -> int:
        """Encoded coordinates per client: D with the frame, d without."""
        return self.frame.big_d if self.frame is not None else self.d

    @property
    def c_prime(self) -> float:
        """Per-coordinate magnitude bound after the optional spreading step."""
        if self.frame is not None:
            return self.c * self.frame.level_k / sqrt(self.frame.big_d)
        return self.c


def clip_rows(x: np.ndarray, c: float) -> np.ndarray:
    """Copy of x (clients, d) with every row of L2 norm above c scaled to c."""
    if not c > 0:
        raise ValueError(f"clip bound must be positive, got {c}")
    x = np.array(x, dtype=float)
    norms = np.linalg.norm(x, axis=1)
    over = norms > c
    x[over] *= (c / norms[over])[:, None]
    return x


def spread(x: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Client vectors (clients, d) as coefficients (clients, coords) bounded by c'.

    With the frame, checks each row's L2 norm against c and spreads all rows
    in one frame call; without, y = x. Every |y| must then lie within c', so
    that coordinate_probs never clamps and the decode stays unbiased: a
    ValueError without the frame, a ConvergenceError with it (a row spread
    past the frame's level). A NaN or an inf fails a check. Depends on
    neither theta nor m, so a sweep over (m, theta) spreads once.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.d:
        raise ValueError(f"expected shape (clients, {params.d}), got {x.shape}")
    # the max propagates a NaN, and a comparison with NaN is False
    y, error = x, ValueError
    if params.frame is not None:
        norm = np.linalg.norm(x, axis=1).max(initial=0.0)
        if not norm <= params.c * (1.0 + 1e-9):
            raise ValueError(f"||x||_2 = {norm} is not within c = {params.c}")
        y, error = represent_batch(x.T, params.frame).T, ConvergenceError
    top = np.abs(y).max(initial=0.0)
    if not top <= params.c_prime * (1.0 + 1e-9):
        raise error(f"max |y| = {top} is not within c' = {params.c_prime}")
    return y


def coordinate_probs(y: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Success probabilities for spread coefficients y (..., coords).

    Re-scales y in [-c', c'] to (theta/c') * y + 1/2, clamped against float
    fuzz to the 2**-53 grid's ends inside [1/2 - theta, 1/2 + theta]: the
    exact (2**52 - k) / 2**53 and (2**52 + k) / 2**53, k = floor(theta *
    2**53) <= 2**51. So T / 2**53, the probability sample_sums draws, lies
    in the range the accountant charges. Clients draw Binom(m, p) from these.
    """
    k = floor(params.theta * 2.0**53)
    p = (params.theta / params.c_prime) * y + 0.5
    return np.clip(p, (2**52 - k) / 2.0**53, (2**52 + k) / 2.0**53)


def _prefix_thresholds(probs: np.ndarray) -> np.ndarray:
    """hi = (max(T, 1) - 1) >> 45 as uint8 for T = ceil(p * 2**53), the
    byte that a trial's top byte is compared with (module docstring).

    Computed as max(ceil(p * 2**8), 1) - 1, which is exact in float64
    (scaling by a power of two is) and needs no uint64 copy of T.
    """
    hi = np.multiply(probs, 2.0**8)
    np.ceil(hi, out=hi)
    np.maximum(hi, 1.0, out=hi)
    hi -= 1.0
    return hi.astype(np.uint8)


def sample_sums(
    probs: np.ndarray, m: int, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Per-trial sums (trials, coords) over the rows of Binom(m, probs).

    probs has shape (clients, coords). Each Binom(m, p) is m Bernoulli
    trials, each the rule k < T of the module docstring. The trials read
    one trial-major stream of 8-bit prefixes, eight to a 64-bit word, in
    (clients, coords) slabs each padded to whole words; after the last
    prefix, one word per tied prefix, by trial, then entry, supplies k's
    low 45 bits from its own top 45. A draw holds at most _CHUNK_ENTRIES
    prefixes (or one slab), and chunking does not change the stream, so the
    words a call takes from rng do not depend on it either. A caller that
    needs sums at several m from shared trials draws the increments between
    them in turn.

    The cost is linear in m. On a 2-core Xeon (numpy 2.4), at the dme
    sweep's (1000, 500) probabilities and 15 trials, a unit of m took
    3.7-3.8 ms up to m = 255 and 4.8 ms past it (uint16 counts); rng.binomial,
    whose law from a float p has no exact statement, was faster only from
    m = 160 there, and from m = 110 at an sgd round's (50, 16) and 1 trial.
    """
    if not isinstance(m, Integral) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    if not isinstance(trials, Integral) or trials < 0:
        raise ValueError(f"trials must be a nonnegative integer, got {trials!r}")
    if np.ndim(probs) != 2:
        raise ValueError(f"probs must be 2-D (clients, coords), got shape {np.shape(probs)}")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1] and not be NaN")
    n, coords = probs.shape
    sums = np.empty((trials, coords), dtype=np.int64)
    # with no clients or no coords every sum is over nothing, and so 0
    slabs = max(1, _CHUNK_ENTRIES // max(n * coords, 1))
    flat = probs.ravel()
    hi = _prefix_thresholds(flat)
    entries = n * coords
    words = -(-entries // 8)  # eight 8-bit prefixes per word, slabs padded
    # a (trial, entry) count is at most m, a sum over clients at most n * m;
    # int32 sums the counts faster
    tally = np.min_scalar_type(m)
    total = np.int32 if n * m < 2**31 else np.int64
    tied = []  # per chunk: first trial, trials, each tie's (trial, entry) index
    # whole trials per draw while m slabs fit, else one trial in slab groups
    chunk = max(1, slabs // max(m, 1))
    for lo in range(0, trials, chunk):
        t = min(chunk, trials - lo)
        # per (trial, entry): prefixes below hi, and prefixes equal to it
        wins = np.zeros((t, entries), dtype=tally)
        ties = np.zeros((t, entries), dtype=tally)
        whole = t * entries <= _WHOLE_DRAW_SLAB
        hit = np.empty((t, entries), dtype=np.bool_)
        for k in range(0, m, slabs):
            size = (t, min(slabs, m - k), words)
            # full 64-bit words with any bit generator (random_raw is not)
            raw = rng.integers(0, 2**64, size=size, dtype=np.uint64)
            # little-endian lanes, so the prefixes do not depend on the platform
            prefix = raw.astype("<u8", copy=False).view(np.uint8)[..., :entries]
            if whole:
                for count, op in ((wins, np.less), (ties, np.equal)):
                    count += op(prefix, hi).view(np.uint8).sum(axis=1, dtype=tally)
            else:
                for j in range(size[1]):
                    np.less(prefix[:, j], hi, out=hit)
                    wins += hit.view(np.uint8)
                    np.equal(prefix[:, j], hi, out=hit)
                    ties += hit.view(np.uint8)
        sums[lo : lo + t] = wins.reshape(t, n, coords).sum(axis=1, dtype=total)
        # pending ties as uint32, half the bytes of intp, where they fit
        kind = np.uint32 if t * entries <= 2**32 else np.intp
        index = np.flatnonzero(ties != 0).astype(kind)
        tied.append((lo, t, np.repeat(index, ties.ravel()[index])))
    # after the last prefix, one word per tie, by trial, then entry
    for lo, t, index in tied:
        if index.size:
            raw = rng.integers(0, 2**64, size=index.size, dtype=np.uint64)
            trial, entry = np.divmod(index, entries)
            # each tie's 53-bit k: its prefix above the word's top 45 bits;
            # T is formed for the tied entries only
            uniform = (hi[entry].astype(np.uint64) << 45) | (raw >> 19)
            big_t = np.multiply(flat[entry], 2.0**53)
            won = uniform < np.ceil(big_t, out=big_t).astype(np.uint64)
            cell = (trial * coords + entry % coords)[won]
            sums[lo : lo + t] += np.bincount(cell, minlength=t * coords).reshape(t, coords)
    return sums


def server_decode(
    agg_sum: np.ndarray,
    params: MechanismParams,
    window: tuple[int, int] | None = None,
) -> np.ndarray:
    """Mean estimates (..., d) from coordinate-wise sums (..., coords) of n shares.

    Inverts the re-scaling, c'/(n*m*theta) * (sum - n*m/2), then maps the
    coefficients back through the frame. Sums must lie in the half-open
    window [lo, hi): by default [0, n*m], the range of a plain aggregate;
    a sum lifted from a reduced-modulus group passes its own window
    [offset, offset + M), which can reach past [0, n*m].
    """
    agg_sum = np.asarray(agg_sum)
    if agg_sum.ndim < 1 or agg_sum.shape[-1] != params.coords:
        raise ValueError(f"expected shape (..., {params.coords}), got {agg_sum.shape}")
    nm = params.n * params.m
    lo, hi = (0, nm + 1) if window is None else window
    if agg_sum.min(initial=lo) < lo or agg_sum.max(initial=lo) >= hi:
        raise ValueError(f"aggregate outside [{lo}, {hi})")
    mu = params.c_prime / (nm * params.theta) * (agg_sum - nm / 2.0)
    if params.frame is not None:
        return mu @ params.frame.u.T
    return mu


def mse_bound(params: MechanismParams) -> float:
    """Worst-case decode MSE in R^d: d * c'^2 / (4*n*m*theta^2).

    Each decoded coefficient is independent with variance at most
    c'^2 / (4*n*m*theta^2). Without a frame there are d of them; with one,
    the error maps back through U, whose columns' squared norms sum to
    trace(U @ U.T) = d.
    """
    return params.d * params.c_prime**2 / (
        4.0 * params.n * params.m * params.theta**2
    )


def rdp_curve(
    params: MechanismParams, alphas=accounting.DEFAULT_ALPHAS
) -> accounting.RdpCurve:
    """Renyi curve of one round: coords independent copies of the exact
    per-coordinate curve; the one place that composition is written."""
    curve = accounting.pbm_exact_curve(params.n, params.m, params.theta, alphas)
    return accounting.scale(curve, params.coords)
