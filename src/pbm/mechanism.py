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
  coefficient mean back through the frame.

Every function works on whole batches: clients are rows. sample_sums is
the one binomial draw; counts lie in [0, m], so under the default modulus
M > n*m its integer sums are the secure-aggregation sums. It has two exact
kernels, picked by m at the measured crossover m = 32: up to it, each of
the m Bernoulli trials is a uniform compared with p, which is exact to
2**-53 per trial (a float64 uniform is a multiple of 2**-53); above it,
numpy's binomial sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from numbers import Integral

import numpy as np

from . import secagg
from .kashin import KashinFrame, represent_batch

# cap on the entries of one draw (uniforms or binomials), ~8 MB of float64
_CHUNK_ENTRIES = 1_048_576
# largest m drawn as m Bernoulli compares; above it rng.binomial is faster
_COMPARE_MAX_M = 32


@dataclass(frozen=True)
class MechanismParams:
    """Shared client/server configuration for one round.

    n: number of clients, d: input dimension, c: norm bound (L2 with a
    frame, per-coordinate without), theta: encoding strength, m: binomial
    trials per coordinate, frame: the shared spreading frame, or None for
    direct encoding.
    """

    n: int
    d: int
    c: float
    theta: float
    m: int
    frame: KashinFrame | None = None

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be positive, got n={self.n}, d={self.d}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not 0.0 <= self.theta <= 0.25:
            raise ValueError(f"theta must lie in [0, 1/4], got {self.theta}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
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

    Checks every row against the norm bound (L2 with the frame, L-infinity
    without), then spreads all rows with one frame call. Depends on neither
    theta nor m, so a sweep over (m, theta) spreads once.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.d:
        raise ValueError(f"expected shape (clients, {params.d}), got {x.shape}")
    if params.frame is not None:
        norm = np.linalg.norm(x, axis=1).max(initial=0.0)
        if norm > params.c * (1.0 + 1e-9):
            raise ValueError(f"||x||_2 = {norm} exceeds c = {params.c}")
        return represent_batch(x.T, params.frame).T
    top = np.abs(x).max(initial=0.0)
    if top > params.c * (1.0 + 1e-9):
        raise ValueError(f"||x||_inf = {top} exceeds the coordinate bound {params.c}")
    return x


def coordinate_probs(y: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Success probabilities for spread coefficients y (..., coords).

    Re-scales y in [-c', c'] to (theta/c') * y + 1/2, clamped to
    [1/2 - theta, 1/2 + theta] against float fuzz. Each client draws
    Binom(m, p) per coordinate from these.
    """
    p = (params.theta / params.c_prime) * y + 0.5
    return np.clip(p, 0.5 - params.theta, 0.5 + params.theta)


def sample_sums(
    probs: np.ndarray, m: int, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Per-trial sums (trials, coords) over the rows of Binom(m, probs).

    probs has shape (clients, coords). For m <= 32 each Binom(m, p) is m
    compares u < p of float64 uniforms, exact to 2**-53 per trial; the
    uniforms are one trial-major stream of (clients, coords) slabs. Larger
    m uses rng.binomial. Either way a draw holds at most _CHUNK_ENTRIES
    entries (or one slab), and chunking does not change the stream.
    """
    if not isinstance(m, Integral) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1] and not be NaN")
    n, coords = probs.shape
    sums = np.empty((trials, coords), dtype=np.int64)
    slabs = max(1, _CHUNK_ENTRIES // (n * coords))
    if m > _COMPARE_MAX_M:
        for lo in range(0, trials, slabs):
            t = min(slabs, trials - lo)
            sums[lo : lo + t] = rng.binomial(m, probs, size=(t, n, coords)).sum(axis=1)
        return sums
    # whole trials per draw while m slabs fit, else one trial in slab groups
    chunk = max(1, slabs // max(m, 1))
    for lo in range(0, trials, chunk):
        t = min(chunk, trials - lo)
        counts = np.zeros((t, n, coords), dtype=np.uint8)
        for k in range(0, m, slabs):
            below = rng.random((t, min(slabs, m - k), n, coords)) < probs
            counts += np.sum(below, axis=1, dtype=np.uint8)
        sums[lo : lo + t] = counts.sum(axis=1, dtype=np.int64)
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
    if params.theta == 0:
        raise ValueError("theta = 0 encodes no signal; the sum cannot be decoded")
    mu = params.c_prime / (nm * params.theta) * (agg_sum - nm / 2.0)
    if params.frame is not None:
        return mu @ params.frame.u.T
    return mu


def mse_bound(params: MechanismParams) -> float:
    """Worst-case decode MSE: coords * c'^2 / (4*n*m*theta^2).

    With the frame this also bounds the error after mapping back to R^d,
    since the frame map is non-expansive.
    """
    if params.theta == 0:
        raise ValueError("MSE is unbounded at theta = 0")
    return params.coords * params.c_prime**2 / (
        4.0 * params.n * params.m * params.theta**2
    )


def communication_bits(params: MechanismParams) -> int:
    """Uplink bits per client under the default power-of-two modulus."""
    modulus = secagg.default_modulus(params.n, params.m)
    return params.coords * secagg.bits_per_coord(modulus)
