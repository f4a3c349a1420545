"""Vector mechanism: per-coordinate binomial encoding of client vectors.

Each client encodes its vector coordinate-by-coordinate with the scalar
binomial encoder and ships the counts through secure aggregation; the
server decodes an unbiased mean from the aggregate alone. Two geometries:

* use_kashin=False: inputs are L-infinity bounded and c is the
  per-coordinate bound; coordinates are encoded directly.
* use_kashin=True: inputs are L2 bounded by c; a shared tight frame
  spreads each vector into coords = D coefficients with per-coordinate
  bound c' = c * level_k / sqrt(D), and the server maps the decoded
  coefficient mean back through the frame.

Every function works on whole batches: clients are rows, and the binomial
draw Binom(m, coordinate_probs) is left to the caller, which owns the
random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import secagg
from .kashin import KashinFrame, represent_batch


@dataclass(frozen=True)
class MechanismParams:
    """Shared client/server configuration for one round.

    n: number of clients, d: input dimension, c: norm bound (L2 when
    use_kashin, per-coordinate otherwise), theta: encoding strength,
    m: binomial trials per coordinate.
    """

    n: int
    d: int
    c: float
    theta: float
    m: int
    use_kashin: bool = False
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
        if self.use_kashin:
            if self.frame is None:
                raise ValueError("use_kashin=True needs a shared frame")
            if self.frame.d != self.d:
                raise ValueError(
                    f"frame dimension {self.frame.d} does not match d = {self.d}"
                )

    @property
    def coords(self) -> int:
        """Encoded coordinates per client: D with the frame, d without."""
        return self.frame.big_d if self.use_kashin else self.d

    @property
    def c_prime(self) -> float:
        """Per-coordinate magnitude bound after the optional spreading step."""
        if self.use_kashin:
            return self.c * self.frame.level_k / sqrt(self.frame.big_d)
        return self.c


def spread(x: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Client vectors (clients, d) as coefficients (clients, coords) bounded by c'.

    Checks every row against the norm bound (L2 with the frame, L-infinity
    without), then spreads all rows with one frame call. Depends on neither
    theta nor m, so a sweep over (m, theta) spreads once.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.d:
        raise ValueError(f"expected shape (clients, {params.d}), got {x.shape}")
    if params.use_kashin:
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
    if params.use_kashin:
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
    """Uplink bits per client under the default power-of-two group."""
    spec = secagg.GroupSpec(
        modulus=secagg.default_modulus(params.n, params.m), coords=params.coords
    )
    return params.coords * spec.bits_per_coord
