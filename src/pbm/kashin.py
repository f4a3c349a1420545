"""Tight-frame spreading transform.

Maps an L2-bounded vector x in R^d to coefficients y in R^D (D > d) whose
magnitudes are uniformly small, ||y||_inf <= K * ||x||_2 / sqrt(D), while
U @ y reconstructs x exactly. This turns an L2 geometry into the L-infinity
geometry the per-coordinate binomial encoder needs, at the cost of a
constant-factor dimension blowup.

The frame U (shape d x D) is a random tight frame: U @ U.T = I_d. The
spread level K is not known in closed form for this construction, so each
frame certifies its own level empirically at build time and carries it as
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

DEFAULT_REDUNDANCY = 2.0
DEFAULT_ETA = 1.0
DEFAULT_ITERS = 60
DEFAULT_PROBES = 1000
LEVEL_SAFETY = 1.1
RECONSTRUCT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """Coefficient search failed to drive the residual below tolerance."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"representation residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
        self.residual = residual


@dataclass(frozen=True)
class KashinFrame:
    """A certified tight frame.

    u: d x D matrix with u @ u.T = I_d.
    level_k: certified spread level; every vector this frame represents
        satisfies sqrt(D) * ||y||_inf / ||x||_2 <= level_k.
    eta: truncation aggressiveness used by represent_batch().
    """

    u: np.ndarray
    level_k: float
    eta: float = DEFAULT_ETA

    @property
    def d(self) -> int:
        return self.u.shape[0]

    @property
    def big_d(self) -> int:
        return self.u.shape[1]


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal n x n matrix via sign-fixed QR."""
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # without the sign fix, numpy's QR biases the distribution
    return q * np.sign(np.diag(r))


def build_frame(
    d: int,
    redundancy: float = DEFAULT_REDUNDANCY,
    rng: np.random.Generator | None = None,
    eta: float = DEFAULT_ETA,
    iters: int = DEFAULT_ITERS,
    probes: int = DEFAULT_PROBES,
) -> KashinFrame:
    """Build a random tight frame and certify its spread level.

    For integer redundancy the frame is a stack of `redundancy` independent
    Haar-orthogonal bases scaled by 1/sqrt(redundancy). A non-integer
    redundancy would break exact tightness under that scaling, so the frame
    falls back to the first d rows of a Haar-orthogonal D x D matrix, which
    is tight for any D = ceil(redundancy * d).

    The certified level is the max spread over `probes` Gaussian probe
    vectors times a 1.1 safety factor; represent_batch() checks every output
    against it.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if redundancy < 2:
        raise ValueError(f"redundancy must be >= 2, got {redundancy}")
    if rng is None:
        rng = np.random.default_rng()
    big_d = ceil(redundancy * d)
    if abs(redundancy - round(redundancy)) < 1e-9:
        blocks = int(round(redundancy))
        u = np.hstack([_haar_orthogonal(d, rng) for _ in range(blocks)])
        u /= sqrt(blocks)
    else:
        u = _haar_orthogonal(big_d, rng)[:d, :]
    frame = KashinFrame(u=u, level_k=np.inf, eta=eta)
    x = rng.standard_normal((d, probes))
    y = _represent_batch(x, frame, iters)
    with np.errstate(invalid="ignore"):
        spread = sqrt(big_d) * np.abs(y).max(axis=0) / np.linalg.norm(x, axis=0)
    level = float(spread.max()) * LEVEL_SAFETY
    return KashinFrame(u=u, level_k=level, eta=eta)


def _represent_batch(x: np.ndarray, frame: KashinFrame, iters: int) -> np.ndarray:
    """Greedy truncation loop, vectorized over the columns of x (shape d x B)."""
    u = frame.u
    big_d = frame.big_d
    y = np.zeros((big_d, x.shape[1]))
    r = x.copy()
    for _ in range(iters):
        a = u.T @ r
        # cap shrinks with the residual, so the caps sum geometrically
        cap = frame.eta * np.linalg.norm(r, axis=0) / sqrt(big_d)
        np.clip(a, -cap, cap, out=a)
        y += a
        r -= u @ a
    return y


def represent_batch(
    x: np.ndarray,
    frame: KashinFrame,
    iters: int = DEFAULT_ITERS,
    tol: float = RECONSTRUCT_TOL,
) -> np.ndarray:
    """Spread coefficients y (D, batch) with U @ y = x, column by column.

    x has shape (d, batch). Raises ConvergenceError if a residual stalls
    above tol * ||x||_2 and ValueError if a column's spread exceeds the
    frame's certified level.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != frame.d:
        raise ValueError(f"expected shape ({frame.d}, batch), got {x.shape}")
    y = _represent_batch(x, frame, iters)
    norms = np.linalg.norm(x, axis=0)
    live = norms > 0
    residual = np.linalg.norm(frame.u @ y - x, axis=0)
    if np.any(residual[live] > tol * norms[live]):
        worst = float((residual[live] / norms[live]).max())
        raise ConvergenceError(worst, tol)
    caps = frame.level_k * norms / sqrt(frame.big_d)
    if np.any(np.abs(y[:, live]).max(axis=0) > caps[live] * (1.0 + 1e-9)):
        raise ValueError("spread exceeds the certified cap for some column")
    return y


def save_frame(frame: KashinFrame, path) -> None:
    """Serialize the frame matrix plus its certification metadata."""
    np.savez(path, u=frame.u, level_k=frame.level_k, eta=frame.eta)


def load_frame(path) -> KashinFrame:
    with np.load(path) as data:
        return KashinFrame(
            u=data["u"], level_k=float(data["level_k"]), eta=float(data["eta"])
        )
