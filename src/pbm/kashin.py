"""Tight-frame spreading transform.

Maps an L2-bounded vector x in R^d to coefficients y in R^D (D = 2d) whose
magnitudes are uniformly small, ||y||_inf <= K * ||x||_2 / sqrt(D), while
U @ y reconstructs x exactly. This turns an L2 geometry into the L-infinity
geometry the per-coordinate binomial encoder needs, at the cost of doubling
the dimension.

The frame U (shape d x D) is a random tight frame: U @ U.T = I_d, two
Haar-orthogonal d x d bases side by side, scaled by 1/sqrt(2). The
spread level K is not known in closed form for this construction, so each
frame certifies its own level empirically at build time and carries it as
metadata.

Coefficients come from the iterative truncation of Lyubarskii and Vershynin
("Uncertainty principles and vector quantization", IEEE Trans. IT 2010):
PASSES clipped passes shrink the residual by about 0.67 each and fix the
spread, then one unclipped step y += U.T @ (x - U @ y) removes what is left
of the residual down to rounding, because U @ U.T = I_d (KashinFrame
checks it when a frame is made, so no call does). That last step moves
each coefficient by at most the residual left after the clipped passes,
about 1e-4 of ||x||_2 after 24. The passes track the residual
through its coefficients in the first basis, which halves their flops (see
_represent_batch). Only the exact step has to be exact, and the passes
only have to spread, so the passes run in float32 on each column scaled by
a power of two and the exact step runs in float64 on x itself: the split
of mixed-precision iterative refinement (Carson and Higham, SIAM J. Sci.
Comput. 2018). A frame certifies its level on Gaussian probes through the
same passes; mechanism.spread checks the coefficient bound c' that it sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from numbers import Integral

import numpy as np

PASSES = 24  # clipped passes before the exact step
PROBES = 1000  # Gaussian vectors that certify a frame's level
LEVEL_SAFETY = 1.1
RECONSTRUCT_TOL = 1e-12  # bound on max |U @ U.T - I_d|


class ConvergenceError(RuntimeError):
    """A frame is not tight, or frame coefficients leave c'."""


@dataclass(frozen=True)
class KashinFrame:
    """A certified tight frame.

    u: d x D matrix with u @ u.T = I_d to RECONSTRUCT_TOL, or ConvergenceError.
    level_k: spread level sqrt(D) * ||y||_inf / ||x||_2 certified on Gaussian
        probes, which other inputs can exceed; it sets mechanism's c'.
    passes: the float32 pass matrices (_pass_matrices), built with the frame.
    """

    u: np.ndarray
    level_k: float
    passes: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gap = float(np.abs(self.u @ self.u.T - np.eye(self.d)).max())
        # written so that a NaN fails: a comparison with NaN is False
        if not gap <= RECONSTRUCT_TOL:
            raise ConvergenceError(f"frame is not tight: max |U U^T - I| = {gap:.3e}")
        object.__setattr__(self, "passes", _pass_matrices(self.u))

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


def build_frame(d: int, rng: np.random.Generator) -> KashinFrame:
    """Build a random tight frame and certify its spread level.

    The frame stacks two independent Haar-orthogonal d x d bases scaled
    by 1/sqrt(2), so U @ U.T = I_d and D = 2d.

    The certified level is the max spread of PROBES Gaussian probes, through
    the same passes and exact step as represent_batch(), times LEVEL_SAFETY.
    """
    if not isinstance(d, Integral) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    big_d = 2 * d
    u = np.hstack([_haar_orthogonal(d, rng) for _ in range(2)])
    u /= sqrt(2)
    x = rng.standard_normal((d, PROBES))
    y = _represent_batch(x, u, *_pass_matrices(u))
    spread = sqrt(big_d) * np.abs(y).max(axis=0) / np.linalg.norm(x, axis=0)
    level = float(spread.max()) * LEVEL_SAFETY
    return KashinFrame(u=u, level_k=level)


def _pass_matrices(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = U1.T @ U2 and 2 V.T, rounded to float32 for the clipped passes."""
    d = u.shape[0]
    v = u[:, :d].T @ u[:, d:]
    return v.astype(np.float32), (2.0 * v.T).astype(np.float32)


def _represent_batch(
    x: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Greedy truncation loop plus one exact step, over the columns of x (d x B).

    The clipped passes run on the residual's coefficients c = U.T @ r rather
    than on r. With U = [U1 U2] = [Q1 Q2] / sqrt(2), c = (c1, 2 V.T @ c1)
    for V = U1.T @ U2, and ||r||^2 = 2 ||c1||^2, so a pass needs only c1:
    it clips c to a, adds a to y, and takes U1.T @ U @ a = a1 / 2 + V @ a2
    from c1, two d x d products where the residual form needs two d x D
    ones. v and w = 2 V.T are float32 (_pass_matrices), and so are c1, a
    and y: each column is first scaled by 2**-e, e the binary exponent of
    its largest |x|, which is exact and keeps the passes and their caps'
    sums of squares inside float32's range at any finite scale. The
    passes' rounding, about 1e-7 of ||x||_2, only moves the spread a
    little. y then goes back to float64, the scale is undone exactly, and
    the final unclipped least-norm correction U.T @ (x - U @ y), in
    float64, closes the residual to float64 rounding, since U @ U.T = I_d.
    """
    d = u.shape[0]
    _, e = np.frexp(np.abs(x).max(axis=0))
    c1 = (u[:, :d].T @ np.ldexp(x, -e)).astype(np.float32)
    a = np.empty((u.shape[1], x.shape[1]), dtype=np.float32)
    a1, a2 = a[:d], a[d:]
    y = np.zeros_like(a)
    for _ in range(PASSES):
        # cap = ||r|| / sqrt(D) shrinks with the residual, so the caps sum
        # geometrically
        cap = np.sqrt((c1 * c1).sum(axis=0) / d)
        a1[...] = c1
        np.matmul(w, c1, out=a2)
        # two ufuncs, not np.clip, whose wrapper costs more than both at the
        # sgd's small batches
        np.minimum(a, cap, out=a)
        np.maximum(a, -cap, out=a)
        y += a
        a1 *= 0.5
        c1 -= a1
        c1 -= v @ a2
    y = np.ldexp(y.astype(np.float64), e)
    y += u.T @ (x - u @ y)
    return y


def represent_batch(x: np.ndarray, frame: KashinFrame) -> np.ndarray:
    """Spread coefficients y (D, batch) with U @ y = x, column by column.

    x has shape (d, batch), at any finite scale. PASSES clipped passes in
    float32 fix the spread, and one exact step in float64 then closes the
    residual to float64 rounding, since every KashinFrame is tight. Raises
    ValueError on a bad shape or a column that is not finite. The spread is
    not checked here: mechanism.spread bounds the coefficients by c'. A
    zero column gives y = 0 exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != frame.d:
        raise ValueError(f"expected shape ({frame.d}, batch), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x has a column that is not finite")
    return _represent_batch(x, frame.u, *frame.passes)
