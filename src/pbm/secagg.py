"""Simulated secure aggregation over (Z_M)^coords.

Models the server-side view of a secure-aggregation round: clients submit
vectors of residues mod M and the server learns only their coordinate-wise
sum mod M. No cryptography here; the point is the finite-group arithmetic,
its communication cost, and the modular-clipping variant that shrinks M
below the worst-case sum range at a controlled risk of wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, sqrt

import numpy as np

# default headroom multiplier for the clipped field, sqrt(30) standard
# deviations on each side of the sum's expected range
DEFAULT_SAFETY = sqrt(30.0)


@dataclass(frozen=True)
class GroupSpec:
    """The aggregation group (Z_modulus)^coords."""

    modulus: int
    coords: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.coords < 1:
            raise ValueError(f"coords must be >= 1, got {self.coords}")

    @property
    def bits_per_coord(self) -> int:
        return (self.modulus - 1).bit_length()


def default_modulus(n: int, m: int) -> int:
    """Smallest power of two strictly greater than the max sum n*m."""
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    return 1 << (n * m).bit_length()


def aggregate(shares: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Coordinate-wise sum mod M of all clients' updates; returns the residues.

    shares has shape (clients, coords); each client's row is reduced into
    the group before it is summed. The per-client inputs are not retained.
    """
    shares = np.asarray(shares, dtype=np.int64)
    if shares.ndim != 2 or shares.shape[0] == 0 or shares.shape[1] != spec.coords:
        raise ValueError(
            f"expected shares of shape (clients, {spec.coords}), got {shares.shape}"
        )
    return (shares % spec.modulus).sum(axis=0) % spec.modulus


def clipped_spec(
    n: int, m: int, theta: float, safety_c: float = DEFAULT_SAFETY, coords: int = 1
) -> tuple[GroupSpec, int]:
    """Reduced-modulus group sized to the sum's likely range, plus its offset.

    Honest sums concentrate in n*m*(1 +- theta)/2 +- safety_c*sqrt(n*m/4),
    a window of width n*m*theta + safety_c*sqrt(n*m). The modulus covers
    that window and the server lifts each aggregate residue into
    [offset, offset + modulus); sums landing outside the window wrap and
    decode incorrectly. Larger safety_c trades bits for wrap probability.
    """
    if theta <= 0 or theta > 0.25:
        raise ValueError(f"theta must lie in (0, 1/4], got {theta}")
    if safety_c < 0:
        raise ValueError(f"safety_c must be nonnegative, got {safety_c}")
    nm = n * m
    modulus = ceil(nm * theta + safety_c * sqrt(nm)) + 1
    offset = floor(nm * (1.0 - theta) / 2.0 - safety_c * sqrt(nm / 4.0))
    return GroupSpec(modulus=modulus, coords=coords), offset


def lift_sum(residues: np.ndarray, spec: GroupSpec, offset: int) -> np.ndarray:
    """Map aggregate residues (any integer representatives) into the window
    [offset, offset + M)."""
    return offset + (np.asarray(residues) - offset) % spec.modulus


def count_wraps(true_sums: np.ndarray, spec: GroupSpec, offset: int) -> int:
    """Simulator-only check: how many coordinates fell outside the window.

    A real server cannot observe this; the simulator tracks it to validate
    the safety margin.
    """
    s = np.asarray(true_sums)
    return int(np.sum((s < offset) | (s >= offset + spec.modulus)))
