"""Simulated secure aggregation over Z_M, one modulus for every coordinate.

Models the server-side view of a secure-aggregation round: clients submit
vectors of residues mod M and the server learns only their coordinate-wise
sum mod M. No cryptography here; the point is the modulus, its cost in
bits, and the modular-clipping variant that shrinks M below the sum's range
at a controlled risk of wraparound. Under the default M > n*m, n counts in
[0, m] never wrap, so the modular sum is the integer sum.
"""

from __future__ import annotations

from math import ceil, floor, sqrt

import numpy as np

# headroom multiplier of the clipped field: sqrt(30) standard deviations
# on each side of the sum's expected range
SAFETY_C = sqrt(30.0)


def bits_per_coord(modulus: int) -> int:
    """Bits to send one residue mod modulus."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return (modulus - 1).bit_length()


def default_modulus(n: int, m: int) -> int:
    """Smallest power of two strictly greater than the max sum n*m."""
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    return 1 << (n * m).bit_length()


def clipped_spec(n: int, m: int, theta: float) -> tuple[int, int]:
    """Reduced modulus sized to the sum's likely range, plus its offset.

    Honest sums concentrate in n*m*(1 +- theta)/2 +- SAFETY_C*sqrt(n*m/4),
    a window of width n*m*theta + SAFETY_C*sqrt(n*m). The modulus covers
    that window and the server lifts each aggregate residue into
    [offset, offset + modulus); sums landing outside the window wrap and
    decode incorrectly. Where that window is at least default_modulus(n, m)
    wide (only for n*m <= 31), the default group (default_modulus(n, m), 0)
    is returned instead: it holds every sum.
    """
    if theta <= 0 or theta > 0.25:
        raise ValueError(f"theta must lie in (0, 1/4], got {theta}")
    nm = n * m
    modulus = ceil(nm * theta + SAFETY_C * sqrt(nm)) + 1
    full = default_modulus(n, m)
    if modulus >= full:
        return full, 0
    offset = floor(nm * (1.0 - theta) / 2.0 - SAFETY_C * sqrt(nm / 4.0))
    return modulus, offset


def lift_sum(residues: np.ndarray, modulus: int, offset: int) -> np.ndarray:
    """Map aggregate residues (any integer representatives) into the window
    [offset, offset + modulus)."""
    return offset + (np.asarray(residues) - offset) % modulus


def count_wraps(true_sums: np.ndarray, modulus: int, offset: int) -> int:
    """Simulator-only check: how many coordinates fell outside the window.

    A real server cannot observe this; the simulator tracks it to validate
    the safety margin.
    """
    s = np.asarray(true_sums)
    return int(np.sum((s < offset) | (s >= offset + modulus)))
