"""Distributed mean estimation benchmark.

Sweeps (m, theta) points for a fixed client population, measures empirical
MSE of the decoded mean under simulated secure aggregation, prices the
uplink in bits, and attaches the privacy epsilon of each point (exact
accountant or closed-form bound) plus a matched Gaussian baseline at equal
MSE. Records land in a versioned CSV and an optional plotting-friendly
JSON series file.

Trials are vectorized per parameter point and seeded per point, so results
are byte-reproducible for a fixed seed regardless of the parallelism
degree.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import sqrt
from typing import Sequence

import numpy as np

from . import accounting, secagg
from .kashin import build_frame
from .mechanism import (
    MechanismParams,
    communication_bits,
    coordinate_probs,
    mse_bound,
    server_decode,
    spread,
)

# cap on simultaneous binomial draws (entries), keeps peak memory ~128 MB
_CHUNK_ENTRIES = 16_777_216


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: population, geometry, sweep grid, accounting mode."""

    n: int = 50
    d: int = 16
    c: float = 1.0                    # L2 bound on client vectors
    cinf: float | None = None         # per-coordinate bound; default c/sqrt(d)
    m_list: tuple[int, ...] = (2, 4, 6, 16)
    theta_list: tuple[float, ...] | None = (0.05, 0.1, 0.15, 0.2, 0.25)
    eps_list: tuple[float, ...] | None = None
    alpha: float = 2.0
    trials: int = 200
    seed: int = 1234
    use_kashin: bool = False
    redundancy: float = 2.0
    accountant: str = "exact"         # exact | bound
    k_mode: str = "reduced"           # reduced | all
    clipping: bool = False
    safety_c: float = secagg.DEFAULT_SAFETY
    threads: int = 1

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.trials < 1:
            raise ValueError("n, d, trials must all be positive")
        if (self.theta_list is None) == (self.eps_list is None):
            raise ValueError("exactly one of theta_list / eps_list must be set")
        if self.accountant not in ("exact", "bound"):
            raise ValueError(f"unknown accountant {self.accountant!r}")
        if self.k_mode not in ("reduced", "all"):
            raise ValueError(f"unknown k_mode {self.k_mode!r}")
        if self.cinf is None:
            object.__setattr__(self, "cinf", self.c / sqrt(self.d))


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row; field order is the CSV column order."""

    m: int
    theta: float
    alpha: float
    epsilon: float
    mse: float
    comm_bits: int
    wraps: int
    mechanism: str                    # pbm | gaussian
    mode: str                         # plain | clipped

    def row(self) -> str:
        return (
            f"{self.m},{self.theta!r},{self.alpha!r},{self.epsilon!r},"
            f"{self.mse!r},{self.comm_bits},{self.wraps},{self.mechanism},{self.mode}"
        )


CSV_HEADER = "# pbm-csv v1 dme\nm,theta,alpha,epsilon,mse,comm_bits,wraps,mechanism,mode"


def generate_clients(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """n client vectors, i.i.d. uniform on the cinf cube, then L2-clipped to c."""
    x = rng.uniform(-config.cinf, config.cinf, size=(config.n, config.d))
    norms = np.linalg.norm(x, axis=1)
    over = norms > config.c
    if np.any(over):
        x[over] *= (config.c / norms[over])[:, None]
    return x


def _per_coord_eps(config: ExperimentConfig, m: int, theta: float) -> float:
    if theta == 0.0:
        return 0.0
    if config.accountant == "bound":
        return accounting.pbm_asymptotic_rdp(config.n, m, theta, config.alpha)
    k_set = accounting.ALL_K if config.k_mode == "all" else None
    return accounting.pbm_exact_rdp(config.n, m, theta, config.alpha, k_set)


def _resolve_points(config: ExperimentConfig, coords: int) -> list[tuple[int, float]]:
    """The (m, theta) sweep; eps_list entries are inverted per m by bisection."""
    if config.theta_list is not None:
        return [(m, th) for m in config.m_list for th in config.theta_list]
    points = []
    for m in config.m_list:
        for eps_target in config.eps_list:
            points.append((m, _invert_eps(config, coords, m, eps_target)))
    return points


def _invert_eps(
    config: ExperimentConfig, coords: int, m: int, eps_target: float
) -> float:
    """Largest theta <= 1/4 whose total epsilon stays within eps_target."""
    if eps_target <= 0:
        raise ValueError(f"epsilon targets must be positive, got {eps_target}")
    def total(theta):
        return coords * _per_coord_eps(config, m, theta)
    if total(0.25) <= eps_target:
        return 0.25
    lo, hi = 0.0, 0.25
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if total(mid) <= eps_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    if lo == 0.0:
        raise accounting.InfeasibleBudget(
            f"no theta > 0 meets the epsilon target {eps_target} at m = {m}"
        )
    return lo


def _point_records(
    config: ExperimentConfig,
    y: np.ndarray,
    mu_true: np.ndarray,
    params: MechanismParams,
    seed: np.random.SeedSequence,
) -> list[TrialRecord]:
    """All records for one (m, theta) point: pbm plain, optional clipped, gaussian.

    y holds the spread client coefficients (n, coords); every trial draws
    all n clients' shares at once.
    """
    n, coords = y.shape
    m, theta = params.m, params.theta
    rng = np.random.default_rng(seed)
    probs = coordinate_probs(y, params)
    sums = np.empty((config.trials, coords), dtype=np.int64)
    chunk = max(1, _CHUNK_ENTRIES // (n * coords))
    done = 0
    while done < config.trials:
        t = min(chunk, config.trials - done)
        draws = rng.binomial(m, probs[None, :, :], size=(t, n, coords))
        sums[done : done + t] = draws.sum(axis=1, dtype=np.int64)
        done += t

    def decode_mse(agg: np.ndarray, window: tuple[int, int] | None = None) -> float:
        err = server_decode(agg, params, window) - mu_true[None, :]
        return float(np.mean(np.sum(err * err, axis=1)))

    eps_total = coords * _per_coord_eps(config, m, theta)
    records = [
        TrialRecord(
            m=m, theta=theta, alpha=config.alpha, epsilon=eps_total,
            mse=decode_mse(sums), comm_bits=communication_bits(params), wraps=0,
            mechanism="pbm", mode="plain",
        )
    ]
    if config.clipping:
        spec, offset = secagg.clipped_spec(n, m, theta, config.safety_c, coords)
        lifted = secagg.lift_sum(sums, spec, offset)
        records.append(
            TrialRecord(
                m=m, theta=theta, alpha=config.alpha, epsilon=eps_total,
                mse=decode_mse(lifted, (offset, offset + spec.modulus)),
                comm_bits=coords * spec.bits_per_coord,
                wraps=secagg.count_wraps(sums, spec, offset),
                mechanism="pbm", mode="clipped",
            )
        )
    # Gaussian baseline matched to this point's MSE bound
    sigma = sqrt(mse_bound(params) / config.d)
    records.append(
        TrialRecord(
            m=m, theta=theta, alpha=config.alpha,
            epsilon=accounting.gaussian_rdp(config.c, n, sigma, config.alpha),
            mse=accounting.gaussian_mse(config.d, sigma),
            comm_bits=0, wraps=0, mechanism="gaussian", mode="plain",
        )
    )
    return records


def _point_task(args) -> list[TrialRecord]:
    return _point_records(*args)


def run_tradeoff(config: ExperimentConfig) -> list[TrialRecord]:
    """Run the sweep; deterministic for a fixed seed at any thread count."""
    root = np.random.SeedSequence(config.seed)
    client_seed, frame_seed, point_root = root.spawn(3)
    clients = generate_clients(config, np.random.default_rng(client_seed))
    mu_true = clients.mean(axis=0)
    frame = (
        build_frame(config.d, config.redundancy, np.random.default_rng(frame_seed))
        if config.use_kashin else None
    )
    # theta and m are set per sweep point; the spread depends on neither
    base = MechanismParams(
        n=config.n, d=config.d, c=config.c if config.use_kashin else config.cinf,
        theta=0.0, m=1, use_kashin=config.use_kashin, frame=frame,
    )
    y = spread(clients, base)
    points = _resolve_points(config, base.coords)
    seeds = point_root.spawn(len(points))
    tasks = [
        (config, y, mu_true, replace(base, theta=theta, m=m), seed)
        for (m, theta), seed in zip(points, seeds)
    ]
    if config.threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(config.threads, len(tasks))) as pool:
            per_point = list(pool.map(_point_task, tasks))
    else:
        per_point = [_point_task(t) for t in tasks]
    return [rec for recs in per_point for rec in recs]


def write_records_csv(records: Sequence[TrialRecord], path) -> None:
    lines = [CSV_HEADER] + [r.row() for r in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_series_json(records: Sequence[TrialRecord], path) -> None:
    """Group records into per-curve series keyed by (mechanism, m, mode)."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.mechanism, r.m, r.mode), []).append(r)
    series = []
    for (mechanism, m, mode) in sorted(groups):
        recs = sorted(groups[(mechanism, m, mode)], key=lambda r: r.mse)
        series.append(
            {
                "mechanism": mechanism, "m": m, "mode": mode,
                "theta": [r.theta for r in recs],
                "mse": [r.mse for r in recs],
                "epsilon": [r.epsilon for r in recs],
            }
        )
    payload = {"schema": "pbm-json v1 dme-series", "series": series}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
