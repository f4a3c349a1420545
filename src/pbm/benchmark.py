"""Distributed mean estimation benchmark.

Sweeps (m, theta) points for a fixed client population, measures empirical
MSE of the decoded mean under simulated secure aggregation, prices the
uplink in bits of each row's modulus, and attaches the privacy epsilon of
each point (the exact accountant) plus a matched Gaussian baseline at
equal MSE. Records land in a versioned CSV and an optional
plotting-friendly JSON series file.

Trials are vectorized per theta and seeded per theta. At one theta the
sweep draws the increments between consecutive m in turn from one
generator, and the point at m sums the increments up to it: it reads the
first m of the largest m's trials. So the rows at one theta are
correlated, but each keeps its own law. Results are byte-reproducible
for a fixed seed regardless of the parallelism degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import inf, sqrt
from numbers import Integral
from typing import Sequence

import numpy as np

from . import accounting, secagg
from .kashin import build_frame
from .mechanism import (
    MechanismParams,
    coordinate_probs,
    mse_bound,
    rdp_curve,
    sample_sums,
    server_decode,
    spread,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: population, geometry, sweep grid, Renyi order."""

    n: int = 50
    d: int = 16
    c: float = 1.0                    # L2 bound on client vectors
    m_list: tuple[int, ...] = (2, 4, 6, 16)
    theta_list: tuple[float, ...] | None = (0.05, 0.1, 0.15, 0.2, 0.25)
    eps_list: tuple[float, ...] | None = None
    alpha: float = 2.0
    trials: int = 50
    seed: int = 1234
    use_kashin: bool = False
    clipping: bool = False
    threads: int = 1

    def __post_init__(self):
        for name in ("n", "d", "trials", "seed", "threads"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1 or self.d < 1 or self.trials < 1 or self.threads < 1:
            raise ValueError("n, d, trials, threads must all be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if (self.theta_list is None) == (self.eps_list is None):
            raise ValueError("exactly one of theta_list / eps_list must be set")
        for m in self.m_list:
            if not isinstance(m, Integral) or m < 1:
                raise ValueError(f"m_list entries must be positive integers, got {m!r}")
        for theta in self.theta_list or ():
            if not 0.0 < theta <= 0.25:
                raise ValueError(f"theta_list entries must lie in (0, 1/4], got {theta}")
        for eps in self.eps_list or ():
            if not 0.0 < eps < inf:
                raise ValueError(f"eps_list entries must be finite and positive, got {eps}")
        # a repeated value repeats rows under one (m, theta) key
        for name in ("m_list", "theta_list", "eps_list"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                raise ValueError(f"{name} entries must be distinct, got {list(values)}")
        if not 1.0 < self.alpha < inf:
            raise ValueError(f"alpha must be a finite order above 1, got {self.alpha}")
        if not 0.0 < self.c < inf:
            raise ValueError(f"c must be finite and positive, got {self.c}")


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
        nums = (int(self.m), float(self.theta), float(self.alpha), float(self.epsilon),
                float(self.mse), int(self.comm_bits), int(self.wraps))
        return ",".join([*map(repr, nums), self.mechanism, self.mode])


CSV_HEADER = "# pbm-csv v1 dme\nm,theta,alpha,epsilon,mse,comm_bits,wraps,mechanism,mode"


def generate_clients(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """n client vectors, i.i.d. uniform on the cube of half-width c/sqrt(d),
    which lies inside the L2 ball of radius c that the frame needs."""
    half = config.c / sqrt(config.d)
    return rng.uniform(-half, half, size=(config.n, config.d))


def _resolve_points(
    config: ExperimentConfig, base: MechanismParams
) -> list[tuple[int, float]]:
    """The (m, theta) sweep; eps_list entries are inverted per m by bisection."""
    if config.theta_list is not None:
        return [(m, th) for m in config.m_list for th in config.theta_list]
    points = []
    for m in config.m_list:
        for eps_target in config.eps_list:
            points.append((m, _invert_eps(config, base, m, eps_target)))
    return points


def _invert_eps(
    config: ExperimentConfig, base: MechanismParams, m: int, eps_target: float
) -> float:
    """Largest theta <= 1/4 whose total epsilon stays within eps_target."""

    def fits(theta):
        curve = rdp_curve(replace(base, m=m, theta=theta), [config.alpha])
        return curve.epsilons[0] <= eps_target

    return accounting.largest_theta(fits, f"the epsilon target {eps_target} at m = {m}")


def _point_records(
    config: ExperimentConfig,
    mu_true: np.ndarray,
    params: MechanismParams,
    sums: np.ndarray,
) -> list[TrialRecord]:
    """All records for one (m, theta) point: pbm plain, optional clipped, gaussian.

    sums holds the point's per-trial coordinate sums (trials, coords) over
    all n clients. Each pbm row aggregates them mod its modulus M and lifts
    them into its window [offset, offset + M): the plain row uses the
    default M > n*m with offset 0, which no sum leaves, and the clipped row
    the reduced group of secagg.clipped_spec.
    """
    n, m, theta = params.n, params.m, params.theta
    coords = sums.shape[-1]
    eps_total = float(rdp_curve(params, [config.alpha]).epsilons[0])
    groups = [("plain", secagg.default_modulus(n, m), 0)]
    if config.clipping:
        groups.append(("clipped", *secagg.clipped_spec(n, m, theta)))
    records = []
    for mode, modulus, offset in groups:
        lifted = secagg.lift_sum(sums, modulus, offset)
        err = server_decode(lifted, params, (offset, offset + modulus)) - mu_true
        records.append(
            TrialRecord(
                m=m, theta=theta, alpha=config.alpha, epsilon=eps_total,
                mse=float(np.mean(np.sum(err * err, axis=1))),
                comm_bits=coords * secagg.bits_per_coord(modulus),
                wraps=secagg.count_wraps(sums, modulus, offset),
                mechanism="pbm", mode=mode,
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


def _theta_records(
    config: ExperimentConfig,
    y: np.ndarray,
    mu_true: np.ndarray,
    params: MechanismParams,
    ms: tuple[int, ...],
    seed: np.random.SeedSequence,
) -> list[list[TrialRecord]]:
    """The records of the points (m, params.theta) for m in ms, increasing.

    y holds the spread client coefficients (n, coords). Every trial draws
    all n clients' shares at once. The increments ms[s] - ms[s - 1] are
    drawn in turn from one generator, and the point at ms[s] sums the
    first s + 1 of them, so it reads the first ms[s] of ms[-1] trials per
    client and coordinate.
    """
    probs = coordinate_probs(y, params)
    rng = np.random.default_rng(seed)
    steps = [sample_sums(probs, m - below, rng, config.trials) for below, m in zip((0, *ms), ms)]
    sums = np.cumsum(steps, axis=0)
    return [
        _point_records(config, mu_true, replace(params, m=m), row)
        for m, row in zip(ms, sums)
    ]


def run_tradeoff(config: ExperimentConfig) -> list[TrialRecord]:
    """Run the sweep; deterministic for a fixed seed at any thread count."""
    root = np.random.SeedSequence(config.seed)
    client_seed, frame_seed, theta_root = root.spawn(3)
    clients = generate_clients(config, np.random.default_rng(client_seed))
    mu_true = clients.mean(axis=0)
    frame = (
        build_frame(config.d, np.random.default_rng(frame_seed))
        if config.use_kashin else None
    )
    # theta and m are set per sweep point; the spread depends on neither
    base = MechanismParams(
        n=config.n, d=config.d,
        c=config.c if config.use_kashin else config.c / sqrt(config.d),
        theta=0.25, m=1, frame=frame,
    )
    y = spread(clients, base)
    points = _resolve_points(config, base)
    # the m of each theta, thetas in order of first appearance; eps_list
    # targets can meet at one point, which is then drawn once
    ms_at: dict[float, set[int]] = {}
    for m, theta in points:
        ms_at.setdefault(theta, set()).add(m)
    groups = [(theta, tuple(sorted(ms))) for theta, ms in ms_at.items()]
    tasks = [
        (config, y, mu_true, replace(base, theta=theta), ms, seed)
        for (theta, ms), seed in zip(groups, theta_root.spawn(len(groups)))
    ]
    if config.threads > 1 and len(tasks) > 1:
        # imported here: the process pool costs start-up to runs that never use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.threads, len(tasks))) as pool:
            per_theta = list(pool.map(_theta_records, *zip(*tasks)))
    else:
        per_theta = [_theta_records(*t) for t in tasks]
    by_point = {
        (m, theta): recs
        for (theta, ms), per_m in zip(groups, per_theta)
        for m, recs in zip(ms, per_m)
    }
    return [rec for point in points for rec in by_point[point]]


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
