"""Federated SGD with privatized gradient aggregation.

Each round samples n of N clients; every sampled client clips its gradient
to L2 norm c, encodes it with the vector mechanism (tight-frame spreading
plus per-coordinate binomial counts), and the server takes one descent
step from the decoded mean. The privacy ledger is a certified bound:
rounds copies of the per-round curve (exact up to m = 400 trials, the
block bound of the accountant past it), composed by scale like the
coordinates of a round, with no subsampling credit. The cohort draw does
not depend on the data and E_Q[(P/Q)^alpha] is jointly convex, so a
round's mixture over cohorts is no worse than the unsampled curve, and
adaptive RDP composition adds the rounds; at configs/sgd_desk.ini,
eps(2) = 5,610. The automatic learning rate and the convergence bound
take the decoded gradient's second moment as c^2 + mechanism.mse_bound,
so the decode error of the frame counts.

The objective is a synthetic quadratic consensus problem (per-client
anchors) with known smoothness L and exact gap D_F, the two constants of
the convergence bound. It exposes the full-population loss and gradient
for trajectory reporting, which a real federated server could not compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt
from numbers import Integral

import numpy as np

from . import accounting
from .accounting import RdpCurve
from .kashin import build_frame
from .mechanism import (
    MechanismParams,
    clip_rows,
    coordinate_probs,
    mse_bound,
    rdp_curve,
    sample_sums,
    server_decode,
    spread,
)


def ledger_note(per_round: RdpCurve) -> str:
    """The ledger's rule, printed and written beside it; a per-round curve
    past the accountant's block of trials (meta "block") is a block bound."""
    curve = "block-bound" if "block" in per_round.meta else "exact"
    return f"certified bound: rounds x {curve} per-round curve, no subsampling credit"


@dataclass(frozen=True)
class LossSpec:
    """Synthetic objective family and its generation parameters."""

    kind: str = "quadratic"           # the only objective
    dimension: int = 8
    smoothness: float = 1.0           # curvature L
    radius: float = 1.0               # client data spread
    shift: float = 1.0                # distance of the optimum from w0 = 0
    data_seed: int = 0

    def __post_init__(self):
        if self.kind != "quadratic":
            raise ValueError(f"loss kind must be 'quadratic', got {self.kind!r}")
        for name in ("dimension", "data_seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if not (isfinite(self.smoothness) and self.smoothness > 0):
            raise ValueError(f"smoothness must be finite and positive, got {self.smoothness}")
        for name, value in (("radius", self.radius), ("shift", self.shift)):
            if not (isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be non-negative, got {self.data_seed}")


class QuadraticLoss:
    """Per-client l_i(w) = (L/2) ||w - a_i||^2; F is L-smooth with optimum at
    the anchor mean, so D_F and the optimum are known exactly."""

    def __init__(self, spec: LossSpec, n_clients: int):
        rng = np.random.default_rng(spec.data_seed)
        d = spec.dimension
        offset = np.full(d, spec.shift / sqrt(d))
        self.anchors = offset + spec.radius / sqrt(d) * rng.standard_normal(
            (n_clients, d)
        )
        self.smoothness = spec.smoothness
        self.w0 = np.zeros(d)
        self._mean = self.anchors.mean(axis=0)

    def client_grads(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.smoothness * (w[None, :] - self.anchors[idx])

    def full_loss(self, w: np.ndarray) -> float:
        diff = w[None, :] - self.anchors
        return float(0.5 * self.smoothness * np.mean(np.sum(diff * diff, axis=1)))

    def full_grad(self, w: np.ndarray) -> np.ndarray:
        return self.smoothness * (w - self._mean)

    def optimum(self) -> np.ndarray:
        return self._mean.copy()

    def gap(self) -> float:
        """D_F = F(w0) - F(optimum)."""
        return self.full_loss(self.w0) - self.full_loss(self._mean)


@dataclass(frozen=True)
class SgdConfig:
    total_clients: int = 500
    sampled: int = 50
    rounds: int = 200
    clip: float = 1.0
    learning_rate: float | str = "auto"
    theta: float = 0.25
    m: int = 16
    seed: int = 7
    use_kashin: bool = True
    loss: LossSpec = field(default_factory=LossSpec)

    def __post_init__(self):
        for name in ("total_clients", "sampled", "rounds", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.sampled <= self.total_clients:
            raise ValueError(
                f"need 1 <= sampled <= total_clients, got "
                f"{self.sampled} of {self.total_clients}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (isfinite(self.clip) and self.clip > 0):
            raise ValueError(f"clip must be finite and positive, got {self.clip}")
        if not 0.0 < self.theta <= 0.25:
            raise ValueError(f"theta must lie in (0, 1/4], got {self.theta}")
        if not isinstance(self.m, Integral) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if isinstance(self.learning_rate, str):
            if self.learning_rate != "auto":
                raise ValueError("learning_rate must be a number or 'auto'")
        elif not (isfinite(self.learning_rate) and self.learning_rate >= 0):
            # 0 is allowed: a run that never steps stays at w0
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate}"
            )


@dataclass
class SgdResult:
    rounds: np.ndarray                # shape (T,): 1..T
    losses: np.ndarray
    grad_norms_sq: np.ndarray
    eps_matrix: np.ndarray            # shape (T, len(alphas)), cumulative
    alphas: np.ndarray
    ledger: RdpCurve                  # final cumulative curve
    per_round: RdpCurve               # one round, all coordinates
    params: MechanismParams           # the round's mechanism, frame included
    learning_rate: float
    grad_bound: float | None          # convergence_bound at the automatic rate
    final_w: np.ndarray
    selection_counts: np.ndarray      # shape (N,): rounds each client was sampled


def mechanism_sigma2(params: MechanismParams) -> float:
    """Bound c^2 + mse_bound(params) on the decoded mean gradient's second
    moment: the squared norm of a mean of clipped gradients plus the
    decode error, frame included."""
    return params.c**2 + mse_bound(params)


def _check_rate_args(smoothness: float, d_f: float, sigma2: float, rounds: int) -> None:
    """The arguments of auto_learning_rate and convergence_bound, by name."""
    if not (isfinite(smoothness) and smoothness > 0):
        raise ValueError(f"smoothness must be finite and positive, got {smoothness}")
    for name, value in (("d_f", d_f), ("sigma2", sigma2)):
        if not (isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if not (isinstance(rounds, Integral) and rounds >= 1):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")


def auto_learning_rate(smoothness: float, d_f: float, sigma2: float, rounds: int) -> float:
    """min(1/L, sqrt(2*D_F) / (sigma * sqrt(L*T)))."""
    _check_rate_args(smoothness, d_f, sigma2, rounds)
    base = 1.0 / smoothness
    if sigma2 == 0.0:
        return base
    return min(base, sqrt(2.0 * d_f) / (sqrt(sigma2) * sqrt(smoothness * rounds)))


def convergence_bound(smoothness: float, d_f: float, sigma2: float, rounds: int) -> float:
    """Mean-squared-gradient guarantee at the automatic learning rate.

    L*D_F/T + sqrt(8*sigma2*L*D_F/T), with sigma2 from mechanism_sigma2;
    applies to the average of ||grad F||^2 over a uniformly chosen round.
    """
    _check_rate_args(smoothness, d_f, sigma2, rounds)
    return smoothness * d_f / rounds + sqrt(8.0 * sigma2 * smoothness * d_f / rounds)


def run(config: SgdConfig, disable_mechanism: bool = False) -> SgdResult:
    """Simulate the full training loop and assemble the privacy ledger.

    The seed spawns three generators once per run: the frame's, the cohort
    selection's and the mechanism's. disable_mechanism=True replaces
    encode/sum/decode with the exact mean of the clipped gradients and
    draws nothing from the mechanism's generator, so it selects the same
    cohorts: a noise-free paired run for the same seed.
    """
    loss = QuadraticLoss(config.loss, config.total_clients)
    d = config.loss.dimension
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    frame_rng, select_rng, mech_rng = (np.random.default_rng(s) for s in seeds)
    frame = build_frame(d, frame_rng) if config.use_kashin else None
    params = MechanismParams(
        n=config.sampled, d=d, c=config.clip, theta=config.theta, m=config.m, frame=frame
    )
    if config.learning_rate == "auto":
        rate_args = (loss.smoothness, loss.gap(), mechanism_sigma2(params), config.rounds)
        gamma = auto_learning_rate(*rate_args)
        grad_bound = convergence_bound(*rate_args)
    else:
        # the bound holds at the automatic rate only
        gamma, grad_bound = float(config.learning_rate), None

    per_round = rdp_curve(params)
    ledger = accounting.scale(per_round, config.rounds)

    w = loss.w0.copy()
    t_axis = np.arange(1, config.rounds + 1)
    losses = np.empty(config.rounds)
    grad_norms = np.empty(config.rounds)
    selection_counts = np.zeros(config.total_clients, dtype=np.int64)
    # row t is the ledger after t rounds: t copies of the per-round curve
    eps_matrix = t_axis[:, None] * per_round.epsilons[None, :]
    for t in range(config.rounds):
        idx = select_rng.choice(config.total_clients, size=config.sampled, replace=False)
        selection_counts[idx] += 1
        grads = clip_rows(loss.client_grads(w, idx), config.clip)
        if disable_mechanism:
            mu_hat = grads.mean(axis=0)
        else:
            probs = coordinate_probs(spread(grads, params), params)
            # one trial of the cohort's summed counts; under the default
            # modulus the secure-aggregation sum is this integer sum
            mu_hat = server_decode(sample_sums(probs, config.m, mech_rng, 1)[0], params)
        w = w - gamma * mu_hat
        losses[t] = loss.full_loss(w)
        grad_norms[t] = float(np.sum(loss.full_grad(w) ** 2))
    return SgdResult(
        rounds=t_axis, losses=losses, grad_norms_sq=grad_norms,
        eps_matrix=eps_matrix, alphas=per_round.alphas,
        ledger=ledger, per_round=per_round, params=params,
        learning_rate=gamma, grad_bound=grad_bound, final_w=w,
        selection_counts=selection_counts,
    )


def write_trajectory_csv(result: SgdResult, path) -> None:
    """Versioned CSV: round, loss, grad_norm_sq, cumulative eps per order."""
    eps_cols = ",".join(f"eps_at_{a:g}" for a in result.alphas)
    lines = ["# pbm-csv v1 sgd", f"# eps_at_* columns: {ledger_note(result.per_round)}",
             f"round,loss,grad_norm_sq,{eps_cols}"]
    for i in range(len(result.rounds)):
        eps = ",".join(repr(float(v)) for v in result.eps_matrix[i])
        lines.append(
            f"{int(result.rounds[i])},{float(result.losses[i])!r},"
            f"{float(result.grad_norms_sq[i])!r},{eps}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
