"""Federated SGD with privatized gradient aggregation.

Each round samples n of N clients; every sampled client clips its gradient
to L2 norm c, encodes it with the vector mechanism (tight-frame spreading
plus per-coordinate binomial counts), and the server takes one descent
step from the decoded mean. The privacy ledger composes the per-round
curve across rounds after a kappa^2 subsampling estimate (kappa = n/N).

Two synthetic objectives with known smoothness: a quadratic consensus
problem (per-client anchors) and one-sample-per-client logistic
regression. Both expose full-population loss and gradient for trajectory
reporting, which a real federated server could not compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Sequence

import numpy as np

from . import accounting, secagg
from .accounting import DEFAULT_ALPHAS, RdpCurve
from .kashin import build_frame
from .mechanism import MechanismParams, coordinate_probs, server_decode, spread


@dataclass(frozen=True)
class LossSpec:
    """Synthetic objective family and its generation parameters."""

    kind: str = "quadratic"           # quadratic | logistic
    dimension: int = 8
    smoothness: float = 1.0           # quadratic curvature; ignored by logistic
    radius: float = 1.0               # client data spread
    shift: float = 1.0                # distance of the optimum from w0 = 0
    data_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("quadratic", "logistic"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")


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


class LogisticLoss:
    """One labelled sample per client, l_i(w) = log(1 + exp(-y_i <z_i, w>)).

    Labels come from a planted direction with 10% flips. Smoothness is
    max ||z_i||^2 / 4; gradients are bounded by max ||z_i||, so with
    clip >= that the clipping step never distorts them.
    """

    def __init__(self, spec: LossSpec, n_clients: int):
        rng = np.random.default_rng(spec.data_seed)
        d = spec.dimension
        self.features = spec.radius / sqrt(d) * rng.standard_normal((n_clients, d))
        planted = rng.standard_normal(d)
        margin = self.features @ planted
        flips = rng.random(n_clients) < 0.1
        self.labels = np.where(flips, -np.sign(margin), np.sign(margin))
        self.labels[self.labels == 0] = 1.0
        self.smoothness = float((np.linalg.norm(self.features, axis=1) ** 2).max() / 4.0)
        self.w0 = np.zeros(d)

    def client_grads(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        z = self.features[idx]
        y = self.labels[idx]
        s = -y * (z @ w)
        sig = 1.0 / (1.0 + np.exp(-s))
        return (-y * sig)[:, None] * z

    def full_loss(self, w: np.ndarray) -> float:
        s = -self.labels * (self.features @ w)
        return float(np.mean(np.logaddexp(0.0, s)))

    def full_grad(self, w: np.ndarray) -> np.ndarray:
        s = -self.labels * (self.features @ w)
        sig = 1.0 / (1.0 + np.exp(-s))
        return ((-self.labels * sig)[:, None] * self.features).mean(axis=0)

    def gap(self) -> float:
        """Loss range from w0; a cheap stand-in for F(w0) - F*."""
        return self.full_loss(self.w0)


def build_loss(spec: LossSpec, n_clients: int):
    cls = QuadraticLoss if spec.kind == "quadratic" else LogisticLoss
    return cls(spec, n_clients)


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
    redundancy: float = 2.0
    accountant: str = "bound"         # exact | bound
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    loss: LossSpec = field(default_factory=LossSpec)

    def __post_init__(self):
        if not 1 <= self.sampled <= self.total_clients:
            raise ValueError(
                f"need 1 <= sampled <= total_clients, got "
                f"{self.sampled} of {self.total_clients}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.clip <= 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if self.accountant not in ("exact", "bound"):
            raise ValueError(f"unknown accountant {self.accountant!r}")
        if isinstance(self.learning_rate, str) and self.learning_rate != "auto":
            raise ValueError("learning_rate must be a number or 'auto'")


@dataclass
class SgdResult:
    rounds: np.ndarray                # shape (T,): 1..T
    losses: np.ndarray
    grad_norms_sq: np.ndarray
    eps_matrix: np.ndarray            # shape (T, len(alphas)), cumulative
    alphas: np.ndarray
    ledger: RdpCurve                  # final cumulative curve
    per_round: RdpCurve               # one round, all coordinates, pre-subsampling
    kappa: float
    learning_rate: float
    final_w: np.ndarray
    selection_counts: np.ndarray      # shape (N,): rounds each client was sampled


def clip_l2(g: np.ndarray, c: float) -> np.ndarray:
    """Scale g down to L2 norm c if it exceeds c; identity otherwise."""
    if c <= 0:
        raise ValueError(f"clip bound must be positive, got {c}")
    norm = float(np.linalg.norm(g))
    if norm <= c:
        return np.asarray(g, dtype=float)
    return np.asarray(g, dtype=float) * (c / norm)


def mechanism_sigma2(c: float, n: int, m: int, theta: float) -> float:
    """Per-round second-moment proxy c^2 + c^2/(4*n*m*theta^2) used by the rate."""
    return c * c + c * c / (4.0 * n * m * theta * theta)


def auto_learning_rate(smoothness: float, d_f: float, sigma2: float, rounds: int) -> float:
    """min(1/L, sqrt(2*D_F) / (sigma * sqrt(L*T)))."""
    if smoothness <= 0 or rounds < 1:
        raise ValueError("smoothness must be positive and rounds >= 1")
    if sigma2 < 0 or d_f < 0:
        raise ValueError("sigma2 and d_f must be nonnegative")
    base = 1.0 / smoothness
    if sigma2 == 0.0:
        return base
    return min(base, sqrt(2.0 * d_f) / (sqrt(sigma2) * sqrt(smoothness * rounds)))


def convergence_bound(
    smoothness: float, d_f: float, c: float, rounds: int, n: int, m: int, theta: float
) -> float:
    """Mean-squared-gradient guarantee at the automatic learning rate.

    L*D_F/T + sqrt(8*c^2*L*D_F/T) * sqrt(1 + 1/(4*n*m*theta^2)); applies to
    the average of ||grad F||^2 over a uniformly chosen round.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    return smoothness * d_f / rounds + sqrt(
        8.0 * c * c * smoothness * d_f / rounds
    ) * sqrt(1.0 + 1.0 / (4.0 * n * m * theta * theta))


def _round_curve(config: SgdConfig, coords: int) -> RdpCurve:
    """Privacy of one full round (all coordinates) for the sampled cohort."""
    if config.accountant == "bound":
        per = accounting.pbm_asymptotic_curve(
            config.sampled, config.m, config.theta, config.alphas
        )
    else:
        per = accounting.pbm_exact_curve(
            config.sampled, config.m, config.theta, config.alphas
        )
    return accounting.scale(per, coords)


def run(config: SgdConfig, disable_mechanism: bool = False) -> SgdResult:
    """Simulate the full training loop and assemble the privacy ledger.

    disable_mechanism=True replaces encode/aggregate/decode with the exact
    mean of the clipped gradients while consuming identical client-sampling
    randomness, giving a noise-free paired run for the same seed.
    """
    loss = build_loss(config.loss, config.total_clients)
    d = config.loss.dimension
    root = np.random.SeedSequence(config.seed)
    frame_seed, round_root = root.spawn(2)
    if config.use_kashin:
        frame = build_frame(d, config.redundancy, np.random.default_rng(frame_seed))
    else:
        frame = None
    params = MechanismParams(
        n=config.sampled, d=d, c=config.clip, theta=config.theta, m=config.m,
        use_kashin=config.use_kashin, frame=frame,
    )
    group = secagg.GroupSpec(
        modulus=secagg.default_modulus(config.sampled, config.m),
        coords=params.coords,
    )
    smoothness = loss.smoothness
    d_f = loss.gap()
    if config.learning_rate == "auto":
        sigma2 = mechanism_sigma2(config.clip, config.sampled, config.m, config.theta)
        gamma = auto_learning_rate(smoothness, d_f, sigma2, config.rounds)
    else:
        gamma = float(config.learning_rate)

    kappa = config.sampled / config.total_clients
    per_round = _round_curve(config, params.coords)
    amplified = accounting.subsample_estimate(per_round, kappa)
    ledger = accounting.scale(amplified, config.rounds)

    w = loss.w0.copy()
    t_axis = np.arange(1, config.rounds + 1)
    losses = np.empty(config.rounds)
    grad_norms = np.empty(config.rounds)
    selection_counts = np.zeros(config.total_clients, dtype=np.int64)
    eps_matrix = t_axis[:, None] * amplified.epsilons[None, :]
    for t, rseed in enumerate(round_root.spawn(config.rounds)):
        sample_seed, mech_root = rseed.spawn(2)
        idx = np.random.default_rng(sample_seed).choice(
            config.total_clients, size=config.sampled, replace=False
        )
        selection_counts[idx] += 1
        grads = loss.client_grads(w, idx)
        norms = np.linalg.norm(grads, axis=1)
        over = norms > config.clip
        if np.any(over):
            grads = grads.copy()
            grads[over] *= (config.clip / norms[over])[:, None]
        if disable_mechanism:
            mu_hat = grads.mean(axis=0)
        else:
            probs = coordinate_probs(spread(grads, params), params)
            # each client draws its shares from its own generator, as a
            # real client would on its own device
            shares = np.stack([
                np.random.default_rng(cs).binomial(config.m, p)
                for p, cs in zip(probs, mech_root.spawn(config.sampled))
            ])
            mu_hat = server_decode(secagg.aggregate(shares, group), params)
        w = w - gamma * mu_hat
        losses[t] = loss.full_loss(w)
        grad_norms[t] = float(np.sum(loss.full_grad(w) ** 2))
    return SgdResult(
        rounds=t_axis, losses=losses, grad_norms_sq=grad_norms,
        eps_matrix=eps_matrix, alphas=np.asarray(config.alphas, dtype=float),
        ledger=ledger, per_round=per_round, kappa=kappa,
        learning_rate=gamma, final_w=w, selection_counts=selection_counts,
    )


def write_trajectory_csv(result: SgdResult, path) -> None:
    """Versioned CSV: round, loss, grad_norm_sq, cumulative eps per order."""
    eps_cols = ",".join(f"eps_at_{a:g}" for a in result.alphas)
    lines = ["# pbm-csv v1 sgd", f"round,loss,grad_norm_sq,{eps_cols}"]
    for i in range(len(result.rounds)):
        eps = ",".join(repr(float(v)) for v in result.eps_matrix[i])
        lines.append(
            f"{int(result.rounds[i])},{float(result.losses[i])!r},"
            f"{float(result.grad_norms_sq[i])!r},{eps}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
