"""Distributed mean estimation with per-coordinate binomial noise.

Clients encode bounded vectors as small binomial counts, a simulated
secure-aggregation layer sums them in a finite group, and the server
decodes an unbiased mean whose aggregate noise provides differential
privacy. Includes an exact Renyi accountant, a calibrated closed-form
bound, a Gaussian baseline, a benchmark harness, and a federated SGD
simulation.
"""

from .accounting import (
    ALL_K,
    DEFAULT_ALPHAS,
    InfeasibleBudget,
    RdpCurve,
    achieved_approx_dp,
    binomial_logpmf,
    compose,
    convolve_logpmf,
    gaussian_mse,
    gaussian_rdp,
    pbm_asymptotic_rdp,
    pbm_exact_curve,
    pbm_exact_rdp,
    rdp_to_dp,
    rdp_to_dp_simple,
    renyi_divergence,
    select_params,
    select_params_approx_dp,
    subsample_estimate,
)
from .benchmark import ExperimentConfig, TrialRecord, run_tradeoff
from .kashin import KashinFrame, build_frame, represent_batch
from .mechanism import (
    MechanismParams,
    communication_bits,
    coordinate_probs,
    mse_bound,
    server_decode,
    spread,
)
from .secagg import GroupSpec, aggregate, clipped_spec, default_modulus
from .sgd import SgdConfig, LossSpec, clip_l2, convergence_bound
from .sgd import run as run_sgd

__version__ = "0.1.0"
