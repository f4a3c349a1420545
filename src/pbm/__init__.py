"""Distributed mean estimation with per-coordinate binomial noise.

Clients encode bounded vectors as small binomial counts, a simulated
secure-aggregation layer sums them in a finite group, and the server
decodes an unbiased mean whose aggregate noise provides differential
privacy. Includes an exact Renyi accountant, parameter selection that
meets a budget on it, a Gaussian baseline, a benchmark harness, and a
federated SGD simulation.
"""

from .accounting import (
    DEFAULT_ALPHAS,
    InfeasibleBudget,
    RdpCurve,
    binomial_logpmf,
    convolve_logpmf,
    gaussian_mse,
    gaussian_rdp,
    pbm_exact_curve,
    pbm_exact_rdp,
    rdp_to_dp,
    select_params,
    select_params_approx_dp,
)
from .benchmark import ExperimentConfig, TrialRecord, run_tradeoff
from .kashin import KashinFrame, build_frame, represent_batch
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
from .secagg import bits_per_coord, clipped_spec, default_modulus
from .sgd import SgdConfig, LossSpec, convergence_bound
from .sgd import run as run_sgd

__version__ = "0.1.0"
