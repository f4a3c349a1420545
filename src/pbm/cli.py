"""Command-line front end.

Subcommands: dme (mean-estimation benchmark), sgd (federated training
simulation), rdp-curve (privacy curves to CSV), select-params (budget to
(theta, m)).

Exit codes: 0 success, 2 bad usage, config or output path, 3 infeasible
parameters, 4 numerical failure (a frame that is not tight, U U^T != I,
or that spreads a client past c', or an exact curve that rounds to 0 at
theta > 0). Outputs are byte-deterministic for a fixed seed at any
--threads count. Curves, the PBM epsilons of dme and sgd, and
select-params do not depend on the BLAS thread count either; the frame's
QR and matrix products, and with them a use_kashin run's mse and Gaussian
rows, do.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import accounting
from .accounting import InfeasibleBudget
from .benchmark import run_tradeoff, write_records_csv, write_series_json
from .config import load_dme_config, load_sgd_config
from .kashin import ConvergenceError
from .sgd import run as run_sgd
from .sgd import ledger_note, write_trajectory_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _check_writable(path) -> None:
    """Raise OSError now if path cannot be written later; creates nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such directory", parent)
    target = path if os.path.exists(path) else parent
    if not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, "not writable", target)


def _cmd_dme(args) -> int:
    cfg = load_dme_config(args.config)
    _check_writable(args.out)
    if args.json:
        _check_writable(args.json)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.clipping:
        cfg = replace(cfg, clipping=True)
    cfg = replace(cfg, threads=args.threads)
    records = run_tradeoff(cfg)
    write_records_csv(records, args.out)
    if args.json:
        write_series_json(records, args.json)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_sgd(args) -> int:
    cfg = load_sgd_config(args.config)
    _check_writable(args.out)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    result = run_sgd(cfg)
    write_trajectory_csv(result, args.out)
    final_eps = result.ledger.epsilons
    idx = int(np.argmin(np.abs(result.alphas - 2.0)))
    bound = "" if result.grad_bound is None else (
        f"; mean grad_norm_sq bound {result.grad_bound:.6g}"
    )
    print(
        f"wrote {len(result.rounds)} rounds to {args.out}; final loss "
        f"{result.losses[-1]:.6g}, ledger eps({result.alphas[idx]:g}) = "
        f"{final_eps[idx]:.6g} ({ledger_note(result.per_round)}){bound}"
    )
    return EXIT_OK


def _parse_alphas(raw: str | None) -> tuple[float, ...]:
    if raw is None:
        return accounting.DEFAULT_ALPHAS
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _cmd_rdp_curve(args) -> int:
    alphas = _parse_alphas(args.alphas)
    _check_writable(args.out)
    if args.mode == "exact":
        curve = accounting.pbm_exact_curve(args.n, args.m, args.theta, alphas)
    else:
        if args.sigma is None:
            raise ValueError("--sigma is required for gaussian mode")
        curve = accounting.gaussian_curve(args.c, args.n, args.sigma, alphas)
    accounting.write_curve_csv(curve, args.out)
    print(f"wrote {len(curve.alphas)} orders ({curve.kind}) to {args.out}")
    return EXIT_OK


def _cmd_select_params(args) -> int:
    rdp_mode = args.eps_budget is not None
    approx_mode = args.eps_dp is not None
    if rdp_mode == approx_mode:
        raise ValueError("pass exactly one of --eps-budget/--alpha or --eps-dp/--delta")
    # both forms certify d * m composed copies of the one-trial exact curve
    # and print the value that the search accepted
    if rdp_mode:
        label = "bound_total"
        theta, m, value = accounting.select_params(
            args.n, args.d, args.alpha, args.eps_budget
        )
    else:
        label = "achieved_eps_dp"
        theta, m, value = accounting.select_params_approx_dp(
            args.n, args.d, args.eps_dp, args.delta
        )
    print(f"theta={theta!r}")
    print(f"m={m}")
    print(f"{label}={value!r}")
    return EXIT_OK


def _int_at_least(low: int):
    def integer(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="pbm",
        description="Distributed mean estimation with binomial noise: "
        "benchmarks, training simulation, and privacy accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dme", help="run the mean-estimation benchmark sweep")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json", help="also write a plotting JSON series file")
    p.add_argument("--clipping", action="store_true", help="add reduced-modulus rows")
    p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
    p.add_argument(
        "--threads", type=_int_at_least(1), default=os.cpu_count() or 1,
        help="worker processes, each running one theta's rows at a time (default: cores)",
    )
    p.set_defaults(func=_cmd_dme)

    p = sub.add_parser("sgd", help="run the federated training simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
    p.set_defaults(func=_cmd_sgd)

    p = sub.add_parser("rdp-curve", help="write a privacy curve CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--theta", type=float, default=0.25)
    p.add_argument("--mode", choices=("exact", "gaussian"), default="exact")
    p.add_argument("--alphas", help="comma-separated orders (default grid)")
    p.add_argument(
        "--c", type=float, default=1.0,
        help="gaussian: L2 bound on a client's vector; neighbours replace one "
        "client, so the mean's sensitivity is 2c/n",
    )
    p.add_argument("--sigma", type=float, help="gaussian noise scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rdp_curve)

    p = sub.add_parser("select-params", help="pick (theta, m) for a privacy budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="encoded coordinates "
                   "per client: d for direct encoding, D = 2d for a use_kashin run")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--eps-budget", type=float, help="Renyi budget at --alpha")
    p.add_argument("--eps-dp", type=float, help="approximate-DP epsilon target")
    p.add_argument("--delta", type=float, default=1e-6)
    p.set_defaults(func=_cmd_select_params)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleBudget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
