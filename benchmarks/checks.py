"""Output checks for the benchmark workloads.

Each check reads the files one CLI call wrote and returns a list of
problems; an empty list means the output is correct. The checks share no
code with pbm: the Renyi oracle recomputes the exact curve in plain
probability space with scipy.stats.binom and np.convolve.
"""

from __future__ import annotations

import csv
import math
from math import ceil, sqrt

import numpy as np
from scipy.stats import binom

ORACLE_MAX_ORDER = 8.0
ORACLE_RTOL = 1e-5
MAX_WRAP_RATE = 1e-3
MSE_SIGMAS = 4.0
TAIL_FLOOR = 1e-250


def _rows(path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def same_bytes(a, b) -> bool:
    """Two runs with the same seed must write byte-identical files."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def check_dme(csv_path, d: int, trials: int, m_list, theta_list) -> list[str]:
    """dme sweep with clipping: MSE within the bound, rare wraps, equal eps.

    Each (m, theta) point must have a pbm plain, a pbm clipped and a
    gaussian row. The gaussian row's MSE is the point's MSE bound; a pbm
    row may exceed it by MSE_SIGMAS standard deviations of the trial mean,
    sigma = bound * sqrt(2 / (d * trials)) for per-coordinate error
    variance at most bound / d. The wrap rate divides by trials * d, which
    is at most the number of encoded coordinates, so it never understates.
    """
    problems = []
    points: dict[tuple, dict] = {}
    for r in _rows(csv_path):
        key = (int(r["m"]), float(r["theta"]))
        points.setdefault(key, {})[(r["mechanism"], r["mode"])] = r
    want = {(m, th) for m in m_list for th in theta_list}
    if set(points) != want:
        problems.append(f"points {sorted(points)} != configured {sorted(want)}")
    slack = 1.0 + MSE_SIGMAS * sqrt(2.0 / (d * trials))
    for key, rows in sorted(points.items()):
        gauss, plain = rows.get(("gaussian", "plain")), rows.get(("pbm", "plain"))
        clipped = rows.get(("pbm", "clipped"))
        if gauss is None or plain is None or clipped is None:
            problems.append(f"{key}: missing rows, have {sorted(rows)}")
            continue
        bound = float(gauss["mse"])
        for row in (plain, clipped):
            mse = float(row["mse"])
            if not mse <= bound * slack:
                problems.append(
                    f"{key} {row['mode']}: mse {mse!r} > bound {bound!r} x {slack:.4f}"
                )
        if plain["epsilon"] != clipped["epsilon"]:
            problems.append(
                f"{key}: plain eps {plain['epsilon']} != clipped {clipped['epsilon']}"
            )
        rate = int(clipped["wraps"]) / (trials * d)
        if not rate <= MAX_WRAP_RATE:
            problems.append(f"{key}: wrap rate {rate:.3g} > {MAX_WRAP_RATE:g}")
    return problems


def oracle_curve(n: int, m: int, theta: float, alphas) -> np.ndarray:
    """Exact curve over the extreme configurations k in {0, ceil((n-1)/2), n-1}.

    k of the n-1 unchanged clients sit at 1/2 - theta, the rest at
    1/2 + theta, and the differing client at either end. Both sums share
    base = Binom(m*k, lo) * Binom(m*(n-1-k), hi), so their difference is
    base * (Binom(m, lo) - Binom(m, hi)), and log(p/q) = log1p(diff / q)
    keeps its precision at small theta. The divergence is
    log1p(sum p * expm1((alpha-1) * log(p/q))) / (alpha-1), both orders.
    """
    lo, hi = 0.5 - theta, 0.5 + theta

    def pmf(trials, p):
        return binom.pmf(np.arange(trials + 1), trials, p)

    kern_lo, kern_hi = pmf(m, lo), pmf(m, hi)
    eps = np.zeros(len(alphas))
    for k in sorted({0, ceil((n - 1) / 2), n - 1}):
        base = np.convolve(pmf(m * k, lo), pmf(m * (n - 1 - k), hi))
        p = np.convolve(base, kern_lo)
        q = np.convolve(base, kern_hi)
        diff = np.convolve(base, kern_lo - kern_hi)
        # mass below TAIL_FLOOR, where subnormal rounding swamps diff, is
        # dropped: at m <= 16 and alpha <= 8, (p/q)^(alpha-1) <= 3^(16*7)
        # < 1e54, so the dropped terms add less than 1e-190
        live = (p > TAIL_FLOOR) & (q > TAIL_FLOOR)
        p, q, llr = p[live], q[live], np.log1p(diff[live] / q[live])
        for i, a in enumerate(alphas):
            pq = np.log1p(np.sum(p * np.expm1((a - 1.0) * llr))) / (a - 1.0)
            qp = np.log1p(np.sum(q * np.expm1(-(a - 1.0) * llr))) / (a - 1.0)
            eps[i] = max(eps[i], pq, qp)
    return eps


def check_curve(csv_path, n: int, m: int, theta: float) -> list[str]:
    """Renyi curve: nondecreasing in alpha, and within ORACLE_RTOL of
    oracle_curve() at every order up to ORACLE_MAX_ORDER."""
    problems = []
    rows = _rows(csv_path)
    if not rows:
        return ["empty curve"]
    alphas = np.array([float(r["alpha"]) for r in rows])
    eps = np.array([float(r["epsilon"]) for r in rows])
    drops = [
        f"eps({a1:g}) = {e1!r} < eps({a0:g}) = {e0!r}"
        for a0, a1, e0, e1 in zip(alphas, alphas[1:], eps.tolist(), eps[1:].tolist())
        if not e1 >= e0
    ]
    if drops:
        problems.append("not nondecreasing in alpha: " + "; ".join(drops[:3]))
    low = alphas <= ORACLE_MAX_ORDER
    ref = oracle_curve(n, m, theta, alphas[low])
    rel = np.abs(eps[low] - ref) / ref
    if not np.all(rel <= ORACLE_RTOL):
        i = int(np.argmax(np.where(np.isnan(rel), np.inf, rel)))
        problems.append(
            f"off the oracle by {rel[i]:.3g} relative at alpha {alphas[low][i]:g} "
            f"(tolerance {ORACLE_RTOL:g})"
        )
    return problems


def check_sgd(csv_path, rounds: int) -> list[str]:
    """Training trajectory: finite losses that fall, nondecreasing ledger."""
    rows = _rows(csv_path)
    if len(rows) != rounds:
        return [f"{len(rows)} rounds written, expected {rounds}"]
    problems = []
    losses = [float(r["loss"]) for r in rows]
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite loss")
    elif not losses[-1] < losses[0]:
        problems.append(f"final loss {losses[-1]!r} not below first {losses[0]!r}")
    ledger = [c for c in rows[0] if c.startswith("eps_at_")]
    if not ledger:
        problems.append("no ledger columns")
    for col in ledger:
        vals = [float(r[col]) for r in rows]
        if not all(b >= a for a, b in zip(vals, vals[1:])):
            problems.append(f"ledger column {col} decreases")
    return problems
