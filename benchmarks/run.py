"""Benchmark runner for the pbm command line.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Each operation is a fresh interpreter (benchmarks/worker.py) that
imports pbm.cli and calls pbm.cli.main(argv), so nothing carries over
between operations. Operations run one at a time, a closed loop of one
client, until starting another would pass --seconds. All operations of a
run use the same seed, so their output files must be byte-identical, and
every output is checked (benchmarks/checks.py).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 operations alternate untraced and traced, and it reports the
per-layer metrics of the traced ones (benchmarks/spans.py). The metric
names and units are those of BENCHMARK.json. The line before it records
the machine, the versions, the samples and every problem found; the
working files stay in .bench_out/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import floor
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
from spans import layer_metrics

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
# one BLAS thread (at most nproc): every workload is single-threaded
BLAS_THREADS = 1
IMPORT_PROBES = 3
# a run must end within 180 s even if an operation hangs
HARD_LIMIT_S = 165.0
PROBE = (
    "import time; t = time.perf_counter(); import pbm.cli; "
    "print(time.perf_counter() - t); print(pbm.cli.__file__)"
)


@dataclass
class Call:
    """One pbm.cli.main(argv) call of an operation and the check of its output."""

    label: str
    argv: list[str]
    outputs: list[str]                  # files it writes in the operation's dir
    check: Callable[[Path], list[str]]
    known_defect: str | None = None     # why its check is expected to fail


def _dme_full(seed: int) -> list[Call]:
    cfg_path = CONFIGS / "dme_full.ini"
    cfg = configparser.ConfigParser()
    cfg.read(cfg_path)
    exp = cfg["experiment"]
    d, trials = exp.getint("d"), exp.getint("trials")
    m_list = [int(x) for x in exp["m_list"].split()]
    theta_list = [float(x) for x in exp["theta_list"].split()]
    argv = [
        "dme", "--config", str(cfg_path), "--out", "dme.csv", "--json", "dme.json",
        "--clipping", "--seed", str(seed), "--threads", "1",
    ]
    return [Call(
        "dme", argv, ["dme.csv", "dme.json"],
        lambda d_: checks.check_dme(d_ / "dme.csv", d, trials, m_list, theta_list),
    )]


def _rdp_exact(seed: int) -> list[Call]:
    rng = random.Random(seed)
    cases = [
        (1000, 16, rng.uniform(0.05, 0.25), None),
        (10_000, 2, rng.uniform(0.05, 0.25), None),
        (2000, 4, 1e-5, "the accountant's logsumexp divergence loses "
                        "precision at small theta"),
    ]
    calls = []
    for i, (n, m, theta, defect) in enumerate(cases):
        out = f"curve{i}.csv"
        argv = [
            "rdp-curve", "--n", str(n), "--m", str(m), "--theta", repr(theta),
            "--mode", "exact", "--out", out,
        ]
        calls.append(Call(
            f"curve n={n} m={m} theta={theta!r}", argv, [out],
            lambda d_, out=out, n=n, m=m, theta=theta:
                checks.check_curve(d_ / out, n, m, theta),
            defect,
        ))
    return calls


def _sgd_desk(seed: int) -> list[Call]:
    cfg_path = CONFIGS / "sgd_desk.ini"
    cfg = configparser.ConfigParser()
    cfg.read(cfg_path)
    rounds = cfg["sgd"].getint("rounds")
    argv = ["sgd", "--config", str(cfg_path), "--out", "trajectory.csv", "--seed", str(seed)]
    return [Call(
        "sgd", argv, ["trajectory.csv"],
        lambda d_: checks.check_sgd(d_ / "trajectory.csv", rounds),
    )]


WORKLOADS = {"dme-full": _dme_full, "rdp-exact": _rdp_exact, "sgd-desk": _sgd_desk}


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(ROOT),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PBM_THREADS", None)
    return env


def tail_percentile(samples) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def run_op(index: int, calls: list[Call], trace: bool, env: dict,
           workdir: Path, timeout: float) -> dict:
    opdir = workdir / f"op{index}"
    opdir.mkdir()
    (opdir / "spec.json").write_text(
        json.dumps({"calls": [c.argv for c in calls], "trace": trace})
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "spec.json", "result.json"]
    try:
        proc = subprocess.run(
            cmd, cwd=opdir, env=env, capture_output=True, text=True, timeout=timeout
        )
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stderr = None, f"timed out after {exc.timeout:.0f} s"
    result_path = opdir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return {"dir": opdir, "trace": trace, "code": code, "stderr": stderr[-2000:],
            "result": result}


def evaluate(ops: list[dict], calls: list[Call]) -> tuple[int, list[dict]]:
    """Check every call of every operation; returns (attempted, failures)."""
    failures = []
    attempted = 0
    src = str(ROOT / "src")
    refs: list[Path | None] = [None] * len(calls)   # first successful output
    for k, op in enumerate(ops):
        for i, call in enumerate(calls):
            attempted += 1
            expected, unexpected = [], []
            res = op["result"]
            if res is None:
                unexpected.append(f"worker exited {op['code']}: {op['stderr']}")
            elif not res["pbm_file"].startswith(src):
                unexpected.append(f"pbm imported from {res['pbm_file']}, not {src}")
            elif res["calls"][i]["code"] != 0:
                c = res["calls"][i]
                unexpected.append(f"exit {c['code']}: {c['error'] or op['stderr']}")
            else:
                refs[i] = refs[i] or op["dir"]
                try:
                    problems = call.check(op["dir"])
                    unexpected.extend(
                        f"{f} differs from {refs[i] / f}" for f in call.outputs
                        if not checks.same_bytes(refs[i] / f, op["dir"] / f)
                    )
                except (OSError, ValueError, KeyError) as exc:
                    problems = []
                    unexpected.append(f"unreadable output: {exc!r}")
                (expected if call.known_defect else unexpected).extend(problems)
            if expected or unexpected:
                failures.append({
                    "op": k, "traced": op["trace"], "call": call.label,
                    "expected": expected, "unexpected": unexpected,
                    "known_defect": call.known_defect if expected else None,
                })
    return attempted, failures


def main(argv=None) -> int:
    t_run = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pbm" / "cli.py").is_file():
        print(f"no pbm sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    calls = WORKLOADS[args.workload](args.seed)

    import_s = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=workdir, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            print(f"cannot import pbm.cli:\n{proc.stderr}", file=sys.stderr)
            return 2
        import_s.append(float(proc.stdout.split()[0]))

    ops: list[dict] = []
    durations = []
    t0 = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(ops) % 2 == 1
        start = time.perf_counter()
        timeout = HARD_LIMIT_S - (start - t_run)
        ops.append(run_op(len(ops), calls, trace, env, workdir, timeout))
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        print(f"op {len(ops) - 1} traced={trace} {durations[-1]:.2f} s",
              file=sys.stderr)
        enough = len(ops) >= (2 if args.trace else 1)
        budget = HARD_LIMIT_S - (time.perf_counter() - t_run)
        if (enough and elapsed + statistics.mean(durations) > args.seconds) or \
                max(durations) * 1.2 > budget:
            break

    attempted, failures = evaluate(ops, calls)
    failed = len(failures)
    correct = not any(f["unexpected"] for f in failures)
    plain = [op["result"] for op in ops if op["result"] and not op["trace"]]
    traced = [op["result"] for op in ops if op["result"] and op["trace"]]
    done = plain + traced
    if not plain or (args.trace and not traced):
        print(json.dumps({"failures": failures}, indent=1), file=sys.stderr)
        return 1

    walls = [sum(c["wall_s"] for c in r["calls"]) for r in plain]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(import_s + [r["import_s"] for r in done]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    section = "end_to_end"
    if args.trace:
        section = "per_layer"
        per_op = [layer_metrics(r["spans"], r["counts"]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        values["cli.cpu_s"] = statistics.median(
            sum(c["cpu_s"] for c in r["calls"]) for r in plain
        )
        values["cli.trace_overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        values["error_rate"] = failed / attempted

    tail = tail_percentile(walls)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": len(ops), "traced_operations": len(traced),
        "wall_s_samples": len(walls), "wall_s_all": walls,
        "wall_s_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "import_s_all": import_s, "error_rate": failed / attempted,
        "failures": failures, "environment": environment(),
        "calls": [c.argv for c in calls],
    }
    (workdir / "run.json").write_text(json.dumps(info, indent=1, default=str))
    for f in failures:
        kind = "known defect" if not f["unexpected"] else "FAILED"
        print(f"{kind}: op {f['op']} {f['call']}: "
              f"{'; '.join(f['unexpected'] + f['expected'])}", file=sys.stderr)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
