"""Layer spans recorded from outside the program.

A Tracer wraps every public function of each pbm layer module and rebinds
the wrapper in every pbm namespace that holds the function, including names
copied in with ``from .x import y``, so calls between layers pass through
it. Each call records a span (name, start, end, parent) in memory; a few
functions also add to counters at the same boundary. Nothing under src/
is changed: the wrappers live only in the traced process.

layer_metrics() turns one operation's spans and counters into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "accounting", "benchmark", "kashin", "mechanism", "secagg", "sgd",
    "config", "cli",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cells(counts, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    counts["accounting.convolve_cells"] += len(a) * len(b)


def _frame(counts, args, kwargs, result):
    counts["kashin.frame_coords"] = result.big_d


def _one_vector(counts, args, kwargs, result):
    counts["kashin.vectors"] += 1


def _batch_vectors(counts, args, kwargs, result):
    counts["kashin.vectors"] += result.shape[1]


def _updates(counts, args, kwargs, result):
    counts["secagg.updates"] += len(_arg(args, kwargs, 0, "updates"))


def _draws(counts, args, kwargs, result):
    # every (m, theta) point draws trials x n x coords binomials once
    cfg = _arg(args, kwargs, 0, "config")
    points = sum(r.mechanism == "pbm" and r.mode == "plain" for r in result)
    coords = counts["kashin.frame_coords"] if cfg.use_kashin else cfg.d
    counts["benchmark.draws"] += cfg.trials * cfg.n * coords * points


def _rounds(counts, args, kwargs, result):
    counts["sgd.rounds"] += len(result.rounds)


HOOKS = {
    "accounting.convolve_logpmf": _cells,
    "kashin.build_frame": _frame,
    "kashin.represent": _one_vector,
    "kashin.represent_batch": _batch_vectors,
    "secagg.aggregate": _updates,
    "benchmark.run_tradeoff": _draws,
    "sgd.run": _rounds,
}


class Tracer:
    """Span recorder for one process; install() once after importing pbm."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every pbm namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pbm.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "pbm" and not modname.startswith("pbm."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and counters.

    A span's self time is its duration minus the durations of its direct
    children. A function's time (``<layer>.<fn>.s``) counts only outermost
    calls, so recursion is not counted twice.
    """
    counts = Counter(counts)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_s: Counter = Counter()
    fn_s: Counter = Counter()
    fn_calls: Counter = Counter()
    layer_calls: Counter = Counter()
    for i, (name, _, _, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += dur[i] - child[i]
        layer_calls[layer] += 1
        fn_calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            fn_s[name] += dur[i]

    wall = fn_s["cli.main"]
    draws = counts["benchmark.draws"]
    frame_calls = fn_calls["kashin.represent"] + fn_calls["kashin.represent_batch"]
    rounds = counts["sgd.rounds"]

    def share(x):
        return x / wall if wall else 0.0

    return {
        "accounting.calls": layer_calls["accounting"],
        "accounting.self_s": self_s["accounting"],
        "accounting.share": share(self_s["accounting"]),
        "accounting.pbm_exact_curve.s": fn_s["accounting.pbm_exact_curve"],
        "accounting.convolve_logpmf.s": fn_s["accounting.convolve_logpmf"],
        "accounting.convolve_logpmf.calls": fn_calls["accounting.convolve_logpmf"],
        "accounting.convolve_cells": counts["accounting.convolve_cells"],
        "accounting.renyi_divergence.s": fn_s["accounting.renyi_divergence"],
        "accounting.renyi_divergence.calls": fn_calls["accounting.renyi_divergence"],
        "accounting.binomial_logpmf.s": fn_s["accounting.binomial_logpmf"],
        "benchmark.run_tradeoff.s": fn_s["benchmark.run_tradeoff"],
        "benchmark.self_s": self_s["benchmark"],
        "benchmark.share": share(self_s["benchmark"]),
        "benchmark.draws": draws,
        "benchmark.draw_ns": self_s["benchmark"] * 1e9 / draws if draws else 0.0,
        "benchmark.write.s": (
            fn_s["benchmark.write_records_csv"] + fn_s["benchmark.write_series_json"]
        ),
        "kashin.self_s": self_s["kashin"],
        "kashin.share": share(self_s["kashin"]),
        "kashin.build_frame.s": fn_s["kashin.build_frame"],
        "kashin.represent.calls": fn_calls["kashin.represent"],
        "kashin.represent_batch.calls": fn_calls["kashin.represent_batch"],
        "kashin.vectors": counts["kashin.vectors"],
        "kashin.vectors_per_call": (
            counts["kashin.vectors"] / frame_calls if frame_calls else 0.0
        ),
        "mechanism.self_s": self_s["mechanism"],
        "mechanism.client_encode.calls": fn_calls["mechanism.client_encode"],
        "mechanism.server_decode.calls": fn_calls["mechanism.server_decode"],
        "secagg.self_s": self_s["secagg"],
        "secagg.calls": layer_calls["secagg"],
        "secagg.updates": counts["secagg.updates"],
        "sgd.run.s": fn_s["sgd.run"],
        "sgd.self_s": self_s["sgd"],
        "sgd.round_ms": fn_s["sgd.run"] * 1e3 / rounds if rounds else 0.0,
        "config.self_s": self_s["config"],
        "cli.self_s": self_s["cli"],
        "trace.wall_s": wall,
        "trace.layer_share": share(wall - self_s["cli"]),
    }
