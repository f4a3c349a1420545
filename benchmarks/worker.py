"""One benchmark operation, in a fresh interpreter.

usage: python3 worker.py SPEC.json RESULT.json

SPEC holds {"calls": [argv, ...], "trace": bool}. The worker imports
pbm.cli (timing the import), installs the span tracer when asked, then
calls pbm.cli.main(argv) for each argv in turn, in its working directory.
RESULT receives per-call exit codes and times, the process's peak resident
memory and, when traced, the spans and counters. The exit code is 0 only
if every call returned 0.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import pbm.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in spec["calls"]:
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = pbm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, error = 1, traceback.format_exc(limit=5)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        calls.append({"code": code, "error": error, "wall_s": wall, "cpu_s": cpu})

    result = {
        "pbm_file": pbm.cli.__file__,
        "import_s": import_s,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if all(c["code"] == 0 for c in calls) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
