"""Write tests/curve_golden.json: repr'd epsilons of pbm_exact_curve on a grid.

test_accounting.py::test_exact_curve_bytes_match_the_golden_table compares
the accountant with this table string for string, so a change that only
reorders floating-point sums still shows. The table was written by the
accountant that runs on Q's Hoeffding window and adds each order's terms
in numpy's pairwise sum; its m = 401 rows are block bounds, an exact
block of 400 trials plus one of a single trial. Rewrite it only when a
change means to move curve bytes.

    PYTHONPATH=src python tests/make_curve_golden.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from pbm.accounting import pbm_exact_curve

NS = (1, 2, 3, 5, 1000, 10_000)
MS = (1, 2, 4, 16, 64, 401)
THETAS = (1e-12, 1e-5, 0.01, 0.17, 0.25)

OUT = Path(__file__).with_name("curve_golden.json")


def grid():
    """A third of NS x MS x THETAS, spread so each n, m and theta recurs."""
    for (i, n), (j, m), (k, theta) in itertools.product(
        enumerate(NS), enumerate(MS), enumerate(THETAS)
    ):
        if (i + 2 * j + k) % 3 == 0:
            yield n, m, theta


def main() -> int:
    rows = [
        {"n": n, "m": m, "theta": theta,
         "epsilons": [repr(float(e)) for e in pbm_exact_curve(n, m, theta).epsilons]}
        for n, m, theta in grid()
    ]
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} curves -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
