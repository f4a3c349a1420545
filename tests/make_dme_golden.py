"""Write tests/dme_golden.csv: the dme rows of configs/desk.ini, clipping on.

test_benchmark.py::test_dme_bytes_match_the_golden_csv runs the same sweep
in-process and compares the file string for string, so a change to the
sweep's seeds, draws, decode, moduli or row order shows. The sweep runs
on one worker and with direct encoding, which makes no BLAS call, so the
bytes hold at any BLAS thread count. Rewrite the file only when a change
means to move dme bytes, and name the rows it moves.

    PYTHONPATH=src python tests/make_dme_golden.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

from pbm.benchmark import run_tradeoff, write_records_csv
from pbm.config import load_dme_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
OUT = Path(__file__).with_name("dme_golden.csv")


def golden_config():
    return replace(load_dme_config(CONFIG), clipping=True, threads=1)


def main() -> int:
    records = run_tradeoff(golden_config())
    write_records_csv(records, OUT)
    print(f"{len(records)} rows -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
