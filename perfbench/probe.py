"""Set-up probe: import the CLI, parse the workload's input files, print the clock.

The harness takes the printed ``time.perf_counter()`` minus the moment it
started this process as the set-up time. On Linux that clock is
CLOCK_MONOTONIC, which is shared by all processes.

    PYTHONPATH=src python3 perfbench/probe.py model=M performances=P target=T config=C
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import electre_score.cli  # noqa: F401  (the import is part of what is timed)
from electre_score import files


def main(argv: list[str]) -> int:
    paths = dict(arg.split("=", 1) for arg in argv)
    if "model" in paths:
        model = files.load_model(paths["model"])
        if "performances" in paths:
            files.load_performances_csv(paths["performances"], model.criteria)
    if "target" in paths:
        files.load_target_csv(paths["target"])
    if "config" in paths:
        json.loads(Path(paths["config"]).read_text())
    print(repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
