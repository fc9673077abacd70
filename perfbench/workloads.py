"""The three workloads: the commands of one session and their output checks.

A check returns the work the command completed (actions scored, lambda
bands evaluated, suite trials run) or raises ``CheckFailed``. Reports are
also compared byte for byte with the first report of the same command in
the run, because the program promises deterministic reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen


class CheckFailed(Exception):
    """A command's exit code or output is wrong."""


@dataclass
class Command:
    args: list[str]                 # CLI arguments after ``python -m electre_score.cli``
    output: Path | None             # the report file; None checks the stdout
    check: Callable[[int, bytes], float]
    notes: dict = field(default_factory=dict)  # what the check saw, for the record


@dataclass
class Workload:
    name: str
    work_unit: str                  # what the throughput metric counts
    commands: Callable[..., list[Command]]
    probe_args: Callable[[gen.Inputs], list[str]]


def _expect_exit(code: int) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}, expected 0")


def evaluate_batch(inputs: gen.Inputs, work: Path, oracle) -> list[Command]:
    facts = inputs.facts
    report = work / "evaluate.json"

    def check(code: int, data: bytes) -> float:
        _expect_exit(code)
        ranges = {a["action"]: a for a in json.loads(data)["actions"]}
        if len(ranges) != len(facts["actions"]):
            raise CheckFailed(f"{len(ranges)} actions reported, "
                              f"{len(facts['actions'])} given")
        undefined = [a for a, r in ranges.items() if r["range"] is None]
        if undefined:
            raise CheckFailed(f"no range for {undefined[:5]}")
        for action in facts["sample"]:
            want = oracle.bounds_oracle(facts["criteria"], facts["actions"][action],
                                        facts["levels"], facts["scores"], facts["lambda"])
            got = (ranges[action]["lower"], ranges[action]["upper"])
            if any(w is None or abs(w - g) > 1e-6 for w, g in zip(want, got)):
                raise CheckFailed(f"{action}: bounds {got}, oracle {want}")
        return float(len(ranges))

    return [Command(
        ["evaluate", str(inputs.files["model"]),
         "--performances", str(inputs.files["performances"]),
         "--lambda", repr(facts["lambda"]), "--output", str(report)],
        report, check)]


def lambda_analysis(inputs: gen.Inputs, work: Path, oracle) -> list[Command]:
    lam = inputs.facts["lambda_star"]
    bands_report = work / "validate.json"
    sweep_report = work / "sweep.json"

    def check_bands(code: int, data: bytes) -> float:
        _expect_exit(code)
        bands = json.loads(data)["basic_assumptions_bands"]
        if not any(not band["violations"] for band in bands):
            raise CheckFailed("no violation-free lambda band")
        if bands[-1]["upper"] != 1.0:
            raise CheckFailed(f"bands end at {bands[-1]['upper']}, not 1")
        return float(len(bands))

    def check_sweep(code: int, data: bytes) -> float:
        _expect_exit(code)
        report = json.loads(data)
        if not any(iv["lower"] < lam <= iv["upper"] for iv in report["intervals"]):
            raise CheckFailed(f"no returned band contains lambda {lam}: "
                              f"{report['intervals']}")
        return float(len(report["breakpoints"]))

    model = str(inputs.files["model"])
    return [
        Command(["validate", model, "--output", str(bands_report)],
                bands_report, check_bands),
        Command(["sweep-lambda", model, str(inputs.files["target"]),
                 "--performances", str(inputs.files["performances"]),
                 "--output", str(sweep_report)],
                sweep_report, check_sweep),
    ]


SUITE_LINE = re.compile(
    r"^(?P<label>\S+): (?P<verdict>PASS|FAIL) \((?P<trials>\d+) trials, "
    r"(?P<failures>\d+) failures, (?P<skipped>\d+) skipped\)$")
# the sigma-invariants suite prints the name of the last profile of its
# last instance instead of its own; the label is recorded, not checked
UNCHECKED_LABELS = {"sigma-invariants"}


def verify_suites(inputs: gen.Inputs, work: Path, oracle) -> list[Command]:
    suites = inputs.facts["suites"]
    trials = inputs.facts["trials"]
    notes: dict = {}

    def check(code: int, data: bytes) -> float:
        _expect_exit(code)
        lines = data.decode().splitlines()
        notes["printed_labels"] = [line.split(":", 1)[0] for line in lines]
        if len(lines) != len(suites):
            raise CheckFailed(f"{len(lines)} suite lines for {len(suites)} suites")
        for suite, line in zip(suites, lines):
            match = SUITE_LINE.match(line)
            if match is None:
                raise CheckFailed(f"unreadable suite line {line!r}")
            if match["label"] != suite and suite not in UNCHECKED_LABELS:
                raise CheckFailed(f"line {line!r} where {suite} was expected")
            if match["verdict"] != "PASS" or int(match["trials"]) != trials:
                raise CheckFailed(f"{suite}: {line!r}, expected PASS over "
                                  f"{trials} trials")
        return float(len(suites) * trials)

    return [Command(["verify", "--config", str(inputs.files["config"]),
                     "--output", str(work / "suites")], None, check, notes)]


def _probe_roles(*roles: str):
    return lambda inputs: [f"{role}={inputs.files[role]}" for role in roles]


WORKLOADS = {
    w.name: w for w in (
        Workload("evaluate-batch", "actions", evaluate_batch,
                 _probe_roles("model", "performances")),
        Workload("lambda-analysis", "bands", lambda_analysis,
                 _probe_roles("model", "performances", "target")),
        Workload("verify-suites", "trials", verify_suites,
                 _probe_roles("config")),
    )
}
