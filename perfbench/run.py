"""Benchmark of the electre-score command line.

One workload runs as a closed loop with a single client: one command
session at a time, each command a fresh ``python -m electre_score.cli``
process with ``PYTHONPATH=src``, the next one started only after the
previous one exited. Inputs are generated from ``--seed`` and the program
sees only files. Every command's exit code and output are checked.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics. With ``--trace 1`` traced and untraced sessions alternate, and
the last line carries the per-layer metrics of the traced ones. The
lines before it give every timing with its tail percentile and sample
count, the environment, and the sha256 of every generated input.

    python3 perfbench/run.py --workload evaluate-batch --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the benchmark's directory

import gen  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Command  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
PROGRAM = ROOT / "src" / "electre_score" / "cli.py"
ORACLE = ROOT / "tests" / "oracle.py"
MIN_SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 60.0
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

SUITE_NAMES = gen.VERIFY_SUITES
COMMAND_NAMES = ("evaluate", "validate", "sweep-lambda", "verify")
# per-layer metric -> span whose inclusive time it reports
SPAN_TIMES = {
    "refsets.basic_assumptions_s": "refsets.basic_assumptions",
    "refsets.separability_s": "refsets.separability",
    "refsets.comparability_s": "refsets.comparability",
    "refsets.classify_levels_s": "refsets.classify_levels",
    "scoring.score_ranges_s": "scoring.score_ranges",
    "sweep.sweep_lambda_s": "sweep.sweep_lambda",
    "properties.generate_s": "properties.generate",
    "properties.check_s": "properties.check",
    "properties.shrink_s": "properties.shrink",
    **{f"suites.{s}_s": f"suites.{s}" for s in SUITE_NAMES},
    "files.load_s": "files.load",
    "files.write_report_s": "files.write_report",
    "model.validate_model_s": "model.validate_model",
}
# counts that must repeat exactly between traced sessions
TRACE_COUNTS = ("credibility.calls", "credibility.distinct_pairs",
                "refsets.basic_assumptions_calls", "sweep.breakpoints")
PER_LAYER = {
    "credibility.calls": "count",
    "credibility.distinct_pairs": "count",
    "credibility.calls_per_distinct_pair": "calls/pair",
    "credibility.self_s": "s",
    "credibility.us_per_call": "us",
    "refsets.basic_assumptions_calls": "count",
    "scoring.fast_path": "flag",
    "sweep.breakpoints": "count",
    **{name: "s" for name in SPAN_TIMES},
    **{f"cli.{c}.self_s": "s" for c in COMMAND_NAMES},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


@dataclass
class Outcome:
    """One finished command."""

    wall_s: float
    maxrss_kb: int
    work: float = 0.0
    error: str | None = None
    trace: dict | None = None


class Spawner:
    """Client of spawner.py, which starts every measured process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "env": self.env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout_s": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    xs = sorted(values)
    out = {"median": statistics.median(xs) if xs else None, "n": len(xs), "tail": None,
           "samples": list(values)}
    if len(xs) > 10:
        rank = len(xs) - 10  # nearest rank with exactly ten samples above it
        out["tail"] = {"percentile": round(100 * rank / len(xs), 1),
                       "value": xs[rank - 1]}
    return out


class Bench:
    def __init__(self, args, work: Path, spawner: Spawner, oracle) -> None:
        self.args = args
        self.work = work
        self.spawner = spawner
        self.workload = WORKLOADS[args.workload]
        self.inputs = gen.GENERATORS[args.workload](args.seed, work, oracle)
        self.commands: list[Command] = self.workload.commands(self.inputs, work, oracle)
        self.first_digest: dict[int, str] = {}
        self.verdicts: dict[tuple, tuple[float, str | None]] = {}
        self.setup: list[float] = []
        self.untraced: list[list[Outcome]] = []
        self.traced: list[list[Outcome]] = []
        self.measured_s = 0.0

    def probe(self) -> float:
        """Seconds from process start to CLI imported and inputs parsed."""
        out, err = self.work / "probe.out", self.work / "probe.err"
        reply = self.spawner.run(
            [sys.executable, str(HERE / "probe.py"),
             *self.workload.probe_args(self.inputs)], out, err)
        try:
            if reply["exit"] != 0:
                raise ValueError(f"exit code {reply['exit']}")
            return float(out.read_text().strip()) - reply["start"]
        except (OSError, ValueError) as exc:
            raise BenchError(f"set-up probe failed ({exc}): "
                             f"{err.read_text(errors='replace')[-2000:]}") from exc

    def _verdict(self, index: int, command: Command, code: int, data: bytes) -> float:
        digest = hashlib.sha256(data).hexdigest()
        first = self.first_digest.setdefault(index, digest)
        if digest != first:
            raise CheckFailed("output differs from this command's first output")
        key = (index, code, digest)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = (command.check(code, data), None)
            except CHECK_ERRORS as exc:
                self.verdicts[key] = (0.0, f"{type(exc).__name__}: {exc}")
        work, error = self.verdicts[key]
        if error is not None:
            raise CheckFailed(error)
        return work

    def run_command(self, index: int, command: Command, traced: bool) -> Outcome:
        stdout = self.work / f"cmd{index}.out"
        stderr = self.work / f"cmd{index}.err"
        trace_path = self.work / f"cmd{index}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(trace_path)]
        else:
            argv = [sys.executable, "-m", "electre_score.cli"]
        for stale in (command.output, trace_path):
            if stale is not None:
                stale.unlink(missing_ok=True)
        reply = self.spawner.run(argv + command.args, stdout, stderr)
        outcome = Outcome(reply["wall_s"], reply["maxrss_kb"])
        try:
            data = (command.output or stdout).read_bytes()
            outcome.work = self._verdict(index, command, reply["exit"], data)
            if traced:
                outcome.trace = json.loads(trace_path.read_text())
        except CHECK_ERRORS as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    def measure(self) -> None:
        self.probe()  # warms the file and bytecode caches; not reported
        trace = bool(self.args.trace)
        start = time.perf_counter()
        while True:
            if not trace:
                self.setup.append(self.probe())
            traced = trace and len(self.traced) <= len(self.untraced)
            session = [self.run_command(i, c, traced) for i, c in enumerate(self.commands)]
            (self.traced if traced else self.untraced).append(session)
            self.measured_s = time.perf_counter() - start
            if self.measured_s >= self.args.seconds and (
                    not trace or (self.traced and self.untraced)):
                break
        while not trace and len(self.setup) < MIN_SETUP_PROBES:
            self.setup.append(self.probe())

    # -- metrics ---------------------------------------------------------

    @staticmethod
    def session_wall(session: list[Outcome]) -> float:
        return sum(o.wall_s for o in session)

    def end_to_end(self) -> tuple[dict, dict]:
        sessions = self.untraced
        walls = [self.session_wall(s) for s in sessions]
        rss = [max(o.maxrss_kb for o in s) / 1024 for s in sessions]
        rates = [sum(o.work for o in s) / wall for s, wall in zip(sessions, walls)]
        stats = {
            "wall_s": summary(walls),
            "setup_s": summary(self.setup),
            "peak_rss_mb": summary(rss),
            f"{self.workload.work_unit}_per_s": summary(rates),
        }
        for i, command in enumerate(self.commands):
            stats[f"{command.args[0]}.wall_s"] = summary([s[i].wall_s for s in sessions])
        values = {
            "wall_s": stats["wall_s"]["median"],
            "setup_s": stats["setup_s"]["median"],
            "peak_rss_mb": stats["peak_rss_mb"]["median"],
            "work_per_s": stats[f"{self.workload.work_unit}_per_s"]["median"],
        }
        return values, stats

    @staticmethod
    def layer_values(session: list[Outcome]) -> dict[str, float]:
        """Per-layer numbers of one traced session, summed over its commands."""
        m = dict.fromkeys(PER_LAYER, 0.0)
        for outcome in session:
            trace = outcome.trace
            totals = trace["totals"]
            kernel = trace["kernel"]
            m["credibility.calls"] += kernel["calls"]
            m["credibility.distinct_pairs"] += kernel["distinct_pairs"]
            m["credibility.self_s"] += kernel["total_s"]
            m["refsets.basic_assumptions_calls"] += (
                totals.get("refsets.basic_assumptions", {}).get("count", 0))
            for counter in ("scoring.fast_path", "sweep.breakpoints"):
                m[counter] += trace["counters"].get(counter, 0)
            for metric, span in SPAN_TIMES.items():
                m[metric] += totals.get(span, {}).get("total_s", 0.0)
            for command in COMMAND_NAMES:
                m[f"cli.{command}.self_s"] += totals.get(f"cli.{command}", {}).get("self_s", 0.0)
        if m["credibility.distinct_pairs"]:
            m["credibility.calls_per_distinct_pair"] = (
                m["credibility.calls"] / m["credibility.distinct_pairs"])
        if m["credibility.calls"]:
            m["credibility.us_per_call"] = 1e6 * m["credibility.self_s"] / m["credibility.calls"]
        return m

    def per_layer(self) -> tuple[dict, dict]:
        complete = [s for s in self.traced if all(o.trace is not None for o in s)]
        rows = [self.layer_values(s) for s in complete]
        values = {name: statistics.median(r[name] for r in rows) if rows else 0.0
                  for name in PER_LAYER}
        traced_wall = statistics.median(self.session_wall(s) for s in self.traced)
        untraced_wall = statistics.median(self.session_wall(s) for s in self.untraced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        last = complete[-1] if complete else []
        stats = {
            "traced_sessions": len(self.traced),
            "untraced_sessions": len(self.untraced),
            "counts_repeat": {c: len({r[c] for r in rows}) <= 1 for c in TRACE_COUNTS},
            "spans": [o.trace["totals"] for o in last],
            "edges": [o.trace["edges"] for o in last],
        }
        return values, stats

    def report(self) -> tuple[list[str], dict, dict]:
        outcomes = [o for s in self.untraced + self.traced for o in s]
        failed = [o for o in outcomes if o.error is not None]
        if self.args.trace:
            values, stats = self.per_layer()
            units = PER_LAYER
        else:
            values, stats = self.end_to_end()
            units = END_TO_END
        detail = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "measured_s": self.measured_s,
            "load": "closed loop, 1 client, 1 command at a time",
            "environment": environment(self.args.seed),
            "inputs_sha256": self.inputs.sha256,
            "commands": {
                "attempted": len(outcomes),
                "failed": len(failed),
                "failed_share": len(failed) / len(outcomes),
                "errors": sorted({o.error for o in failed})[:5],
            },
            "notes": {k: v for c in self.commands for k, v in c.notes.items()},
            "stats": stats,
        }
        lines = [f"perfbench {self.args.workload}: seed {self.args.seed}, "
                 f"trace {self.args.trace}, {self.measured_s:.1f} s measured, "
                 f"{len(outcomes)} commands, {len(failed)} failed "
                 f"(failed_share {len(failed) / len(outcomes):.3f})"]
        if not self.args.trace:
            for name, s in stats.items():
                tail = ("no percentile has 10 samples beyond" if s["tail"] is None else
                        f"p{s['tail']['percentile']:g} {s['tail']['value']:.6g}")
                unit = ("1/s" if name.endswith("_per_s") else "MB" if name.endswith("_mb")
                        else "s")
                lines.append(f"  {name:<24} {unit:<4} median {s['median']:.6g}  {tail}  "
                             f"n={s['n']}")
        else:
            for name, value in values.items():
                lines.append(f"  {name:<40} {value:.6g} {units[name]}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        result = {"correct": not failed, "attempted": len(outcomes),
                  "failed": len(failed), "metrics": metrics}
        return lines, detail, result


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _package_version("numpy"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PROGRAM.parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_oracle():
    """The repository's independent reference implementation, imported read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting sessions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (PROGRAM, ORACLE) if not p.is_file()]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    oracle = load_oracle()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Spawner() as spawner:
            bench = Bench(args, work, spawner, oracle)
            bench.measure()
        lines, detail, result = bench.report()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    print("\n".join(lines))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
