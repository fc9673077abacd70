"""Run one CLI command with each layer's public functions wrapped in spans.

The program is not changed: after the package is imported, every module
attribute that is one of the functions below is replaced by a timing
wrapper. ``from .credibility import credibility`` binds a copy of the
kernel into several modules, so each import site is patched, not only
the defining module. The suite table in ``suites.SUITES`` holds its own
references and is patched too.

Every call is timed as a span and aggregated in memory: per span name
(count, inclusive time, self time) and per parent-child edge (count,
time). The credibility kernel, called up to a hundred thousand times per
command, is kept as an edge only, plus its call count, total time and
number of distinct argument tuples. The aggregates are written as JSON
when the command ends.

    PYTHONPATH=src python3 perfbench/trace_cli.py TRACE.json <cli arguments...>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

PACKAGE = "electre_score"

# (module, function) -> span name; several functions may share a span
SPANS = {
    ("files", "load_model"): "files.load",
    ("files", "load_performances_csv"): "files.load",
    ("files", "load_target_csv"): "files.load",
    ("files", "write_report"): "files.write_report",
    ("model", "validate_model"): "model.validate_model",
    ("refsets", "validate_basic_assumptions"): "refsets.basic_assumptions",
    ("refsets", "check_separability"): "refsets.separability",
    ("refsets", "check_comparability"): "refsets.comparability",
    ("refsets", "classify_action_vs_levels"): "refsets.classify_levels",
    ("scoring", "score_ranges"): "scoring.score_ranges",
    ("sweep", "sweep_lambda"): "sweep.sweep_lambda",
    ("properties", "generate_instance"): "properties.generate",
    ("properties", "check_propositions"): "properties.check",
    ("properties", "check_conformity"): "properties.check",
    ("properties", "check_stability"): "properties.check",
    ("properties", "shrink_instance"): "properties.shrink",
    ("cli", "cmd_evaluate"): "cli.evaluate",
    ("cli", "cmd_validate"): "cli.validate",
    ("cli", "cmd_sweep_lambda"): "cli.sweep-lambda",
    ("cli", "cmd_verify"): "cli.verify",
}
KERNEL = ("credibility", "credibility")


class Tracer:
    """Span stack, per-name totals, parent-child edges and kernel counters."""

    def __init__(self) -> None:
        self.stack: list[list] = []   # open spans: [name, seconds spent in children]
        self.totals: dict[str, dict] = {}
        self.edges: dict[str, list] = {}
        self.kernel_calls = 0
        self.kernel_s = 0.0
        self.pairs: set = set()
        self.counters: dict[str, float] = {}
        self._criteria_ids: dict[int, int] = {}
        self._criteria_keys: dict[tuple, int] = {}
        self._criteria_alive: list = []

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.stack.pop()
                self._close(name, duration, frame[1])
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _close(self, name: str, duration: float, child_s: float) -> None:
        total = self.totals.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        total["count"] += 1
        total["self_s"] += duration - child_s
        # a name nested in itself counts once, at its outermost span
        if all(open_name != name for open_name, _ in self.stack):
            total["total_s"] += duration
        self._edge(name, duration)

    def _edge(self, name: str, duration: float) -> None:
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        edge = self.edges.setdefault(f"{parent[0] if parent else '(root)'} > {name}", [0, 0.0])
        edge[0] += 1
        edge[1] += duration

    def kernel(self, fn):
        @functools.wraps(fn)
        def wrapper(criteria, pa, pb, *rest, **kwargs):
            start = perf_counter()
            result = fn(criteria, pa, pb, *rest, **kwargs)
            duration = perf_counter() - start
            self.kernel_calls += 1
            self.kernel_s += duration
            self._edge(KERNEL[1], duration)
            self.pairs.add((self._criteria_key(criteria), tuple(pa), tuple(pb),
                            rest, tuple(kwargs.items())))
            return result

        return wrapper

    def _criteria_key(self, criteria) -> int:
        key = self._criteria_ids.get(id(criteria))
        if key is None:
            key = self._criteria_keys.setdefault(tuple(criteria), len(self._criteria_keys))
            self._criteria_ids[id(criteria)] = key
            # a live reference keeps the id from being reused by another object
            self._criteria_alive.append(criteria)
        return key

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def report(self, exit_code: int) -> dict:
        return {
            "exit": exit_code,
            "totals": self.totals,
            "edges": {k: {"count": c, "total_s": t} for k, (c, t) in self.edges.items()},
            "kernel": {"calls": self.kernel_calls, "total_s": self.kernel_s,
                       "distinct_pairs": len(self.pairs)},
            "counters": self.counters,
        }


def install(tracer: Tracer):
    """Wrap every traced function at every import site; return the CLI module."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    on_result = {
        "scoring.score_ranges":
            lambda r: tracer.count("scoring.fast_path", int(r.used_fast_path)),
        "sweep.sweep_lambda":
            lambda r: tracer.count("sweep.breakpoints", len(r.breakpoints)),
    }
    wrappers = {}
    for (module, name), span in SPANS.items():
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), name)
        wrappers[id(fn)] = tracer.span(span, fn, on_result.get(span))
    # importlib gives the module even where the package re-exports a
    # function under the module's own name (electre_score.credibility)
    kernel = getattr(importlib.import_module(f"{PACKAGE}.{KERNEL[0]}"), KERNEL[1])
    wrappers[id(kernel)] = tracer.kernel(kernel)

    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    suites = importlib.import_module(f"{PACKAGE}.suites")
    for name, runner in list(suites.SUITES.items()):
        suites.SUITES[name] = tracer.span(f"suites.{name}", runner)
    return cli


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(cli_args)
    with open(trace_path, "w") as fh:
        json.dump(tracer.report(code), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
