"""Command-line surface.

Commands: ``evaluate`` (score ranges), ``validate`` (structural checks),
``sigma`` (full credibility matrix as CSV), ``sweep-lambda`` (exact
cutting-level bands for a relation target), ``verify`` (randomized
property suites).

Exit codes: 0 ok; 2 parse/usage error (also an output path that
cannot be written, or a stdout its reader closed); 3 validation error
(also a threshold that fails at a pair of values); 4 comparability
failure; 5 verification failure (a suite found counterexamples, or no
cutting level reproduces the sweep target).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .credibility import ThresholdError, compile_criteria, sigma_pair
from .files import (
    LoadedModel,
    ParseError,
    load_model,
    load_performances_csv,
    load_target_csv,
    reject_repeated_keys,
    write_report,
)
from .model import PerformanceTable, ValidationReport, check_cutting_level, validate_model

# refsets, scoring, sweep and the verify suites (properties, random) are
# imported inside the commands that run them: every command is its own
# short process, and the others should not pay to load them

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPARABILITY = 4
EXIT_VERIFY = 5

# the documented suites; sigma-invariants-veto and variable-thresholds
# run only when a --config names them
DEFAULT_SUITES = (
    "dominance-implications",
    "sigma-invariants",
    "propositions",
    "conformity",
    "stability",
    "deck-example",
)


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write_output(output: str | Path | None, emit) -> None:
    """Stream a computed report to ``output``, or to stdout when there is none.

    ``emit`` writes the report to the text stream it is given, so the
    file is opened only once the report is computed. If ``emit`` fails
    partway (an encoding error, a full disk), the partial file is
    deleted, so no truncated report is left behind; stdout cannot take
    back what it was given.
    """
    if output is None:
        emit(sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, where main reports it
        return
    path = Path(output)
    try:
        out = path.open("w")
    except OSError as exc:
        raise _Exit(EXIT_PARSE, f"cannot write {output}: {exc.strerror or exc}")
    try:
        with out:
            emit(out)
    except BaseException as exc:
        if path.is_file():  # never a device such as /dev/null
            path.unlink()
        if isinstance(exc, OSError):
            raise _Exit(EXIT_PARSE, f"cannot write {output}: {exc.strerror or exc}")
        raise


def _write_report(output: str | Path | None, report: dict) -> None:
    """A JSON report through ``_write_output``, streamed in chunks."""

    def emit(out) -> None:
        write_report(report, lambda chunk: out.write("".join(chunk)))

    _write_output(output, emit)


def _plain_float(text: str) -> float:
    """``float`` without the digit-group underscores the CSV reader refuses."""
    if "_" in text:
        raise ValueError(text)
    return float(text)


_plain_float.__name__ = "float"  # argparse names the type in its message


def _load_inputs(args) -> tuple[LoadedModel, PerformanceTable | None]:
    model = load_model(args.model)
    table = None
    if args.performances:
        table = load_performances_csv(args.performances, model.criteria)
    elif model.embedded_performances:
        table = PerformanceTable(model.criteria, model.embedded_performances)
    return model, table


def _resolve_lambda(args, model: LoadedModel, required: bool = True) -> float | None:
    lam = args.cutting_level if args.cutting_level is not None else model.lam
    if lam is None and required:
        raise _Exit(EXIT_PARSE, "no cutting level: pass --lambda or set it in the model file")
    try:
        return lam if lam is None else check_cutting_level(lam)
    except ValueError as exc:
        raise _Exit(EXIT_PARSE, str(exc))


def _require_valid_model(model: LoadedModel, table) -> ValidationReport:
    report = validate_model(table, model.refs)
    if not report.ok:
        raise _Exit(
            EXIT_VALIDATION, "model validation failed: " + "; ".join(report.errors)
        )
    return report


def cmd_evaluate(args) -> int:
    from .refsets import SetClassification, is_comparable
    from .scoring import BasicAssumptionsViolatedError, score_ranges

    model, table = _load_inputs(args)
    if table is None:
        raise _Exit(EXIT_PARSE, "evaluate needs a performance table (CSV or embedded)")
    lam = _resolve_lambda(args, model)
    validation = _require_valid_model(model, table)

    try:
        result = score_ranges(
            table, model.refs, model.criteria, lam, force=args.force
        )
    except BasicAssumptionsViolatedError as exc:
        raise _Exit(
            EXIT_VALIDATION,
            str(exc) + " (use --force to score anyway)",
        )
    if result.violations:
        print("warning: scoring despite basic-assumption violations", file=sys.stderr)

    level_labels = [f"B{k + 1}" for k in range(len(model.refs.sets))]
    text = {rel: rel.value for rel in SetClassification}
    comparability = {
        rng.action: is_comparable(relations)
        for rng, relations in zip(result.ranges, result.relations)
    }
    # one record at a time, each made as the writer reaches it
    actions_out = (
        {
            "action": action,
            "lower": lower,
            "upper": upper,
            "lower_level": None if lo is None else lo + 1,
            "upper_level": None if hi is None else hi + 1,
            "range": None if lower is None or upper is None else f"]{lower:.6f}, {upper:.6f}[",
            "reason": reason,
            "classifications": dict(zip(level_labels, map(text.__getitem__, relations))),
        }
        for (action, lower, upper, lo, hi, reason), relations in zip(result.ranges, result.relations)
    )

    report = {
        "command": "evaluate",
        "lambda": lam,
        "reference_scores": list(model.refs.scores),
        "profile_names": [list(level) for level in model.refs.profile_names()],
        "actions": actions_out,
        "comparability": comparability,
        "findings": list(result.findings),
        "validation_warnings": list(validation.warnings) + list(model.warnings),
        "used_fast_path": result.used_fast_path,
    }
    _write_report(args.output, report)
    # a comparable action has both bounds (AP at the bottom level, SP at the top)
    failed = [a for a, ok in comparability.items() if not ok]
    if failed:
        print("comparability failure for actions: " + ", ".join(sorted(failed)), file=sys.stderr)
        return EXIT_COMPARABILITY
    return EXIT_OK


def cmd_validate(args) -> int:
    from .refsets import ProfileTable, check_comparability

    model, table = _load_inputs(args)
    # without a performance table the criteria are checked on the profiles
    validation = validate_model(
        table if table is not None else PerformanceTable.from_rows(model.criteria, {}),
        model.refs,
    )

    report: dict = {
        "command": "validate",
        "model_errors": list(validation.errors),
        "model_warnings": list(validation.warnings) + list(model.warnings),
    }
    invalid = bool(validation.errors)
    incomparable = False

    lam = _resolve_lambda(args, model, required=False)
    # the structural checks read credibilities, which an invalid model
    # (zero weights, q > p, veto <= p, ...) cannot give
    profiles = None if invalid else ProfileTable(compile_criteria(model.criteria), model.refs)
    if profiles is not None and lam is not None:
        [violations] = profiles.basic_assumption_violations([lam])
        report["basic_assumptions"] = {"lambda": lam, "violations": violations}
        invalid = bool(violations)
        report["separability"] = _separability_json(profiles, lam)
        if table is not None:
            comparability = check_comparability(table, model.refs, model.criteria, lam)
            report["comparability"] = comparability
            incomparable = not all(comparability.values())
    elif profiles is not None:
        # no cutting level: report the bands of ]0.5, 1] on which the
        # basic assumptions hold, cut at the profile-pair credibilities
        ends = profiles.breakpoints()
        report["basic_assumptions_bands"] = [
            {"lower": lower, "upper": upper, "violations": violations}
            for lower, upper, violations in zip(
                [0.5, *ends], ends, profiles.basic_assumption_violations(ends)
            )
        ]
        report["separability"] = _separability_json(profiles, 1.0)

    _write_report(args.output, report)
    if invalid:
        return EXIT_VALIDATION
    if incomparable:
        return EXIT_COMPARABILITY
    return EXIT_OK


def _separability_json(profiles: ProfileTable, lam: float) -> dict:
    pairs = profiles.separability(lam)
    report: dict = {"pairs": [
        {"lower_level": lo + 1, "higher_level": hi + 1, **flags._asdict()}
        for (lo, hi), flags in pairs.items()
    ]}
    # a soft hypothesis over all pairs holds where it holds for every pair
    for key in ("soft_dominance_primal", "soft_dominance_dual",
                "soft_preference_primal", "soft_preference_dual"):
        report["all_" + key] = all(getattr(flags, key) for flags in pairs.values())
    return report


def cmd_sigma(args) -> int:
    model, table = _load_inputs(args)
    if table is None:
        raise _Exit(EXIT_PARSE, "sigma needs a performance table (CSV or embedded)")
    _require_valid_model(model, table)
    vectors = dict(table.rows)
    for name, _, _, vec in model.refs.flat_profiles():
        vectors[name] = vec
    names = list(vectors)
    kernel = compile_criteria(model.criteria)
    # each unordered pair once, the diagonal included
    sigma = [[0.0] * len(names) for _ in names]
    for i, a in enumerate(names):
        for j in range(i, len(names)):
            sigma[i][j], sigma[j][i] = sigma_pair(kernel, vectors[a], vectors[names[j]])

    def emit(out) -> None:
        writer = csv.writer(out)
        writer.writerow(["sigma"] + names)
        for name, row in zip(names, sigma):
            writer.writerow([name] + [f"{s:.6f}" for s in row])

    _write_output(args.output, emit)
    return EXIT_OK


def cmd_sweep_lambda(args) -> int:
    from .sweep import sweep_lambda

    model, table = _load_inputs(args)
    if table is None:
        raise _Exit(EXIT_PARSE, "sweep-lambda needs a performance table")
    _require_valid_model(model, table)
    target = load_target_csv(args.target)
    try:
        result = sweep_lambda(
            table, model.refs, model.criteria, target,
            dont_care_blanks=args.dont_care_blanks,
        )
    except KeyError as exc:
        raise _Exit(EXIT_PARSE, f"target table: {exc}")

    report = {
        "command": "sweep-lambda",
        "dont_care_blanks": args.dont_care_blanks,
        "intervals": [
            {"lower": iv.lower, "upper": iv.upper,
             "text": f"]{iv.lower:.6f}, {iv.upper:.6f}]"}
            for iv in result.intervals
        ],
        "breakpoints": list(result.breakpoints),
        "closest_band": {
            "lower": result.best_band.lower,
            "upper": result.best_band.upper,
            "mismatched_pairs": [list(p) for p in result.mismatches_best],
        },
    }
    _write_report(args.output, report)
    if not result.feasible:
        print(
            "no cutting level reproduces the target table; closest band "
            f"]{result.best_band.lower:.6f}, {result.best_band.upper:.6f}] misses "
            f"{len(result.mismatches_best)} pair(s)",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _config_int(config: dict, key: str, default: int) -> int:
    value = config.get(key, default)
    # bool is an int subclass; a JSON true is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise _Exit(EXIT_PARSE, f"config {key!r} must be an integer, got {value!r}")
    return value


def cmd_verify(args) -> int:
    from .suites import CHECKED, SUITES, run_suites

    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"),
                                object_pairs_hook=reject_repeated_keys)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers invalid JSON, a repeated key and bytes that
            # are not UTF-8; RecursionError, JSON nested too deeply
            raise _Exit(EXIT_PARSE, f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise _Exit(EXIT_PARSE, f"config {args.config} must be a JSON object")
        unknown = [key for key in config if key not in ("suites", "trials", "seed")]
        if unknown:
            raise _Exit(EXIT_PARSE, f"unknown config key {unknown[0]!r}")
    trials = args.trials if args.trials is not None else _config_int(config, "trials", 500)
    seed = args.seed if args.seed is not None else _config_int(config, "seed", 1)
    if trials < 0:
        raise _Exit(EXIT_PARSE, f"trial count must be >= 0, got {trials}")
    suite_names = config.get("suites", DEFAULT_SUITES)
    if not isinstance(suite_names, (list, tuple)) or not all(
        isinstance(name, str) for name in suite_names
    ):
        raise _Exit(EXIT_PARSE, f"config 'suites' must be a list of names, got {suite_names!r}")
    unknown = [name for name in suite_names if name not in SUITES and name not in CHECKED]
    if unknown:
        raise _Exit(EXIT_PARSE, f"unknown suite {unknown[0]!r}")

    out_dir = Path(args.output) if args.output else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _Exit(EXIT_PARSE, f"cannot write {out_dir}: {exc.strerror or exc}")

    any_failure = False
    for report in run_suites(suite_names, trials, seed):
        any_failure = any_failure or not report.passed
        print(
            f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
            f"({report.trials} trials, {len(report.failures)} failures, "
            f"{report.skipped} skipped)", flush=True,
        )
        if out_dir is not None:
            _write_report(
                out_dir / f"{report.name}.json",
                {**report.as_dict(), "passed": report.passed},
            )
    return EXIT_VERIFY if any_failure else EXIT_OK


COMMANDS = ("evaluate", "validate", "sigma", "sweep-lambda", "verify")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given one of ``COMMANDS``, only its subparser.

    A command parses with its own subparser, so ``main`` builds only
    that one. The top-level usage still names every command, so each
    message, help text included, is the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="electre-score",
        description="Outranking-based score-range assignment.",
    )
    names = (command,) if command in COMMANDS else COMMANDS
    # one subparser prints the usage line the full parser derives from its choices
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None,
    )

    def common(p, cutting_level=False):
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--performances", help="performance table (CSV)", default=None)
        # only evaluate and validate read a cutting level
        if cutting_level:
            p.add_argument("--lambda", dest="cutting_level", type=_plain_float, default=None,
                           help="cutting level in ]0.5, 1]")
        p.add_argument("--output", default=None, help="write the report here")

    if "evaluate" in names:
        p_eval = sub.add_parser("evaluate", help="assign score ranges to all actions")
        common(p_eval, cutting_level=True)
        p_eval.add_argument("--force", action="store_true",
                            help="score even if the basic assumptions fail")
        p_eval.set_defaults(func=cmd_evaluate)

    if "validate" in names:
        p_val = sub.add_parser("validate", help="structural checks on a model")
        common(p_val, cutting_level=True)
        p_val.set_defaults(func=cmd_validate)

    if "sigma" in names:
        p_sig = sub.add_parser("sigma", help="dump the full credibility matrix as CSV")
        common(p_sig)
        p_sig.set_defaults(func=cmd_sigma)

    if "sweep-lambda" in names:
        p_sweep = sub.add_parser(
            "sweep-lambda", help="find cutting-level bands matching a relation target"
        )
        common(p_sweep)
        p_sweep.add_argument("target", help="relation target table (CSV)")
        p_sweep.add_argument(
            "--dont-care-blanks", action="store_true",
            help="blank cells constrain nothing instead of demanding no preference",
        )
        p_sweep.set_defaults(func=cmd_sweep_lambda)

    if "verify" in names:
        p_verify = sub.add_parser("verify", help="run the randomized property suites")
        p_verify.add_argument("--config", default=None, help="suite config (JSON)")
        p_verify.add_argument("--trials", type=int, default=None)
        p_verify.add_argument("--seed", type=int, default=None)
        p_verify.add_argument("--output", default=None, help="directory for suite reports")
        p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit; let that go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ThresholdError as exc:
        # validate_model checks each threshold at single values; a pair
        # can still give, say, q > p when q and p read different values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
