"""File formats: JSON model files, CSV performance tables, CSV relation
targets, and deterministic JSON report writing.

Reports round every real value to six decimals as they are written, so
identical inputs produce byte-identical files. Every number read must be
finite: Python's ``json`` and ``float`` accept NaN and Infinity, which
would make every comparison in the engine silently false.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .model import (
    Criterion,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
)


class ParseError(ValueError):
    """Unreadable or schema-invalid input file."""


def _number(raw: Any, where: str) -> float:
    """A finite float from a JSON number, or a ParseError naming it.

    ``float`` would also read a JSON ``true`` or ``"4"``; neither is a
    number, and bool is an int subclass.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{where}: not a number: {raw!r}")
    return _cell_number(raw, where)


def _cell_number(raw: Any, where: str) -> float:
    """A finite float from a number or the text of a CSV cell.

    ``float`` also reads digit-group underscores, so a typo such as
    ``1_3000`` would load as 13000; cell text with ``_`` is refused.
    """
    if isinstance(raw, str) and "_" in raw:
        raise ParseError(f"{where}: not a number: {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: not a number: {raw!r}") from exc
    except OverflowError as exc:
        # a JSON integer beyond the float range
        raise ParseError(f"{where}: non-finite number (beyond the float range)") from exc
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite number {raw!r}")
    return value


def _string(raw: Any, where: str) -> str:
    """A JSON string, or a ParseError naming it; ``str`` would name a
    criterion ``None`` after a JSON ``null``."""
    if not isinstance(raw, str):
        raise ParseError(f"{where}: not a string: {raw!r}")
    return raw


def _threshold_from_json(raw: Any, where: str) -> ThresholdSpec:
    if isinstance(raw, (int, float)):
        return ThresholdSpec(_number(raw, where))
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: threshold must be a number or an object")
    try:
        mode = ThresholdMode(raw.get("mode", "constant"))
    except ValueError as exc:
        raise ParseError(f"{where}: unknown threshold mode {raw.get('mode')!r}") from exc
    try:
        return ThresholdSpec(
            _number(raw["intercept"], f"{where}.intercept"),
            _number(raw.get("slope", 0.0), f"{where}.slope"),
            mode,
        )
    except KeyError as exc:
        raise ParseError(f"{where}: threshold needs an 'intercept'") from exc
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _criterion_from_json(raw: Any, index: int) -> Criterion:
    if not isinstance(raw, dict):
        raise ParseError(f"criteria[{index}]: expected an object")
    where = f"criteria[{index}]"
    try:
        name = _string(raw["name"], f"{where}.name")
        direction = Direction(raw["direction"])
        weight = _number(raw["weight"], f"{where}.weight")
        indifference = _threshold_from_json(raw["indifference"], f"{where}.indifference")
        preference = _threshold_from_json(raw["preference"], f"{where}.preference")
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    veto = raw.get("veto")
    veto_spec = None if veto is None else _threshold_from_json(veto, f"{where}.veto")
    # bool() would make any non-empty string, "false" included, ordinal
    ordinal = raw.get("ordinal", False)
    if not isinstance(ordinal, bool):
        raise ParseError(f"{where}.ordinal: not a boolean: {ordinal!r}")
    try:
        return Criterion(
            name, direction, weight, indifference, preference, veto_spec, ordinal=ordinal,
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


class LoadedModel(NamedTuple):
    """Parsed model file: criteria, reference structure, optional extras."""

    criteria: tuple[Criterion, ...]
    refs: ReferenceStructure
    lam: float | None
    embedded_performances: Mapping[str, tuple[float, ...]] | None
    warnings: tuple[str, ...]


def load_model(path: str | Path) -> LoadedModel:
    """Parse a JSON model file into domain objects.

    Reference-set scores may be given per set, or computed from a
    deck-of-cards block; explicit scores win over the deck with a
    warning when both are present and disagree.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"),
                         object_pairs_hook=reject_repeated_keys)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"model file {path} is not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # invalid JSON, an integer literal too long to convert, deep nesting
        raise ParseError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        return _model_from_json(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def reject_repeated_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``object_pairs_hook`` for ``json.loads``: a repeated key is a ParseError.

    Plain ``json`` keeps the last of repeated keys, silently dropping
    the others.
    """
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated key {key!r} in one object")
        obj[key] = value
    return obj


def _model_from_json(raw: Any) -> LoadedModel:
    if not isinstance(raw, dict):
        raise ParseError("model file must contain a JSON object")

    raw_criteria = raw.get("criteria")
    if not isinstance(raw_criteria, list) or not raw_criteria:
        raise ParseError("model file needs a nonempty 'criteria' array")
    criteria = tuple(_criterion_from_json(c, i) for i, c in enumerate(raw_criteria))

    raw_sets = raw.get("reference_sets")
    if not isinstance(raw_sets, list) or len(raw_sets) < 2:
        raise ParseError("model file needs at least two entries in 'reference_sets'")

    warnings: list[str] = []
    deck_scores = None
    if "deck_of_cards" in raw:
        # scoring (and fractions) load only for a model that converts a deck
        from .scoring import DeckOfCards, deck_of_cards_scores

        deck_raw = raw["deck_of_cards"]
        try:
            blank_cards = deck_raw["blank_cards"]
            if not isinstance(blank_cards, list):
                raise ParseError("deck_of_cards.blank_cards: expected an array")
            for i, e in enumerate(blank_cards):
                # bool is an int subclass, and int() would truncate 1.5 or read "2"
                if isinstance(e, bool) or not isinstance(e, int):
                    raise ParseError(f"deck_of_cards.blank_cards[{i}]: not an integer: {e!r}")
            anchors = tuple(
                _number(x, f"deck_of_cards.anchors[{i}]")
                for i, x in enumerate(deck_raw.get("anchors", (0.0, 100.0)))
            )
            deck = DeckOfCards(tuple(blank_cards), anchors)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"deck_of_cards block: {exc}") from exc
        if deck.levels != len(raw_sets):
            raise ParseError(
                f"deck_of_cards implies {deck.levels} levels but "
                f"{len(raw_sets)} reference sets are given"
            )
        deck_scores = deck_of_cards_scores(deck)

    explicit = [s.get("score") if isinstance(s, dict) else None for s in raw_sets]
    have_explicit = all(s is not None for s in explicit)
    if have_explicit:
        scores = [
            _number(e, f"reference_sets[{i}].score") for i, e in enumerate(explicit)
        ]
        if deck_scores is not None and any(
            abs(e - d) > 1e-9 for e, d in zip(scores, deck_scores)
        ):
            warnings.append(
                "explicit reference scores differ from the deck-of-cards "
                "computation; explicit scores are used"
            )
    elif deck_scores is not None:
        if any(e is not None for e in explicit):
            # the deck would silently replace the scores that are given
            raise ParseError(
                f"reference_sets[{explicit.index(None)}]: no 'score', though other "
                "sets give one; give every set a score, or none to use the deck"
            )
        scores = deck_scores
    else:
        raise ParseError(
            "reference sets need 'score' fields or a 'deck_of_cards' block"
        )

    sets = []
    for i, (raw_set, score) in enumerate(zip(raw_sets, scores)):
        if not isinstance(raw_set, dict) or not isinstance(raw_set.get("profiles"), list):
            raise ParseError(f"reference_sets[{i}]: needs a 'profiles' array")
        if not isinstance(raw_set.get("names", []), list):
            raise ParseError(f"reference_sets[{i}]: 'names' must be an array")
        profiles = []
        for j, vec in enumerate(raw_set["profiles"]):
            if not isinstance(vec, list) or len(vec) != len(criteria):
                raise ParseError(
                    f"reference_sets[{i}].profiles[{j}]: expected "
                    f"{len(criteria)} values"
                )
            profiles.append(tuple(
                _number(x, f"reference_sets[{i}].profiles[{j}][{c}]")
                for c, x in enumerate(vec)
            ))
        names = tuple(
            _string(n, f"reference_sets[{i}].names[{j}]")
            for j, n in enumerate(raw_set.get("names", ()))
        )
        try:
            sets.append(ReferenceSet(score, tuple(profiles), names))
        except ValueError as exc:
            raise ParseError(f"reference_sets[{i}]: {exc}") from exc
    try:
        refs = ReferenceStructure(tuple(sets))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    lam = raw.get("lambda")
    if lam is not None:
        lam = _number(lam, "lambda")

    embedded = None
    if "performances" in raw:
        if not isinstance(raw["performances"], dict):
            raise ParseError("'performances' must be an object of action rows")
        embedded = {}
        for action, vec in raw["performances"].items():
            if not action.strip():
                raise ParseError(f"performances: empty action id {action!r}")
            if not isinstance(vec, list) or len(vec) != len(criteria):
                raise ParseError(
                    f"performances[{action!r}]: expected {len(criteria)} values"
                )
            embedded[str(action)] = tuple(
                _number(x, f"performances[{action!r}][{c}]") for c, x in enumerate(vec)
            )

    return LoadedModel(criteria, refs, lam, embedded, tuple(warnings))


def _read_csv(path: str | Path, what: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # a NUL byte, an oversized field
        raise ParseError(f"{what} {path}: {exc}") from exc


def load_performances_csv(path: str | Path, criteria) -> PerformanceTable:
    """Read a performance table: header row of criterion names, id first."""
    rows = _read_csv(path, "performance file")
    if not rows:
        raise ParseError(f"performance file {path} is empty")
    header = rows[0]
    names = [c.name for c in criteria]
    if header[1:] != names:
        raise ParseError(
            f"performance header {header[1:]} does not match criteria {names}"
        )
    table_rows: dict[str, tuple[float, ...]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(names) + 1:
            raise ParseError(
                f"{path}:{line_no}: expected {len(names) + 1} cells, got {len(row)}"
            )
        action = row[0].strip()
        if not action:
            raise ParseError(f"{path}:{line_no}: empty action id")
        values = tuple(
            _cell_number(cell, f"{path}:{line_no}: column {name!r}")
            for name, cell in zip(names, row[1:])
        )
        if action in table_rows:
            raise ParseError(f"{path}:{line_no}: duplicate action {action!r}")
        table_rows[action] = values
    if not table_rows:
        raise ParseError(f"performance file {path} has no action rows")
    return PerformanceTable(tuple(criteria), table_rows)


def load_target_csv(path: str | Path) -> dict[tuple[str, str], str]:
    """Read a relation target: rows = profiles, columns = actions.

    Cells: ``a`` (action strictly preferred to the profile), ``b``
    (profile strictly preferred to the action), empty (neither).
    """
    rows = _read_csv(path, "target file")
    if not rows or len(rows[0]) < 2:
        raise ParseError(f"target file {path} needs a header with action columns")
    actions = [cell.strip() for cell in rows[0][1:]]
    # a repeated column or row would silently keep only its last marks
    seen: set[str] = set()
    for action in actions:
        if action in seen:
            raise ParseError(f"{path}:1: duplicate action column {action!r}")
        seen.add(action)
    target: dict[tuple[str, str], str] = {}
    profiles: set[str] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        profile = row[0].strip()
        if profile in profiles:
            raise ParseError(f"{path}:{line_no}: duplicate profile row {profile!r}")
        profiles.add(profile)
        cells = [cell.strip().lower() for cell in row[1:]]
        if len(cells) != len(actions):
            raise ParseError(
                f"{path}:{line_no}: expected {len(actions)} cells, got {len(cells)}"
            )
        for action, cell in zip(actions, cells):
            if cell not in ("", "a", "b"):
                raise ParseError(
                    f"{path}:{line_no}: cell must be 'a', 'b' or empty, got {cell!r}"
                )
            target[(profile, action)] = cell
    return target


def _encode(value: Any, append, newline: str) -> None:
    """Append ``value`` as JSON with two-space indentation, floats rounded.

    The pieces joined are the bytes of ``json.dumps(value, indent=2,
    allow_nan=False)`` with every float first rounded to six decimals:
    strings go through the json module's C quoting, floats and ints
    through ``float.__repr__`` and ``int.__repr__`` as json does, and
    keys must be strings. One pass, with no rounded copy of the report
    and no pure-Python encoder generators.
    """
    if isinstance(value, str):
        append(_quote(value))
    elif isinstance(value, float):
        value = round(value, 6)
        if not math.isfinite(value):
            raise ValueError(
                "Out of range float values are not JSON compliant: " + repr(value)
            )
        append(float.__repr__(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            append(sep)
            append(_quote(key))
            append(": ")
            _encode(item, append, inner)
            sep = "," + inner
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            append(sep)
            _encode(item, append, inner)
            sep = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_report(report: dict) -> str:
    """The report as deterministic JSON text."""
    pieces: list[str] = []
    _encode(report, pieces.append, "\n")
    pieces.append("\n")
    return "".join(pieces)
