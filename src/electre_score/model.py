"""Domain types shared by every other module.

All types are named tuples: immutable, so a model is safe to share across
threads and across repeated evaluations, and cheap to define and build.
Structural checks that need the whole model (threshold ordering over the
observed performance range, score ordering, profile arity) live in
:func:`validate_model`, which reports violations instead of raising so a
caller can show all problems at once.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Mapping, NamedTuple, Sequence


class AllZeroWeightsError(ValueError):
    """Raised when every criterion weight is zero."""


def checked(cls):
    """Make the constructor of the named tuple ``cls``, and ``_replace``,
    run ``cls._check``; a NamedTuple body cannot define ``__new__``."""
    new = cls.__new__

    @functools.wraps(new)
    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls


class Direction(enum.Enum):
    MAX = "max"
    MIN = "min"


class ThresholdMode(enum.Enum):
    """How a threshold varies with the compared performances.

    CONSTANT: fixed value (slope must be 0).
    DIRECT:   affine in the worse of the two performances.
    INVERSE:  affine in the better of the two performances.
    """

    CONSTANT = "constant"
    DIRECT = "direct"
    INVERSE = "inverse"


@checked
class ThresholdSpec(NamedTuple):
    """Affine threshold ``intercept + slope * g`` on a criterion's scale."""

    intercept: float
    slope: float = 0.0
    mode: ThresholdMode = ThresholdMode.CONSTANT

    def _check(self) -> None:
        if self.mode is ThresholdMode.CONSTANT and self.slope != 0.0:
            raise ValueError("constant threshold requires slope = 0")

    def at(self, g: float) -> float:
        """The threshold's value at performance ``g``."""
        return self.intercept + self.slope * g


@checked
class Criterion(NamedTuple):
    """A pseudo-criterion: direction, weight, and discrimination thresholds.

    ``ordinal`` marks coded verbal scales; thresholds on those are meant
    as level differences and validation flags non-integer ones.
    """

    name: str
    direction: Direction
    weight: float
    indifference: ThresholdSpec
    preference: ThresholdSpec
    veto: ThresholdSpec | None = None
    ordinal: bool = False

    def _check(self) -> None:
        if self.weight < 0:
            raise ValueError(f"criterion {self.name!r}: weight must be >= 0")


@checked
class PerformanceTable(NamedTuple):
    """Actions x criteria performances: one row per action, in criteria order.

    Every row has one value per criterion, so the table is total by
    construction.
    """

    criteria: tuple[Criterion, ...]
    rows: Mapping[str, tuple[float, ...]]

    def _check(self) -> None:
        for action, values in self.rows.items():
            if len(values) != len(self.criteria):
                raise ValueError(
                    f"action {action!r}: expected {len(self.criteria)} performances, "
                    f"got {len(values)}"
                )

    @classmethod
    def from_rows(
        cls,
        criteria: Sequence[Criterion],
        rows: Mapping[str, Sequence[float]],
    ) -> "PerformanceTable":
        """Build a table from per-action performance vectors (criteria order)."""
        return cls(
            tuple(criteria),
            {action: tuple(map(float, values)) for action, values in rows.items()},
        )

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(self.rows)

    def vector(self, action: str) -> tuple[float, ...]:
        return self.rows[action]


@checked
class ReferenceSet(NamedTuple):
    """One scored set of limiting profiles."""

    score: float
    profiles: tuple[tuple[float, ...], ...]
    names: tuple[str, ...] = ()

    def _check(self) -> None:
        if not self.profiles:
            raise ValueError("reference set must contain at least one profile")
        if self.names and len(self.names) != len(self.profiles):
            raise ValueError("profile name count must match profile count")


@checked
class ReferenceStructure(NamedTuple):
    """Strictly increasing scored reference sets of limiting profiles."""

    sets: tuple[ReferenceSet, ...]

    def _check(self) -> None:
        if len(self.sets) < 2:
            raise ValueError("reference structure needs at least two sets")

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(s.score for s in self.sets)

    def profile_names(self) -> tuple[tuple[str, ...], ...]:
        """Per-level profile names; default is positional (b11, b21, b22, ...)."""
        return tuple(
            ref.names or tuple(f"b{k}{p}" for p in range(1, len(ref.profiles) + 1))
            for k, ref in enumerate(self.sets, start=1)
        )

    def flat_profiles(self) -> list[tuple[str, int, int, tuple[float, ...]]]:
        """(name, level_index, profile_index, vector) for every profile."""
        names = self.profile_names()
        return [
            (names[k][p], k, p, vec)
            for k, ref in enumerate(self.sets) for p, vec in enumerate(ref.profiles)
        ]


def check_cutting_level(lam: float) -> float:
    """The cutting level turning credibility into a crisp relation, in ]0.5, 1]."""
    if not 0.5 < lam <= 1.0:
        raise ValueError(f"cutting level must lie in ]0.5, 1], got {lam}")
    return lam


class ValidationReport(NamedTuple):
    """Outcome of structural validation: hard violations plus advisories."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _observed_values(
    table: PerformanceTable | None, refs: ReferenceStructure | None, j: int
) -> list[float]:
    # tolerant of short profiles: their arity is reported separately,
    # threshold checks just use what is present
    values: list[float] = []
    if table is not None:
        values.extend(row[j] for row in table.rows.values())
    if refs is not None:
        for ref in refs.sets:
            values.extend(vec[j] for vec in ref.profiles if j < len(vec))
    return values


def validate_model(
    table: PerformanceTable | None,
    refs: ReferenceStructure | None,
) -> ValidationReport:
    """Check every structural invariant of the supplied model pieces.

    Returns a report listing all violations; an empty report means the
    model is well formed. Either argument may be omitted to validate the
    pieces separately.
    """
    errors: list[str] = []
    warnings: list[str] = []

    if table is not None:
        names = [c.name for c in table.criteria]
        if len(set(names)) != len(names):
            errors.append("criterion names are not unique")
        if not any(c.weight > 0 for c in table.criteria):
            errors.append("no criterion has positive weight")
        total = 0.0
        for crit in table.criteria:
            # in criterion order, as the credibility kernel adds them
            total += crit.weight
        if not math.isfinite(total):
            errors.append(f"criterion weights sum to {total}, beyond the float range")

    if refs is not None:
        scores = refs.scores
        for lo, hi in zip(scores, scores[1:]):
            if not lo < hi:
                errors.append(
                    f"reference scores not strictly increasing: {lo} !< {hi}"
                )
        if table is not None:
            width = len(table.criteria)
            for name, k, p, vec in refs.flat_profiles():
                if len(vec) != width:
                    errors.append(
                        f"profile {name}: expected {width} values, got {len(vec)}"
                    )
            flat_names = [n for n, _, _, _ in refs.flat_profiles()]
            if len(set(flat_names)) != len(flat_names):
                errors.append("profile names are not unique")
            overlap = set(flat_names) & set(table.actions)
            if overlap:
                errors.append(
                    f"identifiers used both as action and profile: {sorted(overlap)}"
                )

    if table is not None:
        for j, crit in enumerate(table.criteria):
            observed = _observed_values(table, refs, j)
            for g in observed:
                q = crit.indifference.at(g)
                p = crit.preference.at(g)
                if q < 0:
                    errors.append(
                        f"criterion {crit.name}: indifference threshold {q} < 0 at g={g}"
                    )
                if not q <= p:
                    errors.append(
                        f"criterion {crit.name}: q({g})={q} exceeds p({g})={p}"
                    )
                if crit.veto is not None:
                    v = crit.veto.at(g)
                    if not p < v:
                        errors.append(
                            f"criterion {crit.name}: veto v({g})={v} must exceed p({g})={p}"
                        )
            if crit.ordinal:
                for label, spec in (
                    ("indifference", crit.indifference),
                    ("preference", crit.preference),
                    ("veto", crit.veto),
                ):
                    if spec is None:
                        continue
                    variable = spec.mode is not ThresholdMode.CONSTANT
                    if variable or not float(spec.intercept).is_integer():
                        warnings.append(
                            f"criterion {crit.name}: ordinal scale with non-integer "
                            f"or variable {label} threshold"
                        )

    return ValidationReport(tuple(errors), tuple(warnings))
