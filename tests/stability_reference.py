"""Per-edit reference for the stability checker's predicted bounds.

One function per edit type spells out the single-edit case analysis
literally: which bound moves, and where, for each way the edited level's
relations can change. Each takes the action's relation to every level
(``relations``) and to every profile (``rows``) before the edit, the
scores ``x``, its bound levels ``r`` and ``t``, ``added``, its relation
to the inserted profiles, and ``at``, the level the edit touches, and
returns the predicted lower and upper bound (``None`` = no bound) and
the action's relation to every level after the edit.

``electre_score.properties._edited`` and ``_predicted`` state the same
analysis as one rule; ``tests/test_properties.py::TestStabilityReference``
checks that the two agree.
"""

from __future__ import annotations

import math
from typing import Callable

from electre_score.properties import DeleteProfile, DeleteSet, InsertProfile, InsertSet
from electre_score.refsets import SetClassification, classify_relations

_AP, _SP = SetClassification.ACTION_PREFERRED, SetClassification.SET_PREFERRED


def after_insert_set(edit, at, relations, rows, x, r, t, added):
    cls = classify_relations(added)
    lower, upper = x[r], x[t]
    if cls is _AP and x[r] < edit.score < (x[r + 1] if r + 1 < len(x) else math.inf):
        lower = edit.score
    if cls is _SP and (x[t - 1] if t >= 1 else -math.inf) < edit.score < x[t]:
        upper = edit.score
    out = list(relations)
    out.insert(at, cls)
    return lower, upper, out


def after_delete_set(edit, at, relations, rows, x, r, t, added):
    lower = (x[r - 1] if r >= 1 else None) if at == r else x[r]
    upper = (x[t + 1] if t + 1 < len(x) else None) if at == t else x[t]
    out = list(relations)
    del out[at]
    return lower, upper, out


def after_insert_profile(edit, at, relations, rows, x, r, t, added):
    row, (new,) = rows[at], added
    lower, upper = x[r], x[t]
    if new is _SP and at == r:
        lower = x[r - 1] if r >= 1 else None
    elif new is _AP and at == r + 1 and _SP not in row:
        lower = x[r + 1]
    if new is _AP and at == t:
        upper = x[t + 1] if t + 1 < len(x) else None
    elif new is _SP and at == t - 1 and _AP not in row:
        upper = x[t - 1]
    out = list(relations)
    out[at] = classify_relations(row + added)
    return lower, upper, out


def after_delete_profile(edit, at, relations, rows, x, r, t, added):
    row, i = rows[at], edit.profile_index
    gone, others = row[i], row[:i] + row[i + 1 :]
    lower, upper = x[r], x[t]
    if at == r and gone is _AP and _AP not in others:
        lower = x[r - 1] if r >= 1 else None
    elif at == r + 1 and gone is _SP and _SP not in others and _AP in others:
        lower = x[r + 1]
    if at == t and gone is _SP and _SP not in others:
        upper = x[t + 1] if t + 1 < len(x) else None
    elif at == t - 1 and gone is _AP and _AP not in others and _SP in others:
        upper = x[t - 1]
    out = list(relations)
    out[at] = classify_relations(others)
    return lower, upper, out


AFTER_EDIT: dict[type, Callable[..., tuple]] = {
    InsertSet: after_insert_set,
    DeleteSet: after_delete_set,
    InsertProfile: after_insert_profile,
    DeleteProfile: after_delete_profile,
}
