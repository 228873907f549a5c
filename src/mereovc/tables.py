"""Decision tables: ingestion, indiscernibility classes, consistency.

A decision table holds finitely many objects described by discrete feature
values plus one real-valued decision column. Feature values are opaque
tokens compared by equality, never ordered or parsed. Object identity is
the row index at load time, so duplicate rows stay distinct objects and
identities survive row removal.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import (
    DecisionParseError,
    DomainError,
    SchemaError,
    StructuralError,
    UsageError,
)

ObjectId = int
Value = Hashable


@dataclass(frozen=True)
class DecisionSystem:
    """Immutable object/feature/decision table.

    Each object holds one value tuple in feature order. Invariants enforced
    at construction: feature names are unique, every object has a row of
    one value per feature, and every object carries a decision.
    """

    objects: tuple[ObjectId, ...]
    features: tuple[str, ...]
    rows: Mapping[ObjectId, tuple[Value, ...]]
    decisions: Mapping[ObjectId, float]

    def __post_init__(self):
        if len(set(self.features)) != len(self.features):
            raise SchemaError("duplicate feature names")
        if len(set(self.objects)) != len(self.objects):
            raise DomainError("duplicate object ids")
        if len(self.rows) != len(self.objects):
            raise DomainError("value table is not rectangular")
        for o in self.objects:
            if o not in self.decisions:
                raise DomainError(f"object {o} has no decision value")
            if o not in self.rows or len(self.rows[o]) != len(self.features):
                raise DomainError("value table is not rectangular")

    @classmethod
    def from_rows(
        cls,
        features: Sequence[str],
        rows: Sequence[Sequence[Value]],
        decisions: Sequence[float],
        object_ids: Sequence[ObjectId] | None = None,
    ) -> "DecisionSystem":
        if len(rows) != len(decisions):
            raise DomainError("rows and decisions differ in length")
        ids = tuple(object_ids) if object_ids is not None else tuple(range(len(rows)))
        for o, row in zip(ids, rows):
            if len(row) != len(features):
                raise StructuralError(f"object {o} has {len(row)} values, expected {len(features)}")
        decision_map = dict(zip(ids, map(float, decisions)))
        return cls(ids, tuple(features), dict(zip(ids, map(tuple, rows))), decision_map)

    def value(self, o: ObjectId, feature: str) -> Value:
        if o not in self.decisions:
            raise KeyError(f"unknown object id {o}")
        if feature not in self.features:
            raise KeyError(f"unknown feature {feature!r}")
        return self.rows[o][self.features.index(feature)]

    def row(self, o: ObjectId) -> dict[str, Value]:
        if o not in self.decisions:
            raise KeyError(f"unknown object id {o}")
        return dict(zip(self.features, self.rows[o]))

    # The same dict as row(o); kept under this name because perfbench/spans.py times it.
    def as_new_object(self, o: ObjectId) -> dict[str, Value]:
        return self.row(o)

    def without_object(self, o: ObjectId) -> "DecisionSystem":
        """The same table minus one object. Remaining ids are unchanged."""
        if o not in self.decisions:
            raise KeyError(f"unknown object id {o}")
        keep = tuple(x for x in self.objects if x != o)
        rows = {x: self.rows[x] for x in keep}
        decisions = {x: self.decisions[x] for x in keep}
        return DecisionSystem(keep, self.features, rows, decisions)


def read_records(source: Iterable[str]) -> list[tuple[int, list[str]]]:
    """Every record of a comma-separated text, paired with the physical
    line it starts on (from 1); a csv error names its line."""
    reader = csv.reader(source)
    records = []
    start = 1
    try:
        for cells in reader:
            records.append((start, cells))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise StructuralError(f"line {reader.line_num}: {exc}") from None
    return records


def load_decision_system(
    source: Iterable[str],
    decision_column: str | None = None,
) -> DecisionSystem:
    """Read a comma-separated table with a header row.

    The decision column defaults to the last header name. Decision cells
    must parse as finite real numbers; all other cells are kept verbatim as
    string tokens. A row is numbered by the physical line it starts on,
    with the header as line 1. The header must be the first line; a blank
    first line or a csv error, such as a cell over the csv field limit, is
    a StructuralError.
    """
    records = read_records(source)
    if not records:
        raise StructuralError("empty input, no header row")
    header = records[0][1]
    if not header:
        raise StructuralError("line 1 is blank; the header row must come first")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise SchemaError(f"duplicate header names: {', '.join(dupes)}")
    if decision_column is None:
        decision_column = header[-1]
    if decision_column not in header:
        raise UsageError(f"unknown decision column {decision_column!r}")
    d_idx = header.index(decision_column)
    features = tuple(h for i, h in enumerate(header) if i != d_idx)

    rows: list[tuple[Value, ...]] = []
    decisions: list[float] = []
    for line_no, cells in records[1:]:
        if not cells:
            continue
        if len(cells) != len(header):
            raise StructuralError(
                f"row {line_no} has {len(cells)} cells but the header has {len(header)}"
            )
        raw = cells[d_idx]
        try:
            decision = float(raw)
        except ValueError:
            decision = math.nan
        if not math.isfinite(decision):
            raise DecisionParseError(
                f"row {line_no}, column {decision_column!r}: {raw!r} is not a finite real number"
            )
        rows.append(tuple(v for i, v in enumerate(cells) if i != d_idx))
        decisions.append(decision)
    return DecisionSystem.from_rows(features, rows, decisions)


def indiscernibility_class(
    system: DecisionSystem, o: ObjectId, features: Iterable[str]
) -> frozenset[ObjectId]:
    """Objects agreeing with o on every feature in the given non-empty set."""
    chosen = tuple(dict.fromkeys(features))
    if not chosen:
        raise DomainError("indiscernibility needs a non-empty feature set")
    reference = [system.value(o, f) for f in chosen]
    at = [system.features.index(f) for f in chosen]
    return frozenset(
        other for other in system.objects if [system.rows[other][i] for i in at] == reference
    )


def find_inconsistency(system: DecisionSystem) -> tuple[ObjectId, ObjectId] | None:
    """A witness pair sharing all feature values but not the decision, if any."""
    first_seen: dict[tuple[Value, ...], ObjectId] = {}
    for o in system.objects:
        signature = system.rows[o]
        if signature in first_seen:
            earlier = first_seen[signature]
            if system.decisions[earlier] != system.decisions[o]:
                return (earlier, o)
        else:
            first_seen[signature] = o
    return None


def is_consistent(system: DecisionSystem) -> bool:
    """True when every full-feature indiscernibility class shares one decision."""
    return find_inconsistency(system) is None


def consistentize(system: DecisionSystem, feature: str = "d") -> DecisionSystem:
    """Copy the decision into a new discrete feature column.

    The enlarged feature set splits every mixed-decision class, so the
    result is always consistent. The synthetic column name must not
    collide with an existing feature.
    """
    if feature in system.features:
        raise SchemaError(f"feature {feature!r} already exists")
    rows = {o: system.rows[o] + (system.decisions[o],) for o in system.objects}
    return DecisionSystem(
        system.objects,
        system.features + (feature,),
        rows,
        dict(system.decisions),
    )


def ground_size(system: DecisionSystem) -> int:
    """Descriptors per row as scored: the feature count, plus one for the
    decision copy column that consistentize adds to an inconsistent table."""
    return len(system.features) + (not is_consistent(system))


def loo_ground_sizes(system: DecisionSystem) -> list[int]:
    """ground_size(system.without_object(o)) for every object o, in object
    order, without building a rest table.

    A table is consistent iff every full-feature class has one decision,
    so the rest table without o is inconsistent iff some class other than
    o's has mixed decisions, or o's class still has once o is removed.
    """
    classes: dict[tuple[Value, ...], Counter] = {}
    for o in system.objects:
        classes.setdefault(system.rows[o], Counter())[system.decisions[o]] += 1
    mixed = sum(len(decisions) > 1 for decisions in classes.values())
    sizes = []
    for o in system.objects:
        decisions = classes[system.rows[o]]
        own_mixed = len(decisions) > 1
        still_mixed = len(decisions) - (decisions[system.decisions[o]] == 1) > 1
        sizes.append(len(system.features) + (mixed - own_mixed > 0 or still_mixed))
    return sizes
