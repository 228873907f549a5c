"""Aristotelian syllogistic decided over the regions of a Venn diagram.

Three circles a, b and m cut the plane into seven regions, one for each
non-empty set of terms; cell c holds the elements that lie in exactly the
terms whose bits are set in c + 1, with a = 1, b = 2 and m = 4. A model is
the set of inhabited regions, and a term denotes the inhabited regions
inside its circle. This search is complete for arbitrary set models: a
countermodel built from any sets collapses, element by element, to its
pattern of inhabited regions, and the truth of every categorical premiss
depends only on that pattern, so one of the 127 non-empty patterns
reproduces it. All terms carry existential import, so no term ever
denotes the empty collection. A and E say that the inhabited cells avoid
a region, I and O that they meet one, and import that they meet a circle.

Moods follow a fixed scheme: the conclusion relates subject a to
predicate b, the middle term m appears in both premisses, the first
premiss links m with b and the second links m with a. The four possible
orientations of the middle term are the classical figures.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, PremissSyntaxError, UnknownMoodError

QUANTIFIERS = "AIEO"
CELL_COUNT = 7
# the cells inside each circle: cell c lies in term t when bit t is set in c + 1
_CIRCLES = {
    term: sum(1 << c for c in range(CELL_COUNT) if c + 1 & bit)
    for term, bit in (("a", 1), ("b", 2), ("m", 4))
}


class Premiss(namedtuple("Premiss", "quantifier subject predicate")):
    """A categorical statement Q(subject, predicate)."""

    __slots__ = ()

    def __new__(cls, quantifier: str, subject: str, predicate: str):
        if quantifier not in QUANTIFIERS:
            raise DomainError(f"quantifier must be one of {QUANTIFIERS}")
        if not subject or not predicate:
            raise DomainError("terms must be non-empty symbols")
        return super().__new__(cls, quantifier, subject, predicate)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Premiss":
        return cls(*iterable)

    @property
    def terms(self) -> frozenset[str]:
        return frozenset((self.subject, self.predicate))

    def as_text(self) -> str:
        return f"{self.quantifier}{self.subject}{self.predicate}"


class Mood(namedtuple("Mood", "premiss1 premiss2 conclusion")):
    """Two premisses and a conclusion over the term scheme a, b, m."""

    __slots__ = ()

    def __new__(cls, premiss1: Premiss, premiss2: Premiss, conclusion: Premiss):
        if (conclusion.subject, conclusion.predicate) != ("a", "b"):
            raise DomainError("the conclusion must relate a to b")
        for p in (premiss1, premiss2):
            if "m" not in p.terms or len(p.terms) != 2:
                raise DomainError("each premiss must join m with one conclusion term")
        outer = (premiss1.terms | premiss2.terms) - {"m"}
        if outer != {"a", "b"} or premiss1.terms == premiss2.terms:
            raise DomainError("a and b must each occur in exactly one premiss")
        return super().__new__(cls, premiss1, premiss2, conclusion)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Mood":
        return cls(*iterable)

    def as_text(self) -> str:
        return f"{self.premiss1.as_text()} & {self.premiss2.as_text()} -> {self.conclusion.as_text()}"


class EulerModel(namedtuple("EulerModel", "assignment")):
    """An assignment of terms to non-empty sets of cells 0..6."""

    __slots__ = ()

    def __new__(cls, assignment: Mapping[str, frozenset[int]]):
        for term, cells in assignment.items():
            if not cells:
                raise DomainError(f"term {term!r} denotes the empty collection")
            if not cells <= set(range(CELL_COUNT)):
                raise DomainError(f"term {term!r} uses cells outside 0..{CELL_COUNT - 1}")
        return super().__new__(cls, assignment)

    @classmethod
    def _make(cls, iterable: Iterable) -> "EulerModel":
        return cls(*iterable)


def _holds(quantifier: str, subject_mask: int, predicate_mask: int) -> bool:
    if quantifier == "A":
        return subject_mask & predicate_mask == subject_mask
    if quantifier == "I":
        return subject_mask & predicate_mask != 0
    if quantifier == "E":
        return subject_mask & predicate_mask == 0
    return subject_mask & predicate_mask != subject_mask


def _mask_to_cells(mask: int) -> frozenset[int]:
    return frozenset(c for c in range(CELL_COUNT) if mask >> c & 1)


def evaluate_premiss(premiss: Premiss, model: EulerModel) -> bool:
    """Truth of one premiss in a model; both terms must be assigned."""
    try:
        subject = model.assignment[premiss.subject]
        predicate = model.assignment[premiss.predicate]
    except KeyError as missing:
        raise DomainError(f"term {missing.args[0]!r} is not assigned in the model") from None
    s_mask = sum(1 << c for c in subject)
    p_mask = sum(1 << c for c in predicate)
    return _holds(premiss.quantifier, s_mask, p_mask)


def find_model(premisses: Iterable[Premiss]) -> EulerModel | None:
    """A joint model of premisses over the symbols a, b, m, or None.

    Every premiss must relate two distinct symbols from {a, b, m}. The
    search tries the 127 patterns of inhabited regions in ascending order
    and returns the first in which every mentioned term is non-empty and
    every premiss holds, each read as a region to avoid or to meet.
    """
    premisses = tuple(premisses)
    for p in premisses:
        if not p.terms <= _CIRCLES.keys() or len(p.terms) != 2:
            raise DomainError(f"premiss {p.as_text()} is not over two of a, b, m")
    mentioned = [t for t in _CIRCLES if any(t in p.terms for p in premisses)]
    # a premiss's region: the subject's cells inside (E, I) or outside (A, O) the predicate
    avoid, meet = 0, [_CIRCLES[t] for t in mentioned]
    for q, s, p in premisses:
        region = _CIRCLES[s] & (_CIRCLES[p] if q in "EI" else ~_CIRCLES[p])
        if q in "AE":
            avoid |= region
        else:
            meet.append(region)
    for inhabited in range(1, 1 << CELL_COUNT):
        if not inhabited & avoid and all(inhabited & r for r in meet):
            return EulerModel({t: _mask_to_cells(inhabited & _CIRCLES[t]) for t in mentioned})
    return None


_CONTRADICTORY = {"A": "O", "O": "A", "I": "E", "E": "I"}


class MoodVerdict(NamedTuple):
    valid: bool
    countermodel: EulerModel | None

    def __bool__(self) -> bool:
        return self.valid


def is_valid_mood(mood: Mood) -> MoodVerdict:
    """Decide a mood; invalid moods come with a concrete countermodel."""
    denial = Premiss(
        _CONTRADICTORY[mood.conclusion.quantifier],
        mood.conclusion.subject,
        mood.conclusion.predicate,
    )
    counter = find_model((mood.premiss1, mood.premiss2, denial))
    return MoodVerdict(counter is None, counter)


# The catalog of valid moods, keyed by name. Each entry fixes the premiss
# quantifiers, the middle-term orientations and the conclusion quantifier.
# Orientation "mb" means the premiss reads Q(m, b); "bm" means Q(b, m).

_CATALOG: dict[str, tuple[str, str, str, str, str]] = {
    "Barbara":   ("A", "mb", "A", "am", "A"),
    "Barbari":   ("A", "mb", "A", "am", "I"),
    "Darii":     ("A", "mb", "I", "am", "I"),
    "Celarent":  ("E", "mb", "A", "am", "E"),
    "Celaront":  ("E", "mb", "A", "am", "O"),
    "Ferio":     ("E", "mb", "I", "am", "O"),
    "Cesare":    ("E", "bm", "A", "am", "E"),
    "Camestres": ("A", "bm", "E", "am", "E"),
    "Cesaro":    ("E", "bm", "A", "am", "O"),
    "Camestrop": ("A", "bm", "E", "am", "O"),
    "Festino":   ("E", "bm", "I", "am", "O"),
    "Baroco":    ("A", "bm", "O", "am", "O"),
    "Datisi":    ("A", "mb", "I", "ma", "I"),
    "Darapti":   ("A", "mb", "A", "ma", "I"),
    "Disamis":   ("I", "mb", "A", "ma", "I"),
    "Felapton":  ("E", "mb", "A", "ma", "O"),
    "Bocardo":   ("O", "mb", "A", "ma", "O"),
    "Ferison":   ("E", "mb", "I", "ma", "O"),
    "Bamalip":   ("A", "bm", "A", "ma", "I"),
    "Dimatis":   ("I", "bm", "A", "ma", "I"),
    "Calemes":   ("A", "bm", "E", "ma", "E"),
    "Camelop":   ("A", "bm", "E", "ma", "O"),
    "Fesapo":    ("E", "bm", "A", "ma", "O"),
    "Fresison":  ("E", "bm", "I", "ma", "O"),
}

_FIGURES = {("mb", "am"): 1, ("bm", "am"): 2, ("mb", "ma"): 3, ("bm", "ma"): 4}


def _premiss_from_pattern(quantifier: str, pattern: str) -> Premiss:
    return Premiss(quantifier, pattern[0], pattern[1])


def _mood_from_shape(q1: str, pat1: str, q2: str, pat2: str, q3: str) -> Mood:
    return Mood(
        _premiss_from_pattern(q1, pat1),
        _premiss_from_pattern(q2, pat2),
        Premiss(q3, "a", "b"),
    )


class MoodEntry(NamedTuple):
    figure: int
    mood: Mood
    name: str | None
    valid: bool


def enumerate_moods() -> list[MoodEntry]:
    """All 256 moods over the four figures, decided and named.

    Names come from the catalog; validity comes from the model search, so
    the two can be cross-checked against each other.
    """
    by_shape = {shape: name for name, shape in _CATALOG.items()}
    entries = []
    for (pat1, pat2), figure in sorted(_FIGURES.items(), key=lambda kv: kv[1]):
        for q1 in QUANTIFIERS:
            for q2 in QUANTIFIERS:
                for q3 in QUANTIFIERS:
                    mood = _mood_from_shape(q1, pat1, q2, pat2, q3)
                    name = by_shape.get((q1, pat1, q2, pat2, q3))
                    entries.append(
                        MoodEntry(figure, mood, name, is_valid_mood(mood).valid)
                    )
    return entries


def lookup_mood(name: str) -> Mood:
    """Catalog lookup by (case-insensitive) traditional name."""
    for catalog_name, shape in _CATALOG.items():
        if catalog_name.lower() == name.lower():
            return _mood_from_shape(*shape)
    raise UnknownMoodError(f"unknown mood name {name!r}")


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


_COMPACT = re.compile(r"([AIEO])([a-z])([a-z])\Z")
_ENGLISH = (
    (re.compile(r"all\s+(\w+)\s+(?:is|are)\s+(\w+)\Z", re.IGNORECASE), "A"),
    (re.compile(r"some\s+(\w+)\s+(?:is|are)\s+not\s+(\w+)\Z", re.IGNORECASE), "O"),
    (re.compile(r"some\s+(\w+)\s+(?:is|are)\s+(\w+)\Z", re.IGNORECASE), "I"),
    (re.compile(r"no\s+(\w+)\s+(?:is|are)\s+(\w+)\Z", re.IGNORECASE), "E"),
)


def parse_premiss(text: str) -> Premiss:
    """Parse either the compact form Xst or an English categorical form.

    Compact: a quantifier letter followed by two lowercase term letters,
    as in "Amb". English: "All s is p", "Some s is p", "No s is p" and
    "Some s is not p" (each also with "are"), case-insensitive, with
    multi-letter term names allowed.
    """
    stripped = text.strip()
    if len(stripped) == 3 and not stripped[0].islower():
        match = _COMPACT.fullmatch(stripped)
        if match:
            return Premiss(match.group(1), match.group(2), match.group(3))
        position = 0 if stripped[0] not in QUANTIFIERS else (1 if not stripped[1].islower() else 2)
        raise PremissSyntaxError(
            f"cannot parse premiss {text!r} at position {position}: "
            f"expected a quantifier in {QUANTIFIERS} and two lowercase terms",
            position,
        )
    for pattern, quantifier in _ENGLISH:
        match = pattern.fullmatch(stripped)
        if match:
            return Premiss(quantifier, match.group(1), match.group(2))
    raise PremissSyntaxError(
        f"cannot parse premiss {text!r} at position 0: expected Xst or an "
        "English form like 'All s is p'",
        0,
    )


def parse_mood(text: str) -> Mood:
    """Parse "P1 & P2 -> C" into a mood over the a, b, m scheme."""
    normalised = text.replace("⊃", "->").replace("∧", "&")
    if "->" not in normalised:
        raise PremissSyntaxError(
            f"mood expression {text!r} has no conclusion arrow", len(normalised)
        )
    left, _, conclusion_text = normalised.partition("->")
    parts = left.split("&")
    if len(parts) != 2:
        raise PremissSyntaxError(
            f"mood expression {text!r} must join exactly two premisses with &", 0
        )
    p1 = parse_premiss(parts[0])
    p2 = parse_premiss(parts[1])
    conclusion = parse_premiss(conclusion_text)
    try:
        return Mood(p1, p2, conclusion)
    except DomainError as exc:
        raise PremissSyntaxError(f"ill-formed mood {text!r}: {exc}", 0) from None
