"""Finite mereology on weighted atom sets.

Terms are subsets of a fixed finite atom set whose atoms carry positive
rational weights summing to one. Part and component relations, the Boolean
term algebra, the weight function and rough-inclusion degrees are computed
with exact rational arithmetic throughout; no floats enter here.

Existential import: relations between things (overlap, exterior, inclusion
degree, parthood on the left) presuppose non-empty terms. The empty term
still exists as an algebraic value, carrying weight zero, because sums,
products and complements must stay total.

Universes compare by identity. Mixing terms from two universes raises
UniverseMismatchError even if the universes look alike.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    DomainError,
    EmptyTermError,
    UndefinedDegreeError,
    UniverseMismatchError,
)

Atom = Hashable
Degree = Fraction


class WeightedUniverse:
    """A finite atom set with positive rational weights summing to one.

    The weights are kept as a read-only copy, and also as integer masses
    over their common denominator, so that a weight is one integer sum.
    The atoms are also kept once as a frozenset. A universe is read-only
    and equals only itself, so a copied or unpickled universe is a new
    universe; terms pickled or deep-copied together share one new universe.
    """

    __slots__ = ("atoms", "atom_weights", "_atom_set", "_denominator", "_masses")

    def __init__(self, atoms: tuple[Atom, ...], atom_weights: Mapping[Atom, Fraction]):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_weights", MappingProxyType(dict(atom_weights)))
        object.__setattr__(self, "_atom_set", frozenset(self.atoms))
        if not self.atoms:
            raise DomainError("a universe needs at least one atom")
        if len(self._atom_set) != len(self.atoms):
            raise DomainError("duplicate atoms")
        if self.atom_weights.keys() != self._atom_set:
            raise DomainError("weights must cover exactly the atoms")
        for a, w in self.atom_weights.items():
            if not isinstance(w, Fraction):
                raise DomainError(f"weight of {a!r} is not a Fraction")
            if w <= 0:
                raise DomainError(f"weight of {a!r} must be positive")
        denominator = lcm(*(w.denominator for w in self.atom_weights.values()))
        masses = {a: w.numerator * (denominator // w.denominator)
                  for a, w in self.atom_weights.items()}
        if sum(masses.values()) != denominator:
            raise DomainError("atom weights must sum to exactly 1")
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_masses", masses)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"WeightedUniverse(atoms={self.atoms!r}, atom_weights={self.atom_weights!r})"

    def __reduce__(self):
        # rebuilt through the constructor, since __setattr__ refuses slot by
        # slot restores; serves pickle, copy.copy and copy.deepcopy
        return WeightedUniverse, (self.atoms, dict(self.atom_weights))

    @classmethod
    def uniform(cls, atoms: Iterable[Atom]) -> "WeightedUniverse":
        atoms = tuple(atoms)
        n = len(atoms)
        return cls(atoms, {a: Fraction(1, n) for a in atoms})

    @classmethod
    def from_counts(cls, counts: Mapping[Atom, int]) -> "WeightedUniverse":
        """Normalise positive integer masses into exact weights."""
        for a, c in counts.items():
            if not isinstance(c, int) or c <= 0:
                raise DomainError(f"mass of {a!r} must be a positive integer, not {c!r}")
        atoms = tuple(counts)
        total = sum(counts.values())
        return cls(atoms, {a: Fraction(c, total) for a, c in counts.items()})

    def term(self, members: Iterable[Atom]) -> "Term":
        members = frozenset(members)
        stray = members - self._atom_set
        if stray:
            raise DomainError(f"atoms not in this universe: {sorted(stray, key=repr)}")
        return Term(self, members)

    @property
    def empty(self) -> "Term":
        return Term(self, frozenset())

    @property
    def universe(self) -> "Term":
        return Term(self, self._atom_set)

    def all_terms(self, include_empty: bool = False) -> Iterator["Term"]:
        """Every term, ordered by size then by atom representation."""
        atoms = sorted(self.atoms, key=repr)
        start = 0 if include_empty else 1
        for size in range(start, len(atoms) + 1):
            for combo in combinations(atoms, size):
                yield Term(self, frozenset(combo))


class Term(NamedTuple):
    """A subset of one universe's atoms, as the pair (universe, members)."""

    universe: WeightedUniverse
    members: frozenset[Atom]

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __repr__(self):
        return f"Term({{{', '.join(map(repr, sorted(self.members, key=repr)))}}})"


def _pair(x: Term, y: Term) -> None:
    if y.universe is not x.universe:
        raise UniverseMismatchError("terms belong to different universes")


def _import_required(*terms: Term) -> None:
    for t in terms:
        if t.is_empty:
            raise EmptyTermError("the empty term has no existential import")


def proper_part(x: Term, y: Term) -> bool:
    """Strict containment of a non-empty term. Nothing is part of itself."""
    if y.universe is not x.universe:
        _pair(x, y)
    return bool(x.members) and x.members < y.members


def component(x: Term, y: Term) -> bool:
    """Proper part or equality, for non-empty x."""
    if y.universe is not x.universe:
        _pair(x, y)
    return bool(x.members) and x.members <= y.members


def overlap(x: Term, y: Term) -> bool:
    if y.universe is not x.universe:
        _pair(x, y)
    if not x.members or not y.members:
        _import_required(x, y)
    return not x.members.isdisjoint(y.members)


def exterior(x: Term, y: Term) -> bool:
    return not overlap(x, y)


def relative_exterior(a: Term, m: Term, b: Term) -> bool:
    """Both proper parts of b, yet disjoint from one another."""
    _pair(a, m)
    _pair(a, b)
    _import_required(a, m)
    return proper_part(a, b) and proper_part(m, b) and exterior(a, m)


def class_of(terms: Iterable[Term]) -> Term:
    """The mereological class of a collection: the union of its members.

    The collection must be non-empty and every member must be non-empty;
    there is no null class.
    """
    terms = tuple(terms)
    if not terms:
        raise DomainError("the class of an empty collection does not exist")
    u = terms[0].universe
    for t in terms[1:]:
        _pair(terms[0], t)
    _import_required(*terms)
    merged: frozenset[Atom] = frozenset()
    for t in terms:
        merged |= t.members
    return Term(u, merged)


def alg_sum(x: Term, y: Term) -> Term:
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    return Term(u, x.members | y.members)


def alg_product(x: Term, y: Term) -> Term:
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    return Term(u, x.members & y.members)


def alg_complement(x: Term) -> Term:
    return Term(x.universe, x.universe._atom_set - x.members)


def implication(x: Term, y: Term) -> Term:
    """The term value of x implying y: complement of x joined with y."""
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    return Term(u, (u._atom_set - x.members) | y.members)


def is_valid(x: Term) -> bool:
    """True when the term is the whole universe."""
    return x.members == x.universe._atom_set


def _mass(u: WeightedUniverse, members: Iterable[Atom]) -> int:
    """Weight of the members times the universe's common denominator."""
    return sum(map(u._masses.__getitem__, members))


def weight(x: Term) -> Fraction:
    u = x.universe
    return Fraction(_mass(u, x.members), u._denominator)


def degree_of_part(x: Term, y: Term) -> Degree:
    """Exact rough-inclusion degree of x in y: weight of x.y over weight of x.

    The common denominator cancels, so the degree is a ratio of masses.
    """
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    if not x.members:
        raise UndefinedDegreeError("inclusion degree of the empty term is undefined")
    return Fraction(_mass(u, x.members & y.members), _mass(u, x.members))

