"""Finite mereology on weighted atom sets.

Terms are subsets of a fixed finite atom set whose atoms carry positive
rational weights summing to one. A term is a bit mask over its universe's
atoms, so the Boolean term algebra and the part, component and overlap
relations are integer operations. Weights and rough-inclusion degrees are
exact rationals over integer masses; no floats enter here.

Existential import: relations between things (overlap, exterior, inclusion
degree, parthood on the left) presuppose non-empty terms. The empty term
still exists as an algebraic value, carrying weight zero, because sums,
products and complements must stay total.

Universes compare by identity. Mixing terms from two universes raises
UniverseMismatchError even if the universes look alike.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import lcm
from functools import reduce
from operator import getitem, or_
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping

from .errors import (
    DomainError,
    EmptyTermError,
    UndefinedDegreeError,
    UniverseMismatchError,
)

Atom = Hashable
Degree = Fraction

_new = tuple.__new__


class WeightedUniverse:
    """A finite atom set with positive rational weights summing to one.

    Atom i is bit i of a term's mask. The weights are kept as a read-only
    copy, and also as integer masses over their common denominator, tabled
    for every subset of each run of eight atoms, so that a weight is one
    lookup per eight atoms. A universe is read-only and equals only itself,
    so a copied or unpickled universe is a new universe; terms pickled or
    deep-copied together share one new universe.
    """

    __slots__ = ("atoms", "atom_weights", "_bits", "_full", "_denominator", "_masses")

    def __init__(self, atoms: tuple[Atom, ...], atom_weights: Mapping[Atom, Fraction]):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_weights", MappingProxyType(dict(atom_weights)))
        object.__setattr__(self, "_bits", {a: 1 << i for i, a in enumerate(self.atoms)})
        object.__setattr__(self, "_full", (1 << len(self.atoms)) - 1)
        if not self.atoms:
            raise DomainError("a universe needs at least one atom")
        if len(self._bits) != len(self.atoms):
            raise DomainError("duplicate atoms")
        if self.atom_weights.keys() != self._bits.keys():
            raise DomainError("weights must cover exactly the atoms")
        for a, w in self.atom_weights.items():
            if not isinstance(w, Fraction):
                raise DomainError(f"weight of {a!r} is not a Fraction")
            if w <= 0:
                raise DomainError(f"weight of {a!r} must be positive")
        denominator = lcm(*[w.denominator for w in self.atom_weights.values()])
        masses = [w.numerator * (denominator // w.denominator)
                  for w in map(self.atom_weights.__getitem__, self.atoms)]
        if sum(masses) != denominator:
            raise DomainError("atom weights must sum to exactly 1")
        # tables[k][b] is the mass of the atoms 8k + i for the bits i set in b
        tables = [[0] for _ in range(0, len(masses), 8)]
        for i, m in enumerate(masses):
            tables[i >> 3] += [t + m for t in tables[i >> 3]]
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_masses", tables)

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
        return Term(self, members)

    @property
    def empty(self) -> "Term":
        return _new(Term, (self, 0))

    @property
    def universe(self) -> "Term":
        return _new(Term, (self, self._full))

    def all_terms(self, include_empty: bool = False) -> Iterator["Term"]:
        """Every term, ordered by size then by atom representation."""
        bits = [self._bits[a] for a in sorted(self.atoms, key=repr)]
        start = 0 if include_empty else 1
        for size in range(start, len(bits) + 1):
            for combo in combinations(bits, size):
                yield _new(Term, (self, sum(combo)))


class Term(namedtuple("Term", "universe mask")):
    """A subset of one universe's atoms, as the pair (universe, mask), where
    bit i of mask stands for universe.atoms[i]. Term(universe, members)
    takes atoms, Term._make((universe, mask)) a mask as it is."""

    __slots__ = ()

    def __new__(cls, universe: WeightedUniverse, members: Iterable[Atom]):
        members = frozenset(members)
        stray = members - universe._bits.keys()
        if stray:
            raise DomainError(f"atoms not in this universe: {sorted(stray, key=repr)}")
        return _new(cls, (universe, sum(map(universe._bits.__getitem__, members))))

    @property
    def members(self) -> frozenset[Atom]:
        return frozenset(a for a, bit in self.universe._bits.items() if self.mask & bit)

    @property
    def is_empty(self) -> bool:
        return not self.mask

    def __getnewargs__(self):  # pickled and copied as (universe, members)
        return self.universe, self.members

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
    return x.mask != 0 and x.mask != y.mask and x.mask & y.mask == x.mask


def component(x: Term, y: Term) -> bool:
    """Proper part or equality, for non-empty x."""
    if y.universe is not x.universe:
        _pair(x, y)
    return x.mask != 0 and x.mask & y.mask == x.mask


def overlap(x: Term, y: Term) -> bool:
    if y.universe is not x.universe:
        _pair(x, y)
    if not x.mask or not y.mask:
        _import_required(x, y)
    return x.mask & y.mask != 0


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
    return _new(Term, (u, reduce(or_, [t.mask for t in terms])))


def alg_sum(x: Term, y: Term) -> Term:
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    return _new(Term, (u, x.mask | y.mask))


def alg_product(x: Term, y: Term) -> Term:
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    return _new(Term, (u, x.mask & y.mask))


def alg_complement(x: Term) -> Term:
    return _new(Term, (x.universe, x.universe._full ^ x.mask))


def implication(x: Term, y: Term) -> Term:
    """The term value of x implying y: complement of x joined with y."""
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    return _new(Term, (u, u._full ^ x.mask | y.mask))


def is_valid(x: Term) -> bool:
    """True when the term is the whole universe."""
    return x.mask == x.universe._full


def _mass(u: WeightedUniverse, mask: int) -> int:
    """Weight of the mask's atoms times the universe's common denominator."""
    tables = u._masses
    if mask < 256:
        return tables[0][mask]
    return sum(map(getitem, tables, mask.to_bytes(len(tables), "little")))


def weight(x: Term) -> Fraction:
    u = x.universe
    return Fraction(_mass(u, x.mask), u._denominator)


def degree_of_part(x: Term, y: Term) -> Degree:
    """Exact rough-inclusion degree of x in y: weight of x.y over weight of x.

    The common denominator cancels, so the degree is a ratio of masses.
    """
    u = x.universe
    if y.universe is not u:
        _pair(x, y)
    if not x.mask:
        raise UndefinedDegreeError("inclusion degree of the empty term is undefined")
    return Fraction(_mass(u, x.mask & y.mask), _mass(u, x.mask))
